//! The aggregation engine: named aggregates, sharded ingest, and the
//! deterministic merge tree.
//!
//! ## Shard layout
//!
//! Each [`Aggregate`] owns `K` mutex-guarded [`Superaccumulator`]s. A
//! client is pinned to shard `client_id mod K` — deterministic, so
//! contention is spread without any routing state — and every batch lands
//! via one lock acquisition and one batched `add_slice` (the SIMD hot
//! path). Two clients on different shards never contend; two on the same
//! shard serialize only against each other.
//!
//! ## Why finalize is bitwise-invariant
//!
//! A superaccumulator's `add`/`merge` is integer addition, commutative
//! and associative. Therefore the map from the *multiset of ingested
//! values* to the merged state is independent of: which shard each value
//! landed in (shard count / client assignment), the order values arrived
//! (client interleaving, worker count), and the shape of the merge tree
//! over shards. Finalize still folds shards in the fixed stride-doubling
//! order of [`repro_sum::lanes::merge_in_lane_order`], the workspace's one
//! merge schedule. Rounding to `f64` happens once, in `finalize`, after
//! the last merge.
//!
//! ## Consistent snapshots
//!
//! Ingest bumps an aggregate's `updates`/`batches` counters inside the
//! shard's critical section, and every multi-shard path
//! ([`Aggregate::serialize`], [`Aggregate::finalize`],
//! [`Aggregate::merge_parsed`]) holds *all* shard locks at once, taken in
//! index order. So a snapshot taken while clients are ingesting is a cut
//! between whole batches: its counters always describe exactly the
//! batches its shard contents hold, with no "quiesce ingest first"
//! convention for callers to remember.

use crate::state::{self, valid_name, AggStateError, OperatorKind, ParsedAggregate};
use repro_fp::Superaccumulator;
use repro_sum::lanes::merge_in_lane_order;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Engine-wide configuration: the shard count for new aggregates.
#[derive(Clone, Copy, Debug)]
pub struct AggConfig {
    /// Shards per newly declared aggregate (≥ 1).
    pub shards: usize,
}

impl Default for AggConfig {
    fn default() -> Self {
        AggConfig { shards: 4 }
    }
}

/// One named aggregate: `K` sharded partial states plus ingest counters.
#[derive(Debug)]
pub struct Aggregate {
    name: String,
    shards: Vec<Mutex<Superaccumulator>>,
    /// Written only while holding a shard lock, and read for a snapshot
    /// under every shard lock, so the mutexes order the counters against
    /// the shard contents and `Relaxed` suffices (see the module docs).
    updates: AtomicU64,
    batches: AtomicU64,
}

impl Aggregate {
    fn new(name: String, shard_count: usize) -> Self {
        let shards = (0..shard_count.max(1))
            .map(|_| Mutex::new(Superaccumulator::new()))
            .collect();
        Aggregate {
            name,
            shards,
            updates: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    fn from_parsed(parsed: ParsedAggregate) -> Self {
        Aggregate {
            name: parsed.name,
            shards: parsed.shards.into_iter().map(Mutex::new).collect(),
            updates: AtomicU64::new(parsed.updates),
            batches: AtomicU64::new(parsed.batches),
        }
    }

    /// Aggregate name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator every shard runs (always [`OperatorKind::Exact`]).
    pub fn op(&self) -> OperatorKind {
        OperatorKind::Exact
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Values ingested so far.
    pub fn updates(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Batches ingested so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// The shard a client's batches land in: `client_id mod K`.
    pub fn shard_of(&self, client_id: u64) -> usize {
        (client_id % self.shards.len() as u64) as usize
    }

    /// Ingest one batch from `client_id`: one lock, one batched
    /// `add_slice`, and the counter bumps inside the same critical section.
    pub fn ingest(&self, client_id: u64, values: &[f64]) {
        let mut shard = lock(&self.shards[self.shard_of(client_id)]);
        shard.add_slice(values);
        self.updates
            .fetch_add(values.len() as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Every shard's lock, taken in index order (the one order every
    /// multi-shard path uses, so they cannot deadlock).
    fn lock_all(&self) -> Vec<MutexGuard<'_, Superaccumulator>> {
        self.shards.iter().map(lock).collect()
    }

    /// A consistent cut: every shard's state plus the `(updates, batches)`
    /// counters, all read under every shard lock.
    fn cut(&self) -> (Vec<Superaccumulator>, u64, u64) {
        let guards = self.lock_all();
        let states = guards.iter().map(|shard| (**shard).clone()).collect();
        (states, self.updates(), self.batches())
    }

    /// The merged root state (stride-doubling over a consistent cut).
    pub fn merged_state(&self) -> Superaccumulator {
        merge_in_lane_order(self.cut().0).expect("aggregates have at least one shard")
    }

    /// Finalize: merge all shards, round once.
    pub fn finalize(&self) -> f64 {
        let result = self.merged_state().to_f64();
        repro_obs::flight::record_with("agg", "finalize", || {
            vec![
                repro_obs::f("name", self.name.as_str()),
                repro_obs::f("bits", format!("{:016x}", result.to_bits())),
                repro_obs::f("updates", self.updates()),
            ]
        });
        result
    }

    /// [`Aggregate::finalize`] as raw IEEE-754 bits (what the CI identity
    /// gates compare).
    pub fn finalize_bits(&self) -> u64 {
        self.finalize().to_bits()
    }

    /// Serialize this aggregate as one `repro-agg-state-v2` document, a
    /// consistent cut even while other threads ingest.
    pub fn serialize(&self) -> String {
        let (states, updates, batches) = self.cut();
        state::render_aggregate(&self.name, updates, batches, &states)
    }

    /// Merge a shipped aggregate state into this one: the remote's shard
    /// `i` folds into local shard `i mod K_local` (any assignment yields
    /// the same bits; this one keeps the shard count). All-or-nothing
    /// under every shard lock; a counter that would overflow is an error
    /// and merges nothing.
    pub fn merge_parsed(&self, remote: &ParsedAggregate) -> Result<(), AggStateError> {
        let mut guards = self.lock_all();
        let (Some(updates), Some(batches)) = (
            self.updates().checked_add(remote.updates),
            self.batches().checked_add(remote.batches),
        ) else {
            return Err(AggStateError(format!(
                "counter overflow merging {:?}",
                self.name
            )));
        };
        let k = guards.len();
        for (i, shard) in remote.shards.iter().enumerate() {
            guards[i % k].merge(shard);
        }
        self.updates.store(updates, Ordering::Relaxed);
        self.batches.store(batches, Ordering::Relaxed);
        Ok(())
    }
}

/// The engine: a registry of named aggregates sharing one configuration.
#[derive(Debug)]
pub struct AggEngine {
    config: AggConfig,
    aggregates: RwLock<BTreeMap<String, Arc<Aggregate>>>,
}

impl AggEngine {
    /// An empty engine.
    pub fn new(config: AggConfig) -> Self {
        AggEngine {
            config,
            aggregates: RwLock::new(BTreeMap::new()),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AggConfig {
        &self.config
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<Aggregate>>> {
        self.aggregates
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Arc<Aggregate>>> {
        self.aggregates
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Declare (or fetch) an aggregate with the engine's shard count.
    /// Redeclaration returns the existing aggregate untouched (restored
    /// state wins). `_sample` is unused: every aggregate runs the exact
    /// superaccumulator, so there is no operator to choose. The parameter
    /// remains only so existing callers keep compiling.
    ///
    /// # Panics
    /// If `name` is not a legal wire name (`[A-Za-z0-9_.:-]+`).
    pub fn declare(&self, name: &str, _sample: &[f64]) -> Arc<Aggregate> {
        assert!(valid_name(name), "invalid aggregate name {name:?}");
        if let Some(existing) = self.read().get(name) {
            return existing.clone();
        }
        let mut map = self.write();
        let entry = map.entry(name.to_string()).or_insert_with(|| {
            repro_obs::flight::record_with("agg", "declare", || {
                vec![
                    repro_obs::f("name", name),
                    repro_obs::f("shards", self.config.shards as u64),
                ]
            });
            Arc::new(Aggregate::new(name.to_string(), self.config.shards))
        });
        entry.clone()
    }

    /// Fetch an aggregate by name.
    pub fn get(&self, name: &str) -> Option<Arc<Aggregate>> {
        self.read().get(name).cloned()
    }

    /// All aggregates, in name order.
    pub fn aggregates(&self) -> Vec<Arc<Aggregate>> {
        self.read().values().cloned().collect()
    }

    /// Total values ingested across all aggregates.
    pub fn total_updates(&self) -> u64 {
        self.read().values().map(|a| a.updates()).sum()
    }

    /// Serialize the whole engine as a `repro-agg-snapshot-v2` document.
    pub fn serialize(&self) -> String {
        let aggregates = self.aggregates();
        let docs: Vec<String> = aggregates.iter().map(|a| a.serialize()).collect();
        repro_obs::flight::record_with("agg", "snapshot", || {
            vec![
                repro_obs::f("aggregates", docs.len() as u64),
                repro_obs::f("updates", self.total_updates()),
            ]
        });
        state::render_snapshot(&docs)
    }

    /// Rebuild an engine from a serialized snapshot. Shard counts come
    /// from the wire (they are part of the state), not from `config`;
    /// `config` governs aggregates declared later.
    pub fn restore(text: &str, config: AggConfig) -> Result<Self, AggStateError> {
        let parsed = state::parse_snapshot(text)?;
        let engine = AggEngine::new(config);
        {
            let mut map = engine.write();
            for p in parsed {
                map.insert(p.name.clone(), Arc::new(Aggregate::from_parsed(p)));
            }
        }
        Ok(engine)
    }

    /// Merge a shipped snapshot into this engine: unknown aggregates are
    /// adopted wholesale, known ones shard-merge.
    pub fn merge_serialized(&self, text: &str) -> Result<(), AggStateError> {
        let parsed = state::parse_snapshot(text)?;
        for p in parsed {
            let existing = self.get(&p.name);
            match existing {
                Some(agg) => agg.merge_parsed(&p)?,
                None => {
                    self.write()
                        .entry(p.name.clone())
                        .or_insert_with(|| Arc::new(Aggregate::from_parsed(p)));
                }
            }
        }
        Ok(())
    }

    /// A single-`f64` digest of the whole engine: the **exact** sum (via
    /// a superaccumulator) of every aggregate's finalized value, in name
    /// order. This is what an `agg` run manifest records as
    /// `result_bits`, and what `replay` re-derives.
    pub fn digest_bits(&self) -> u64 {
        let mut digest = repro_fp::Superaccumulator::new();
        for agg in self.aggregates() {
            digest.add(agg.finalize());
        }
        digest.to_f64().to_bits()
    }

    /// Publish `agg.*` gauges (engine totals and per-aggregate updates)
    /// into `registry`.
    pub fn publish(&self, registry: &repro_obs::Registry) {
        let aggregates = self.aggregates();
        registry.gauge_set("agg.aggregates", aggregates.len() as f64);
        registry.gauge_set("agg.updates", self.total_updates() as f64);
        let shards: usize = aggregates.iter().map(|a| a.shard_count()).sum();
        registry.gauge_set("agg.shards", shards as f64);
        for agg in &aggregates {
            registry.gauge_set(&format!("agg.updates.{}", agg.name()), agg.updates() as f64);
            registry.gauge_set(&format!("agg.batches.{}", agg.name()), agg.batches() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_fp::rng::DetRng;

    fn hostile(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let e = rng.random_range(-40i32..40) as f64;
                (rng.next_f64() - 0.5) * e.exp2()
            })
            .collect()
    }

    #[test]
    fn sharded_ingest_matches_serial_sum_exactly_under_bitwise_budget() {
        let engine = AggEngine::new(AggConfig::default());
        let agg = engine.declare("t", &[]);
        let values = hostile(2, 4096);
        for (i, chunk) in values.chunks(64).enumerate() {
            agg.ingest(i as u64, chunk);
        }
        let serial = Superaccumulator::from_values(values.iter().copied());
        assert_eq!(agg.finalize().to_bits(), serial.to_f64().to_bits());
        assert_eq!(agg.updates(), 4096);
        assert_eq!(agg.batches(), 64);
    }

    #[test]
    fn finalize_is_invariant_to_shard_count_and_arrival_order() {
        let values = hostile(7, 2048);
        let mut reference: Option<u64> = None;
        for shards in [1usize, 4, 16] {
            for shuffle in [0u64, 9, 42] {
                let engine = AggEngine::new(AggConfig { shards });
                let agg = engine.declare("t", &[]);
                let mut batches: Vec<(u64, &[f64])> = values
                    .chunks(32)
                    .enumerate()
                    .map(|(i, c)| (i as u64, c))
                    .collect();
                DetRng::seed_from_u64(shuffle).shuffle(&mut batches);
                for (client, batch) in batches {
                    agg.ingest(client, batch);
                }
                let bits = agg.finalize_bits();
                match reference {
                    None => reference = Some(bits),
                    Some(r) => assert_eq!(bits, r, "shards={shards} shuffle={shuffle}"),
                }
            }
        }
    }

    #[test]
    fn merge_tree_shape_does_not_matter() {
        let values = hostile(11, 1000);
        let build = |k: usize| -> Vec<Superaccumulator> {
            let mut states: Vec<Superaccumulator> =
                (0..k).map(|_| Superaccumulator::new()).collect();
            for (i, chunk) in values.chunks(50).enumerate() {
                states[i % k].add_slice(chunk);
            }
            states
        };
        let stride = merge_in_lane_order(build(7)).unwrap().to_f64().to_bits();
        // Sequential left fold — a maximally unbalanced "tree".
        let mut seq = build(7);
        let mut acc = seq.remove(0);
        for s in &seq {
            acc.merge(s);
        }
        assert_eq!(acc.to_f64().to_bits(), stride);
    }

    #[test]
    fn snapshot_restore_then_resume_is_bitwise_transparent() {
        let values = hostile(3, 2000);
        let (first, second) = values.split_at(1200);

        let full = AggEngine::new(AggConfig::default());
        let agg = full.declare("t", &[]);
        for (i, c) in values.chunks(40).enumerate() {
            agg.ingest(i as u64, c);
        }

        let partial = AggEngine::new(AggConfig::default());
        let agg_p = partial.declare("t", &[]);
        for (i, c) in first.chunks(40).enumerate() {
            agg_p.ingest(i as u64, c);
        }
        let snap = partial.serialize();
        let resumed = AggEngine::restore(&snap, AggConfig::default()).expect("restores");
        // Redeclaration after restore keeps the restored state.
        let agg_r = resumed.declare("t", &[]);
        for (i, c) in second.chunks(40).enumerate() {
            agg_r.ingest((30 + i) as u64, c);
        }
        assert_eq!(agg_r.finalize_bits(), agg.finalize_bits());
        assert_eq!(resumed.digest_bits(), full.digest_bits());
        assert_eq!(agg_r.updates(), 2000);
    }

    #[test]
    fn merge_serialized_combines_two_engines_exactly() {
        let values = hostile(5, 3000);
        let (left, right) = values.split_at(1000);
        let make = |vals: &[f64], shards: usize| {
            let engine = AggEngine::new(AggConfig { shards });
            let agg = engine.declare("t", &[]);
            for (i, c) in vals.chunks(100).enumerate() {
                agg.ingest(i as u64, c);
            }
            engine
        };
        let a = make(left, 4);
        let b = make(right, 16); // different shard count on the remote
        a.merge_serialized(&b.serialize()).expect("merges");

        let whole = make(&values, 4);
        assert_eq!(a.digest_bits(), whole.digest_bits());
        assert_eq!(a.total_updates(), 3000);

        // Unknown aggregates are adopted wholesale.
        let fresh = AggEngine::new(AggConfig::default());
        fresh.merge_serialized(&whole.serialize()).expect("adopts");
        assert_eq!(fresh.digest_bits(), whole.digest_bits());

        // A merge whose counters would overflow is refused and changes
        // nothing.
        let before = a.serialize();
        let hostile_counts =
            b.serialize()
                .replacen("updates=2000", &format!("updates={}", u64::MAX), 1);
        assert!(a.merge_serialized(&hostile_counts).is_err());
        assert_eq!(a.serialize(), before);
    }

    #[test]
    fn concurrent_snapshots_are_consistent_cuts() {
        const WORKERS: u64 = 4;
        const BATCHES: u64 = 5000;
        const LEN: usize = 16;
        let engine = AggEngine::new(AggConfig::default());
        let agg = engine.declare("t", &[]);
        let ones = [1.0; LEN];
        let running = std::sync::atomic::AtomicUsize::new(WORKERS as usize);
        // Workers and the snapshotting thread start together, so
        // snapshots land while batches are in flight.
        let start = std::sync::Barrier::new(WORKERS as usize + 1);
        let check = |text: &str| {
            let restored = AggEngine::restore(text, AggConfig::default()).expect("restores");
            let a = restored.get("t").expect("aggregate present");
            assert_eq!(a.finalize(), a.updates() as f64, "{text}");
            assert_eq!(a.updates(), a.batches() * LEN as u64, "{text}");
        };
        std::thread::scope(|s| {
            for w in 0..WORKERS {
                let (agg, running, start) = (&agg, &running, &start);
                s.spawn(move || {
                    start.wait();
                    for b in 0..BATCHES {
                        agg.ingest(w + WORKERS * b, &ones);
                    }
                    running.fetch_sub(1, Ordering::Relaxed);
                });
            }
            start.wait();
            while running.load(Ordering::Relaxed) > 0 {
                check(&engine.serialize());
            }
        });
        check(&engine.serialize());
        assert_eq!(agg.updates(), WORKERS * BATCHES * LEN as u64);
    }

    #[test]
    fn publish_exports_engine_gauges() {
        let engine = AggEngine::new(AggConfig::default());
        let agg = engine.declare("t", &[1.0, 2.0]);
        agg.ingest(0, &[1.0, 2.0, 3.0]);
        let registry = repro_obs::Registry::new();
        engine.publish(&registry);
        let rendered = registry.snapshot().render();
        assert!(rendered.contains("agg.updates"), "{rendered}");
        assert!(rendered.contains("agg.aggregates"), "{rendered}");
        assert!(!rendered.contains("select.cache"), "{rendered}");
    }
}

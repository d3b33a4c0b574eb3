//! Deterministic load generator: thousands of seeded clients streaming
//! batches into the engine from any number of worker threads.
//!
//! The workload is a *schedule*: the cartesian product of
//! `(aggregate, client, batch)` indices in canonical order, shuffled by a
//! dedicated arrival seed. Each event's payload is derived from
//! `(seed, aggregate, client, batch)` alone — **not** from when or where
//! the event runs — so any arrival order, worker count, or
//! stop/restore/resume split of the schedule deposits the same multiset
//! of values into each aggregate, and the engine's merge invariance does
//! the rest: identical finalized bits, every time.
//!
//! Payload values span ±2³⁰ binades with mixed signs (built from exact
//! powers of two, no libm calls), so the workload actually exercises the
//! cancellation and dynamic range the operators are built for.

use crate::engine::AggEngine;
use repro_fp::rng::DetRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// The shape of one load-generator run. Every field participates in the
/// deterministic schedule; two runs with equal specs (any `workers`)
/// produce bitwise-identical aggregate states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadSpec {
    /// Named aggregates (`agg000`, `agg001`, …).
    pub aggregates: usize,
    /// Simulated clients per aggregate.
    pub clients: usize,
    /// Batches each client sends per aggregate.
    pub batches: usize,
    /// Values per batch.
    pub batch_len: usize,
    /// Payload seed: determines every batch's values.
    pub seed: u64,
    /// Arrival seed: determines the (shuffled) event order. Changing it
    /// must not change any finalized sum — the CI smoke gate checks this.
    pub shuffle: u64,
    /// Worker threads draining the schedule (≥ 1).
    pub workers: usize,
}

impl LoadSpec {
    /// Total batch events in the schedule.
    pub fn total_batches(&self) -> usize {
        self.aggregates * self.clients * self.batches
    }

    /// Total values the full schedule deposits.
    pub fn total_updates(&self) -> u64 {
        self.total_batches() as u64 * self.batch_len as u64
    }
}

/// One schedule entry: client `client` sends its `batch`-th batch into
/// aggregate `aggregate`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadEvent {
    /// Aggregate index (names via [`aggregate_name`]).
    pub aggregate: u32,
    /// Client id — also the shard-assignment key.
    pub client: u32,
    /// Per-client batch sequence number.
    pub batch: u32,
}

/// Canonical name of the `i`-th loadgen aggregate.
pub fn aggregate_name(i: usize) -> String {
    format!("agg{i:03}")
}

/// 2^e as an exact `f64` (|e| ≤ 1022) — no libm, bit-identical anywhere.
fn pow2(e: i32) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

fn mix(seed: u64, a: u64, c: u64, b: u64) -> u64 {
    let mut x = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ c.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ b.wrapping_mul(0x1656_67B1_9E37_79F9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Append the payload for one event into `out` (reusable buffer). A pure
/// function of `(seed, aggregate, client, batch)` — independent of
/// arrival order and worker assignment by construction.
pub fn batch_values_into(seed: u64, event: LoadEvent, len: usize, out: &mut Vec<f64>) {
    out.clear();
    let mut rng = DetRng::seed_from_u64(mix(
        seed,
        event.aggregate as u64,
        event.client as u64,
        event.batch as u64,
    ));
    for _ in 0..len {
        let e = rng.random_range(-30i32..=30);
        out.push((rng.next_f64() - 0.5) * pow2(e));
    }
}

/// The payload for one event, as a fresh vector (see
/// [`batch_values_into`]).
pub fn batch_values(seed: u64, aggregate: u32, client: u32, batch: u32, len: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(len);
    batch_values_into(
        seed,
        LoadEvent {
            aggregate,
            client,
            batch,
        },
        len,
        &mut out,
    );
    out
}

/// The full event schedule: canonical `(aggregate, client, batch)` order,
/// then a Fisher–Yates shuffle seeded by `spec.shuffle`.
pub fn schedule(spec: &LoadSpec) -> Vec<LoadEvent> {
    let mut events = Vec::with_capacity(spec.total_batches());
    for a in 0..spec.aggregates {
        for c in 0..spec.clients {
            for b in 0..spec.batches {
                events.push(LoadEvent {
                    aggregate: a as u32,
                    client: c as u32,
                    batch: b as u32,
                });
            }
        }
    }
    DetRng::seed_from_u64(spec.shuffle).shuffle(&mut events);
    events
}

/// Declare the spec's aggregates (idempotent — restored engines keep
/// their state) and drain the schedule slice `[start_at, stop_at)` with
/// `spec.workers` threads. Returns the number of values deposited.
///
/// Worker `w` takes events `start_at + w, start_at + w + W, …` — a fixed
/// round-robin split, though *any* split would finalize identically.
/// `stop_at` is the kill point for snapshot/restore runs: stop, serialize
/// the engine, restore elsewhere, and resume with `start_at` at the same
/// index — the CI gate asserts the digest matches an uninterrupted run.
pub fn run(engine: &AggEngine, spec: &LoadSpec, start_at: usize, stop_at: Option<usize>) -> u64 {
    let aggregates: Vec<_> = (0..spec.aggregates)
        .map(|a| engine.declare(&aggregate_name(a), &[]))
        .collect();
    let events = schedule(spec);
    let stop = stop_at.unwrap_or(events.len()).min(events.len());
    let start = start_at.min(stop);
    let slice = &events[start..stop];
    let workers = spec.workers.max(1);
    let deposited = AtomicU64::new(0);
    std::thread::scope(|s| {
        for w in 0..workers {
            let deposited = &deposited;
            let aggregates = &aggregates;
            s.spawn(move || {
                let mut buf = Vec::with_capacity(spec.batch_len);
                let mut local = 0u64;
                let mut idx = w;
                while idx < slice.len() {
                    let event = slice[idx];
                    batch_values_into(spec.seed, event, spec.batch_len, &mut buf);
                    aggregates[event.aggregate as usize].ingest(event.client as u64, &buf);
                    local += buf.len() as u64;
                    idx += workers;
                }
                deposited.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    deposited.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AggConfig;

    fn spec() -> LoadSpec {
        LoadSpec {
            aggregates: 3,
            clients: 20,
            batches: 4,
            batch_len: 64,
            seed: 2015,
            shuffle: 1,
            workers: 3,
        }
    }

    fn digest(spec: &LoadSpec, shards: usize) -> u64 {
        let engine = AggEngine::new(AggConfig { shards });
        let n = run(&engine, spec, 0, None);
        assert_eq!(n, spec.total_updates());
        engine.digest_bits()
    }

    #[test]
    fn digest_is_invariant_to_shuffle_workers_and_shards() {
        let base = digest(&spec(), 4);
        for (shuffle, workers, shards) in [(2u64, 1usize, 4usize), (99, 8, 1), (7, 2, 16)] {
            let s = LoadSpec {
                shuffle,
                workers,
                ..spec()
            };
            assert_eq!(
                digest(&s, shards),
                base,
                "shuffle={shuffle} workers={workers} shards={shards}"
            );
        }
    }

    #[test]
    fn payloads_ignore_arrival_context() {
        let a = batch_values(9, 1, 2, 3, 32);
        let b = batch_values(9, 1, 2, 3, 32);
        assert_eq!(a, b);
        assert_ne!(batch_values(9, 1, 2, 4, 32), a);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn stop_snapshot_restore_resume_matches_uninterrupted_run() {
        let s = spec();
        let full = AggEngine::new(AggConfig::default());
        run(&full, &s, 0, None);

        let cut = s.total_batches() / 3;
        let first = AggEngine::new(AggConfig::default());
        let n1 = run(&first, &s, 0, Some(cut));
        let snapshot = first.serialize();
        drop(first); // the "kill"

        let resumed = AggEngine::restore(&snapshot, AggConfig::default()).expect("restores");
        let n2 = run(&resumed, &s, cut, None);
        assert_eq!(n1 + n2, s.total_updates());
        assert_eq!(resumed.digest_bits(), full.digest_bits());
        assert_eq!(resumed.total_updates(), full.total_updates());
    }

    #[test]
    fn schedule_is_a_permutation_of_the_canonical_product() {
        let s = spec();
        let mut events = schedule(&s);
        assert_eq!(events.len(), s.total_batches());
        events.sort_by_key(|e| (e.aggregate, e.client, e.batch));
        events.dedup();
        assert_eq!(events.len(), s.total_batches());
        // Different arrival seeds really do reorder.
        assert_ne!(schedule(&s), schedule(&LoadSpec { shuffle: 2, ..s }));
    }
}

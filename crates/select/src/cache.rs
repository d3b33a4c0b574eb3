//! Decision caching: remember what the selector chose for a **workload
//! shape**, so repeated reductions over same-shaped data skip the selector
//! entirely.
//!
//! Selection is a pure function of the profile's coarse features — the
//! predictors move by decades, not percent — so two workloads whose
//! profiles land in the same [`Fingerprint`] buckets get the same
//! algorithm. The cache maps fingerprints to decisions under a small
//! mutex-protected map; hit/miss/insert/eviction counters publish to a
//! [`repro_obs::Registry`] so an always-on deployment can watch its own
//! hit rate.
//!
//! Caching never touches the numerics: a cached decision only chooses
//! *which* operator runs, and every operator is a deterministic function
//! of the input, so a hit is bitwise identical to the miss that populated
//! it (property-tested). The failure mode is a *stale* decision — a
//! fingerprint populated by data whose realized spread no longer matches.
//! [`DecisionCache::invalidate_misprediction`] evicts such an entry and
//! counts the misprediction, so the next same-shaped reduction re-selects;
//! no serving path calls it yet. The realized-spread telemetry from
//! [`crate::AdaptiveReducer::reduce_telemetry`] measures the drift but
//! evicts nothing.

use crate::profile::DataProfile;
use crate::selector::Tolerance;
use repro_fp::simd::{self, SimdTier};
use repro_sum::Algorithm;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The coarse shape of one selection problem: everything a decision
/// depends on, bucketed so that same-shaped workloads collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fingerprint {
    /// `floor(log2 n)` — the size octave.
    pub n_log2: u32,
    /// Condition decade: `floor(log10 k̂)` clamped to `0..=16`, with a
    /// hostile (`inf`/`NaN`) estimate pinned one past the top so "beyond
    /// measurable" is its own bucket.
    pub k_decade: i16,
    /// Dynamic range in 4-binade buckets (`dr_binades / 4`).
    pub dr_bucket: i32,
    /// The active SIMD dispatch tier (decisions may price the exact path
    /// per tier, and provenance differs).
    pub tier: SimdTier,
    /// Worker-thread topology of the shared runtime pool.
    pub workers: usize,
    /// The tolerance, exactly: `(kind, bits)` — bucketing the budget would
    /// let a loose request reuse a tight request's (costlier) decision or,
    /// worse, the reverse.
    pub tolerance: (u8, u64),
}

fn tolerance_key(t: Tolerance) -> (u8, u64) {
    match t {
        Tolerance::Bitwise => (0, 0),
        Tolerance::AbsoluteSpread(b) => (1, b.to_bits()),
        Tolerance::RelativeSpread(r) => (2, r.to_bits()),
    }
}

impl Fingerprint {
    /// Fingerprint a profile under a tolerance, stamping the current SIMD
    /// tier and pool topology.
    pub fn of(profile: &DataProfile, tolerance: Tolerance) -> Self {
        let k_decade = if profile.k.is_finite() {
            (profile.k.max(1.0).log10().floor() as i16).clamp(0, 16)
        } else {
            17
        };
        Self {
            n_log2: if profile.n == 0 { 0 } else { profile.n.ilog2() },
            k_decade,
            dr_bucket: profile.dr_binades / 4,
            tier: simd::active_tier(),
            workers: repro_runtime::Runtime::global().workers(),
            tolerance: tolerance_key(tolerance),
        }
    }
}

/// Monotonic cache traffic counters (a snapshot; see
/// [`DecisionCache::counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a decision.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Decisions stored.
    pub inserts: u64,
    /// Entries evicted because realized-spread telemetry contradicted the
    /// cached prediction.
    pub mispredictions: u64,
}

/// A shared fingerprint → [`Algorithm`] map with traffic counters.
///
/// Thread-safe; a single instance is meant to be shared across all
/// reductions in a process (or one per tolerance regime — the tolerance is
/// part of the key either way).
#[derive(Debug, Default)]
pub struct DecisionCache {
    map: Mutex<BTreeMap<Fingerprint, Algorithm>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    mispredictions: AtomicU64,
    published: Mutex<CacheCounters>,
}

impl DecisionCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn map(&self) -> std::sync::MutexGuard<'_, BTreeMap<Fingerprint, Algorithm>> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Look up a decision, counting the hit or miss.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<Algorithm> {
        let found = self.map().get(fp).copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store a decision.
    pub fn insert(&self, fp: Fingerprint, alg: Algorithm) {
        self.map().insert(fp, alg);
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Evict a fingerprint whose cached decision the realized-spread
    /// telemetry has contradicted (measured spread over budget). Returns
    /// whether an entry was actually present. The next same-shaped
    /// reduction misses and re-selects from fresh evidence.
    pub fn invalidate_misprediction(&self, fp: &Fingerprint) -> bool {
        let removed = self.map().remove(fp).is_some();
        if removed {
            self.mispredictions.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Number of cached decisions.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache holds no decisions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all cached decisions (counters keep counting).
    pub fn clear(&self) {
        self.map().clear();
    }

    /// Current traffic counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            mispredictions: self.mispredictions.load(Ordering::Relaxed),
        }
    }

    /// Publish traffic to a metrics registry: counter deltas since the
    /// last publish land on `select.cache.hit`, `select.cache.miss`,
    /// `select.cache.insert`, and `select.cache.misprediction`; the
    /// current size lands on the `select.cache.size` gauge. Safe to call
    /// periodically — the registry counters stay equal to this cache's
    /// lifetime totals.
    pub fn publish(&self, registry: &repro_obs::Registry) {
        let now = self.counters();
        let mut last = self
            .published
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        registry.counter_add("select.cache.hit", now.hits - last.hits);
        registry.counter_add("select.cache.miss", now.misses - last.misses);
        registry.counter_add("select.cache.insert", now.inserts - last.inserts);
        registry.counter_add(
            "select.cache.misprediction",
            now.mispredictions - last.mispredictions,
        );
        registry.gauge_set("select.cache.size", self.len() as f64);
        *last = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile;

    #[test]
    fn same_shape_same_fingerprint_different_shape_different() {
        // One binade of values: the dynamic range (and with it the bucket)
        // cannot wobble with the seed, only the shape features we expect
        // to be stable.
        let a = profile(&repro_gen::uniform(10_000, 0.5, 1.0, 1));
        let b = profile(&repro_gen::uniform(10_000, 0.5, 1.0, 2));
        let tol = Tolerance::AbsoluteSpread(1e-9);
        assert_eq!(Fingerprint::of(&a, tol), Fingerprint::of(&b, tol));
        // A different size octave separates.
        let big = profile(&repro_gen::uniform(40_000, 0.5, 1.0, 1));
        assert_ne!(Fingerprint::of(&a, tol), Fingerprint::of(&big, tol));
        // A different tolerance separates even on identical data.
        assert_ne!(
            Fingerprint::of(&a, tol),
            Fingerprint::of(&a, Tolerance::AbsoluteSpread(1e-12))
        );
        assert_ne!(
            Fingerprint::of(&a, Tolerance::Bitwise),
            Fingerprint::of(&a, Tolerance::RelativeSpread(1e-9))
        );
        // A hostile condition estimate gets its own bucket past the decades.
        let hostile = profile(&repro_gen::zero_sum_with_range(4_096, 8, 3));
        let fp = Fingerprint::of(&hostile, tol);
        assert!(
            fp.k_decade >= 1,
            "zero-sum data must not look benign: {fp:?}"
        );
    }

    #[test]
    fn traffic_counters_track_lookups_inserts_and_evictions() {
        let cache = DecisionCache::new();
        let p = profile(&repro_gen::uniform(1_000, 0.0, 1.0, 5));
        let fp = Fingerprint::of(&p, Tolerance::Bitwise);
        assert_eq!(cache.lookup(&fp), None);
        cache.insert(fp, Algorithm::PR);
        assert_eq!(cache.lookup(&fp), Some(Algorithm::PR));
        assert!(cache.invalidate_misprediction(&fp));
        assert!(!cache.invalidate_misprediction(&fp), "double evict");
        assert_eq!(cache.lookup(&fp), None);
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 1,
                misses: 2,
                inserts: 1,
                mispredictions: 1
            }
        );
    }

    #[test]
    fn publish_is_delta_correct_across_calls() {
        let cache = DecisionCache::new();
        let registry = repro_obs::Registry::new();
        let p = profile(&[1.0, 2.0, 3.0]);
        let fp = Fingerprint::of(&p, Tolerance::AbsoluteSpread(1.0));
        cache.lookup(&fp);
        cache.publish(&registry);
        cache.insert(fp, Algorithm::Standard);
        cache.lookup(&fp);
        cache.lookup(&fp);
        cache.publish(&registry);
        // Publishing twice must not double-count the first interval.
        cache.publish(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["select.cache.hit"], 2);
        assert_eq!(snap.counters["select.cache.miss"], 1);
        assert_eq!(snap.counters["select.cache.insert"], 1);
        assert_eq!(snap.gauges["select.cache.size"], 1.0);
    }
}

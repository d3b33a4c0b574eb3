//! Property tests for the always-on selection fast path: sampled
//! profiling and the decision cache must never trade correctness for
//! their speed.
//!
//! Four promises, the first three tested over arbitrary inputs:
//!
//! 1. Caching is invisible in the bits: a cache-hit reduction is bitwise
//!    identical to the cold (miss) reduction that populated the entry, and
//!    to a reduction through a fresh cache.
//! 2. A tight-bounds sampled decision is safe: the chosen operator also
//!    fits the **full** profile's budget (the safety inflation means
//!    sampling error escalates, never de-escalates).
//! 3. Sampled partials merge permutation/tree-invariantly, bitwise —
//!    streaming re-selection sees the same profile no matter how the
//!    chunk partials were grouped.
//! 4. Sampling is the per-value profile, bit for bit: `collect` equals a
//!    reference that folds the same strided ordinals into its halves one
//!    value at a time ([`add`]), special values included.

use proptest::prelude::*;
use repro_select::sample::{choose_sampled, SampleConfig, SampledProfile};
use repro_select::selector::predicted_spread;
use repro_select::{
    profile, AdaptiveReducer, CostModel, DataProfile, DecisionCache, HeuristicSelector, Selector,
    Tolerance,
};

/// Fold one value into a profile: merge its one-value profile, which
/// re-derives the estimates after every value.
fn add(p: &mut DataProfile, x: f64) {
    p.merge(&profile(std::slice::from_ref(&x)));
}

/// Workloads large enough that the sampler actually strides (the default
/// target is 2048), drawn from families with real shape variety.
fn large_workload() -> impl Strategy<Value = Vec<f64>> {
    (any::<u64>(), 3_000usize..30_000, 0u32..3).prop_map(|(seed, n, family)| match family {
        // Benign uniform positives.
        0 => repro_gen::uniform(n, 0.0, 1.0, seed),
        // Mixed-sign uniforms (mild cancellation).
        1 => repro_gen::uniform(n, -1.0, 1.0, seed),
        // Exact zero sum over a wide dynamic range (hostile condition).
        _ => repro_gen::zero_sum_with_range(n, 16, seed),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Promise 1: the decision cache never changes the bits. Cold miss,
    /// warm hit, and a fresh cache all reduce to the same bit pattern,
    /// with the same chosen operator.
    #[test]
    fn cache_hits_are_bitwise_identical_to_misses(values in large_workload(), t_exp in -14i32..-2) {
        let reducer = AdaptiveReducer::heuristic(Tolerance::AbsoluteSpread(10f64.powi(t_exp)));
        let cache = DecisionCache::new();
        let cold = reducer.reduce_cached(&values, &cache);
        let warm = reducer.reduce_cached(&values, &cache);
        prop_assert_eq!(cold.algorithm, warm.algorithm);
        prop_assert_eq!(cold.sum.to_bits(), warm.sum.to_bits());
        // A fresh cache re-derives the same decision from the same data.
        let fresh = DecisionCache::new();
        let uncached = reducer.reduce_cached(&values, &fresh);
        prop_assert_eq!(cold.algorithm, uncached.algorithm);
        prop_assert_eq!(cold.sum.to_bits(), uncached.sum.to_bits());
        // If the fast path engaged at all, the second run must have hit.
        let c = cache.counters();
        prop_assert!(c.inserts == 0 || c.hits >= 1, "{c:?}");
    }

    /// Promise 2: a tight-bounds sampled decision never lands on an
    /// operator the full profile's budget would reject. (Loose bounds
    /// return `None` — the fallback path — and claim nothing.)
    #[test]
    fn tight_sampled_decisions_fit_the_full_profile_budget(
        values in large_workload(),
        t_exp in -16i32..-2,
    ) {
        let t = 10f64.powi(t_exp);
        let cfg = SampleConfig::default();
        let sel = HeuristicSelector::default();
        let sampled = SampledProfile::collect(&values, &cfg);
        if let Some(choice) = choose_sampled(&sel, Tolerance::AbsoluteSpread(t), &sampled, &cfg) {
            let full = profile(&values);
            let full_choice = sel.choose(&full, Tolerance::AbsoluteSpread(t));
            // Either the choice fits the full budget outright, or it is the
            // escalation terminal (the exact sum fits every budget).
            prop_assert!(
                predicted_spread(choice, &full) <= t || choice == repro_select::EXACT,
                "sampled chose {choice}, full profile predicts {:e} > budget {:e}",
                predicted_spread(choice, &full), t
            );
            // And it is never cheaper than what the full profile demands.
            let costs = CostModel::default();
            prop_assert!(
                costs.cost(choice) >= costs.cost(full_choice),
                "sampled {choice} undercuts full-profile {full_choice}"
            );
        }
    }

    /// Promise 3: merging sampled partials is permutation- and
    /// tree-invariant, bitwise — including the extrapolated estimate the
    /// selector actually consumes.
    #[test]
    fn sampled_partial_merge_is_permutation_and_tree_invariant(values in large_workload()) {
        let cfg = SampleConfig {
            // Small per-chunk target so every chunk genuinely strides.
            target: 64,
            ..SampleConfig::default()
        };
        // Four equal-length chunks: equal lengths guarantee equal strides,
        // the precondition merge() enforces (streaming re-selection feeds
        // fixed-size chunks, so this is the shape the API serves).
        let chunk = values.len() / 4;
        prop_assume!(chunk > 0);
        let chunks = [
            &values[..chunk],
            &values[chunk..2 * chunk],
            &values[2 * chunk..3 * chunk],
            &values[3 * chunk..4 * chunk],
        ];
        let parts: Vec<SampledProfile> = chunks
            .iter()
            .map(|c| SampledProfile::collect(c, &cfg))
            .collect();
        assert!(parts.windows(2).all(|w| w[0].stride == w[1].stride));

        let merge_seq = |order: [usize; 4]| {
            let mut acc = parts[order[0]].clone();
            for &i in &order[1..] {
                assert!(acc.merge(&parts[i]));
            }
            acc
        };
        let left_to_right = merge_seq([0, 1, 2, 3]);
        let reversed = merge_seq([3, 2, 1, 0]);
        let shuffled = merge_seq([2, 0, 3, 1]);
        // Balanced tree: (0+1) + (2+3).
        let mut lo = parts[0].clone();
        assert!(lo.merge(&parts[1]));
        let mut hi = parts[2].clone();
        assert!(hi.merge(&parts[3]));
        assert!(lo.merge(&hi));

        for other in [&reversed, &shuffled, &lo] {
            prop_assert_eq!(&left_to_right, other);
            let a = left_to_right.estimated_profile();
            let b = other.estimated_profile();
            prop_assert_eq!(a.n, b.n);
            prop_assert_eq!(a.abs_sum.to_bits(), b.abs_sum.to_bits());
            prop_assert_eq!(a.sum_estimate.to_bits(), b.sum_estimate.to_bits());
            prop_assert_eq!(a.k.to_bits(), b.k.to_bits());
            prop_assert_eq!(a.dr_binades, b.dr_binades);
        }
    }

    /// Promise 3, incremental flavor: a partial built by streaming
    /// [`add`] merges identically to one built by batch [`profile`] — the
    /// per-value and batch paths are interchangeable.
    #[test]
    fn streamed_and_batch_partials_merge_identically(values in large_workload(), cut_frac in 0.1f64..0.9) {
        let cut = (cut_frac * values.len() as f64) as usize;
        let mut streamed = DataProfile::empty();
        for &x in &values[..cut] {
            add(&mut streamed, x);
        }
        streamed.merge(&profile(&values[cut..]));
        let mut batched = profile(&values[..cut]);
        batched.merge(&profile(&values[cut..]));
        prop_assert_eq!(streamed.n, batched.n);
        prop_assert_eq!(streamed.abs_sum.to_bits(), batched.abs_sum.to_bits());
        prop_assert_eq!(streamed.sum_estimate.to_bits(), batched.sum_estimate.to_bits());
        prop_assert_eq!(streamed.k.to_bits(), batched.k.to_bits());
        prop_assert_eq!(streamed.dr_binades, batched.dr_binades);
        prop_assert_eq!(streamed.max_abs.to_bits(), batched.max_abs.to_bits());
    }
}

/// The misprediction loop: realized-spread telemetry can evict a cached
/// decision, and the next reduction re-selects instead of reusing it.
#[test]
fn misprediction_eviction_forces_reselection() {
    let values = repro_gen::uniform(20_000, 0.0, 1.0, 99);
    let tol = Tolerance::AbsoluteSpread(1e-9);
    let reducer = AdaptiveReducer::heuristic(tol);
    let cache = DecisionCache::new();
    let cold = reducer.reduce_cached(&values, &cache);
    assert_eq!(cache.counters().inserts, 1, "fast path must engage");
    let fp = repro_select::Fingerprint::of(&cold.profile, tol);
    assert!(
        cache.invalidate_misprediction(&fp),
        "entry must be evictable"
    );
    assert!(cache.is_empty());
    let again = reducer.reduce_cached(&values, &cache);
    // Re-selection from the same data reaches the same decision and bits.
    assert_eq!(cold.algorithm, again.algorithm);
    assert_eq!(cold.sum.to_bits(), again.sum.to_bits());
    let c = cache.counters();
    assert_eq!(c.inserts, 2, "eviction must force a fresh insert: {c:?}");
    assert_eq!(c.mispredictions, 1);
}

/// Promise 4: `SampledProfile::collect`, which derives each half's
/// estimates once, equals the reference that folds the same strided
/// ordinals (even to half A, odd to half B) with [`add`] and so
/// re-derives after every value. Every field counts, the halves' binned
/// accumulator state included.
#[test]
fn collect_equals_the_per_value_add_reference() {
    /// The reference, rendered as `SampledProfile`'s derived `Debug` would
    /// render it: its halves are private, and comparing renderings compares
    /// every field. `Debug` rather than `==` keeps the check meaningful
    /// where a field is NaN (never `==`) or −0 (`==` to +0).
    fn reference(values: &[f64], cfg: &SampleConfig) -> String {
        let n = values.len();
        let stride = n.div_ceil(cfg.target.max(2)).max(1);
        let offset = (cfg.seed % stride as u64) as usize;
        let mut half_a = DataProfile::empty();
        let mut half_b = DataProfile::empty();
        let mut idx = offset;
        let mut ordinal = 0usize;
        while idx < n {
            if ordinal % 2 == 0 {
                add(&mut half_a, values[idx]);
            } else {
                add(&mut half_b, values[idx]);
            }
            ordinal += 1;
            idx += stride;
        }
        format!(
            "SampledProfile {{ half_a: {half_a:?}, half_b: {half_b:?}, n_total: {n}, stride: {stride} }}"
        )
    }

    // A seeded third of the values are specials, so every stride samples
    // some: NaN, both infinities, −0, subnormals, values at the top of the
    // binned range and past it.
    const SPECIALS: [f64; 9] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        5e-324,
        -2.5e-310,
        1e308,
        -1e308,
        f64::MAX,
    ];
    // The benchmark's `reduce-small` shapes: (k, dr in decades).
    const SHAPES: [(f64, u32); 4] = [(1.0, 0), (1e4, 8), (1e12, 16), (f64::INFINITY, 16)];
    let configs = [
        SampleConfig::default(),
        SampleConfig {
            target: 64,
            seed: 11,
            ..SampleConfig::default()
        },
    ];
    for n in [0usize, 1, 2, 2047, 2048, 2049, 4095, 4096, 4097, 100_000] {
        for (shape, &(k, dr)) in SHAPES.iter().enumerate() {
            let mut values = repro_gen::grid_cell(n.max(2), k, dr, 7 + shape as u64, 1e16);
            values.truncate(n);
            let mut rng = repro_fp::rng::DetRng::seed_from_u64(n as u64);
            let mut special = values.clone();
            for v in &mut special {
                if rng.below(3) == 0 {
                    *v = SPECIALS[rng.below(SPECIALS.len() as u64) as usize];
                }
            }
            for cfg in &configs {
                assert_eq!(
                    format!("{:?}", SampledProfile::collect(&values, cfg)),
                    reference(&values, cfg),
                    "n={n} k={k:e} dr={dr} target={}",
                    cfg.target
                );
                assert_eq!(
                    format!("{:?}", SampledProfile::collect(&special, cfg)),
                    reference(&special, cfg),
                    "specials: n={n} k={k:e} dr={dr} target={}",
                    cfg.target
                );
            }
        }
    }
}

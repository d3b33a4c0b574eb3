//! Property tests for the selection machinery: the selector's promises must
//! hold over arbitrary profiles and tolerances, not just the grid cells it
//! was designed around.

use proptest::prelude::*;
use repro_select::selector::{predicted_spread, LADDER};
use repro_select::{profile, HeuristicSelector, Selector, SubtreeAdaptive, Tolerance};

/// Inputs outside the benchmark's shapes: signed zeros, subnormals,
/// overflow-prone magnitudes, infinities and NaN.
const SPECIALS: [f64; 9] = [
    0.0,
    -0.0,
    5e-324,
    -2.5e-310,
    1e308,
    -1e308,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// Arrays that `reduce_cached` profiles in full (at most twice the default
/// sample target), in the benchmark's `(k, dr)` shapes; families 1 and 2
/// overwrite a seeded share of the values with finite and with all
/// [`SPECIALS`].
fn small_workload() -> impl Strategy<Value = Vec<f64>> {
    const SHAPES: [(f64, u32); 4] = [(1.0, 0), (1e4, 8), (1e12, 16), (f64::INFINITY, 16)];
    let max = 2 * repro_select::SampleConfig::default().target;
    (any::<u64>(), 0..=max, 0..SHAPES.len(), 0usize..3).prop_map(move |(seed, n, shape, family)| {
        let (k, dr) = SHAPES[shape];
        let mut values = repro_gen::grid_cell(n.max(2), k, dr, seed, 1e16);
        values.truncate(n);
        let specials = [&SPECIALS[..0], &SPECIALS[..4], &SPECIALS[..]][family];
        let mut rng = repro_fp::rng::DetRng::seed_from_u64(seed);
        for v in values.iter_mut() {
            if !specials.is_empty() && rng.below(8) == 0 {
                *v = specials[rng.below(specials.len() as u64) as usize];
            }
        }
        values
    })
}

fn workload() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        // All positive (benign).
        prop::collection::vec(1e-3f64..1e3, 2..300),
        // Mixed signs, wide exponents.
        prop::collection::vec(
            ((-80.0f64..80.0), any::<bool>()).prop_map(|(e, neg)| {
                let v = e.exp2();
                if neg {
                    -v
                } else {
                    v
                }
            }),
            2..300
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chosen algorithm's *predicted* spread always fits the absolute
    /// budget (that is the selector's contract with its model).
    #[test]
    fn choice_satisfies_the_model(values in workload(), t_exp in -20i32..0) {
        let t = 10f64.powi(t_exp);
        let p = profile(&values);
        let alg = HeuristicSelector::default().choose(&p, Tolerance::AbsoluteSpread(t));
        prop_assert!(predicted_spread(alg, &p) <= t || alg == repro_select::EXACT,
            "{alg} predicted {:e} > budget {:e}", predicted_spread(alg, &p), t);
    }

    /// No cheaper rung of the serving ladder than the chosen one would also
    /// satisfy the model (the "cheapest acceptable" property). "Cheaper" is
    /// the cost model's per-call price on this profile, not the static
    /// `cost_rank` order: the selector must be faithful to the prices it
    /// actually ranks by.
    #[test]
    fn choice_is_cheapest_acceptable(values in workload(), t_exp in -20i32..0) {
        let t = 10f64.powi(t_exp);
        let p = profile(&values);
        let sel = HeuristicSelector::default();
        let alg = sel.choose(&p, Tolerance::AbsoluteSpread(t));
        prop_assert!(LADDER.contains(&alg), "{alg} is not on the serving ladder");
        for candidate in LADDER {
            if sel.costs.price_on(candidate, &p) < sel.costs.price_on(alg, &p) {
                prop_assert!(predicted_spread(candidate, &p) > t,
                    "{candidate} (cheaper than {alg}) also fits budget {:e}", t);
            }
        }
    }

    /// Tolerance monotonicity: loosening the budget never makes the choice
    /// dearer on the same profile.
    #[test]
    fn looser_budgets_never_escalate(values in workload(), a in -20i32..0, b in -20i32..0) {
        let (lo, hi) = (a.min(b), a.max(b));
        let p = profile(&values);
        let sel = HeuristicSelector::default();
        let tight = sel.choose(&p, Tolerance::AbsoluteSpread(10f64.powi(lo)));
        let loose = sel.choose(&p, Tolerance::AbsoluteSpread(10f64.powi(hi)));
        prop_assert!(sel.costs.price_on(loose, &p) <= sel.costs.price_on(tight, &p),
            "loose budget chose {loose}, tight chose {tight}");
    }

    /// On profiles of 1 to 2^20 values whose exponent spans plan 2 to 9
    /// cascade parts, under absolute, relative and `Bitwise` budgets: the
    /// walk lists every rung once at its price, in price order; the
    /// choice is the cheapest rung that fits; and DS is returned wherever
    /// no cheaper rung fits.
    #[test]
    fn choice_is_the_cheapest_priced_rung_that_fits(
        parts in 2usize..=repro_fp::simd::MAX_PARTS + 1,
        n in 1usize..=1 << 20,
        seed in any::<u64>(),
        tolerance in prop_oneof![
            (-20i32..2).prop_map(|e| Tolerance::AbsoluteSpread(10f64.powi(e))),
            (-20i32..2).prop_map(|e| Tolerance::RelativeSpread(10f64.powi(e))),
            Just(Tolerance::Bitwise),
        ],
    ) {
        // 64 values spanning the binades of `parts` parts, as the
        // `rung/DS/p*` workloads do, profiled as a call of `n` values.
        let span = 42 * parts as i32 - 74;
        let mut rng = repro_fp::rng::DetRng::seed_from_u64(seed);
        let values: Vec<f64> = (0..64)
            .map(|i| {
                let e = match i {
                    0 => 0,
                    1 => span,
                    _ => rng.below(span as u64 + 1) as i32,
                };
                let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                sign * (1.0 + rng.next_f64()) * 2f64.powi(e - span / 2)
            })
            .collect();
        let mut p = profile(&values);
        prop_assert_eq!(p.cascade_parts(), parts);
        p.n = n;

        let sel = HeuristicSelector::default();
        let e = repro_select::explain(&p, tolerance);
        let price = |alg| sel.costs.price_on(alg, &p);
        let fits = |alg| match tolerance.budget(p.sum_estimate) {
            Some(b) => predicted_spread(alg, &p) <= b,
            None => alg == repro_select::EXACT,
        };
        // The walk: every rung once, each at its price, in price order.
        prop_assert_eq!(e.candidates.len(), LADDER.len());
        for c in &e.candidates {
            prop_assert_eq!(c.price_ns.to_bits(), price(c.algorithm).to_bits());
            prop_assert_eq!(c.fits, fits(c.algorithm));
            prop_assert_eq!(c.relative_cost, c.price_ns / price(repro_sum::Algorithm::Standard));
        }
        prop_assert!(e.candidates.windows(2).all(|w| w[0].price_ns <= w[1].price_ns));
        // The choice: the cheapest rung that fits, the one `choose` makes.
        let chosen = sel.choose(&p, tolerance);
        prop_assert_eq!(chosen, e.chosen);
        prop_assert!(fits(chosen));
        for alg in LADDER {
            prop_assert!(!fits(alg) || price(chosen) <= price(alg), "{alg} fits for less than {chosen}");
        }
        // DS wherever no rung that costs no more fits.
        let undercut = LADDER
            .into_iter()
            .any(|alg| alg != repro_select::EXACT && fits(alg) && price(alg) <= price(repro_select::EXACT));
        prop_assert_eq!(chosen == repro_select::EXACT, !undercut);
    }

    /// Bitwise tolerance always lands on a reproducible operator, and the
    /// reduction result is then permutation-invariant in fact.
    #[test]
    fn bitwise_choice_is_actually_bitwise(mut values in workload(), seed in any::<u64>()) {
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        let reducer = repro_select::AdaptiveReducer::heuristic(Tolerance::Bitwise);
        let (alg, _) = reducer.choose(&values);
        prop_assert!(alg.is_reproducible());
        let reference = reducer.reduce(&values).sum;
        let mut rng = StdRng::seed_from_u64(seed);
        values.shuffle(&mut rng);
        prop_assert_eq!(reducer.reduce(&values).sum.to_bits(), reference.to_bits());
    }

    /// An array profiled in full gets one decision per multiset of values:
    /// any order of it selects the same operator from the same profile
    /// bits, under every kind of budget. A reproducible choice then gives
    /// the same result bits too (ST, K and CP stay order-sensitive by
    /// definition), and under `Bitwise` that result is the exact sum.
    #[test]
    fn small_array_decisions_depend_only_on_the_values(
        values in small_workload(),
        seed in any::<u64>(),
    ) {
        let mut shuffled = values.clone();
        repro_fp::rng::DetRng::seed_from_u64(seed).shuffle(&mut shuffled);
        for tol in [
            Tolerance::Bitwise,
            Tolerance::RelativeSpread(1e-8),
            Tolerance::RelativeSpread(1e-14),
            Tolerance::AbsoluteSpread(1e-6),
        ] {
            let reducer = repro_select::AdaptiveReducer::heuristic(tol);
            let cache = repro_select::DecisionCache::new();
            let a = reducer.reduce_cached(&values, &cache);
            let b = reducer.reduce_cached(&shuffled, &cache);
            prop_assert_eq!(a.algorithm, b.algorithm, "{}", tol);
            // Debug renders every field, NaN and -0 included.
            prop_assert_eq!(format!("{:?}", a.profile), format!("{:?}", b.profile));
            if a.algorithm.is_reproducible() {
                prop_assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "{}", tol);
            }
            if tol == Tolerance::Bitwise {
                let exact = repro_fp::exact_sum(&values);
                prop_assert_eq!(a.sum.to_bits(), exact.to_bits());
            }
        }
    }

    /// Subtree adaptivity preserves the error budget on arbitrary data.
    #[test]
    fn subtree_reduction_meets_budget(values in workload(), t_exp in -14i32..-4) {
        let t = 10f64.powi(t_exp);
        // Scale the budget with the data so it is achievable at all: add
        // the theoretical floor (CP-level) to the requested tolerance.
        let abs = repro_fp::exact_abs_sum(&values);
        let budget = t.max(abs * repro_fp::UNIT_ROUNDOFF * 4.0);
        let reducer = SubtreeAdaptive::new(
            HeuristicSelector::default(),
            Tolerance::AbsoluteSpread(budget),
            37, // deliberately odd chunk size
        );
        let outcome = reducer.reduce(&values);
        let err = repro_fp::abs_error(outcome.sum, &values);
        prop_assert!(err <= budget, "err {:e} > budget {:e}", err, budget);
        prop_assert_eq!(
            outcome.chunks.len(),
            values.len().div_ceil(37)
        );
    }

    /// Profiles are scale-equivariant where they should be: scaling the
    /// data by a power of two scales abs_sum/max and leaves k and dr alone.
    #[test]
    fn profile_scale_equivariance(values in workload(), scale_exp in -40i32..40) {
        let s = 2f64.powi(scale_exp);
        let scaled: Vec<f64> = values.iter().map(|v| v * s).collect();
        let p1 = profile(&values);
        let p2 = profile(&scaled);
        prop_assert_eq!(p1.n, p2.n);
        prop_assert_eq!(p1.dr_binades, p2.dr_binades);
        if p1.k.is_finite() && p2.k.is_finite() {
            let ratio = p1.k / p2.k;
            prop_assert!((0.999..1.001).contains(&ratio), "k changed under scaling");
        } else {
            prop_assert_eq!(p1.k.is_infinite(), p2.k.is_infinite());
        }
    }
}

/// Under `Bitwise` every entry point returns the exact sum, bit for bit,
/// on inputs whose IEEE sums go wrong: cancellation across 60 binades,
/// signed zeros, subnormals, overflow and the non-finite values.
#[test]
fn bitwise_results_are_the_exact_sum() {
    let wide = 2f64.powi(-60);
    let inputs: [&[f64]; 9] = [
        &[1.0, 1.2345 * wide, -1.0, 3.0 * wide * wide],
        &[-0.0, -0.0],
        &[5e-324, -2.5e-310, 5e-324],
        &[1e308, 1e308, -1e308],
        &[1.0, 1e308, 1e308],
        &[1.0, f64::INFINITY],
        &[f64::INFINITY, f64::NEG_INFINITY],
        &[f64::NAN, 1.0],
        &[],
    ];
    let reducer = repro_select::AdaptiveReducer::heuristic(Tolerance::Bitwise);
    let cache = repro_select::DecisionCache::new();
    for values in inputs {
        let exact = repro_fp::exact_sum(values).to_bits();
        let cached = reducer.reduce_cached(values, &cache);
        assert_eq!(cached.algorithm, repro_select::EXACT, "{values:?}");
        assert_eq!(cached.sum.to_bits(), exact, "reduce_cached {values:?}");
        assert_eq!(
            reducer.reduce(values).sum.to_bits(),
            exact,
            "reduce {values:?}"
        );
        assert_eq!(
            repro_select::EXACT.sum(values).to_bits(),
            exact,
            "DS {values:?}"
        );
        let (trace, _sink) = repro_obs::Trace::to_memory();
        let mut scope = trace.scope("select");
        let traced = reducer.reduce_traced(values, &mut scope);
        assert_eq!(traced.algorithm, repro_select::EXACT, "{values:?}");
        assert_eq!(traced.sum.to_bits(), exact, "reduce_traced {values:?}");
        let telemetry = reducer.reduce_telemetry(values, &mut scope, None);
        assert_eq!(telemetry.algorithm, repro_select::EXACT, "{values:?}");
        assert_eq!(
            telemetry.sum.to_bits(),
            exact,
            "reduce_telemetry {values:?}"
        );
    }
}

//! The paper's section-by-section claims as assertions: `cargo test` alone
//! re-verifies the narrative (the bench targets additionally print the
//! figures the claims come from).
//!
//! Each test names the paper section it pins down.

use repro_core::prelude::*;
use repro_core::stats::population_stddev;
use repro_core::tree::permute::PermutationStudy;
use repro_core::tree::{reduce, TreeShape};

/// §I / §II-A: floating-point addition is not associative — the paper's own
/// `a = 10⁹, b = −10⁹, c = 10⁻⁹` example.
#[test]
fn section_2a_nonassociativity_example() {
    let (a, b, c) = (1e9, -1e9, 1e-9);
    assert_eq!((a + b) + c, 1e-9);
    assert_eq!(a + (b + c), 0.0);
    assert_ne!((a + b) + c, a + (b + c));
}

/// §II-B: reduction trees of different shapes, and same-shaped trees with
/// different leaf assignments, yield different ST values (the [3] result
/// the paper builds on, at the paper's own tiny scale of eight values).
#[test]
fn section_2b_eight_value_tree_variability() {
    // Eight values, six small two large (the large pair cancelling), like
    // the cited experiment.
    let values = [1e16, 1.0, 1.0, 1.0, -1e16, 1.0, 1.0, 1.0];
    // Different shapes disagree:
    let shapes = [
        TreeShape::Balanced,
        TreeShape::Serial,
        TreeShape::Skewed { ratio: 250 },
    ];
    let results: Vec<u64> = shapes
        .iter()
        .map(|&s| reduce(&values, s, Algorithm::Standard).to_bits())
        .collect();
    assert!(
        results.windows(2).any(|w| w[0] != w[1]),
        "some pair of shapes must disagree: {results:?}"
    );
    // Same shape, different leaf assignment disagrees too (some assignment
    // among a handful of seeds must break the symmetry):
    let a = reduce(&values, TreeShape::Balanced, Algorithm::Standard);
    let disagreed = (0..20u64).any(|seed| {
        let perm = repro_core::tree::random_permutation(values.len(), seed);
        let permuted = repro_core::tree::apply_permutation(&values, &perm);
        reduce(&permuted, TreeShape::Balanced, Algorithm::Standard).to_bits() != a.to_bits()
    });
    assert!(
        disagreed,
        "no leaf assignment changed the balanced-tree sum"
    );
}

/// §IV-A: the analytical worst-case bound overestimates real errors by
/// orders of magnitude (Figure 2's lesson, as a fixed-seed assertion).
#[test]
fn section_4a_bounds_overestimate() {
    let values = repro_core::gen::uniform(10_000, -1000.0, 1000.0, 2015);
    let exact = repro_core::fp::exact_sum_acc(&values);
    let abs_sum = repro_core::fp::exact_abs_sum(&values);
    let bound = repro_core::fp::higham_bound(values.len(), abs_sum);
    let mut worst = 0.0f64;
    PermutationStudy::new(&values, 50, 7).for_each(|_, permuted| {
        let e = repro_core::fp::abs_error_vs(&exact, permuted.iter().sum());
        worst = worst.max(e);
    });
    assert!(
        bound > worst * 100.0,
        "bound {bound:e} should dwarf the worst observed error {worst:e}"
    );
}

/// §IV-B: cancellation counts do not rank summation orders by error
/// (|Spearman| well below 1 on the Figure 3 workload).
#[test]
fn section_4b_cancellation_does_not_predict_error() {
    use repro_core::cancel::instrumented_sum;
    let mut values = repro_core::gen::uniform(1_000, -1.0, 1.0, 3);
    let exact = repro_core::fp::exact_sum_acc(&values);
    let mut counts = Vec::new();
    let mut errors = Vec::new();
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    for i in 0..60u64 {
        values.shuffle(&mut rng);
        counts.push(instrumented_sum(&values, i).total() as f64);
        errors.push(repro_core::fp::abs_error_vs(&exact, values.iter().sum()));
    }
    let rho = spearman(&counts, &errors);
    assert!(
        rho.abs() < 0.6,
        "cancellation census should not rank errors: rho = {rho}"
    );
}

/// §IV-C: the robust algorithms cost more than ST, with PR the most
/// expensive (the paper's measured ST < … < PR frame; the K/CP middle pair
/// is hardware-dependent, see EXPERIMENTS.md). Checked against the
/// committed baseline prices the selector loads, per value at 4,096 values
/// a call, not timed inside the test run, so parallel test load cannot
/// reorder them.
#[test]
fn section_4c_cost_ordering() {
    let model = repro_core::select::CostModel::baseline(repro_core::fp::simd::active_tier())
        .expect("the committed bench baseline parses");
    let cost = |alg| model.price(alg, 4096, 2);
    let st = cost(Algorithm::Standard);
    for alg in [Algorithm::Kahan, Algorithm::Composite, Algorithm::PR] {
        assert!(cost(alg) > st, "{alg} should cost more than ST");
    }
    assert!(
        cost(Algorithm::PR) > cost(Algorithm::Kahan)
            && cost(Algorithm::PR) > cost(Algorithm::Composite),
        "PR tops the ladder"
    );
}

/// §V-B (Figure 7): on zero-sum dr=32 data, variability ranks
/// ST ≥ K ≫ CP ≫ PR = 0, and ST's error grows with concurrency.
#[test]
fn section_5b_sensitivity_ranking() {
    let spread = |n: usize| -> Vec<f64> {
        let values = repro_core::gen::zero_sum_with_range(n, 32, 99);
        let exact = repro_core::fp::exact_sum_acc(&values);
        Algorithm::PAPER_SET
            .iter()
            .map(|&alg| {
                let mut errors = Vec::new();
                PermutationStudy::new(&values, 30, 13).for_each(|_, p| {
                    errors.push(repro_core::fp::abs_error_vs(
                        &exact,
                        reduce(p, TreeShape::Balanced, alg),
                    ));
                });
                population_stddev(&errors)
            })
            .collect()
    };
    let small = spread(2_048);
    let large = spread(16_384);
    let (st_s, k_s, cp_s, pr_s) = (small[0], small[1], small[2], small[3]);
    assert!(st_s >= k_s * 0.5, "K should not be wildly worse than ST");
    assert!(k_s > cp_s * 1e3, "K ≫ CP");
    assert_eq!(pr_s, 0.0, "PR exactly reproducible");
    assert!(large[0] > st_s, "ST variability grows with concurrency");
}

/// §V-C (Figures 9–11): condition number drives variability far harder
/// than dynamic range.
#[test]
fn section_5c_k_dominates_dr() {
    let spread_at = |k: f64, dr: u32| -> f64 {
        let values = repro_core::gen::grid_cell(2_048, k, dr, 5, 1e16);
        let exact = repro_core::fp::exact_sum_acc(&values);
        let mut errors = Vec::new();
        PermutationStudy::new(&values, 25, 3).for_each(|_, p| {
            errors.push(repro_core::fp::abs_error_vs(
                &exact,
                reduce(p, TreeShape::Balanced, Algorithm::Standard),
            ));
        });
        population_stddev(&errors)
    };
    let k_gradient = spread_at(1e12, 8) / spread_at(1e2, 8).max(f64::MIN_POSITIVE);
    let dr_gradient = spread_at(1e2, 32) / spread_at(1e2, 0).max(f64::MIN_POSITIVE);
    assert!(
        k_gradient > dr_gradient * 100.0,
        "k gradient {k_gradient:e} must dwarf dr gradient {dr_gradient:e}"
    );
}

/// A selector on an inline price document in which DS costs 23 ns per
/// value, as the expansion kernel it once ran on measured: dearer than
/// every other rung at every `n`, as reproducibility was in 2015.
fn dear_ds_selector() -> repro_core::select::HeuristicSelector {
    let entry = |op: &str, unit: &str, n: usize, ns: f64| {
        format!(r#"{{"op": "{op}", "n": {n}, "unit": "{unit}", "median_ns": {ns}}}"#)
    };
    let mut entries = vec![
        entry("rung/ST", "elem", 4096, 0.75),
        entry("rung/K", "elem", 4096, 3.0),
        entry("rung/CP", "elem", 4096, 1.6),
        entry("rung/DS/call", "call", 256, 23.0 * 256.0 + 140.0),
    ];
    entries.extend((2..=9).map(|p| entry(&format!("rung/DS/p{p}"), "elem", 4096, 23.0)));
    entries
        .extend(["PW", "N", "DD", "PR"].map(|op| entry(&format!("sum/{op}"), "elem", 4096, 5.0)));
    let doc = format!(
        r#"{{"schema": "repro-bench-throughput-v2", "entries": [{}]}}"#,
        entries.join(", ")
    );
    let tier = repro_core::fp::simd::active_tier();
    repro_core::select::HeuristicSelector {
        costs: repro_core::select::CostModel::from_baseline_json(&doc, "inline", tier)
            .expect("inline prices parse"),
    }
}

/// §V-D (Figure 12): tightening the tolerance escalates the chosen
/// algorithm monotonically, and the hostile corner escalates first. Under
/// the paper's premise that reproducibility costs a multiple of ST (DS
/// priced last), the hostile cell climbs through CP; under the committed
/// prices every choice is the cheapest fit, so the price of the choice
/// never falls as the budget tightens.
#[test]
fn section_5d_selection_escalates() {
    use repro_core::select::{profile, HeuristicSelector, Selector};
    let hostile = profile(&repro_core::gen::grid_cell(4_096, 1e12, 32, 9, 1e16));
    let benign = profile(&repro_core::gen::grid_cell(4_096, 1.0, 0, 9, 1e16));
    let dear = dear_ds_selector();
    let mut hostile_choices = Vec::new();
    let mut last_rank = 0;
    for t in [1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 0.0] {
        let tol = Tolerance::AbsoluteSpread(t);
        let alg = dear.choose(&hostile, tol);
        assert!(alg.cost_rank() >= last_rank, "de-escalated at t = {t:e}");
        last_rank = alg.cost_rank();
        hostile_choices.push(alg);
        // At every threshold, the benign cell never needs a costlier
        // operator than the hostile cell.
        assert!(dear.choose(&benign, tol).cost_rank() <= alg.cost_rank());
    }
    assert!(
        hostile_choices.contains(&Algorithm::Composite),
        "{hostile_choices:?}"
    );
    // The committed prices: the choice's price never falls as the budget
    // tightens.
    let sel = HeuristicSelector::default();
    for p in [&hostile, &benign] {
        let mut last_price = 0.0;
        for t in [1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 0.0] {
            let price = sel
                .costs
                .price_on(sel.choose(p, Tolerance::AbsoluteSpread(t)), p);
            assert!(price >= last_price, "de-escalated at t = {t:e}");
            last_price = price;
        }
    }
    // A zero budget ends at the exact rung, which returns the exact sum.
    let values = repro_core::gen::grid_cell(4_096, 1e12, 32, 9, 1e16);
    let reducer = AdaptiveReducer::heuristic(Tolerance::AbsoluteSpread(0.0));
    assert_eq!(reducer.choose(&values).0, repro_core::select::EXACT);
    assert_eq!(
        reducer.reduce(&values).sum.to_bits(),
        repro_core::fp::exact_sum(&values).to_bits()
    );
}

/// §VI (conclusion): the three headline observations, in one test — shape
/// matters, conditioning matters, and per-threshold classification works.
#[test]
fn section_6_conclusions_hold() {
    // 1. Shape matters (balanced vs serial change ST's answer).
    let values = repro_core::gen::zero_sum_with_range(4_096, 32, 1);
    assert_ne!(
        reduce(&values, TreeShape::Balanced, Algorithm::Standard).to_bits(),
        reduce(&values, TreeShape::Serial, Algorithm::Standard).to_bits(),
    );
    // 2. Conditioning matters (k = 1 data reduces reproducibly even for ST
    //    at loose tolerances; k = inf does not).
    let benign = repro_core::gen::grid_cell(4_096, 1.0, 0, 2, 1e16);
    let perm = repro_core::tree::random_permutation(benign.len(), 3);
    let permuted = repro_core::tree::apply_permutation(&benign, &perm);
    let spread = (reduce(&benign, TreeShape::Balanced, Algorithm::Standard)
        - reduce(&permuted, TreeShape::Balanced, Algorithm::Standard))
    .abs();
    assert!(spread < 1e-12, "benign data barely varies: {spread:e}");
    // 3. Classification by cheapest acceptable algorithm is actionable:
    //    the verified reducer accepts the benign set on the cheapest rung
    //    and climbs higher for the hostile one.
    let v = repro_core::select::VerifiedReducer::new(Tolerance::AbsoluteSpread(1e-10), 4);
    let easy = v.reduce(&benign).disagreements.len();
    let hard = v.reduce(&values).disagreements.len();
    assert!(easy < hard, "benign tried {easy} rungs, hostile {hard}");
}

fn spearman(a: &[f64], b: &[f64]) -> f64 {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        let mut r = vec![0.0; v.len()];
        for (rank, &i) in idx.iter().enumerate() {
            r[i] = rank as f64;
        }
        r
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = ra.len() as f64;
    let ma = ra.iter().sum::<f64>() / n;
    let mb = rb.iter().sum::<f64>() / n;
    let cov: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = ra.iter().map(|x| (x - ma) * (x - ma)).sum();
    let vb: f64 = rb.iter().map(|y| (y - mb) * (y - mb)).sum();
    cov / (va.sqrt() * vb.sqrt()).max(f64::MIN_POSITIVE)
}

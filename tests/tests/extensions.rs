//! Integration tests for the extension layers: dot products, intervals,
//! verified/subtree selection, topology, the N-body application, the
//! fixed-order algorithms, and the CLI-facing data paths — all exercised
//! through the `repro-core` facade the way a downstream user would.

use repro_core::prelude::*;
use repro_core::select::{SubtreeAdaptive, VerifiedReducer};

/// Reproducible dot products compose with the generators and the oracle.
#[test]
fn reproducible_dot_products_end_to_end() {
    use repro_core::sum::{dot2, dot_exact, dot_reproducible, dot_standard};
    let x = repro_core::gen::uniform(5_000, -100.0, 100.0, 1);
    let y = repro_core::gen::uniform(5_000, -100.0, 100.0, 2);
    let exact = dot_exact(&x, &y);
    // Accuracy ladder holds.
    let e_std = (dot_standard(&x, &y) - exact).abs();
    let e_d2 = (dot2(&x, &y) - exact).abs();
    let e_pr = (dot_reproducible(&x, &y, 3) - exact).abs();
    assert!(e_d2 <= e_std);
    assert!(e_pr <= e_std.max(1e-9));
    // Reproducibility: pair-permutation invariance.
    let perm = repro_core::tree::random_permutation(x.len(), 3);
    let px: Vec<f64> = perm.iter().map(|&i| x[i as usize]).collect();
    let py: Vec<f64> = perm.iter().map(|&i| y[i as usize]).collect();
    assert_eq!(
        dot_reproducible(&px, &py, 3).to_bits(),
        dot_reproducible(&x, &y, 3).to_bits()
    );
}

/// Interval enclosures stay sound on generated hostile workloads while the
/// selector's chosen operator lands inside them.
#[test]
fn interval_enclosures_bracket_adaptive_results() {
    use repro_core::sum::IntervalSum;
    for (k, dr) in [(1.0, 0u32), (1e8, 16), (f64::INFINITY, 32)] {
        let values = repro_core::gen::grid_cell(3_000, k, dr, 5, 1e16);
        let enclosure = IntervalSum::enclosure_of(&values);
        let exact = repro_core::fp::exact_sum(&values);
        assert!(enclosure.contains(exact), "cell ({k:e},{dr})");
        let adaptive = AdaptiveReducer::heuristic(Tolerance::AbsoluteSpread(1e-9));
        let out = adaptive.reduce(&values);
        assert!(
            enclosure.contains(out.sum),
            "adaptive result {:e} outside enclosure {enclosure}",
            out.sum
        );
    }
}

/// The verified reducer and the model-driven selector agree on the easy
/// calls and the verified one never accepts a result violating its
/// tolerance (checked against the exact oracle).
#[test]
fn verified_and_heuristic_selection_are_consistent() {
    // Below DS's break-even, where the heuristic's cheapest fit is ST too.
    let n = repro_core::select::CostModel::default()
        .break_even(2)
        .expect("DS undercuts ST on two parts");
    let benign: Vec<f64> = (1..n).map(|i| i as f64).collect();
    let verified = VerifiedReducer::new(Tolerance::AbsoluteSpread(1e-6), 1).reduce(&benign);
    let (heuristic_choice, _) =
        AdaptiveReducer::heuristic(Tolerance::AbsoluteSpread(1e-6)).choose(&benign);
    assert_eq!(verified.algorithm, heuristic_choice);
    assert_eq!(verified.sum, repro_core::fp::exact_sum(&benign));

    // Above it, both take DS: the cheapest rung, and one that fits.
    let above: Vec<f64> = (1..=2 * n).map(|i| i as f64).collect();
    let verified = VerifiedReducer::new(Tolerance::AbsoluteSpread(1e-6), 1).reduce(&above);
    let (heuristic_choice, _) =
        AdaptiveReducer::heuristic(Tolerance::AbsoluteSpread(1e-6)).choose(&above);
    assert_eq!(verified.algorithm, repro_core::select::EXACT);
    assert_eq!(verified.algorithm, heuristic_choice);
    assert_eq!(verified.sum, repro_core::fp::exact_sum(&above));

    let hostile = repro_core::gen::zero_sum_with_range(10_000, 32, 9);
    let out = VerifiedReducer::new(Tolerance::AbsoluteSpread(1e-10), 2).reduce(&hostile);
    let err = repro_core::fp::abs_error(out.sum, &hostile);
    assert!(err <= 1e-9, "verified result error {err:e}");
}

/// Subtree adaptivity over the topology-aware tree machinery: the chunk
/// boundaries and machine enclosures compose without losing the budget.
#[test]
fn subtree_selection_composes_with_generators() {
    // Chunks below DS's break-even, where benign ones keep ST.
    let chunk = repro_core::select::CostModel::default()
        .break_even(2)
        .expect("DS undercuts ST on two parts")
        - 1;
    let mut values = Vec::new();
    for block in 0..8 {
        if block % 4 == 1 {
            values.extend(repro_core::gen::zero_sum_with_range(chunk, 24, block));
        } else {
            values.extend(repro_core::gen::grid_cell(chunk, 1.0, 2, block, 1e16));
        }
    }
    let reducer = SubtreeAdaptive::new(
        repro_core::select::HeuristicSelector::default(),
        Tolerance::AbsoluteSpread(1e-9),
        chunk,
    );
    let outcome = reducer.reduce(&values);
    assert!(repro_core::fp::abs_error(outcome.sum, &values) <= 1e-9);
    let hist = outcome.choice_histogram();
    assert!(hist.len() >= 2, "mixed data should mix operators: {hist:?}");
}

/// The N-body application, driven through the facade: PR trajectories are
/// machine-reproducible; the adaptive simulation respects its tolerance
/// budget against the exact oracle at every sampled force.
#[test]
fn nbody_application_reproducibility() {
    use repro_core::md::{sim::divergence, SimConfig, Simulation};
    let cfg = SimConfig {
        algorithm: Algorithm::PR,
        shuffle_seed: Some(11),
        ..SimConfig::default()
    };
    let cfg_b = SimConfig {
        shuffle_seed: Some(22),
        ..cfg
    };
    let mut a = Simulation::disk(20, 77, cfg);
    let mut b = Simulation::disk(20, 77, cfg_b);
    a.run(150);
    b.run(150);
    assert!(divergence(&a, &b).bitwise_identical);
    assert_eq!(a.state_fingerprint(), b.state_fingerprint());
}

/// Fixed-order algorithms agree with the oracle on generated data (and so
/// do the mergeable exact operators), tying §III-A to the test suite.
#[test]
fn fixed_order_algorithms_match_oracles() {
    use repro_core::sum::{accsum, sorted_sum, DistillSum};
    for seed in 0..3u64 {
        let values = repro_core::gen::zero_sum_with_range(2_000, 24, seed);
        let exact = repro_core::fp::exact_sum(&values);
        let ulp = repro_core::fp::ulp::ulp(exact.abs().max(f64::MIN_POSITIVE));
        assert!((accsum(&values) - exact).abs() <= ulp, "accsum seed {seed}");
        assert!(
            (sorted_sum(&values) - exact).abs() <= ulp,
            "sorted seed {seed}"
        );
        assert_eq!(
            DistillSum::sum_slice(&values).to_bits(),
            exact.to_bits(),
            "distill seed {seed}"
        );
    }
}

/// The CLI's calibrate output feeds straight back into a
/// `CalibratedSelector` — the persistence loop a user would actually run.
#[test]
fn cli_calibration_round_trips_into_a_selector() {
    let args: Vec<String> = ["calibrate", "--n", "256", "--perms", "6", "--seed", "3"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let csv = repro_cli::run(&args, &|_| Err(repro_cli::CliError::new("no fs"))).unwrap();
    let table = repro_core::select::CalibrationTable::from_csv(&csv).expect("parse");
    let selector = repro_core::select::selector::CalibratedSelector::new(table);
    use repro_core::select::Selector;
    let benign: Vec<f64> = (1..=256).map(|i| i as f64).collect();
    let choice = selector.choose(
        &repro_core::select::profile(&benign),
        Tolerance::AbsoluteSpread(1.0),
    );
    assert_eq!(choice, Algorithm::Standard);
    let hostile = repro_core::gen::zero_sum_with_range(256, 16, 1);
    let choice = selector.choose(
        &repro_core::select::profile(&hostile),
        Tolerance::AbsoluteSpread(0.0),
    );
    // The table's PR entry is skipped for the exact rung.
    assert_eq!(choice, repro_core::select::EXACT);
}

/// Analytic series with closed-form limits: the reduction operators are
/// judged against *mathematics*, not just against another float
/// computation — rounding error and truncation error separate cleanly.
#[test]
fn analytic_series_judge_operators_against_closed_forms() {
    use repro_core::gen::series;
    // Telescoping zero: the exact sum is 0, so the computed value IS the
    // rounding error. PR reproduces bitwise across permutations; ST does
    // not have to (and its error dwarfs CP's on this 16-decade spread).
    let v = series::telescoping_zero(20_000, 42);
    assert_eq!(repro_core::fp::exact_sum(&v), 0.0);
    let pr = Algorithm::PR.sum(&v);
    let perm = repro_core::tree::random_permutation(v.len(), 7);
    let pv: Vec<f64> = perm.iter().map(|&i| v[i as usize]).collect();
    assert_eq!(pr.to_bits(), Algorithm::PR.sum(&pv).to_bits());
    assert!(Algorithm::Composite.sum(&v).abs() <= Algorithm::Standard.sum(&v).abs());

    // Leibniz π: every operator's partial sum must land inside the
    // analytic alternating-series bracket (rounding ≪ truncation here).
    let n = 100_000;
    let terms = series::leibniz_pi(n);
    let (lo, hi) = series::leibniz_pi_bracket(n);
    for alg in [Algorithm::Standard, Algorithm::Kahan, Algorithm::PR] {
        let s = alg.sum(&terms);
        assert!(s > lo && s < hi, "{alg}: {s} outside ({lo}, {hi})");
    }

    // Basel in descending order: the fp-exact sum sits below π²/6 by less
    // than the analytic remainder 1/n, and PR matches the exact sum of the
    // stored terms to the last bit.
    let terms = series::basel(500_000);
    let exact = repro_core::fp::exact_sum(&terms);
    let limit = series::basel_limit();
    assert!(exact < limit && limit - exact < 1.0 / 500_000.0 + 1e-9);
    assert_eq!(Algorithm::PR.sum(&terms).to_bits(), exact.to_bits());
}

/// Online statistics match batch statistics on experiment-shaped streams
/// and merge correctly across chunks — the streaming path long experiments
/// use.
#[test]
fn online_stats_agree_with_batch_on_error_streams() {
    use repro_core::stats::{population_stddev, OnlineStats};
    use repro_core::tree::permute::PermutationStudy;
    use repro_core::tree::{reduce, TreeShape};
    let values = repro_core::gen::zero_sum_with_range(2_048, 24, 3);
    let exact = repro_core::fp::exact_sum_acc(&values);
    let mut batch = Vec::new();
    let mut online = OnlineStats::new();
    PermutationStudy::new(&values, 30, 5).for_each(|_, permuted| {
        let e = repro_core::fp::abs_error_vs(
            &exact,
            reduce(permuted, TreeShape::Balanced, Algorithm::Standard),
        );
        batch.push(e);
        online.push(e);
    });
    assert_eq!(online.count(), 30);
    let diff = (online.population_stddev() - population_stddev(&batch)).abs();
    assert!(diff <= 1e-12 * (1.0 + online.population_stddev()));
}

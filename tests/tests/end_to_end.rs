//! End-to-end integration: generators → trees → operators → oracles →
//! selector, exercised together the way the bench binaries use them.

use repro_core::prelude::*;
use repro_core::stats::population_stddev;
use repro_core::tree::permute::PermutationStudy;
use repro_core::tree::{reduce, TreeShape};

/// The two independent exact oracles must agree bit-for-bit on every
/// generated workload family.
#[test]
fn oracles_agree_on_every_workload_family() {
    let workloads: Vec<Vec<f64>> = vec![
        repro_core::gen::uniform(5_000, -1000.0, 1000.0, 1),
        repro_core::gen::zero_sum_with_range(5_000, 32, 2),
        repro_core::gen::grid_cell(2_000, 1e9, 16, 3, 1e16),
        repro_core::gen::nbody::force_reduction(5_000, 0.01, 4).force_terms,
    ];
    for (i, w) in workloads.iter().enumerate() {
        let a = repro_core::fp::exact_sum(w);
        let b = repro_core::hp::sum_exact(w);
        assert_eq!(a.to_bits(), b.to_bits(), "workload {i}");
    }
}

/// The paper's Figure 7 orderings, end to end: across permuted balanced
/// trees, spread(ST) > spread(CP), and CP/PR sit at least six orders of
/// magnitude below ST; PR's spread is exactly zero.
#[test]
fn figure7_orderings_hold() {
    let values = repro_core::gen::zero_sum_with_range(8192, 32, 2015);
    let exact = repro_core::fp::exact_sum_acc(&values);
    let mut spreads = std::collections::HashMap::new();
    for alg in Algorithm::PAPER_SET {
        let mut errors = Vec::new();
        PermutationStudy::new(&values, 40, 7).for_each(|_, permuted| {
            let s = reduce(permuted, TreeShape::Balanced, alg);
            errors.push(repro_core::fp::abs_error_vs(&exact, s));
        });
        spreads.insert(alg.abbrev(), population_stddev(&errors));
    }
    let (st, k, cp, pr) = (spreads["ST"], spreads["K"], spreads["CP"], spreads["PR"]);
    assert!(st > 0.0, "ST must vary");
    assert!(k <= st * 2.0, "K should not be wildly worse than ST");
    assert!(cp < st / 1e6, "CP must sit far below ST: {cp:e} vs {st:e}");
    assert_eq!(pr, 0.0, "PR must be bitwise stable");
}

/// Unbalanced (serial) trees show at least as much ST variation as balanced
/// ones on hostile data — the balanced-vs-unbalanced contrast of Figure 7.
#[test]
fn serial_trees_vary_at_least_as_much_as_balanced_for_st() {
    let values = repro_core::gen::zero_sum_with_range(8192, 32, 77);
    let exact = repro_core::fp::exact_sum_acc(&values);
    let spread_for = |shape: TreeShape| {
        let mut errors = Vec::new();
        PermutationStudy::new(&values, 40, 13).for_each(|_, permuted| {
            errors.push(repro_core::fp::abs_error_vs(
                &exact,
                reduce(permuted, shape, Algorithm::Standard),
            ));
        });
        population_stddev(&errors)
    };
    let balanced = spread_for(TreeShape::Balanced);
    let serial = spread_for(TreeShape::Serial);
    assert!(
        serial >= balanced * 0.5,
        "serial {serial:e} unexpectedly below balanced {balanced:e}"
    );
}

/// The adaptive reducer's promise, verified empirically: whatever operator
/// it picks, the measured spread across reduction orders respects the
/// tolerance it was given.
#[test]
fn adaptive_choice_meets_its_tolerance_empirically() {
    for (dr, k) in [(0u32, 1.0f64), (16, 1e6), (32, f64::INFINITY)] {
        let values = repro_core::gen::grid_cell(4096, k, dr, 9, 1e16);
        for tol in [1e-8, 1e-12, 1e-15] {
            let reducer = AdaptiveReducer::heuristic(Tolerance::AbsoluteSpread(tol));
            let (alg, _) = reducer.choose(&values);
            let exact = repro_core::fp::exact_sum_acc(&values);
            let mut errors = Vec::new();
            PermutationStudy::new(&values, 30, 3).for_each(|_, permuted| {
                errors.push(repro_core::fp::abs_error_vs(
                    &exact,
                    reduce(permuted, TreeShape::Balanced, alg),
                ));
            });
            let spread = population_stddev(&errors);
            assert!(
                spread <= tol.max(f64::MIN_POSITIVE) * 4.0,
                "cell (k={k:e}, dr={dr}), tol {tol:e}: chose {alg}, measured {spread:e}"
            );
        }
    }
}

/// Full pipeline through the message-passing simulator: a jittered
/// arrival-order reduction with the PR operator returns the same bits as a
/// sequential reduction on one node.
#[test]
fn mpisim_pr_matches_sequential_bitwise() {
    use repro_core::mpisim::{collectives, ReduceConfig, ReduceTopology, World};
    let values = repro_core::gen::zero_sum_with_range(30_000, 32, 5);
    let sequential = Algorithm::PR.sum(&values);
    let cfg = ReduceConfig {
        topology: ReduceTopology::FlatArrival,
        jitter_us: 200,
        jitter_seed: 31,
    };
    let out = World::run(12, |comm| {
        let per = values.len().div_ceil(comm.size());
        let lo = (comm.rank() * per).min(values.len());
        let hi = ((comm.rank() + 1) * per).min(values.len());
        collectives::reduce_sum(comm, &values[lo..hi], Algorithm::PR, 0, &cfg)
    });
    assert_eq!(out[0].unwrap().to_bits(), sequential.to_bits());
}

/// Pooled runtime + selector together: bitwise tolerance routes to a
/// reproducible operator, and the result is stable across repeated
/// arrival-order runs.
#[test]
fn executor_respects_bitwise_tolerance() {
    use repro_core::runtime::{MergeOrder, ReductionPlan, Runtime};
    let values = repro_core::gen::nbody::force_reduction(20_000, 0.0, 6).force_terms;
    let reducer = AdaptiveReducer::heuristic(Tolerance::Bitwise);
    let (alg, _) = reducer.choose(&values);
    assert!(alg.is_reproducible());
    let reference = alg.sum(&values);
    let plan = ReductionPlan::with_chunk_count(values.len(), 8);
    for _ in 0..5 {
        let r = Runtime::global().reduce(
            &values,
            &plan,
            || alg.new_accumulator(),
            MergeOrder::Arrival,
        );
        assert_eq!(r.to_bits(), reference.to_bits());
    }
}

/// Cancellation instrumentation composes with the generators: the
/// zero-sum workload triggers severe cancellations, the all-positive one
/// does not.
#[test]
fn cancellation_census_distinguishes_workloads() {
    use repro_core::cancel::instrumented_sum;
    let hostile = repro_core::gen::zero_sum_with_range(2_000, 16, 8);
    let benign = repro_core::gen::grid_cell(2_000, 1.0, 0, 8, 1e16);
    let hostile_report = instrumented_sum(&hostile, 1);
    let benign_report = instrumented_sum(&benign, 1);
    assert!(hostile_report.total() > benign_report.total());
    assert_eq!(
        benign_report.counts[3], 0,
        "no 8-digit losses in benign data"
    );
}

/// The error-bound machinery brackets reality: measured errors never exceed
/// the analytical bound, across workloads and algorithms.
#[test]
fn measured_errors_stay_under_analytic_bounds() {
    for seed in 0..5u64 {
        let values = repro_core::gen::uniform(10_000, -1000.0, 1000.0, seed);
        let n = values.len();
        let abs_sum = repro_core::fp::exact_abs_sum(&values);
        let bound = repro_core::fp::higham_bound(n, abs_sum);
        for alg in Algorithm::PAPER_SET {
            let err = repro_core::fp::abs_error(alg.sum(&values), &values);
            assert!(err <= bound, "{alg} err {err:e} > bound {bound:e}");
        }
    }
}

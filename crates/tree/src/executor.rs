//! A threaded reduction whose merge order is genuine run-time arrival order.
//!
//! The paper's central premise is that at scale, "the high level of
//! concurrency will not allow the user to enforce any specific reduction
//! order". This executor reproduces that reality in miniature: pool workers
//! reduce chunks locally and report their partial accumulators; the root
//! merges them **in whatever order they arrive**. Two runs of the same
//! program legitimately merge in different orders — which is exactly the
//! nondeterminism a reproducible operator must absorb.
//!
//! This module is a thin veneer over the persistent work-stealing engine
//! of `repro-runtime` ([`repro_runtime::Runtime`]). It cuts the input into
//! at most `workers` contiguous chunks
//! ([`ReductionPlan::with_chunk_count`]), runs them on the shared pool, and
//! merges per the runtime's own [`MergeOrder`]: in arrival order, or along
//! the plan's fixed tree ([`repro_sum::lanes::merge_tree`]).

use repro_runtime::{ReductionPlan, Runtime};
use repro_sum::Accumulator;

pub use repro_runtime::MergeOrder;

/// Reduce `values` with `workers`-way chunking, each chunk reduced locally
/// (serially) on the shared runtime pool, the root merging partials per
/// `order`.
///
/// This is the "partial data is locally generated on multiple processes and
/// then globally reduced" pattern of the paper's Section IV-C, with the
/// nondeterminism knob exposed.
pub fn parallel_reduce<A, F>(values: &[f64], workers: usize, make: F, order: MergeOrder) -> f64
where
    A: Accumulator + 'static,
    F: Fn() -> A + Sync,
{
    assert!(workers >= 1);
    if values.is_empty() {
        return make().finalize();
    }
    let plan = ReductionPlan::with_chunk_count(values.len(), workers);
    Runtime::global().reduce_planned(values, &plan, make, order)
}

/// [`parallel_reduce`] with the merge pinned to the plan tree and the run
/// narrated into an observability scope, optionally with numerical-accuracy
/// telemetry: per-node partial sums, Higham bounds, and sampled exact-ulp
/// deviations (see [`repro_runtime::Runtime::reduce_telemetry`]).
///
/// Arrival-order merging is intentionally not offered here: a trace of a
/// genuinely nondeterministic merge would defeat the byte-identical-replay
/// contract. The executor keeps the same `workers`-way chunk decomposition
/// as [`parallel_reduce`], so the emitted node ids and intervals describe
/// the exact tree the untraced call would have used under
/// [`MergeOrder::Plan`].
pub fn parallel_reduce_telemetry<A, F>(
    values: &[f64],
    workers: usize,
    make: F,
    scope: &mut repro_obs::Scope,
    telemetry: repro_obs::TelemetryConfig,
    registry: Option<&repro_obs::Registry>,
) -> f64
where
    A: Accumulator + 'static,
    F: Fn() -> A + Sync,
{
    assert!(workers >= 1);
    if values.is_empty() {
        return make().finalize();
    }
    let plan = ReductionPlan::with_chunk_count(values.len(), workers);
    Runtime::global()
        .reduce_telemetry(values, &plan, make, scope, telemetry, registry)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_sum::{BinnedSum, CompositeSum, StandardSum};

    #[test]
    fn single_worker_matches_sequential() {
        let values = repro_gen::uniform(10_000, -5.0, 5.0, 2);
        let seq: f64 = values.iter().sum();
        let par = parallel_reduce(&values, 1, StandardSum::new, MergeOrder::Arrival);
        assert_eq!(par.to_bits(), seq.to_bits());
    }

    #[test]
    fn chunk_index_order_is_deterministic() {
        let values = repro_gen::zero_sum_with_range(50_000, 24, 17);
        let a = parallel_reduce(&values, 8, StandardSum::new, MergeOrder::Plan);
        for _ in 0..5 {
            let b = parallel_reduce(&values, 8, StandardSum::new, MergeOrder::Plan);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn binned_is_bitwise_stable_under_arrival_order() {
        // The headline property: PR absorbs real scheduling nondeterminism.
        let values = repro_gen::zero_sum_with_range(50_000, 32, 23);
        let reference = parallel_reduce(&values, 8, || BinnedSum::new(3), MergeOrder::Plan);
        for _ in 0..10 {
            let run = parallel_reduce(&values, 8, || BinnedSum::new(3), MergeOrder::Arrival);
            assert_eq!(run.to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn composite_stays_accurate_under_any_arrival() {
        let values = repro_gen::zero_sum_with_range(50_000, 16, 29);
        for _ in 0..5 {
            let run = parallel_reduce(&values, 8, CompositeSum::new, MergeOrder::Arrival);
            // Exact sum is 0; CP must stay within a tight absolute band.
            let bound = repro_fp::exact_abs_sum(&values) * repro_fp::UNIT_ROUNDOFF * 4.0;
            assert!(run.abs() <= bound, "CP error {run:e} > {bound:e}");
        }
    }

    #[test]
    fn worker_count_does_not_change_binned_result() {
        let values = repro_gen::uniform(10_000, -100.0, 100.0, 31);
        let one = parallel_reduce(&values, 1, || BinnedSum::new(3), MergeOrder::Arrival);
        for workers in [2usize, 3, 7, 16] {
            let w = parallel_reduce(&values, workers, || BinnedSum::new(3), MergeOrder::Arrival);
            assert_eq!(w.to_bits(), one.to_bits(), "workers = {workers}");
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(
            parallel_reduce(&[], 4, StandardSum::new, MergeOrder::Arrival),
            0.0
        );
    }

    #[test]
    fn telemetry_executor_matches_untraced_chunk_index_result() {
        use repro_obs::{TelemetryConfig, Trace};
        let values = repro_gen::zero_sum_with_range(20_000, 24, 41);
        let plain = parallel_reduce(&values, 6, StandardSum::new, MergeOrder::Plan);
        let (trace, sink) = Trace::to_memory();
        let mut scope = trace.scope("tree");
        let registry = repro_obs::Registry::new();
        let traced = parallel_reduce_telemetry(
            &values,
            6,
            StandardSum::new,
            &mut scope,
            TelemetryConfig::sampled(2),
            Some(&registry),
        );
        assert_eq!(traced.to_bits(), plain.to_bits());
        let text = repro_obs::render_jsonl(&sink.drain());
        let nodes = repro_obs::forensics::collect_nodes(&text).unwrap();
        // 6 leaves + 5 merges, each with a bound; every second one sampled.
        assert_eq!(nodes.len(), 11);
        assert!(nodes.iter().all(|n| n.bound.is_some()));
        assert_eq!(nodes.iter().filter(|n| n.ulps.is_some()).count(), 6);
        assert_eq!(registry.snapshot().counters["runtime.nodes_observed"], 11);
    }
}

//! Property tests for the runtime's headline guarantees:
//!
//! 1. Plan-order merging is **bitwise worker-count-invariant** for the
//!    reproducible operators (PR/BinnedSum and two-pass PreroundedSum),
//!    across 1/2/4/8/16 workers — and for those operators even genuine
//!    arrival-order merging cannot change the bits.
//! 2. The multi-lane chunk kernels are bitwise identical to the scalar
//!    `add_slice` loop for reproducible operators.
//! 3. The lane kernel's decomposition and merge shape **are** the plan's:
//!    both cut with `repro_sum::lanes::chunk_len` and merge with
//!    `repro_sum::lanes::merge_tree`, and the tests here pin the lane
//!    kernel to the engine's plan-order reduction bit-for-bit with an
//!    order-*sensitive* operator, so any drift in how the engine applies
//!    the shared schedule fails loudly.

use proptest::prelude::*;
use repro_runtime::{ChunkKernel, MergeOrder, ReductionPlan, Runtime};
use repro_sum::lanes::accumulate_lanes;
use repro_sum::prerounded::{PreroundPlan, PreroundedSum};
use repro_sum::{Accumulator, BinnedSum, DistillSum, StandardSum};

const WORKER_LADDER: [usize; 5] = [1, 2, 4, 8, 16];

fn hostile(seed: u64, dr: u32) -> Vec<f64> {
    repro_gen::zero_sum_with_range(20_000, dr.max(1), seed)
}

proptest! {
    #[test]
    fn binned_plan_order_is_worker_count_invariant(seed in 0u64..500, dr in 1u32..24) {
        let values = hostile(seed, dr);
        let plan = ReductionPlan::with_chunk_len(values.len(), 512);
        let mut reference = None;
        for workers in WORKER_LADDER {
            let rt = Runtime::new(workers);
            let got = rt.reduce_planned(&values, &plan, || BinnedSum::new(3), MergeOrder::Plan);
            let r = *reference.get_or_insert(got);
            prop_assert_eq!(got.to_bits(), r.to_bits(), "workers = {}", workers);
        }
    }

    #[test]
    fn binned_absorbs_arrival_order_at_any_worker_count(seed in 0u64..200, dr in 1u32..24) {
        let values = hostile(seed, dr);
        let plan = ReductionPlan::with_chunk_len(values.len(), 512);
        let reference =
            Runtime::new(1).reduce_planned(&values, &plan, || BinnedSum::new(3), MergeOrder::Plan);
        for workers in WORKER_LADDER {
            let rt = Runtime::new(workers);
            let got =
                rt.reduce_planned(&values, &plan, || BinnedSum::new(3), MergeOrder::Arrival);
            prop_assert_eq!(got.to_bits(), reference.to_bits(), "workers = {}", workers);
        }
    }

    #[test]
    fn prerounded_plan_order_is_worker_count_invariant(seed in 0u64..200, dr in 1u32..16) {
        let values = hostile(seed, dr);
        let max_abs = values.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        let pre = PreroundPlan::new(max_abs, values.len(), 2);
        let plan = ReductionPlan::with_chunk_len(values.len(), 512);
        let mut reference = None;
        for workers in WORKER_LADDER {
            let rt = Runtime::new(workers);
            for order in [MergeOrder::Plan, MergeOrder::Arrival] {
                let got =
                    rt.reduce_planned(&values, &plan, || PreroundedSum::new(&pre), order);
                let r = *reference.get_or_insert(got);
                prop_assert_eq!(
                    got.to_bits(), r.to_bits(),
                    "workers = {}, order = {:?}", workers, order
                );
            }
        }
    }

    #[test]
    fn lane_kernels_match_scalar_for_reproducible_operators(
        seed in 0u64..500,
        dr in 1u32..24,
        lanes in 2usize..12,
    ) {
        let values = hostile(seed, dr);
        let mut scalar = BinnedSum::new(3);
        scalar.add_slice(&values);
        let laned = accumulate_lanes(|| BinnedSum::new(3), &values, lanes);
        prop_assert_eq!(laned.finalize().to_bits(), scalar.finalize().to_bits());

        let mut exact = DistillSum::new();
        exact.add_slice(&values);
        let laned_exact = accumulate_lanes(DistillSum::new, &values, lanes);
        prop_assert_eq!(laned_exact.finalize().to_bits(), exact.finalize().to_bits());
    }

    #[test]
    fn lane_decomposition_is_the_plan_decomposition(
        seed in 0u64..200,
        dr in 1u32..24,
        lanes in 1usize..12,
    ) {
        // StandardSum is order-sensitive: equal bits here means the lane
        // kernel's chunk boundaries AND merge tree are exactly the plan's.
        let values = hostile(seed, dr);
        let laned = accumulate_lanes(StandardSum::new, &values, lanes).finalize();
        let plan = ReductionPlan::with_chunk_count(values.len(), lanes);
        let planned =
            Runtime::new(4).reduce_planned(&values, &plan, StandardSum::new, MergeOrder::Plan);
        prop_assert_eq!(laned.to_bits(), planned.to_bits(), "lanes = {}", lanes);
    }

    #[test]
    fn exact_lanes_match_planned_reduction_at_any_worker_count(
        seed in 0u64..100,
        dr in 1u32..24,
    ) {
        // The exact multi-lane reduction equals the engine's planned
        // reduction over the superaccumulator for every (lanes, workers)
        // pairing — the bits depend on the data alone.
        let values = hostile(seed, dr);
        let reference = repro_fp::exact_sum(&values);
        for lanes in [1usize, 2, 4, 8] {
            let laned = repro_sum::accumulate_lanes_exact(&values, lanes).to_f64();
            prop_assert_eq!(laned.to_bits(), reference.to_bits(), "lanes = {}", lanes);
        }
        for workers in WORKER_LADDER {
            let rt = Runtime::new(workers);
            let plan = ReductionPlan::with_chunk_count(values.len(), workers);
            let got = rt.reduce_planned(
                &values,
                &plan,
                repro_fp::Superaccumulator::new,
                MergeOrder::Plan,
            );
            prop_assert_eq!(got.to_bits(), reference.to_bits(), "workers = {}", workers);
        }
    }

    #[test]
    fn lane_engine_kernel_matches_scalar_engine_kernel(seed in 0u64..100, dr in 1u32..24) {
        let values = hostile(seed, dr);
        let plan = ReductionPlan::with_chunk_len(values.len(), 1024);
        let rt = Runtime::new(4);
        let (scalar, _) = rt.reduce_stats(
            &values, &plan, || BinnedSum::new(3), MergeOrder::Plan, ChunkKernel::Scalar,
        );
        for lanes in [4usize, 8] {
            let (laned, _) = rt.reduce_stats(
                &values, &plan, || BinnedSum::new(3), MergeOrder::Plan, ChunkKernel::Lanes(lanes),
            );
            prop_assert_eq!(laned.to_bits(), scalar.to_bits(), "lanes = {}", lanes);
        }
    }
}

//! Property tests for the runtime's headline guarantees:
//!
//! 1. Plan-order merging is **bitwise worker-count-invariant** for the
//!    reproducible operators (PR/BinnedSum and two-pass PreroundedSum),
//!    across 1/2/4/8/16 workers — and for those operators even genuine
//!    arrival-order merging cannot change the bits.
//! 2. A planned reduction at any chunk count is bitwise identical to the
//!    scalar `add_slice` loop for reproducible operators, and the exact
//!    register returns the exact sum at every worker count.

use proptest::prelude::*;
use repro_runtime::{MergeOrder, ReductionPlan, Runtime};
use repro_sum::prerounded::{PreroundPlan, PreroundedSum};
use repro_sum::{Accumulator, BinnedSum, DistillSum};

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
            let got = rt.reduce(&values, &plan, || BinnedSum::new(3), MergeOrder::Plan);
            let r = *reference.get_or_insert(got);
            prop_assert_eq!(got.to_bits(), r.to_bits(), "workers = {}", workers);
        }
    }

    #[test]
    fn binned_absorbs_arrival_order_at_any_worker_count(seed in 0u64..200, dr in 1u32..24) {
        let values = hostile(seed, dr);
        let plan = ReductionPlan::with_chunk_len(values.len(), 512);
        let reference =
            Runtime::new(1).reduce(&values, &plan, || BinnedSum::new(3), MergeOrder::Plan);
        for workers in WORKER_LADDER {
            let rt = Runtime::new(workers);
            let got =
                rt.reduce(&values, &plan, || BinnedSum::new(3), MergeOrder::Arrival);
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
                    rt.reduce(&values, &plan, || PreroundedSum::new(&pre), order);
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
        chunks in 2usize..12,
    ) {
        let values = hostile(seed, dr);
        let plan = ReductionPlan::with_chunk_count(values.len(), chunks);
        let rt = Runtime::new(4);
        let mut scalar = BinnedSum::new(3);
        scalar.add_slice(&values);
        let planned = rt.reduce(&values, &plan, || BinnedSum::new(3), MergeOrder::Plan);
        prop_assert_eq!(planned.to_bits(), scalar.finalize().to_bits());

        let mut exact = DistillSum::new();
        exact.add_slice(&values);
        let planned_exact = rt.reduce(&values, &plan, DistillSum::new, MergeOrder::Plan);
        prop_assert_eq!(planned_exact.to_bits(), exact.finalize().to_bits());
    }

    #[test]
    fn exact_lanes_match_planned_reduction_at_any_worker_count(
        seed in 0u64..100,
        dr in 1u32..24,
    ) {
        // The engine's planned reduction over the superaccumulator is the
        // exact sum for every worker count and the chunk count that
        // matches it — the bits depend on the data alone.
        let values = hostile(seed, dr);
        let reference = repro_fp::exact_sum(&values);
        for workers in WORKER_LADDER {
            let rt = Runtime::new(workers);
            let plan = ReductionPlan::with_chunk_count(values.len(), workers);
            let got = rt.reduce(
                &values,
                &plan,
                repro_fp::Superaccumulator::new,
                MergeOrder::Plan,
            );
            prop_assert_eq!(got.to_bits(), reference.to_bits(), "workers = {}", workers);
        }
    }
}

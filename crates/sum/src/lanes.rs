//! Multi-lane slice kernels over contiguous chunks, and the workspace's one
//! merge schedule.
//!
//! A scalar `add_slice` is one stream through the operator. Splitting the
//! slice into `L` **contiguous** chunks gives the operator `L` independent
//! accumulators whose inner loops each run the operator's batched
//! `add_slice` kernel at full speed, then the lanes merge through the fixed
//! balanced binary tree of [`merge_tree`] — a purely data-dependent
//! schedule, so the kernel is deterministic for every operator and
//! bit-identical to the scalar kernel for reproducible operators
//! ([`crate::BinnedSum`], [`crate::DistillSum`], the exact
//! superaccumulator), whose results are schedule-invariant by construction.
//!
//! [`chunk_len`] and [`merge_tree`] are the only copies of the chunk rule and
//! the merge tree in the workspace: the runtime's `ReductionPlan` cuts its
//! chunks with [`chunk_len`] and merges them with [`merge_tree`], `agg`
//! merges its shards and `mpisim` its ranks along the same stride-doubling
//! tree. A lane result therefore equals the planned reduction a runtime with
//! `L` workers would produce — lane count, worker count, and SIMD dispatch
//! tier can all vary without moving a single bit of a reproducible
//! operator's output.
//!
//! Contiguous chunks, not a round-robin element interleave: strided gathers
//! forced either a per-element `add` (one long dependency chain, ~3× slower
//! for the superaccumulator) or a scratch-buffer copy, while contiguous
//! chunks keep every lane on the operator's fastest slice path with zero
//! data movement.

use crate::Accumulator;

/// Accumulate `values` into a fresh accumulator using `lanes` contiguous
/// lane chunks (see module docs). `lanes <= 1` is the scalar kernel.
pub fn accumulate_lanes<A, F>(make: F, values: &[f64], lanes: usize) -> A
where
    A: Accumulator,
    F: Fn() -> A,
{
    if lanes <= 1 {
        let mut acc = make();
        acc.add_slice(values);
        return acc;
    }
    let parts: Vec<A> = lane_chunks(values, lanes)
        .map(|chunk| {
            let mut lane = make();
            lane.add_slice(chunk);
            lane
        })
        .collect();
    merge_in_lane_order(parts).unwrap_or_else(make)
}

/// The chunk rule: the length of each of the at most `count` contiguous
/// chunks that cover `len` elements, `ceil(len / min(count, len))` and never
/// below 1. The last chunk may be short, so a cut can yield fewer than
/// `count` chunks (10 elements at count 8 give 5 chunks of 2).
pub fn chunk_len(len: usize, count: usize) -> usize {
    len.div_ceil(count.max(1).min(len.max(1))).max(1)
}

/// The contiguous per-lane chunks of `values` for a given lane count, cut
/// by [`chunk_len`].
pub fn lane_chunks(values: &[f64], lanes: usize) -> std::slice::Chunks<'_, f64> {
    values.chunks(chunk_len(values.len(), lanes))
}

/// The fixed stride-doubling balanced binary tree over `parts`: at stride
/// `s`, part `i + s` folds into part `i` for `i = 0, 2s, 4s, ...`, then the
/// stride doubles. `merge(i, s, left, right)` runs once per tree node, in
/// that order, so the topology depends only on `parts.len()`. Returns the
/// root, or `None` for an empty part set.
pub fn merge_tree<A, M>(mut parts: Vec<A>, mut merge: M) -> Option<A>
where
    M: FnMut(usize, usize, &mut A, &A),
{
    let n = parts.len();
    let mut stride = 1;
    while stride < n {
        let mut i = 0;
        while i + stride < n {
            let (left, right) = parts.split_at_mut(i + stride);
            merge(i, stride, &mut left[i], &right[0]);
            i += 2 * stride;
        }
        stride *= 2;
    }
    parts.into_iter().next()
}

/// Fold accumulators through [`merge_tree`] with [`Accumulator::merge`].
/// Returns `None` for an empty lane set.
pub fn merge_in_lane_order<A: Accumulator>(parts: Vec<A>) -> Option<A> {
    merge_tree(parts, |_, _, left, right| left.merge(right))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinnedSum, KahanSum, StandardSum};
    use repro_fp::Superaccumulator;

    fn data(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let e = (i % 30) as i32 - 15;
                let sign = if i % 3 == 0 { -1.0 } else { 1.0 };
                sign * (i as f64 * 0.7 + 0.1) * (e as f64).exp2()
            })
            .collect()
    }

    #[test]
    fn reproducible_operator_is_lane_invariant() {
        fn check<A: Accumulator>(name: &str, make: impl Fn() -> A, values: &[f64]) {
            let mut scalar = make();
            scalar.add_slice(values);
            let reference = scalar.finalize().to_bits();
            for lanes in [1usize, 2, 4, 5, 8, 16] {
                let acc = accumulate_lanes(&make, values, lanes);
                assert_eq!(
                    acc.finalize().to_bits(),
                    reference,
                    "{name} diverged at n={} lanes={lanes}",
                    values.len()
                );
            }
        }
        for n in [0usize, 1, 3, 4, 7, 8, 9, 31, 1000, 4096, 4099] {
            let values = data(n);
            check("BinnedSum", || BinnedSum::new(3), &values);
            check("Superaccumulator", Superaccumulator::new, &values);
            // Spans of ~500 binades with ±0 and subnormals: blocks the
            // cascade refuses.
            let wide: Vec<f64> = values
                .iter()
                .enumerate()
                .map(|(i, &x)| match i % 9 {
                    0 => -0.0,
                    1 => f64::from_bits(i as u64),
                    _ => x * 2f64.powi((i % 7) as i32 * 80 - 240),
                })
                .collect();
            check("Superaccumulator", Superaccumulator::new, &wide);
        }
    }

    #[test]
    fn lane_layout_is_deterministic_per_width() {
        // Non-reproducible operators may differ from scalar, but the same
        // width must always give the same bits.
        let values = data(10_001);
        for lanes in [4usize, 8] {
            let a = accumulate_lanes(StandardSum::new, &values, lanes).finalize();
            let b = accumulate_lanes(StandardSum::new, &values, lanes).finalize();
            assert_eq!(a.to_bits(), b.to_bits());
            let k1 = accumulate_lanes(KahanSum::new, &values, lanes).finalize();
            let k2 = accumulate_lanes(KahanSum::new, &values, lanes).finalize();
            assert_eq!(k1.to_bits(), k2.to_bits());
        }
    }

    #[test]
    fn lane_chunks_match_plan_boundaries() {
        // Boundary formula pinned against the runtime plan's documented
        // shape: chunk_len = ceil(len / min(count, len)), last chunk short.
        for (n, lanes) in [
            (0usize, 4usize),
            (1, 4),
            (3, 4),
            (10, 4),
            (10, 8),
            (97, 8),
            (4096, 8),
            (4099, 16),
        ] {
            let values = data(n);
            let count = lanes.max(1).min(n.max(1));
            let chunk_len = n.div_ceil(count).max(1);
            let got: Vec<usize> = lane_chunks(&values, lanes).map(|c| c.len()).collect();
            let mut expect = Vec::new();
            let mut start = 0;
            while start < n {
                let end = (start + chunk_len).min(n);
                expect.push(end - start);
                start = end;
            }
            assert_eq!(got, expect, "n={n} lanes={lanes}");
            assert_eq!(got.iter().sum::<usize>(), n);
        }
    }

    #[test]
    fn merge_order_is_the_stride_doubling_tree() {
        // StandardSum is order-sensitive, so it distinguishes fold shapes:
        // for five lanes the tree must be ((0+1)+(2+3))+4, not a left fold.
        let parts = [1e16f64, 1.0, -1e16, 1.0, 1.0];
        let lanes: Vec<StandardSum> = parts
            .iter()
            .map(|&v| {
                let mut a = StandardSum::new();
                a.add(v);
                a
            })
            .collect();
        let merged = merge_in_lane_order(lanes).unwrap().finalize();
        let expect = ((parts[0] + parts[1]) + (parts[2] + parts[3])) + parts[4];
        let left_fold = (((parts[0] + parts[1]) + parts[2]) + parts[3]) + parts[4];
        assert_eq!(merged.to_bits(), expect.to_bits());
        assert_ne!(expect.to_bits(), left_fold.to_bits(), "shapes must differ");
        assert!(merge_in_lane_order(Vec::<StandardSum>::new()).is_none());

        // Merging strings shows the topology, and the callback sees each
        // node as (i, stride) in stride-doubling rounds.
        let mut seen = Vec::new();
        let shape = merge_tree((0..5).map(|i| i.to_string()).collect(), |i, s, a, b| {
            seen.push((i, s));
            *a = format!("({a} {b})");
        });
        assert_eq!(shape.as_deref(), Some("(((0 1) (2 3)) 4)"));
        assert_eq!(seen, vec![(0, 1), (2, 1), (0, 2), (0, 4)]);
    }

    #[test]
    fn lanes_cover_every_element() {
        // Integer-valued data: every layout sums exactly.
        let values: Vec<f64> = (1..=97).map(|i| i as f64).collect();
        for lanes in [1usize, 2, 4, 8, 13] {
            let acc = accumulate_lanes(StandardSum::new, &values, lanes);
            assert_eq!(acc.finalize(), 97.0 * 98.0 / 2.0);
        }
    }
}

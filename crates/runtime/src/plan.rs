//! Up-front reduction plans: fixed chunk boundaries and a fixed merge tree.
//!
//! The paper's premise is that at scale nobody can *fix the schedule* — but
//! a runtime can still fix the **plan**: which element ranges form chunks,
//! and in which topology partials merge. With the plan pinned, the engine
//! can merge partials either in deterministic plan order (same bits on 1 or
//! 1000 workers, for *any* operator) or in true arrival order (the paper's
//! nondeterminism knob, which only reproducible operators absorb).

use std::ops::Range;

/// Default chunk length: big enough to amortize task dispatch, small enough
/// to load-balance and stay cache-friendly.
pub const DEFAULT_CHUNK_LEN: usize = 64 * 1024;

/// How the root combines chunk partials.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeOrder {
    /// Merge along the plan's fixed binary tree, in chunk-index order —
    /// deterministic regardless of worker count or scheduling.
    Plan,
    /// Merge partials in genuine completion order (depends on OS
    /// scheduling): two runs legitimately merge differently. Reproducible
    /// operators must return identical bits anyway.
    Arrival,
}

/// A fixed decomposition of `0..len` into contiguous chunks, plus the
/// balanced binary merge tree over the chunk indices
/// ([`repro_sum::lanes::merge_tree`]).
///
/// Chunk boundaries depend only on `len` (and the requested chunk length),
/// **never** on the worker count — that is what makes
/// [`MergeOrder::Plan`] worker-count-invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReductionPlan {
    len: usize,
    chunk_len: usize,
    chunks: Vec<Range<usize>>,
}

impl ReductionPlan {
    /// Plan over `len` elements with the default chunk length.
    pub fn for_len(len: usize) -> Self {
        Self::with_chunk_len(len, DEFAULT_CHUNK_LEN)
    }

    /// Plan over `len` elements with an explicit chunk length (`>= 1`).
    pub fn with_chunk_len(len: usize, chunk_len: usize) -> Self {
        let chunk_len = chunk_len.max(1);
        let mut chunks = Vec::with_capacity(len.div_ceil(chunk_len).max(1));
        let mut start = 0;
        while start < len {
            let end = (start + chunk_len).min(len);
            chunks.push(start..end);
            start = end;
        }
        if chunks.is_empty() {
            chunks.push(0..0); // one empty chunk keeps the merge tree rooted
        }
        ReductionPlan {
            len,
            chunk_len,
            chunks,
        }
    }

    /// Plan over `len` elements split into at most `count` near-equal
    /// chunks of [`repro_sum::lanes::chunk_len`] elements: 10 elements at
    /// count 8 give 5 chunks of 2.
    pub fn with_chunk_count(len: usize, count: usize) -> Self {
        Self::with_chunk_len(len, repro_sum::lanes::chunk_len(len, count))
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the plan covers no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Chunk length used to cut the plan.
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// The fixed chunk boundaries, in index order.
    pub fn chunks(&self) -> &[Range<usize>] {
        &self.chunks
    }

    /// Number of chunks (and leaves of the merge tree).
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Depth of the fixed balanced binary merge tree.
    pub fn merge_depth(&self) -> usize {
        let n = self.chunks.len();
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }

    /// The element interval covered by the merge-tree node `(i, stride)`
    /// of [`repro_sum::lanes::merge_tree`]: the union of chunks
    /// `i..min(i + 2*stride, num_chunks)`. With `stride == 0`, the leaf —
    /// chunk `i` alone.
    ///
    /// Together with [`ReductionPlan::node_id`] this is the contract the
    /// forensics tooling aligns on: node ids and their intervals depend
    /// only on the plan (`len`, `chunk_len`), never on the worker count or
    /// the schedule.
    pub fn node_span(&self, i: usize, stride: usize) -> Range<usize> {
        let last = if stride == 0 {
            i
        } else {
            (i + 2 * stride - 1).min(self.chunks.len() - 1)
        };
        self.chunks[i].start..self.chunks[last].end
    }

    /// The plan-derived node id: `c{i}` for leaf chunks, `m{i}.{stride}`
    /// for the merge node that folds the subtree rooted at chunk
    /// `i + stride` into the one rooted at chunk `i`.
    pub fn node_id(&self, i: usize, stride: usize) -> String {
        if stride == 0 {
            format!("c{i}")
        } else {
            format!("m{i}.{stride}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_tile_the_range_exactly() {
        for len in [0usize, 1, 7, 64, 65, 1000, 65_536, 65_537] {
            let plan = ReductionPlan::with_chunk_len(len, 64);
            let mut covered = 0;
            for (i, c) in plan.chunks().iter().enumerate() {
                assert_eq!(c.start, covered, "len {len} chunk {i}");
                assert!(c.end > c.start || len == 0);
                covered = c.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn boundaries_do_not_depend_on_worker_count() {
        // Same len, same chunk_len => identical plan. (The engine never
        // feeds worker count into the plan; this pins the invariant.)
        let a = ReductionPlan::for_len(1_000_000);
        let b = ReductionPlan::for_len(1_000_000);
        assert_eq!(a, b);
    }

    #[test]
    fn chunk_count_mode_matches_old_executor_decomposition() {
        let plan = ReductionPlan::with_chunk_count(10_000, 8);
        assert_eq!(plan.num_chunks(), 8);
        assert_eq!(plan.chunks()[0], 0..1250);
        let clamped = ReductionPlan::with_chunk_count(3, 8);
        assert_eq!(clamped.num_chunks(), 3);
        // At most `count`: runs of ceil(10 / 8) = 2 cut 10 values into 5.
        assert_eq!(ReductionPlan::with_chunk_count(10, 8).num_chunks(), 5);
    }

    #[test]
    fn merge_depth_is_log2_ceil() {
        assert_eq!(ReductionPlan::with_chunk_len(1, 1).merge_depth(), 0);
        assert_eq!(ReductionPlan::with_chunk_len(2, 1).merge_depth(), 1);
        assert_eq!(ReductionPlan::with_chunk_len(5, 1).merge_depth(), 3);
        assert_eq!(ReductionPlan::with_chunk_len(8, 1).merge_depth(), 3);
    }

    #[test]
    fn node_spans_cover_the_merged_subtrees() {
        let plan = ReductionPlan::with_chunk_len(50, 10); // 5 chunks of 10
        assert_eq!(plan.node_span(0, 0), 0..10); // leaf c0
        assert_eq!(plan.node_span(4, 0), 40..50); // leaf c4
        assert_eq!(plan.node_span(0, 1), 0..20); // m0.1 = c0+c1
        assert_eq!(plan.node_span(2, 1), 20..40); // m2.1 = c2+c3
        assert_eq!(plan.node_span(0, 2), 0..40); // m0.2
        assert_eq!(plan.node_span(0, 4), 0..50); // root m0.4, clamped
        assert_eq!(plan.node_id(3, 0), "c3");
        assert_eq!(plan.node_id(0, 4), "m0.4");
    }

    #[test]
    fn empty_plan_has_one_empty_chunk() {
        let plan = ReductionPlan::for_len(0);
        assert_eq!(plan.num_chunks(), 1);
        assert_eq!(plan.chunks()[0], 0..0);
        assert!(plan.is_empty());
    }
}

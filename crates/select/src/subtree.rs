//! Subtree-adaptive reduction — the paper's closing recommendation, built:
//! "tools that, at exascale, profile parameters of interest (e.g., n, k, dr,
//! and tree shape) at runtime and apply cheaper but acceptably accurate
//! reduction algorithms to **subtrees** based on the profile."
//!
//! The reduction is split into subtrees (chunks). Each chunk is profiled
//! *individually* and reduced with the cheapest operator meeting its share
//! of the error budget; the chunk results are then combined **exactly** in a
//! superaccumulator, so the top of the tree adds no variability of its own.
//! Datasets whose conditioning is concentrated (a few hostile regions inside
//! mostly benign data — precisely the N-body picture) therefore pay the
//! expensive operators only where the data demands them.

use crate::selector::{Selector, Tolerance};
use crate::{profile, DataProfile};
use repro_fp::Superaccumulator;
use repro_sum::{Accumulator, Algorithm};

/// Per-chunk record of what the adaptive reduction did.
#[derive(Clone, Debug)]
pub struct ChunkReport {
    /// Index of the chunk.
    pub index: usize,
    /// The chunk's profile.
    pub profile: DataProfile,
    /// The operator chosen for it.
    pub algorithm: Algorithm,
}

/// The result of a subtree-adaptive reduction.
#[derive(Clone, Debug)]
pub struct SubtreeOutcome {
    /// The reduction result (chunk partials combined exactly).
    pub sum: f64,
    /// Per-chunk choices.
    pub chunks: Vec<ChunkReport>,
}

impl SubtreeOutcome {
    /// Histogram of chosen algorithms: `(algorithm, chunk count)`.
    pub fn choice_histogram(&self) -> Vec<(Algorithm, usize)> {
        let mut hist: Vec<(Algorithm, usize)> = Vec::new();
        for c in &self.chunks {
            match hist.iter_mut().find(|(a, _)| *a == c.algorithm) {
                Some((_, n)) => *n += 1,
                None => hist.push((c.algorithm, 1)),
            }
        }
        hist.sort_by_key(|(a, _)| a.cost_rank());
        hist
    }
}

/// Profile-per-subtree adaptive reducer.
///
/// ```
/// use repro_select::{HeuristicSelector, SubtreeAdaptive, Tolerance};
///
/// let values: Vec<f64> = (0..4096).map(|i| 1.0 + (i % 7) as f64).collect();
/// let reducer = SubtreeAdaptive::new(
///     HeuristicSelector::default(),
///     Tolerance::AbsoluteSpread(1e-6),
///     512,
/// );
/// let outcome = reducer.reduce(&values);
/// assert_eq!(outcome.chunks.len(), 8);
/// ```
pub struct SubtreeAdaptive<S: Selector> {
    selector: S,
    tolerance: Tolerance,
    chunk_size: usize,
}

impl<S: Selector> SubtreeAdaptive<S> {
    /// New adaptive reducer: subtrees of `chunk_size` values, global
    /// `tolerance`, split linearly among the subtrees.
    pub fn new(selector: S, tolerance: Tolerance, chunk_size: usize) -> Self {
        assert!(chunk_size >= 1);
        Self {
            selector,
            tolerance,
            chunk_size,
        }
    }

    /// The tolerance each individual chunk must meet: each of `c` chunks
    /// gets `t / c`. Chunk spreads add linearly in the worst case, so the
    /// global bound is unconditional.
    fn chunk_tolerance(&self, num_chunks: usize) -> Tolerance {
        let c = num_chunks.max(1) as f64;
        match self.tolerance {
            Tolerance::Bitwise => Tolerance::Bitwise,
            Tolerance::AbsoluteSpread(t) => Tolerance::AbsoluteSpread(t / c),
            // Relative tolerances cannot be divided safely per chunk (the
            // chunk sums' magnitudes are unknown a priori); translate to the
            // chunk's own relative budget, split the same way — the exact
            // top-level combine keeps the composition sound for the common
            // case where chunk magnitudes are comparable to the total.
            Tolerance::RelativeSpread(r) => Tolerance::RelativeSpread(r / c),
        }
    }

    /// Reduce `values`, choosing an operator per subtree.
    pub fn reduce(&self, values: &[f64]) -> SubtreeOutcome {
        let num_chunks = values.len().div_ceil(self.chunk_size).max(1);
        let chunk_tol = self.chunk_tolerance(num_chunks);
        let mut top = Superaccumulator::new();
        let mut chunks = Vec::with_capacity(num_chunks);
        for (index, chunk) in values.chunks(self.chunk_size.max(1)).enumerate() {
            let p = profile(chunk);
            let algorithm = self.selector.choose(&p, chunk_tol);
            let mut acc = algorithm.new_accumulator();
            acc.add_slice(chunk);
            top.add(acc.finalize());
            chunks.push(ChunkReport {
                index,
                profile: p,
                algorithm,
            });
        }
        SubtreeOutcome {
            sum: top.to_f64(),
            chunks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::HeuristicSelector;

    /// Mixed workload: mostly benign chunks with a few hostile regions.
    fn mixed_workload() -> Vec<f64> {
        let mut values = Vec::new();
        for block in 0..16 {
            if block % 8 == 3 {
                // Hostile region: zero-sum, wide dynamic range.
                values.extend(repro_gen::zero_sum_with_range(1024, 24, block as u64));
            } else {
                // Benign region: all positive, narrow.
                values.extend((0..1024).map(|i| 1.0 + ((block * 1024 + i) % 97) as f64 * 1e-2));
            }
        }
        values
    }

    #[test]
    fn hostile_chunks_get_stronger_operators() {
        let values = mixed_workload();
        let reducer = SubtreeAdaptive::new(
            HeuristicSelector::default(),
            Tolerance::AbsoluteSpread(1e-10),
            1024,
        );
        let outcome = reducer.reduce(&values);
        assert_eq!(outcome.chunks.len(), 16);
        let hist = outcome.choice_histogram();
        assert!(hist.len() >= 2, "expected mixed choices, got {hist:?}");
        // The hostile chunks (3 and 11) must not use the cheapest operator.
        for idx in [3usize, 11] {
            let c = &outcome.chunks[idx];
            assert!(
                c.algorithm.cost_rank() > Algorithm::Standard.cost_rank(),
                "hostile chunk {idx} got {}",
                c.algorithm
            );
        }
    }

    #[test]
    fn result_is_accurate_to_the_budget() {
        let values = mixed_workload();
        let tol = 1e-10;
        let reducer = SubtreeAdaptive::new(
            HeuristicSelector::default(),
            Tolerance::AbsoluteSpread(tol),
            1024,
        );
        let outcome = reducer.reduce(&values);
        let err = repro_fp::abs_error(outcome.sum, &values);
        assert!(err <= tol, "error {err:e} exceeds budget {tol:e}");
    }

    #[test]
    fn bitwise_tolerance_makes_every_chunk_reproducible() {
        let values = mixed_workload();
        let reducer = SubtreeAdaptive::new(HeuristicSelector::default(), Tolerance::Bitwise, 512);
        let outcome = reducer.reduce(&values);
        assert!(outcome.chunks.iter().all(|c| c.algorithm.is_reproducible()));
        // And repeated runs give the same bits.
        let again = reducer.reduce(&values);
        assert_eq!(outcome.sum.to_bits(), again.sum.to_bits());
    }

    #[test]
    fn cheaper_than_global_selection_on_mixed_data() {
        // Global profiling sees the hostile regions and escalates everything;
        // subtree profiling pays only where needed.
        let values = mixed_workload();
        let tolerance = Tolerance::AbsoluteSpread(1e-10);
        let global = crate::AdaptiveReducer::heuristic(tolerance);
        let (global_alg, _) = global.choose(&values);
        let subtree = SubtreeAdaptive::new(HeuristicSelector::default(), tolerance, 1024);
        let outcome = subtree.reduce(&values);
        let cheapest_used = outcome
            .chunks
            .iter()
            .map(|c| c.algorithm.cost_rank())
            .min()
            .unwrap();
        assert!(
            cheapest_used < global_alg.cost_rank(),
            "subtree adaptivity should save on benign chunks: global {global_alg}, \
             cheapest chunk rank {cheapest_used}"
        );
    }

    #[test]
    fn budget_splits() {
        let r = SubtreeAdaptive::new(
            HeuristicSelector::default(),
            Tolerance::AbsoluteSpread(1.0),
            10,
        );
        assert_eq!(r.chunk_tolerance(4), Tolerance::AbsoluteSpread(0.25));
    }

    #[test]
    fn degenerate_inputs() {
        let reducer = SubtreeAdaptive::new(
            HeuristicSelector::default(),
            Tolerance::AbsoluteSpread(1e-12),
            128,
        );
        let empty = reducer.reduce(&[]);
        assert_eq!(empty.sum, 0.0);
        assert!(empty.chunks.is_empty());
        let single = reducer.reduce(&[42.0]);
        assert_eq!(single.sum, 42.0);
        assert_eq!(single.chunks.len(), 1);
    }
}

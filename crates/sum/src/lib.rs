//! # `repro-sum` — summation algorithms as mergeable reduction operators
//!
//! The four algorithms the paper evaluates, plus two classical extensions,
//! all built from scratch on the error-free transforms of `repro-fp`:
//!
//! | Paper name | Type | Guarantee |
//! |------------|------|-----------|
//! | ST — standard iterative | [`StandardSum`] | none (worst-case `n·u·Σ\|xᵢ\|`) |
//! | K — Kahan compensated | [`KahanSum`] | error ~`2u·Σ\|xᵢ\|`, order-sensitive |
//! | CP — composite precision | [`CompositeSum`] | ~106-bit accumulation, error term propagated and applied once at the end |
//! | PR — prerounded / binned | [`BinnedSum`] | **bitwise reproducible** under any summation order and any merge tree, accuracy set by `fold` |
//! | (ext.) Neumaier | [`NeumaierSum`] | Kahan variant robust to `\|x\| > \|s\|` |
//! | (ext.) pairwise | [`PairwiseSum`] | error ~`u·log n·Σ\|xᵢ\|` |
//! | (ext.) two-pass prerounding | [`prerounded::PreroundedSum`] | bitwise reproducible given a pre-agreed `(max, n)` plan |
//! | (ext.) double-double | [`DoubleDoubleSum`] | renormalized ~106-bit accumulation (He & Ding) |
//! | (ext.) DS — exact | [`repro_fp::Superaccumulator`] | **exact**, correctly rounded once, hence bitwise reproducible; the selector's reproducible rung |
//! | (ext.) distillation | [`DistillSum`] | **exact** (expansion-backed); an oracle independent of the superaccumulator, not an [`Algorithm`] |
//! | (ext.) interval | [`IntervalSum`] | guaranteed enclosure of the exact sum (paper §III-B), width ~`n·u·Σ\|x\|` |
//!
//! # The mergeable-accumulator abstraction
//!
//! Every algorithm implements [`Accumulator`]: `add` a value, `merge` a
//! sibling accumulator, `finalize` to an `f64`. A reduction tree — or an MPI
//! custom reduction operator, which is the same thing — evaluates by giving
//! each leaf an accumulator and merging along internal edges. This single
//! trait is what the tree simulator (`repro-tree`), the message-passing
//! simulator (`repro-mpisim`), and the runtime selector (`repro-select`)
//! all build on.
//!
//! ```
//! use repro_sum::{Accumulator, Algorithm};
//!
//! let values = [1e16, 3.7, -1e16, 0.3];
//! // Sequential reduction under each of the paper's four algorithms:
//! for alg in Algorithm::PAPER_SET {
//!     let mut acc = alg.new_accumulator();
//!     for &v in &values {
//!         acc.add(v);
//!     }
//!     println!("{:>2}: {}", alg.abbrev(), acc.finalize());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accsum;
pub mod binned;
pub mod composite;
pub mod ddsum;
pub mod distill;
pub mod dot;
pub mod exact;
pub mod intervalsum;
pub mod kahan;
pub mod lanes;
pub mod pairwise;
pub mod prerounded;
pub mod simd;
pub mod standard;

mod algorithm;

pub use accsum::{accsum, sorted_sum};
pub use algorithm::{AlgoAccumulator, Algorithm};
pub use binned::BinnedSum;
pub use composite::CompositeSum;
pub use ddsum::DoubleDoubleSum;
pub use distill::DistillSum;
pub use dot::{dot2, dot_exact, dot_reproducible, dot_standard};
pub use intervalsum::IntervalSum;
pub use kahan::{KahanSum, NeumaierSum};
pub use pairwise::PairwiseSum;
pub use simd::{accumulate_lanes_exact, exact_sum_lanes};
pub use standard::StandardSum;

/// A mergeable summation state: the shape of an MPI custom reduction
/// operator, and the single abstraction every reduction in this workspace is
/// built on.
///
/// Laws (exactness depends on the implementation):
/// * `finalize` is non-destructive: accumulators are value-like.
/// * `merge` must be usable in place of any sequence of `add`s of the other
///   side's inputs — accuracy may differ per algorithm, but for
///   reproducible accumulators ([`BinnedSum`]) the result must be
///   **bit-identical** for every add/merge schedule.
pub trait Accumulator: Clone + Send {
    /// Fold one value into the state.
    fn add(&mut self, x: f64);

    /// Fold a sibling accumulator (partial reduction) into the state.
    fn merge(&mut self, other: &Self);

    /// Read out the final `f64` result.
    fn finalize(&self) -> f64;

    /// Fold a slice of values (convenience; hot loops may override).
    fn add_slice(&mut self, values: &[f64]) {
        for &v in values {
            self.add(v);
        }
    }
}

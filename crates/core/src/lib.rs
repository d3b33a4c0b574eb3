//! # `repro-core` — the whole toolkit behind one import
//!
//! A from-scratch Rust reproduction of Chapp, Johnston & Taufer,
//! *"On the Need for Reproducible Numerical Accuracy through Intelligent
//! Runtime Selection of Reduction Algorithms at the Extreme Scale"*
//! (IEEE CLUSTER 2015) — the experimental apparatus **and** the
//! runtime-selection system the paper advocates.
//!
//! The sub-crates, re-exported here as modules:
//!
//! | module | contents |
//! |--------|----------|
//! | [`fp`] | error-free transforms, double-double, exact superaccumulator, error bounds |
//! | [`hp`] | arbitrary-precision `BigFloat` (independent reference oracle) |
//! | [`sum`] | ST / Kahan / Neumaier / pairwise / CP / PR as mergeable reduction operators |
//! | [`stats`] | boxplots, grids, histograms, tables |
//! | [`gen`] | `(n, k, dr)`-targeted workload generators |
//! | [`tree`] | reduction-tree shapes, permutations, evaluators, error attribution |
//! | [`cancel`] | CESTAC stochastic arithmetic, cancellation tracking |
//! | [`mpisim`] | message-passing runtime with reduction collectives |
//! | [`obs`] | deterministic observability: logical-clock events, metrics, JSONL traces |
//! | [`select`] | profiling + intelligent runtime algorithm selection |
//! | [`md`] | miniature N-body simulation over selectable reductions (trajectory-divergence demos) |
//! | [`solver`] | conjugate gradients over selectable inner products (solver-trajectory demos) |
//! | [`agg`] | sharded reproducible aggregation engine: concurrent named aggregates, versioned wire format, bitwise-invariant finalize |
//!
//! # Quickstart
//!
//! ```
//! use repro_core::prelude::*;
//!
//! // Ill-conditioned data: exact sum 0, 32 decades of dynamic range.
//! let values = repro_core::gen::zero_sum_with_range(10_000, 32, 42);
//!
//! // Different reduction orders give ST different answers ...
//! let a = tree::reduce(&values, TreeShape::Balanced, Algorithm::Standard);
//! let b = tree::reduce(&values, TreeShape::Serial, Algorithm::Standard);
//! assert_ne!(a.to_bits(), b.to_bits());
//!
//! // ... while PR is bitwise identical on every tree:
//! let p = tree::reduce(&values, TreeShape::Balanced, Algorithm::PR);
//! let q = tree::reduce(&values, TreeShape::Serial, Algorithm::PR);
//! assert_eq!(p.to_bits(), q.to_bits());
//!
//! // Or let the selector pick the cheapest acceptable operator:
//! let reducer = AdaptiveReducer::heuristic(Tolerance::AbsoluteSpread(1e-13));
//! let outcome = reducer.reduce(&values);
//! assert!(outcome.algorithm.cost_rank() > Algorithm::Standard.cost_rank());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use repro_agg as agg;
pub use repro_cancel as cancel;
pub use repro_fp as fp;
pub use repro_gen as gen;
pub use repro_hp as hp;
pub use repro_md as md;
pub use repro_mpisim as mpisim;
pub use repro_obs as obs;
pub use repro_runtime as runtime;
pub use repro_select as select;
pub use repro_solver as solver;
pub use repro_stats as stats;
pub use repro_sum as sum;
pub use repro_tree as tree;

/// The common imports for application code.
pub mod prelude {
    pub use repro_fp::{abs_error, condition_number, dynamic_range, exact_sum, Superaccumulator};
    pub use repro_runtime::{MergeOrder, ReductionPlan, Runtime, RuntimeStats};
    pub use repro_select::{AdaptiveReducer, Selector, Tolerance};
    pub use repro_sum::{Accumulator, Algorithm, BinnedSum, CompositeSum, KahanSum, StandardSum};
    pub use repro_tree as tree;
    pub use repro_tree::TreeShape;
}

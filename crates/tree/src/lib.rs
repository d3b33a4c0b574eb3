//! # `repro-tree` — reduction trees over mergeable accumulators
//!
//! The paper models a concurrent sum as a *reduction tree*: "a full binary
//! tree whose N leaf nodes correspond to floating-point operands and whose
//! internal nodes correspond to the partial reductions". Trees vary in
//! **shape** (balanced … serial) and in the **assignment of operands to
//! leaves**; both vary nondeterministically at scale, and both change the
//! computed sum for non-reproducible operators.
//!
//! This crate provides:
//!
//! * [`TreeShape`] — the shape family: the paper's two extremes
//!   (completely balanced, completely unbalanced/serial) plus random,
//!   binomial, and skewed shapes for the ablation benches;
//! * [`mod@reduce`] — evaluate any shape over any [`repro_sum::Accumulator`];
//! * [`permute`] — seeded leaf-assignment permutations (the paper's "100
//!   distinct reduction trees with the same shape but randomly permuted
//!   assignments of the values to leaves");
//! * [`tree`] — explicit [`tree::ReductionTree`] structures with ASCII
//!   rendering and **exact per-node error attribution** (which internal
//!   nodes destroyed the bits);
//! * [`topology`] — hierarchical machine models and topology-aware
//!   reduction trees (the paper's §II-B motivation: performant trees follow
//!   the machine, and the machine fluctuates).
//!
//! Threaded reductions, chunked and merged in plan or genuine arrival
//! order, are `repro_runtime::Runtime`'s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod permute;
pub mod reduce;
pub mod shape;
pub mod topology;
pub mod tree;

pub use permute::{apply_permutation, random_permutation};
pub use reduce::{reduce, reduce_with};
pub use shape::TreeShape;
pub use topology::{topology_aware_tree, HealedTree, Machine};
pub use tree::ReductionTree;

//! # repro-runtime
//!
//! Persistent parallel reduction runtime with deterministic scheduling.
//!
//! The paper's extreme-scale observation is that the *schedule* of a
//! parallel reduction cannot be pinned down — cores finish when they
//! finish. What a runtime **can** pin down is the *plan*: chunk boundaries
//! and the merge topology. This crate provides:
//!
//! - [`ReductionPlan`] / [`MergeOrder`] — up-front chunk boundaries and a
//!   fixed balanced merge tree, so partials merge either in deterministic
//!   plan order (bitwise worker-count-invariant for *any* operator) or in
//!   genuine arrival order (the nondeterminism knob the paper's
//!   reproducible operators must absorb);
//! - [`Runtime`] — the engine: chunks run on a persistent work-stealing
//!   pool, and every call reports [`RuntimeStats`] counters (tasks,
//!   steals, merge depth, per-stage wall time). [`Runtime::accumulate`] is
//!   the planned reduction and [`Runtime::reduce`] its finalized result;
//!   [`Runtime::reduce_telemetry`] narrates the same plan-order walk into
//!   a trace, [`Runtime::accumulate_resumable`] retries failed chunks from
//!   checkpoints, and [`Runtime::map_chunks`] runs any per-chunk pass;
//! - [`spawn_reduce`] — the old spawn-per-call reference path, kept as the
//!   benchmark baseline and the semantic reference the pool is tested
//!   against.
//!
//! ```
//! use repro_runtime::{MergeOrder, ReductionPlan, Runtime};
//! use repro_sum::BinnedSum;
//!
//! let values: Vec<f64> = (0..100_000).map(|i| (i as f64).sin()).collect();
//! let rt = Runtime::new(4);
//! let plan = ReductionPlan::for_len(values.len());
//! let a = rt.reduce(&values, &plan, || BinnedSum::new(3), MergeOrder::Arrival);
//! let b = rt.reduce(&values, &plan, || BinnedSum::new(3), MergeOrder::Arrival);
//! assert_eq!(a.to_bits(), b.to_bits()); // reproducible under racing merges
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod engine;
mod plan;
mod pool;
mod stats;

pub use engine::{
    parse_workers, spawn_reduce, CheckpointStore, ChunkFailureInjector, EngineError, Runtime,
    MAX_CHUNK_ATTEMPTS, MAX_WORKERS,
};
pub use plan::{MergeOrder, ReductionPlan, DEFAULT_CHUNK_LEN};
pub use stats::RuntimeStats;

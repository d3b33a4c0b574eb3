//! # `repro-mpisim` — a miniature message-passing runtime
//!
//! The paper benchmarks its reduction operators as MPI custom operators
//! ("we globally reduce the local sums by using MPI Reduce with custom
//! reduction operators for Kahan, composite precision, and prerounded
//! summations"). This crate is the MPI stand-in: a typed message-passing
//! world where
//!
//! * every **rank** is a thread ([`World::run`]),
//! * point-to-point [`Comm::send`]/[`Comm::recv`] carry any `Send + 'static`
//!   value (accumulators included) with tag matching and out-of-order
//!   buffering,
//! * [`collectives`] provides `barrier`, `broadcast`, `allreduce_max`, and
//!   `reduce_accumulator` over any [`repro_sum::Accumulator`] with three
//!   topologies: binomial tree, chain, and **flat arrival-order** — the
//!   last merging partials in genuine run-time arrival order, which is the
//!   nondeterminism the paper says exascale cannot avoid,
//! * [`collectives::ReduceConfig::jitter_us`] injects per-rank random delays
//!   to scramble arrival order on demand,
//! * [`fault`] makes failure a first-class input: a seeded [`FaultPlan`]
//!   kills ranks and drops/delays/duplicates/reorders envelopes,
//!   [`World::run_report`] reaps dead ranks into a structured
//!   [`WorldReport`], and the `ft_*` collectives **self-heal** — they
//!   re-plan the reduction tree over the sorted survivor set
//!   ([`repro_tree::HealedTree`]) so reproducible operators stay
//!   bitwise identical to a fault-free run over the same survivors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collectives;
pub mod comm;
pub mod fault;

pub use collectives::{
    adaptive_reduce_sum, allreduce_sum_acc, alltoall, ft_adaptive_reduce_sum, ft_allreduce_sum_acc,
    ft_reduce_accumulator, ft_reduce_sum, gather, reduce_sum, reduce_sum_telemetry,
    scan_accumulator, FtOutcome, ReduceConfig, ReduceTopology, ShadowedAcc, MAX_JITTER_US,
};
pub use comm::{Comm, World, WorldReport};
pub use fault::{ConfigError, FaultError, FaultPlan, FaultStats, Kill};

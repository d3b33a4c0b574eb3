//! # `repro-agg` — sharded reproducible aggregation engine
//!
//! The serving layer the ROADMAP's north star asks for: thousands of
//! concurrent clients stream `f64` batches into **named aggregates**, and
//! every finalized sum is **bitwise identical** regardless of
//!
//! * client arrival order (any interleaving of batches),
//! * shard count (1, 4, 16, … partial states per aggregate),
//! * worker count (how many threads drain the ingest stream), and
//! * snapshot/restore (kill the engine mid-run, restore from the wire
//!   format, finish the run).
//!
//! Grounded in *Reproducible Floating-Point Aggregation in RDBMSs*
//! (Müller et al.), which asks for reproducible aggregation at
//! conventional speed, and *Parallel Algorithms for Summing
//! Floating-Point Numbers* (Goodrich & Eldawy), whose order-independent
//! exact sums deliver it: every shard is an exact
//! [`repro_fp::Superaccumulator`], whose batched SIMD ingest is faster
//! than the paper's PR operator (pre-rounded bins) and exact rather than
//! merely reproducible. This crate adds the concurrent serving layer
//! around it — sharding, a versioned wire format, merges over shards,
//! and a deterministic load generator.
//!
//! ## Why the invariance holds
//!
//! A superaccumulator is an exact Kulisch register — a *true* integer
//! sum, for which commutativity and associativity are inherited from
//! integer addition. So `add`/`merge` schedules form a free commutative
//! monoid on the multiset of deposited values: **any** partition of the
//! input into shards, any per-shard arrival order, and any merge-tree
//! shape over the shards reaches the same state, hence the same finalized
//! bits. Rounding to `f64` happens exactly once, after the final merge.
//!
//! ## The moving parts
//!
//! * [`Aggregate`] — one named aggregate: `K` mutex-guarded shards,
//!   deterministic `client → shard` assignment, batched
//!   [`repro_fp::Superaccumulator::add_slice`] ingest on the SIMD hot
//!   path, stride-doubling finalize through
//!   [`repro_sum::lanes::merge_in_lane_order`], and snapshots that are
//!   consistent cuts between whole batches even during ingest
//!   ([`engine`]).
//! * [`AggEngine`] — the named-aggregate registry.
//! * `repro-agg-state-v2` — the versioned wire format ([`state`]): one
//!   canonical `sa2;` checkpoint line per shard, which writes only the
//!   digits a shard's sum spans. Serialize an engine (or one aggregate),
//!   ship it, [`AggEngine::merge_serialized`] it into a peer — and the
//!   strict parser rejects anything malformed, v1 included
//!   ([`state::parse_snapshot`]).
//! * [`loadgen`] — the seeded load generator: a deterministic schedule of
//!   `(aggregate, client, batch)` events, shuffled by a seed, drained by
//!   any number of worker threads.
//!
//! ```
//! use repro_agg::{AggConfig, AggEngine};
//!
//! let engine = AggEngine::new(AggConfig::default());
//! let agg = engine.declare("demo", &[1.0, 2.5e-3, -7.0]);
//! agg.ingest(0, &[1.0, 2.0, 3.0]);
//! agg.ingest(1, &[4.0]);
//! assert_eq!(agg.finalize(), 10.0);
//!
//! // The wire format round-trips the exact shard states.
//! let restored = AggEngine::restore(&engine.serialize(), AggConfig::default()).unwrap();
//! assert_eq!(
//!     restored.get("demo").unwrap().finalize().to_bits(),
//!     agg.finalize().to_bits(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod loadgen;
pub mod state;

pub use engine::{AggConfig, AggEngine, Aggregate};
pub use loadgen::{aggregate_name, batch_values, batch_values_into, schedule, LoadEvent, LoadSpec};
pub use state::{
    document_lines, parse_aggregate, parse_snapshot, AggStateError, OperatorKind, ParsedAggregate,
    SNAPSHOT_SCHEMA, STATE_SCHEMA,
};

//! # `repro-obs` — deterministic observability for reproducible reductions
//!
//! The paper's thesis is that a runtime can afford to *observe* its own
//! reductions and act on what it sees. This crate is the other half of that
//! bargain: the runtime must also be able to *explain* what it did, and the
//! explanation must be as reproducible as the arithmetic. Everything here
//! is built around that constraint:
//!
//! * **Events** ([`Event`]) carry a subsystem name, a **logical timestamp**
//!   (a per-subsystem operation counter, not a wall clock), an event kind,
//!   and typed fields. Two runs of the same seeded workload produce
//!   byte-identical event streams; wall-clock time is an *optional* extra
//!   column ([`Trace::with_wall_clock`]) that tooling strips before
//!   comparing.
//! * **Scopes** ([`Scope`]) own one subsystem's counter. A scope is
//!   single-threaded by construction — concurrency is handled by giving
//!   each thread (pool worker, simulated rank) its own scope and
//!   concatenating buffers in a deterministic order afterwards, never by
//!   interleaving live.
//! * **Buffering**: an enabled trace records into one [`MemorySink`], and
//!   output is rendered from it afterwards with [`render_jsonl`]; a
//!   disabled trace holds no buffer, so it costs one branch per call site.
//! * **Metrics** ([`Registry`]) are counters, gauges, and fixed-bucket
//!   histograms kept in ordered maps, so a snapshot renders identically on
//!   every platform.
//! * **Validation** ([`validate_trace`]) re-parses a JSONL trace with the
//!   built-in parser ([`Json::parse`]) and checks the schema contract:
//!   every line parses, `sub`/`seq`/`kind` are present and well-typed, and
//!   logical timestamps are contiguous per subsystem — except a head gap
//!   exactly matching a declared ring-eviction drop counter (see
//!   [`flight`]), so eviction is distinguishable from corruption.
//! * **Flight recorder** ([`flight`]) keeps a bounded, always-on ring of
//!   recent events per subsystem and dumps a post-mortem (`postmortem.jsonl`
//!   with the run manifest embedded) on panics, fault-plane kills, and
//!   trace divergences.
//! * **Run manifests** ([`manifest`]) capture the complete determinism
//!   context of a run — seed, input recipe, selected algorithm, SIMD tier,
//!   workers, env, fault plan — as one JSON line that round-trips exactly,
//!   the substrate for `repro-reduce replay`.
//! * **Numerical telemetry** ([`TelemetryConfig`]) is the sampling policy
//!   for per-node accuracy instrumentation (partial-sum bits, Higham
//!   bounds, exact shadow ulps) — **off by default**, and strictly
//!   additive when on, so a run without it is byte-identical to the
//!   pre-telemetry stream.
//! * **Forensics** ([`forensics`]) aligns two traces of the same plan *by
//!   node id, not sequence position*, finds the divergent nodes, and walks
//!   the merge tree down to the leaf interval where divergence originated.
//! * **Reports** ([`report`]) render a metrics snapshot as Prometheus text
//!   exposition or a self-contained zero-dependency HTML page.
//!
//! The only dependency is the workspace's own `repro-fp` (itself
//! dependency-free; forensics needs its ulp distance), so the instrumented
//! crates pay nothing for this crate beyond what they use.
//!
//! ```
//! use repro_obs::{f, Trace};
//!
//! let (trace, sink) = Trace::to_memory();
//! let mut scope = trace.scope("runtime");
//! scope.event("chunk_exec", vec![f("chunk", 0usize), f("len", 4096usize)]);
//! scope.event("merge", vec![f("step", 0usize)]);
//!
//! let text = repro_obs::render_jsonl(&sink.drain());
//! let summary = repro_obs::validate_trace(&text).unwrap();
//! assert_eq!(summary.events, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod flight;
pub mod forensics;
pub mod json;
pub mod manifest;
mod metrics;
pub mod report;
mod sink;
mod telemetry;
mod trace;

pub use event::{f, Event, Value};
pub use flight::{FlightRecorder, RingSink};
pub use json::{validate_trace, Json, TraceSummary};
pub use manifest::{FaultSpec, RunManifest};
pub use metrics::{
    HistogramSnapshot, MetricsSnapshot, Registry, TIME_BUCKET_EDGES_US, ULP_BUCKET_EDGES,
};
pub use sink::{render_jsonl, MemorySink};
pub use telemetry::TelemetryConfig;
pub use trace::{Scope, Trace};

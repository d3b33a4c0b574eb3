//! Lightweight built-in counters for one engine call.

use std::time::Duration;

/// What one engine call (`Runtime::accumulate`, `reduce_telemetry` or
/// `accumulate_resumable`) did.
///
/// Counter semantics: `tasks_executed` and `steals` are deltas of the
/// pool's lifetime counters around this call, so when several reductions
/// run concurrently on the shared pool they are attributions, not exact
/// per-call counts (the pool is shared; the paper's whole point is that
/// nobody owns the schedule).
#[derive(Clone, Copy, Debug, Default)]
pub struct RuntimeStats {
    /// Worker threads in the pool that served the call.
    pub workers: usize,
    /// Chunks in the plan (= leaf tasks submitted).
    pub chunks: usize,
    /// Pool tasks that ran during this call.
    pub tasks_executed: u64,
    /// Tasks taken from another worker's queue during this call.
    pub steals: u64,
    /// Depth of the fixed merge tree (0 for a single chunk).
    pub merge_depth: usize,
    /// Summed wall time workers spent inside chunk kernels.
    pub chunk_time: Duration,
    /// Wall time the root spent merging partials.
    pub merge_time: Duration,
    /// End-to-end wall time of the call.
    pub total_time: Duration,
    /// Chunk tasks re-executed after a failed attempt
    /// (`Runtime::accumulate_resumable` only; 0 on the plain paths).
    pub retries: u64,
    /// Chunks that failed at least once but eventually succeeded.
    pub heals: u64,
    /// Chunks whose partial was restored from a `CheckpointStore` instead
    /// of being re-reduced.
    pub checkpoint_restores: u64,
}

impl RuntimeStats {
    /// Publish this call's counters into a metrics registry under
    /// `prefix` (e.g. `runtime`). Counts accumulate across calls; sizing
    /// facts (workers, chunks, merge depth) are gauges; wall times go to
    /// fixed-bucket latency histograms. Timing and steal counts are
    /// nondeterministic, which is exactly why they are published here and
    /// *not* into the deterministic event stream.
    pub fn publish(&self, registry: &repro_obs::Registry, prefix: &str) {
        registry.gauge_set(&format!("{prefix}.workers"), self.workers as f64);
        registry.gauge_set(&format!("{prefix}.chunks"), self.chunks as f64);
        registry.gauge_set(&format!("{prefix}.merge_depth"), self.merge_depth as f64);
        registry.counter_add(&format!("{prefix}.tasks_executed"), self.tasks_executed);
        registry.counter_add(&format!("{prefix}.steals"), self.steals);
        registry.counter_add(&format!("{prefix}.retries"), self.retries);
        registry.counter_add(&format!("{prefix}.heals"), self.heals);
        registry.counter_add(
            &format!("{prefix}.checkpoint_restores"),
            self.checkpoint_restores,
        );
        let edges = repro_obs::TIME_BUCKET_EDGES_US;
        for (name, d) in [
            ("chunk_time_us", self.chunk_time),
            ("merge_time_us", self.merge_time),
            ("total_time_us", self.total_time),
        ] {
            registry.observe(&format!("{prefix}.{name}"), edges, d.as_micros() as u64);
        }
    }
}

impl std::fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workers={} chunks={} tasks={} steals={} merge_depth={} chunk={:.3?} merge={:.3?} total={:.3?} retries={} heals={} checkpoint_restores={}",
            self.workers,
            self.chunks,
            self.tasks_executed,
            self.steals,
            self.merge_depth,
            self.chunk_time,
            self.merge_time,
            self.total_time,
            self.retries,
            self.heals,
            self.checkpoint_restores,
        )
    }
}

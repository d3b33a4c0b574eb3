//! Sampling policy for numerical-accuracy telemetry.
//!
//! Error telemetry is *additive* instrumentation: when enabled, every
//! reduction node additionally emits a `node` event carrying its partial
//! sum bits, the running Higham bound `n·u·Σ|xᵢ|` over its element
//! interval, and — at sampled nodes — the exact ulp deviation against a
//! superaccumulator shadow reduction. When disabled (the default), no
//! `node` events are emitted at all and the event stream is byte-identical
//! to an uninstrumented run, preserving the trace-replay contract.
//!
//! The config lives here (rather than in the runtime) because every
//! instrumented layer — the thread-pool engine and the simulated
//! collectives — shares the same policy vocabulary.

/// Which numerical telemetry a traced reduction emits. Off by default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Emit one `node` event per reduction-tree node (leaf chunks and
    /// internal merges) with the node's partial-sum bits and Higham bound.
    pub node_sums: bool,
    /// Measure the exact ulp deviation (against a superaccumulator shadow
    /// reduction) at every `exact_every`-th node, counted in deterministic
    /// plan order. `0` disables exact sampling; `1` samples every node.
    pub exact_every: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl TelemetryConfig {
    /// No numerical telemetry: the instrumented paths emit exactly the
    /// events they emitted before telemetry existed.
    pub fn off() -> Self {
        TelemetryConfig {
            node_sums: false,
            exact_every: 0,
        }
    }

    /// Node sums, bounds, and exact ulp deviation at **every** node — the
    /// forensics setting (roughly doubles the arithmetic: one shadow
    /// superaccumulator tree next to the real one).
    pub fn full() -> Self {
        TelemetryConfig {
            node_sums: true,
            exact_every: 1,
        }
    }

    /// Node sums and bounds everywhere, exact ulp deviation at every
    /// `every`-th node (`0` = never) — the production setting: bound
    /// tracking is O(1) per node, the superaccumulator shadow is paid only
    /// at the sampled nodes.
    pub fn sampled(every: u64) -> Self {
        TelemetryConfig {
            node_sums: true,
            exact_every: every,
        }
    }

    /// Whether any node telemetry is emitted at all.
    pub fn enabled(&self) -> bool {
        self.node_sums
    }

    /// Whether the node with this deterministic ordinal (plan-order node
    /// counter, starting at 0) gets the exact-shadow ulp measurement.
    pub fn sample_exact(&self, ordinal: u64) -> bool {
        self.node_sums && self.exact_every != 0 && ordinal % self.exact_every == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_off() {
        let c = TelemetryConfig::default();
        assert_eq!(c, TelemetryConfig::off());
        assert!(!c.enabled());
        assert!(!c.sample_exact(0));
    }

    #[test]
    fn full_samples_every_node() {
        let c = TelemetryConfig::full();
        assert!(c.enabled());
        for ordinal in 0..10 {
            assert!(c.sample_exact(ordinal));
        }
    }

    #[test]
    fn sampled_hits_every_nth_node() {
        let c = TelemetryConfig::sampled(4);
        assert!(c.enabled());
        let hits: Vec<u64> = (0..12).filter(|&o| c.sample_exact(o)).collect();
        assert_eq!(hits, vec![0, 4, 8]);
        // Sampling period 0 means bounds-only telemetry.
        let bounds_only = TelemetryConfig::sampled(0);
        assert!(bounds_only.enabled());
        assert!((0..12).all(|o| !bounds_only.sample_exact(o)));
    }
}

//! End-to-end benchmark of the adaptive reducer and the aggregation
//! engine, with per-layer traces. `README.md` beside this crate says what
//! each workload and metric is for.

pub mod agg;
pub mod check;
pub mod reduce;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use trace::{Total, Tracer};

/// Workloads the command runs. `reduce-large` and `agg-ship` are not in
/// `BENCHMARK.json`: they are too unsteady to gate on (see `README.md`).
pub const WORKLOADS: [&str; 4] = ["reduce-large", "reduce-small", "agg-ingest", "agg-ship"];

/// Fewest ops in a timed run: p90 then has at least 10 ops beyond it.
pub const MIN_OPS: usize = 100;

/// A run sets up at least [`MIN_SETUPS`] times and for at least
/// [`MIN_SETUP_S`] seconds in all; `setup_s` is the median set-up.
pub const MIN_SETUPS: usize = 3;
/// See [`MIN_SETUPS`].
pub const MIN_SETUP_S: f64 = 1.0;

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("values_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("rss_peak_mib", "MiB"),
    ("check_pass_ratio", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced run): name and unit. A layer a workload does
/// not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("select.ms_per_op", "ms"),
    ("select.share", "ratio"),
    ("select.fallback_ratio", "ratio"),
    ("select.cache_hit_ratio", "ratio"),
    ("select.chosen.ST", "count"),
    ("select.chosen.PW", "count"),
    ("select.chosen.K", "count"),
    ("select.chosen.N", "count"),
    ("select.chosen.CP", "count"),
    ("select.chosen.DD", "count"),
    ("select.chosen.PR", "count"),
    ("select.chosen.DS", "count"),
    ("sum.ns_per_value", "ns"),
    ("sum.gbytes_per_s_computed", "GB/s"),
    ("agg.ingest_ns_per_update", "ns"),
    ("agg.kernel_ns_per_update", "ns"),
    ("agg.declare_us", "us"),
    ("agg.shard_skew", "ratio"),
    ("agg.serialize_ms", "ms"),
    ("agg.restore_ms", "ms"),
    ("agg.merge_ms", "ms"),
    ("agg.digest_ms", "ms"),
    ("agg.state_bytes", "B"),
    ("agg.bytes_per_shard", "B"),
    ("obs.flight_events_per_op", "count"),
    ("obs.flight_bytes_per_op", "B"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("check.fail_ratio", "ratio"),
];

/// Per-layer metric values; every name in [`PER_LAYER`] starts at 0.
#[derive(Clone, Debug)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }
}

impl Layers {
    /// Set one metric.
    ///
    /// # Panics
    /// If `name` is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    /// One metric's value.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// One benchmark workload: its inputs, made from the seed before any
/// timing, and the fixed op mix that runs over them.
pub trait Workload {
    /// Ops in one whole pass of the request pool. Runs end on whole
    /// passes, so per-pass counts repeat exactly.
    fn pass_ops(&self) -> usize;

    /// Input values one op reduces or ingests (`agg-ship`: the updates
    /// whose state one op ships).
    fn values_per_op(&self) -> u64;

    /// Build fresh state — reducers, decision cache, engines, reference
    /// results — and run one untimed warm-up pass.
    fn setup(&mut self);

    /// Run op `i` of a pass and check its results. With a recording
    /// tracer, each call into a layer runs in a span.
    fn op(&mut self, i: usize, tracer: &mut Tracer) -> check::Checks;

    /// Probe pass, run after a traced pass: time each layer's kernel alone
    /// on the same inputs, in spans.
    fn probe(&mut self, tracer: &mut Tracer);

    /// Fill the per-layer metrics this workload measures from the traced
    /// run's span totals.
    fn layers(&self, totals: &BTreeMap<&str, Total>, layers: &mut Layers);

    /// One line per failed check of the last pass: what failed and why.
    fn failures(&self) -> Vec<String>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_obs::Json;

    /// `(name, unit)` of each entry of one list in `BENCHMARK.json`.
    fn entries(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        let field = |m: &Json, f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
        items
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_program_prints() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(entries(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(entries(&doc, "per_layer"), owned(PER_LAYER));
        for (name, _) in entries(&doc, "workloads") {
            assert!(
                WORKLOADS.contains(&name.as_str()),
                "{name} is not a workload"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn layers_reject_unknown_names() {
        Layers::default().set("select.typo", 1.0);
    }
}

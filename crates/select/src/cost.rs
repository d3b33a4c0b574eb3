//! Per-algorithm cost model.
//!
//! The selector needs to know the *price* side of the tradeoff — and that
//! price must track the machine, not a constant. The model is
//! **calibrated**: per-operator ns/element from the committed
//! `BENCH_06.json` throughput baseline (the tracked harness behind
//! `repro-reduce bench`), normalized so recursive summation costs 1.0. The
//! baseline is compiled in, so the model never reads the filesystem; when
//! it is suspect on new hardware, re-run `repro-reduce bench` and commit the
//! new file. Every model carries a source label (`BENCH_06.json@avx2`) so
//! decision records can say which numbers ranked the candidates.
//!
//! DS keeps its `sum/DS` price from `BENCH_06.json`, which was measured on
//! the expansion kernel that DS ran on then. DS now runs on the
//! superaccumulator, whose cost depends on the data's dynamic range (from
//! well under ST's per-value cost on narrow data to several times CP's on
//! wide data). The stale price is above every other rung, which keeps DS
//! last on the serving ladder: a selector reaches for the exact sum only
//! when no cheaper rung fits. Pricing DS by data shape waits for
//! throughput entries timed on wide-range data.
//!
//! Measured prices replaced flop-count ratios, and the difference was not
//! cosmetic: the baseline measures Composite at ~2.1× ST while the flop
//! ratios guessed 6× (vs Kahan's measured ~3.9×, guessed 4×), so the flop
//! table ranked CP after K and the selector systematically over-paid for
//! mid-tolerance workloads.

use repro_fp::simd::{self, SimdTier};
use repro_sum::Algorithm;
use std::sync::OnceLock;

/// The committed baseline the default model is seeded from (repo root).
pub const BASELINE_FILE: &str = "BENCH_06.json";

/// The baseline document itself, embedded at compile time so the default
/// model needs no filesystem access (and cannot drift from the commit).
const BASELINE_JSON: &str = include_str!("../../../BENCH_06.json");

/// Relative cost per algorithm (ST = 1).
#[derive(Clone, Debug)]
pub struct CostModel {
    entries: Vec<(Algorithm, f64)>,
    /// `{file}@{tier}`: the baseline file, and the SIMD dispatch tier active
    /// when the model was built.
    source: String,
}

impl Default for CostModel {
    /// The calibrated model from the committed [`BASELINE_FILE`] at the
    /// active SIMD tier, resolved once per process and cached. The baseline
    /// is compiled in, and a unit test asserts that it parses.
    fn default() -> Self {
        static DEFAULT: OnceLock<CostModel> = OnceLock::new();
        DEFAULT
            .get_or_init(|| {
                CostModel::baseline(simd::active_tier()).expect("the committed baseline parses")
            })
            .clone()
    }
}

impl CostModel {
    /// The calibrated model from the embedded committed baseline, `None`
    /// if the baseline is missing an operator or does not parse.
    pub fn baseline(tier: SimdTier) -> Option<Self> {
        Self::from_baseline_json(BASELINE_JSON, BASELINE_FILE, tier)
    }

    /// Parse a `repro-bench-throughput-v1` document into a cost model:
    /// every `sum/<op>` entry becomes a relative cost (normalized to
    /// `sum/ST`). Each operator's price is its one `sum/<op>` entry, read
    /// the same at every tier; `tier` only names the tier in the source
    /// label. Returns `None` unless all eight operators are present with
    /// positive finite timings — a half-parsed baseline must not silently
    /// rank candidates.
    pub fn from_baseline_json(json: &str, file: &str, tier: SimdTier) -> Option<Self> {
        let doc = repro_obs::Json::parse(json.trim()).ok()?;
        if doc.get("schema")?.as_str()? != "repro-bench-throughput-v1" {
            return None;
        }
        let repro_obs::Json::Arr(entries) = doc.get("entries")? else {
            return None;
        };
        let ns_of = |op: &str| -> Option<f64> {
            entries
                .iter()
                .find(|e| e.get("op").and_then(|o| o.as_str()) == Some(op))
                .and_then(|e| e.get("ns_per_elem"))
                .and_then(|v| v.as_num())
                .filter(|ns| ns.is_finite() && *ns > 0.0)
        };
        let st = ns_of("sum/ST")?;
        let mut rel = Vec::with_capacity(Algorithm::ALL.len());
        for alg in Algorithm::ALL {
            rel.push((alg, ns_of(&format!("sum/{}", alg.abbrev()))? / st));
        }
        Some(Self {
            entries: rel,
            source: format!("{file}@{tier}"),
        })
    }

    /// Where this model's numbers came from, as decision records print it
    /// (`BENCH_06.json@avx2`).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Cost of one algorithm (unknown algorithms fall back to their cost
    /// rank, preserving the ordering).
    pub fn cost(&self, alg: Algorithm) -> f64 {
        self.entries
            .iter()
            .find(|(a, _)| *a == alg)
            .map(|(_, c)| *c)
            .unwrap_or_else(|| 1.0 + alg.cost_rank() as f64 * 3.0)
    }

    /// `algorithms` ranked cheapest first; equal prices keep their order.
    /// Sorted in place on the stack: ranking the ladder allocates nothing.
    pub fn by_cost<const N: usize>(&self, mut algorithms: [Algorithm; N]) -> [Algorithm; N] {
        algorithms.sort_by(|a, b| self.cost(*a).total_cmp(&self.cost(*b)));
        algorithms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_calibrated_from_the_committed_baseline() {
        let m = CostModel::default();
        assert_eq!(
            m.source(),
            format!("{BASELINE_FILE}@{}", simd::active_tier()),
            "default should come from the committed baseline"
        );
        // Normalized to ST.
        assert_eq!(m.cost(Algorithm::Standard), 1.0);
        // The measured post-PR-6 ordering: CP's fused kernel undercuts
        // Kahan (this is the stale-constant fix — the flop ratios had K
        // cheaper than CP).
        let ordered = m.by_cost(Algorithm::PAPER_SET);
        let labels: Vec<&str> = ordered.iter().map(|a| a.abbrev()).collect();
        assert_eq!(labels, ["ST", "CP", "K", "PR"]);
        assert!(m.cost(Algorithm::Composite) < m.cost(Algorithm::Kahan));
    }

    #[test]
    fn baseline_labels_its_tier_and_prices_every_tier_alike() {
        // The label names the tier the model was resolved for.
        for &tier in &[SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2] {
            let m = CostModel::baseline(tier).expect("committed baseline parses");
            assert_eq!(m.source(), format!("{BASELINE_FILE}@{}", tier.label()));
        }
        // Relative rankings don't move with the tier: each operator's price
        // is its one `sum/<op>` entry, DS's included, read at every tier.
        let a = CostModel::baseline(SimdTier::Scalar).unwrap();
        let b = CostModel::baseline(SimdTier::Avx2).unwrap();
        for alg in Algorithm::ALL {
            assert_eq!(a.cost(alg).to_bits(), b.cost(alg).to_bits());
        }
    }

    #[test]
    fn malformed_baselines_are_rejected_not_half_used() {
        let tier = SimdTier::Scalar;
        assert!(CostModel::from_baseline_json("not json", "x", tier).is_none());
        assert!(CostModel::from_baseline_json("{\"schema\": \"other\"}", "x", tier).is_none());
        // Missing an operator: the whole model is refused.
        let partial = r#"{
          "schema": "repro-bench-throughput-v1",
          "entries": [{"op": "sum/ST", "n": 10, "ns_per_elem": 1.0, "bytes_per_sec": 1, "seed": 1, "git_rev": "x"}]
        }"#;
        assert!(CostModel::from_baseline_json(partial, "x", tier).is_none());
        // Non-positive timing: refused.
        let zeroed = BASELINE_JSON.replace("\"ns_per_elem\": 0.7496", "\"ns_per_elem\": 0.0");
        assert!(CostModel::from_baseline_json(&zeroed, "x", tier).is_none());
    }

    #[test]
    fn unknown_fold_falls_back_to_rank() {
        let m = CostModel::default();
        assert!(m.cost(Algorithm::Binned { fold: 2 }) > m.cost(Algorithm::Standard));
    }
}

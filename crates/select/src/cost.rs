//! Per-algorithm cost model.
//!
//! The selector needs to know the *price* side of the tradeoff — and that
//! price must track the machine, not a constant. The default model is
//! **calibrated**: per-operator ns/element from the committed
//! `BENCH_06.json` throughput baseline (the tracked harness behind
//! `repro-reduce bench`), normalized so recursive summation costs 1.0. The
//! old flop-count ratios survive only as the no-baseline fallback
//! ([`CostModel::static_flops`]); when the baseline is suspect on new
//! hardware, re-run `repro-reduce bench` and commit the new file. Every
//! model carries a [`CostSource`] so decision records can say which numbers
//! ranked the candidates.
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
//! The stale-constant bug this replaces was not cosmetic: the baseline
//! measures Composite at ~2.1× ST while the flop ratios guessed 6× (vs
//! Kahan's measured ~3.9×, guessed 4×), so the static table ranked CP after
//! K and the selector systematically over-paid for mid-tolerance workloads
//! after the PR 5/6 hot-path work.

use repro_fp::simd::{self, SimdTier};
use repro_sum::Algorithm;
use std::sync::OnceLock;

/// The committed baseline the default model is seeded from (repo root).
pub const BASELINE_FILE: &str = "BENCH_06.json";

/// The baseline document itself, embedded at compile time so the default
/// model needs no filesystem access (and cannot drift from the commit).
const BASELINE_JSON: &str = include_str!("../../../BENCH_06.json");

/// Where a [`CostModel`]'s numbers came from — logged with every decision
/// record so rankings are auditable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CostSource {
    /// ns/element from a committed `BENCH_*.json` baseline, normalized to
    /// ST. `tier` is the SIMD dispatch tier active when the model was
    /// built: the eight operator kernels themselves are tier-independent
    /// (none routes through the dispatched superaccumulator hot path), but
    /// the tier selects which `simd/<tier>` baseline entry prices the
    /// exact-summation machinery ([`CostModel::exact_path_ns`]).
    Baseline {
        /// Which committed baseline file.
        file: &'static str,
        /// The active dispatch tier the model was resolved for.
        tier: SimdTier,
    },
    /// Static flop-count ratios — the pre-calibration constants, kept as
    /// the fallback when no baseline parses.
    StaticFlops,
}

impl CostSource {
    /// Compact label for decision records (`BENCH_06.json@avx2`,
    /// `static-flops`).
    pub fn label(&self) -> String {
        match self {
            CostSource::Baseline { file, tier } => format!("{file}@{tier}"),
            CostSource::StaticFlops => "static-flops".into(),
        }
    }
}

/// Relative cost per algorithm (ST = 1).
#[derive(Clone, Debug)]
pub struct CostModel {
    entries: Vec<(Algorithm, f64)>,
    source: CostSource,
    /// Absolute ns/element of ST in the source, when the source measured
    /// one (converts the relative entries back to absolute costs).
    st_ns: Option<f64>,
    /// Baseline ns/element of the tier-dispatched exact superaccumulator
    /// path (`simd/<tier>`), when the source's tier was benchmarked.
    exact_ns: Option<f64>,
    /// Baseline ns/element of the full profiling pass (`select/profile`).
    profile_ns: Option<f64>,
}

impl Default for CostModel {
    /// The calibrated model from the committed [`BASELINE_FILE`] at the
    /// active SIMD tier, falling back to [`CostModel::static_flops`] if the
    /// baseline fails to parse. Resolved once per process and cached.
    fn default() -> Self {
        static DEFAULT: OnceLock<CostModel> = OnceLock::new();
        DEFAULT
            .get_or_init(|| {
                CostModel::baseline(simd::active_tier()).unwrap_or_else(CostModel::static_flops)
            })
            .clone()
    }
}

impl CostModel {
    /// Flop-count based relative costs (ST = 1): K adds 4 flops per
    /// element, CP 6, PR ~4 per live bin plus renormalization traffic.
    /// Kept only as the no-baseline fallback — measured reality disagrees
    /// (see [`CostModel::baseline`]).
    pub fn static_flops() -> Self {
        Self {
            entries: vec![
                (Algorithm::Standard, 1.0),
                (Algorithm::Pairwise, 1.3),
                (Algorithm::Kahan, 4.0),
                (Algorithm::Neumaier, 5.0),
                (Algorithm::Composite, 6.0),
                (Algorithm::DoubleDouble, 8.0),
                (Algorithm::PR, 14.0),
                (Algorithm::Distill, 25.0),
            ],
            source: CostSource::StaticFlops,
            st_ns: None,
            exact_ns: None,
            profile_ns: None,
        }
    }

    /// The calibrated model from the embedded committed baseline, `None`
    /// if the baseline is missing an operator or does not parse.
    pub fn baseline(tier: SimdTier) -> Option<Self> {
        Self::from_baseline_json(BASELINE_JSON, BASELINE_FILE, tier)
    }

    /// Parse a `repro-bench-throughput-v1` document into a cost model:
    /// every `sum/<op>` entry becomes a relative cost (normalized to
    /// `sum/ST`), `simd/<tier>` and `select/profile` ride along as the
    /// exact-path and profiling price tags. Returns `None` unless all
    /// eight operators are present with positive finite timings —
    /// a half-parsed baseline must not silently rank candidates.
    pub fn from_baseline_json(json: &str, file: &'static str, tier: SimdTier) -> Option<Self> {
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
            source: CostSource::Baseline { file, tier },
            st_ns: Some(st),
            exact_ns: ns_of(&format!("simd/{}", tier.label())),
            profile_ns: ns_of("select/profile"),
        })
    }

    /// Where this model's numbers came from.
    pub fn source(&self) -> &CostSource {
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

    /// Absolute ns/element of `alg`, when the source measured time (the
    /// baseline does; flop ratios have no clock).
    pub fn absolute_ns(&self, alg: Algorithm) -> Option<f64> {
        self.st_ns.map(|st| st * self.cost(alg))
    }

    /// ns/element of the dispatched exact superaccumulator hot path at the
    /// source's SIMD tier, when that tier appears in the baseline.
    pub fn exact_path_ns(&self) -> Option<f64> {
        self.exact_ns
    }

    /// ns/element of the full profiling pass in the baseline — what the
    /// sampled profiler (see [`crate::sample`]) is amortizing away.
    pub fn profile_pass_ns(&self) -> Option<f64> {
        self.profile_ns
    }

    /// Rank algorithms cheapest-first.
    pub fn by_cost(&self, algorithms: &[Algorithm]) -> Vec<Algorithm> {
        let mut v = algorithms.to_vec();
        v.sort_by(|a, b| self.cost(*a).total_cmp(&self.cost(*b)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_calibrated_from_the_committed_baseline() {
        let m = CostModel::default();
        assert!(
            matches!(m.source(), CostSource::Baseline { file, .. } if *file == BASELINE_FILE),
            "default should come from the committed baseline, got {:?}",
            m.source()
        );
        // Normalized to ST.
        assert_eq!(m.cost(Algorithm::Standard), 1.0);
        // The measured post-PR-6 ordering: CP's fused kernel undercuts
        // Kahan (this is the stale-constant fix — the flop ratios had K
        // cheaper than CP).
        let ordered = m.by_cost(&Algorithm::PAPER_SET);
        let labels: Vec<&str> = ordered.iter().map(|a| a.abbrev()).collect();
        assert_eq!(labels, ["ST", "CP", "K", "PR"]);
        assert!(m.cost(Algorithm::Composite) < m.cost(Algorithm::Kahan));
        // Absolute costs reconstruct the baseline's ns/elem.
        let st_abs = m.absolute_ns(Algorithm::Standard).unwrap();
        assert!((0.1..10.0).contains(&st_abs), "implausible ST ns {st_abs}");
    }

    #[test]
    fn static_fallback_preserves_paper_flop_ordering() {
        let m = CostModel::static_flops();
        assert_eq!(*m.source(), CostSource::StaticFlops);
        assert_eq!(m.source().label(), "static-flops");
        let ordered = m.by_cost(&Algorithm::PAPER_SET);
        let labels: Vec<&str> = ordered.iter().map(|a| a.abbrev()).collect();
        assert_eq!(labels, ["ST", "K", "CP", "PR"]);
        assert_eq!(m.absolute_ns(Algorithm::Standard), None);
    }

    #[test]
    fn baseline_carries_tier_price_tags() {
        // The committed baseline was measured on an AVX2 box, so every tier
        // column is present; the tier argument picks which one prices the
        // exact path.
        for &tier in &[SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2] {
            let m = CostModel::baseline(tier).expect("committed baseline parses");
            assert_eq!(
                *m.source(),
                CostSource::Baseline {
                    file: BASELINE_FILE,
                    tier
                }
            );
            assert!(m.source().label().contains(tier.label()));
            let exact = m.exact_path_ns().expect("tier column present");
            assert!(exact > 0.0);
            assert!(m.profile_pass_ns().unwrap() > exact);
        }
        // Relative rankings don't move with the tier: operator kernels are
        // tier-independent (none routes through the dispatched hot path).
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

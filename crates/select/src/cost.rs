//! Per-call prices of the reduction operators.
//!
//! The selector weighs each rung's predicted spread against its price: what
//! one call on `n` values costs a caller who has not profiled them. The
//! prices come from the committed `BENCH_26.json` throughput baseline (the
//! `repro-bench-throughput-v2` document `repro-reduce bench` writes),
//! compiled in, so the model never reads the filesystem; when it is suspect
//! on new hardware, re-run `repro-reduce bench` and commit the new file.
//! Every model carries a source label (`BENCH_26.json@avx2`) so decision
//! records can say which numbers ranked the candidates.
//!
//! ST, K and CP cost `n · c`, where `c` is the `rung/<op>` median: ns per
//! value over 4,096 in-cache values per call. The exact sum DS costs
//! `c0 + n · c(P)`:
//!
//! * `c0` is the fixed per-call term: the register's allocation, the block
//!   plan and `to_f64`;
//! * `c(P)` is the per-value term of a cascade of `P` parts
//!   ([`DataProfile::cascade_parts`]), which grows with the exponent span
//!   of the values. `P = MAX_PARTS + 1` stands for the blocks the plan
//!   refuses, which `add` sums one value at a time.
//!
//! `c0` and `c(2)` are the line through `rung/DS/call` (one call on 256
//! uniform values, which plan two parts) and `rung/DS/p2` (4,096 values);
//! `c(P)` for larger `P` keeps that `c0` and passes through `rung/DS/pP`.
//! So the model reproduces every entry it reads, and DS undercuts ST from
//! [`CostModel::break_even`] values on. The operators off the serving
//! ladder (PW, N, DD and PR, which a calibration table may hold) cost
//! `n ·` their `sum/<op>` median.
//!
//! Prices are read the same at every SIMD tier; the tier only names itself
//! in the source label. A choice therefore stays a function of the values
//! and the budget, and so do the result bits under a loose budget.

use crate::profile::DataProfile;
use repro_fp::simd::{self, SimdTier, MAX_PARTS};
use repro_sum::Algorithm;
use std::sync::OnceLock;

/// The committed baseline the default model is seeded from (repo root).
pub const BASELINE_FILE: &str = "BENCH_26.json";

/// The baseline document itself, embedded at compile time so the default
/// model needs no filesystem access (and cannot drift from the commit).
const BASELINE_JSON: &str = include_str!("../../../BENCH_26.json");

/// The throughput schema the model reads.
const SCHEMA: &str = "repro-bench-throughput-v2";

/// The operators priced per value from `rung/<op>` entries.
const RUNGS: [Algorithm; 3] = [Algorithm::Standard, Algorithm::Kahan, Algorithm::Composite];

/// Part counts DS is priced at: 2 to [`MAX_PARTS`], and one more for the
/// blocks the plan refuses.
const PART_COUNTS: std::ops::RangeInclusive<usize> = 2..=MAX_PARTS + 1;

/// Per-call prices, in ns, of every operator.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// ns per value of each operator but DS.
    per_value: Vec<(Algorithm, f64)>,
    /// DS's fixed ns per call, `c0`.
    call: f64,
    /// DS's ns per value `c(P)`, at index `P - 2`.
    per_part: [f64; MAX_PARTS],
    /// `{file}@{tier}`: the baseline file, and the SIMD dispatch tier active
    /// when the model was built.
    source: String,
}

impl Default for CostModel {
    /// The model from the committed [`BASELINE_FILE`] at the active SIMD
    /// tier, resolved once per process and cached. The baseline is compiled
    /// in, and a unit test asserts that it parses.
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
    /// The model from the embedded committed baseline, `None` if the
    /// baseline is missing an entry or does not parse.
    pub fn baseline(tier: SimdTier) -> Option<Self> {
        Self::from_baseline_json(BASELINE_JSON, BASELINE_FILE, tier)
    }

    /// Parse a `repro-bench-throughput-v2` document into a cost model from
    /// its `median_ns` readings: `rung/ST`, `rung/K` and `rung/CP` (unit
    /// `elem`), `rung/DS/call` (unit `call`), `rung/DS/p2` to
    /// `rung/DS/p9` (unit `elem`), and `sum/<op>` for the operators off the
    /// ladder. The entries are read the same at every tier; `tier` only
    /// names the tier in the source label. Returns `None` unless every
    /// entry is present in its unit with a positive finite reading, and
    /// the DS line has a positive fixed term and positive slopes: a
    /// half-parsed baseline must not silently rank candidates.
    pub fn from_baseline_json(json: &str, file: &str, tier: SimdTier) -> Option<Self> {
        let doc = repro_obs::Json::parse(json.trim()).ok()?;
        if doc.get("schema")?.as_str()? != SCHEMA {
            return None;
        }
        let repro_obs::Json::Arr(entries) = doc.get("entries")? else {
            return None;
        };
        // `(values per call, median ns per unit)` of `op`, timed in `unit`.
        let read = |op: &str, unit: &str| -> Option<(f64, f64)> {
            let e = entries
                .iter()
                .find(|e| e.get("op").and_then(|o| o.as_str()) == Some(op))?;
            let positive = |v: Option<f64>| v.filter(|v| v.is_finite() && *v > 0.0);
            (e.get("unit")?.as_str()? == unit).then_some(())?;
            Some((
                positive(e.get("n")?.as_num())?,
                positive(e.get("median_ns")?.as_num())?,
            ))
        };
        let mut per_value = Vec::with_capacity(Algorithm::ALL.len() - 1);
        for alg in Algorithm::ALL {
            let op = if RUNGS.contains(&alg) {
                format!("rung/{}", alg.abbrev())
            } else if alg == Algorithm::Distill {
                continue;
            } else {
                format!("sum/{}", alg.abbrev())
            };
            per_value.push((alg, read(&op, "elem")?.1));
        }
        // The line through one call at n1 and one at n2, both of two parts.
        let (n1, call_ns) = read("rung/DS/call", "call")?;
        let (n2, p2_ns) = read("rung/DS/p2", "elem")?;
        let slope = (n2 * p2_ns - call_ns) / (n2 - n1);
        let call = call_ns - n1 * slope;
        let mut per_part = [0.0; MAX_PARTS];
        for (parts, c) in PART_COUNTS.zip(&mut per_part) {
            let (n, ns) = read(&format!("rung/DS/p{parts}"), "elem")?;
            *c = (n * ns - call) / n;
        }
        let valid = call.is_finite() && call > 0.0 && per_part.iter().all(|c| *c > 0.0);
        valid.then(|| Self {
            per_value,
            call,
            per_part,
            source: format!("{file}@{tier}"),
        })
    }

    /// Where this model's numbers came from, as decision records print it
    /// (`BENCH_26.json@avx2`).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// ns per value of an operator priced per value. A fold the baseline
    /// does not time is priced from ST by its cost rank.
    fn per_value(&self, alg: Algorithm) -> f64 {
        let of = |alg| {
            self.per_value
                .iter()
                .find(|(a, _)| *a == alg)
                .map(|(_, c)| *c)
        };
        of(alg).unwrap_or_else(|| {
            of(Algorithm::Standard).unwrap_or(1.0) * (1.0 + alg.cost_rank() as f64 * 3.0)
        })
    }

    /// DS's ns per value on blocks of `parts` parts, clamped to
    /// [`PART_COUNTS`].
    fn ds_per_value(&self, parts: usize) -> f64 {
        self.per_part[parts.clamp(*PART_COUNTS.start(), *PART_COUNTS.end()) - 2]
    }

    /// The price in ns of one call of `alg` on `n` values whose blocks
    /// plan `parts` parts (DS's price depends on it; `parts` is clamped to
    /// 2..=[`MAX_PARTS`] + 1). An empty call is priced as one value.
    pub fn price(&self, alg: Algorithm, n: usize, parts: usize) -> f64 {
        let n = n.max(1) as f64;
        match alg {
            Algorithm::Distill => self.call + n * self.ds_per_value(parts),
            _ => n * self.per_value(alg),
        }
    }

    /// The price of one call of `alg` on data shaped like `profile`: its
    /// `n`, and the parts its exponent extremes plan.
    pub fn price_on(&self, alg: Algorithm, profile: &DataProfile) -> f64 {
        self.price(alg, profile.n, profile.cascade_parts())
    }

    /// `algorithms` with their prices for one call on `n` values of `parts`
    /// parts, cheapest first; equal prices keep their order. Each price is
    /// computed once and the ranking is sorted on the stack: it allocates
    /// nothing.
    pub fn by_price<const N: usize>(
        &self,
        algorithms: [Algorithm; N],
        n: usize,
        parts: usize,
    ) -> [(Algorithm, f64); N] {
        let mut priced = algorithms.map(|alg| (alg, self.price(alg, n, parts)));
        priced.sort_by(|a, b| a.1.total_cmp(&b.1));
        priced
    }

    /// The smallest `n` at which a DS call on values of `parts` parts costs
    /// no more than an ST call, or `None` where DS's per-value term is no
    /// lower than ST's and its fixed term keeps it dearer at every `n`.
    pub fn break_even(&self, parts: usize) -> Option<usize> {
        let (ds, st) = (Algorithm::Distill, Algorithm::Standard);
        let fits = |n: usize| self.price(ds, n, parts) <= self.price(st, n, parts);
        let gap = self.per_value(st) - self.ds_per_value(parts);
        if gap <= 0.0 {
            return None;
        }
        // The crossing of the two lines, settled against the rounded prices.
        let mut n = (self.call / gap).ceil().max(1.0) as usize;
        while !fits(n) {
            n += 1;
        }
        while n > 1 && fits(n - 1) {
            n -= 1;
        }
        Some(n)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A v2 document holding the entries the model reads, from
    /// `(op, unit, n, median_ns)` rows.
    fn v2_doc(rows: &[(String, &str, usize, f64)]) -> String {
        let entries: Vec<String> = rows
            .iter()
            .map(|(op, unit, n, ns)| {
                format!(r#"{{"op": "{op}", "n": {n}, "unit": "{unit}", "median_ns": {ns}}}"#)
            })
            .collect();
        format!(
            "{{\"schema\": \"{SCHEMA}\", \"entries\": [{}]}}",
            entries.join(", ")
        )
    }

    /// The rows a complete document needs: ST, K, CP and the off-ladder
    /// operators per value, and DS's call and per-part entries.
    fn rows(call_ns: f64, per_part: [f64; MAX_PARTS]) -> Vec<(String, &'static str, usize, f64)> {
        let mut rows = vec![
            ("rung/ST".to_string(), "elem", 4096, 0.75),
            ("rung/K".to_string(), "elem", 4096, 3.0),
            ("rung/CP".to_string(), "elem", 4096, 1.6),
            ("rung/DS/call".to_string(), "call", 256, call_ns),
        ];
        for (parts, ns) in PART_COUNTS.zip(per_part) {
            rows.push((format!("rung/DS/p{parts}"), "elem", 4096, ns));
        }
        for op in ["PW", "N", "DD", "PR"] {
            rows.push((format!("sum/{op}"), "elem", 1_000_000, 5.0));
        }
        rows
    }

    const PER_PART: [f64; MAX_PARTS] = [0.45, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 6.0];

    /// A model on an inline document that prices DS at 23 ns per value, as
    /// the expansion kernel DS once ran on measured: dearer than every
    /// other rung at every `n`, so selection-mechanics tests can walk the
    /// ladder through CP before it reaches the exact rung.
    pub(crate) fn dear_ds() -> CostModel {
        let doc = v2_doc(&rows(23.0 * 256.0 + 140.0, [23.0; MAX_PARTS]));
        CostModel::from_baseline_json(&doc, "inline", SimdTier::Scalar).expect("inline prices")
    }

    #[test]
    fn default_is_calibrated_from_the_committed_baseline() {
        let m = CostModel::default();
        assert_eq!(
            m.source(),
            format!("{BASELINE_FILE}@{}", simd::active_tier()),
            "default should come from the committed baseline"
        );
        // The measured order of the per-value rungs: CP's fused kernel
        // undercuts Kahan (the flop ratios had K cheaper than CP), and PR
        // tops the paper's set.
        let at = |alg| m.price(alg, 4096, 2);
        assert!(at(Algorithm::Standard) < at(Algorithm::Composite));
        assert!(at(Algorithm::Composite) < at(Algorithm::Kahan));
        assert!(at(Algorithm::PR) > at(Algorithm::Kahan));
    }

    /// Each `rung/*` entry, and each `sum/*` entry the model reads, comes
    /// back from the model's prices at the entry's own `n`.
    #[test]
    fn the_model_reproduces_every_entry_it_reads() {
        let m = CostModel::default();
        let doc = repro_obs::Json::parse(BASELINE_JSON.trim()).unwrap();
        let repro_obs::Json::Arr(entries) = doc.get("entries").unwrap() else {
            panic!("entries is not an array");
        };
        let mut read = 0;
        for e in entries {
            let op = e.get("op").unwrap().as_str().unwrap();
            let n = e.get("n").unwrap().as_num().unwrap() as usize;
            let median = e.get("median_ns").unwrap().as_num().unwrap();
            let per_value = |alg, parts| m.price(alg, n, parts) / n as f64;
            let modelled = match op.split_once('/') {
                Some(("rung", "DS/call")) => m.price(Algorithm::Distill, n, 2),
                Some(("rung", rung)) => match rung.strip_prefix("DS/p") {
                    Some(parts) => per_value(Algorithm::Distill, parts.parse().unwrap()),
                    None => per_value(Algorithm::from_abbrev(rung).unwrap(), 2),
                },
                Some(("sum", op @ ("PW" | "N" | "DD" | "PR"))) => {
                    per_value(Algorithm::from_abbrev(op).unwrap(), 2)
                }
                _ => continue,
            };
            assert!(
                (modelled - median).abs() <= 1e-9 * median,
                "{op}: model {modelled} vs entry {median}"
            );
            read += 1;
        }
        assert_eq!(read, 3 + 1 + MAX_PARTS + 4, "every entry the model reads");
    }

    #[test]
    fn ds_break_even_does_not_fall_as_parts_rise() {
        let m = CostModel::default();
        let never = |b: Option<usize>| b.unwrap_or(usize::MAX);
        for parts in PART_COUNTS {
            if let Some(n) = m.break_even(parts) {
                let price = |alg, n| m.price(alg, n, parts);
                assert!(price(Algorithm::Distill, n) <= price(Algorithm::Standard, n));
                assert!(
                    n == 1 || price(Algorithm::Distill, n - 1) > price(Algorithm::Standard, n - 1)
                );
            }
        }
        for parts in 2..=MAX_PARTS {
            assert!(
                never(m.break_even(parts)) <= never(m.break_even(parts + 1)),
                "break-even falls from {parts} to {} parts",
                parts + 1
            );
        }
        // An inline model: DS undercuts ST per value up to three parts.
        let doc = v2_doc(&rows(300.0, PER_PART));
        let m = CostModel::from_baseline_json(&doc, "inline", SimdTier::Scalar).unwrap();
        let b2 = m.break_even(2).unwrap();
        let b3 = m.break_even(3).unwrap();
        assert!(256 < b2 && b2 < b3, "{b2} {b3}");
        assert_eq!(m.break_even(4), None);
    }

    #[test]
    fn baseline_labels_its_tier_and_prices_every_tier_alike() {
        // The label names the tier the model was resolved for.
        for &tier in &[SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2] {
            let m = CostModel::baseline(tier).expect("committed baseline parses");
            assert_eq!(m.source(), format!("{BASELINE_FILE}@{}", tier.label()));
        }
        // Prices don't move with the tier: each is read from the same
        // entries at every tier.
        let a = CostModel::baseline(SimdTier::Scalar).unwrap();
        let b = CostModel::baseline(SimdTier::Avx2).unwrap();
        for alg in Algorithm::ALL {
            for (n, parts) in [(1, 2), (256, 2), (4096, 3), (1 << 20, 9)] {
                assert_eq!(
                    a.price(alg, n, parts).to_bits(),
                    b.price(alg, n, parts).to_bits()
                );
            }
        }
    }

    #[test]
    fn malformed_baselines_are_rejected_not_half_used() {
        let tier = SimdTier::Scalar;
        let parse = |doc: &str| CostModel::from_baseline_json(doc, "x", tier);
        assert!(parse("not json").is_none());
        assert!(parse("{\"schema\": \"other\"}").is_none());
        assert!(parse(&v2_doc(&rows(300.0, PER_PART))).is_some());
        // The v1 schema is not read.
        let v1 = v2_doc(&rows(300.0, PER_PART)).replace(SCHEMA, "repro-bench-throughput-v1");
        assert!(parse(&v1).is_none());
        // Missing an entry: the whole model is refused.
        for skip in 0..rows(300.0, PER_PART).len() {
            let mut partial = rows(300.0, PER_PART);
            partial.remove(skip);
            assert!(parse(&v2_doc(&partial)).is_none(), "{skip}");
        }
        // A non-positive timing, or an entry in the wrong unit: refused.
        let mut zeroed = rows(300.0, PER_PART);
        zeroed[0].3 = 0.0;
        assert!(parse(&v2_doc(&zeroed)).is_none());
        let mut per_call = rows(300.0, PER_PART);
        per_call[4].1 = "call";
        assert!(parse(&v2_doc(&per_call)).is_none());
        // A DS line without a positive fixed term: refused.
        assert!(parse(&v2_doc(&rows(100.0, PER_PART))).is_none());
    }

    #[test]
    fn unknown_fold_falls_back_to_rank() {
        let m = CostModel::default();
        let at = |alg| m.price(alg, 4096, 2);
        assert!(at(Algorithm::Binned { fold: 2 }) > at(Algorithm::Standard));
    }
}

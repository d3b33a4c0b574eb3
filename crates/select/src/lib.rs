//! # `repro-select` — intelligent runtime selection of reduction algorithms
//!
//! The system the paper argues for: "estimable quantities such as condition
//! number and dynamic range can guide runtime selection of a reduction
//! operator with the appropriate performance/reproducibility tradeoff for
//! the application at hand."
//!
//! The pipeline:
//!
//! 1. [`profile::profile`] scans the operands once (O(n), into exact
//!    registers) and computes the quantities the paper identifies:
//!    `n`, dynamic range `dr`, condition number `k`.
//! 2. A [`Selector`] maps `(profile, tolerance)` to the **cheapest**
//!    [`Algorithm`] on the serving [`selector::LADDER`] (ST, K, CP, and
//!    the exact sum DS) expected to keep run-to-run variability under the
//!    tolerance:
//!    * [`selector::HeuristicSelector`] uses closed-form variability
//!      predictors per algorithm (the analytic counterpart of the paper's
//!      Figure 12 maps);
//!    * [`selector::CalibratedSelector`] interpolates a measured
//!      `(k, dr) → variability` table built by [`calibrate::calibrate`],
//!      which replays the paper's grid methodology (Figure 8) at
//!      calibration time.
//! 3. [`AdaptiveReducer`] packages the whole thing: profile, choose,
//!    reduce, report. It is driven by the [`HeuristicSelector`]; its traced
//!    entry points record the same ladder walk that made the choice.
//! 4. [`verified::VerifiedReducer`] trusts measurements over models: reduce
//!    under two independent orders, escalate until the runs agree within
//!    tolerance — the paper's reproducibility definition, enforced at
//!    runtime.
//! 5. [`subtree::SubtreeAdaptive`] goes where the paper's conclusion points:
//!    profile **subtrees** individually and pay for expensive operators only
//!    on the chunks whose data demands them, combining chunk partials
//!    exactly at the top.
//!
//! ```
//! use repro_select::{AdaptiveReducer, Tolerance};
//!
//! // A benign workload: all positive, one decade. ST is fine.
//! let benign: Vec<f64> = (1..1000).map(|i| 1.0 + (i % 10) as f64).collect();
//! let reducer = AdaptiveReducer::heuristic(Tolerance::AbsoluteSpread(1e-10));
//! let outcome = reducer.reduce(&benign);
//! assert_eq!(outcome.algorithm.abbrev(), "ST");
//!
//! // The same tolerance on a hostile workload escalates the operator.
//! let hostile = repro_gen::zero_sum_with_range(1000, 32, 7);
//! let outcome = reducer.reduce(&hostile);
//! assert!(outcome.algorithm.cost_rank() > repro_sum::Algorithm::Standard.cost_rank());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod calibrate;
pub mod cost;
pub mod explain;
pub mod profile;
pub mod sample;
pub mod selector;
pub mod subtree;
pub mod verified;

pub use cache::{DecisionCache, Fingerprint};
pub use calibrate::{
    calibrate, try_calibrate, CalibrationConfig, CalibrationError, CalibrationTable,
};
pub use cost::CostModel;
pub use explain::{explain, record_decision, Explanation};
pub use profile::{profile, profile_parallel, DataProfile};
use repro_sum::Algorithm;
pub use sample::{choose_sampled, SampleConfig, SampledProfile};
pub use selector::{HeuristicSelector, Selector, Tolerance, EXACT};
pub use subtree::{SubtreeAdaptive, SubtreeOutcome};
pub use verified::{VerifiedOutcome, VerifiedReducer};

/// The result of one adaptive reduction.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The computed sum.
    pub sum: f64,
    /// The algorithm the selector chose.
    pub algorithm: Algorithm,
    /// The profile the choice was based on.
    pub profile: DataProfile,
}

/// Profile → select → reduce, in one object, driven by the
/// [`HeuristicSelector`].
#[derive(Debug)]
pub struct AdaptiveReducer {
    selector: HeuristicSelector,
    tolerance: Tolerance,
}

/// Flight-record one selection decision so a post-mortem shows the last
/// choices made before the process died. `path` names the reduce entry
/// point that decided; never carries timing, only decision facts.
fn flight_decision(path: &str, algorithm: Algorithm, n: usize) {
    repro_obs::flight::record_with("select", "decision", || {
        vec![
            repro_obs::f("path", path),
            repro_obs::f("alg", algorithm.abbrev()),
            repro_obs::f("n", n as u64),
        ]
    });
}

impl AdaptiveReducer {
    /// An adaptive reducer driven by the analytic heuristic selector.
    pub fn heuristic(tolerance: Tolerance) -> Self {
        Self {
            selector: HeuristicSelector::default(),
            tolerance,
        }
    }

    /// Which algorithm would be chosen for this data (no reduction done).
    /// Profiling runs chunk-parallel on the shared runtime pool.
    pub fn choose(&self, values: &[f64]) -> (Algorithm, DataProfile) {
        let p = profile::profile_parallel(values);
        (self.selector.choose(&p, self.tolerance), p)
    }

    /// Profile, select, and sequentially reduce.
    ///
    /// The profile is one pass over the values ([`profile::profile`]), and
    /// its `Σx` register already holds the exact sum, so a choice of the
    /// exact rung returns the profile's correctly rounded sum without
    /// reading the values again. ST, K and CP read them once more, after
    /// the choice. Nothing runs speculatively: an ST pass fused into the
    /// profile would cost every other choice a full ST pass, and save an
    /// ST choice only a second read of the values. Bitwise identical to
    /// the unfused pipeline: the serial profile equals
    /// [`profile::profile_parallel`] bit for bit (a tested invariant), the
    /// chosen accumulator sees the elements in slice order, and an exact
    /// sum has one correctly rounded value.
    pub fn reduce(&self, values: &[f64]) -> Outcome {
        let profile = profile::profile(values);
        let algorithm = self.selector.choose(&profile, self.tolerance);
        Self::finish("reduce", values, algorithm, profile)
    }

    /// Flight-record the decision, then reduce with it: the exact rung
    /// returns the full profile's `Σx`, and every other rung reads the
    /// values once more.
    fn finish(path: &str, values: &[f64], algorithm: Algorithm, profile: DataProfile) -> Outcome {
        flight_decision(path, algorithm, values.len());
        let sum = match algorithm {
            EXACT => profile.sum_estimate,
            _ => algorithm.sum(values),
        };
        Outcome {
            sum,
            algorithm,
            profile,
        }
    }

    /// The traced entry points' shared step: profile on the shared pool,
    /// walk the ladder once with every rung recorded, and reduce with the
    /// walk's choice. The caller emits the `decision` event.
    fn reduce_explained(&self, path: &str, values: &[f64]) -> (Outcome, Explanation) {
        let profile = profile::profile_parallel(values);
        let explanation = self.selector.explain(&profile, self.tolerance);
        let outcome = Self::finish(path, values, explanation.chosen, profile);
        (outcome, explanation)
    }

    /// The always-on fast path: **sampled** profile → **decision cache** →
    /// reduce.
    ///
    /// An array of at most twice [`SampleConfig::target`] values takes the
    /// fused exact pass ([`AdaptiveReducer::reduce`]) instead: a sample of
    /// it would read every other value or more, and the exact full profile
    /// costs no more than that. Its decision then depends only on the
    /// multiset of values — any order of the same array gets the same
    /// operator and the same bits — and needs no bounds, no safety factor
    /// and no cache.
    ///
    /// Larger arrays stride a ~2k-element sample
    /// ([`sample::SampledProfile`]), fingerprint its extrapolated shape
    /// ([`cache::Fingerprint`]), and reuse the cached decision for that
    /// shape when one exists. On a miss the sampled profile drives
    /// selection (with the conservative [`sample::SAMPLED_SAFETY_FACTOR`]
    /// inflation) and the decision is cached for the next same-shaped
    /// workload. When the sample's confidence bounds are too loose to
    /// trust — heavy-tailed data, or a sign-disputed sum under a relative
    /// tolerance — it falls back to the fused full pass, bypassing the
    /// cache entirely.
    ///
    /// The caching layer never changes the numerics: a decision only picks
    /// *which* deterministic operator runs, so a cache hit is bitwise
    /// identical to the miss that populated it (property-tested). The
    /// returned [`Outcome::profile`] is the sampled *estimate* on the fast
    /// path and the full profile otherwise.
    pub fn reduce_cached(&self, values: &[f64], cache: &DecisionCache) -> Outcome {
        let cfg = sample::SampleConfig::default();
        if values.len() <= 2 * cfg.target {
            return self.reduce(values);
        }
        let sampled = sample::SampledProfile::collect(values, &cfg);
        if sampled.bounds_tight(&cfg) {
            let est = sampled.estimated_profile();
            let fp = Fingerprint::of(&est, self.tolerance);
            let algorithm = match cache.lookup(&fp) {
                Some(alg) => alg,
                None => {
                    match sample::choose_sampled(&self.selector, self.tolerance, &sampled, &cfg) {
                        Some(alg) => {
                            cache.insert(fp, alg);
                            alg
                        }
                        // Tight bounds but a sign-disputed sum under a
                        // relative tolerance: the budget itself is noise.
                        None => return self.reduce(values),
                    }
                }
            };
            flight_decision("reduce_cached", algorithm, values.len());
            return Outcome {
                sum: algorithm.sum(values),
                algorithm,
                profile: est,
            };
        }
        self.reduce(values)
    }

    /// Like [`AdaptiveReducer::reduce`], but emitting one `decision`
    /// event into `scope` for the selection (see
    /// [`explain::record_decision`]). The record is the walk that made the
    /// choice: its candidate table and its `chosen` field come from one
    /// pass down the ladder. As in [`AdaptiveReducer::reduce`], the exact
    /// rung returns the profile's `Σx` without reading the values again.
    pub fn reduce_traced(&self, values: &[f64], scope: &mut repro_obs::Scope) -> Outcome {
        let (outcome, explanation) = self.reduce_explained("reduce_traced", values);
        explain::record_decision(scope, &outcome.profile, &explanation);
        outcome
    }

    /// Permutations measured by [`AdaptiveReducer::reduce_telemetry`]
    /// besides the given order: enough to see order sensitivity, cheap
    /// enough to run inline.
    pub const REALIZED_SPREAD_RUNS: usize = 3;

    /// Like [`AdaptiveReducer::reduce_traced`], but also **measuring** the
    /// chosen operator's order sensitivity on this very input: the values
    /// are re-reduced under [`AdaptiveReducer::REALIZED_SPREAD_RUNS`]
    /// deterministic permutations (seeded from the data profile, so two
    /// runs of the same input measure identically) and the max−min spread
    /// is appended to the `decision` event as `realized_spread` — the
    /// measured counterpart of the record's predicted `{alg}_spread`
    /// columns.
    ///
    /// With a `registry`, the pair lands as gauges for calibration-drift
    /// monitoring: `select.predicted_spread`, `select.realized_spread`,
    /// and `select.spread_drift` (realized − predicted; positive means the
    /// predictor undershot, the dangerous direction).
    ///
    /// The given order's sum of the exact rung is the profile's `Σx`; the
    /// permutation runs still run, since they are the measurement.
    pub fn reduce_telemetry(
        &self,
        values: &[f64],
        scope: &mut repro_obs::Scope,
        registry: Option<&repro_obs::Registry>,
    ) -> Outcome {
        use repro_fp::rng::DetRng;
        let (outcome, explanation) = self.reduce_explained("reduce_telemetry", values);
        let algorithm = outcome.algorithm;
        let (mut lo, mut hi) = (outcome.sum, outcome.sum);
        // Seed from plan-independent data facts so the measurement (and
        // with it the decision record) is a pure function of the input.
        let mut rng = DetRng::seed_from_u64(0x2015 ^ outcome.profile.n as u64);
        let mut shuffled = values.to_vec();
        for _ in 0..Self::REALIZED_SPREAD_RUNS {
            rng.shuffle(&mut shuffled);
            let s = algorithm.sum(&shuffled);
            lo = lo.min(s);
            hi = hi.max(s);
        }
        let realized = hi - lo;
        explain::record_decision_with_spread(scope, &outcome.profile, &explanation, Some(realized));

        if let Some(registry) = registry {
            let predicted = explanation
                .candidates
                .iter()
                .find(|c| c.algorithm == algorithm)
                .map(|c| c.predicted_spread)
                .unwrap_or(0.0);
            registry.gauge_set("select.predicted_spread", predicted);
            registry.gauge_set("select.realized_spread", realized);
            registry.gauge_set("select.spread_drift", realized - predicted);
        }
        outcome
    }
}

/// One row of a selection report: a tolerance and the operator the
/// heuristic selector would pick for it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    /// The tolerance probed.
    pub tolerance: Tolerance,
    /// The cheapest acceptable operator at that tolerance.
    pub algorithm: Algorithm,
}

/// Sweep a ladder of tolerances over one dataset: the at-a-glance answer to
/// "what would selecting cost me at each reproducibility level?".
///
/// ```
/// let hostile = repro_gen::zero_sum_with_range(10_000, 32, 7);
/// let report = repro_select::recommendations(&hostile);
/// // The ladder ends at a reproducible operator.
/// assert!(report.last().unwrap().algorithm.is_reproducible());
/// // And it only ever escalates.
/// assert!(report.windows(2).all(|w| w[0].algorithm.cost_rank() <= w[1].algorithm.cost_rank()));
/// ```
pub fn recommendations(values: &[f64]) -> Vec<Recommendation> {
    let p = profile(values);
    let selector = HeuristicSelector::default();
    let mut out = Vec::new();
    for exp in [-6i32, -9, -12, -15] {
        let tolerance = Tolerance::AbsoluteSpread(10f64.powi(exp));
        out.push(Recommendation {
            tolerance,
            algorithm: selector.choose(&p, tolerance),
        });
    }
    out.push(Recommendation {
        tolerance: Tolerance::Bitwise,
        algorithm: selector.choose(&p, Tolerance::Bitwise),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_sum::Accumulator;

    #[test]
    fn recommendations_cover_the_ladder() {
        let benign: Vec<f64> = (1..1000).map(|i| i as f64 * 1e-3).collect();
        let report = recommendations(&benign);
        assert_eq!(report.len(), 5);
        assert_eq!(report[0].algorithm, Algorithm::Standard);
        assert_eq!(report.last().unwrap().algorithm, EXACT);
    }

    #[test]
    fn outcome_reports_choice_and_profile() {
        let values: Vec<f64> = (1..100).map(|i| i as f64).collect();
        let r = AdaptiveReducer::heuristic(Tolerance::AbsoluteSpread(1e-9));
        let out = r.reduce(&values);
        assert_eq!(out.sum, 4950.0);
        assert_eq!(out.profile.n, 99);
        assert_eq!(out.algorithm.abbrev(), "ST");
    }

    #[test]
    fn fused_reduce_matches_unfused_pipeline_bitwise() {
        // Benign data takes ST, hostile data escalates and re-reduces.
        let benign: Vec<f64> = (1..1000).map(|i| 1.0 + (i % 10) as f64).collect();
        let hostile = repro_gen::zero_sum_with_range(5_000, 32, 7);
        for (values, expect_st) in [(&benign, true), (&hostile, false)] {
            let r = AdaptiveReducer::heuristic(Tolerance::AbsoluteSpread(1e-10));
            let out = r.reduce(values);
            assert_eq!(out.algorithm == Algorithm::Standard, expect_st);
            // The unfused pipeline: parallel profile, choose, serial reduce.
            let (algorithm, profile) = r.choose(values);
            let mut acc = algorithm.new_accumulator();
            acc.add_slice(values);
            assert_eq!(out.algorithm, algorithm);
            assert_eq!(out.sum.to_bits(), acc.finalize().to_bits());
            assert_eq!(out.profile.k.to_bits(), profile.k.to_bits());
            assert_eq!(
                out.profile.sum_estimate.to_bits(),
                profile.sum_estimate.to_bits()
            );
        }
    }

    #[test]
    fn telemetry_decision_record_carries_realized_spread() {
        let values = repro_gen::zero_sum_with_range(2_000, 28, 11);
        let r = AdaptiveReducer::heuristic(Tolerance::AbsoluteSpread(1e-6));
        let registry = repro_obs::Registry::new();

        let run = || {
            let (trace, sink) = repro_obs::Trace::to_memory();
            let mut scope = trace.scope("select");
            let out = r.reduce_telemetry(&values, &mut scope, Some(&registry));
            (out, repro_obs::render_jsonl(&sink.drain()))
        };
        let (out, text) = run();
        let parsed = repro_obs::Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("decision"));
        let realized = parsed.get("realized_spread").unwrap().as_num().unwrap();
        assert!(realized >= 0.0);
        assert_eq!(
            parsed.get("chosen").unwrap().as_str(),
            Some(out.algorithm.abbrev())
        );
        // The measurement is deterministic: same input, same record bytes.
        let (_, again) = run();
        assert_eq!(text, again);

        let snap = registry.snapshot();
        assert_eq!(snap.gauges["select.realized_spread"], realized);
        assert!(
            (snap.gauges["select.realized_spread"]
                - snap.gauges["select.predicted_spread"]
                - snap.gauges["select.spread_drift"])
                .abs()
                < 1e-300
        );
    }

    #[test]
    fn telemetry_realized_spread_is_zero_for_reproducible_choice() {
        let values = repro_gen::zero_sum_with_range(1_000, 30, 13);
        let r = AdaptiveReducer::heuristic(Tolerance::Bitwise);
        let (trace, sink) = repro_obs::Trace::to_memory();
        let mut scope = trace.scope("select");
        let out = r.reduce_telemetry(&values, &mut scope, None);
        assert!(out.algorithm.is_reproducible());
        let text = repro_obs::render_jsonl(&sink.drain());
        let parsed = repro_obs::Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(parsed.get("realized_spread").unwrap().as_num(), Some(0.0));
    }

    /// One traced decision's bytes, pinned: a change to the walk, to a
    /// price or to the field order fails here, not only in a diff of two
    /// builds' output. The input is perfbench's `reduce-small` (1e12, 16)
    /// shape; the cost source names the active tier.
    #[test]
    fn traced_decision_bytes_are_pinned() {
        const DECISION: &str = concat!(
            r#"{"sub":"select","seq":0,"kind":"decision","n":4096,"#,
            r#""k":999999730689.2627,"dr_binades":56,"max_abs":6382121768.268746,"#,
            r#""abs_sum":999999730689.2627,"sum_estimate":1,"#,
            r#""tolerance":"RelativeSpread(1e-14)","budget":0.00000000000001,"#,
            r#""ST_spread":0.007105425444033121,"ST_cost":1,"ST_fits":false,"#,
            r#""CP_spread":0.000000000000000050487084337427187,"#,
            r#""CP_cost":2.14474386339381,"CP_fits":true,"#,
            r#""K_spread":0.00022204454512603504,"K_cost":3.8916755602988253,"#,
            r#""K_fits":false,"#,
            r#""DS_spread":0,"DS_cost":30.618596584845246,"DS_fits":true,"#,
            r#""cost_source":"BENCH_06.json@TIER","chosen":"CP"}"#,
            "\n",
        );
        const RENDER: &str = "\
tolerance: RelativeSpread(1e-14)
budget (absolute spread): 1e-14
cost model: BENCH_06.json@TIER
  ST           cost   1.0x  predicted spread     7.105e-3  exceeds budget
  CP           cost   2.1x  predicted spread    5.049e-17  <- CHOSEN (cheapest that fits)
  K            cost   3.9x  predicted spread     2.220e-4  exceeds budget
  DS           cost  30.6x  predicted spread      0.000e0  fits (but costlier)
chosen: CP
";
        let at_tier = format!("@{}", repro_fp::simd::active_tier());
        let values = repro_gen::grid_cell(4096, 1e12, 16, 2015, 1e16);
        let tolerance = Tolerance::RelativeSpread(1e-14);
        let (trace, sink) = repro_obs::Trace::to_memory();
        let mut scope = trace.scope("select");
        let out = AdaptiveReducer::heuristic(tolerance).reduce_traced(&values, &mut scope);
        assert_eq!(
            repro_obs::render_jsonl(&sink.drain()),
            DECISION.replace("@TIER", &at_tier)
        );
        assert_eq!(
            explain(&out.profile, tolerance).render(),
            RENDER.replace("@TIER", &at_tier)
        );
    }

    #[test]
    fn untelemetried_decision_record_bytes_are_unchanged() {
        // reduce_traced must not grow a realized_spread field: the
        // telemetry is opt-in, and off means byte-identical records.
        let values: Vec<f64> = (1..50).map(|i| i as f64).collect();
        let r = AdaptiveReducer::heuristic(Tolerance::AbsoluteSpread(1e-9));
        let (trace, sink) = repro_obs::Trace::to_memory();
        let mut scope = trace.scope("select");
        r.reduce_traced(&values, &mut scope);
        let text = repro_obs::render_jsonl(&sink.drain());
        assert!(!text.contains("realized_spread"), "{text}");
    }
}

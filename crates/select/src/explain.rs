//! Selection transparency: a structured, human-readable account of *why*
//! the heuristic selector picked the operator it picked.
//!
//! Runtime selection only earns trust if its decisions can be audited; an
//! [`Explanation`] records the tolerance budget, every candidate's
//! predicted spread and relative cost, and which constraint eliminated the
//! cheaper candidates. The CLI's `select --explain` and the examples render
//! these. An explanation is *faithful* by construction: it records the
//! same ladder walk [`HeuristicSelector::choose`](crate::Selector::choose)
//! takes, and tests pin that the two agree.

use crate::profile::DataProfile;
use crate::selector::{HeuristicSelector, Tolerance};
use repro_sum::Algorithm;

/// One candidate's audit row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CandidateVerdict {
    /// The algorithm considered.
    pub algorithm: Algorithm,
    /// Predicted absolute spread across reduction orders on this profile.
    pub predicted_spread: f64,
    /// Relative cost (1.0 = recursive summation).
    pub relative_cost: f64,
    /// Whether the predicted spread fit the tolerance budget.
    pub fits: bool,
}

/// A faithful record of one selection decision.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The tolerance requested.
    pub tolerance: Tolerance,
    /// The absolute budget the tolerance resolved to (`None` where only a
    /// reproducible rung fits, see [`Tolerance::budget`]).
    pub budget: Option<f64>,
    /// Candidates in the order the selector considered them (cheapest
    /// first); the chosen one is the first with `fits == true`.
    pub candidates: Vec<CandidateVerdict>,
    /// The decision.
    pub chosen: Algorithm,
    /// Which cost numbers ranked the candidates
    /// ([`crate::cost::CostModel::source`], e.g. `BENCH_06.json@avx2`).
    pub cost_source: String,
}

impl Explanation {
    /// Render as an aligned ASCII audit trail.
    pub fn render(&self) -> String {
        let mut out = format!("tolerance: {:?}\n", self.tolerance);
        match self.budget {
            Some(b) => out.push_str(&format!("budget (absolute spread): {b:e}\n")),
            None => out.push_str("budget: bitwise (only reproducible operators qualify)\n"),
        }
        out.push_str(&format!("cost model: {}\n", self.cost_source));
        for c in &self.candidates {
            out.push_str(&format!(
                "  {:<12} cost {:>5.1}x  predicted spread {:>12.3e}  {}\n",
                c.algorithm.to_string(),
                c.relative_cost,
                c.predicted_spread,
                if c.algorithm == self.chosen {
                    "<- CHOSEN (cheapest that fits)"
                } else if c.fits {
                    "fits (but costlier)"
                } else {
                    "exceeds budget"
                },
            ));
        }
        out.push_str(&format!("chosen: {}\n", self.chosen));
        out
    }
}

/// Explain a heuristic selection: the default [`HeuristicSelector`]'s
/// ladder walk, with every rung recorded.
pub fn explain(profile: &DataProfile, tolerance: Tolerance) -> Explanation {
    HeuristicSelector::default().explain(profile, tolerance)
}

/// Emit one selection as a structured `decision` event: the input profile
/// (the estimable quantities the choice was based on), the resolved
/// budget, every candidate's predicted spread / relative cost / verdict
/// (cheapest first, keyed by the algorithm's abbreviation), and the chosen
/// algorithm. One event per selector invocation — the machine-readable
/// counterpart of [`Explanation::render`].
pub fn record_decision(
    scope: &mut repro_obs::Scope,
    profile: &DataProfile,
    explanation: &Explanation,
) {
    record_decision_with_spread(scope, profile, explanation, None);
}

/// [`record_decision`] with an optional **realized** spread appended: the
/// measured run-to-run variability of the chosen operator on this very
/// input (see [`crate::AdaptiveReducer::reduce_telemetry`]). Pairing the
/// prediction and the measurement in one record is what makes calibration
/// drift observable: a selector whose `{alg}_spread` predictions
/// systematically under- or over-shoot `realized_spread` needs
/// recalibration. `None` omits the field, leaving the event bytes
/// identical to [`record_decision`]'s.
pub fn record_decision_with_spread(
    scope: &mut repro_obs::Scope,
    profile: &DataProfile,
    explanation: &Explanation,
    realized_spread: Option<f64>,
) {
    use repro_obs::f;
    if !scope.enabled() {
        return;
    }
    let mut fields = vec![
        f("n", profile.n),
        f("k", profile.k),
        f("dr_binades", profile.dr_binades),
        f("max_abs", profile.max_abs),
        f("abs_sum", profile.abs_sum),
        f("sum_estimate", profile.sum_estimate),
        f("tolerance", format!("{:?}", explanation.tolerance)),
        match explanation.budget {
            Some(b) => f("budget", b),
            None => f("budget", "bitwise"),
        },
    ];
    for c in &explanation.candidates {
        let key = c.algorithm.abbrev();
        fields.push(f(&format!("{key}_spread"), c.predicted_spread));
        fields.push(f(&format!("{key}_cost"), c.relative_cost));
        fields.push(f(&format!("{key}_fits"), c.fits));
    }
    fields.push(f("cost_source", explanation.cost_source.as_str()));
    fields.push(f("chosen", explanation.chosen.abbrev()));
    if let Some(realized) = realized_spread {
        fields.push(f("realized_spread", realized));
    }
    scope.event("decision", fields);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile;
    use crate::selector::{Selector, EXACT};

    fn check_faithful(values: &[f64], tol: Tolerance) -> Explanation {
        let p = profile(values);
        let e = explain(&p, tol);
        let actual = HeuristicSelector::default().choose(&p, tol);
        assert_eq!(e.chosen, actual, "explanation disagrees with selector");
        e
    }

    #[test]
    fn explanation_is_faithful_across_regimes() {
        let benign: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let hostile = [3.14e16, 1.59, -3.14e16, -1.59];
        for tol in [
            Tolerance::AbsoluteSpread(1.0),
            Tolerance::AbsoluteSpread(1e-12),
            Tolerance::AbsoluteSpread(0.0),
            Tolerance::RelativeSpread(1e-9),
            Tolerance::Bitwise,
        ] {
            check_faithful(&benign, tol);
            check_faithful(&hostile, tol);
        }
    }

    #[test]
    fn loose_budget_explains_cheapest_choice() {
        let e = check_faithful(&[1.0, 2.0, 3.0], Tolerance::AbsoluteSpread(1.0));
        assert_eq!(e.chosen, Algorithm::Standard);
        assert!(e.candidates[0].fits);
        assert_eq!(e.candidates[0].algorithm, Algorithm::Standard);
    }

    #[test]
    fn zero_budget_explains_escalation_to_the_exact_rung() {
        let e = check_faithful(&[1.0, 1e16, -1e16], Tolerance::AbsoluteSpread(0.0));
        assert_eq!(e.chosen, EXACT);
        // Every non-reproducible candidate is marked as exceeding budget.
        for c in &e.candidates {
            assert_eq!(c.fits, c.predicted_spread == 0.0, "{:?}", c.algorithm);
        }
    }

    #[test]
    fn bitwise_explanation_has_no_budget() {
        let e = check_faithful(&[2.0, 4.0], Tolerance::Bitwise);
        assert_eq!(e.budget, None);
        assert!(e.chosen.is_reproducible());
    }

    #[test]
    fn render_contains_the_decision_line() {
        let e = check_faithful(&[1.0, 2.0], Tolerance::AbsoluteSpread(1e-30));
        let text = e.render();
        assert!(text.contains("CHOSEN"), "{text}");
        assert!(text.contains(&e.chosen.to_string()), "{text}");
        assert!(text.contains("exceeds budget"), "{text}");
    }

    #[test]
    fn decision_record_carries_profile_candidates_and_choice() {
        let values = [3.14e16, 1.59, -3.14e16, -1.59];
        let p = profile(&values);
        let e = explain(&p, Tolerance::AbsoluteSpread(1e-12));
        let (trace, sink) = repro_obs::Trace::to_memory();
        let mut scope = trace.scope("select");
        record_decision(&mut scope, &p, &e);
        let events = sink.drain();
        assert_eq!(events.len(), 1);
        let json = events[0].to_json();
        let parsed = repro_obs::Json::parse(&json).unwrap();
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("decision"));
        assert_eq!(parsed.get("n").unwrap().as_num(), Some(4.0));
        assert_eq!(
            parsed.get("chosen").unwrap().as_str(),
            Some(e.chosen.abbrev())
        );
        // The record names the cost numbers that ranked the candidates.
        assert_eq!(
            parsed.get("cost_source").unwrap().as_str(),
            Some(e.cost_source.as_str())
        );
        assert!(e.cost_source.starts_with("BENCH_"), "{}", e.cost_source);
        // Every candidate appears with spread, cost, and verdict.
        for c in &e.candidates {
            let key = c.algorithm.abbrev();
            assert!(parsed.get(&format!("{key}_spread")).is_some(), "{json}");
            assert!(parsed.get(&format!("{key}_cost")).is_some(), "{json}");
            assert!(parsed.get(&format!("{key}_fits")).is_some(), "{json}");
        }
    }

    #[test]
    fn candidates_are_ordered_by_cost() {
        let e = check_faithful(&[1.0; 64], Tolerance::AbsoluteSpread(1e-9));
        let costs: Vec<f64> = e.candidates.iter().map(|c| c.relative_cost).collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
    }
}

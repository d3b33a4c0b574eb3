//! Selectors: map `(profile, tolerance)` to the cheapest acceptable
//! algorithm.

use crate::calibrate::CalibrationTable;
use crate::cost::CostModel;
use crate::profile::DataProfile;
use repro_fp::UNIT_ROUNDOFF;
use repro_sum::Algorithm;

/// How much run-to-run variability the application can tolerate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tolerance {
    /// Absolute spread: the standard deviation of results across reduction
    /// orders must stay below this (the paper's Figure 12 thresholds
    /// `t = 5e-13 … 5e-14` are of this kind).
    AbsoluteSpread(f64),
    /// Spread relative to the magnitude of the result.
    RelativeSpread(f64),
    /// Bitwise reproducibility: only a reproducible operator will do.
    Bitwise,
}

impl Tolerance {
    /// The absolute spread budget for a result of about `sum_estimate`, or
    /// `None` when only a reproducible operator qualifies: under
    /// [`Tolerance::Bitwise`], and under a relative tolerance on a zero (or
    /// fully cancelled) sum, which has no magnitude to be relative to.
    pub fn budget(self, sum_estimate: f64) -> Option<f64> {
        match self {
            Tolerance::Bitwise => None,
            Tolerance::AbsoluteSpread(t) => Some(t),
            Tolerance::RelativeSpread(r) => {
                let scale = sum_estimate.abs();
                (scale != 0.0).then_some(r * scale)
            }
        }
    }
}

/// The manifest spelling: `bitwise`, `abs:{t}` or `rel:{r}`.
impl std::fmt::Display for Tolerance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tolerance::Bitwise => f.write_str("bitwise"),
            Tolerance::AbsoluteSpread(t) => write!(f, "abs:{t}"),
            Tolerance::RelativeSpread(r) => write!(f, "rel:{r}"),
        }
    }
}

/// Parses the [`Display`](std::fmt::Display) spelling back.
impl std::str::FromStr for Tolerance {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let bad = || format!("bad manifest tolerance {s:?}");
        if s == "bitwise" {
            return Ok(Tolerance::Bitwise);
        }
        let (kind, t) = s.split_once(':').ok_or_else(bad)?;
        let t = t.parse().map_err(|_| bad())?;
        match kind {
            "abs" => Ok(Tolerance::AbsoluteSpread(t)),
            "rel" => Ok(Tolerance::RelativeSpread(t)),
            _ => Err(bad()),
        }
    }
}

/// A selection policy.
pub trait Selector {
    /// The cheapest algorithm expected to meet `tolerance` on data shaped
    /// like `profile`.
    fn choose(&self, profile: &DataProfile, tolerance: Tolerance) -> Algorithm;
}

/// Analytic selector: closed-form variability predictors per algorithm.
///
/// Predicted spread across reduction orders (absolute):
///
/// | algorithm | predictor | rationale |
/// |-----------|-----------|-----------|
/// | ST | `√n · u · Σ\|x\|` | random-walk roundoff accumulation |
/// | K / Neumaier | `2u · Σ\|x\|` | compensated bound, n-independent |
/// | CP | `n · u² · Σ\|x\|` | second-order residual only |
/// | PR | `0` | bitwise reproducible |
///
/// These are the statistical counterparts of the bounds in `repro-fp`; the
/// calibrated selector replaces them with measurements.
#[derive(Clone, Debug, Default)]
pub struct HeuristicSelector {
    /// Cost model used to order candidates (defaults to the calibrated
    /// baseline, see [`CostModel::default`]).
    pub costs: CostModel,
}

/// Predicted absolute spread for one algorithm on one profile.
pub fn predicted_spread(alg: Algorithm, p: &DataProfile) -> f64 {
    let n = p.n.max(1) as f64;
    let a = p.abs_sum;
    match alg {
        Algorithm::Standard => n.sqrt() * UNIT_ROUNDOFF * a,
        Algorithm::Pairwise => n.log2().max(1.0).sqrt() * UNIT_ROUNDOFF * a,
        Algorithm::Kahan | Algorithm::Neumaier => 2.0 * UNIT_ROUNDOFF * a,
        Algorithm::Composite | Algorithm::DoubleDouble => n * UNIT_ROUNDOFF * UNIT_ROUNDOFF * a,
        Algorithm::Binned { .. } | Algorithm::Distill => 0.0,
    }
}

impl Selector for HeuristicSelector {
    fn choose(&self, profile: &DataProfile, tolerance: Tolerance) -> Algorithm {
        let Some(budget) = tolerance.budget(profile.sum_estimate) else {
            return Algorithm::PR;
        };
        for alg in self.costs.by_cost(&Algorithm::PAPER_SET) {
            if predicted_spread(alg, profile) <= budget {
                return alg;
            }
        }
        Algorithm::PR
    }
}

/// Empirical selector: nearest calibrated `(k, dr)` cell, cheapest
/// algorithm whose **measured** spread fits the budget (scaled by `n`
/// relative to the calibration size for the n-sensitive algorithms).
#[derive(Clone, Debug)]
pub struct CalibratedSelector {
    table: CalibrationTable,
    costs: CostModel,
}

impl CalibratedSelector {
    /// Wrap a calibration table with the default cost model.
    pub fn new(table: CalibrationTable) -> Self {
        Self {
            table,
            costs: CostModel::default(),
        }
    }

    /// Scale a calibrated spread from the calibration `n` to the profile's
    /// `n` (√n growth, per the random-walk model).
    fn rescale(&self, spread: f64, n: usize) -> f64 {
        let ratio = (n.max(1) as f64 / self.table.n.max(1) as f64).sqrt();
        spread * ratio
    }
}

impl Selector for CalibratedSelector {
    fn choose(&self, profile: &DataProfile, tolerance: Tolerance) -> Algorithm {
        let Some(budget) = tolerance.budget(profile.sum_estimate) else {
            return Algorithm::PR;
        };
        let cell = self.table.nearest(profile.k, profile.dr_decades());
        let mut candidates: Vec<(Algorithm, f64)> = cell.spread.clone();
        candidates.sort_by(|a, b| self.costs.cost(a.0).total_cmp(&self.costs.cost(b.0)));
        for (alg, measured) in candidates {
            if self.rescale(measured, profile.n) <= budget {
                return alg;
            }
        }
        Algorithm::PR
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::{calibrate, CalibrationConfig};
    use crate::profile::profile;

    #[test]
    fn bitwise_always_selects_pr() {
        let p = profile(&[1.0, 2.0]);
        assert_eq!(
            HeuristicSelector::default().choose(&p, Tolerance::Bitwise),
            Algorithm::PR
        );
    }

    #[test]
    fn manifest_spelling_round_trips() {
        for (tol, text) in [
            (Tolerance::Bitwise, "bitwise"),
            (Tolerance::AbsoluteSpread(1e-3), "abs:0.001"),
            (Tolerance::RelativeSpread(1e-8), "rel:0.00000001"),
            (Tolerance::AbsoluteSpread(f64::INFINITY), "abs:inf"),
        ] {
            assert_eq!(tol.to_string(), text);
            assert_eq!(text.parse::<Tolerance>(), Ok(tol));
        }
        for bad in ["", "Bitwise", "bitwise ", "abs:", "rel:x", "abs 1", "tol:1"] {
            assert!(bad.parse::<Tolerance>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn budget_is_none_only_where_reproducibility_is_required() {
        assert_eq!(Tolerance::Bitwise.budget(5.0), None);
        assert_eq!(Tolerance::AbsoluteSpread(1e-9).budget(0.0), Some(1e-9));
        assert_eq!(Tolerance::RelativeSpread(1e-9).budget(-4.0), Some(4e-9));
        assert_eq!(Tolerance::RelativeSpread(1e-9).budget(0.0), None);
        assert_eq!(Tolerance::RelativeSpread(1e-9).budget(-0.0), None);
    }

    #[test]
    fn loose_tolerance_selects_st_on_benign_data() {
        let values: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let p = profile(&values);
        let alg = HeuristicSelector::default().choose(&p, Tolerance::AbsoluteSpread(1e-6));
        assert_eq!(alg, Algorithm::Standard);
    }

    #[test]
    fn tightening_tolerance_escalates_monotonically() {
        let values = repro_gen::zero_sum_with_range(10_000, 16, 3);
        let p = profile(&values);
        let sel = HeuristicSelector::default();
        let mut last_rank = 0u8;
        for t in [1e-3, 1e-8, 1e-11, 1e-14, 1e-17, 0.0] {
            let alg = sel.choose(&p, Tolerance::AbsoluteSpread(t));
            assert!(
                alg.cost_rank() >= last_rank,
                "tolerance {t:e} de-escalated to {alg}"
            );
            last_rank = alg.cost_rank();
        }
        // The zero-tolerance end must be PR.
        assert_eq!(
            sel.choose(&p, Tolerance::AbsoluteSpread(0.0)),
            Algorithm::PR
        );
    }

    #[test]
    fn relative_tolerance_on_zero_sum_forces_pr() {
        let values = repro_gen::zero_sum_with_range(100, 8, 9);
        let p = profile(&values);
        let alg = HeuristicSelector::default().choose(&p, Tolerance::RelativeSpread(1e-6));
        assert_eq!(alg, Algorithm::PR);
    }

    #[test]
    fn calibrated_selector_is_cost_ordered_and_safe() {
        let table = calibrate(&CalibrationConfig {
            k_targets: vec![1.0, f64::INFINITY],
            dr_targets: vec![0, 16],
            n: 256,
            permutations: 6,
            algorithms: Algorithm::PAPER_SET.to_vec(),
            seed: 7,
        });
        let sel = CalibratedSelector::new(table);
        // Benign cell, generous budget: cheapest algorithm.
        let benign: Vec<f64> = (1..=256).map(|i| i as f64).collect();
        assert_eq!(
            sel.choose(&profile(&benign), Tolerance::AbsoluteSpread(1.0)),
            Algorithm::Standard
        );
        // Hostile cell, zero budget: PR.
        let hostile = repro_gen::zero_sum_with_range(256, 16, 1);
        assert_eq!(
            sel.choose(&profile(&hostile), Tolerance::AbsoluteSpread(0.0)),
            Algorithm::PR
        );
    }

    #[test]
    fn predicted_spread_orderings() {
        let values = repro_gen::zero_sum_with_range(4096, 8, 2);
        let p = profile(&values);
        let st = predicted_spread(Algorithm::Standard, &p);
        let k = predicted_spread(Algorithm::Kahan, &p);
        let cp = predicted_spread(Algorithm::Composite, &p);
        let pr = predicted_spread(Algorithm::PR, &p);
        assert!(st > k && k > cp && cp > pr);
        assert_eq!(pr, 0.0);
    }
}

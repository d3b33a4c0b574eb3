//! Verified reduction: *measure* the irreproducibility instead of
//! predicting it.
//!
//! The heuristic and calibrated selectors trust a model. [`VerifiedReducer`]
//! trusts nothing: it reduces the data under two independent random
//! reduction orders, and if the two results disagree by more than the
//! tolerance, escalates to the next costlier operator and tries again —
//! a runtime embodiment of the paper's reproducibility definition
//! ("closeness of agreement among repeated simulation results under the
//! same initial conditions"). It walks the serving ladder
//! ([`crate::selector::LADDER`]) cheapest first at the prices
//! [`crate::HeuristicSelector`] ranks by, so it tries the operators a
//! selector could choose, in the selector's order. Runs that share their
//! bits agree under every budget, so DS ([`crate::EXACT`]) ends the walk
//! at the latest: both of its runs are the exact sum, correctly rounded.
//!
//! The price is honest too: every verification pass costs a second
//! reduction, so this mode suits validation runs and selector calibration
//! more than hot loops (the ablation benches quantify the overhead).

use crate::cost::CostModel;
use crate::profile::profile;
use crate::selector::{Tolerance, LADDER};
use repro_fp::rng::DetRng;
use repro_sum::{Accumulator, Algorithm};

/// Outcome of one verified reduction.
#[derive(Clone, Debug)]
pub struct VerifiedOutcome {
    /// The accepted result (from the final algorithm's first run).
    pub sum: f64,
    /// The algorithm that passed verification.
    pub algorithm: Algorithm,
    /// Observed |disagreement| between the two runs of each tried
    /// algorithm, in escalation order (last entry passed). Runs with the
    /// same bits read 0, even where both are infinite or NaN.
    pub disagreements: Vec<(Algorithm, f64)>,
}

/// A reducer that verifies reproducibility empirically and escalates on
/// failure.
///
/// ```
/// use repro_select::{Tolerance, VerifiedReducer};
///
/// let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
/// let outcome = VerifiedReducer::new(Tolerance::AbsoluteSpread(1e-9), 1).reduce(&values);
/// assert_eq!(outcome.sum, 5050.0);
/// assert_eq!(outcome.algorithm.abbrev(), "ST"); // benign data passes rung 1
/// ```
#[derive(Clone, Debug)]
pub struct VerifiedReducer {
    tolerance: Tolerance,
    seed: u64,
}

impl VerifiedReducer {
    /// New verified reducer over the serving ladder, cheapest first at
    /// the committed prices ([`CostModel::default`]).
    pub fn new(tolerance: Tolerance, seed: u64) -> Self {
        Self { tolerance, seed }
    }

    /// Reduce with verification: the first rung, in price order at the
    /// values' `n` and cascade part count, whose two runs fit the
    /// tolerance wins. Two runs with the same bits fit every tolerance, so
    /// the walk stops at DS at the latest.
    pub fn reduce(&self, values: &[f64]) -> VerifiedOutcome {
        let p = profile(values);
        let rungs = CostModel::default().by_price(LADDER, p.n, p.cascade_parts());
        let mut rng = DetRng::seed_from_u64(self.seed);
        let mut shuffled = values.to_vec();
        let mut disagreements = Vec::new();
        for (alg, _) in rungs {
            // Run 1: given order. Run 2: independent random order.
            let first = run(alg, values);
            rng.shuffle(&mut shuffled);
            let second = run(alg, &shuffled);
            let same_bits = first.to_bits() == second.to_bits();
            let disagreement = if same_bits {
                0.0
            } else {
                (first - second).abs()
            };
            disagreements.push((alg, disagreement));
            let ok = same_bits
                || match self.tolerance {
                    Tolerance::Bitwise => false,
                    Tolerance::AbsoluteSpread(t) => disagreement <= t,
                    Tolerance::RelativeSpread(r) => {
                        let scale = first.abs().max(second.abs());
                        scale == 0.0 || disagreement <= r * scale
                    }
                };
            if ok {
                return VerifiedOutcome {
                    sum: first,
                    algorithm: alg,
                    disagreements,
                };
            }
        }
        unreachable!("DS's two runs share their bits on every input")
    }
}

fn run(alg: Algorithm, values: &[f64]) -> f64 {
    let mut acc = alg.new_accumulator();
    acc.add_slice(values);
    acc.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EXACT;

    #[test]
    fn benign_data_passes_on_the_first_rung() {
        // Below DS's break-even, where ST is the cheapest rung; above it,
        // DS is, and passes as the first rung too.
        let n = CostModel::default().break_even(2).unwrap();
        for (len, first) in [(n - 1, Algorithm::Standard), (2 * n, EXACT)] {
            let values: Vec<f64> = (1..=len).map(|i| i as f64).collect();
            let r = VerifiedReducer::new(Tolerance::AbsoluteSpread(1e-9), 1);
            let out = r.reduce(&values);
            assert_eq!(out.algorithm, first, "n = {len}");
            assert_eq!(out.sum, (len * (len + 1) / 2) as f64);
            assert_eq!(out.disagreements.len(), 1);
        }
    }

    #[test]
    fn hostile_data_escalates_past_standard() {
        let values = repro_gen::zero_sum_with_range(20_000, 32, 3);
        let r = VerifiedReducer::new(Tolerance::AbsoluteSpread(1e-10), 2);
        let out = r.reduce(&values);
        assert!(
            out.algorithm.cost_rank() > Algorithm::Standard.cost_rank(),
            "chose {}",
            out.algorithm
        );
        // The first rung's measured disagreement must be what forced the
        // escalation.
        assert!(out.disagreements[0].1 > 1e-10);
        // And the accepted result is actually good.
        assert!(repro_fp::abs_error(out.sum, &values) <= 1e-9);
    }

    #[test]
    fn bitwise_tolerance_reaches_ds() {
        // Four parts: DS never undercuts ST, so the walk tries ST first,
        // and DS before CP and K.
        let values = repro_gen::zero_sum_with_range(5_000, 32, 7);
        assert_eq!(profile(&values).cascade_parts(), 4);
        let r = VerifiedReducer::new(Tolerance::Bitwise, 9);
        let out = r.reduce(&values);
        assert_eq!(out.algorithm, EXACT);
        // ST's runs disagree; DS's self-disagreement is exactly zero.
        assert_eq!(out.disagreements.len(), 2);
        assert_eq!(out.disagreements[0].0, Algorithm::Standard);
        assert!(out.disagreements[0].1 > 0.0);
        assert_eq!(out.disagreements[1], (EXACT, 0.0));
        assert_eq!(out.sum.to_bits(), repro_fp::exact_sum(&values).to_bits());
    }

    /// One NaN gives both runs of every rung the same NaN, and runs with
    /// the same bits agree under every budget.
    #[test]
    fn nan_input_passes_the_first_rung() {
        let mut values = repro_gen::zero_sum_with_range(2_000, 16, 5);
        values[700] = f64::NAN;
        for tolerance in [
            Tolerance::Bitwise,
            Tolerance::AbsoluteSpread(0.0),
            Tolerance::RelativeSpread(0.0),
        ] {
            let out = VerifiedReducer::new(tolerance, 4).reduce(&values);
            assert_eq!(out.algorithm, Algorithm::Standard, "{tolerance:?}");
            assert!(out.sum.is_nan());
            assert_eq!(out.disagreements, [(Algorithm::Standard, 0.0)]);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let values = repro_gen::zero_sum_with_range(2_000, 16, 11);
        let a = VerifiedReducer::new(Tolerance::AbsoluteSpread(1e-12), 42).reduce(&values);
        let b = VerifiedReducer::new(Tolerance::AbsoluteSpread(1e-12), 42).reduce(&values);
        assert_eq!(a.sum.to_bits(), b.sum.to_bits());
        assert_eq!(a.algorithm, b.algorithm);
    }
}

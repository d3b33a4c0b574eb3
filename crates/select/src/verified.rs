//! Verified reduction: *measure* the irreproducibility instead of
//! predicting it.
//!
//! The heuristic and calibrated selectors trust a model. [`VerifiedReducer`]
//! trusts nothing: it reduces the data under two independent random
//! reduction orders, and if the two results disagree by more than the
//! tolerance, escalates to the next costlier operator and tries again —
//! a runtime embodiment of the paper's reproducibility definition
//! ("closeness of agreement among repeated simulation results under the
//! same initial conditions"). PR terminates the ladder: its two runs agree
//! bitwise by construction.
//!
//! The price is honest too: every verification pass costs a second
//! reduction, so this mode suits validation runs and selector calibration
//! more than hot loops (the ablation benches quantify the overhead).

use crate::selector::Tolerance;
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
    /// algorithm, in escalation order (last entry passed).
    pub disagreements: Vec<(Algorithm, f64)>,
}

/// A reducer that verifies reproducibility empirically and escalates on
/// failure.
///
/// ```
/// use repro_select::{Tolerance, VerifiedReducer};
///
/// let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
/// let outcome = VerifiedReducer::new(Tolerance::AbsoluteSpread(1e-9), 1)
///     .reduce(&values)
///     .unwrap();
/// assert_eq!(outcome.sum, 5050.0);
/// assert_eq!(outcome.algorithm.abbrev(), "ST"); // benign data passes rung 1
/// ```
#[derive(Clone, Debug)]
pub struct VerifiedReducer {
    tolerance: Tolerance,
    seed: u64,
}

impl VerifiedReducer {
    /// New verified reducer over the paper's algorithm ladder,
    /// [`Algorithm::PAPER_SET`], cheapest first.
    pub fn new(tolerance: Tolerance, seed: u64) -> Self {
        Self { tolerance, seed }
    }

    /// Reduce with verification. Returns `None` only if even the last
    /// ladder entry, PR, disagrees with itself beyond the tolerance. PR's
    /// two runs agree bitwise, so that takes a spread budget and a result
    /// that is not finite (a NaN or an infinity in the input), whose
    /// difference is NaN.
    pub fn reduce(&self, values: &[f64]) -> Option<VerifiedOutcome> {
        let mut rng = DetRng::seed_from_u64(self.seed);
        let mut shuffled = values.to_vec();
        let mut disagreements = Vec::new();
        for alg in Algorithm::PAPER_SET {
            // Run 1: given order. Run 2: independent random order.
            let first = run(alg, values);
            rng.shuffle(&mut shuffled);
            let second = run(alg, &shuffled);
            let disagreement = (first - second).abs();
            disagreements.push((alg, disagreement));
            let ok = match self.tolerance {
                Tolerance::Bitwise => first.to_bits() == second.to_bits(),
                Tolerance::AbsoluteSpread(t) => disagreement <= t,
                Tolerance::RelativeSpread(r) => {
                    let scale = first.abs().max(second.abs());
                    scale == 0.0 || disagreement <= r * scale
                }
            };
            if ok {
                return Some(VerifiedOutcome {
                    sum: first,
                    algorithm: alg,
                    disagreements,
                });
            }
        }
        None
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

    #[test]
    fn benign_data_passes_on_the_first_rung() {
        let values: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let r = VerifiedReducer::new(Tolerance::AbsoluteSpread(1e-9), 1);
        let out = r.reduce(&values).unwrap();
        assert_eq!(out.algorithm, Algorithm::Standard);
        assert_eq!(out.sum, 500_500.0);
        assert_eq!(out.disagreements.len(), 1);
    }

    #[test]
    fn hostile_data_escalates_past_standard() {
        let values = repro_gen::zero_sum_with_range(20_000, 32, 3);
        let r = VerifiedReducer::new(Tolerance::AbsoluteSpread(1e-10), 2);
        let out = r.reduce(&values).unwrap();
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
    fn bitwise_tolerance_reaches_pr() {
        let values = repro_gen::zero_sum_with_range(5_000, 32, 7);
        let r = VerifiedReducer::new(Tolerance::Bitwise, 9);
        let out = r.reduce(&values).unwrap();
        assert!(out.algorithm.is_reproducible() || out.disagreements.last().unwrap().1 == 0.0);
        // PR's self-disagreement is exactly zero.
        let (last_alg, last_d) = *out.disagreements.last().unwrap();
        assert_eq!(last_alg, out.algorithm);
        assert_eq!(last_d, 0.0);
    }

    #[test]
    fn nan_input_fails_every_rung() {
        let mut values = repro_gen::zero_sum_with_range(2_000, 16, 5);
        values[700] = f64::NAN;
        let r = VerifiedReducer::new(Tolerance::AbsoluteSpread(1.0), 4);
        assert!(
            r.reduce(&values).is_none(),
            "a NaN disagreement fits no budget"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let values = repro_gen::zero_sum_with_range(2_000, 16, 11);
        let a = VerifiedReducer::new(Tolerance::AbsoluteSpread(1e-12), 42)
            .reduce(&values)
            .unwrap();
        let b = VerifiedReducer::new(Tolerance::AbsoluteSpread(1e-12), 42)
            .reduce(&values)
            .unwrap();
        assert_eq!(a.sum.to_bits(), b.sum.to_bits());
        assert_eq!(a.algorithm, b.algorithm);
    }
}

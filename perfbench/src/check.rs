//! The reproducibility check applied to every reduce request, and the
//! per-op tally of checks.

use repro_select::Tolerance;

/// Outcome counts of a set of checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed, for any reason.
    pub failed: u64,
    /// Failed checks that break a guarantee the program makes without a
    /// budget: a result that differs from the same call's result in the
    /// first measured pass, two orders that differ under `Bitwise`, an
    /// aggregation digest that differs from its reference, or an error.
    pub broken: u64,
}

impl Checks {
    /// Tally one check.
    pub fn record(&mut self, verdict: Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Pass => {}
            Verdict::OverBudget => self.failed += 1,
            Verdict::Broken => {
                self.failed += 1;
                self.broken += 1;
            }
        }
    }

    /// Sum two tallies.
    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.broken += other.broken;
    }

    /// Keep the larger of each count.
    fn worst(&mut self, other: Checks) {
        self.attempted = self.attempted.max(other.attempted);
        self.failed = self.failed.max(other.failed);
        self.broken = self.broken.max(other.broken);
    }
}

/// The checks of a run that repeats one pass of ops until its time is up.
///
/// Every op of every pass is checked, but each op's checks count once,
/// with the failures of its worst pass. The tally is then the checks of
/// one pass of the request pool, a function of the inputs rather than of
/// how many passes fit in the run: results are bitwise steady from pass
/// to pass, and a result that changes is itself a failed (broken) check.
#[derive(Clone, Debug)]
pub struct PoolTally(Vec<Checks>);

impl PoolTally {
    /// A tally for passes of `ops` ops.
    pub fn new(ops: usize) -> Self {
        PoolTally(vec![Checks::default(); ops])
    }

    /// Record the checks of op `op` in one pass.
    pub fn record(&mut self, op: usize, checks: Checks) {
        self.0[op].worst(checks);
    }

    /// Each op's checks, once.
    pub fn total(&self) -> Checks {
        let mut total = Checks::default();
        for &op in &self.0 {
            total.add(op);
        }
        total
    }
}

/// Verdict of one check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within budget.
    Pass,
    /// Two orders differ by more than a spread budget allows.
    OverBudget,
    /// A guarantee without a budget is broken (see [`Checks::broken`]).
    Broken,
}

/// Whether the sums `a` and `b` of one input in two element orders meet
/// `budget`. `exact` is the correctly rounded sum of the input.
///
/// Identical bits always pass. Otherwise a spread budget bounds `|a − b|`;
/// a relative budget is relative to `|exact|`, so — as in the selector,
/// which answers a zero sum under a relative budget with a reproducible
/// operator — a zero exact sum leaves no room and needs identical bits.
/// NaN differences never pass.
pub fn reproducible(budget: Tolerance, a: f64, b: f64, exact: f64) -> Verdict {
    if a.to_bits() == b.to_bits() {
        return Verdict::Pass;
    }
    let allowed = match budget {
        Tolerance::Bitwise => return Verdict::Broken,
        Tolerance::AbsoluteSpread(t) => t,
        Tolerance::RelativeSpread(r) => r * exact.abs(),
    };
    if (a - b).abs() <= allowed && allowed > 0.0 {
        Verdict::Pass
    } else {
        Verdict::OverBudget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_fp::rng::DetRng;
    use repro_sum::{Accumulator, Algorithm};

    fn sum(alg: Algorithm, values: &[f64]) -> f64 {
        let mut acc = alg.new_accumulator();
        acc.add_slice(values);
        acc.finalize()
    }

    #[test]
    fn bitwise_flags_st_across_orders_and_passes_pr() {
        let a = repro_gen::grid_cell(4096, 1e12, 16, 7, 1e16);
        let mut b = a.clone();
        DetRng::seed_from_u64(11).shuffle(&mut b);
        let exact = repro_fp::exact_sum(&a);
        let (st_a, st_b) = (sum(Algorithm::Standard, &a), sum(Algorithm::Standard, &b));
        assert_ne!(
            st_a.to_bits(),
            st_b.to_bits(),
            "ST should be order-dependent here"
        );
        assert_eq!(
            reproducible(Tolerance::Bitwise, st_a, st_b, exact),
            Verdict::Broken
        );
        let (pr_a, pr_b) = (sum(Algorithm::PR, &a), sum(Algorithm::PR, &b));
        assert_eq!(
            reproducible(Tolerance::Bitwise, pr_a, pr_b, exact),
            Verdict::Pass
        );
    }

    #[test]
    fn relative_budget_scales_with_the_exact_sum() {
        let budget = Tolerance::RelativeSpread(1e-8);
        assert_eq!(reproducible(budget, 1.0, 1.0 + 1e-9, 1.0), Verdict::Pass);
        assert_eq!(
            reproducible(budget, 1.0, 1.0 + 1e-7, 1.0),
            Verdict::OverBudget
        );
        assert_eq!(
            reproducible(budget, 1e-20, -1e-20, 0.0),
            Verdict::OverBudget
        );
        assert_eq!(reproducible(budget, 0.0, -0.0, 0.0), Verdict::OverBudget);
        assert_eq!(reproducible(budget, 0.0, 0.0, 0.0), Verdict::Pass);
        assert_eq!(
            reproducible(budget, f64::NAN, 1.0, 1.0),
            Verdict::OverBudget
        );
    }

    fn checks(verdicts: &[Verdict]) -> Checks {
        let mut c = Checks::default();
        for &v in verdicts {
            c.record(v);
        }
        c
    }

    #[test]
    fn pool_tally_counts_each_op_once_with_its_worst_pass() {
        use Verdict::*;
        let mut pool = PoolTally::new(2);
        for _ in 0..5 {
            pool.record(0, checks(&[Pass, OverBudget, Pass]));
            pool.record(1, checks(&[Pass]));
        }
        let one_pass = Checks {
            attempted: 4,
            failed: 1,
            broken: 0,
        };
        assert_eq!(pool.total(), one_pass);
        pool.record(1, checks(&[Broken]));
        assert_eq!(
            pool.total(),
            Checks {
                attempted: 4,
                failed: 2,
                broken: 1
            }
        );
    }

    #[test]
    fn tally_counts_broken_checks_as_failed() {
        assert_eq!(
            checks(&[Verdict::Pass, Verdict::OverBudget, Verdict::Broken]),
            Checks {
                attempted: 3,
                failed: 2,
                broken: 1
            }
        );
    }
}

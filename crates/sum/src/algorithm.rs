//! Runtime-selectable algorithm identifiers — the vocabulary the intelligent
//! selector (`repro-select`) chooses from, and the dispatch glue that turns
//! an [`Algorithm`] tag into a live accumulator.

use crate::{
    Accumulator, BinnedSum, CompositeSum, DoubleDoubleSum, KahanSum, NeumaierSum, PairwiseSum,
    StandardSum,
};
use repro_fp::Superaccumulator;
use std::fmt;

/// A summation algorithm, identified at runtime.
///
/// The paper's four are [`Algorithm::Standard`] (ST), [`Algorithm::Kahan`]
/// (K), [`Algorithm::Composite`] (CP), and [`Algorithm::PR`] (prerounded —
/// the binned operator at fold 3). [`Algorithm::Neumaier`] and
/// [`Algorithm::Pairwise`] are classical extensions used by the ablation
/// benches. [`Algorithm::Distill`] (DS) is the exact sum: the reproducible
/// rung the selector serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// ST — plain recursive summation.
    Standard,
    /// K — Kahan's compensated summation.
    Kahan,
    /// Neumaier's improved compensated summation (extension).
    Neumaier,
    /// Pairwise/cascade summation (extension).
    Pairwise,
    /// CP — composite precision summation.
    Composite,
    /// Renormalizing double-double accumulation (He & Ding style; extension).
    DoubleDouble,
    /// PR — binned reproducible summation at the given fold.
    Binned {
        /// Number of live 40-bit bins (1..=4); 3 is the ReproBLAS default.
        fold: u8,
    },
    /// DS — the exact sum, correctly rounded once, on the
    /// [`Superaccumulator`]: bitwise reproducible because exact
    /// (extension). [`crate::DistillSum`], the expansion-backed exact sum,
    /// stays in this crate as an independent oracle for it.
    Distill,
}

impl Algorithm {
    /// The paper's prerounded operator: binned summation at fold 3.
    pub const PR: Algorithm = Algorithm::Binned { fold: 3 };

    /// The four algorithms the paper evaluates, in its cost order
    /// ST < K < CP < PR.
    pub const PAPER_SET: [Algorithm; 4] = [
        Algorithm::Standard,
        Algorithm::Kahan,
        Algorithm::Composite,
        Algorithm::PR,
    ];

    /// Every algorithm in this crate, cheapest first.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Standard,
        Algorithm::Pairwise,
        Algorithm::Kahan,
        Algorithm::Neumaier,
        Algorithm::Composite,
        Algorithm::DoubleDouble,
        Algorithm::PR,
        Algorithm::Distill,
    ];

    /// The paper's abbreviation (ST, K, CP, PR; N/PW for the extensions).
    pub fn abbrev(&self) -> &'static str {
        match self {
            Algorithm::Standard => "ST",
            Algorithm::Kahan => "K",
            Algorithm::Neumaier => "N",
            Algorithm::Pairwise => "PW",
            Algorithm::Composite => "CP",
            Algorithm::DoubleDouble => "DD",
            Algorithm::Binned { .. } => "PR",
            Algorithm::Distill => "DS",
        }
    }

    /// The inverse of [`Algorithm::abbrev`] over [`Algorithm::ALL`]; `"PR"`
    /// gives [`Algorithm::PR`]. Case-sensitive.
    pub fn from_abbrev(abbrev: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.abbrev() == abbrev)
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Standard => "standard summation",
            Algorithm::Kahan => "Kahan compensated summation",
            Algorithm::Neumaier => "Neumaier compensated summation",
            Algorithm::Pairwise => "pairwise summation",
            Algorithm::Composite => "composite precision summation",
            Algorithm::DoubleDouble => "double-double summation",
            Algorithm::Binned { .. } => "prerounded (binned) summation",
            Algorithm::Distill => "exact superaccumulator summation",
        }
    }

    /// Cost rank, cheapest = 0, consistent with the paper's measured
    /// ordering ST < K < CP < PR (Figures 4–5). Extensions slot between the
    /// paper's points by their arithmetic cost per element.
    pub fn cost_rank(&self) -> u8 {
        match self {
            Algorithm::Standard => 0,
            Algorithm::Pairwise => 1,
            Algorithm::Kahan => 2,
            Algorithm::Neumaier => 3,
            Algorithm::Composite => 4,
            Algorithm::DoubleDouble => 5,
            Algorithm::Binned { .. } => 6,
            Algorithm::Distill => 7,
        }
    }

    /// `true` if the operator guarantees bitwise-identical results under any
    /// reduction order and merge topology (PR by prerounding; DS by
    /// outright exactness).
    pub fn is_reproducible(&self) -> bool {
        matches!(self, Algorithm::Binned { .. } | Algorithm::Distill)
    }

    /// Create an accumulator for this algorithm.
    pub fn new_accumulator(&self) -> AlgoAccumulator {
        match self {
            Algorithm::Standard => AlgoAccumulator::Standard(StandardSum::new()),
            Algorithm::Kahan => AlgoAccumulator::Kahan(KahanSum::new()),
            Algorithm::Neumaier => AlgoAccumulator::Neumaier(NeumaierSum::new()),
            Algorithm::Pairwise => AlgoAccumulator::Pairwise(PairwiseSum::new()),
            Algorithm::Composite => AlgoAccumulator::Composite(CompositeSum::new()),
            Algorithm::DoubleDouble => AlgoAccumulator::DoubleDouble(DoubleDoubleSum::new()),
            Algorithm::Binned { fold } => AlgoAccumulator::Binned(BinnedSum::new(*fold as usize)),
            Algorithm::Distill => AlgoAccumulator::Distill(Superaccumulator::new()),
        }
    }

    /// Sequentially reduce a slice under this algorithm.
    pub fn sum(&self, values: &[f64]) -> f64 {
        let mut acc = self.new_accumulator();
        acc.add_slice(values);
        acc.finalize()
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::Binned { fold } => write!(f, "PR(fold={fold})"),
            other => f.write_str(other.abbrev()),
        }
    }
}

/// A live accumulator for a runtime-chosen [`Algorithm`] (enum dispatch, so
/// the hot loops stay monomorphic inside each arm).
#[derive(Clone, Debug)]
pub enum AlgoAccumulator {
    /// ST state.
    Standard(StandardSum),
    /// Kahan state.
    Kahan(KahanSum),
    /// Neumaier state.
    Neumaier(NeumaierSum),
    /// Pairwise state.
    Pairwise(PairwiseSum),
    /// CP state.
    Composite(CompositeSum),
    /// DD state.
    DoubleDouble(DoubleDoubleSum),
    /// PR state.
    Binned(BinnedSum),
    /// DS state: the exact register.
    Distill(Superaccumulator),
}

impl AlgoAccumulator {
    /// The algorithm tag this accumulator belongs to.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            AlgoAccumulator::Standard(_) => Algorithm::Standard,
            AlgoAccumulator::Kahan(_) => Algorithm::Kahan,
            AlgoAccumulator::Neumaier(_) => Algorithm::Neumaier,
            AlgoAccumulator::Pairwise(_) => Algorithm::Pairwise,
            AlgoAccumulator::Composite(_) => Algorithm::Composite,
            AlgoAccumulator::DoubleDouble(_) => Algorithm::DoubleDouble,
            AlgoAccumulator::Binned(b) => Algorithm::Binned {
                fold: b.fold() as u8,
            },
            AlgoAccumulator::Distill(_) => Algorithm::Distill,
        }
    }
}

impl Accumulator for AlgoAccumulator {
    fn add(&mut self, x: f64) {
        match self {
            AlgoAccumulator::Standard(a) => a.add(x),
            AlgoAccumulator::Kahan(a) => a.add(x),
            AlgoAccumulator::Neumaier(a) => a.add(x),
            AlgoAccumulator::Pairwise(a) => a.add(x),
            AlgoAccumulator::Composite(a) => a.add(x),
            AlgoAccumulator::DoubleDouble(a) => a.add(x),
            AlgoAccumulator::Binned(a) => a.add(x),
            AlgoAccumulator::Distill(a) => a.add(x),
        }
    }

    fn merge(&mut self, other: &Self) {
        match (self, other) {
            (AlgoAccumulator::Standard(a), AlgoAccumulator::Standard(b)) => a.merge(b),
            (AlgoAccumulator::Kahan(a), AlgoAccumulator::Kahan(b)) => a.merge(b),
            (AlgoAccumulator::Neumaier(a), AlgoAccumulator::Neumaier(b)) => a.merge(b),
            (AlgoAccumulator::Pairwise(a), AlgoAccumulator::Pairwise(b)) => a.merge(b),
            (AlgoAccumulator::Composite(a), AlgoAccumulator::Composite(b)) => a.merge(b),
            (AlgoAccumulator::DoubleDouble(a), AlgoAccumulator::DoubleDouble(b)) => a.merge(b),
            (AlgoAccumulator::Binned(a), AlgoAccumulator::Binned(b)) => a.merge(b),
            (AlgoAccumulator::Distill(a), AlgoAccumulator::Distill(b)) => a.merge(b),
            (a, b) => panic!(
                "cannot merge accumulators of different algorithms: {} vs {}",
                a.algorithm(),
                b.algorithm()
            ),
        }
    }

    fn finalize(&self) -> f64 {
        match self {
            AlgoAccumulator::Standard(a) => a.finalize(),
            AlgoAccumulator::Kahan(a) => a.finalize(),
            AlgoAccumulator::Neumaier(a) => a.finalize(),
            AlgoAccumulator::Pairwise(a) => a.finalize(),
            AlgoAccumulator::Composite(a) => a.finalize(),
            AlgoAccumulator::DoubleDouble(a) => a.finalize(),
            AlgoAccumulator::Binned(a) => a.finalize(),
            AlgoAccumulator::Distill(a) => a.finalize(),
        }
    }

    fn add_slice(&mut self, values: &[f64]) {
        match self {
            AlgoAccumulator::Standard(a) => a.add_slice(values),
            AlgoAccumulator::Kahan(a) => a.add_slice(values),
            AlgoAccumulator::Neumaier(a) => a.add_slice(values),
            AlgoAccumulator::Pairwise(a) => a.add_slice(values),
            AlgoAccumulator::Composite(a) => a.add_slice(values),
            AlgoAccumulator::DoubleDouble(a) => a.add_slice(values),
            AlgoAccumulator::Binned(a) => a.add_slice(values),
            AlgoAccumulator::Distill(a) => a.add_slice(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_order_and_labels() {
        let labels: Vec<&str> = Algorithm::PAPER_SET.iter().map(|a| a.abbrev()).collect();
        assert_eq!(labels, ["ST", "K", "CP", "PR"]);
        // Cost ranks strictly increase across the paper set.
        let ranks: Vec<u8> = Algorithm::PAPER_SET.iter().map(|a| a.cost_rank()).collect();
        assert!(ranks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn abbreviations_parse_back_over_all() {
        for alg in Algorithm::ALL {
            assert_eq!(Algorithm::from_abbrev(alg.abbrev()), Some(alg));
        }
        assert_eq!(Algorithm::from_abbrev("st"), None);
        assert_eq!(Algorithm::from_abbrev("PR(fold=3)"), None);
    }

    #[test]
    fn dispatch_sums_agree_with_direct_calls() {
        let values = [1e16, 1.0, -1e16, 0.5];
        assert_eq!(
            Algorithm::Standard.sum(&values),
            crate::StandardSum::sum_slice(&values)
        );
        assert_eq!(
            Algorithm::Kahan.sum(&values),
            crate::KahanSum::sum_slice(&values)
        );
        assert_eq!(
            Algorithm::Composite.sum(&values),
            crate::CompositeSum::sum_slice(&values)
        );
        assert_eq!(
            Algorithm::PR.sum(&values),
            crate::BinnedSum::sum_slice(&values, 3)
        );
        // DS is the exact sum: the expansion-backed oracle agrees.
        assert_eq!(
            Algorithm::Distill.sum(&values).to_bits(),
            crate::DistillSum::sum_slice(&values).to_bits()
        );
    }

    #[test]
    fn only_pr_and_distill_claim_reproducibility() {
        for alg in Algorithm::ALL {
            assert_eq!(
                alg.is_reproducible(),
                matches!(alg, Algorithm::Binned { .. } | Algorithm::Distill)
            );
        }
    }

    #[test]
    #[should_panic(expected = "different algorithms")]
    fn cross_algorithm_merge_panics() {
        let mut a = Algorithm::Standard.new_accumulator();
        let b = Algorithm::Kahan.new_accumulator();
        a.merge(&b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Algorithm::PR.to_string(), "PR(fold=3)");
        assert_eq!(Algorithm::Standard.to_string(), "ST");
    }
}

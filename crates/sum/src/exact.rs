//! The Kulisch superaccumulator as a reduction operator.
//!
//! [`repro_fp::Superaccumulator`] is the workspace's exact wide
//! fixed-point accumulator; implementing [`Accumulator`] for it makes the
//! *exact* operator a drop-in custom reduction operator for the runtime
//! engine, the mpisim collectives, and the fault-tolerant chaos harness.
//! Exactness makes it trivially reproducible: any merge association —
//! including one re-planned over a failure-survivor set — yields the same
//! bits.

use crate::Accumulator;
use repro_fp::Superaccumulator;

impl Accumulator for Superaccumulator {
    fn add(&mut self, x: f64) {
        Superaccumulator::add(self, x);
    }

    /// Route slices through the batched cascade kernel (bit-identical to
    /// the default per-element loop, substantially faster).
    fn add_slice(&mut self, values: &[f64]) {
        Superaccumulator::add_slice(self, values);
    }

    fn merge(&mut self, other: &Self) {
        Superaccumulator::merge(self, other);
    }

    fn finalize(&self) -> f64 {
        self.to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superaccumulator_is_an_exact_operator() {
        // 1e16 has ulp 2, so 1e16 - 2 is exactly representable; naive
        // summation of the interleaved stream loses the residue entirely.
        let values: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1e16 } else { -(1e16 - 2.0) })
            .collect();
        let mut acc = Superaccumulator::new();
        acc.add_slice(&values);
        // 500 pairs each leave exactly 2.0.
        assert_eq!(Accumulator::finalize(&acc), 1000.0);
    }

    #[test]
    fn merge_association_never_changes_the_bits() {
        let values: Vec<f64> = (0..512).map(|i| ((i * 37) % 101) as f64 * 1e-3).collect();
        let mut left = Superaccumulator::new();
        left.add_slice(&values);
        // Pairwise association over quarters.
        let quarters: Vec<Superaccumulator> = values
            .chunks(128)
            .map(|c| {
                let mut a = Superaccumulator::new();
                a.add_slice(c);
                a
            })
            .collect();
        let mut right = quarters[3].clone();
        Accumulator::merge(&mut right, &quarters[2]);
        let mut tail = quarters[1].clone();
        Accumulator::merge(&mut tail, &quarters[0]);
        Accumulator::merge(&mut right, &tail);
        assert_eq!(
            Accumulator::finalize(&left).to_bits(),
            Accumulator::finalize(&right).to_bits()
        );
    }
}

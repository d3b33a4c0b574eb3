//! Distillation summation: an **exact** mergeable operator backed by
//! Shewchuk expansions.
//!
//! The accumulator *is* the exact running sum, kept as a nonoverlapping
//! floating-point expansion and compressed when it grows. Exactness makes it
//! trivially bitwise reproducible (stronger than PR's prerounded guarantee),
//! at a data-dependent cost: each add walks the current expansion, whose
//! length tracks how "spread out" the accumulated bits are. On narrow data
//! it behaves like a 2–3 term compensated sum; on adversarial wide-range
//! data it can grow toward ~40 components.
//!
//! It is not the DS operator: [`crate::Algorithm::Distill`] runs on the
//! superaccumulator, which reaches the same correctly rounded sum several
//! times faster. This expansion-backed form stays as an exact oracle built
//! on different arithmetic, so the two can check each other.

use crate::Accumulator;
use repro_fp::Expansion;

/// When the expansion exceeds this many components, compress. (Compression
/// is O(len); the threshold trades walk length against compression count.)
const COMPRESS_AT: usize = 24;

/// Exact, expansion-backed summation ("distillation").
///
/// ```
/// use repro_sum::DistillSum;
/// let values = [1e300, 0.125, -1e300, 2e-300];
/// // Exact: bitwise equal to the superaccumulator reference.
/// assert_eq!(
///     DistillSum::sum_slice(&values).to_bits(),
///     repro_fp::exact_sum(&values).to_bits(),
/// );
/// ```
#[derive(Clone, Debug, Default)]
pub struct DistillSum {
    expansion: Expansion,
}

impl DistillSum {
    /// A fresh, zero-valued accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum a slice exactly.
    pub fn sum_slice(values: &[f64]) -> f64 {
        let mut acc = Self::new();
        acc.add_slice(values);
        acc.finalize()
    }

    /// Current number of expansion components (diagnostics).
    pub fn components(&self) -> usize {
        self.expansion.len()
    }
}

impl Accumulator for DistillSum {
    fn add(&mut self, x: f64) {
        if x == 0.0 {
            return;
        }
        self.expansion.add_f64(x);
        if self.expansion.len() > COMPRESS_AT {
            self.expansion.compress();
        }
    }

    fn merge(&mut self, other: &Self) {
        self.expansion.add_expansion(&other.expansion);
        if self.expansion.len() > COMPRESS_AT {
            self.expansion.compress();
        }
    }

    fn finalize(&self) -> f64 {
        self.expansion.to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn always_exactly_matches_the_superaccumulator() {
        let values: Vec<f64> = (0..3000)
            .map(|i| ((i * 53 % 211) as f64 - 105.0) * 2f64.powi((i % 80) - 40))
            .collect();
        assert_eq!(
            DistillSum::sum_slice(&values).to_bits(),
            repro_fp::exact_sum(&values).to_bits()
        );
    }

    #[test]
    fn bitwise_reproducible_because_exact() {
        let mut values: Vec<f64> = (0..500)
            .map(|i| ((i % 41) as f64 - 20.0) * 2f64.powi((i % 50) - 25))
            .collect();
        let reference = DistillSum::sum_slice(&values);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            values.shuffle(&mut rng);
            assert_eq!(
                DistillSum::sum_slice(&values).to_bits(),
                reference.to_bits()
            );
        }
    }

    #[test]
    fn merge_is_exact() {
        let a_vals = [1e200, -0.1, 2f64.powi(-500)];
        let b_vals = [-1e200, 0.1];
        let mut a = DistillSum::new();
        a.add_slice(&a_vals);
        let mut b = DistillSum::new();
        b.add_slice(&b_vals);
        a.merge(&b);
        assert_eq!(a.finalize(), 2f64.powi(-500));
    }

    #[test]
    fn compression_bounds_component_growth() {
        // Wide-spread adversarial data; the periodic compress must keep the
        // expansion from growing with n.
        let values: Vec<f64> = (0..10_000)
            .map(|i| (1.0 + (i % 7) as f64) * 2f64.powi((i % 120) - 60))
            .collect();
        let mut acc = DistillSum::new();
        acc.add_slice(&values);
        assert!(acc.components() <= 32, "components = {}", acc.components());
        assert_eq!(
            acc.finalize().to_bits(),
            repro_fp::exact_sum(&values).to_bits()
        );
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(DistillSum::new().finalize(), 0.0);
    }
}

//! Tree evaluation over mergeable accumulators.
//!
//! Evaluation is leaf-faithful: a leaf deposits its operand with
//! `Accumulator::add`; joining two multi-leaf subtrees uses
//! `Accumulator::merge`. A serial (left-spine) tree therefore reduces to the
//! algorithm's natural sequential loop — e.g. genuine Kahan summation — while
//! a balanced tree exercises the operator exactly the way an MPI custom
//! reduction would.

use crate::shape::{Splitter, TreeShape};
use repro_sum::{Accumulator, Algorithm};

/// Reduce `values` over a tree of the given shape with a runtime-selected
/// [`Algorithm`].
///
/// ```
/// use repro_tree::{reduce, TreeShape};
/// use repro_sum::Algorithm;
///
/// let values = [1e16, 1.0, -1e16, 2.5];
/// // Shape changes ST's answer ...
/// let a = reduce(&values, TreeShape::Serial, Algorithm::Standard);
/// let b = reduce(&values, TreeShape::Balanced, Algorithm::Standard);
/// assert_ne!(a, b);
/// // ... but not PR's.
/// let p = reduce(&values, TreeShape::Serial, Algorithm::PR);
/// let q = reduce(&values, TreeShape::Balanced, Algorithm::PR);
/// assert_eq!(p.to_bits(), q.to_bits());
/// ```
pub fn reduce(values: &[f64], shape: TreeShape, algorithm: Algorithm) -> f64 {
    reduce_with(values, shape, &|| algorithm.new_accumulator())
}

/// Reduce `values` over a tree of the given shape, with accumulators built
/// by `make` (generic; zero dispatch inside the hot recursion).
pub fn reduce_with<A: Accumulator>(values: &[f64], shape: TreeShape, make: &impl Fn() -> A) -> f64 {
    if values.is_empty() || shape == TreeShape::Serial {
        // The left spine is the operator's natural loop.
        let mut acc = make();
        acc.add_slice(values);
        return acc.finalize();
    }
    eval(values, make, &mut shape.splitter()).finalize()
}

/// Recursive evaluation, cutting each range by the shape's split rule.
fn eval<A: Accumulator>(values: &[f64], make: &impl Fn() -> A, cuts: &mut Splitter) -> A {
    debug_assert!(!values.is_empty());
    if values.len() == 1 {
        let mut acc = make();
        acc.add(values[0]);
        return acc;
    }
    let mid = cuts.split(values.len());
    let mut left = eval(&values[..mid], make, cuts);
    let right = eval(&values[mid..], make, cuts);
    left.merge(&right);
    left
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_sum::{BinnedSum, KahanSum, StandardSum};

    fn shapes() -> Vec<TreeShape> {
        vec![
            TreeShape::Balanced,
            TreeShape::Serial,
            TreeShape::Binomial,
            TreeShape::Skewed { ratio: 250 },
            TreeShape::Random { seed: 99 },
        ]
    }

    #[test]
    fn every_shape_sums_exact_integers_exactly() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        for shape in shapes() {
            let r = reduce_with(&values, shape, &StandardSum::new);
            assert_eq!(r, 5050.0, "{}", shape.label());
        }
    }

    #[test]
    fn empty_and_singleton() {
        for shape in shapes() {
            assert_eq!(reduce_with(&[], shape, &StandardSum::new), 0.0);
            assert_eq!(reduce_with(&[42.5], shape, &StandardSum::new), 42.5);
        }
    }

    #[test]
    fn serial_equals_plain_fold_for_standard() {
        let values = repro_gen::uniform(1000, -10.0, 10.0, 5);
        let folded: f64 = values.iter().sum();
        let serial = reduce_with(&values, TreeShape::Serial, &StandardSum::new);
        assert_eq!(serial.to_bits(), folded.to_bits());
    }

    #[test]
    fn serial_kahan_is_genuine_kahan() {
        let values = vec![0.1; 10_000];
        let serial = reduce_with(&values, TreeShape::Serial, &KahanSum::new);
        assert_eq!(serial, KahanSum::sum_slice(&values));
        assert_eq!(serial, repro_fp::exact_sum(&values));
    }

    #[test]
    fn balanced_differs_from_serial_for_standard_on_hard_data() {
        // On an ill-conditioned zero-sum set, tree shape must matter for ST
        // (this is the effect the paper's Figure 7 rows demonstrate).
        let values = repro_gen::zero_sum_with_range(4096, 24, 11);
        let balanced = reduce_with(&values, TreeShape::Balanced, &StandardSum::new);
        let serial = reduce_with(&values, TreeShape::Serial, &StandardSum::new);
        assert_ne!(balanced.to_bits(), serial.to_bits());
    }

    #[test]
    fn pr_is_shape_invariant_bitwise() {
        let values = repro_gen::zero_sum_with_range(2048, 24, 13);
        let make = || BinnedSum::new(3);
        let reference = reduce_with(&values, TreeShape::Balanced, &make);
        for shape in shapes() {
            let r = reduce_with(&values, shape, &make);
            assert_eq!(r.to_bits(), reference.to_bits(), "{}", shape.label());
        }
    }

    #[test]
    fn algorithm_dispatch_path_matches_generic_path() {
        let values = repro_gen::uniform(500, -1.0, 1.0, 21);
        let a = reduce(&values, TreeShape::Balanced, Algorithm::Kahan);
        let b = reduce_with(&values, TreeShape::Balanced, &KahanSum::new);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn random_shape_is_deterministic_per_seed() {
        let values = repro_gen::zero_sum_with_range(512, 16, 3);
        let s1 = reduce_with(&values, TreeShape::Random { seed: 4 }, &StandardSum::new);
        let s2 = reduce_with(&values, TreeShape::Random { seed: 4 }, &StandardSum::new);
        assert_eq!(s1.to_bits(), s2.to_bits());
    }
}

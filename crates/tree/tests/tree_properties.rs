//! Property tests for reduction-tree evaluation: shape-invariance of the
//! reproducible operators, shape-sensitivity of ST, attribution exactness.

use proptest::prelude::*;
use repro_sum::{Algorithm, BinnedSum, DistillSum, StandardSum};
use repro_tree::{reduce, reduce_with, ReductionTree, TreeShape};

fn values_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            6 => ((-25.0f64..25.0), any::<bool>()).prop_map(|(e, neg)| {
                let v = e.exp2();
                if neg { -v } else { v }
            }),
            2 => -1e6f64..1e6,
            1 => Just(0.0),
        ],
        1..150,
    )
}

fn arbitrary_shape() -> impl Strategy<Value = TreeShape> {
    prop_oneof![
        Just(TreeShape::Balanced),
        Just(TreeShape::Serial),
        Just(TreeShape::Binomial),
        (1u16..1000).prop_map(|ratio| TreeShape::Skewed { ratio }),
        any::<u64>().prop_map(|seed| TreeShape::Random { seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reproducible operators give identical bits on every tree shape.
    #[test]
    fn reproducible_ops_are_shape_invariant(
        values in values_strategy(),
        shape_a in arbitrary_shape(),
        shape_b in arbitrary_shape(),
    ) {
        let pr_a = reduce_with(&values, shape_a, &|| BinnedSum::new(3));
        let pr_b = reduce_with(&values, shape_b, &|| BinnedSum::new(3));
        prop_assert_eq!(pr_a.to_bits(), pr_b.to_bits(), "PR diverged across shapes");
        let ds_a = reduce_with(&values, shape_a, &DistillSum::new);
        let ds_b = reduce_with(&values, shape_b, &DistillSum::new);
        prop_assert_eq!(ds_a.to_bits(), ds_b.to_bits(), "Distill diverged across shapes");
        // And Distill equals the exact sum outright.
        prop_assert_eq!(ds_a.to_bits(), repro_fp::exact_sum(&values).to_bits());
    }

    /// Every algorithm on every shape stays within the Higham bound.
    #[test]
    fn all_shapes_respect_the_analytic_bound(
        values in values_strategy(),
        shape in arbitrary_shape(),
    ) {
        let bound = repro_fp::higham_bound(values.len(), repro_fp::exact_abs_sum(&values))
            + f64::MIN_POSITIVE;
        for alg in Algorithm::PAPER_SET {
            let sum = reduce(&values, shape, alg);
            let err = repro_fp::abs_error(sum, &values);
            prop_assert!(err <= bound, "{alg} on {}: {err:e} > {bound:e}", shape.label());
        }
    }

    /// Explicit trees and streaming evaluation agree bitwise for ST.
    #[test]
    fn explicit_tree_matches_streaming(
        values in values_strategy(),
        shape in arbitrary_shape(),
    ) {
        let explicit = ReductionTree::build(shape, values.len()).evaluate(&values);
        let streaming = reduce_with(&values, shape, &StandardSum::new);
        prop_assert_eq!(explicit.to_bits(), streaming.to_bits(), "{}", shape.label());
    }

    /// Error attribution identity: exact == root + Σ residuals, bitwise, on
    /// every shape.
    #[test]
    fn attribution_identity(values in values_strategy(), shape in arbitrary_shape()) {
        let tree = ReductionTree::build(shape, values.len());
        let (root, residuals) = tree.error_attribution(&values);
        let mut acc = repro_fp::Superaccumulator::new();
        acc.add(root);
        for r in residuals {
            acc.add(r);
        }
        prop_assert_eq!(acc.to_f64().to_bits(), repro_fp::exact_sum(&values).to_bits());
    }

    /// Permutations preserve the multiset (and therefore every reproducible
    /// operator's result).
    #[test]
    fn permutation_preserves_reproducible_results(
        values in values_strategy(),
        seed in any::<u64>(),
    ) {
        let perm = repro_tree::random_permutation(values.len(), seed);
        let permuted = repro_tree::apply_permutation(&values, &perm);
        let a = BinnedSum::sum_slice(&values, 3);
        let b = BinnedSum::sum_slice(&permuted, 3);
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }
}

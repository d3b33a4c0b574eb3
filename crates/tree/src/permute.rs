//! Leaf-assignment permutations: "for a fixed set of operands, even two
//! reduction trees with the same shape can yield different values ... if the
//! assignment of operands to leaves \[differs\]".

use crate::TreeShape;
use repro_fp::rng::DetRng;
use repro_fp::{abs_error_vs, Superaccumulator};
use repro_sum::Algorithm;

/// A uniformly random permutation of `0..n` (Fisher–Yates, seeded).
pub fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    assert!(n <= u32::MAX as usize);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut rng = DetRng::seed_from_u64(seed);
    rng.shuffle(&mut perm);
    perm
}

/// Apply a permutation: output`[i] = values[perm[i]]`.
pub fn apply_permutation(values: &[f64], perm: &[u32]) -> Vec<f64> {
    assert_eq!(values.len(), perm.len());
    perm.iter().map(|&i| values[i as usize]).collect()
}

/// Iterate `count` independent leaf assignments of `values`, reusing one
/// scratch buffer: the driver loop behind every "R distinct reduction trees
/// with permuted leaves" experiment.
pub struct PermutationStudy<'a> {
    values: &'a [f64],
    base_seed: u64,
    count: u64,
    next: u64,
    scratch: Vec<f64>,
}

impl<'a> PermutationStudy<'a> {
    /// New study over `values` with `count` permutations derived from
    /// `base_seed`. Permutation `i` uses seed `base_seed ⊕ i`-derived
    /// stream, so studies are reproducible and embarrassingly parallel.
    pub fn new(values: &'a [f64], count: u64, base_seed: u64) -> Self {
        Self {
            values,
            base_seed,
            count,
            next: 0,
            scratch: vec![0.0; values.len()],
        }
    }

    /// Visit each permuted arrangement; the callback receives the
    /// permutation index and the permuted values.
    pub fn for_each(mut self, mut f: impl FnMut(u64, &[f64])) {
        while self.next < self.count {
            let seed = self
                .base_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(self.next);
            let perm = random_permutation(self.values.len(), seed);
            for (slot, &src) in self.scratch.iter_mut().zip(perm.iter()) {
                *slot = self.values[src as usize];
            }
            f(self.next, &self.scratch);
            self.next += 1;
        }
    }

    /// The exact absolute error of each arrangement reduced with `alg` on
    /// a `shape` tree, in permutation order: the per-tree errors of every
    /// permuted-tree study. `exact` is the superaccumulated sum of the
    /// values.
    pub fn errors(self, exact: &Superaccumulator, shape: TreeShape, alg: Algorithm) -> Vec<f64> {
        let mut errors = Vec::with_capacity(self.count as usize);
        self.for_each(|_, permuted| {
            errors.push(abs_error_vs(exact, crate::reduce(permuted, shape, alg)));
        });
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_bijective() {
        let p = random_permutation(1000, 3);
        let mut seen = vec![false; 1000];
        for &i in &p {
            assert!(!seen[i as usize], "duplicate index {i}");
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        assert_eq!(random_permutation(100, 9), random_permutation(100, 9));
        assert_ne!(random_permutation(100, 9), random_permutation(100, 10));
    }

    #[test]
    fn apply_moves_values() {
        let values = [10.0, 20.0, 30.0];
        let perm = [2u32, 0, 1];
        assert_eq!(apply_permutation(&values, &perm), vec![30.0, 10.0, 20.0]);
    }

    #[test]
    fn study_visits_count_permutations_of_same_multiset() {
        let values = [1.0, 2.0, 3.0, 4.0];
        let mut seen = 0;
        PermutationStudy::new(&values, 25, 7).for_each(|i, permuted| {
            assert_eq!(i, seen);
            seen += 1;
            let mut sorted = permuted.to_vec();
            sorted.sort_by(f64::total_cmp);
            assert_eq!(sorted, vec![1.0, 2.0, 3.0, 4.0]);
        });
        assert_eq!(seen, 25);
    }

    #[test]
    fn study_permutations_differ_from_each_other() {
        let values: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut arrangements = Vec::new();
        PermutationStudy::new(&values, 5, 1).for_each(|_, p| arrangements.push(p.to_vec()));
        for i in 0..arrangements.len() {
            for j in i + 1..arrangements.len() {
                assert_ne!(
                    arrangements[i], arrangements[j],
                    "perms {i} and {j} collide"
                );
            }
        }
    }
}

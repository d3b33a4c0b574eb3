//! Reduction-tree shapes.

use repro_fp::rng::DetRng;

/// The shape of a full binary reduction tree over `n` leaves.
///
/// The paper studies the two ends of the spectrum — [`TreeShape::Balanced`]
/// (maximum concurrency, depth `⌈log₂ n⌉`) and [`TreeShape::Serial`]
/// (no concurrency, depth `n − 1`) — and argues exascale trees will wander
/// between them as resources fluctuate. The other variants populate that
/// middle ground for the ablation benches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TreeShape {
    /// Completely balanced: split every range in half (Figure 1a).
    Balanced,
    /// Completely unbalanced: a left spine; each internal node folds one
    /// more leaf into the running partial (Figure 1b).
    Serial,
    /// Random full binary tree: each internal node splits its range at a
    /// uniformly random point (seeded, reproducible).
    Random {
        /// Seed for the shape (not the leaf assignment).
        seed: u64,
    },
    /// Binomial-tree schedule (MPI recursive doubling): like balanced but
    /// splits at the largest power of two below the range length.
    Binomial,
    /// Splits every range at fraction `ratio` (per-mille, 1..=999);
    /// `Skewed { ratio: 500 }` ≈ balanced, small ratios approach serial.
    Skewed {
        /// Left-child share of each split, in thousandths.
        ratio: u16,
    },
}

impl TreeShape {
    /// Depth of the tree over `n` leaves (edges on the longest root-leaf
    /// path); for [`TreeShape::Random`], of the tree its seed builds.
    pub fn depth(&self, n: usize) -> usize {
        fn walk(cuts: &mut Splitter, n: usize) -> usize {
            if n <= 1 {
                return 0;
            }
            let left = cuts.split(n);
            1 + walk(cuts, left).max(walk(cuts, n - left))
        }
        match self {
            // The left spine in closed form: the walk would recurse n deep.
            TreeShape::Serial => n.saturating_sub(1),
            _ => walk(&mut self.splitter(), n),
        }
    }

    /// The split rule of this shape, the one copy of it: the streaming
    /// evaluator ([`crate::reduce_with`]), the explicit builder
    /// ([`crate::ReductionTree::build`]) and [`TreeShape::depth`] all cut
    /// their ranges through it. A walk takes a fresh splitter and cuts in
    /// pre-order (a range, then its left subtree, then its right), so a
    /// random tree is a function of its seed.
    pub(crate) fn splitter(self) -> Splitter {
        let seed = match self {
            TreeShape::Random { seed } => seed,
            _ => 0,
        };
        Splitter {
            shape: self,
            rng: DetRng::seed_from_u64(seed),
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            TreeShape::Balanced => "balanced".into(),
            TreeShape::Serial => "serial".into(),
            TreeShape::Random { seed } => format!("random(seed={seed})"),
            TreeShape::Binomial => "binomial".into(),
            TreeShape::Skewed { ratio } => format!("skewed({:.1}%)", *ratio as f64 / 10.0),
        }
    }
}

/// One walk's cuts through a [`TreeShape`] (see [`TreeShape::splitter`]).
pub(crate) struct Splitter {
    shape: TreeShape,
    /// Draws `Random`'s cuts; unused by the other shapes.
    rng: DetRng,
}

impl Splitter {
    /// Where a range of `len >= 2` leaves cuts: its left child's leaf
    /// count, in `1..len`.
    pub(crate) fn split(&mut self, len: usize) -> usize {
        debug_assert!(len >= 2);
        match self.shape {
            TreeShape::Balanced => len / 2,
            TreeShape::Serial => len - 1,
            // The largest power of two below the length, or half a power
            // of two.
            TreeShape::Binomial => {
                let p = prev_power_of_two(len);
                if p == len {
                    len / 2
                } else {
                    p
                }
            }
            TreeShape::Skewed { ratio } => split_at(len, ratio),
            TreeShape::Random { .. } => self.rng.random_range(1..len),
        }
    }
}

/// Largest power of two `<= n` (`n >= 1`).
fn prev_power_of_two(n: usize) -> usize {
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// Split an `n`-leaf range at `ratio` thousandths, keeping both sides
/// nonempty.
fn split_at(n: usize, ratio: u16) -> usize {
    debug_assert!(n >= 2);
    let left = (n as u128 * ratio as u128 / 1000) as usize;
    left.clamp(1, n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_depth_is_logarithmic() {
        assert_eq!(TreeShape::Balanced.depth(1), 0);
        assert_eq!(TreeShape::Balanced.depth(2), 1);
        assert_eq!(TreeShape::Balanced.depth(8), 3);
        assert_eq!(TreeShape::Balanced.depth(9), 4);
        assert_eq!(TreeShape::Balanced.depth(1 << 20), 20);
    }

    #[test]
    fn serial_depth_is_linear() {
        assert_eq!(TreeShape::Serial.depth(2), 1);
        assert_eq!(TreeShape::Serial.depth(100), 99);
    }

    #[test]
    fn binomial_depth_matches_balanced_at_powers_of_two() {
        assert_eq!(TreeShape::Binomial.depth(16), TreeShape::Balanced.depth(16));
        // Non-powers: at most one deeper than balanced.
        for n in [5usize, 100, 1000] {
            assert!(TreeShape::Binomial.depth(n) <= TreeShape::Balanced.depth(n) + 1);
        }
    }

    #[test]
    fn skewed_interpolates_between_extremes() {
        let n = 256;
        let near_serial = TreeShape::Skewed { ratio: 995 }.depth(n);
        let near_balanced = TreeShape::Skewed { ratio: 500 }.depth(n);
        assert!(near_serial > near_balanced);
        assert_eq!(near_balanced, TreeShape::Balanced.depth(n));
    }

    #[test]
    fn skewed_extreme_ratios_still_partition() {
        for ratio in [1u16, 999] {
            for n in [2usize, 3, 100] {
                let left = split_at(n, ratio);
                assert!(left >= 1 && left < n, "ratio {ratio} n {n} left {left}");
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = [
            TreeShape::Balanced,
            TreeShape::Serial,
            TreeShape::Binomial,
            TreeShape::Random { seed: 1 },
            TreeShape::Skewed { ratio: 100 },
        ]
        .iter()
        .map(|s| s.label())
        .collect();
        let unique: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn helpers() {
        assert_eq!(prev_power_of_two(1), 1);
        assert_eq!(prev_power_of_two(7), 4);
        assert_eq!(prev_power_of_two(8), 8);
        assert_eq!(split_at(10, 500), 5);
        assert_eq!(split_at(2, 1), 1); // clamped to keep both sides nonempty
        assert_eq!(split_at(2, 999), 1);
    }
}

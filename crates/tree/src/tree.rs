//! Explicit reduction trees: inspectable structure, ASCII rendering, and
//! exact per-node error attribution.
//!
//! The closures in [`mod@crate::reduce`] evaluate shapes without materializing
//! nodes — right for experiments over a million leaves. This module builds
//! the tree *explicitly* for analysis: which internal node contributed how
//! much rounding error, and where in the tree the damage concentrates.
//!
//! The central identity (exact, not an estimate): for standard summation,
//! every internal node computes `fl(a + b) = a + b − e` with `e` recoverable
//! error-free via two_sum, so
//!
//! ```text
//! exact_sum(leaves) = root_value + Σ (per-node e)
//! ```
//!
//! holds **bitwise**. [`ReductionTree::error_attribution`] returns those
//! per-node residuals; tests verify the identity against the
//! superaccumulator.

use crate::shape::{Splitter, TreeShape};
use repro_fp::two_sum;

/// One node of an explicit reduction tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Node {
    /// A leaf holding the operand at this index.
    Leaf {
        /// Index into the operand slice.
        value_index: u32,
    },
    /// An internal partial reduction.
    Internal {
        /// Left child node id.
        left: u32,
        /// Right child node id.
        right: u32,
    },
}

/// An explicit full binary reduction tree over `n` leaves.
#[derive(Clone, Debug)]
pub struct ReductionTree {
    nodes: Vec<Node>,
    root: u32,
    n_leaves: usize,
}

impl ReductionTree {
    /// Materialize the tree a [`TreeShape`] describes over `n` leaves.
    pub fn build(shape: TreeShape, n: usize) -> Self {
        assert!(n >= 1, "a reduction tree needs at least one leaf");
        let mut nodes = Vec::with_capacity(2 * n - 1);
        let root = build_range(&mut nodes, &mut shape.splitter(), 0, n);
        Self {
            nodes,
            root,
            n_leaves: n,
        }
    }

    /// Assemble a tree from raw nodes (used by the topology builder).
    /// `nodes` must form a full binary tree over `n_leaves` distinct leaf
    /// indices with `root` as its root; checked in debug builds.
    pub(crate) fn from_raw(nodes: Vec<Node>, root: u32, n_leaves: usize) -> Self {
        debug_assert_eq!(nodes.len(), 2 * n_leaves - 1);
        let tree = Self {
            nodes,
            root,
            n_leaves,
        };
        debug_assert_eq!(tree.count_leaves(tree.root), n_leaves);
        tree
    }

    /// Leaf count of a subtree (structural validation).
    fn count_leaves(&self, node: u32) -> usize {
        match self.nodes[node as usize] {
            Node::Leaf { .. } => 1,
            Node::Internal { left, right } => self.count_leaves(left) + self.count_leaves(right),
        }
    }

    /// The root node id.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Access a node by id.
    pub fn node(&self, id: u32) -> Node {
        self.nodes[id as usize]
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.n_leaves
    }

    /// Total number of nodes (`2n − 1`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for the (impossible by construction) empty tree — provided
    /// for clippy-friendly symmetry with [`ReductionTree::len`].
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Depth (edges on the longest root-leaf path).
    pub fn depth(&self) -> usize {
        self.depth_of(self.root)
    }

    fn depth_of(&self, node: u32) -> usize {
        match self.nodes[node as usize] {
            Node::Leaf { .. } => 0,
            Node::Internal { left, right } => 1 + self.depth_of(left).max(self.depth_of(right)),
        }
    }

    /// Evaluate with plain f64 additions, returning the root value.
    pub fn evaluate(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.n_leaves);
        self.value_of(self.root, values)
    }

    fn value_of(&self, node: u32, values: &[f64]) -> f64 {
        match self.nodes[node as usize] {
            Node::Leaf { value_index } => values[value_index as usize],
            Node::Internal { left, right } => {
                self.value_of(left, values) + self.value_of(right, values)
            }
        }
    }

    /// Evaluate with plain f64 additions and recover, per internal node, the
    /// **exact** local rounding error (via two_sum). Returns
    /// `(root_value, residuals)` where `residuals[i]` is the error of node
    /// `i` (0 for leaves), satisfying bitwise:
    /// `exact_sum = root_value + Σ residuals`.
    pub fn error_attribution(&self, values: &[f64]) -> (f64, Vec<f64>) {
        assert_eq!(values.len(), self.n_leaves);
        let mut residuals = vec![0.0; self.nodes.len()];
        let root = self.attributed_value(self.root, values, &mut residuals);
        (root, residuals)
    }

    fn attributed_value(&self, node: u32, values: &[f64], residuals: &mut [f64]) -> f64 {
        match self.nodes[node as usize] {
            Node::Leaf { value_index } => values[value_index as usize],
            Node::Internal { left, right } => {
                let a = self.attributed_value(left, values, residuals);
                let b = self.attributed_value(right, values, residuals);
                let (s, e) = two_sum(a, b);
                residuals[node as usize] = e;
                s
            }
        }
    }

    /// The internal nodes holding the largest absolute residuals, as
    /// `(node_id, residual)`, biggest first — "where did my error happen".
    pub fn worst_nodes(&self, values: &[f64], count: usize) -> Vec<(u32, f64)> {
        let (_, residuals) = self.error_attribution(values);
        let mut indexed: Vec<(u32, f64)> = residuals
            .iter()
            .enumerate()
            .filter(|(_, r)| **r != 0.0)
            .map(|(i, r)| (i as u32, *r))
            .collect();
        indexed.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        indexed.truncate(count);
        indexed
    }

    /// Graphviz DOT rendering (for papers, docs, and debugging):
    /// `dot -Tpng out.dot` draws the tree with leaf values and internal
    /// partial sums.
    pub fn render_dot(&self, values: &[f64]) -> String {
        assert_eq!(values.len(), self.n_leaves);
        let mut out = String::from("digraph reduction {\n  node [shape=box];\n");
        for (id, node) in self.nodes.iter().enumerate() {
            match node {
                Node::Leaf { value_index } => {
                    out.push_str(&format!(
                        "  n{id} [label=\"x[{value_index}] = {:.3e}\", style=filled];\n",
                        values[*value_index as usize]
                    ));
                }
                Node::Internal { left, right } => {
                    out.push_str(&format!(
                        "  n{id} [label=\"{:.3e}\"];\n  n{id} -> n{left};\n  n{id} -> n{right};\n",
                        self.value_of(id as u32, values)
                    ));
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// ASCII rendering for small trees (sideways, root at the left).
    pub fn render(&self, values: &[f64]) -> String {
        let mut out = String::new();
        self.render_node(self.root, values, 0, &mut out);
        out
    }

    fn render_node(&self, node: u32, values: &[f64], depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self.nodes[node as usize] {
            Node::Leaf { value_index } => {
                out.push_str(&format!(
                    "{pad}leaf[{value_index}] = {:e}\n",
                    values[value_index as usize]
                ));
            }
            Node::Internal { left, right } => {
                out.push_str(&format!(
                    "{pad}node#{node} = {:e}\n",
                    self.value_of(node, values)
                ));
                self.render_node(left, values, depth + 1, out);
                self.render_node(right, values, depth + 1, out);
            }
        }
    }
}

/// Build nodes covering `range` of the leaf indices `[lo, lo+len)`;
/// returns the subtree root id.
fn build_range(nodes: &mut Vec<Node>, cuts: &mut Splitter, lo: usize, len: usize) -> u32 {
    if len == 1 {
        nodes.push(Node::Leaf {
            value_index: lo as u32,
        });
        return (nodes.len() - 1) as u32;
    }
    let split = cuts.split(len);
    let left = build_range(nodes, cuts, lo, split);
    let right = build_range(nodes, cuts, lo + split, len - split);
    nodes.push(Node::Internal { left, right });
    (nodes.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_fp::Superaccumulator;

    #[test]
    fn structure_counts() {
        for n in [1usize, 2, 7, 64, 100] {
            let t = ReductionTree::build(TreeShape::Balanced, n);
            assert_eq!(t.leaves(), n);
            assert_eq!(t.len(), 2 * n - 1);
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn depths_match_shape_formulas() {
        for shape in [
            TreeShape::Balanced,
            TreeShape::Serial,
            TreeShape::Binomial,
            TreeShape::Skewed { ratio: 100 },
            TreeShape::Skewed { ratio: 900 },
            TreeShape::Random { seed: 11 },
            TreeShape::Random { seed: 77 },
        ] {
            for n in [1usize, 2, 9, 64, 100, 1024] {
                let t = ReductionTree::build(shape, n);
                assert_eq!(t.depth(), shape.depth(n), "{} n={n}", shape.label());
            }
        }
    }

    #[test]
    fn evaluate_matches_streaming_reduce() {
        let values = repro_gen::zero_sum_with_range(512, 16, 9);
        for shape in [
            TreeShape::Balanced,
            TreeShape::Serial,
            TreeShape::Binomial,
            TreeShape::Skewed { ratio: 300 },
            TreeShape::Random { seed: 8 },
            TreeShape::Random { seed: 77 },
        ] {
            let explicit = ReductionTree::build(shape, values.len()).evaluate(&values);
            let streaming = crate::reduce(&values, shape, repro_sum::Algorithm::Standard);
            assert_eq!(explicit.to_bits(), streaming.to_bits(), "{}", shape.label());
        }
    }

    #[test]
    fn error_attribution_identity_is_bitwise() {
        // exact_sum == root + sum(residuals), exactly, on hostile data.
        let values = repro_gen::zero_sum_with_range(1000, 32, 4);
        for shape in [
            TreeShape::Balanced,
            TreeShape::Serial,
            TreeShape::Random { seed: 8 },
        ] {
            let tree = ReductionTree::build(shape, values.len());
            let (root, residuals) = tree.error_attribution(&values);
            let mut acc = Superaccumulator::new();
            acc.add(root);
            acc.add_slice(&residuals);
            let reconstructed = acc.to_f64();
            let exact = repro_fp::exact_sum(&values);
            assert_eq!(
                reconstructed.to_bits(),
                exact.to_bits(),
                "{}: root {root:e} + residuals != exact {exact:e}",
                shape.label()
            );
        }
    }

    #[test]
    fn worst_nodes_finds_the_planted_catastrophe() {
        // 1e16 and -1e16 cancel at the very last (serial) node; the tiny
        // values' information was destroyed where the big values met.
        let values = vec![1e16, 1.0, 1.0, 1.0, -1e16];
        let tree = ReductionTree::build(TreeShape::Serial, values.len());
        // Each of the three additions of 1.0 into 1e16 loses its addend
        // entirely (residual 1.0); the final cancellation itself is exact.
        let worst = tree.worst_nodes(&values, 4);
        assert_eq!(worst.len(), 3, "three lossy nodes: {worst:?}");
        assert!(worst.iter().all(|(_, r)| r.abs() == 1.0));
        let (_, residuals) = tree.error_attribution(&values);
        assert_eq!(residuals.iter().sum::<f64>(), 3.0);
    }

    #[test]
    fn render_shows_small_trees() {
        let values = [1.0, 2.0, 3.0];
        let tree = ReductionTree::build(TreeShape::Balanced, 3);
        let s = tree.render(&values);
        assert!(s.contains("leaf[0] = 1e0"));
        assert!(s.contains("node#"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    fn dot_rendering_is_well_formed() {
        let values = [1.0, 2.0, 3.0, 4.0];
        let tree = ReductionTree::build(TreeShape::Balanced, 4);
        let dot = tree.render_dot(&values);
        assert!(dot.starts_with("digraph reduction {"));
        assert!(dot.trim_end().ends_with('}'));
        // 4 leaves + 3 internal nodes; 6 edges.
        assert_eq!(dot.matches("style=filled").count(), 4);
        assert_eq!(dot.matches("->").count(), 6);
        assert!(dot.contains("1.000e0"));
    }

    #[test]
    fn random_trees_are_reproducible_per_seed() {
        let a = ReductionTree::build(TreeShape::Random { seed: 5 }, 64);
        let b = ReductionTree::build(TreeShape::Random { seed: 5 }, 64);
        let values = repro_gen::uniform(64, -1.0, 1.0, 0);
        assert_eq!(a.evaluate(&values).to_bits(), b.evaluate(&values).to_bits());
    }
}

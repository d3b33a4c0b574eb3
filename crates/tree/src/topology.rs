//! Machine topology and topology-aware reduction trees — the paper's
//! Section II-B motivation, made executable.
//!
//! "The most performant reduction trees are those that take into account
//! the underlying physical topology of the system, which means reducing
//! values in an order based on which core produced them, not necessarily
//! their arithmetical properties. ... Balaji and Kimpe showed not only that
//! topology-aware reduction trees for MPI collective operations outperform
//! fixed-reduction trees but that the performance advantage ... increases
//! with the number of cores."
//!
//! [`Machine`] models a hierarchical interconnect (cores within sockets
//! within nodes within racks, each level with its own hop latency).
//! [`topology_aware_tree`] reduces within the cheapest enclosure first;
//! [`rank_order_tree`] is the fixed tree that ignores placement. A simple
//! critical-path model quantifies the gap — and because the topology-aware
//! tree's *shape* follows the (run-to-run varying) set of live cores, it is
//! also the concrete mechanism by which "reduction trees will vary not only
//! in terms of arrangement of data among their leaves but also in overall
//! shape".

use crate::tree::{Node, ReductionTree};
use repro_fp::rng::DetRng;

/// One level of the interconnect hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct Level {
    /// Children per parent at this level (e.g. 8 cores per socket).
    pub arity: usize,
    /// One-hop latency for communication crossing this level, in
    /// arbitrary time units (e.g. nanoseconds).
    pub latency: f64,
}

/// A hierarchical machine: levels from innermost (cores) outward (racks).
///
/// ```
/// use repro_tree::topology::Machine;
/// let m = Machine::typical_cluster();
/// assert_eq!(m.cores(), 256);
/// assert_eq!(m.link_latency(0, 1), 5.0);    // same socket
/// assert_eq!(m.link_latency(0, 255), 2000.0); // cross rack
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    levels: Vec<Level>,
}

impl Machine {
    /// Build a machine from innermost to outermost level.
    ///
    /// `Machine::new(&[Level{arity:8, latency:5.0}, Level{arity:4,
    /// latency:100.0}])` = 4 nodes × 8 cores, core-to-core 5, cross-node
    /// 100.
    pub fn new(levels: &[Level]) -> Self {
        assert!(!levels.is_empty());
        assert!(levels.iter().all(|l| l.arity >= 1 && l.latency >= 0.0));
        Self {
            levels: levels.to_vec(),
        }
    }

    /// A typical cluster: 2 racks × 8 nodes × 2 sockets × 8 cores.
    pub fn typical_cluster() -> Self {
        Self::new(&[
            Level {
                arity: 8,
                latency: 5.0,
            }, // cores in a socket
            Level {
                arity: 2,
                latency: 40.0,
            }, // sockets in a node
            Level {
                arity: 8,
                latency: 400.0,
            }, // nodes in a rack
            Level {
                arity: 2,
                latency: 2000.0,
            }, // racks
        ])
    }

    /// Total core count.
    pub fn cores(&self) -> usize {
        self.levels.iter().map(|l| l.arity).product()
    }

    /// Latency of one message between two cores: the hop cost of the
    /// outermost level their paths diverge at (0 for a core talking to
    /// itself).
    pub fn link_latency(&self, a: usize, b: usize) -> f64 {
        if a == b {
            return 0.0;
        }
        let mut span = 1usize;
        let mut cost = 0.0;
        for level in &self.levels {
            span *= level.arity;
            cost = level.latency;
            if a / span == b / span {
                return cost;
            }
        }
        cost
    }

    /// The enclosure sizes (cores per socket, per node, ...) innermost
    /// first — the grouping granularities a topology-aware tree uses.
    pub fn enclosure_spans(&self) -> Vec<usize> {
        let mut spans = Vec::with_capacity(self.levels.len());
        let mut span = 1usize;
        for level in &self.levels {
            span *= level.arity;
            spans.push(span);
        }
        spans
    }
}

/// Build a topology-aware reduction tree over the given live cores:
/// reduce within sockets, then nodes, then racks — each group reduced by a
/// balanced tree, group representatives merged at the next level. Leaf `i`
/// of the returned tree corresponds to `live_cores[i]`'s value.
pub fn topology_aware_tree(machine: &Machine, live_cores: &[usize]) -> ReductionTree {
    assert!(!live_cores.is_empty());
    assert!(
        live_cores.windows(2).all(|w| w[0] < w[1]),
        "cores must be sorted unique"
    );
    // Recursive grouping by enclosure spans, innermost last.
    let spans = machine.enclosure_spans();
    let mut nodes: Vec<Node> = Vec::with_capacity(2 * live_cores.len() - 1);
    let indices: Vec<u32> = (0..live_cores.len() as u32).collect();
    let root = build_group(&mut nodes, live_cores, &indices, &spans, spans.len());
    ReductionTree::from_raw(nodes, root, live_cores.len())
}

/// Reduce the members of one enclosure at `level` (1 = innermost span):
/// split into child enclosures, build each, then merge representatives
/// left to right (a balanced merge among the children).
fn build_group(
    nodes: &mut Vec<Node>,
    cores: &[usize],
    members: &[u32],
    spans: &[usize],
    level: usize,
) -> u32 {
    debug_assert!(!members.is_empty());
    if members.len() == 1 {
        nodes.push(Node::Leaf {
            value_index: members[0],
        });
        return (nodes.len() - 1) as u32;
    }
    if level == 0 {
        // Same core? Cannot happen (cores unique); balanced merge anyway.
        return build_balanced(nodes, members);
    }
    let span = spans[level - 1];
    // Partition members by their enclosure id at this level.
    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut last_id = usize::MAX;
    for &m in members {
        let id = cores[m as usize] / span;
        if id != last_id {
            groups.push(Vec::new());
            last_id = id;
        }
        groups.last_mut().unwrap().push(m);
    }
    let mut reps: Vec<u32> = groups
        .iter()
        .map(|g| build_group(nodes, cores, g, spans, level - 1))
        .collect();
    // Balanced merge of the group representatives.
    while reps.len() > 1 {
        let mut next = Vec::with_capacity(reps.len().div_ceil(2));
        for pair in reps.chunks(2) {
            if pair.len() == 2 {
                nodes.push(Node::Internal {
                    left: pair[0],
                    right: pair[1],
                });
                next.push((nodes.len() - 1) as u32);
            } else {
                next.push(pair[0]);
            }
        }
        reps = next;
    }
    reps[0]
}

/// Balanced tree over existing member leaves (helper).
fn build_balanced(nodes: &mut Vec<Node>, members: &[u32]) -> u32 {
    if members.len() == 1 {
        nodes.push(Node::Leaf {
            value_index: members[0],
        });
        return (nodes.len() - 1) as u32;
    }
    let mid = members.len() / 2;
    let l = build_balanced(nodes, &members[..mid]);
    let r = build_balanced(nodes, &members[mid..]);
    nodes.push(Node::Internal { left: l, right: r });
    (nodes.len() - 1) as u32
}

/// The fixed tree the paper contrasts against: balanced over rank order,
/// blind to placement.
pub fn rank_order_tree(n: usize) -> ReductionTree {
    ReductionTree::build(crate::TreeShape::Balanced, n)
}

/// Critical-path completion time of a reduction schedule on a machine:
/// every leaf is ready at t = 0 on its core; an internal node completes at
/// `max(left done, right done + link latency between the subtree home
/// cores) + op_cost`, homing at its left child's core (the usual "reduce
/// into the left operand" convention).
pub fn critical_path(
    tree: &ReductionTree,
    machine: &Machine,
    live_cores: &[usize],
    op_cost: f64,
) -> f64 {
    assert_eq!(tree.leaves(), live_cores.len());
    fn walk(
        tree: &ReductionTree,
        node: u32,
        machine: &Machine,
        cores: &[usize],
        op: f64,
    ) -> (f64, usize) {
        match tree.node(node) {
            Node::Leaf { value_index } => (0.0, cores[value_index as usize]),
            Node::Internal { left, right } => {
                let (tl, home_l) = walk(tree, left, machine, cores, op);
                let (tr, home_r) = walk(tree, right, machine, cores, op);
                let arrival = tr + machine.link_latency(home_r, home_l);
                (tl.max(arrival) + op, home_l)
            }
        }
    }
    walk(tree, tree.root(), machine, live_cores, op_cost).0
}

/// Total communication cost of a reduction schedule: the sum over internal
/// nodes of the link latency between the two merged subtrees' home cores.
/// This is the aggregate-network-traffic view (injection/bandwidth bound),
/// where topology awareness pays off hardest: an aware tree sends exactly
/// one message per enclosure boundary, a scattered fixed tree sends a large
/// fraction of ALL its messages across the expensive levels.
pub fn total_link_cost(tree: &ReductionTree, machine: &Machine, live_cores: &[usize]) -> f64 {
    assert_eq!(tree.leaves(), live_cores.len());
    fn walk(tree: &ReductionTree, node: u32, machine: &Machine, cores: &[usize]) -> (f64, usize) {
        match tree.node(node) {
            Node::Leaf { value_index } => (0.0, cores[value_index as usize]),
            Node::Internal { left, right } => {
                let (cl, home_l) = walk(tree, left, machine, cores);
                let (cr, home_r) = walk(tree, right, machine, cores);
                (cl + cr + machine.link_latency(home_r, home_l), home_l)
            }
        }
    }
    walk(tree, tree.root(), machine, live_cores).0
}

/// Random subset of live cores (each core down independently with
/// probability `dropout`), always keeping at least two cores — the
/// "inconsistently available resources" of the paper.
pub fn random_live_cores(machine: &Machine, dropout: f64, seed: u64) -> Vec<usize> {
    assert!((0.0..1.0).contains(&dropout));
    let mut rng = DetRng::seed_from_u64(seed);
    let mut live: Vec<usize> = (0..machine.cores())
        .filter(|_| rng.random::<f64>() >= dropout)
        .collect();
    while live.len() < 2 {
        let c = rng.random_range(0..machine.cores());
        if !live.contains(&c) {
            live.push(c);
            live.sort_unstable();
        }
    }
    live
}

/// A reduction tree re-planned over the ranks that survived a failure.
///
/// The links are a pure function of the **sorted survivor set** and the
/// root — never of arrival order — so every survivor that derives a
/// `HealedTree` from the same membership list computes identical
/// parent/child links, and re-running the reduction over the same survivor
/// set reproduces the same merge association bitwise. Survivors are
/// addressed by *virtual rank*: the root is virtual rank 0 and the
/// remaining survivors follow in sorted order, rotated so rank arithmetic
/// (binomial masks, chain neighbours) works unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealedTree {
    survivors: Vec<usize>,
    root_pos: usize,
}

impl HealedTree {
    /// Plan links over `survivors` (must be sorted, duplicate-free, and
    /// contain `root`).
    pub fn new(survivors: &[usize], root: usize) -> Self {
        assert!(!survivors.is_empty(), "survivor set cannot be empty");
        assert!(
            survivors.windows(2).all(|w| w[0] < w[1]),
            "survivor set must be sorted and duplicate-free"
        );
        let root_pos = survivors
            .binary_search(&root)
            .expect("root must be in the survivor set");
        Self {
            survivors: survivors.to_vec(),
            root_pos,
        }
    }

    /// Number of surviving ranks.
    pub fn len(&self) -> usize {
        self.survivors.len()
    }

    /// Whether the tree is empty (never — construction requires a root).
    pub fn is_empty(&self) -> bool {
        self.survivors.is_empty()
    }

    /// Virtual rank of a survivor (root ↦ 0), or `None` if `rank` is not a
    /// survivor.
    pub fn vrank_of(&self, rank: usize) -> Option<usize> {
        let pos = self.survivors.binary_search(&rank).ok()?;
        let m = self.survivors.len();
        Some((pos + m - self.root_pos) % m)
    }

    /// Real rank of a virtual rank.
    pub fn rank_of(&self, vrank: usize) -> usize {
        let m = self.survivors.len();
        debug_assert!(vrank < m);
        self.survivors[(vrank + self.root_pos) % m]
    }

    /// Parent of `rank` in the binomial tree over survivors (`None` for
    /// the root): clear the lowest set bit of the virtual rank.
    pub fn binomial_parent(&self, rank: usize) -> Option<usize> {
        let v = self.vrank_of(rank).filter(|&v| v > 0)?;
        Some(self.rank_of(v & (v - 1)))
    }

    /// Children of `rank` in the binomial tree over survivors, in the
    /// mask order the reduction visits them.
    pub fn binomial_children(&self, rank: usize) -> Vec<usize> {
        let Some(v) = self.vrank_of(rank) else {
            return Vec::new();
        };
        // Child `v | mask` for each mask below the lowest set bit of `v`
        // (every mask at the root), while it names a survivor.
        (0..usize::BITS)
            .map(|k| 1usize << k)
            .take_while(|&mask| v & mask == 0 && v | mask < self.len())
            .map(|mask| self.rank_of(v | mask))
            .collect()
    }

    /// Downstream neighbour in the survivor chain (toward the root), or
    /// `None` for the root.
    pub fn chain_parent(&self, rank: usize) -> Option<usize> {
        let v = self.vrank_of(rank).filter(|&v| v > 0)?;
        Some(self.rank_of(v - 1))
    }

    /// Upstream neighbour in the survivor chain (the rank whose partial
    /// this rank merges), or `None` at the far end.
    pub fn chain_child(&self, rank: usize) -> Option<usize> {
        let v = self.vrank_of(rank).filter(|&v| v + 1 < self.len())?;
        Some(self.rank_of(v + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_machine() -> Machine {
        Machine::new(&[
            Level {
                arity: 4,
                latency: 1.0,
            },
            Level {
                arity: 2,
                latency: 10.0,
            },
            Level {
                arity: 2,
                latency: 100.0,
            },
        ]) // 16 cores
    }

    #[test]
    fn machine_geometry() {
        let m = small_machine();
        assert_eq!(m.cores(), 16);
        assert_eq!(m.enclosure_spans(), vec![4, 8, 16]);
        assert_eq!(m.link_latency(0, 0), 0.0);
        assert_eq!(m.link_latency(0, 1), 1.0); // same socket
        assert_eq!(m.link_latency(0, 5), 10.0); // same node, cross socket
        assert_eq!(m.link_latency(0, 9), 100.0); // cross node
    }

    #[test]
    fn topology_tree_covers_all_leaves() {
        let m = small_machine();
        let live: Vec<usize> = (0..16).collect();
        let t = topology_aware_tree(&m, &live);
        assert_eq!(t.leaves(), 16);
        assert_eq!(t.len(), 31);
        // Evaluation visits every value exactly once.
        let values: Vec<f64> = (0..16).map(|i| 2f64.powi(i)).collect();
        assert_eq!(t.evaluate(&values), values.iter().sum::<f64>());
    }

    /// Cyclic ("by slot") rank placement: logically adjacent ranks land on
    /// different nodes — the placement under which fixed trees hurt.
    fn cyclic_placement(m: &Machine, cores_per_node: usize) -> Vec<usize> {
        let nodes = m.cores() / cores_per_node;
        (0..m.cores())
            .map(|r| (r % nodes) * cores_per_node + r / nodes)
            .collect()
    }

    #[test]
    fn topology_aware_beats_rank_order_on_traffic() {
        let m = Machine::typical_cluster();
        let placement = cyclic_placement(&m, 16);
        let fixed = total_link_cost(&rank_order_tree(placement.len()), &m, &placement);
        let mut sorted = placement.clone();
        sorted.sort_unstable();
        let aware = total_link_cost(&topology_aware_tree(&m, &sorted), &m, &sorted);
        assert!(
            aware * 3.0 < fixed,
            "topology-aware traffic {aware} should be far below fixed {fixed}"
        );
        // And it never loses on the contention-free critical path either.
        let cp_fixed = critical_path(&rank_order_tree(placement.len()), &m, &placement, 1.0);
        let cp_aware = critical_path(&topology_aware_tree(&m, &sorted), &m, &sorted, 1.0);
        assert!(cp_aware <= cp_fixed * 1.01);
    }

    #[test]
    fn advantage_grows_with_scale() {
        // Balaji & Kimpe's observation: the gap widens with core count.
        let gap = |machine: &Machine, cpn: usize| {
            let placement = cyclic_placement(machine, cpn);
            let mut sorted = placement.clone();
            sorted.sort_unstable();
            let aware = total_link_cost(&topology_aware_tree(machine, &sorted), machine, &sorted);
            let fixed = total_link_cost(&rank_order_tree(placement.len()), machine, &placement);
            fixed / aware
        };
        let small = Machine::new(&[
            Level {
                arity: 4,
                latency: 5.0,
            },
            Level {
                arity: 2,
                latency: 400.0,
            },
        ]);
        let large = Machine::typical_cluster();
        assert!(
            gap(&large, 16) > gap(&small, 4),
            "{} !> {}",
            gap(&large, 16),
            gap(&small, 4)
        );
    }

    #[test]
    fn dropout_changes_the_tree_shape() {
        let m = small_machine();
        let live_a = random_live_cores(&m, 0.25, 1);
        let live_b = random_live_cores(&m, 0.25, 3);
        assert_ne!(live_a, live_b, "different runs lose different cores");
        // Both live sets must still yield valid, evaluable trees.
        let ta = topology_aware_tree(&m, &live_a);
        let tb = topology_aware_tree(&m, &live_b);
        let va: Vec<f64> = (0..ta.leaves()).map(|i| i as f64).collect();
        let vb: Vec<f64> = (0..tb.leaves()).map(|i| i as f64).collect();
        assert_eq!(ta.evaluate(&va), va.iter().sum::<f64>());
        assert_eq!(tb.evaluate(&vb), vb.iter().sum::<f64>());
    }

    #[test]
    fn live_core_sets_are_sorted_and_bounded() {
        let m = small_machine();
        for seed in 0..10 {
            let live = random_live_cores(&m, 0.5, seed);
            assert!(live.len() >= 2);
            assert!(live.windows(2).all(|w| w[0] < w[1]));
            assert!(live.iter().all(|&c| c < m.cores()));
        }
    }

    // ---- healed-tree edge cases the fault-tolerant collectives rely on ----

    #[test]
    fn healed_single_rank_tree_has_no_links() {
        let t = HealedTree::new(&[3], 3);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.vrank_of(3), Some(0));
        assert_eq!(t.binomial_parent(3), None);
        assert!(t.binomial_children(3).is_empty());
        assert_eq!(t.chain_parent(3), None);
        assert_eq!(t.chain_child(3), None);
    }

    #[test]
    fn healed_chain_is_fully_degenerate() {
        // Survivors with gaps (ranks 1 and 4 died), root mid-set.
        let survivors = [0, 2, 3, 5, 6];
        let t = HealedTree::new(&survivors, 3);
        // Walk the chain from the far end to the root: every survivor
        // appears exactly once — a completely unbalanced (serial) tree.
        let mut order = vec![t.rank_of(t.len() - 1)];
        while let Some(next) = t.chain_parent(*order.last().unwrap()) {
            order.push(next);
        }
        assert_eq!(order.len(), survivors.len());
        assert_eq!(*order.last().unwrap(), 3);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, survivors);
        // chain_child is the inverse of chain_parent.
        for &r in &survivors {
            if let Some(c) = t.chain_child(r) {
                assert_eq!(t.chain_parent(c), Some(r));
            }
        }
    }

    #[test]
    fn healed_binomial_handles_non_power_of_two_sets() {
        for (survivors, root) in [
            (vec![0usize, 1, 2, 4, 7], 0),
            (vec![1, 2, 3, 5, 8, 9], 5),
            (vec![0, 3, 4, 6, 7, 10, 12], 12),
            ((0..11).collect::<Vec<_>>(), 6),
        ] {
            let t = HealedTree::new(&survivors, root);
            // Every non-root has exactly one parent; edges = m - 1.
            let mut edges = 0;
            for &r in &survivors {
                match t.binomial_parent(r) {
                    None => assert_eq!(r, root),
                    Some(p) => {
                        assert!(survivors.contains(&p));
                        assert!(
                            t.binomial_children(p).contains(&r),
                            "parent/child disagree for rank {r} (root {root})"
                        );
                        edges += 1;
                    }
                }
            }
            assert_eq!(edges, survivors.len() - 1);
            // Every survivor is reachable from the root.
            let mut reached = vec![root];
            let mut frontier = vec![root];
            while let Some(r) = frontier.pop() {
                for c in t.binomial_children(r) {
                    assert!(!reached.contains(&c), "cycle at rank {c}");
                    reached.push(c);
                    frontier.push(c);
                }
            }
            reached.sort_unstable();
            assert_eq!(reached, survivors);
        }
    }

    #[test]
    fn healed_links_depend_only_on_the_sorted_set() {
        let a = HealedTree::new(&[1, 4, 6, 9], 4);
        let b = HealedTree::new(&[1, 4, 6, 9], 4);
        assert_eq!(a, b);
        // vrank assignment is a rotation of sorted positions.
        assert_eq!(a.vrank_of(4), Some(0));
        let mut vranks: Vec<usize> = [1, 4, 6, 9]
            .iter()
            .map(|&r| a.vrank_of(r).unwrap())
            .collect();
        vranks.sort_unstable();
        assert_eq!(vranks, vec![0, 1, 2, 3]);
        for v in 0..4 {
            assert_eq!(a.vrank_of(a.rank_of(v)), Some(v));
        }
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn healed_tree_rejects_unsorted_survivors() {
        let _ = HealedTree::new(&[4, 1, 6], 4);
    }
}

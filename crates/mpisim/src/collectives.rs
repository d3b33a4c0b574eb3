//! Collectives: barrier, broadcast, allreduce-max, and accumulator
//! reduction with pluggable topologies.
//!
//! Every reduce and broadcast, plain or self-healing, walks a
//! [`HealedTree`]: over every rank, or over a healing round's survivors.

use crate::comm::Comm;
use crate::fault::{ConfigError, FaultError};
use repro_fp::rng::DetRng;
use repro_runtime::{MergeOrder, ReductionPlan, Runtime};
use repro_select::{DataProfile, HeuristicSelector, Selector, Tolerance, EXACT};
use repro_sum::{Accumulator, AlgoAccumulator, Algorithm};
use repro_tree::HealedTree;
use std::any::Any;
use std::time::{Duration, Instant};

/// Reduce this rank's chunk on the shared runtime pool, merging chunk
/// partials along the plan's fixed tree. The plan depends only on the
/// chunk length, so the local partial is deterministic for every worker
/// count — rank-local parallelism never becomes another nondeterminism
/// source on top of the message schedule.
fn local_accumulate(values: &[f64], algorithm: Algorithm) -> AlgoAccumulator {
    let plan = ReductionPlan::for_len(values.len());
    Runtime::global()
        .accumulate(
            values,
            &plan,
            || algorithm.new_accumulator(),
            MergeOrder::Plan,
        )
        .0
}

/// The communication pattern of a reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceTopology {
    /// Binomial tree (recursive halving): `log₂ size` rounds, the pattern
    /// MPI implementations favour; merge order fixed by rank arithmetic.
    Binomial,
    /// Every rank sends straight to the root, which merges **in arrival
    /// order** — the nondeterministic pattern of an opportunistic runtime.
    FlatArrival,
    /// Rank `size−1 → … → 1 → 0` daisy chain: the "completely unbalanced"
    /// tree of the paper's Figure 1b, distributed.
    Chain,
}

/// Knobs for one reduction.
#[derive(Clone, Copy, Debug)]
pub struct ReduceConfig {
    /// Communication pattern.
    pub topology: ReduceTopology,
    /// If nonzero, each rank sleeps a seeded-random duration up to this
    /// many microseconds before contributing — scrambling arrival order
    /// (the "intermittent faults and inconsistently available resources"
    /// of the paper, in miniature).
    pub jitter_us: u64,
    /// Seed for the jitter draw.
    pub jitter_seed: u64,
}

impl Default for ReduceConfig {
    fn default() -> Self {
        Self {
            topology: ReduceTopology::Binomial,
            jitter_us: 0,
            jitter_seed: 0,
        }
    }
}

/// Largest jitter a [`ReduceConfig`] accepts (10 seconds): anything above
/// is a typo'd unit, and would previously only surface as a hung worker
/// thread.
pub const MAX_JITTER_US: u64 = 10_000_000;

impl ReduceConfig {
    /// Build a validated configuration, rejecting out-of-range jitter with
    /// a proper `Err` instead of letting a worker thread stall on a
    /// ten-minute sleep.
    pub fn validated(
        topology: ReduceTopology,
        jitter_us: u64,
        jitter_seed: u64,
    ) -> Result<Self, ConfigError> {
        let cfg = Self {
            topology,
            jitter_us,
            jitter_seed,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Check the configuration's bounds.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.jitter_us > MAX_JITTER_US {
            return Err(ConfigError(format!(
                "jitter_us {} exceeds the {MAX_JITTER_US}µs (10s) cap",
                self.jitter_us
            )));
        }
        Ok(())
    }
}

/// A reduce's first step on every rank: check `cfg`, then sleep this
/// rank's seeded jitter. The plain collectives have no error channel and
/// panic with the error.
fn validate_and_jitter(cfg: &ReduceConfig, rank: usize) -> Result<(), ConfigError> {
    cfg.validate()?;
    if cfg.jitter_us > 0 {
        let mut rng =
            DetRng::seed_from_u64(cfg.jitter_seed ^ (rank as u64).wrapping_mul(0x9E3779B97F4A7C15));
        std::thread::sleep(Duration::from_micros(rng.random_range(0..cfg.jitter_us)));
    }
    Ok(())
}

/// How a [`Walk`] moves its messages: the plain collectives' blocking
/// `send`/`recv`/`recv_any`, which panic rather than fail, or a healing
/// round's `try_send`/`recv_timeout` and, from any source, `recv_deadline`
/// up to the given instant.
#[derive(Clone, Copy)]
enum Link {
    Blocking,
    Timed(Instant),
}

/// One collective's walk over a [`HealedTree`], the only source of the
/// collectives' tree links: the root is `tree.rank_of(0)`, and every
/// parent and child comes from the tree. A reduce walks up, a broadcast
/// down.
struct Walk {
    tree: HealedTree,
    link: Link,
    tag: u64,
}

const BLOCKING: &str = "blocking links do not fail";

impl Walk {
    /// A plain collective's walk: blocking links over every rank under a
    /// fresh op tag. Panics, before any message moves, if `root` is not a
    /// rank.
    fn plain(comm: &mut Comm, root: usize) -> Self {
        let tree = HealedTree::new(&(0..comm.size()).collect::<Vec<_>>(), root);
        let (link, tag) = (Link::Blocking, comm.next_op_tag());
        Walk { tree, link, tag }
    }

    fn send<T: Any + Send>(&self, comm: &mut Comm, to: usize, v: T) -> Result<(), FaultError> {
        if let Link::Timed(_) = self.link {
            return comm.try_send(to, self.tag, v);
        }
        comm.send(to, self.tag, v);
        Ok(())
    }

    /// Receive from `from`, or from whichever rank comes first if `None`.
    fn recv<T: Any + Send>(&self, comm: &mut Comm, from: Option<usize>) -> Result<T, FaultError> {
        match (self.link, from) {
            (Link::Blocking, Some(from)) => Ok(comm.recv(from, self.tag)),
            (Link::Blocking, None) => Ok(comm.recv_any(self.tag).1),
            (Link::Timed(_), Some(from)) => comm.recv_timeout(from, self.tag),
            (Link::Timed(until), None) => comm.recv_deadline(None, self.tag, until).map(|r| r.1),
        }
    }

    /// Fold each child's partial into `acc` in the tree's child order (a
    /// `FlatArrival` root: every other rank's, in arrival order), then send
    /// the result to the parent. Returns `Some` on the root.
    fn up<T: Any + Send>(
        &self,
        comm: &mut Comm,
        topology: ReduceTopology,
        mut acc: T,
        mut merge: impl FnMut(&mut T, T),
    ) -> Result<Option<T>, FaultError> {
        let (rank, tree) = (comm.rank(), &self.tree);
        let root = tree.rank_of(0);
        // `None` is whichever child arrives first.
        let children: Vec<Option<usize>> = match topology {
            ReduceTopology::Binomial => {
                tree.binomial_children(rank).into_iter().map(Some).collect()
            }
            ReduceTopology::Chain => tree.chain_child(rank).map(Some).into_iter().collect(),
            ReduceTopology::FlatArrival if rank == root => vec![None; tree.len() - 1],
            ReduceTopology::FlatArrival => Vec::new(),
        };
        for child in children {
            let partial = self.recv(comm, child)?;
            merge(&mut acc, partial);
        }
        let parent = match topology {
            ReduceTopology::Binomial => tree.binomial_parent(rank),
            ReduceTopology::Chain => tree.chain_parent(rank),
            ReduceTopology::FlatArrival => (rank != root).then_some(root),
        };
        match parent {
            Some(parent) => self.send(comm, parent, acc).map(|()| None),
            None => Ok(Some(acc)),
        }
    }

    /// Receive from the binomial parent (the root holds `v`), then send to
    /// the children in reverse, the largest subtree first.
    fn down<T: Any + Send + Clone>(&self, comm: &mut Comm, v: Option<T>) -> Result<T, FaultError> {
        let rank = comm.rank();
        let v = match self.tree.binomial_parent(rank) {
            Some(parent) => self.recv(comm, Some(parent))?,
            None => v.expect("root must supply the broadcast value"),
        };
        for child in self.tree.binomial_children(rank).into_iter().rev() {
            self.send(comm, child, v.clone())?;
        }
        Ok(v)
    }
}

/// Block until every rank has arrived (dissemination barrier).
pub fn barrier(comm: &mut Comm) {
    let tag = comm.next_op_tag();
    let size = comm.size();
    if size == 1 {
        return;
    }
    let mut round = 1usize;
    while round < size {
        let to = (comm.rank() + round) % size;
        let from = (comm.rank() + size - round) % size;
        let round_tag = tag ^ ((round as u64) << 32);
        comm.send(to, round_tag, ());
        let () = comm.recv(from, round_tag);
        round <<= 1;
    }
}

/// Broadcast `value` from `root` to every rank (binomial tree). Panics on
/// every rank, before any message moves, when `root` is not a rank.
pub fn broadcast<T: Any + Send + Clone>(comm: &mut Comm, root: usize, value: Option<T>) -> T {
    Walk::plain(comm, root).down(comm, value).expect(BLOCKING)
}

/// Binomial reduce to rank 0, then broadcast back: every rank returns the
/// merged value.
fn allreduce<T: Any + Send + Clone>(comm: &mut Comm, value: T, merge: impl FnMut(&mut T, T)) -> T {
    let merged = Walk::plain(comm, 0)
        .up(comm, ReduceTopology::Binomial, value, merge)
        .expect(BLOCKING);
    broadcast(comm, 0, merged)
}

/// Allreduce-max of one scalar: reduce to rank 0 over the binomial tree,
/// then broadcast back. Exact (max is associative/commutative), so
/// topology does not matter for the value.
pub fn allreduce_max(comm: &mut Comm, x: f64) -> f64 {
    allreduce(comm, x, |a, b| *a = a.max(b))
}

/// Reduce per-rank accumulators to `root` with the configured topology.
/// Returns `Some(merged)` on the root, `None` elsewhere. Panics on every
/// rank, before any message moves, when `root` is not a rank or `cfg` is
/// out of range.
pub fn reduce_accumulator<A>(
    comm: &mut Comm,
    local: A,
    root: usize,
    cfg: &ReduceConfig,
) -> Option<A>
where
    A: Accumulator + Any,
{
    let walk = Walk::plain(comm, root);
    validate_and_jitter(cfg, comm.rank()).unwrap_or_else(|e| panic!("{e}"));
    walk.up(comm, cfg.topology, local, |a, b| a.merge(&b))
        .expect(BLOCKING)
}

/// Allreduce: reduce the accumulators to rank 0, broadcast the finalized
/// scalar back. Every rank returns the same value (bitwise).
pub fn allreduce_sum_acc<A>(comm: &mut Comm, local: A, cfg: &ReduceConfig) -> f64
where
    A: Accumulator + Any,
{
    let merged = reduce_accumulator(comm, local, 0, cfg).map(|a| a.finalize());
    broadcast(comm, 0, merged)
}

/// Gather one value per rank to `root`, in rank order. Returns
/// `Some(values)` on the root, `None` elsewhere.
pub fn gather<T: Any + Send>(comm: &mut Comm, value: T, root: usize) -> Option<Vec<T>> {
    let tag = comm.next_op_tag();
    if comm.rank() == root {
        let size = comm.size();
        let mut slots: Vec<Option<T>> = (0..size).map(|_| None).collect();
        slots[root] = Some(value);
        for _ in 0..size - 1 {
            let (from, v): (usize, T) = comm.recv_any(tag);
            debug_assert!(slots[from].is_none(), "duplicate gather contribution");
            slots[from] = Some(v);
        }
        Some(
            slots
                .into_iter()
                .map(|s| s.expect("all ranks contribute"))
                .collect(),
        )
    } else {
        comm.send(root, tag, value);
        None
    }
}

/// Distributed intelligent reduction — the paper's advocated system, in its
/// natural habitat: every rank profiles its local chunk, the partial
/// profiles reduce and broadcast (one cheap collective), every rank then
/// **deterministically selects the same operator** from the global profile,
/// and the reduction runs with it.
///
/// Returns `(sum, chosen_algorithm)` on the root, `None` elsewhere; the
/// selection itself is visible on all ranks via the returned algorithm in
/// the root's tuple (ranks needing it can broadcast).
///
/// Under [`Tolerance::Bitwise`] the selector returns the exact rung
/// whatever the data, so no rank profiles and no profile collective runs:
/// the call is one exact [`reduce_sum`].
pub fn adaptive_reduce_sum(
    comm: &mut Comm,
    local_values: &[f64],
    tolerance: Tolerance,
    root: usize,
    cfg: &ReduceConfig,
) -> Option<(f64, Algorithm)> {
    if tolerance == Tolerance::Bitwise {
        return reduce_sum(comm, local_values, EXACT, root, cfg).map(|sum| (sum, EXACT));
    }
    // 1. Profile locally (chunk-parallel on the runtime pool);
    // 2. allreduce the profile (binomial up, bcast down).
    let local = repro_select::profile_parallel(local_values);
    let global = allreduce(comm, local, |a, b| a.merge(&b));
    // 3. Same profile + same deterministic selector = same choice everywhere.
    let algorithm = HeuristicSelector::default().choose(&global, tolerance);
    // 4. Reduce with the chosen operator, local chunk on the runtime pool.
    let local_acc = local_accumulate(local_values, algorithm);
    reduce_accumulator(comm, local_acc, root, cfg).map(|a| (a.finalize(), algorithm))
}

/// Inclusive prefix scan (`MPI_Scan`): rank `r` returns the reduction of
/// ranks `0..=r`'s accumulators, computed with the Hillis–Steele doubling
/// schedule (`⌈log₂ size⌉` rounds).
///
/// Prefix semantics are inherently rank-ordered, so unlike `reduce` there is
/// no arrival-order variant — but the *merge association* still differs
/// between schedules, so only reproducible operators give schedule-stable
/// prefixes (see the `scan_*` tests).
pub fn scan_accumulator<A>(comm: &mut Comm, local: A) -> A
where
    A: Accumulator + Any + Clone,
{
    let tag = comm.next_op_tag();
    let size = comm.size();
    let rank = comm.rank();
    let mut acc = local;
    let mut dist = 1usize;
    let mut round = 0u64;
    while dist < size {
        let round_tag = tag ^ (round << 32);
        if rank + dist < size {
            comm.send(rank + dist, round_tag, acc.clone());
        }
        if rank >= dist {
            let incoming: A = comm.recv(rank - dist, round_tag);
            // Prefix order: the incoming partial covers lower ranks.
            let mut merged = incoming;
            merged.merge(&acc);
            acc = merged;
        }
        dist <<= 1;
        round += 1;
    }
    acc
}

/// All-to-all personalized exchange: rank `r` supplies one value per
/// destination and receives one value per source, in source-rank order.
pub fn alltoall<T: Any + Send>(comm: &mut Comm, outgoing: Vec<T>) -> Vec<T> {
    let tag = comm.next_op_tag();
    let size = comm.size();
    assert_eq!(outgoing.len(), size, "one outgoing value per rank required");
    let me = comm.rank();
    let mut keep: Option<T> = None;
    for (to, v) in outgoing.into_iter().enumerate() {
        if to == me {
            keep = Some(v);
        } else {
            comm.send(to, tag, v);
        }
    }
    let mut slots: Vec<Option<T>> = (0..size).map(|_| None).collect();
    slots[me] = keep;
    for _ in 0..size - 1 {
        let (from, v): (usize, T) = comm.recv_any(tag);
        debug_assert!(slots[from].is_none());
        slots[from] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every rank contributes"))
        .collect()
}

/// Healing rounds a fault-tolerant collective attempts before giving up.
/// Every failed round is caused by a rank dying after the membership
/// snapshot (permanent — the set shrinks next round) or by transient
/// slowness (resolved by retrying with fresh tags), so the bound is never
/// reached in practice; it guarantees termination regardless.
const MAX_HEAL_ROUNDS: u64 = 16;

/// Sub-tag for `(round, phase)` of a fault-tolerant collective. Base op
/// tags keep their entropy in the low bits, so the high nibbles are free
/// to namespace rounds and phases without collisions.
fn phase_tag(base: u64, round: u64, phase: u64) -> u64 {
    base ^ (round << 40) ^ (phase << 36)
}

/// Outcome of one fault-tolerant collective on one rank.
#[derive(Clone, Debug, PartialEq)]
pub struct FtOutcome<T> {
    /// The collective's result: `Some` on the root (and on every survivor
    /// for allreduce variants), `None` on non-root ranks of a reduce.
    pub value: Option<T>,
    /// The sorted survivor set the result was computed over.
    pub survivors: Vec<usize>,
    /// Rounds the collective took (1 = no healing needed).
    pub rounds: u64,
}

impl<T> FtOutcome<T> {
    fn map<U>(self, f: impl FnOnce(T) -> U) -> FtOutcome<U> {
        FtOutcome {
            value: self.value.map(f),
            survivors: self.survivors,
            rounds: self.rounds,
        }
    }
}

/// Self-healing reduction of per-rank accumulators to `root`.
///
/// Each round: (1) live ranks ping the root; (2) the root snapshots the
/// **sorted** survivor set and distributes it; (3) everyone derives the
/// same [`HealedTree`] from that set and reduces over it with timed links,
/// each rank restarting from its original local accumulator. A dead or
/// timed-out child anywhere blocks exactly one partial's path to the root,
/// so the root itself observes the failure as a timeout, re-plans, and
/// retries — a healing round, counted in [`crate::WorldReport::heals`].
///
/// Because the merge association is a pure function of the final survivor
/// set (never of arrival order or of which ranks died first), reproducible
/// operators yield results **bitwise identical** to a fault-free run over
/// the same survivor set — the paper's reproducibility contract extended
/// to degraded mode.
///
/// Errors: [`FaultError::Killed`] if this rank dies, [`FaultError::Excluded`]
/// if it is alive but missed the membership snapshot,
/// [`FaultError::RootUnreachable`] if the root dies.
pub fn ft_reduce_accumulator<A>(
    comm: &mut Comm,
    local: A,
    root: usize,
    cfg: &ReduceConfig,
) -> Result<FtOutcome<A>, FaultError>
where
    A: Accumulator + Any,
{
    let base = comm.next_op_tag();
    let size = comm.size();
    let rank = comm.rank();
    assert!(root < size, "root must be a valid rank");
    validate_and_jitter(cfg, rank)?;
    let budget = comm.link_budget();
    for round in 0..MAX_HEAL_ROUNDS {
        let t_ping = phase_tag(base, round, 0);
        let t_member = phase_tag(base, round, 1);
        let t_part = phase_tag(base, round, 2);
        let t_out = phase_tag(base, round, 3);

        // Phase 1+2: membership. The root collects pings until the budget
        // expires (each expired wait also releases drop-withheld traffic,
        // so transiently lost pings still count), sorts the survivor set,
        // and distributes it.
        let survivors: Vec<usize> = if rank == root {
            let mut alive = vec![root];
            let deadline = Instant::now() + budget;
            while alive.len() < size {
                match comm.recv_deadline::<usize>(None, t_ping, deadline) {
                    Ok((from, _)) => {
                        if !alive.contains(&from) {
                            alive.push(from);
                        }
                    }
                    Err(FaultError::Timeout { .. }) => break,
                    Err(e) => return Err(e),
                }
            }
            alive.sort_unstable();
            for &s in &alive {
                if s != root {
                    comm.try_send(s, t_member, alive.clone())?;
                }
            }
            alive
        } else {
            comm.try_send(root, t_ping, rank)?;
            let deadline = Instant::now() + budget.saturating_mul(3);
            match comm.recv_deadline::<Vec<usize>>(Some(root), t_member, deadline) {
                Ok((_, v)) => v,
                Err(FaultError::Timeout { .. }) => {
                    return Err(FaultError::RootUnreachable { root })
                }
                Err(e) => return Err(e),
            }
        };
        if !survivors.contains(&rank) {
            return Err(FaultError::Excluded { rank });
        }

        // Phase 3: reduce over the healed tree, restarting from the
        // original local accumulator so the final association depends only
        // on the final survivor set.
        let walk = Walk {
            tree: HealedTree::new(&survivors, root),
            link: Link::Timed(Instant::now() + budget.saturating_mul(2)),
            tag: t_part,
        };
        let attempt = match walk.up(comm, cfg.topology, local.clone(), |a, b| a.merge(&b)) {
            Ok(v) => Some(v),
            Err(FaultError::Timeout { .. }) => None,
            Err(e) => return Err(e),
        };

        // Phase 4: outcome. Root success ⇒ every partial arrived (a failure
        // anywhere blocks a path to the root); root failure ⇒ heal and
        // retry with fresh tags.
        if rank == root {
            match attempt {
                Some(value) => {
                    for &s in &survivors {
                        if s != root {
                            comm.try_send(s, t_out, true)?;
                        }
                    }
                    return Ok(FtOutcome {
                        value,
                        survivors,
                        rounds: round + 1,
                    });
                }
                None => {
                    for &s in &survivors {
                        if s != root {
                            comm.try_send(s, t_out, false)?;
                        }
                    }
                    comm.note_heal();
                }
            }
        } else {
            // The root may still be cascading through its own timeouts;
            // scale the wait with the tree depth plus slack.
            let depth = usize::BITS - survivors.len().leading_zeros() + 3;
            let deadline = Instant::now() + budget.saturating_mul(depth);
            match comm.recv_deadline::<bool>(Some(root), t_out, deadline) {
                Ok((_, true)) => {
                    return Ok(FtOutcome {
                        value: None,
                        survivors,
                        rounds: round + 1,
                    })
                }
                Ok((_, false)) => {} // heal: next round
                Err(FaultError::Timeout { .. }) => {
                    return Err(FaultError::RootUnreachable { root })
                }
                Err(e) => return Err(e),
            }
        }
    }
    Err(FaultError::TooManyRounds {
        rounds: MAX_HEAL_ROUNDS as usize,
    })
}

/// Self-healing [`reduce_sum`]: local chunk on the runtime pool, global
/// reduction via [`ft_reduce_accumulator`].
pub fn ft_reduce_sum(
    comm: &mut Comm,
    local_values: &[f64],
    algorithm: Algorithm,
    root: usize,
    cfg: &ReduceConfig,
) -> Result<FtOutcome<f64>, FaultError> {
    let acc = local_accumulate(local_values, algorithm);
    Ok(ft_reduce_accumulator(comm, acc, root, cfg)?.map(|a| a.finalize()))
}

/// Self-healing allreduce: reduce to rank 0, then flat-broadcast the
/// finalized scalar to every survivor. Every survivor returns the same
/// value bitwise; if rank 0 dies the collective fails with
/// [`FaultError::RootUnreachable`] (the root is the membership authority).
pub fn ft_allreduce_sum_acc<A>(
    comm: &mut Comm,
    local: A,
    cfg: &ReduceConfig,
) -> Result<FtOutcome<f64>, FaultError>
where
    A: Accumulator + Any,
{
    let out = ft_reduce_accumulator(comm, local, 0, cfg)?;
    let tag = comm.next_op_tag();
    if comm.rank() == 0 {
        let sum = out
            .value
            .as_ref()
            .expect("root holds the merged accumulator")
            .finalize();
        for &s in &out.survivors {
            if s != 0 {
                comm.try_send(s, tag, sum)?;
            }
        }
        Ok(FtOutcome {
            value: Some(sum),
            survivors: out.survivors,
            rounds: out.rounds,
        })
    } else {
        let deadline = Instant::now() + comm.link_budget().saturating_mul(2);
        match comm.recv_deadline::<f64>(Some(0), tag, deadline) {
            Ok((_, sum)) => Ok(FtOutcome {
                value: Some(sum),
                survivors: out.survivors,
                rounds: out.rounds,
            }),
            Err(FaultError::Timeout { .. }) => Err(FaultError::RootUnreachable { root: 0 }),
            Err(e) => Err(e),
        }
    }
}

/// Self-healing [`adaptive_reduce_sum`]: the root gathers whatever data
/// profiles arrive within the link budget, selects once, flat-broadcasts
/// the choice, and the reduction runs fault-tolerantly with the chosen
/// operator. Profiling degrades gracefully — a missing profile can only
/// make the selection more conservative for the data actually summed.
/// Under [`Tolerance::Bitwise`] it skips the profile round, as
/// [`adaptive_reduce_sum`] does: the call is one exact [`ft_reduce_sum`].
pub fn ft_adaptive_reduce_sum(
    comm: &mut Comm,
    local_values: &[f64],
    tolerance: Tolerance,
    root: usize,
    cfg: &ReduceConfig,
) -> Result<FtOutcome<(f64, Algorithm)>, FaultError> {
    if tolerance == Tolerance::Bitwise {
        return Ok(ft_reduce_sum(comm, local_values, EXACT, root, cfg)?.map(|sum| (sum, EXACT)));
    }
    cfg.validate()?;
    let profile = repro_select::profile_parallel(local_values);
    let base = comm.next_op_tag();
    let t_prof = phase_tag(base, 0, 0);
    let t_choice = phase_tag(base, 0, 1);
    let size = comm.size();
    let rank = comm.rank();
    let algorithm = if rank == root {
        let mut global = profile;
        let deadline = Instant::now() + comm.link_budget();
        let mut got = 1;
        while got < size {
            match comm.recv_deadline::<DataProfile>(None, t_prof, deadline) {
                Ok((_, p)) => {
                    global.merge(&p);
                    got += 1;
                }
                Err(FaultError::Timeout { .. }) => break,
                Err(e) => return Err(e),
            }
        }
        let choice = HeuristicSelector::default().choose(&global, tolerance);
        for s in 0..size {
            if s != root {
                comm.try_send(s, t_choice, choice)?;
            }
        }
        choice
    } else {
        comm.try_send(root, t_prof, profile)?;
        let deadline = Instant::now() + comm.link_budget().saturating_mul(3);
        match comm.recv_deadline::<Algorithm>(Some(root), t_choice, deadline) {
            Ok((_, a)) => a,
            Err(FaultError::Timeout { .. }) => return Err(FaultError::RootUnreachable { root }),
            Err(e) => return Err(e),
        }
    };
    let acc = local_accumulate(local_values, algorithm);
    Ok(ft_reduce_accumulator(comm, acc, root, cfg)?.map(|a| (a.finalize(), algorithm)))
}

/// The paper's Section IV-C pattern in one call: each rank reduces its local
/// chunk with `algorithm`, then the partials are globally reduced. Returns
/// the final sum on the root, `None` elsewhere.
pub fn reduce_sum(
    comm: &mut Comm,
    local_values: &[f64],
    algorithm: Algorithm,
    root: usize,
    cfg: &ReduceConfig,
) -> Option<f64> {
    let acc = local_accumulate(local_values, algorithm);
    reduce_accumulator(comm, acc, root, cfg).map(|a| a.finalize())
}

/// An accumulator that carries an exact shadow next to the real operator:
/// the correctly-rounded sum (for exact ulp deviations) and the exact
/// absolute-value sum plus element count (for the Higham bound
/// `n·u·Σ|xᵢ|`). The shadow travels **inside** the collective's payload,
/// so distributed telemetry needs no second communication round — and
/// because [`repro_fp::Superaccumulator`] merges exactly, the shadow is
/// topology- and arrival-order-invariant even when the inner operator is
/// not.
#[derive(Clone)]
pub struct ShadowedAcc<A> {
    /// The real operator under observation.
    pub inner: A,
    /// Correctly rounded exact sum of everything absorbed.
    pub exact: repro_fp::Superaccumulator,
    /// Exact sum of absolute values.
    pub abs: repro_fp::Superaccumulator,
    /// Elements absorbed.
    pub n: usize,
}

impl<A: Accumulator> ShadowedAcc<A> {
    /// Wrap `inner` (already holding `values`' reduction) with the exact
    /// shadow of the same `values`.
    pub fn over(inner: A, values: &[f64]) -> Self {
        let mut exact = repro_fp::Superaccumulator::new();
        let mut abs = repro_fp::Superaccumulator::new();
        exact.add_slice_pair(&mut abs, values);
        ShadowedAcc {
            inner,
            exact,
            abs,
            n: values.len(),
        }
    }

    /// The Higham bound `n·u·Σ|xᵢ|` over everything absorbed so far.
    pub fn bound(&self) -> f64 {
        repro_fp::higham_bound(self.n, self.abs.to_f64())
    }
}

impl<A: Accumulator> Accumulator for ShadowedAcc<A> {
    fn add(&mut self, x: f64) {
        self.inner.add(x);
        self.exact.add(x);
        self.abs.add(x.abs());
        self.n += 1;
    }

    fn merge(&mut self, other: &Self) {
        self.inner.merge(&other.inner);
        self.exact.merge(&other.exact);
        self.abs.merge(&other.abs);
        self.n += other.n;
    }

    fn finalize(&self) -> f64 {
        self.inner.finalize()
    }
}

/// Emit one `node` telemetry event into this rank's trace scope: the
/// distributed counterpart of the runtime engine's per-node records, with
/// the same field schema so `trace diff` aligns them uniformly.
fn emit_node<A: Accumulator>(
    comm: &mut Comm,
    telemetry: &repro_obs::TelemetryConfig,
    ordinal: u64,
    node: String,
    start: usize,
    shadow: &ShadowedAcc<A>,
) {
    use repro_obs::f;
    let partial = shadow.inner.finalize();
    let mut fields = vec![
        f("node", node),
        f("start", start),
        f("len", shadow.n),
        f("sum_bits", format!("{:016x}", partial.to_bits())),
        f("bound", shadow.bound()),
    ];
    if telemetry.sample_exact(ordinal) {
        let exact = shadow.exact.to_f64();
        fields.push(f("ulps", repro_fp::ulp_distance(partial, exact)));
        fields.push(f("exact_bits", format!("{:016x}", exact.to_bits())));
    }
    comm.trace_event("node", fields);
}

/// [`reduce_sum`] with numerical-accuracy telemetry: each rank emits one
/// `node` event for its local partial (id `leaf.r{rank}`, interval
/// `[global_start, global_start + len)` in the **global** element space the
/// caller distributes), and the root emits one `node` event for the merged
/// result (id `root`, interval `[0, global_len)`). Exact shadows ride
/// inside the collective payload via [`ShadowedAcc`], so the root's Higham
/// bound and ulp deviation cover the whole distributed input. Sampling
/// ordinals are `rank + 1` for leaves and `0` for the root, so any nonzero
/// sampling period always measures the root exactly.
///
/// With telemetry disabled this is byte-for-byte [`reduce_sum`]: no extra
/// events, no shadow payloads, no extra messages.
#[allow(clippy::too_many_arguments)]
pub fn reduce_sum_telemetry(
    comm: &mut Comm,
    local_values: &[f64],
    global_start: usize,
    global_len: usize,
    algorithm: Algorithm,
    root: usize,
    cfg: &ReduceConfig,
    telemetry: repro_obs::TelemetryConfig,
) -> Option<f64> {
    if !telemetry.enabled() {
        return reduce_sum(comm, local_values, algorithm, root, cfg);
    }
    let inner = local_accumulate(local_values, algorithm);
    let local = ShadowedAcc::over(inner, local_values);
    let rank = comm.rank();
    emit_node(
        comm,
        &telemetry,
        rank as u64 + 1,
        format!("leaf.r{rank}"),
        global_start,
        &local,
    );
    let merged = reduce_accumulator(comm, local, root, cfg)?;
    debug_assert_eq!(merged.n, global_len, "global_len must cover all ranks");
    emit_node(comm, &telemetry, 0, "root".to_string(), 0, &merged);
    Some(merged.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;
    use repro_obs::Value;
    use repro_sum::BinnedSum;

    fn chunks(values: &[f64], size: usize, rank: usize) -> &[f64] {
        let per = values.len().div_ceil(size);
        let lo = (rank * per).min(values.len());
        let hi = ((rank + 1) * per).min(values.len());
        &values[lo..hi]
    }

    #[test]
    fn barrier_completes() {
        let out = World::run(7, |c| {
            barrier(c);
            barrier(c);
            c.rank()
        });
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn broadcast_reaches_all_ranks_any_root() {
        for root in [0usize, 1, 5] {
            let out = World::run(6, move |c| {
                let v = broadcast(
                    c,
                    root,
                    (c.rank() == root).then(|| format!("payload-{root}")),
                );
                v
            });
            assert!(
                out.iter().all(|v| v == &format!("payload-{root}")),
                "root {root}"
            );
        }
    }

    #[test]
    fn allreduce_max_agrees_everywhere() {
        let out = World::run(9, |c| allreduce_max(c, (c.rank() as f64 * 7.3) % 5.0));
        let expected = (0..9)
            .map(|r| (r as f64 * 7.3) % 5.0)
            .fold(f64::MIN, f64::max);
        assert!(out.iter().all(|&m| m == expected), "{out:?} vs {expected}");
    }

    #[test]
    fn all_topologies_reduce_exact_data_identically() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        for topo in [
            ReduceTopology::Binomial,
            ReduceTopology::FlatArrival,
            ReduceTopology::Chain,
        ] {
            let cfg = ReduceConfig {
                topology: topo,
                ..Default::default()
            };
            let out = World::run(5, |c| {
                let mine = chunks(&values, c.size(), c.rank());
                reduce_sum(c, mine, Algorithm::Standard, 0, &cfg)
            });
            assert_eq!(out[0], Some(499_500.0), "{topo:?}");
            assert!(out[1..].iter().all(|o| o.is_none()));
        }
    }

    #[test]
    fn binned_reduction_is_bitwise_stable_under_jitter() {
        let values = repro_gen::zero_sum_with_range(20_000, 32, 55);
        let reference = {
            let mut acc = BinnedSum::new(3);
            acc.add_slice(&values);
            acc.finalize()
        };
        for seed in 0..5 {
            let cfg = ReduceConfig {
                topology: ReduceTopology::FlatArrival,
                jitter_us: 300,
                jitter_seed: seed,
            };
            let out = World::run(8, |c| {
                let mine = chunks(&values, c.size(), c.rank());
                reduce_sum(c, mine, Algorithm::PR, 0, &cfg)
            });
            let got = out[0].unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "jitter seed {seed}");
        }
    }

    #[test]
    fn nonzero_root_receives_the_result() {
        let values: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let cfg = ReduceConfig {
            topology: ReduceTopology::Chain,
            ..Default::default()
        };
        let out = World::run(4, |c| {
            let mine = chunks(&values, c.size(), c.rank());
            reduce_sum(c, mine, Algorithm::Composite, 2, &cfg)
        });
        assert!(out[2].is_some());
        assert_eq!(out[2].unwrap(), repro_fp::exact_sum(&values));
        assert!(out[0].is_none() && out[1].is_none() && out[3].is_none());
    }

    #[test]
    fn adaptive_reduce_selects_consistently_and_correctly() {
        // Hostile global data: every rank's chunk is benign-looking in
        // isolation except for the cancellation across ranks; the GLOBAL
        // profile sees k = inf and escalates.
        let values = repro_gen::zero_sum_with_range(20_000, 24, 5);
        let cfg = ReduceConfig {
            topology: ReduceTopology::Binomial,
            ..Default::default()
        };
        let out = World::run(8, |c| {
            let mine = chunks(&values, c.size(), c.rank());
            adaptive_reduce_sum(c, mine, Tolerance::AbsoluteSpread(1e-10), 0, &cfg)
        });
        let (sum, alg) = out[0].unwrap();
        assert!(out[1..].iter().all(|o| o.is_none()));
        assert!(
            alg.cost_rank() > Algorithm::Standard.cost_rank(),
            "global profile must escalate: chose {alg}"
        );
        assert!(repro_fp::abs_error(sum, &values) <= 1e-9);

        // Benign data keeps the cheapest operator that fits: ST below DS's
        // break-even, the exact sum from twice that size on.
        let n = repro_select::CostModel::default()
            .break_even(2)
            .expect("DS undercuts ST on two parts");
        for (len, cheapest) in [(n - 1, Algorithm::Standard), (2 * n, EXACT)] {
            let benign: Vec<f64> = (1..=len).map(|i| i as f64).collect();
            let out = World::run(8, |c| {
                let mine = chunks(&benign, c.size(), c.rank());
                adaptive_reduce_sum(c, mine, Tolerance::AbsoluteSpread(1e-4), 0, &cfg)
            });
            let (sum, alg) = out[0].unwrap();
            assert_eq!(alg, cheapest);
            assert_eq!(sum, repro_fp::exact_sum(&benign));
        }
    }

    #[test]
    fn adaptive_reduce_bitwise_is_jitter_stable() {
        let values = repro_gen::zero_sum_with_range(10_000, 32, 9);
        let mut seen = std::collections::HashSet::new();
        for seed in 0..4 {
            let cfg = ReduceConfig {
                topology: ReduceTopology::FlatArrival,
                jitter_us: 200,
                jitter_seed: seed,
            };
            let out = World::run(6, |c| {
                let mine = chunks(&values, c.size(), c.rank());
                adaptive_reduce_sum(c, mine, Tolerance::Bitwise, 0, &cfg)
            });
            let (sum, alg) = out[0].unwrap();
            assert!(alg.is_reproducible());
            seen.insert(sum.to_bits());
        }
        assert_eq!(seen.len(), 1, "bitwise tolerance must survive jitter");
    }

    #[test]
    fn scan_produces_rank_prefixes() {
        let out = World::run(7, |c| {
            let mut acc = Algorithm::Standard.new_accumulator();
            acc.add((c.rank() + 1) as f64);
            scan_accumulator(c, acc).finalize()
        });
        // Prefix of 1..=r+1 is the triangular number.
        let expect: Vec<f64> = (1..=7).map(|r| (r * (r + 1)) as f64 / 2.0).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn scan_with_binned_is_schedule_stable() {
        // Each rank holds an ill-conditioned chunk; the doubling schedule
        // associates merges differently per rank, but the binned prefix of
        // rank r must equal the sequential reduction of chunks 0..=r, bitwise.
        let values = repro_gen::zero_sum_with_range(8_192, 24, 77);
        let ranks = 8;
        let out = World::run(ranks, |c| {
            let mine = chunks(&values, c.size(), c.rank());
            let mut acc = BinnedSum::new(3);
            acc.add_slice(mine);
            scan_accumulator(c, acc).finalize()
        });
        for (r, &got) in out.iter().enumerate() {
            let hi = ((r + 1) * values.len().div_ceil(ranks)).min(values.len());
            let mut want = BinnedSum::new(3);
            want.add_slice(&values[..hi]);
            assert_eq!(got.to_bits(), want.finalize().to_bits(), "rank {r}");
        }
    }

    #[test]
    fn allreduce_sum_agrees_bitwise_on_every_rank() {
        let values = repro_gen::zero_sum_with_range(5_000, 16, 3);
        let cfg = ReduceConfig {
            topology: ReduceTopology::FlatArrival,
            ..Default::default()
        };
        let out = World::run(6, |c| {
            let mine = chunks(&values, c.size(), c.rank());
            let mut acc = BinnedSum::new(3);
            acc.add_slice(mine);
            allreduce_sum_acc(c, acc, &cfg)
        });
        let first = out[0].to_bits();
        assert!(out.iter().all(|v| v.to_bits() == first), "{out:?}");
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = World::run(5, |c| gather(c, c.rank() * 10, 2));
        assert_eq!(out[2], Some(vec![0, 10, 20, 30, 40]));
        assert!(out[0].is_none() && out[4].is_none());
    }

    #[test]
    fn alltoall_transposes_the_exchange_matrix() {
        // Rank r sends r*10 + to; it must receive from*10 + r.
        let out = World::run(5, |c| {
            let outgoing: Vec<u64> = (0..c.size())
                .map(|to| (c.rank() * 10 + to) as u64)
                .collect();
            alltoall(c, outgoing)
        });
        for (r, incoming) in out.iter().enumerate() {
            let expected: Vec<u64> = (0..5).map(|from| (from * 10 + r) as u64).collect();
            assert_eq!(incoming, &expected, "rank {r}");
        }
    }

    #[test]
    fn alltoall_single_rank() {
        let out = World::run(1, |c| alltoall(c, vec![99u8]));
        assert_eq!(out[0], vec![99]);
    }

    #[test]
    fn single_rank_world() {
        let cfg = ReduceConfig::default();
        let out = World::run(1, |c| {
            barrier(c);
            let m = allreduce_max(c, 3.5);
            let s = reduce_sum(c, &[1.0, 2.0], Algorithm::Kahan, 0, &cfg);
            (m, s)
        });
        assert_eq!(out[0], (3.5, Some(3.0)));
    }

    #[test]
    fn reduce_config_validation() {
        assert!(ReduceConfig::validated(ReduceTopology::Binomial, 500, 1).is_ok());
        let err = ReduceConfig::validated(ReduceTopology::Chain, MAX_JITTER_US + 1, 0);
        assert!(err.is_err());
        assert!(err.unwrap_err().0.contains("jitter_us"));
        // The plain path has no error channel: every rank panics instead
        // of sleeping past the cap.
        assert!(reduce_panics(ReduceTopology::Chain, MAX_JITTER_US + 1, 0));
    }

    #[test]
    fn shadowed_acc_is_transparent_and_exact() {
        let values = repro_gen::zero_sum_with_range(4_000, 24, 99);
        let mut plain = BinnedSum::new(3);
        plain.add_slice(&values);
        let mut shadowed = ShadowedAcc::over(BinnedSum::new(3), &[]);
        shadowed.add_slice(&values);
        assert_eq!(shadowed.finalize().to_bits(), plain.finalize().to_bits());
        assert_eq!(shadowed.n, values.len());
        // Exact shadow of zero-sum data is exactly zero.
        assert_eq!(shadowed.exact.to_f64(), 0.0);
        assert!(shadowed.bound() > 0.0);
    }

    #[test]
    fn telemetry_reduce_emits_aligned_node_records() {
        let values = repro_gen::zero_sum_with_range(6_400, 20, 7);
        let ranks = 4;
        let cfg = ReduceConfig::default();
        let per = values.len().div_ceil(ranks);
        let run = || {
            let plan = crate::fault::FaultPlan::new(0);
            let (report, events) = World::run_report_traced(ranks, &plan, true, |c| {
                let mine = chunks(&values, c.size(), c.rank());
                Ok(reduce_sum_telemetry(
                    c,
                    mine,
                    c.rank() * per,
                    values.len(),
                    Algorithm::PR,
                    0,
                    &cfg,
                    repro_obs::TelemetryConfig::full(),
                ))
            })
            .unwrap();
            (report, repro_obs::render_jsonl(&events))
        };
        let (report, text) = run();
        let sum = report.results[0].as_ref().unwrap().unwrap();

        let nodes = repro_obs::forensics::collect_nodes(&text).unwrap();
        // One leaf per rank plus the root record.
        assert_eq!(nodes.len(), ranks + 1);
        let root = nodes.iter().find(|n| n.node == "root").unwrap();
        assert_eq!((root.start, root.len as usize), (0, values.len()));
        assert_eq!(root.sum_bits, sum.to_bits());
        // PR is correctly rounded on this data: zero ulps from exact.
        assert_eq!(root.ulps, Some(0));
        for r in 0..ranks {
            let leaf = nodes
                .iter()
                .find(|n| n.node == format!("leaf.r{r}"))
                .unwrap();
            assert_eq!(leaf.start as usize, r * per);
            assert_eq!(leaf.sub, format!("rank{r}"));
        }
        // Same seed, same plan: the telemetry replays byte-identically,
        // and a trace diff of the two runs is clean.
        let (_, again) = run();
        assert_eq!(text, again);
        let report = repro_obs::forensics::diff_traces(&text, &again).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.aligned, ranks + 1);
    }

    #[test]
    fn telemetry_off_reduce_sum_emits_no_node_events() {
        let values: Vec<f64> = (0..800).map(|i| i as f64).collect();
        let cfg = ReduceConfig::default();
        let plan = crate::fault::FaultPlan::new(0);
        let (_, events) = World::run_report_traced(3, &plan, true, |c| {
            let mine = chunks(&values, c.size(), c.rank());
            let per = values.len().div_ceil(c.size());
            Ok(reduce_sum_telemetry(
                c,
                mine,
                c.rank() * per,
                values.len(),
                Algorithm::Standard,
                0,
                &cfg,
                repro_obs::TelemetryConfig::off(),
            ))
        })
        .unwrap();
        let text = repro_obs::render_jsonl(&events);
        assert!(!text.contains("\"kind\":\"node\""), "{text}");
    }

    #[test]
    fn ft_reduce_matches_plain_reduce_without_faults() {
        let values = repro_gen::zero_sum_with_range(10_000, 24, 11);
        for topo in [
            ReduceTopology::Binomial,
            ReduceTopology::FlatArrival,
            ReduceTopology::Chain,
        ] {
            let cfg = ReduceConfig {
                topology: topo,
                ..Default::default()
            };
            let plan = crate::fault::FaultPlan::new(0);
            let report = World::run_report(6, &plan, |c| {
                let mine = chunks(&values, c.size(), c.rank());
                ft_reduce_sum(c, mine, Algorithm::PR, 0, &cfg)
            })
            .unwrap();
            assert_eq!(report.failed, 0, "{topo:?}");
            let out = report.results[0].as_ref().unwrap();
            assert_eq!(out.survivors, (0..6).collect::<Vec<_>>());
            assert_eq!(out.rounds, 1);
            let reference = {
                let mut acc = BinnedSum::new(3);
                acc.add_slice(&values);
                acc.finalize()
            };
            assert_eq!(
                out.value.unwrap().to_bits(),
                reference.to_bits(),
                "{topo:?}"
            );
        }
        // ST carries no reproducibility of its own, so only an identical
        // merge association gives identical bits: the healed tree of a
        // fault-free run must be the plain tree, at every root.
        let values = repro_gen::zero_sum_with_range(3000, 24, 5);
        for topo in [ReduceTopology::Binomial, ReduceTopology::Chain] {
            let cfg = ReduceConfig {
                topology: topo,
                ..Default::default()
            };
            for size in 1..=11 {
                for root in [0, size / 2, size - 1] {
                    let plain = World::run(size, |c| {
                        let mine = chunks(&values, c.size(), c.rank());
                        reduce_sum(c, mine, Algorithm::Standard, root, &cfg)
                    });
                    let report = World::run_report(size, &crate::fault::FaultPlan::new(0), |c| {
                        let mine = chunks(&values, c.size(), c.rank());
                        ft_reduce_sum(c, mine, Algorithm::Standard, root, &cfg)
                    })
                    .unwrap();
                    let ft = report.results[root].as_ref().unwrap().value.unwrap();
                    assert_eq!(
                        ft.to_bits(),
                        plain[root].unwrap().to_bits(),
                        "{topo:?} size {size} root {root}"
                    );
                }
            }
        }
    }

    /// The binomial reduce is the workspace's one merge schedule laid over
    /// ranks: rank partials fold exactly as `merge_in_lane_order` folds
    /// lanes. ST shows any other association (at 7 ranks its binomial and
    /// chain results differ on this data).
    #[test]
    fn binomial_reduce_follows_the_lane_merge_order() {
        let values = repro_gen::zero_sum_with_range(3000, 24, 5);
        let reduce = |size: usize, topology: ReduceTopology| {
            let cfg = ReduceConfig {
                topology,
                ..Default::default()
            };
            World::run(size, |c| {
                let mine = chunks(&values, c.size(), c.rank());
                reduce_sum(c, mine, Algorithm::Standard, 0, &cfg)
            })[0]
                .unwrap()
        };
        for size in 1..=11 {
            let partials = (0..size)
                .map(|r| local_accumulate(chunks(&values, size, r), Algorithm::Standard))
                .collect();
            let lanes = repro_sum::lanes::merge_in_lane_order(partials)
                .unwrap()
                .finalize();
            assert_eq!(
                reduce(size, ReduceTopology::Binomial).to_bits(),
                lanes.to_bits(),
                "size {size}"
            );
        }
        assert_ne!(
            reduce(7, ReduceTopology::Binomial).to_bits(),
            reduce(7, ReduceTopology::Chain).to_bits()
        );
    }

    #[test]
    fn ft_reduce_heals_around_a_killed_rank_bitwise() {
        let values = repro_gen::zero_sum_with_range(12_000, 24, 21);
        let ranks = 6;
        for topo in [
            ReduceTopology::Binomial,
            ReduceTopology::FlatArrival,
            ReduceTopology::Chain,
        ] {
            let cfg = ReduceConfig {
                topology: topo,
                ..Default::default()
            };
            // Rank 4 dies on its very first communication op: it never
            // pings, so round one already excludes it.
            let plan = crate::fault::FaultPlan::new(5)
                .with_kill(4, 1)
                .with_timeouts(Duration::from_millis(10), 2);
            let report = World::run_report(ranks, &plan, |c| {
                let mine = chunks(&values, c.size(), c.rank());
                ft_reduce_sum(c, mine, Algorithm::PR, 0, &cfg)
            })
            .unwrap();
            let out = report.results[0].as_ref().unwrap();
            assert_eq!(out.survivors, vec![0, 1, 2, 3, 5], "{topo:?}");
            // Survivor-set reproducibility contract: bitwise identical to
            // a sequential fault-free sum over the survivors' inputs.
            let mut reference = BinnedSum::new(3);
            for &r in &out.survivors {
                reference.add_slice(chunks(&values, ranks, r));
            }
            assert_eq!(
                out.value.unwrap().to_bits(),
                reference.finalize().to_bits(),
                "{topo:?}"
            );
            assert!(matches!(
                report.results[4],
                Err(FaultError::Killed { rank: 4, .. })
            ));
        }
    }

    #[test]
    fn ft_reduce_mid_collective_kill_triggers_heal_rounds() {
        let values = repro_gen::zero_sum_with_range(8_000, 16, 33);
        let ranks = 8;
        let cfg = ReduceConfig::default();
        // Rank 3 pings (op 1), receives membership (op 2), then dies on a
        // later op — the first reduce round must fail and heal.
        let plan = crate::fault::FaultPlan::new(6)
            .with_kill(3, 3)
            .with_timeouts(Duration::from_millis(10), 2);
        let report = World::run_report(ranks, &plan, |c| {
            let mine = chunks(&values, c.size(), c.rank());
            ft_reduce_sum(c, mine, Algorithm::PR, 0, &cfg)
        })
        .unwrap();
        let out = report.results[0].as_ref().unwrap();
        assert!(out.rounds >= 2, "kill after membership must cost a round");
        assert!(report.heals >= 1);
        assert!(!out.survivors.contains(&3));
        let mut reference = BinnedSum::new(3);
        for &r in &out.survivors {
            reference.add_slice(chunks(&values, ranks, r));
        }
        assert_eq!(out.value.unwrap().to_bits(), reference.finalize().to_bits());
    }

    #[test]
    fn ft_allreduce_survivors_agree_bitwise() {
        let values = repro_gen::zero_sum_with_range(6_000, 16, 44);
        let ranks = 5;
        let plan = crate::fault::FaultPlan::new(8)
            .with_kill(2, 1)
            .with_timeouts(Duration::from_millis(10), 2);
        let cfg = ReduceConfig::default();
        let report = World::run_report(ranks, &plan, |c| {
            let mine = chunks(&values, c.size(), c.rank());
            let mut acc = BinnedSum::new(3);
            acc.add_slice(mine);
            ft_allreduce_sum_acc(c, acc, &cfg)
        })
        .unwrap();
        let bits: Vec<u64> = report
            .survivors()
            .iter()
            .map(|&r| report.results[r].as_ref().unwrap().value.unwrap().to_bits())
            .collect();
        assert!(bits.len() >= ranks - 1);
        assert!(bits.windows(2).all(|w| w[0] == w[1]), "{bits:?}");
    }

    #[test]
    fn ft_adaptive_reduce_survives_a_dead_profiler() {
        // A zero spread budget still profiles (and still selects DS on
        // this cancelling data), so rank 5 dies at its profile send.
        let values = repro_gen::zero_sum_with_range(10_000, 24, 13);
        let ranks = 6;
        let plan = crate::fault::FaultPlan::new(9)
            .with_kill(5, 1)
            .with_timeouts(Duration::from_millis(10), 2);
        let cfg = ReduceConfig::default();
        let report = World::run_report(ranks, &plan, |c| {
            let mine = chunks(&values, c.size(), c.rank());
            ft_adaptive_reduce_sum(c, mine, Tolerance::AbsoluteSpread(0.0), 0, &cfg)
        })
        .unwrap();
        let out = report.results[0].as_ref().unwrap();
        let (sum, alg) = out.value.unwrap();
        assert_eq!(alg, EXACT);
        assert!(!out.survivors.contains(&5));
        // The chosen reproducible operator over the survivor inputs,
        // sequentially, must match bitwise.
        let mut reference = alg.new_accumulator();
        for &r in &out.survivors {
            reference.add_slice(chunks(&values, ranks, r));
        }
        assert_eq!(sum.to_bits(), reference.finalize().to_bits());
    }

    #[test]
    fn bitwise_adaptive_reduces_send_no_profile() {
        let values = repro_gen::zero_sum_with_range(10_000, 24, 13);
        let ranks = 6;
        let plan = crate::fault::FaultPlan::new(9)
            .with_kill(5, 1)
            .with_timeouts(Duration::from_millis(10), 2);
        let cfg = ReduceConfig::default();
        let (report, events) = World::run_report_traced(ranks, &plan, true, |c| {
            let mine = chunks(&values, c.size(), c.rank());
            ft_adaptive_reduce_sum(c, mine, Tolerance::Bitwise, 0, &cfg)
        })
        .unwrap();
        let out = report.results[0].as_ref().unwrap();
        let (sum, alg) = out.value.unwrap();
        assert_eq!(alg, EXACT);
        assert!(!out.survivors.contains(&5));
        let survivors: Vec<f64> = out
            .survivors
            .iter()
            .flat_map(|&r| chunks(&values, ranks, r).iter().copied())
            .collect();
        assert_eq!(sum.to_bits(), repro_fp::exact_sum(&survivors).to_bits());
        // Per rank, the `(to, tag)` of every send equals one exact reduce's:
        // a profile round would add one send per non-root rank and a
        // choice broadcast from the root.
        let (_, reference) = World::run_report_traced(ranks, &plan, true, |c| {
            ft_reduce_sum(c, chunks(&values, c.size(), c.rank()), EXACT, 0, &cfg)
        })
        .unwrap();
        let sends = |events: &[repro_obs::Event]| -> Vec<String> {
            events
                .iter()
                .filter(|e| e.kind == "send")
                .map(|e| format!("{} {:?}", e.sub, &e.fields[..2]))
                .collect()
        };
        assert_eq!(sends(&events), sends(&reference));

        // Fault-free: the root returns the exact sum of every rank's values.
        let out = World::run(ranks, |c| {
            let mine = chunks(&values, c.size(), c.rank());
            adaptive_reduce_sum(c, mine, Tolerance::Bitwise, 0, &cfg)
        });
        let (sum, alg) = out[0].unwrap();
        assert_eq!(
            (sum.to_bits(), alg),
            (repro_fp::exact_sum(&values).to_bits(), EXACT)
        );
    }

    /// Whether a plain 4-rank `reduce_sum` panics (and so cannot hang).
    fn reduce_panics(topology: ReduceTopology, jitter_us: u64, root: usize) -> bool {
        let cfg = ReduceConfig {
            topology,
            jitter_us,
            jitter_seed: 0,
        };
        let reduce = || {
            World::run(4, |c| {
                reduce_sum(c, &[1.0], Algorithm::Standard, root, &cfg)
            })
        };
        std::panic::catch_unwind(reduce).is_err()
    }

    /// A root outside the world panics on every rank before any message
    /// moves, so `World::run` reports it rather than hanging or handing the
    /// result to another rank.
    #[test]
    fn a_root_outside_the_world_panics_instead_of_hanging() {
        for topology in [
            ReduceTopology::Binomial,
            ReduceTopology::FlatArrival,
            ReduceTopology::Chain,
        ] {
            assert!(reduce_panics(topology, 0, 4), "{topology:?}");
        }
        let bcast = || World::run(4, |c| broadcast(c, 4, Some(1.0)));
        assert!(std::panic::catch_unwind(bcast).is_err());
    }

    /// Each rank's ordered `(to, tag)` sends of a plain reduce, an
    /// allreduce and a fault-free healing reduce, on 7 ranks with root 3:
    /// the message pattern of the tree walk, tags in hex.
    #[test]
    fn tree_walk_send_sequence_is_pinned() {
        let values = repro_gen::zero_sum_with_range(700, 12, 3);
        let plan = crate::fault::FaultPlan::new(0);
        let mut text = String::new();
        for topology in [ReduceTopology::Binomial, ReduceTopology::Chain] {
            let cfg = ReduceConfig::validated(topology, 0, 0).unwrap();
            let (_, events) = World::run_report_traced(7, &plan, true, |c| {
                let mine = chunks(&values, c.size(), c.rank());
                reduce_sum(c, mine, Algorithm::Standard, 3, &cfg);
                allreduce_sum_acc(c, local_accumulate(mine, Algorithm::Standard), &cfg);
                ft_reduce_sum(c, mine, Algorithm::Standard, 3, &cfg)
            })
            .unwrap();
            let mut sends = std::collections::BTreeMap::<&str, String>::new();
            for e in events.iter().filter(|e| e.kind == "send") {
                if let [(_, Value::UInt(to)), (_, Value::UInt(tag)), ..] = &e.fields[..] {
                    *sends.entry(&e.sub).or_default() += &format!(" {to}@{tag:x}");
                }
            }
            for (sub, line) in sends {
                text += &format!("{topology:?} {sub}:{line}\n");
            }
        }
        assert_eq!(text, PINNED_SENDS);
    }

    const PINNED_SENDS: &str = "\
Binomial rank0: 3@8000000000000001 4@8000000000000003 2@8000000000000003 1@8000000000000003 3@8000000000000004 3@8000002000000004
Binomial rank1: 0@8000000000000001 0@8000000000000002 3@8000000000000004 0@8000002000000004
Binomial rank2: 0@8000000000000001 0@8000000000000002 3@8000000000000003 3@8000000000000004 0@8000002000000004
Binomial rank3: 2@8000000000000002 0@8000001000000004 1@8000001000000004 2@8000001000000004 4@8000001000000004 5@8000001000000004 6@8000001000000004 0@8000003000000004 1@8000003000000004 2@8000003000000004 4@8000003000000004 5@8000003000000004 6@8000003000000004
Binomial rank4: 3@8000000000000001 0@8000000000000002 6@8000000000000003 5@8000000000000003 3@8000000000000004 3@8000002000000004
Binomial rank5: 3@8000000000000001 4@8000000000000002 3@8000000000000004 3@8000002000000004
Binomial rank6: 5@8000000000000001 4@8000000000000002 3@8000000000000004 5@8000002000000004
Chain rank0: 6@8000000000000001 4@8000000000000003 2@8000000000000003 1@8000000000000003 3@8000000000000004 6@8000002000000004
Chain rank1: 0@8000000000000001 0@8000000000000002 3@8000000000000004 0@8000002000000004
Chain rank2: 1@8000000000000001 1@8000000000000002 3@8000000000000003 3@8000000000000004 1@8000002000000004
Chain rank3: 2@8000000000000002 0@8000001000000004 1@8000001000000004 2@8000001000000004 4@8000001000000004 5@8000001000000004 6@8000001000000004 0@8000003000000004 1@8000003000000004 2@8000003000000004 4@8000003000000004 5@8000003000000004 6@8000003000000004
Chain rank4: 3@8000000000000001 3@8000000000000002 6@8000000000000003 5@8000000000000003 3@8000000000000004 3@8000002000000004
Chain rank5: 4@8000000000000001 4@8000000000000002 3@8000000000000004 4@8000002000000004
Chain rank6: 5@8000000000000001 5@8000000000000002 3@8000000000000004 5@8000002000000004
";
}

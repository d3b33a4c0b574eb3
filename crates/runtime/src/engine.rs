//! The reduction engine: plans executed on the persistent pool.

use crate::plan::{MergeOrder, ReductionPlan};
use crate::pool::{PoolCounters, ThreadPool};
use crate::stats::RuntimeStats;
use repro_fp::Superaccumulator;
use repro_sum::lanes::{chunk_len, merge_in_lane_order, merge_tree};
use repro_sum::Accumulator;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::{Duration, Instant};

/// Exact shadow state carried alongside one reduction-tree node when
/// telemetry is on: the correctly-rounded sum (for ulp deviation) and the
/// exact absolute-value sum (for the Higham bound `n·u·Σ|xᵢ|`).
struct NodeShadow {
    exact: Superaccumulator,
    abs: Superaccumulator,
    n: usize,
}

impl NodeShadow {
    fn over(chunk: &[f64]) -> Self {
        let mut exact = Superaccumulator::new();
        let mut abs = Superaccumulator::new();
        exact.add_slice_pair(&mut abs, chunk);
        NodeShadow {
            exact,
            abs,
            n: chunk.len(),
        }
    }

    fn absorb(&mut self, other: &Self) {
        self.exact.merge(&other.exact);
        self.abs.merge(&other.abs);
        self.n += other.n;
    }
}

/// Emits `node` telemetry events and aggregates them into a registry.
/// Ordinals count nodes in deterministic plan order (leaves first, then
/// merges in tree order), which is what the sampling policy keys on.
struct NodeObserver<'r> {
    telemetry: repro_obs::TelemetryConfig,
    registry: Option<&'r repro_obs::Registry>,
    ordinal: u64,
    max_ulps: u64,
}

impl<'r> NodeObserver<'r> {
    fn new(
        telemetry: repro_obs::TelemetryConfig,
        registry: Option<&'r repro_obs::Registry>,
    ) -> Self {
        NodeObserver {
            telemetry,
            registry,
            ordinal: 0,
            max_ulps: 0,
        }
    }

    /// Emit the event for merge-tree node `(i, stride)` of `plan`
    /// (`stride == 0` for leaf chunk `i`).
    fn emit(
        &mut self,
        scope: &mut repro_obs::Scope,
        plan: &ReductionPlan,
        i: usize,
        stride: usize,
        partial: f64,
        shadow: &NodeShadow,
    ) {
        use repro_obs::f;
        let bound = repro_fp::higham_bound(shadow.n, shadow.abs.to_f64());
        let span = plan.node_span(i, stride);
        let mut fields = vec![
            f("node", plan.node_id(i, stride)),
            f("start", span.start),
            f("len", span.len()),
            f("sum_bits", format!("{:016x}", partial.to_bits())),
            f("bound", bound),
        ];
        if self.telemetry.sample_exact(self.ordinal) {
            let exact = shadow.exact.to_f64();
            let ulps = repro_fp::ulp_distance(partial, exact);
            fields.push(f("ulps", ulps));
            fields.push(f("exact_bits", format!("{:016x}", exact.to_bits())));
            self.max_ulps = self.max_ulps.max(ulps);
            if let Some(r) = self.registry {
                r.counter_add("runtime.nodes_sampled", 1);
                r.observe("runtime.node_ulp", repro_obs::ULP_BUCKET_EDGES, ulps);
                r.gauge_set("runtime.max_node_ulp", self.max_ulps as f64);
            }
        }
        if let Some(r) = self.registry {
            r.counter_add("runtime.nodes_observed", 1);
        }
        self.ordinal += 1;
        scope.event("node", fields);
    }
}

/// One chunk's partial: a fresh accumulator fed the chunk with
/// [`Accumulator::add_slice`], the operator's natural sequential loop.
fn reduce_chunk<A: Accumulator>(make: &impl Fn() -> A, chunk: &[f64]) -> A {
    let mut acc = make();
    acc.add_slice(chunk);
    acc
}

/// Wall clock and pool counters at the start of one engine call.
struct CallStart {
    t0: Instant,
    pool: PoolCounters,
}

/// Attempts per chunk (1 initial + retries) before
/// [`Runtime::accumulate_resumable`] gives up on a persistently failing
/// chunk.
pub const MAX_CHUNK_ATTEMPTS: u32 = 8;

/// Failure oracle for [`Runtime::accumulate_resumable`]: called with
/// `(chunk index, attempt number)`; returning `true` makes that chunk task
/// die without reporting, like a killed worker.
pub type ChunkFailureInjector<'a> = &'a (dyn Fn(usize, u32) -> bool + Sync);

/// Per-chunk accumulator snapshots taken at merge boundaries, so a retry
/// resumes from the last checkpoint instead of re-reducing everything.
///
/// A store is bound to one plan shape (chunk count); reusing it across
/// calls with the same plan and data turns completed chunks into
/// `checkpoint_restores` instead of recomputation. [`CheckpointStore::invalidate`]
/// models losing one chunk's state (that chunk alone is re-reduced).
#[derive(Clone, Debug)]
pub struct CheckpointStore<A> {
    slots: Vec<Option<A>>,
}

impl<A> CheckpointStore<A> {
    /// An empty store shaped for `plan`.
    pub fn for_plan(plan: &ReductionPlan) -> Self {
        CheckpointStore {
            slots: (0..plan.num_chunks()).map(|_| None).collect(),
        }
    }

    /// Whether this store matches `plan`'s chunk count.
    pub fn matches(&self, plan: &ReductionPlan) -> bool {
        self.slots.len() == plan.num_chunks()
    }

    /// Number of chunks currently checkpointed.
    pub fn saved(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Drop one chunk's checkpoint (it will be re-reduced on resume).
    pub fn invalidate(&mut self, chunk: usize) {
        if let Some(slot) = self.slots.get_mut(chunk) {
            *slot = None;
        }
    }

    /// Drop every checkpoint.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
    }
}

/// Errors from the resumable engine path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The checkpoint store was built for a different plan shape.
    PlanMismatch {
        /// Chunk slots in the store.
        store_chunks: usize,
        /// Chunks in the plan.
        plan_chunks: usize,
    },
    /// A chunk kept failing through every retry.
    ChunkFailed {
        /// The failing chunk index.
        chunk: usize,
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::PlanMismatch {
                store_chunks,
                plan_chunks,
            } => write!(
                f,
                "checkpoint store has {store_chunks} slots but the plan has {plan_chunks} chunks"
            ),
            EngineError::ChunkFailed { chunk, attempts } => {
                write!(f, "chunk {chunk} failed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// A persistent parallel reduction runtime: one work-stealing pool reused
/// by every reduction in the process.
pub struct Runtime {
    pool: ThreadPool,
}

static GLOBAL: OnceLock<Runtime> = OnceLock::new();

/// The most workers `REPRO_RUNTIME_WORKERS` may ask for: each is an OS
/// thread, spawned when the shared pool starts.
pub const MAX_WORKERS: usize = 1024;

/// The worker count a `REPRO_RUNTIME_WORKERS` value names: an integer in
/// `1..=`[`MAX_WORKERS`], or an error naming the value.
/// [`Runtime::global`] falls back to the machine's parallelism on an
/// error; `repro-reduce` refuses to start.
pub fn parse_workers(value: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .ok()
        .filter(|w| (1..=MAX_WORKERS).contains(w))
        .ok_or_else(|| {
            format!(
                "REPRO_RUNTIME_WORKERS={value:?} is not a worker count (an integer from 1 to {MAX_WORKERS})"
            )
        })
}

impl Runtime {
    /// A runtime with its own pool of `workers` threads.
    pub fn new(workers: usize) -> Self {
        Runtime {
            pool: ThreadPool::new(workers),
        }
    }

    /// The process-wide shared runtime. Worker count comes from
    /// `REPRO_RUNTIME_WORKERS` when [`parse_workers`] accepts it, and is
    /// the machine's available parallelism otherwise.
    pub fn global() -> &'static Runtime {
        GLOBAL.get_or_init(|| {
            let workers = std::env::var("REPRO_RUNTIME_WORKERS")
                .ok()
                .and_then(|v| parse_workers(&v).ok())
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(4)
                });
            Runtime::new(workers)
        })
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// [`Runtime::accumulate`], finalized.
    pub fn reduce<A, F>(
        &self,
        values: &[f64],
        plan: &ReductionPlan,
        make: F,
        order: MergeOrder,
    ) -> f64
    where
        A: Accumulator,
        F: Fn() -> A + Sync,
    {
        self.accumulate(values, plan, make, order).0.finalize()
    }

    /// Reduce `values` under `plan`: each chunk is `make()` fed the chunk
    /// with [`Accumulator::add_slice`] on the pool, and the partials merge
    /// per `order`. Returns the merged **accumulator** instead of
    /// finalizing it — the local-compute building block for distributed
    /// reductions, where the partial keeps travelling — and this call's
    /// [`RuntimeStats`].
    ///
    /// [`MergeOrder::Plan`] runs the walk [`Runtime::reduce_telemetry`]
    /// narrates, with nothing recorded, so a traced call and a plain one
    /// share their bits by construction.
    pub fn accumulate<A, F>(
        &self,
        values: &[f64],
        plan: &ReductionPlan,
        make: F,
        order: MergeOrder,
    ) -> (A, RuntimeStats)
    where
        A: Accumulator,
        F: Fn() -> A + Sync,
    {
        let start = self.begin(plan, values);
        let (result, chunk_time, merge_time) = match order {
            MergeOrder::Arrival => {
                // Merge in genuine completion order, overlapping the
                // remaining chunk work.
                let mut root = make();
                let mut merge_time = Duration::ZERO;
                let chunk_time = self.run_chunks(
                    plan,
                    0..plan.num_chunks(),
                    |_, range| Some(reduce_chunk(&make, &values[range])),
                    |_, part| {
                        let t = Instant::now();
                        root.merge(&part);
                        merge_time += t.elapsed();
                    },
                );
                (root, chunk_time, merge_time)
            }
            MergeOrder::Plan => self.plan_walk(
                values,
                plan,
                &make,
                &mut repro_obs::Scope::disabled(),
                repro_obs::TelemetryConfig::off(),
                None,
            ),
        };
        let stats = self.stats(start, plan, chunk_time, merge_time);
        // Flight-record the reduction's plan-derived shape (never the
        // timing fields) so a post-mortem shows what the runtime was doing
        // when the process died. One ring push per reduction — not per
        // chunk — keeps the always-on cost negligible, and the lazy field
        // builder means a disabled recorder pays only the branch.
        repro_obs::flight::record_with("runtime", "reduce", || {
            vec![
                repro_obs::f("n", values.len()),
                repro_obs::f("chunks", plan.num_chunks()),
                repro_obs::f("workers", self.pool.workers()),
            ]
        });
        (result, stats)
    }

    /// [`Runtime::reduce`] with [`MergeOrder::Plan`], narrated into an
    /// observability scope: a `reduce_begin` event with the plan shape, one
    /// `chunk_exec` event per chunk **in plan order** (regardless of which
    /// worker ran it when), one `merge` event per merge step in the fixed
    /// tree order, and a `reduce_end` event carrying the result's bit
    /// pattern.
    ///
    /// Because the merge order, the chunk boundaries, and the event order
    /// all derive from the plan alone, the emitted events are
    /// byte-identical across runs and worker counts. Nondeterministic
    /// facts (steals, wall times) are deliberately left out of the event
    /// stream; publish the returned [`RuntimeStats`] into a
    /// [`repro_obs::Registry`] for those.
    ///
    /// When `telemetry` is enabled, each reduction-tree node (leaf chunks
    /// and plan-order merges) additionally emits one `node` event right
    /// after its `chunk_exec`/`merge` event, carrying the plan-derived node
    /// id ([`ReductionPlan::node_id`]), the element interval, the node's
    /// partial-sum bits, and the running Higham bound `n·u·Σ|xᵢ|` over the
    /// interval. At nodes selected by
    /// [`repro_obs::TelemetryConfig::sample_exact`] (counted in plan
    /// order), the event also carries the exact ulp deviation against a
    /// [`repro_fp::Superaccumulator`] shadow reduction.
    ///
    /// The `node` events are strictly **additive**: stripping them from a
    /// stream recorded with telemetry on recovers the stream recorded with
    /// [`repro_obs::TelemetryConfig::off`]. Either way the stream stays
    /// worker-count-invariant — the shadow reduction and bounds are
    /// computed serially in plan order after the parallel phase.
    ///
    /// With a `registry`, per-node facts aggregate into it: counters
    /// `runtime.nodes_observed` / `runtime.nodes_sampled`, the
    /// `runtime.node_ulp` histogram (buckets
    /// [`repro_obs::ULP_BUCKET_EDGES`]), and the `runtime.max_node_ulp`
    /// gauge.
    pub fn reduce_telemetry<A, F>(
        &self,
        values: &[f64],
        plan: &ReductionPlan,
        make: F,
        scope: &mut repro_obs::Scope,
        telemetry: repro_obs::TelemetryConfig,
        registry: Option<&repro_obs::Registry>,
    ) -> (f64, RuntimeStats)
    where
        A: Accumulator,
        F: Fn() -> A + Sync,
    {
        let start = self.begin(plan, values);
        let (result, chunk_time, merge_time) =
            self.plan_walk(values, plan, &make, scope, telemetry, registry);
        (
            result.finalize(),
            self.stats(start, plan, chunk_time, merge_time),
        )
    }

    /// The plan-order reduction, written once: reduce every chunk on the
    /// pool, then narrate the chunks and fold them along the plan's merge
    /// tree ([`merge_tree`]) on the calling thread. Returns the root and
    /// the chunk and merge wall times. A disabled `scope` builds no event
    /// fields, and telemetry off builds no shadow.
    fn plan_walk<A, F>(
        &self,
        values: &[f64],
        plan: &ReductionPlan,
        make: &F,
        scope: &mut repro_obs::Scope,
        telemetry: repro_obs::TelemetryConfig,
        registry: Option<&repro_obs::Registry>,
    ) -> (A, Duration, Duration)
    where
        A: Accumulator,
        F: Fn() -> A + Sync,
    {
        use repro_obs::f;
        // Deliberately no worker count here: the event stream must be
        // invariant across pool sizes, and `workers` is an execution fact,
        // not a plan fact — it lives in RuntimeStats/the registry.
        scope.event_with("reduce_begin", || {
            vec![
                f("n", values.len()),
                f("chunks", plan.num_chunks()),
                f("merge_depth", plan.merge_depth()),
            ]
        });
        let (parts, chunk_time) =
            self.collect_chunks(plan, |_, range| reduce_chunk(make, &values[range]));

        // Narrate chunk completion in plan order, after the barrier: the
        // workers raced, the story must not. With telemetry on, each leaf
        // carries an exact shadow (superaccumulators of the chunk and of
        // its absolute values), computed serially in plan order so the
        // telemetry is as worker-count-invariant as the events it decorates.
        let mut nodes = NodeObserver::new(telemetry, registry);
        let mut leaves = Vec::with_capacity(parts.len());
        for ((i, range), part) in plan.chunks().iter().enumerate().zip(parts) {
            scope.event_with("chunk_exec", || {
                vec![
                    f("chunk", i),
                    f("start", range.start),
                    f("len", range.len()),
                ]
            });
            let shadow = telemetry
                .enabled()
                .then(|| NodeShadow::over(&values[range.clone()]));
            if let Some(shadow) = &shadow {
                nodes.emit(scope, plan, i, 0, part.finalize(), shadow);
            }
            leaves.push((part, shadow));
        }

        let t = Instant::now();
        let mut step = 0usize;
        let (result, _) = merge_tree(leaves, |i, stride, left, right| {
            scope.event_with("merge", || vec![f("step", step)]);
            step += 1;
            left.0.merge(&right.0);
            if let (Some(shadow), Some(other)) = (&mut left.1, &right.1) {
                shadow.absorb(other);
                nodes.emit(scope, plan, i, stride, left.0.finalize(), shadow);
            }
        })
        .expect("plan has at least one chunk");
        let merge_time = t.elapsed();

        scope.event_with("reduce_end", || {
            vec![
                f("merges", plan.num_chunks() - 1),
                f("sum_bits", format!("{:016x}", result.finalize().to_bits())),
            ]
        });
        (result, chunk_time, merge_time)
    }

    /// Resumable reduction with checkpointed partials: every completed
    /// chunk's accumulator is snapshotted into `store` at the merge
    /// boundary, chunks already checkpointed are restored instead of
    /// re-reduced, and chunks whose task fails (as decided by `inject`,
    /// modelling a dying worker or rank retry) are re-executed up to
    /// [`MAX_CHUNK_ATTEMPTS`] times.
    ///
    /// The merge always follows **plan order** over the checkpoint slots,
    /// so the result is bitwise identical to a plain
    /// [`Runtime::accumulate`] with [`MergeOrder::Plan`] for *any*
    /// operator — interrupting, retrying, and resuming never change the
    /// association.
    pub fn accumulate_resumable<A, F>(
        &self,
        values: &[f64],
        plan: &ReductionPlan,
        make: F,
        store: &mut CheckpointStore<A>,
        inject: Option<ChunkFailureInjector<'_>>,
    ) -> Result<(A, RuntimeStats), EngineError>
    where
        A: Accumulator,
        F: Fn() -> A + Sync,
    {
        let start = self.begin(plan, values);
        if !store.matches(plan) {
            return Err(EngineError::PlanMismatch {
                store_chunks: store.slots.len(),
                plan_chunks: plan.num_chunks(),
            });
        }
        let checkpoint_restores = store.saved() as u64;
        let mut chunk_time = Duration::ZERO;
        let mut to_run: Vec<usize> = (0..plan.num_chunks())
            .filter(|&i| store.slots[i].is_none())
            .collect();
        let mut retries = 0u64;
        let mut heals = 0u64;
        let mut attempt: u32 = 0;
        while !to_run.is_empty() && attempt < MAX_CHUNK_ATTEMPTS {
            if attempt > 0 {
                retries += to_run.len() as u64;
            }
            chunk_time += self.run_chunks(
                plan,
                to_run.iter().copied(),
                |i, range| {
                    // An injected failure is a chunk that reports nothing,
                    // exactly like a killed worker.
                    if inject.is_some_and(|f| f(i, attempt)) {
                        return None;
                    }
                    Some(reduce_chunk(&make, &values[range]))
                },
                |i, acc| {
                    if attempt > 0 {
                        heals += 1;
                    }
                    store.slots[i] = Some(acc);
                },
            );
            to_run.retain(|&i| store.slots[i].is_none());
            attempt += 1;
        }
        if let Some(&chunk) = to_run.first() {
            return Err(EngineError::ChunkFailed {
                chunk,
                attempts: attempt,
            });
        }

        // Merge clones of the checkpoints in plan order; the store keeps
        // the partials so a later caller can invalidate and resume.
        let t = Instant::now();
        let parts: Vec<A> = store.slots.iter().flatten().cloned().collect();
        let result = merge_in_lane_order(parts).expect("plan has at least one chunk");
        let merge_time = t.elapsed();
        let stats = RuntimeStats {
            retries,
            heals,
            checkpoint_restores,
            ..self.stats(start, plan, chunk_time, merge_time)
        };
        Ok((result, stats))
    }

    /// Apply `f` to every chunk of the plan on the pool and return the
    /// results **in plan (chunk-index) order** — the parallel backbone for
    /// operand profiling and other per-chunk passes.
    pub fn map_chunks<T, F>(&self, plan: &ReductionPlan, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> T + Sync,
    {
        self.collect_chunks(plan, f).0
    }

    /// Check that `plan` covers `values`, then start the call's clock.
    fn begin(&self, plan: &ReductionPlan, values: &[f64]) -> CallStart {
        assert_eq!(
            plan.len(),
            values.len(),
            "plan covers {} elements but {} were supplied",
            plan.len(),
            values.len()
        );
        CallStart {
            t0: Instant::now(),
            pool: self.pool.counters(),
        }
    }

    /// The call's [`RuntimeStats`], with no retries, heals or restores.
    fn stats(
        &self,
        start: CallStart,
        plan: &ReductionPlan,
        chunk_time: Duration,
        merge_time: Duration,
    ) -> RuntimeStats {
        let after = self.pool.counters();
        RuntimeStats {
            workers: self.pool.workers(),
            chunks: plan.num_chunks(),
            tasks_executed: after.executed.saturating_sub(start.pool.executed),
            steals: after.stolen.saturating_sub(start.pool.stolen),
            merge_depth: plan.merge_depth(),
            chunk_time,
            merge_time,
            total_time: start.t0.elapsed(),
            ..RuntimeStats::default()
        }
    }

    /// The engine's one chunk executor: run `task(i, range)` on the pool
    /// for each index `i` in `chunks` of `plan`'s chunks, and hand each
    /// result to `sink` on the calling thread as it arrives, in genuine
    /// completion order. A task that returns `None` reports nothing.
    /// Returns the summed wall time spent inside tasks.
    fn run_chunks<T, F, S>(
        &self,
        plan: &ReductionPlan,
        chunks: impl Iterator<Item = usize>,
        task: F,
        mut sink: S,
    ) -> Duration
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> Option<T> + Sync,
        S: FnMut(usize, T),
    {
        let nanos = AtomicU64::new(0);
        self.pool.scope(|s| {
            let (tx, rx) = mpsc::channel::<(usize, T)>();
            for i in chunks {
                let (tx, task, nanos) = (tx.clone(), &task, &nanos);
                let range = plan.chunks()[i].clone();
                s.spawn(move || {
                    let t = Instant::now();
                    let out = task(i, range);
                    nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    if let Some(out) = out {
                        // The root hangs up early only if it panicked; ignore.
                        let _ = tx.send((i, out));
                    }
                });
            }
            drop(tx);
            for (i, out) in rx {
                sink(i, out);
            }
        });
        Duration::from_nanos(nanos.load(Ordering::Relaxed))
    }

    /// [`Runtime::run_chunks`] over every chunk of `plan`, with the results
    /// collected in plan (chunk-index) order.
    fn collect_chunks<T, F>(&self, plan: &ReductionPlan, task: F) -> (Vec<T>, Duration)
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = (0..plan.num_chunks()).map(|_| None).collect();
        let time = self.run_chunks(
            plan,
            0..plan.num_chunks(),
            |i, range| Some(task(i, range)),
            |i, out| {
                slots[i] = Some(out);
            },
        );
        let parts = slots
            .into_iter()
            .map(|s| s.expect("every chunk task reports"))
            .collect();
        (parts, time)
    }
}

/// The old spawn-per-call reference path: one OS thread per chunk, every
/// call. Kept for benchmarking against the pooled engine and as the
/// semantic baseline the engine must match: its chunks are those of
/// [`ReductionPlan::with_chunk_count`]`(values.len(), workers)`, and
/// [`MergeOrder::Plan`] merges them along the same fixed tree.
pub fn spawn_reduce<A, F>(values: &[f64], workers: usize, make: F, order: MergeOrder) -> f64
where
    A: Accumulator,
    F: Fn() -> A + Sync,
{
    assert!(workers >= 1);
    if values.is_empty() {
        return make().finalize();
    }
    let mut partials: Vec<(usize, A)> = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, A)>();
        for (i, piece) in values.chunks(chunk_len(values.len(), workers)).enumerate() {
            let tx = tx.clone();
            let make = &make;
            scope.spawn(move || {
                let mut acc = make();
                acc.add_slice(piece);
                tx.send((i, acc)).expect("root outlives workers");
            });
        }
        drop(tx);
        rx.iter().collect() // arrival order
    });

    match order {
        MergeOrder::Arrival => {
            let mut root = make();
            for (_, partial) in &partials {
                root.merge(partial);
            }
            root.finalize()
        }
        MergeOrder::Plan => {
            partials.sort_by_key(|(i, _)| *i);
            let parts = partials.into_iter().map(|(_, acc)| acc).collect();
            merge_in_lane_order(parts)
                .expect("non-empty input has a chunk")
                .finalize()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_sum::{BinnedSum, CompositeSum, StandardSum};

    fn data(n: usize) -> Vec<f64> {
        // Deterministic, sign-alternating, wide-exponent data.
        (0..n)
            .map(|i| {
                let e = (i % 40) as i32 - 20;
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                sign * (i as f64 + 0.5) * (e as f64).exp2()
            })
            .collect()
    }

    #[test]
    fn single_chunk_matches_sequential() {
        let rt = Runtime::new(4);
        let values = data(10_000);
        let seq: f64 = values.iter().sum();
        let plan = ReductionPlan::with_chunk_count(values.len(), 1);
        let par = rt.reduce(&values, &plan, StandardSum::new, MergeOrder::Arrival);
        assert_eq!(par.to_bits(), seq.to_bits());
    }

    #[test]
    fn plan_order_is_worker_count_invariant_for_any_operator() {
        let values = data(50_000);
        let plan = ReductionPlan::with_chunk_len(values.len(), 1024);
        let reference = Runtime::new(1).reduce(&values, &plan, StandardSum::new, MergeOrder::Plan);
        for workers in [2usize, 4, 8] {
            let rt = Runtime::new(workers);
            for _ in 0..3 {
                let got = rt.reduce(&values, &plan, StandardSum::new, MergeOrder::Plan);
                assert_eq!(
                    got.to_bits(),
                    reference.to_bits(),
                    "ST diverged under plan order at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn arrival_order_is_absorbed_by_binned() {
        let values = data(60_000);
        let rt = Runtime::new(8);
        let plan = ReductionPlan::with_chunk_len(values.len(), 2048);
        let reference = rt.reduce(&values, &plan, || BinnedSum::new(3), MergeOrder::Plan);
        for _ in 0..10 {
            let got = rt.reduce(&values, &plan, || BinnedSum::new(3), MergeOrder::Arrival);
            assert_eq!(got.to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn composite_stays_accurate_under_any_arrival() {
        let values = repro_gen::zero_sum_with_range(50_000, 16, 29);
        let rt = Runtime::new(4);
        let plan = ReductionPlan::with_chunk_count(values.len(), 8);
        for _ in 0..5 {
            let run = rt.reduce(&values, &plan, CompositeSum::new, MergeOrder::Arrival);
            // Exact sum is 0; CP must stay within a tight absolute band.
            let bound = repro_fp::exact_abs_sum(&values) * repro_fp::UNIT_ROUNDOFF * 4.0;
            assert!(run.abs() <= bound, "CP error {run:e} > {bound:e}");
        }
    }

    #[test]
    fn pooled_matches_spawn_reference_for_reproducible_ops() {
        let values = data(30_000);
        let rt = Runtime::new(4);
        let spawned = spawn_reduce(&values, 4, || BinnedSum::new(3), MergeOrder::Arrival);
        let plan = ReductionPlan::for_len(values.len());
        let pooled = rt.reduce(&values, &plan, || BinnedSum::new(3), MergeOrder::Arrival);
        assert_eq!(spawned.to_bits(), pooled.to_bits());
    }

    #[test]
    fn spawn_reference_plan_order_is_the_plan_tree() {
        // StandardSum is order-sensitive: equal bits mean the reference
        // path cuts the same chunks and merges them along the same tree.
        let values = data(30_000);
        let rt = Runtime::new(4);
        for w in 2..=8 {
            let spawned = spawn_reduce(&values, w, StandardSum::new, MergeOrder::Plan);
            let plan = ReductionPlan::with_chunk_count(values.len(), w);
            let pooled = rt.reduce(&values, &plan, StandardSum::new, MergeOrder::Plan);
            assert_eq!(spawned.to_bits(), pooled.to_bits(), "workers = {w}");
        }
    }

    #[test]
    fn empty_input_reduces_to_identity() {
        let rt = Runtime::new(2);
        let plan = ReductionPlan::for_len(0);
        assert_eq!(
            rt.reduce(&[], &plan, StandardSum::new, MergeOrder::Arrival),
            0.0
        );
        assert_eq!(
            rt.reduce(&[], &plan, StandardSum::new, MergeOrder::Plan),
            0.0
        );
    }

    #[test]
    fn stats_report_the_call() {
        let rt = Runtime::new(4);
        let values = data(100_000);
        let plan = ReductionPlan::with_chunk_len(values.len(), 4096);
        let (_, stats) = rt.accumulate(&values, &plan, StandardSum::new, MergeOrder::Plan);
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.chunks, values.len().div_ceil(4096));
        // The pool is private to this test, so the count is exact.
        assert_eq!(stats.tasks_executed, stats.chunks as u64);
        assert_eq!(stats.merge_depth, 5); // 25 chunks -> depth 5
        assert!(stats.total_time.as_nanos() > 0);
    }

    #[test]
    fn map_chunks_returns_plan_order() {
        let rt = Runtime::new(4);
        let plan = ReductionPlan::with_chunk_len(1000, 64);
        let firsts = rt.map_chunks(&plan, |i, range| (i, range.start));
        for (i, (idx, start)) in firsts.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*start, i * 64);
        }
    }

    #[test]
    fn resumable_matches_plain_plan_order_bitwise() {
        let rt = Runtime::new(4);
        let values = data(40_000);
        let plan = ReductionPlan::with_chunk_len(values.len(), 1024);
        let (plain, _) = rt.accumulate(&values, &plan, StandardSum::new, MergeOrder::Plan);
        let mut store = CheckpointStore::for_plan(&plan);
        let (resumed, stats) = rt
            .accumulate_resumable(&values, &plan, StandardSum::new, &mut store, None)
            .unwrap();
        assert_eq!(resumed.finalize().to_bits(), plain.finalize().to_bits());
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.checkpoint_restores, 0);
        assert_eq!(store.saved(), plan.num_chunks());
    }

    #[test]
    fn injected_chunk_failures_are_retried_and_healed() {
        let rt = Runtime::new(4);
        let values = data(30_000);
        let plan = ReductionPlan::with_chunk_len(values.len(), 2048);
        let plain = rt.reduce(&values, &plan, || BinnedSum::new(3), MergeOrder::Plan);
        let mut store = CheckpointStore::for_plan(&plan);
        // Every third chunk dies on its first attempt.
        let inject = |chunk: usize, attempt: u32| attempt == 0 && chunk % 3 == 0;
        let (resumed, stats) = rt
            .accumulate_resumable(
                &values,
                &plan,
                || BinnedSum::new(3),
                &mut store,
                Some(&inject),
            )
            .unwrap();
        assert_eq!(resumed.finalize().to_bits(), plain.to_bits());
        let failing = plan.num_chunks().div_ceil(3) as u64;
        assert_eq!(stats.retries, failing);
        assert_eq!(stats.heals, failing);
    }

    #[test]
    fn resume_restores_checkpoints_instead_of_recomputing() {
        let rt = Runtime::new(4);
        let values = data(20_000);
        let plan = ReductionPlan::with_chunk_len(values.len(), 1024);
        let mut store = CheckpointStore::for_plan(&plan);
        let (first, _) = rt
            .accumulate_resumable(&values, &plan, || BinnedSum::new(3), &mut store, None)
            .unwrap();
        // Lose two chunks' state; the resume must only recompute those.
        store.invalidate(1);
        store.invalidate(7);
        let (second, stats) = rt
            .accumulate_resumable(&values, &plan, || BinnedSum::new(3), &mut store, None)
            .unwrap();
        assert_eq!(second.finalize().to_bits(), first.finalize().to_bits());
        assert_eq!(stats.checkpoint_restores, (plan.num_chunks() - 2) as u64);
        assert!(stats.tasks_executed <= 2 + 1);
    }

    #[test]
    fn persistently_failing_chunk_is_an_error() {
        let rt = Runtime::new(2);
        let values = data(5_000);
        let plan = ReductionPlan::with_chunk_len(values.len(), 512);
        let mut store = CheckpointStore::for_plan(&plan);
        let inject = |chunk: usize, _attempt: u32| chunk == 2;
        let err = rt
            .accumulate_resumable(&values, &plan, StandardSum::new, &mut store, Some(&inject))
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::ChunkFailed {
                chunk: 2,
                attempts: MAX_CHUNK_ATTEMPTS
            }
        );
        // Healthy chunks were still checkpointed for a later resume.
        assert_eq!(store.saved(), plan.num_chunks() - 1);
    }

    #[test]
    fn store_shape_mismatch_is_an_error() {
        let rt = Runtime::new(2);
        let values = data(4_000);
        let plan = ReductionPlan::with_chunk_len(values.len(), 512);
        let other = ReductionPlan::with_chunk_len(values.len(), 256);
        let mut store = CheckpointStore::for_plan(&other);
        let err = rt
            .accumulate_resumable(&values, &plan, StandardSum::new, &mut store, None)
            .unwrap_err();
        assert!(matches!(err, EngineError::PlanMismatch { .. }));
    }

    #[test]
    fn traced_reduce_matches_plain_and_replays_identically() {
        use repro_obs::{render_jsonl, TelemetryConfig, Trace};
        let values = data(30_000);
        let plan = ReductionPlan::with_chunk_len(values.len(), 2048);
        let rt = Runtime::new(4);
        let plain = rt.reduce(&values, &plan, || BinnedSum::new(3), MergeOrder::Plan);

        let run = |workers: usize| {
            let rt = Runtime::new(workers);
            let (trace, sink) = Trace::to_memory();
            let mut scope = trace.scope("runtime");
            let (sum, stats) = rt.reduce_telemetry(
                &values,
                &plan,
                || BinnedSum::new(3),
                &mut scope,
                TelemetryConfig::off(),
                None,
            );
            assert_eq!(stats.chunks, plan.num_chunks());
            (sum, render_jsonl(&sink.drain()))
        };
        let (sum_a, trace_a) = run(4);
        let (sum_b, trace_b) = run(7);
        assert_eq!(sum_a.to_bits(), plain.to_bits());
        assert_eq!(sum_b.to_bits(), plain.to_bits());
        // The event stream depends only on the plan, not the worker count.
        assert_eq!(trace_a, trace_b);
        let summary = repro_obs::validate_trace(&trace_a).unwrap();
        assert_eq!(summary.subsystems, vec!["runtime".to_string()]);
        // begin + chunks + (chunks-1) merges + end
        assert_eq!(summary.events, 2 * plan.num_chunks() + 1);
    }

    #[test]
    fn telemetry_off_is_byte_identical_to_plain_traced() {
        use repro_obs::{render_jsonl, TelemetryConfig, Trace};
        let values = data(20_000);
        let plan = ReductionPlan::with_chunk_len(values.len(), 2048);
        let rt = Runtime::new(4);
        let run = |telemetry: TelemetryConfig| {
            let (trace, sink) = Trace::to_memory();
            let mut scope = trace.scope("runtime");
            rt.reduce_telemetry(
                &values,
                &plan,
                || BinnedSum::new(3),
                &mut scope,
                telemetry,
                None,
            );
            render_jsonl(&sink.drain())
        };
        // With the off config, two calls emit the exact same bytes: the
        // determinism contract.
        assert_eq!(run(TelemetryConfig::off()), run(TelemetryConfig::off()));
        // And telemetry on is strictly additive: dropping the node lines
        // recovers the off stream, up to the logical timestamps the extra
        // events consumed.
        let drop_seq = |text: String| -> Vec<String> {
            text.lines()
                .filter(|l| !l.contains("\"kind\":\"node\""))
                .map(|l| {
                    let start = l.find(",\"seq\":").unwrap();
                    let rest = &l[start + 7..];
                    let end = rest.find(',').unwrap();
                    format!("{}{}", &l[..start], &rest[end..])
                })
                .collect()
        };
        assert_eq!(
            drop_seq(run(TelemetryConfig::full())),
            drop_seq(run(TelemetryConfig::off()))
        );
    }

    #[test]
    fn telemetry_nodes_cover_the_merge_tree_and_are_worker_invariant() {
        use repro_obs::{render_jsonl, TelemetryConfig, Trace};
        let values = data(10_000);
        let plan = ReductionPlan::with_chunk_len(values.len(), 1024); // 10 chunks
        let run = |workers: usize| {
            let rt = Runtime::new(workers);
            let (trace, sink) = Trace::to_memory();
            let mut scope = trace.scope("runtime");
            let registry = repro_obs::Registry::new();
            rt.reduce_telemetry(
                &values,
                &plan,
                StandardSum::new,
                &mut scope,
                TelemetryConfig::full(),
                Some(&registry),
            );
            (render_jsonl(&sink.drain()), registry.snapshot())
        };
        let (trace_a, snap) = run(4);
        let (trace_b, _) = run(7);
        assert_eq!(trace_a, trace_b, "telemetry must not depend on workers");

        let nodes = repro_obs::forensics::collect_nodes(&trace_a).unwrap();
        // 10 leaves + 9 merges, every one sampled under full().
        assert_eq!(nodes.len(), 2 * plan.num_chunks() - 1);
        assert_eq!(snap.counters["runtime.nodes_observed"], 19);
        assert_eq!(snap.counters["runtime.nodes_sampled"], 19);
        assert_eq!(snap.histograms["runtime.node_ulp"].count, 19);
        // The root node covers the whole input and its bound holds.
        let root = nodes
            .iter()
            .find(|n| n.len as usize == values.len())
            .expect("root node present");
        assert_eq!(root.start, 0);
        assert!(root.node.starts_with('m'));
        let exact: f64 = {
            let mut s = Superaccumulator::new();
            for &x in &values {
                s.add(x);
            }
            s.to_f64()
        };
        assert!((root.sum() - exact).abs() <= root.bound.unwrap());
        // Leaf node ids and intervals follow the plan.
        let leaf0 = nodes.iter().find(|n| n.node == "c0").unwrap();
        assert_eq!((leaf0.start, leaf0.len), (0, 1024));
    }

    #[test]
    fn telemetry_sampling_limits_exact_shadow_measurements() {
        use repro_obs::{render_jsonl, TelemetryConfig, Trace};
        let values = data(8_000);
        let plan = ReductionPlan::with_chunk_len(values.len(), 1024); // 8 chunks
        let rt = Runtime::new(4);
        let (trace, sink) = Trace::to_memory();
        let mut scope = trace.scope("runtime");
        rt.reduce_telemetry(
            &values,
            &plan,
            StandardSum::new,
            &mut scope,
            TelemetryConfig::sampled(4),
            None,
        );
        let text = render_jsonl(&sink.drain());
        let nodes = repro_obs::forensics::collect_nodes(&text).unwrap();
        assert_eq!(nodes.len(), 15); // 8 leaves + 7 merges
        let sampled = nodes.iter().filter(|n| n.ulps.is_some()).count();
        assert_eq!(sampled, 4); // ordinals 0, 4, 8, 12
        assert!(nodes.iter().all(|n| n.bound.is_some()));
    }

    #[test]
    fn stats_publish_into_a_registry() {
        let rt = Runtime::new(2);
        let values = data(10_000);
        let plan = ReductionPlan::with_chunk_len(values.len(), 1024);
        let (_, stats) = rt.accumulate(&values, &plan, StandardSum::new, MergeOrder::Plan);
        let registry = repro_obs::Registry::new();
        stats.publish(&registry, "runtime");
        let snap = registry.snapshot();
        assert_eq!(snap.gauges["runtime.workers"], 2.0);
        assert!(snap.counters["runtime.tasks_executed"] >= plan.num_chunks() as u64);
        assert_eq!(snap.histograms["runtime.total_time_us"].count, 1);
    }

    #[test]
    fn worker_count_is_an_integer_from_one_to_the_bound() {
        for bad in ["", "0", "abc", "-1", "1025", "18446744073709551616"] {
            let e = parse_workers(bad).unwrap_err();
            assert!(e.contains(&format!("{bad:?}")), "{e}");
        }
        assert_eq!(parse_workers("4"), Ok(4));
        assert_eq!(parse_workers("1024"), Ok(MAX_WORKERS));
    }

    #[test]
    fn global_runtime_is_shared_and_alive() {
        let a = Runtime::global();
        let b = Runtime::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.workers() >= 1);
        let plan = ReductionPlan::for_len(3);
        let sum = a.reduce(&[1.0, 2.0, 3.0], &plan, StandardSum::new, MergeOrder::Plan);
        assert_eq!(sum, 6.0);
    }
}

//! Ranks, mailboxes, and typed point-to-point messaging — with timed
//! receives and an optional deterministic fault plane.
//!
//! Two transport modes share one code path:
//!
//! * [`World::run`] — the benign world: no faults, blocking receives,
//!   panics on protocol violations (unchanged legacy behaviour);
//! * [`World::run_report`] — the chaos world: a [`FaultPlan`] injects
//!   drops/delays/duplicates/reorders/kills, receives carry deadlines and
//!   bounded exponential backoff, dead ranks are reaped instead of
//!   deadlocking the join, and the run returns a structured
//!   [`WorldReport`] with per-rank outcomes plus fault/recovery counters.

use crate::fault::{ConfigError, FaultCounters, FaultError, FaultPlan, FaultStats};
use repro_fp::rng::DetRng;
use repro_obs::{f, Event, Scope, Trace, Value};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll interval for blocking receives that must still surface withheld
/// (dropped/delayed) envelopes in a fault world.
const DEFAULT_TICK: Duration = Duration::from_millis(25);

/// How long a reordered envelope is held back so later traffic overtakes
/// it in the receiver's visible order.
const REORDER_HOLD_US: u64 = 1_500;

/// An envelope in flight between ranks.
struct Envelope {
    from: usize,
    tag: u64,
    /// Junk duplicate injected by the fault plane; receivers discard it.
    dup: bool,
    /// Earliest instant the receiver may surface this envelope.
    deliver_after: Option<Instant>,
    /// Withheld until the receiver's next retry boundary (drop fault:
    /// a lost packet recovered by retransmission).
    drop_until_retry: bool,
    payload: Box<dyn Any + Send>,
}

/// Payload of a fault-injected duplicate: a type no user receive matches,
/// so the junk copy exercises the discard path without ever being claimed.
struct DupEcho;

/// Per-rank fault state: the plan, this rank's deterministic stream, and
/// the shared world counters.
struct FaultCtx {
    plan: FaultPlan,
    rng: DetRng,
    counters: Arc<FaultCounters>,
    kill_at: Option<u64>,
    ops: u64,
    killed_at: Option<u64>,
}

/// How long a receive may wait.
#[derive(Clone, Copy)]
enum WaitPolicy {
    /// Block until a match arrives (legacy `recv`).
    Forever,
    /// First attempt waits `base`, then `retries` more attempts doubling
    /// the wait each time (`recv_timeout`).
    Backoff { base: Duration, retries: u32 },
    /// Wait until an absolute deadline (`recv_deadline`).
    Until(Instant),
}

/// The communicator handed to each rank's closure: its identity plus the
/// wiring to every peer.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    /// Messages received but not yet claimed, bucketed by tag so a receive
    /// scans only envelopes that can possibly match instead of rescanning
    /// the whole out-of-order buffer (the old `Vec` was O(pending²) across
    /// a burst of mismatched tags).
    pending: HashMap<u64, Vec<Envelope>>,
    /// Envelopes the fault plane is holding back from this receiver.
    withheld: Vec<Envelope>,
    /// SPMD operation counter: every rank performs collectives in the same
    /// sequence, so equal counters identify the same collective instance.
    op_counter: u64,
    fault: Option<FaultCtx>,
    /// This rank's observability scope (`rank<N>`). Disabled unless the
    /// world was started traced; each rank records into its own per-thread
    /// buffer, concatenated in rank order after the join — events are
    /// never interleaved live, which is what keeps a traced run
    /// byte-identical for deterministic communication scripts.
    obs: Scope,
}

impl Comm {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Record a custom event into this rank's scope (no-op untraced).
    /// Communication scripts use this to narrate application-level steps —
    /// merges, heals, checkpoints — alongside the transport's own
    /// send/recv/fault events, under the same logical clock.
    pub fn trace_event(&mut self, kind: &str, fields: Vec<(String, Value)>) {
        self.obs.event(kind, fields);
    }

    /// Fresh tag for one collective operation; advances identically on all
    /// ranks (SPMD discipline).
    pub(crate) fn next_op_tag(&mut self) -> u64 {
        self.op_counter += 1;
        // High bit namespace separates collective tags from user tags.
        self.op_counter | (1 << 63)
    }

    /// `(base wait, extra attempts)` for timed receives on this rank.
    pub(crate) fn budget(&self) -> (Duration, u32) {
        match &self.fault {
            Some(ctx) => (ctx.plan.base_timeout, ctx.plan.max_retries),
            None => {
                let d = FaultPlan::default();
                (d.base_timeout, d.max_retries)
            }
        }
    }

    /// Total wall time one [`Comm::recv_timeout`] may spend across all
    /// backoff attempts.
    pub fn link_budget(&self) -> Duration {
        match &self.fault {
            Some(ctx) => ctx.plan.link_budget(),
            None => FaultPlan::default().link_budget(),
        }
    }

    /// Count one communication operation against this rank's kill point.
    /// Past the kill point every fault-aware operation fails.
    fn fault_tick(&mut self) -> Result<(), FaultError> {
        let rank = self.rank;
        if let Some(ctx) = &mut self.fault {
            if let Some(at_op) = ctx.killed_at {
                return Err(FaultError::Killed { rank, at_op });
            }
            ctx.ops += 1;
            if ctx.kill_at.is_some_and(|k| ctx.ops >= k) {
                ctx.killed_at = Some(ctx.ops);
                FaultCounters::bump(&ctx.counters.killed);
                let at_op = ctx.ops;
                // The kill point is an op count from the seeded plan, so
                // this event lands at the same logical timestamp every run.
                self.obs.event("kill", vec![f("at_op", at_op)]);
                // A rank death is an incident: flight-record it and flush
                // the rings so even an untraced chaos run leaves a
                // post-mortem behind (when a dump directory is configured).
                repro_obs::flight::record_with("mpisim", "kill", || {
                    vec![f("rank", rank as u64), f("at_op", at_op)]
                });
                repro_obs::flight::incident("mpisim.kill");
                return Err(FaultError::Killed { rank, at_op });
            }
        }
        Ok(())
    }

    /// Record one healing round (called by the root of a fault-tolerant
    /// collective when it re-plans over survivors).
    pub(crate) fn note_heal(&mut self) {
        if let Some(ctx) = &self.fault {
            FaultCounters::bump(&ctx.counters.heals);
        }
        self.obs.event("heal", vec![]);
        // Heals ride the flight ring too: a post-mortem that shows a kill
        // without the matching heal is itself diagnostic.
        repro_obs::flight::record_with("mpisim", "heal", || vec![f("rank", self.rank as u64)]);
        repro_obs::flight::incident("mpisim.heal");
    }

    fn note_retry(&self) {
        if let Some(ctx) = &self.fault {
            FaultCounters::bump(&ctx.counters.retries);
        }
    }

    /// Send `value` to rank `to` under `tag` (non-blocking, unbounded
    /// buffering). In a benign world a send to a terminated rank panics;
    /// under a fault plan it is silently discarded (and counted), because
    /// dying peers are exactly what the plan is simulating.
    pub fn send<T: Any + Send>(&mut self, to: usize, tag: u64, value: T) {
        self.raw_send(to, tag, Box::new(value));
    }

    /// Fault-aware send: counts against this rank's kill point and returns
    /// [`FaultError::Killed`] once the rank is dead.
    pub fn try_send<T: Any + Send>(
        &mut self,
        to: usize,
        tag: u64,
        value: T,
    ) -> Result<(), FaultError> {
        self.fault_tick()?;
        self.raw_send(to, tag, Box::new(value));
        Ok(())
    }

    fn raw_send(&mut self, to: usize, tag: u64, payload: Box<dyn Any + Send>) {
        let mut env = Envelope {
            from: self.rank,
            tag,
            dup: false,
            deliver_after: None,
            drop_until_retry: false,
            payload,
        };
        let mut duplicate = false;
        let mut fault_flags = None;
        if let Some(ctx) = &mut self.fault {
            // Fixed draw order keeps the per-rank stream replayable
            // regardless of which faults are enabled.
            let drop = ctx.rng.random_bool(ctx.plan.drop);
            let delay = ctx.rng.random_bool(ctx.plan.delay);
            let delay_us = ctx.rng.below(ctx.plan.max_delay_us.max(1));
            duplicate = ctx.rng.random_bool(ctx.plan.duplicate);
            let reorder = ctx.rng.random_bool(ctx.plan.reorder);
            if drop {
                env.drop_until_retry = true;
                FaultCounters::bump(&ctx.counters.dropped);
            } else if delay {
                env.deliver_after = Some(Instant::now() + Duration::from_micros(delay_us));
                FaultCounters::bump(&ctx.counters.delayed);
            } else if reorder {
                env.deliver_after = Some(Instant::now() + Duration::from_micros(REORDER_HOLD_US));
                FaultCounters::bump(&ctx.counters.reordered);
            }
            if duplicate {
                FaultCounters::bump(&ctx.counters.duplicated);
            }
            fault_flags = Some((drop, delay, duplicate, reorder));
        }
        if self.obs.enabled() {
            // Fault decisions come from the seeded per-rank stream keyed to
            // this rank's send sequence, so the flags — not just the send —
            // replay identically from the seed.
            let mut fields = vec![f("to", to), f("tag", tag)];
            if let Some((drop, delay, dup, reorder)) = fault_flags {
                fields.push(f("drop", drop));
                fields.push(f("delay", delay));
                fields.push(f("dup", dup));
                fields.push(f("reorder", reorder));
            }
            self.obs.event("send", fields);
        }
        let delivered = self.senders[to].send(env).is_ok();
        if delivered && duplicate {
            let _ = self.senders[to].send(Envelope {
                from: self.rank,
                tag,
                dup: true,
                deliver_after: None,
                drop_until_retry: false,
                payload: Box::new(DupEcho),
            });
        }
        if !delivered {
            match &self.fault {
                Some(ctx) => FaultCounters::bump(&ctx.counters.sends_to_dead),
                None => panic!("receiver rank terminated with messages in flight"),
            }
        }
    }

    /// Receive the next message of type `T` with `tag` from rank `from`
    /// (blocking; unrelated messages are buffered, not dropped).
    pub fn recv<T: Any + Send>(&mut self, from: usize, tag: u64) -> T {
        match self.recv_policy::<T>(tag, Some(from), WaitPolicy::Forever) {
            Ok((_, v)) => v,
            Err(FaultError::WorldTornDown) => {
                panic!("world torn down while rank still receiving")
            }
            Err(e) => panic!("recv failed: {e}"),
        }
    }

    /// Receive the next message of type `T` with `tag` from **any** rank, in
    /// genuine arrival order. Returns `(source_rank, value)`.
    pub fn recv_any<T: Any + Send>(&mut self, tag: u64) -> (usize, T) {
        match self.recv_policy::<T>(tag, None, WaitPolicy::Forever) {
            Ok(hit) => hit,
            Err(FaultError::WorldTornDown) => {
                panic!("world torn down while rank still receiving")
            }
            Err(e) => panic!("recv_any failed: {e}"),
        }
    }

    /// Timed receive with bounded retry: the first attempt waits the
    /// plan's base timeout, each retry doubles it (exponential backoff up
    /// to `max_retries` extra attempts). Each expired attempt releases
    /// drop-withheld envelopes — the retransmission that heals transient
    /// message loss.
    pub fn recv_timeout<T: Any + Send>(&mut self, from: usize, tag: u64) -> Result<T, FaultError> {
        self.fault_tick()?;
        let (base, retries) = self.budget();
        self.recv_policy::<T>(tag, Some(from), WaitPolicy::Backoff { base, retries })
            .map(|(_, v)| v)
    }

    /// Timed any-source receive with the same backoff schedule as
    /// [`Comm::recv_timeout`].
    pub fn recv_any_timeout<T: Any + Send>(&mut self, tag: u64) -> Result<(usize, T), FaultError> {
        self.fault_tick()?;
        let (base, retries) = self.budget();
        self.recv_policy::<T>(tag, None, WaitPolicy::Backoff { base, retries })
    }

    /// Receive with an absolute deadline (any source when `from` is
    /// `None`). Used by collectives whose wait budget spans several link
    /// timeouts, e.g. collecting membership pings.
    pub fn recv_deadline<T: Any + Send>(
        &mut self,
        from: Option<usize>,
        tag: u64,
        deadline: Instant,
    ) -> Result<(usize, T), FaultError> {
        self.fault_tick()?;
        self.recv_policy::<T>(tag, from, WaitPolicy::Until(deadline))
    }

    /// Every receive variant funnels through here, so recording at this
    /// single point covers them all. Outcomes are recorded, attempts are
    /// not: retry counts depend on thread timing, and the event stream must
    /// stay deterministic for deterministic communication scripts.
    fn recv_policy<T: Any + Send>(
        &mut self,
        tag: u64,
        from: Option<usize>,
        policy: WaitPolicy,
    ) -> Result<(usize, T), FaultError> {
        let result = self.recv_policy_inner::<T>(tag, from, policy);
        if self.obs.enabled() {
            match &result {
                Ok((src, _)) => self.obs.event("recv", vec![f("tag", tag), f("src", *src)]),
                Err(FaultError::Timeout { .. }) => {
                    let mut fields = vec![f("tag", tag)];
                    if let Some(from) = from {
                        fields.push(f("from", from));
                    }
                    self.obs.event("timeout", fields);
                }
                // Killed/torn-down outcomes are narrated elsewhere (the
                // `kill` event, the world's reap records).
                Err(_) => {}
            }
        }
        result
    }

    fn recv_policy_inner<T: Any + Send>(
        &mut self,
        tag: u64,
        from: Option<usize>,
        policy: WaitPolicy,
    ) -> Result<(usize, T), FaultError> {
        if let Some(hit) = self.claim::<T>(tag, from) {
            return Ok(hit);
        }
        let tick = match policy {
            WaitPolicy::Backoff { base, .. } => base,
            _ => DEFAULT_TICK,
        };
        let mut attempts_left = match policy {
            WaitPolicy::Backoff { retries, .. } => retries,
            _ => u32::MAX,
        };
        let hard_deadline = match policy {
            WaitPolicy::Until(d) => Some(d),
            _ => None,
        };
        let mut attempt_wait = tick;
        let mut boundary = Instant::now() + attempt_wait;
        let mut disconnected = false;
        loop {
            self.release_due_withheld();
            if let Some(hit) = self.claim::<T>(tag, from) {
                return Ok(hit);
            }
            if disconnected && self.withheld.is_empty() {
                return Err(FaultError::WorldTornDown);
            }
            let now = Instant::now();
            if hard_deadline.is_some_and(|d| now >= d) {
                return Err(FaultError::Timeout { from, tag });
            }
            let mut until = boundary;
            if let Some(d) = hard_deadline {
                until = until.min(d);
            }
            if let Some(w) = self.next_withheld_release() {
                until = until.min(w);
            }
            let wait = until
                .saturating_duration_since(now)
                .max(Duration::from_micros(50));
            if disconnected {
                // No live senders: nothing new can arrive, just let the
                // withheld queue drain on schedule.
                std::thread::sleep(wait.min(tick));
            } else {
                match self.inbox.recv_timeout(wait) {
                    Ok(e) => {
                        self.ingest(e);
                        continue;
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        disconnected = true;
                        continue;
                    }
                }
            }
            if Instant::now() >= boundary {
                // Retry boundary: model retransmission by releasing every
                // drop-withheld envelope to this receiver.
                self.release_dropped();
                if let WaitPolicy::Backoff { .. } = policy {
                    if let Some(hit) = self.claim::<T>(tag, from) {
                        self.note_retry();
                        return Ok(hit);
                    }
                    if attempts_left == 0 {
                        return Err(FaultError::Timeout { from, tag });
                    }
                    attempts_left -= 1;
                    self.note_retry();
                    attempt_wait *= 2;
                }
                boundary = Instant::now() + attempt_wait;
            }
        }
    }

    /// Claim the first matching envelope from the `tag` bucket. The bucket
    /// map means a receive only ever scans envelopes sharing its tag. A
    /// bucket stays in arrival order (the claim shifts the envelopes
    /// behind it up), so a later message from one rank on one tag never
    /// overtakes an earlier one — MPI's non-overtaking rule.
    fn claim<T: Any + Send>(&mut self, tag: u64, from: Option<usize>) -> Option<(usize, T)> {
        let bucket = self.pending.get_mut(&tag)?;
        let idx = bucket
            .iter()
            .position(|e| from.map_or(true, |f| f == e.from) && e.payload.is::<T>())?;
        let e = bucket.remove(idx);
        let matched = match e.payload.downcast::<T>() {
            Ok(v) => Some((e.from, *v)),
            // The position() predicate already type-checked the payload, so
            // this arm is unreachable in practice — but a claim must never
            // be able to panic the rank thread (which would poison the
            // whole world join), so the envelope goes back in its place.
            Err(payload) => {
                bucket.insert(
                    idx,
                    Envelope {
                        from: e.from,
                        tag: e.tag,
                        dup: e.dup,
                        deliver_after: e.deliver_after,
                        drop_until_retry: e.drop_until_retry,
                        payload,
                    },
                );
                None
            }
        };
        if self.pending.get(&tag).is_some_and(|b| b.is_empty()) {
            self.pending.remove(&tag);
        }
        matched
    }

    fn ingest(&mut self, e: Envelope) {
        if e.dup {
            // Junk duplicate: the transport guarantees exactly-once
            // delivery by discarding flagged copies.
            return;
        }
        if e.drop_until_retry || e.deliver_after.is_some_and(|t| t > Instant::now()) {
            self.withheld.push(e);
        } else {
            self.pending.entry(e.tag).or_default().push(e);
        }
    }

    /// Surface withheld envelopes whose hold time has passed.
    fn release_due_withheld(&mut self) {
        if self.withheld.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut i = 0;
        while i < self.withheld.len() {
            let e = &self.withheld[i];
            if !e.drop_until_retry && e.deliver_after.map_or(true, |t| t <= now) {
                let mut e = self.withheld.swap_remove(i);
                e.deliver_after = None;
                self.pending.entry(e.tag).or_default().push(e);
            } else {
                i += 1;
            }
        }
    }

    /// Surface every drop-withheld envelope (the receiver hit a retry
    /// boundary, i.e. the sender "retransmitted").
    fn release_dropped(&mut self) {
        let mut i = 0;
        while i < self.withheld.len() {
            if self.withheld[i].drop_until_retry {
                let mut e = self.withheld.swap_remove(i);
                e.drop_until_retry = false;
                e.deliver_after = None;
                self.pending.entry(e.tag).or_default().push(e);
            } else {
                i += 1;
            }
        }
    }

    fn next_withheld_release(&self) -> Option<Instant> {
        self.withheld
            .iter()
            .filter(|e| !e.drop_until_retry)
            .filter_map(|e| e.deliver_after)
            .min()
    }
}

/// Outcome of a fault-injected world run: per-rank results plus the
/// fault/recovery counters needed to understand — and replay — the run.
#[derive(Debug)]
pub struct WorldReport<R> {
    /// Per-rank outcome in rank order.
    pub results: Vec<Result<R, FaultError>>,
    /// Ranks that finished their closure successfully.
    pub completed: usize,
    /// Ranks that returned a [`FaultError`] (killed, excluded, timed out).
    pub failed: usize,
    /// Timed-receive retry attempts across all ranks.
    pub retries: u64,
    /// Healing rounds performed by fault-tolerant collectives.
    pub heals: u64,
    /// Injected-fault totals.
    pub faults: FaultStats,
}

impl<R> WorldReport<R> {
    /// Ranks whose closure completed successfully, in rank order.
    pub fn survivors(&self) -> Vec<usize> {
        self.results
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_ok())
            .map(|(i, _)| i)
            .collect()
    }

    /// One-line human summary (used by the CLI and the smoke script).
    pub fn summary(&self) -> String {
        format!(
            "completed={} failed={} retries={} heals={} {}",
            self.completed, self.failed, self.retries, self.heals, self.faults
        )
    }
}

/// The world: spawns `size` ranks as threads and runs the same closure on
/// each (SPMD), returning the per-rank results in rank order.
///
/// ```
/// use repro_mpisim::World;
///
/// let doubled = World::run(4, |comm| comm.rank() * 2);
/// assert_eq!(doubled, vec![0, 2, 4, 6]);
/// ```
pub struct World;

impl World {
    /// Run `f` on `size` ranks. Panics in any rank propagate.
    pub fn run<R, F>(size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        assert!(size >= 1, "world needs at least one rank");
        Self::spawn(size, |_| None, false, &f).0
    }

    /// Like [`World::run`] but rejects impossible worlds with an `Err`
    /// instead of panicking.
    pub fn try_run<R, F>(size: usize, f: F) -> Result<Vec<R>, ConfigError>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        if size == 0 {
            return Err(ConfigError("world needs at least one rank".into()));
        }
        Ok(Self::spawn(size, |_| None, false, &f).0)
    }

    /// Run `f` on `size` ranks under a [`FaultPlan`]. Rank closures return
    /// `Result`, dead ranks are reaped (their error is recorded, nothing
    /// hangs), and the run yields a [`WorldReport`] of outcomes plus
    /// fault/recovery counters.
    pub fn run_report<R, F>(
        size: usize,
        plan: &FaultPlan,
        f: F,
    ) -> Result<WorldReport<R>, ConfigError>
    where
        R: Send,
        F: Fn(&mut Comm) -> Result<R, FaultError> + Sync,
    {
        Self::run_report_traced(size, plan, false, f).map(|(report, _)| report)
    }

    /// [`World::run_report`] with per-rank observability: when `traced`,
    /// every rank records its transport events (sends with fault flags,
    /// receive outcomes, timeouts, kills, heals) plus anything the closure
    /// adds via [`Comm::trace_event`] into a `rank<N>` scope, and the world
    /// appends one `reap` record per failed rank under the `world` scope.
    ///
    /// Events are buffered per rank thread and concatenated **in rank
    /// order** after the join, so for a communication script whose sends
    /// and directed receives are data-independent of thread timing, the
    /// returned event sequence is a pure function of `(size, plan seed,
    /// script)` — two runs are byte-identical.
    pub fn run_report_traced<R, F>(
        size: usize,
        plan: &FaultPlan,
        traced: bool,
        f: F,
    ) -> Result<(WorldReport<R>, Vec<Event>), ConfigError>
    where
        R: Send,
        F: Fn(&mut Comm) -> Result<R, FaultError> + Sync,
    {
        if size == 0 {
            return Err(ConfigError("world needs at least one rank".into()));
        }
        plan.validate()?;
        let counters = Arc::new(FaultCounters::default());
        let (results, mut events) = Self::spawn(
            size,
            |rank| {
                Some(FaultCtx {
                    plan: plan.clone(),
                    rng: plan.rng_for_rank(rank),
                    counters: Arc::clone(&counters),
                    kill_at: plan.kill_at(rank),
                    ops: 0,
                    killed_at: None,
                })
            },
            traced,
            &f,
        );
        let completed = results.iter().filter(|r| r.is_ok()).count();
        let failed = results.len() - completed;
        if traced {
            // Reap records: derived from per-rank outcomes in rank order,
            // after every rank thread has joined — deterministic given the
            // outcomes themselves are.
            let (world_trace, world_sink) = Trace::to_memory();
            let mut world = world_trace.scope("world");
            for (rank, result) in results.iter().enumerate() {
                if let Err(e) = result {
                    world.event(
                        "reap",
                        vec![
                            repro_obs::f("rank", rank),
                            repro_obs::f("error", e.to_string()),
                        ],
                    );
                }
            }
            events.extend(world_sink.drain());
        }
        Ok((
            WorldReport {
                results,
                completed,
                failed,
                retries: counters.retries.load(Ordering::Relaxed),
                heals: counters.heals.load(Ordering::Relaxed),
                faults: counters.snapshot(),
            },
            events,
        ))
    }

    fn spawn<R, F, C>(size: usize, ctx_for_rank: C, traced: bool, f: &F) -> (Vec<R>, Vec<Event>)
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
        C: Fn(usize) -> Option<FaultCtx> + Sync,
    {
        let mut senders = Vec::with_capacity(size);
        let mut inboxes = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = channel::<Envelope>();
            senders.push(tx);
            inboxes.push(rx);
        }
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for (rank, inbox) in inboxes.into_iter().enumerate() {
                let senders = senders.clone();
                let ctx_for_rank = &ctx_for_rank;
                handles.push(scope.spawn(move || {
                    let sink = if traced {
                        let (trace, sink) = Trace::to_memory();
                        Some((trace.scope(format!("rank{rank}")), sink))
                    } else {
                        None
                    };
                    let (obs, sink) = match sink {
                        Some((scope, sink)) => (scope, Some(sink)),
                        None => (Scope::disabled(), None),
                    };
                    let mut comm = Comm {
                        rank,
                        size,
                        senders,
                        inbox,
                        pending: HashMap::new(),
                        withheld: Vec::new(),
                        op_counter: 0,
                        fault: ctx_for_rank(rank),
                        obs,
                    };
                    let result = f(&mut comm);
                    drop(comm);
                    (result, sink.map(|s| s.drain()).unwrap_or_default())
                }));
            }
            // Drop the root copies so channels close when ranks finish.
            drop(senders);
            let mut results = Vec::with_capacity(size);
            let mut events = Vec::new();
            for h in handles {
                let (r, rank_events) = h.join().expect("rank panicked");
                results.push(r);
                events.extend(rank_events);
            }
            (results, events)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_runs_every_rank() {
        let ranks = World::run(8, |c| c.rank());
        assert_eq!(ranks, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn point_to_point_round_trip() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 7, 42.5f64);
                c.recv::<String>(1, 8)
            } else {
                let x: f64 = c.recv(0, 7);
                c.send(0, 8, format!("got {x}"));
                "done".to_string()
            }
        });
        assert_eq!(out[0], "got 42.5");
    }

    #[test]
    fn tag_matching_buffers_out_of_order() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                // Send in one order ...
                c.send(1, 1, 10i64);
                c.send(1, 2, 20i64);
                0
            } else {
                // ... receive in the other.
                let b: i64 = c.recv(0, 2);
                let a: i64 = c.recv(0, 1);
                a + 2 * b
            }
        });
        assert_eq!(out[1], 50);
    }

    #[test]
    fn typed_matching_distinguishes_payload_types() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 5, 1.5f64);
                c.send(1, 5, 99u32);
                0u32
            } else {
                // Claim the u32 first even though the f64 arrived first.
                let n: u32 = c.recv(0, 5);
                let x: f64 = c.recv(0, 5);
                n + x as u32
            }
        });
        assert_eq!(out[1], 100);
    }

    #[test]
    fn recv_any_reports_source() {
        let out = World::run(4, |c| {
            if c.rank() == 0 {
                let mut sum = 0usize;
                for _ in 0..3 {
                    let (src, v): (usize, usize) = c.recv_any(9);
                    assert_eq!(src, v);
                    sum += v;
                }
                sum
            } else {
                c.send(0, 9, c.rank());
                0
            }
        });
        assert_eq!(out[0], 6);
    }

    /// MPI's non-overtaking rule: two messages from one rank on one tag
    /// arrive in send order, even after a receive from another rank has
    /// taken an earlier envelope out of the same tag bucket.
    #[test]
    fn same_source_same_tag_messages_do_not_overtake() {
        let out = World::run(3, |c| match c.rank() {
            0 => {
                c.recv::<()>(1, 1);
                c.send(2, 5, "A1");
                c.send(2, 5, "A2");
                c.send(2, 9, "Z");
                vec![]
            }
            1 => {
                c.send(2, 5, "Y");
                c.send(0, 1, ());
                vec![]
            }
            _ => {
                // Waiting for Z buffers Y, A1 and A2 in the tag-5 bucket.
                let z: &str = c.recv(0, 9);
                let y: &str = c.recv(1, 5);
                let a1: &str = c.recv(0, 5);
                let a2: &str = c.recv(0, 5);
                vec![z, y, a1, a2]
            }
        });
        assert_eq!(out[2], ["Z", "Y", "A1", "A2"]);
    }

    /// Regression test for the O(pending²) rescan: 10k messages received
    /// in fully reversed tag order must complete quickly because each
    /// receive only touches its own tag bucket.
    #[test]
    fn ten_thousand_out_of_order_messages() {
        const N: u64 = 10_000;
        let start = Instant::now();
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                for i in 0..N {
                    c.send(1, i, i as i64);
                }
                0
            } else {
                let mut sum = 0i64;
                for i in (0..N).rev() {
                    sum += c.recv::<i64>(0, i);
                }
                sum
            }
        });
        assert_eq!(out[1], (0..N as i64).sum::<i64>());
        // Generous bound: the old quadratic buffer took tens of seconds.
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "out-of-order receive too slow: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn try_run_rejects_zero_rank_world() {
        let err = World::try_run(0, |c| c.rank()).unwrap_err();
        assert!(err.0.contains("at least one rank"));
        assert_eq!(World::try_run(1, |c| c.rank()).unwrap(), vec![0]);
    }

    #[test]
    fn run_report_rejects_zero_rank_world_and_bad_plan() {
        let plan = FaultPlan::new(1);
        assert!(World::run_report(0, &plan, |c| Ok(c.rank())).is_err());
        let bad = FaultPlan::new(1).with_drop(2.0);
        assert!(World::run_report(2, &bad, |c| Ok(c.rank())).is_err());
    }

    #[test]
    fn dropped_messages_recover_on_retry() {
        // Every envelope is dropped; retransmission at the first retry
        // boundary must still deliver it.
        let plan = FaultPlan::new(7)
            .with_drop(1.0)
            .with_timeouts(Duration::from_millis(5), 3);
        let report = World::run_report(2, &plan, |c| {
            if c.rank() == 0 {
                c.try_send(1, 3, 1234u32)?;
                Ok(0)
            } else {
                c.recv_timeout::<u32>(0, 3)
            }
        })
        .unwrap();
        assert_eq!(report.failed, 0);
        assert_eq!(*report.results[1].as_ref().unwrap(), 1234);
        assert!(report.retries >= 1, "drop recovery must count a retry");
        assert!(report.faults.dropped >= 1);
    }

    #[test]
    fn duplicates_are_discarded_and_delays_met_within_budget() {
        let plan = FaultPlan::new(9).with_duplicate(1.0).with_delay(0.5, 2_000);
        let report = World::run_report(2, &plan, |c| {
            if c.rank() == 0 {
                for i in 0..5u64 {
                    c.try_send(1, 10 + i, i)?;
                }
                Ok(0)
            } else {
                let mut sum = 0;
                for i in 0..5u64 {
                    sum += c.recv_timeout::<u64>(0, 10 + i)?;
                }
                Ok(sum)
            }
        })
        .unwrap();
        assert_eq!(report.failed, 0);
        assert_eq!(*report.results[1].as_ref().unwrap(), 10);
        assert!(report.faults.duplicated >= 5);
    }

    #[test]
    fn killed_rank_is_reaped_not_hung() {
        let plan = FaultPlan::new(3)
            .with_kill(1, 1)
            .with_timeouts(Duration::from_millis(5), 2);
        let report = World::run_report(2, &plan, |c| {
            if c.rank() == 0 {
                // The peer dies before sending; we must time out, not hang.
                match c.recv_timeout::<u32>(1, 1) {
                    Err(FaultError::Timeout { .. }) => Ok(0u32),
                    other => panic!("expected timeout, got {other:?}"),
                }
            } else {
                c.try_send(0, 1, 42u32)?;
                Ok(1)
            }
        })
        .unwrap();
        assert_eq!(report.faults.killed, 1);
        assert!(matches!(
            report.results[1],
            Err(FaultError::Killed { rank: 1, .. })
        ));
        assert_eq!(report.completed, 1);
    }

    /// A deterministic communication script (fixed per-rank send sequence,
    /// directed receives in fixed order) traced twice must yield the exact
    /// same event sequence: logical clocks, fault flags, reap records and
    /// all. This is the transport-level half of the byte-identical-trace
    /// guarantee; the CLI test asserts it end to end on the JSONL text.
    #[test]
    fn traced_chaos_script_replays_identically() {
        let run = || {
            let plan = FaultPlan::new(4242)
                .with_drop(0.4)
                .with_duplicate(0.4)
                .with_kill(2, 3)
                .with_timeouts(Duration::from_millis(5), 3);
            World::run_report_traced(3, &plan, true, |c| {
                if c.rank() == 0 {
                    let mut got = 0u64;
                    for src in 1..c.size() {
                        for s in 0..4u64 {
                            match c.recv_timeout::<u64>(src, (src as u64) << 8 | s) {
                                Ok(v) => got += v,
                                Err(FaultError::Timeout { .. }) => break,
                                Err(e) => return Err(e),
                            }
                        }
                    }
                    c.trace_event("gather_done", vec![f("got", got)]);
                    Ok(got)
                } else {
                    for s in 0..4u64 {
                        c.try_send(0, (c.rank() as u64) << 8 | s, s + 10)?;
                    }
                    Ok(0)
                }
            })
            .unwrap()
        };
        let (report_a, events_a) = run();
        let (report_b, events_b) = run();
        assert_eq!(report_a.faults, report_b.faults);
        assert_eq!(events_a, events_b);
        let text = repro_obs::render_jsonl(&events_a);
        let summary = repro_obs::validate_trace(&text).unwrap();
        assert_eq!(summary.events, events_a.len());
        // Rank 2 was killed at its third op: its kill event and the
        // world's reap record are part of the deterministic stream.
        assert!(events_a
            .iter()
            .any(|e| e.sub == "rank2" && e.kind == "kill"));
        assert!(events_a
            .iter()
            .any(|e| e.sub == "world" && e.kind == "reap"));
        // Untraced worlds record nothing.
        let plan = FaultPlan::new(4242);
        let (_, none) = World::run_report_traced(2, &plan, false, |c| Ok(c.rank())).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn fault_injection_is_replayable() {
        let run = || {
            let plan = FaultPlan::new(1234)
                .with_drop(0.3)
                .with_delay(0.3, 1_000)
                .with_duplicate(0.3)
                .with_reorder(0.3)
                .with_timeouts(Duration::from_millis(5), 3);
            World::run_report(3, &plan, |c| {
                if c.rank() == 0 {
                    let mut sum = 0;
                    for _ in 0..8 {
                        let (_, v) = c.recv_any_timeout::<u64>(77)?;
                        sum += v;
                    }
                    Ok(sum)
                } else {
                    for i in 0..4u64 {
                        c.try_send(0, 77, i + c.rank() as u64)?;
                    }
                    Ok(0)
                }
            })
            .unwrap()
        };
        let a = run();
        let b = run();
        // Injection decisions are drawn per sent envelope from the seeded
        // per-rank stream, so the fault schedule is identical across runs
        // (retry counts may differ — they depend on thread timing).
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.results[0], b.results[0]);
    }
}

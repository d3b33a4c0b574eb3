//! A persistent work-stealing thread pool over `std` primitives.
//!
//! Workers are spawned once and live for the pool's lifetime; each call
//! submits chunk tasks into per-worker queues (round-robin) and idle workers
//! steal from their peers. This removes the spawn-per-call cost of
//! [`crate::spawn_reduce`] (one OS thread per chunk per call) while keeping the *scheduling* nondeterministic — which is exactly the
//! regime the paper's reproducible operators must absorb.
//!
//! The only `unsafe` in the workspace lives here: [`ThreadPool::scope`]
//! erases task lifetimes so tasks may borrow the caller's stack, and a
//! completion latch guarantees every task finished before `scope` returns —
//! the same contract as `std::thread::scope`, on persistent threads.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Lifetime totals for a pool, for observability and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Tasks executed to completion.
    pub executed: u64,
    /// Tasks a worker took from another worker's queue.
    pub stolen: u64,
}

struct Shared {
    /// One queue per worker; tasks are submitted round-robin.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Overflow queue, also the submission target when the pool is busy.
    injector: Mutex<VecDeque<Task>>,
    /// Sleep/wake coordination for idle workers.
    idle: Mutex<usize>,
    wakeup: Condvar,
    shutdown: AtomicBool,
    executed: AtomicU64,
    stolen: AtomicU64,
    next_queue: AtomicU64,
}

impl Shared {
    fn push(&self, task: Task) {
        let slot = self.next_queue.fetch_add(1, Ordering::Relaxed) as usize % self.queues.len();
        self.queues[slot]
            .lock()
            .expect("pool queue poisoned")
            .push_back(task);
        // Hold the idle lock while notifying so a worker that just decided
        // to sleep cannot miss this task.
        let _g = self.idle.lock().expect("pool idle lock poisoned");
        self.wakeup.notify_one();
    }

    /// Grab one task from anywhere: own queue first, then the injector,
    /// then steal from peers.
    fn find_task(&self, own: usize) -> Option<Task> {
        if let Some(t) = self.queues[own]
            .lock()
            .expect("pool queue poisoned")
            .pop_front()
        {
            return Some(t);
        }
        if let Some(t) = self
            .injector
            .lock()
            .expect("pool injector poisoned")
            .pop_front()
        {
            return Some(t);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (own + offset) % n;
            // Steal from the back: the victim pops from the front, so
            // contention stays low and stolen tasks are the freshest.
            if let Some(t) = self.queues[victim]
                .lock()
                .expect("pool queue poisoned")
                .pop_back()
            {
                self.stolen.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    fn any_queued(&self) -> bool {
        self.queues
            .iter()
            .any(|q| !q.lock().expect("pool queue poisoned").is_empty())
            || !self
                .injector
                .lock()
                .expect("pool injector poisoned")
                .is_empty()
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    loop {
        if let Some(task) = shared.find_task(index) {
            task();
            continue;
        }
        let mut idle = shared.idle.lock().expect("pool idle lock poisoned");
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.any_queued() {
            continue; // a task arrived between the scan and the lock
        }
        *idle += 1;
        let (guard, _timeout) = shared
            .wakeup
            .wait_timeout(idle, Duration::from_millis(50))
            .expect("pool idle lock poisoned");
        let mut idle = guard;
        *idle -= 1;
        drop(idle);
    }
}

/// Tracks outstanding tasks of one [`ThreadPool::scope`] call and collects
/// the first panic.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn new() -> Arc<Self> {
        Arc::new(Latch {
            remaining: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    fn increment(&self) {
        *self.remaining.lock().expect("latch poisoned") += 1;
    }

    fn decrement(&self) {
        let mut left = self.remaining.lock().expect("latch poisoned");
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().expect("latch poisoned");
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().expect("latch poisoned");
        while *left > 0 {
            left = self.done.wait(left).expect("latch poisoned");
        }
    }
}

/// Spawn handle passed to the closure of [`ThreadPool::scope`]; tasks may
/// borrow anything that outlives the scope.
pub struct Scope<'scope> {
    shared: Arc<Shared>,
    latch: Arc<Latch>,
    // Invariant over 'scope, mirroring std::thread::Scope.
    _marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Submit a task. It runs on some pool worker before the enclosing
    /// [`ThreadPool::scope`] call returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.latch.increment();
        let latch = Arc::clone(&self.latch);
        let shared = Arc::clone(&self.shared);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                latch.record_panic(payload);
            }
            // Counted before the decrement: the latch's mutex then orders
            // the count before `scope` returns, so `counters()` read after
            // a scope includes all of its tasks.
            shared.executed.fetch_add(1, Ordering::Relaxed);
            latch.decrement();
        });
        // SAFETY: `scope` blocks until the latch reaches zero, i.e. until
        // this closure (which decrements last) has returned. Every borrow
        // with lifetime 'scope therefore strictly outlives the task's
        // execution, so erasing 'scope to 'static cannot be observed.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
        self.shared.push(task);
    }
}

/// A persistent pool of worker threads. Cheap to call into repeatedly; the
/// whole workspace shares one via `Runtime::global()`.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn `workers` (clamped to at least 1) persistent worker threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            idle: Mutex::new(0),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            next_queue: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("repro-runtime-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Lifetime execution counters.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            executed: self.shared.executed.load(Ordering::Relaxed),
            stolen: self.shared.stolen.load(Ordering::Relaxed),
        }
    }

    /// Run `op` with a [`Scope`] whose tasks may borrow from the caller;
    /// blocks until every spawned task has finished. The first task panic
    /// (if any) is re-raised here, after all tasks have completed.
    pub fn scope<'scope, R>(&self, op: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let scope = Scope {
            shared: Arc::clone(&self.shared),
            latch: Latch::new(),
            _marker: std::marker::PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| op(&scope)));
        // The latch must reach zero before we return (or unwind): tasks
        // borrow the caller's stack.
        scope.latch.wait();
        if let Some(payload) = scope.latch.panic.lock().expect("latch poisoned").take() {
            panic::resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.idle.lock().expect("pool idle lock poisoned");
            self.shared.wakeup.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn executes_every_task_with_borrows() {
        let pool = ThreadPool::new(4);
        let data: Vec<u64> = (0..1000).collect();
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for chunk in data.chunks(37) {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 1000 * 999 / 2);
        assert!(pool.counters().executed >= 1);
    }

    #[test]
    fn scope_is_reusable_and_pool_persists() {
        let pool = ThreadPool::new(2);
        for round in 0..50 {
            let hits = AtomicUsize::new(0);
            pool.scope(|s| {
                for _ in 0..8 {
                    let hits = &hits;
                    s.spawn(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(hits.load(Ordering::Relaxed), 8, "round {round}");
        }
        assert_eq!(pool.counters().executed, 400);
    }

    #[test]
    fn executed_counts_every_task_before_scope_returns() {
        let pool = ThreadPool::new(2);
        let mut before = pool.counters().executed;
        for round in 0..20_000 {
            pool.scope(|s| s.spawn(|| {}));
            let after = pool.counters().executed;
            assert_eq!(after, before + 1, "round {round}");
            before = after;
        }
    }

    #[test]
    fn single_worker_pool_still_completes() {
        let pool = ThreadPool::new(1);
        let sum = AtomicU64::new(0);
        pool.scope(|s| {
            for i in 0..100u64 {
                let sum = &sum;
                s.spawn(move || {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn task_panic_propagates_after_all_tasks_finish() {
        let pool = ThreadPool::new(2);
        let completed = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&completed);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..10 {
                    let completed = Arc::clone(&c2);
                    s.spawn(move || {
                        if i == 3 {
                            panic!("task 3 exploded");
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_eq!(completed.load(Ordering::Relaxed), 9);
        // The pool survives a panicked scope.
        let ok = AtomicUsize::new(0);
        pool.scope(|s| {
            let ok = &ok;
            s.spawn(move || {
                ok.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let pool = ThreadPool::new(3);
        let out = pool.scope(|_| 42);
        assert_eq!(out, 42);
    }
}

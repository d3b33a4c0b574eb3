//! Deterministic fault injection for the message-passing world.
//!
//! A [`FaultPlan`] is a *seeded* description of everything that may go
//! wrong in a run: ranks killed after a given number of communication
//! operations, and envelopes dropped, delayed, duplicated, or reordered in
//! flight. Every decision is drawn from [`repro_fp::rng::DetRng`] forked
//! per rank, so a chaos run is completely replayable from
//! `(seed, world size, plan parameters)` — the failure report printed by
//! the CLI is enough to reproduce the exact same fault schedule.
//!
//! Faults are injected at the transport layer ([`crate::Comm`]):
//!
//! * **drop** — the envelope is withheld from the receiver until the
//!   receiver's first retry boundary, modelling a lost packet recovered by
//!   retransmission;
//! * **delay** — the envelope becomes visible only after a bounded,
//!   deterministic hold time;
//! * **duplicate** — an extra junk copy of the envelope travels the wire
//!   and must be discarded by the receiver's dedup logic;
//! * **reorder** — the envelope is briefly held back so later envelopes
//!   overtake it in the receiver's visible order;
//! * **kill** — after `at_op` communication operations the rank's every
//!   subsequent operation returns [`FaultError::Killed`], modelling a
//!   crashed process that peers can only observe through timeouts.

use repro_fp::rng::DetRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Golden-ratio increment used to fork per-rank fault RNG streams.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The most retries [`FaultPlan::validate`] accepts: the attempts' waits
/// double, so the budget's `2^(retries + 1)` factor stays far inside a
/// `u32`.
pub const MAX_RETRIES: u32 = 16;

/// Kill a specific rank once it has performed `at_op` communication
/// operations (sends, timed receives, fault-tolerant collective steps).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kill {
    /// The rank to kill.
    pub rank: usize,
    /// Operation count at which the rank dies (1 = before its first op
    /// completes is impossible; the rank dies *entering* op `at_op`).
    pub at_op: u64,
}

/// A seeded, replayable description of the faults injected into a world.
///
/// Probabilities are per-envelope; kills are exact. The same plan with the
/// same world size always produces the same fault schedule.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Master seed; per-rank streams are forked deterministically from it.
    pub seed: u64,
    /// Probability an envelope is dropped (recovered at the receiver's
    /// first retry boundary).
    pub drop: f64,
    /// Probability an envelope is delayed.
    pub delay: f64,
    /// Maximum injected delay in microseconds (uniform in `0..max`).
    pub max_delay_us: u64,
    /// Probability an envelope is duplicated on the wire.
    pub duplicate: f64,
    /// Probability an envelope is held back so later traffic overtakes it.
    pub reorder: f64,
    /// Exact rank kills.
    pub kills: Vec<Kill>,
    /// Base receive timeout for the first attempt of
    /// [`crate::Comm::recv_timeout`]; attempt `i` waits `base << i`.
    pub base_timeout: Duration,
    /// Number of *additional* attempts after the first times out (at most
    /// [`MAX_RETRIES`]).
    pub max_retries: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            delay: 0.0,
            max_delay_us: 2_000,
            duplicate: 0.0,
            reorder: 0.0,
            kills: Vec::new(),
            base_timeout: Duration::from_millis(15),
            max_retries: 3,
        }
    }
}

impl FaultPlan {
    /// A fault-free plan with the given replay seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Set the envelope drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Set the envelope delay probability and maximum delay.
    pub fn with_delay(mut self, p: f64, max_delay_us: u64) -> Self {
        self.delay = p;
        self.max_delay_us = max_delay_us;
        self
    }

    /// Set the envelope duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Set the envelope reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Kill `rank` once it has performed `at_op` communication operations.
    pub fn with_kill(mut self, rank: usize, at_op: u64) -> Self {
        self.kills.push(Kill { rank, at_op });
        self
    }

    /// Derive `count` distinct kills from the plan seed, never touching
    /// `protected` (usually the reduction root). Kill points land early in
    /// the op sequence (ops 2..40) so collectives actually observe them.
    pub fn with_random_kills(mut self, size: usize, count: usize, protected: usize) -> Self {
        let mut rng = DetRng::seed_from_u64(self.seed ^ 0x6B11_5D4A_7C15_9E37);
        let mut victims: Vec<usize> = Vec::new();
        let eligible: Vec<usize> = (0..size).filter(|&r| r != protected).collect();
        let count = count.min(eligible.len());
        while victims.len() < count {
            let r = eligible[rng.below(eligible.len() as u64) as usize];
            if !victims.contains(&r) {
                victims.push(r);
            }
        }
        for rank in victims {
            let at_op = 2 + rng.below(38);
            self.kills.push(Kill { rank, at_op });
        }
        self
    }

    /// Override receive timeout budgets.
    pub fn with_timeouts(mut self, base: Duration, max_retries: u32) -> Self {
        self.base_timeout = base;
        self.max_retries = max_retries;
        self
    }

    /// Validate rates and bounds; returns a descriptive [`ConfigError`]
    /// instead of panicking later inside a worker thread.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, p) in [
            ("drop", self.drop),
            ("delay", self.delay),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError(format!(
                    "fault rate `{name}` must be in [0, 1], got {p}"
                )));
            }
        }
        if self.max_delay_us > 10_000_000 {
            return Err(ConfigError(format!(
                "max_delay_us {} exceeds the 10s sanity cap",
                self.max_delay_us
            )));
        }
        if self.base_timeout.is_zero() {
            return Err(ConfigError("base_timeout must be non-zero".into()));
        }
        if self.max_retries > MAX_RETRIES {
            return Err(ConfigError(format!(
                "max_retries {} exceeds the cap of {MAX_RETRIES}",
                self.max_retries
            )));
        }
        Ok(())
    }

    /// The kill point for `rank`, if any (earliest wins when duplicated).
    pub fn kill_at(&self, rank: usize) -> Option<u64> {
        self.kills
            .iter()
            .filter(|k| k.rank == rank)
            .map(|k| k.at_op)
            .min()
    }

    /// Total wall time one [`crate::Comm::recv_timeout`] may spend across
    /// all backoff attempts: `base * (2^(retries+1) - 1)`.
    pub fn link_budget(&self) -> Duration {
        let factor = (1u32 << (self.max_retries + 1)).saturating_sub(1);
        self.base_timeout.saturating_mul(factor)
    }

    /// Fork the deterministic fault stream for one rank.
    pub(crate) fn rng_for_rank(&self, rank: usize) -> DetRng {
        DetRng::seed_from_u64(self.seed ^ (rank as u64).wrapping_mul(PHI).wrapping_add(PHI))
    }
}

/// A communication failure observed by a rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// No matching message arrived within the full backoff budget.
    Timeout {
        /// Expected source rank, if the receive was rank-specific.
        from: Option<usize>,
        /// Tag that was awaited.
        tag: u64,
    },
    /// This rank was killed by the fault plan and must stop communicating.
    Killed {
        /// The rank that died.
        rank: usize,
        /// Operation count at which it died.
        at_op: u64,
    },
    /// The collective's root could not be reached; without the root there
    /// is no membership authority, so the rank gives up.
    RootUnreachable {
        /// The unreachable root rank.
        root: usize,
    },
    /// This rank is alive but was excluded from the survivor set (its
    /// membership ping arrived too late).
    Excluded {
        /// The excluded rank.
        rank: usize,
    },
    /// The collective exceeded its healing-round bound without settling on
    /// a stable survivor set.
    TooManyRounds {
        /// Rounds attempted before giving up.
        rounds: usize,
    },
    /// All peer channels closed while a receive was still outstanding.
    WorldTornDown,
    /// The fault plan or reduce configuration was invalid.
    Config(String),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Timeout { from: Some(r), tag } => {
                write!(f, "timeout waiting for rank {r} on tag {tag:#x}")
            }
            FaultError::Timeout { from: None, tag } => {
                write!(f, "timeout waiting for any rank on tag {tag:#x}")
            }
            FaultError::Killed { rank, at_op } => {
                write!(f, "rank {rank} killed by fault plan at op {at_op}")
            }
            FaultError::RootUnreachable { root } => write!(f, "root rank {root} unreachable"),
            FaultError::Excluded { rank } => {
                write!(f, "rank {rank} excluded from survivor set")
            }
            FaultError::TooManyRounds { rounds } => {
                write!(f, "no stable survivor set after {rounds} healing rounds")
            }
            FaultError::WorldTornDown => write!(f, "world torn down mid-receive"),
            FaultError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// An invalid builder input, reported before any rank thread starts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for FaultError {
    fn from(e: ConfigError) -> Self {
        FaultError::Config(e.0)
    }
}

/// Shared fault/recovery counters, incremented by every rank's transport.
#[derive(Debug, Default)]
pub(crate) struct FaultCounters {
    pub dropped: AtomicU64,
    pub delayed: AtomicU64,
    pub duplicated: AtomicU64,
    pub reordered: AtomicU64,
    pub retries: AtomicU64,
    pub heals: AtomicU64,
    pub killed: AtomicU64,
    pub sends_to_dead: AtomicU64,
}

impl FaultCounters {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> FaultStats {
        FaultStats {
            dropped: self.dropped.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            killed: self.killed.load(Ordering::Relaxed),
            sends_to_dead: self.sends_to_dead.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of injected-fault totals for one world run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Envelopes withheld until a retry boundary (drop fault).
    pub dropped: u64,
    /// Envelopes held back by a bounded delay.
    pub delayed: u64,
    /// Junk duplicate envelopes discarded by receivers.
    pub duplicated: u64,
    /// Envelopes overtaken by later traffic (reorder fault).
    pub reordered: u64,
    /// Ranks killed by the plan.
    pub killed: u64,
    /// Sends silently discarded because the receiver was already dead.
    pub sends_to_dead: u64,
}

impl std::fmt::Display for FaultStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dropped={} delayed={} duplicated={} reordered={} killed={} sends_to_dead={}",
            self.dropped,
            self.delayed,
            self.duplicated,
            self.reordered,
            self.killed,
            self.sends_to_dead
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_kills_are_deterministic_and_protect_root() {
        let a = FaultPlan::new(42).with_random_kills(8, 3, 0);
        let b = FaultPlan::new(42).with_random_kills(8, 3, 0);
        assert_eq!(a.kills, b.kills);
        assert_eq!(a.kills.len(), 3);
        assert!(a.kills.iter().all(|k| k.rank != 0));
        let distinct: std::collections::HashSet<usize> = a.kills.iter().map(|k| k.rank).collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn validate_rejects_bad_rates_and_delays() {
        assert!(FaultPlan::new(1).with_drop(1.5).validate().is_err());
        assert!(FaultPlan::new(1)
            .with_delay(0.1, 20_000_000)
            .validate()
            .is_err());
        assert!(FaultPlan::new(1)
            .with_timeouts(Duration::ZERO, 1)
            .validate()
            .is_err());
        assert!(FaultPlan::new(1).with_drop(0.3).validate().is_ok());
    }

    #[test]
    fn validate_bounds_the_retry_count() {
        let base = Duration::from_millis(1);
        let at_cap = FaultPlan::new(1).with_timeouts(base, MAX_RETRIES);
        assert!(at_cap.validate().is_ok());
        assert_eq!(at_cap.link_budget(), base * ((2 << MAX_RETRIES) - 1));
        let err = FaultPlan::new(1)
            .with_timeouts(base, MAX_RETRIES + 1)
            .validate()
            .unwrap_err();
        assert!(err.0.contains("max_retries"), "{err}");
    }

    #[test]
    fn kill_at_takes_earliest() {
        let p = FaultPlan::new(0).with_kill(2, 9).with_kill(2, 4);
        assert_eq!(p.kill_at(2), Some(4));
        assert_eq!(p.kill_at(1), None);
    }

    #[test]
    fn link_budget_sums_backoff() {
        let p = FaultPlan::new(0).with_timeouts(Duration::from_millis(10), 2);
        // 10 + 20 + 40 = 70ms
        assert_eq!(p.link_budget(), Duration::from_millis(70));
    }
}

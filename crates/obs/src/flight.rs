//! Always-on flight recorder: bounded per-subsystem ring buffers with
//! post-mortem dumps.
//!
//! The tracing layer ([`crate::Trace`]) is opt-in and post-hoc: when a run
//! that nobody thought to trace goes wrong, it leaves nothing behind. The
//! flight recorder closes that gap. Every subsystem records its
//! load-bearing events (reductions, selector decisions, fault-plane kills)
//! into a fixed-capacity, overwrite-oldest ring per subsystem — cheap
//! enough to leave enabled in every run — and three triggers flush the
//! rings to a `postmortem.jsonl`: a process panic (see
//! [`install_panic_hook`]), an mpisim fault-plane kill/heal, or a
//! `trace diff` divergence.
//!
//! Determinism contract: recording never touches the run's outputs. The
//! rings are only read at dump time, so a run with the recorder disabled
//! (`REPRO_FLIGHT=off`) is byte-identical to one with it enabled — a
//! property the CI trace job asserts.
//!
//! Eviction is *accounted, not hidden*: each ring keeps a drop counter,
//! and the post-mortem header declares it per subsystem so
//! [`crate::validate_trace`] can tell ring eviction (legal head gap,
//! exactly matching the declared drop count) from corruption (any other
//! gap — still an error).

use crate::event::{f, Event, Value};
use crate::metrics::Registry;
use crate::sink::render_jsonl;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// Schema marker carried by the first line of every post-mortem dump.
pub const POSTMORTEM_SCHEMA: &str = "repro-postmortem-v1";

/// Default per-subsystem ring capacity (events retained per subsystem).
/// Small on purpose: the recorder holds "the last few moments", not a
/// full trace — full traces are what `trace reduce`/`trace chaos` are for.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// One subsystem's bounded event ring.
struct Ring {
    events: VecDeque<Event>,
    /// Events evicted from this ring since process start.
    dropped: u64,
    /// Events ever recorded into this ring; doubles as the next logical
    /// timestamp when the recorder assigns sequence numbers itself.
    recorded: u64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            events: VecDeque::new(),
            dropped: 0,
            recorded: 0,
        }
    }
}

/// A point-in-time copy of one subsystem's ring, for dumps and tests.
#[derive(Clone, Debug)]
pub struct RingSnapshot {
    /// Subsystem name.
    pub sub: String,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events evicted (overwritten) since process start.
    pub dropped: u64,
    /// Events ever recorded (retained + dropped).
    pub recorded: u64,
}

/// The [`FlightRecorder`]'s bounded per-subsystem ring buffer: fixed
/// capacity per subsystem, overwrite-oldest on overflow, per-subsystem
/// drop counters. It assigns logical timestamps itself, so independent
/// subsystems can record without sharing a [`crate::Scope`].
pub struct RingSink {
    capacity: usize,
    rings: Mutex<BTreeMap<String, Ring>>,
    /// Total events recorded, across all subsystems (self-accounting).
    events: AtomicU64,
    /// Estimated serialized bytes recorded (self-accounting; a cheap
    /// deterministic estimate, not an exact JSONL byte count).
    bytes: AtomicU64,
}

impl RingSink {
    /// A ring sink retaining at most `capacity` events per subsystem
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            rings: Mutex::new(BTreeMap::new()),
            events: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Per-subsystem retained capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events recorded since construction (including evicted ones).
    pub fn events_recorded(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Estimated bytes recorded since construction. Deterministic function
    /// of the recorded events (names, strings, one flat cost per scalar),
    /// so two identical runs report identical byte counts.
    pub fn bytes_recorded(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    fn with_rings<R>(&self, f: impl FnOnce(&mut BTreeMap<String, Ring>) -> R) -> R {
        match self.rings.lock() {
            Ok(mut guard) => f(&mut guard),
            Err(poisoned) => f(&mut poisoned.into_inner()),
        }
    }

    /// Record an event, assigning the subsystem's next logical timestamp
    /// (events ever recorded for that subsystem). The first retained event
    /// after eviction therefore has `seq == dropped`, which is exactly the
    /// contract [`crate::validate_trace`] checks against the declared drop
    /// counter. The event is accounted, then moved into its ring.
    pub fn push_assigning(&self, sub: &str, kind: &str, fields: Vec<(String, Value)>) {
        self.with_rings(|rings| {
            let ring = rings.entry(sub.to_string()).or_insert_with(Ring::new);
            let event = Event {
                sub: sub.to_string(),
                seq: ring.recorded,
                kind: kind.to_string(),
                wall_us: None,
                fields,
            };
            self.events.fetch_add(1, Ordering::Relaxed);
            self.bytes
                .fetch_add(estimate_event_bytes(&event), Ordering::Relaxed);
            if ring.events.len() == self.capacity {
                ring.events.pop_front();
                ring.dropped += 1;
            }
            ring.recorded += 1;
            ring.events.push_back(event);
        });
    }

    /// Copy out every ring, sorted by subsystem name.
    pub fn snapshot(&self) -> Vec<RingSnapshot> {
        self.with_rings(|rings| {
            rings
                .iter()
                .map(|(sub, ring)| RingSnapshot {
                    sub: sub.clone(),
                    events: ring.events.iter().cloned().collect(),
                    dropped: ring.dropped,
                    recorded: ring.recorded,
                })
                .collect()
        })
    }
}

/// Deterministic serialized-size estimate for self-accounting: string
/// lengths plus a flat 8 bytes per scalar field and a small per-event
/// constant. Close enough to steer capacity decisions without paying for
/// real serialization on the hot path.
fn estimate_event_bytes(event: &Event) -> u64 {
    let mut bytes = 32 + event.sub.len() as u64 + event.kind.len() as u64;
    for (name, value) in &event.fields {
        bytes += name.len() as u64 + 4;
        bytes += match value {
            Value::Str(s) => s.len() as u64 + 2,
            _ => 8,
        };
    }
    bytes
}

/// The process-wide flight recorder: a [`RingSink`] plus the run context
/// needed to turn its contents into an actionable post-mortem (the current
/// run's manifest, a dump directory, an enabled flag).
///
/// Subsystems record through [`record_with`] (the free function, which hits
/// the process-global instance); the CLI parks the active run's manifest with
/// [`FlightRecorder::set_manifest_json`] so a crash dump carries enough
/// context for `repro-reduce replay`.
pub struct FlightRecorder {
    ring: RingSink,
    enabled: AtomicBool,
    dump_dir: Mutex<Option<PathBuf>>,
    manifest_json: Mutex<Option<String>>,
    dumps: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with the given per-subsystem ring capacity, enabled, with
    /// no dump directory (dumps are skipped until one is configured).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: RingSink::new(capacity),
            enabled: AtomicBool::new(true),
            dump_dir: Mutex::new(None),
            manifest_json: Mutex::new(None),
            dumps: AtomicU64::new(0),
        }
    }

    /// Whether recording is active.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable recording. Disabled,
    /// [`FlightRecorder::record_with`] and [`FlightRecorder::dump`] are
    /// no-ops.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The underlying ring sink (for self-accounting and tests).
    pub fn ring(&self) -> &RingSink {
        &self.ring
    }

    /// Number of post-mortem dumps written so far.
    pub fn dumps_written(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Set (or clear) the directory `postmortem.jsonl` is written into.
    pub fn set_dump_dir(&self, dir: Option<PathBuf>) {
        match self.dump_dir.lock() {
            Ok(mut guard) => *guard = dir,
            Err(poisoned) => *poisoned.into_inner() = dir,
        }
    }

    /// Park the active run's manifest JSON so dumps can embed it.
    pub fn set_manifest_json(&self, manifest: Option<String>) {
        match self.manifest_json.lock() {
            Ok(mut guard) => *guard = manifest,
            Err(poisoned) => *poisoned.into_inner() = manifest,
        }
    }

    fn manifest_json_clone(&self) -> Option<String> {
        match self.manifest_json.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    fn dump_dir_clone(&self) -> Option<PathBuf> {
        match self.dump_dir.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Record one event under `sub`, assigning the subsystem's next
    /// logical timestamp. The fields are built lazily: when recording is
    /// disabled the closure never runs, so hot paths pay one atomic load
    /// and a branch — no `Vec`, no key `String`s.
    #[inline]
    pub fn record_with(
        &self,
        sub: &str,
        kind: &str,
        fields: impl FnOnce() -> Vec<(String, Value)>,
    ) {
        if !self.enabled() {
            return;
        }
        self.ring.push_assigning(sub, kind, fields());
    }

    /// Publish the recorder's self-accounting into `registry` as
    /// `obs.overhead.*` gauges (last-write-wins, so repeated accounting is
    /// idempotent): total events and estimated bytes recorded, dumps
    /// written, and per-subsystem recorded/dropped attribution.
    pub fn account(&self, registry: &Registry) {
        registry.gauge_set("obs.overhead.events", self.ring.events_recorded() as f64);
        registry.gauge_set("obs.overhead.bytes", self.ring.bytes_recorded() as f64);
        registry.gauge_set("obs.overhead.dumps", self.dumps_written() as f64);
        for snap in self.ring.snapshot() {
            registry.gauge_set(
                &format!("obs.overhead.events.{}", snap.sub),
                snap.recorded as f64,
            );
            registry.gauge_set(
                &format!("obs.overhead.dropped.{}", snap.sub),
                snap.dropped as f64,
            );
        }
    }

    /// Render the post-mortem JSONL: a `flight`-subsystem header (the
    /// `postmortem` record with the schema marker and trigger reason, the
    /// embedded run manifest when one was parked, one `drops` declaration
    /// per subsystem, and the self-accounting metrics snapshot as `metric`
    /// lines), followed by every ring's retained events verbatim — original
    /// subsystems and logical timestamps, so the head gap of an evicted
    /// ring equals its declared drop count and the whole document passes
    /// [`crate::validate_trace`].
    pub fn render_postmortem(&self, reason: &str) -> String {
        let snaps = self.ring.snapshot();
        let mut head: Vec<Event> = Vec::new();
        let mut seq = 0u64;
        let mut push_head = |head: &mut Vec<Event>, kind: &str, fields: Vec<(String, Value)>| {
            head.push(Event {
                sub: "flight".to_string(),
                seq,
                kind: kind.to_string(),
                wall_us: None,
                fields,
            });
            seq += 1;
        };

        let retained: u64 = snaps.iter().map(|s| s.events.len() as u64).sum();
        push_head(
            &mut head,
            "postmortem",
            vec![
                f("schema", POSTMORTEM_SCHEMA),
                f("reason", reason),
                f("retained", retained),
                f("subsystems", snaps.len() as u64),
                f("capacity", self.ring.capacity() as u64),
            ],
        );
        if let Some(manifest) = self.manifest_json_clone() {
            push_head(&mut head, "manifest", vec![f("manifest", manifest)]);
        }
        for snap in &snaps {
            push_head(
                &mut head,
                "drops",
                vec![
                    f("target", snap.sub.as_str()),
                    f("dropped", snap.dropped),
                    f("recorded", snap.recorded),
                ],
            );
        }
        let registry = Registry::new();
        self.account(&registry);
        for line in registry.snapshot().render().lines() {
            push_head(&mut head, "metric", vec![f("line", line)]);
        }

        let mut out = render_jsonl(&head);
        for snap in &snaps {
            out.push_str(&render_jsonl(&snap.events));
        }
        out
    }

    /// Write `postmortem.jsonl` into the configured dump directory
    /// (creating it if needed). Returns the written path, or `None` when
    /// the recorder is disabled, no dump directory is configured, or the
    /// write fails — a post-mortem must never turn a crash into a second
    /// crash.
    pub fn dump(&self, reason: &str) -> Option<PathBuf> {
        if !self.enabled() {
            return None;
        }
        let dir = self.dump_dir_clone()?;
        let text = self.render_postmortem(reason);
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join("postmortem.jsonl");
        std::fs::write(&path, text).ok()?;
        self.dumps.fetch_add(1, Ordering::Relaxed);
        Some(path)
    }

    /// Best-effort incident dump: like [`FlightRecorder::dump`] but
    /// discards the result. The fault plane and `trace diff` call this on
    /// kills, heals, and divergences.
    pub fn incident(&self, reason: &str) {
        let _ = self.dump(reason);
    }
}

/// The process-global flight recorder. Initialized once, on first use,
/// from the environment: `REPRO_FLIGHT=off` disables recording entirely,
/// and `REPRO_POSTMORTEM=<dir>` configures the post-mortem dump directory
/// (without it, incidents record but dump nothing).
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let recorder = FlightRecorder::new(DEFAULT_RING_CAPACITY);
        if std::env::var("REPRO_FLIGHT").as_deref() == Ok("off") {
            recorder.set_enabled(false);
        }
        if let Ok(dir) = std::env::var("REPRO_POSTMORTEM") {
            if !dir.is_empty() {
                recorder.set_dump_dir(Some(PathBuf::from(dir)));
            }
        }
        recorder
    })
}

/// Record one event on the process-global recorder with lazily built
/// fields: the call the instrumented subsystems use. Disabled cost is one
/// atomic load and a branch — field construction is skipped entirely,
/// which is what keeps always-on instrumentation affordable on per-batch
/// ingest paths.
#[inline]
pub fn record_with(sub: &str, kind: &str, fields: impl FnOnce() -> Vec<(String, Value)>) {
    global().record_with(sub, kind, fields);
}

/// Trigger a best-effort incident dump on the process-global recorder.
pub fn incident(reason: &str) {
    global().incident(reason);
}

/// Install a process panic hook that records the panic (subsystem
/// `process`, kind `panic`, with message and location) on the global
/// recorder and dumps a post-mortem, then chains to the previously
/// installed hook. Idempotent — only the first call installs.
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = info.payload().downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            let location = info
                .location()
                .map(|l| format!("{}:{}", l.file(), l.line()))
                .unwrap_or_else(|| "unknown".to_string());
            let recorder = global();
            recorder.record_with("process", "panic", || {
                vec![f("msg", msg), f("location", location)]
            });
            recorder.incident("panic");
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_trace;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = RingSink::new(3);
        for i in 0..5u64 {
            ring.push_assigning("a", "e", vec![f("i", i)]);
        }
        ring.push_assigning("b", "e", vec![]);
        let snaps = ring.snapshot();
        assert_eq!(snaps.len(), 2);
        let a = &snaps[0];
        assert_eq!(a.sub, "a");
        assert_eq!(a.dropped, 2);
        assert_eq!(a.recorded, 5);
        let seqs: Vec<u64> = a.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(snaps[1].dropped, 0);
        assert_eq!(ring.events_recorded(), 6);
        assert!(ring.bytes_recorded() > 0);
    }

    #[test]
    fn ring_byte_accounting_is_deterministic() {
        let a = RingSink::new(8);
        let b = RingSink::new(8);
        for ring in [&a, &b] {
            ring.push_assigning("s", "k", vec![f("x", 1.5f64), f("note", "hi")]);
        }
        assert_eq!(a.bytes_recorded(), b.bytes_recorded());
    }

    #[test]
    fn postmortem_validates_including_evicted_rings() {
        let rec = FlightRecorder::new(2);
        for i in 0..5u64 {
            rec.record_with("runtime", "reduce", || vec![f("i", i)]);
        }
        rec.record_with("select", "decision", || vec![f("alg", "PR")]);
        rec.set_manifest_json(Some("{\"schema\":\"repro-manifest-v1\"}".to_string()));
        let text = rec.render_postmortem("test");
        let summary = validate_trace(&text).expect("postmortem must be schema-valid");
        for sub in ["flight", "runtime", "select"] {
            assert!(summary.subsystems.iter().any(|s| s == sub), "{summary:?}");
        }
        assert_eq!(summary.dropped, 3);
        assert!(text.contains(POSTMORTEM_SCHEMA), "{text}");
        assert!(text.contains("\"kind\":\"manifest\""), "{text}");
        assert!(text.contains("obs.overhead.events"), "{text}");
        // The bytes themselves: header, manifest, one `drops` record per
        // ring, the self-accounting metrics, then each ring's retained
        // events under their original (post-eviction) timestamps.
        assert_eq!(text, PINNED_POSTMORTEM, "{text}");
    }

    const PINNED_POSTMORTEM: &str = r#"{"sub":"flight","seq":0,"kind":"postmortem","schema":"repro-postmortem-v1","reason":"test","retained":3,"subsystems":2,"capacity":2}
{"sub":"flight","seq":1,"kind":"manifest","manifest":"{\"schema\":\"repro-manifest-v1\"}"}
{"sub":"flight","seq":2,"kind":"drops","target":"runtime","dropped":3,"recorded":5}
{"sub":"flight","seq":3,"kind":"drops","target":"select","dropped":0,"recorded":1}
{"sub":"flight","seq":4,"kind":"metric","line":"gauge obs.overhead.bytes 347"}
{"sub":"flight","seq":5,"kind":"metric","line":"gauge obs.overhead.dropped.runtime 3"}
{"sub":"flight","seq":6,"kind":"metric","line":"gauge obs.overhead.dropped.select 0"}
{"sub":"flight","seq":7,"kind":"metric","line":"gauge obs.overhead.dumps 0"}
{"sub":"flight","seq":8,"kind":"metric","line":"gauge obs.overhead.events 6"}
{"sub":"flight","seq":9,"kind":"metric","line":"gauge obs.overhead.events.runtime 5"}
{"sub":"flight","seq":10,"kind":"metric","line":"gauge obs.overhead.events.select 1"}
{"sub":"runtime","seq":3,"kind":"reduce","i":3}
{"sub":"runtime","seq":4,"kind":"reduce","i":4}
{"sub":"select","seq":0,"kind":"decision","alg":"PR"}
"#;

    #[test]
    fn disabled_recorder_records_and_dumps_nothing() {
        let rec = FlightRecorder::new(4);
        rec.set_enabled(false);
        rec.record_with("runtime", "reduce", || {
            panic!("fields must not be built when disabled")
        });
        assert_eq!(rec.ring().events_recorded(), 0);
        rec.set_dump_dir(Some(std::env::temp_dir()));
        assert!(rec.dump("test").is_none());
        assert_eq!(rec.dumps_written(), 0);
    }

    #[test]
    fn dump_without_directory_is_a_noop() {
        let rec = FlightRecorder::new(4);
        rec.record_with("runtime", "reduce", Vec::new);
        assert!(rec.dump("test").is_none());
    }

    #[test]
    fn render_is_deterministic() {
        let build = || {
            let rec = FlightRecorder::new(3);
            for i in 0..7u64 {
                rec.record_with("a", "e", || vec![f("i", i)]);
            }
            rec.record_with("b", "e", Vec::new);
            rec.render_postmortem("r")
        };
        assert_eq!(build(), build());
    }
}

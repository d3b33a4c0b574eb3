//! Trace configuration and per-subsystem recording scopes.

use crate::event::{Event, Value};
use crate::sink::MemorySink;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// A trace: the memory buffer every scope feeds (none when disabled) plus
/// the wall-clock switch. Scopes hold their own `Arc` to the buffer.
pub struct Trace {
    sink: Option<Arc<MemorySink>>,
    wall_clock: bool,
}

impl Trace {
    /// A disabled trace: scopes derived from it drop events before
    /// building them (near-zero overhead at every instrumentation point).
    pub fn disabled() -> Self {
        Trace {
            sink: None,
            wall_clock: false,
        }
    }

    /// A trace buffering into a fresh [`MemorySink`]; returns both so the
    /// caller can drain the events afterwards.
    pub fn to_memory() -> (Self, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        (
            Trace {
                sink: Some(sink.clone()),
                wall_clock: false,
            },
            sink,
        )
    }

    /// Toggle the optional wall-clock column. Off by default: wall time is
    /// the one nondeterministic field, so byte-identical replay requires it
    /// stay off (or be stripped before comparison).
    pub fn with_wall_clock(mut self, on: bool) -> Self {
        self.wall_clock = on;
        self
    }

    /// Whether scopes derived from this trace record anything.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Open a recording scope for one subsystem. The scope owns the
    /// subsystem's logical clock; create exactly one scope per subsystem
    /// (or per thread, with distinct names) and events stay totally
    /// ordered within it.
    pub fn scope(&self, sub: impl Into<String>) -> Scope {
        Scope {
            sub: sub.into(),
            next_seq: 0,
            sink: self.sink.clone(),
            wall_clock: self.wall_clock,
        }
    }
}

/// One subsystem's recording handle: a name, a monotone logical clock,
/// and the trace's buffer. Deliberately `&mut self` — a scope belongs to one
/// thread; cross-thread determinism comes from one-scope-per-thread plus
/// deterministic concatenation, never from interleaving.
pub struct Scope {
    sub: String,
    next_seq: u64,
    sink: Option<Arc<MemorySink>>,
    wall_clock: bool,
}

impl Scope {
    /// A scope that records nothing (for call sites that take a scope
    /// unconditionally).
    pub fn disabled() -> Self {
        Trace::disabled().scope("disabled")
    }

    /// Whether events are recorded. Call sites with expensive field
    /// construction can branch on this; plain sites just call
    /// [`Scope::event`], which short-circuits anyway.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The subsystem name.
    pub fn sub(&self) -> &str {
        &self.sub
    }

    /// Record one event: the next logical timestamp is assigned and the
    /// event goes to the trace's buffer. No-op (fields dropped) when
    /// disabled.
    pub fn event(&mut self, kind: &str, fields: Vec<(String, Value)>) {
        let Some(sink) = &self.sink else {
            return;
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let wall_us = if self.wall_clock {
            Some(
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_micros() as u64)
                    .unwrap_or(0),
            )
        } else {
            None
        };
        sink.record(Event {
            sub: self.sub.clone(),
            seq,
            kind: kind.to_string(),
            wall_us,
            fields,
        });
    }

    /// Record one event with lazily built fields. When the scope is
    /// disabled this returns before the closure runs, so instrumentation
    /// on hot paths (per-element ingest loops) pays only the branch — no
    /// `Vec`, no `String` keys, no `Value` boxing. Measured as the
    /// `obs/noop` bench entry.
    #[inline]
    pub fn event_with(&mut self, kind: &str, fields: impl FnOnce() -> Vec<(String, Value)>) {
        if !self.enabled() {
            return;
        }
        self.event(kind, fields());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::f;

    #[test]
    fn scope_assigns_monotone_logical_timestamps() {
        let (trace, sink) = Trace::to_memory();
        let mut a = trace.scope("a");
        let mut b = trace.scope("b");
        a.event("x", vec![]);
        b.event("y", vec![f("n", 1u64)]);
        a.event("z", vec![]);
        let events = sink.drain();
        let seqs: Vec<(String, u64)> = events.iter().map(|e| (e.sub.clone(), e.seq)).collect();
        assert_eq!(
            seqs,
            vec![("a".into(), 0), ("b".into(), 0), ("a".into(), 1)]
        );
        assert!(events.iter().all(|e| e.wall_us.is_none()));
    }

    #[test]
    fn disabled_scope_records_nothing() {
        let mut scope = Scope::disabled();
        assert!(!scope.enabled());
        scope.event("x", vec![f("n", 1u64)]);
        // Nothing to observe: a disabled scope holds no buffer; the
        // assertion is that this neither panics nor records anywhere.
    }

    #[test]
    fn event_with_skips_field_construction_when_disabled() {
        let mut scope = Scope::disabled();
        scope.event_with("x", || panic!("fields must not be built when disabled"));

        let (trace, sink) = Trace::to_memory();
        let mut scope = trace.scope("t");
        scope.event_with("x", || vec![f("n", 7u64)]);
        let events = sink.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].fields.len(), 1);
    }

    #[test]
    fn wall_clock_column_is_opt_in() {
        let (trace, sink) = Trace::to_memory();
        let mut scope = trace.with_wall_clock(true).scope("t");
        scope.event("x", vec![]);
        let events = sink.drain();
        assert!(events[0].wall_us.is_some());
    }
}

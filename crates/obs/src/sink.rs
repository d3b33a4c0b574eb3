//! Where a trace's events go: a memory buffer, rendered as JSON Lines once
//! the run is over.

use crate::event::Event;
use std::sync::Mutex;

/// Buffers events in memory — the one place an enabled [`crate::Trace`]
/// records to. Scopes on different threads may share it; deterministic
/// output comes from buffering, concatenating in a fixed order, and only
/// then serializing with [`render_jsonl`].
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take every buffered event, leaving the sink empty.
    pub fn drain(&self) -> Vec<Event> {
        match self.events.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        }
    }

    /// Append one event.
    pub fn record(&self, event: Event) {
        match self.events.lock() {
            Ok(mut guard) => guard.push(event),
            Err(poisoned) => poisoned.into_inner().push(event),
        }
    }
}

/// Render a slice of events as JSON Lines (one event per line, trailing
/// newline after the last).
pub fn render_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 80);
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::f;

    fn event(seq: u64) -> Event {
        Event {
            sub: "t".into(),
            seq,
            kind: "k".into(),
            wall_us: None,
            fields: vec![f("i", seq)],
        }
    }

    #[test]
    fn memory_sink_buffers_and_drains() {
        let sink = MemorySink::new();
        sink.record(event(0));
        sink.record(event(1));
        let events = sink.drain();
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), [0, 1]);
        assert!(sink.drain().is_empty());
    }
}

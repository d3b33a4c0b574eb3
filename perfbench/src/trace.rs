//! In-memory spans around the benchmark's calls into each layer.
//!
//! A root span covers one op or one probe pass; every span opened inside
//! it is its child. Each call is timed on its own, but the children of one
//! root are kept as one record per layer — count, summed duration, first
//! start, last end — so an op of 4,096 ingest calls stores one record, not
//! 4,096. Children never overlap (one load thread), so a root's coverage is
//! its children's summed duration over its own.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One layer's calls under one root, or a root itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based id, in opening order.
    pub id: u32,
    /// Id of the root span this one belongs to; 0 for a root.
    pub parent: u32,
    /// Layer (child) or kind (root: `op` or `probe`).
    pub layer: &'static str,
    /// Calls recorded (1 for a root).
    pub count: u64,
    /// Start of the first call, in ns since the tracer was created.
    pub start_ns: u64,
    /// End of the last call, in ns since the tracer was created.
    pub end_ns: u64,
    /// Summed duration of the calls, ns.
    pub ns: u64,
}

/// Records spans when on; when off, [`Tracer::span`] is a plain call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    root: u32,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            root: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, parent: u32, layer: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            layer,
            count: 1,
            start_ns,
            end_ns,
            ns: end_ns.saturating_sub(start_ns),
        });
        id
    }

    /// Run `f` in a span named `layer`, a child of the open root span.
    #[inline]
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        // The open root's children follow it at the end of the list.
        let children = &mut self.spans[self.root as usize..];
        match children.iter_mut().find(|s| s.layer == layer) {
            Some(s) if self.root != 0 => {
                s.count += 1;
                s.end_ns = end;
                s.ns += end - start;
            }
            _ => {
                self.push(self.root, layer, start, end);
            }
        }
        out
    }

    /// Run `f` in a root span of kind `kind`; spans `f` opens become its
    /// children.
    pub fn root<T>(&mut self, kind: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.push(0, kind, self.now(), 0);
        self.root = id;
        let out = f(self);
        self.root = 0;
        let end = self.now();
        let root = &mut self.spans[id as usize - 1];
        root.end_ns = end;
        root.ns = end - root.start_ns;
        out
    }

    /// Every span recorded, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as tab-separated lines under a header.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\tlayer\tcount\tstart_ns\tend_ns\tns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.layer, s.count, s.start_ns, s.end_ns, s.ns
            )?;
        }
        Ok(())
    }
}

/// Count and total duration of the spans of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans.
    pub count: u64,
    /// Summed duration, ns.
    pub ns: u64,
}

/// Per-layer totals over `spans`, roots included under their kind.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut map: BTreeMap<&'static str, Total> = BTreeMap::new();
    for s in spans {
        let t = map.entry(s.layer).or_default();
        t.count += s.count;
        t.ns += s.ns;
    }
    map
}

/// Share of the time of the roots of kind `kind` that their children
/// cover; 0 when there are no such roots.
pub fn coverage(spans: &[Span], kind: &str) -> f64 {
    let roots: BTreeMap<u32, u64> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.layer == kind)
        .map(|s| (s.id, s.ns))
        .collect();
    let covered: u64 = spans
        .iter()
        .filter(|s| roots.contains_key(&s.parent))
        .map(|s| s.ns)
        .sum();
    let total: u64 = roots.values().sum();
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            count: 1,
            start_ns,
            end_ns,
            ns: end_ns - start_ns,
        }
    }

    #[test]
    fn coverage_is_child_time_over_root_time_of_one_kind() {
        let merged = Span {
            count: 2,
            ns: 45,
            ..span(3, 1, "b", 50, 99)
        };
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "a", 10, 40),
            merged,
            span(4, 0, "probe", 100, 300),
            span(5, 4, "a", 100, 300),
            span(6, 0, "op", 300, 400),
            span(7, 6, "a", 300, 380),
        ];
        // (30 + 45 + 80) / (100 + 100): summed durations, not extents; the
        // probe root is another kind.
        assert_eq!(coverage(&spans, "op"), 155.0 / 200.0);
        assert_eq!(coverage(&spans, "probe"), 1.0);
        assert_eq!(coverage(&spans, "none"), 0.0);
        let t = totals(&spans);
        assert_eq!(t["a"], Total { count: 3, ns: 310 });
        assert_eq!(t["b"], Total { count: 2, ns: 45 });
        assert_eq!(t["op"], Total { count: 2, ns: 200 });
    }

    #[test]
    fn tracer_keeps_one_record_per_layer_under_each_root() {
        let mut tracer = Tracer::on();
        for _ in 0..2 {
            tracer.root("op", |t| {
                for _ in 0..3 {
                    t.span("a", || ());
                }
                t.span("b", || ())
            });
        }
        tracer.span("loose", || ());
        let s = tracer.spans();
        let shape: Vec<(&str, u32, u64)> = s.iter().map(|s| (s.layer, s.parent, s.count)).collect();
        assert_eq!(
            shape,
            [
                ("op", 0, 1),
                ("a", 1, 3),
                ("b", 1, 1),
                ("op", 0, 1),
                ("a", 4, 3),
                ("b", 4, 1),
                ("loose", 0, 1)
            ]
        );
        assert!(s[1].ns <= s[1].end_ns - s[1].start_ns);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!((0.0..=1.0).contains(&coverage(s, "op")));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        assert_eq!(tracer.root("op", |t| t.span("a", || 5)), 5);
        assert!(tracer.spans().is_empty());
    }
}

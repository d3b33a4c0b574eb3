//! Per-shard partial states and the `repro-agg-state-v2` wire format.
//!
//! A shard's state is the thing that makes the whole engine reproducible:
//! an exact superaccumulator is a true integer sum, so any add/merge
//! schedule over the same multiset of values reaches the same state. The
//! wire format serializes that state losslessly (text, one line per
//! shard) so partials can be shipped between nodes and merged, or written
//! as a snapshot and restored after a crash — in both cases
//! bitwise-transparently.
//!
//! The parser is **strict**: unknown schema markers (v1 included),
//! truncated documents, shard-count mismatches, out-of-order shard lines,
//! corrupt or non-canonical checkpoints, and trailing garbage are all
//! rejected with an [`AggStateError`] — the CLI maps every one of these
//! to the binary-wide schema exit code (2). A corrupt snapshot must never
//! silently decode into a different sum. Header counts are claims, not
//! allocation sizes: vectors grow as lines arrive, so a hostile count
//! costs nothing but a "truncated" error.

use repro_fp::Superaccumulator;

/// Schema marker opening one serialized aggregate.
pub const STATE_SCHEMA: &str = "repro-agg-state-v2";

/// Schema marker opening a whole-engine snapshot (a counted sequence of
/// [`STATE_SCHEMA`] documents).
pub const SNAPSHOT_SCHEMA: &str = "repro-agg-snapshot-v2";

/// A malformed `repro-agg-state-v2` document. Always a schema-class
/// error: the CLI exit-code contract maps it to exit 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggStateError(pub String);

impl std::fmt::Display for AggStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for AggStateError {}

fn bad(msg: impl Into<String>) -> AggStateError {
    AggStateError(msg.into())
}

/// The operator an aggregate's shards run. There is one: the exact
/// superaccumulator, which is both the most accurate and the fastest
/// batched ingest path in the workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OperatorKind {
    /// An exact Kulisch superaccumulator: a true integer sum of the
    /// deposited values.
    Exact,
}

impl OperatorKind {
    /// A fresh (zero) shard state.
    pub fn new_state(&self) -> Superaccumulator {
        Superaccumulator::new()
    }
}

/// One aggregate decoded from the wire: its metadata plus every shard's
/// restored partial state, in shard order.
#[derive(Clone, Debug)]
pub struct ParsedAggregate {
    /// Aggregate name (validated: `[A-Za-z0-9_.:-]+`).
    pub name: String,
    /// Updates (values) ingested into this aggregate so far.
    pub updates: u64,
    /// Batches ingested so far.
    pub batches: u64,
    /// Restored per-shard partial states, shard 0 first.
    pub shards: Vec<Superaccumulator>,
}

/// Whether `name` is a legal aggregate name on the wire (nonempty,
/// `[A-Za-z0-9_.:-]` only — no spaces, so the header line stays
/// unambiguous).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'-'))
}

/// Render one aggregate as a `repro-agg-state-v2` document.
pub fn render_aggregate(
    name: &str,
    updates: u64,
    batches: u64,
    shards: &[Superaccumulator],
) -> String {
    let mut out = format!(
        "{STATE_SCHEMA} name={name} shards={} updates={updates} batches={batches}\n",
        shards.len(),
    );
    for (i, shard) in shards.iter().enumerate() {
        out.push_str(&format!("shard={i};{}\n", shard.checkpoint()));
    }
    out.push_str("end\n");
    out
}

/// The lines of a whole document, which must end in exactly one newline.
/// Splitting on `\n` alone (not `str::lines`) keeps a stray `\r` inside
/// the line, where the field parsers reject it.
pub fn document_lines(text: &str) -> Result<std::str::Split<'_, char>, AggStateError> {
    text.strip_suffix('\n')
        .map(|body| body.split('\n'))
        .ok_or_else(|| bad("truncated: missing final newline"))
}

fn header_field<'a>(token: Option<&'a str>, key: &str) -> Result<&'a str, AggStateError> {
    let token = token.ok_or_else(|| bad(format!("truncated header: missing {key}=")))?;
    token
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| bad(format!("malformed header: expected {key}=, got {token:?}")))
}

/// A decimal count in its one canonical spelling (no sign, no leading
/// zeros), so a parsed document re-renders byte-identically.
fn count(text: &str, what: &str) -> Result<u64, AggStateError> {
    text.parse::<u64>()
        .ok()
        .filter(|v| v.to_string() == text)
        .ok_or_else(|| bad(format!("malformed {what} count {text:?}")))
}

/// Parse one `repro-agg-state-v2` document from a line iterator
/// (consuming exactly its lines, so documents can be concatenated).
/// Strict on every axis: schema marker, header field order, shard
/// indices contiguous from 0, canonical checkpoints, and the `end`
/// terminator.
pub fn parse_aggregate<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
) -> Result<ParsedAggregate, AggStateError> {
    let header = lines
        .next()
        .ok_or_else(|| bad("truncated: missing state document"))?;
    let mut tokens = header.split(' ');
    let schema = tokens.next().unwrap_or("");
    if schema != STATE_SCHEMA {
        return Err(bad(format!(
            "unsupported schema {schema:?} (expected {STATE_SCHEMA})"
        )));
    }
    let name = header_field(tokens.next(), "name")?.to_string();
    if !valid_name(&name) {
        return Err(bad(format!("invalid aggregate name {name:?}")));
    }
    let shard_count = count(header_field(tokens.next(), "shards")?, "shards=")?;
    if shard_count == 0 {
        return Err(bad("shards= must be at least 1"));
    }
    let updates = count(header_field(tokens.next(), "updates")?, "updates=")?;
    let batches = count(header_field(tokens.next(), "batches")?, "batches=")?;
    if tokens.next().is_some() {
        return Err(bad("trailing tokens in header"));
    }

    let mut shards = Vec::new();
    for expect in 0..shard_count {
        let line = lines
            .next()
            .ok_or_else(|| bad(format!("truncated: missing shard {expect}")))?;
        let rest = line
            .strip_prefix("shard=")
            .ok_or_else(|| bad(format!("expected shard line, got {line:?}")))?;
        let (index, checkpoint) = rest
            .split_once(';')
            .ok_or_else(|| bad("malformed shard line (missing ';')"))?;
        if index != expect.to_string() {
            return Err(bad(format!(
                "shard {index:?} out of order (expected {expect})"
            )));
        }
        let state = Superaccumulator::restore(checkpoint)
            .ok_or_else(|| bad(format!("corrupt checkpoint for shard {index}")))?;
        shards.push(state);
    }
    match lines.next() {
        Some("end") => {}
        Some(line) => return Err(bad(format!("expected end, got {line:?}"))),
        None => return Err(bad("truncated: missing end marker")),
    }
    Ok(ParsedAggregate {
        name,
        updates,
        batches,
        shards,
    })
}

/// Render a whole-engine snapshot: a counted header plus one aggregate
/// document per entry.
pub fn render_snapshot(aggregates: &[String]) -> String {
    let mut out = format!("{SNAPSHOT_SCHEMA} aggregates={}\n", aggregates.len());
    for doc in aggregates {
        out.push_str(doc);
    }
    out
}

/// Parse a whole-engine snapshot. Strict: schema marker, exact aggregate
/// count, unique names, a final newline, and nothing after the last
/// document.
pub fn parse_snapshot(text: &str) -> Result<Vec<ParsedAggregate>, AggStateError> {
    let mut lines = document_lines(text)?;
    let header = lines.next().ok_or_else(|| bad("empty snapshot"))?;
    let mut tokens = header.split(' ');
    let schema = tokens.next().unwrap_or("");
    if schema != SNAPSHOT_SCHEMA {
        return Err(bad(format!(
            "unsupported schema {schema:?} (expected {SNAPSHOT_SCHEMA})"
        )));
    }
    let total = count(header_field(tokens.next(), "aggregates")?, "aggregates=")?;
    if tokens.next().is_some() {
        return Err(bad("trailing tokens in snapshot header"));
    }
    let mut parsed = Vec::new();
    for _ in 0..total {
        parsed.push(parse_aggregate(&mut lines)?);
    }
    if let Some(extra) = lines.next() {
        return Err(bad(format!("trailing garbage after snapshot: {extra:?}")));
    }
    let mut names: Vec<&str> = parsed.iter().map(|p| p.name.as_str()).collect();
    names.sort_unstable();
    if names.windows(2).any(|w| w[0] == w[1]) {
        return Err(bad("duplicate aggregate name in snapshot"));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> Superaccumulator {
        let mut s = OperatorKind::Exact.new_state();
        s.add_slice(&[1.5, -2.25e-300, 7.0e250, f64::MIN_POSITIVE, -0.0]);
        s
    }

    fn render(p: &ParsedAggregate) -> String {
        render_aggregate(&p.name, p.updates, p.batches, &p.shards)
    }

    #[test]
    fn shard_checkpoint_restore_is_bitwise_transparent() {
        let state = sample_state();
        let restored = Superaccumulator::restore(&state.checkpoint()).expect("restores");
        assert_eq!(restored.to_f64().to_bits(), state.to_f64().to_bits());
    }

    #[test]
    fn aggregate_document_round_trips() {
        let shards = vec![sample_state(), OperatorKind::Exact.new_state()];
        let doc = render_aggregate("t.agg-1", 5, 1, &shards);
        let parsed = parse_aggregate(&mut document_lines(&doc).unwrap()).expect("parses");
        assert_eq!(parsed.name, "t.agg-1");
        assert_eq!(parsed.updates, 5);
        assert_eq!(parsed.batches, 1);
        assert_eq!(parsed.shards.len(), 2);
        assert_eq!(
            parsed.shards[0].to_f64().to_bits(),
            shards[0].to_f64().to_bits()
        );
        assert_eq!(render(&parsed), doc);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        let good = render_aggregate("a", 5, 1, &[sample_state()]);
        let wrap = |doc: &str| format!("{SNAPSHOT_SCHEMA} aggregates=1\n{doc}");
        assert!(parse_snapshot(&wrap(&good)).is_ok());

        let cases: Vec<String> = vec![
            // Unknown schema versions, the retired v1 among them.
            good.replacen("repro-agg-state-v2", "repro-agg-state-v1", 1),
            good.replacen("repro-agg-state-v2", "repro-agg-state-v3", 1),
            // A v1 header (it carried op=) and a v1 binned checkpoint.
            good.replacen(" shards=", " op=exact shards=", 1),
            good.replacen("shard=0;sa2;", "shard=0;3;", 1),
            // Truncated: drop the end marker, the shard line, the newline.
            good.replacen("end\n", "", 1),
            good.lines().take(1).collect::<Vec<_>>().join("\n"),
            good.trim_end().to_string(),
            // Header corruption.
            good.replacen("name=a", "name=", 1),
            good.replacen("name=a", "nom=a", 1),
            good.replacen("shards=1", "shards=2", 1),
            good.replacen("shards=1", "shards=0", 1),
            good.replacen("shards=1", "shards=01", 1),
            // Hostile counts: a truncation error, never an allocation size.
            good.replacen("shards=1", "shards=4000000000000", 1),
            good.replacen("shards=1", &format!("shards={}", u64::MAX), 1),
            good.replacen("updates=5", "updates=x", 1),
            good.replacen("updates=5", "updates=+5", 1),
            good.replacen("batches=1\n", "batches=1\r\n", 1),
            // Shard corruption: bad index, corrupt checkpoint tag.
            good.replacen("shard=0;", "shard=1;", 1),
            good.replacen("shard=0;", "shard=00;", 1),
            good.replacen("shard=0;sa2;", "shard=0;sa1;", 1),
            // Trailing garbage.
            format!("{good}junk\n"),
            format!("{good}\n"),
        ];
        for case in cases {
            assert!(
                parse_snapshot(&wrap(&case)).is_err(),
                "accepted malformed document:\n{case}"
            );
        }
    }

    #[test]
    fn snapshot_round_trips_and_rejects_duplicates() {
        let a = render_aggregate("a", 1, 1, &[sample_state()]);
        let b = render_aggregate("b", 2, 1, &[sample_state(), sample_state()]);
        let snap = render_snapshot(&[a.clone(), b.clone()]);
        let parsed = parse_snapshot(&snap).expect("parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].shards.len(), 2);
        let docs: Vec<String> = parsed.iter().map(render).collect();
        assert_eq!(render_snapshot(&docs), snap);

        let dup = render_snapshot(&[a.clone(), a.clone()]);
        assert!(parse_snapshot(&dup).is_err());
        assert!(parse_snapshot("").is_err());
        assert!(parse_snapshot("repro-agg-snapshot-v9 aggregates=0\n").is_err());
        assert!(parse_snapshot(&snap.replacen("-v2 ", "-v1 ", 1)).is_err());
        for hostile in [u64::MAX.to_string(), "18446744073709551616".to_string()] {
            assert!(parse_snapshot(&format!("{SNAPSHOT_SCHEMA} aggregates={hostile}\n")).is_err());
        }
        // Count mismatch: header says two, body has one.
        assert!(parse_snapshot(&format!("{SNAPSHOT_SCHEMA} aggregates=2\n{a}")).is_err());
    }
}

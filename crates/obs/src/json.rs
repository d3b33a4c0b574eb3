//! A minimal JSON parser and the trace schema validator.
//!
//! The serializer in [`crate::Event::to_json`] is hand-rolled; this module
//! is its counterpart so traces can be checked without pulling in a JSON
//! dependency. The parser is a straightforward recursive-descent over the
//! JSON grammar — small, strict (no trailing garbage), and good enough to
//! validate the traces this workspace emits. Nesting deeper than 64 is an
//! error, so a hostile document cannot overflow the stack.

use std::collections::BTreeMap;

/// The deepest array/object nesting [`Json::parse`] accepts. The
/// workspace's own documents nest at most 3 deep.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (kept as f64; trace validation re-checks integerness).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are kept in a sorted map; the validator only needs
    /// lookup, not source order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document. Errors carry a byte offset and a
    /// short description.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Num`.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Object field lookup, if this is an `Obj`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs don't occur in our own output;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar, not one byte.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8")?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// What [`validate_trace`] learned about a well-formed trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSummary {
    /// Number of event lines (comments and blanks excluded).
    pub events: usize,
    /// Distinct subsystem names, sorted.
    pub subsystems: Vec<String>,
    /// Total ring-evicted events declared by `flight`/`drops` records
    /// (zero for ordinary, eviction-free traces).
    pub dropped: u64,
}

/// Validate a JSONL trace against the schema contract: every non-blank,
/// non-`#` line must parse as a JSON object with a string `sub`, a
/// non-negative integer `seq`, and a string `kind`; and per subsystem,
/// `seq` must count contiguously (0, 1, 2, ...). Lines starting with `#`
/// are human summary lines and are skipped.
///
/// Ring-evicted traces (flight-recorder post-mortems) are accepted with
/// one precise exception: a subsystem may *start* above zero iff a
/// `flight`-subsystem `drops` record declares exactly that many dropped
/// events for it (`{"sub":"flight",...,"kind":"drops","target":S,
/// "dropped":N}` ⇒ subsystem `S` may begin at seq `N`). Any other gap —
/// a mid-stream skip, a regression, or a head gap not matching the
/// declared counter — still fails, so eviction is distinguishable from
/// corruption.
pub fn validate_trace(text: &str) -> Result<TraceSummary, String> {
    // Pass 1: parse every event line and collect the authoritative drop
    // declarations (only the flight subsystem may declare them).
    struct Line {
        lineno: usize,
        sub: String,
        seq: u64,
    }
    let mut lines: Vec<Line> = Vec::new();
    let mut declared: BTreeMap<String, u64> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let value = Json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let sub = value
            .get("sub")
            .and_then(Json::as_str)
            .ok_or(format!("line {lineno}: missing string field \"sub\""))?;
        let seq = value
            .get("seq")
            .and_then(Json::as_num)
            .ok_or(format!("line {lineno}: missing numeric field \"seq\""))?;
        if seq < 0.0 || seq.fract() != 0.0 {
            return Err(format!(
                "line {lineno}: \"seq\" must be a non-negative integer, got {seq}"
            ));
        }
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or(format!("line {lineno}: missing string field \"kind\""))?;
        if sub == "flight" && kind == "drops" {
            let target = value.get("target").and_then(Json::as_str).ok_or(format!(
                "line {lineno}: drops record missing string \"target\""
            ))?;
            let dropped = value.get("dropped").and_then(Json::as_num).ok_or(format!(
                "line {lineno}: drops record missing numeric \"dropped\""
            ))?;
            if dropped < 0.0 || dropped.fract() != 0.0 {
                return Err(format!(
                    "line {lineno}: drops record \"dropped\" must be a non-negative integer"
                ));
            }
            if declared
                .insert(target.to_string(), dropped as u64)
                .is_some()
            {
                return Err(format!(
                    "line {lineno}: duplicate drops record for subsystem \"{target}\""
                ));
            }
        }
        lines.push(Line {
            lineno,
            sub: sub.to_string(),
            seq: seq as u64,
        });
    }

    // Pass 2: per-subsystem contiguity, with the declared drop counter as
    // the only legal head offset.
    let mut last_seq: BTreeMap<String, u64> = BTreeMap::new();
    for line in &lines {
        let Line { lineno, sub, seq } = line;
        match last_seq.get(sub) {
            None => {
                let expected = declared.get(sub).copied().unwrap_or(0);
                if *seq != expected {
                    return Err(format!(
                        "line {lineno}: subsystem \"{sub}\" starts at seq {seq}, expected \
                         {expected} ({expected} declared dropped) — head gap not matched \
                         by a drop record"
                    ));
                }
            }
            Some(&prev) => {
                if *seq <= prev {
                    return Err(format!(
                        "line {lineno}: subsystem \"{sub}\" seq {seq} not greater than previous {prev}"
                    ));
                }
                if *seq != prev + 1 {
                    return Err(format!(
                        "line {lineno}: subsystem \"{sub}\" seq {seq} skips {} — mid-stream \
                         gap not coverable by a drop record",
                        prev + 1
                    ));
                }
            }
        }
        last_seq.insert(sub.clone(), *seq);
    }
    Ok(TraceSummary {
        events: lines.len(),
        subsystems: last_seq.into_keys().collect(),
        dropped: declared.values().sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{f, Event};
    use crate::sink::render_jsonl;

    #[test]
    fn parses_what_events_serialize() {
        let e = Event {
            sub: "rank3".into(),
            seq: 2,
            kind: "send".into(),
            wall_us: Some(99),
            fields: vec![
                f("to", 0usize),
                f("tag", 7u64),
                f("dropped", false),
                f("x", -0.125f64),
                f("note", "a \"b\"\n"),
            ],
        };
        let parsed = Json::parse(&e.to_json()).unwrap();
        assert_eq!(parsed.get("sub").unwrap().as_str(), Some("rank3"));
        assert_eq!(parsed.get("seq").unwrap().as_num(), Some(2.0));
        assert_eq!(parsed.get("dropped"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("x").unwrap().as_num(), Some(-0.125));
        assert_eq!(parsed.get("note").unwrap().as_str(), Some("a \"b\"\n"));
        assert_eq!(parsed.get("wall_us").unwrap().as_num(), Some(99.0));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["{", "{\"a\":}", "[1,]", "tru", "{\"a\":1} extra", "\"\\q\""] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parser_handles_nesting_and_numbers() {
        let v = Json::parse(r#"{"a":[1,2.5,-3e2,null,{"b":true}]}"#).unwrap();
        let arr = match v.get("a").unwrap() {
            Json::Arr(items) => items,
            other => panic!("{other:?}"),
        };
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_num(), Some(2.5));
        assert_eq!(arr[2].as_num(), Some(-300.0));
        assert_eq!(arr[3], Json::Null);
        assert_eq!(arr[4].get("b"), Some(&Json::Bool(true)));
    }

    #[test]
    fn parser_caps_nesting_depth() {
        let deep = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&deep(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        // Far past any stack: an error, not an overflow.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn validates_a_well_formed_trace() {
        let events = vec![
            Event {
                sub: "a".into(),
                seq: 0,
                kind: "x".into(),
                wall_us: None,
                fields: vec![],
            },
            Event {
                sub: "b".into(),
                seq: 0,
                kind: "y".into(),
                wall_us: None,
                fields: vec![],
            },
            Event {
                sub: "a".into(),
                seq: 1,
                kind: "z".into(),
                wall_us: None,
                fields: vec![],
            },
        ];
        let mut text = render_jsonl(&events);
        text.push_str("# human summary line\n\n");
        let summary = validate_trace(&text).unwrap();
        assert_eq!(summary.events, 3);
        assert_eq!(summary.subsystems, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn rejects_non_monotone_or_malformed_traces() {
        let non_monotone =
            "{\"sub\":\"a\",\"seq\":0,\"kind\":\"x\"}\n{\"sub\":\"a\",\"seq\":0,\"kind\":\"y\"}\n";
        assert!(validate_trace(non_monotone)
            .unwrap_err()
            .contains("not greater"));

        let missing_kind = "{\"sub\":\"a\",\"seq\":0}\n";
        assert!(validate_trace(missing_kind).unwrap_err().contains("kind"));

        let bad_seq = "{\"sub\":\"a\",\"seq\":1.5,\"kind\":\"x\"}\n";
        assert!(validate_trace(bad_seq)
            .unwrap_err()
            .contains("non-negative integer"));

        let not_json = "not json\n";
        assert!(validate_trace(not_json).is_err());
    }

    #[test]
    fn head_gaps_require_a_matching_drop_record() {
        // Undeclared head gap: corruption, not eviction.
        let bare = "{\"sub\":\"a\",\"seq\":3,\"kind\":\"x\"}\n";
        assert!(validate_trace(bare)
            .unwrap_err()
            .contains("head gap not matched"));

        // Declared eviction: the same head gap is legal, and accounted.
        let declared = "{\"sub\":\"flight\",\"seq\":0,\"kind\":\"drops\",\
                        \"target\":\"a\",\"dropped\":3}\n\
                        {\"sub\":\"a\",\"seq\":3,\"kind\":\"x\"}\n\
                        {\"sub\":\"a\",\"seq\":4,\"kind\":\"y\"}\n";
        let summary = validate_trace(declared).unwrap();
        assert_eq!(summary.events, 3);
        assert_eq!(summary.dropped, 3);

        // A drop record that does not match the head gap still fails.
        let mismatched = "{\"sub\":\"flight\",\"seq\":0,\"kind\":\"drops\",\
                          \"target\":\"a\",\"dropped\":2}\n\
                          {\"sub\":\"a\",\"seq\":3,\"kind\":\"x\"}\n";
        assert!(validate_trace(mismatched)
            .unwrap_err()
            .contains("head gap not matched"));
    }

    #[test]
    fn mid_stream_gaps_fail_even_with_a_drop_record() {
        let gap = "{\"sub\":\"flight\",\"seq\":0,\"kind\":\"drops\",\
                   \"target\":\"a\",\"dropped\":1}\n\
                   {\"sub\":\"a\",\"seq\":1,\"kind\":\"x\"}\n\
                   {\"sub\":\"a\",\"seq\":3,\"kind\":\"y\"}\n";
        assert!(validate_trace(gap).unwrap_err().contains("mid-stream"));

        let dup_decl = "{\"sub\":\"flight\",\"seq\":0,\"kind\":\"drops\",\
                        \"target\":\"a\",\"dropped\":1}\n\
                        {\"sub\":\"flight\",\"seq\":1,\"kind\":\"drops\",\
                        \"target\":\"a\",\"dropped\":2}\n";
        assert!(validate_trace(dup_decl)
            .unwrap_err()
            .contains("duplicate drops record"));
    }
}

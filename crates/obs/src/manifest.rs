//! Run-provenance manifests: the complete determinism context of one run,
//! serializable to a single JSON line and parseable back without loss.
//!
//! A [`RunManifest`] captures everything needed to re-execute a run and
//! demand a bitwise-identical result: the input recipe (generator seed and
//! shape, or the raw values as bit patterns), the selected algorithm and
//! where its cost model came from, the SIMD tier, worker count, relevant
//! `REPRO_*` environment, fault-plan parameters (the fault plan is seeded
//! by the run seed), and telemetry/sampling/decision-cache configuration.
//! The CLI emits one on every run (`# manifest: {...}` trailer plus
//! `--manifest PATH`), parks it on the flight recorder so crash dumps
//! embed it, and `repro-reduce replay <manifest>` re-executes and compares
//! bit patterns.
//!
//! Exactness rules: [`crate::Json`] keeps numbers as `f64`, so any value
//! that must round-trip beyond 2^53 — the 64-bit seed and all f64 bit
//! patterns — is serialized as a *string* (decimal for the seed, 16-digit
//! hex for bit patterns). Finite floats use Rust's shortest-round-trip
//! `Display`, which re-parses to the identical bits; non-finite floats use
//! the same `"inf"`/`"-inf"`/`"nan"` tags as the event stream.

use crate::event::{push_json_f64, push_json_string};
use crate::json::Json;
use std::fmt::Write as _;

/// Schema marker carried by every manifest (`schema` field). Bump on any
/// incompatible field change; [`RunManifest::parse`] rejects other values
/// so a replay against a future or corrupted manifest fails loudly as a
/// schema error, never as a silent misread.
pub const MANIFEST_SCHEMA: &str = "repro-manifest-v1";

/// Inputs above this length are not embedded in the manifest as bit
/// patterns; such runs replay only when the input came from the seeded
/// generator.
pub const MAX_EMBEDDED_VALUES: usize = 4096;

/// Fault-plane parameters of a chaos run. The fault plan draws every
/// decision from streams seeded by the run seed, so these probabilities
/// plus [`RunManifest::seed`] reproduce the exact kill/drop/delay schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Per-message drop probability.
    pub drop: f64,
    /// Per-message delay probability.
    pub delay: f64,
    /// Per-message duplication probability.
    pub dup: f64,
    /// Per-message reorder probability.
    pub reorder: f64,
    /// Number of ranks killed mid-run.
    pub kill: u64,
}

/// The complete determinism context of one CLI run.
///
/// Serialized by [`RunManifest::to_json`] as one JSON object with a fixed
/// field order, and parsed back by [`RunManifest::parse`]; the two
/// round-trip exactly (asserted by tests), which is what makes
/// `repro-reduce replay` trustworthy.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// Which CLI workload this was: `reduce` (selector + threaded runtime),
    /// `chaos` (fault-injected gather script), or `sum` (one operator).
    pub cmd: String,
    /// Input length.
    pub n: u64,
    /// Generator condition number (`--k`; may be infinite). `None` when
    /// the workload's generator does not take one (chaos) or the input was
    /// not generated.
    pub k: Option<f64>,
    /// Generator dynamic range in decades (`--dr`).
    pub dr: u64,
    /// The run seed — generator and fault plan both derive from it.
    /// Serialized as a decimal string (u64 does not survive f64 JSON).
    pub seed: u64,
    /// Worker count: runtime pool workers for `reduce`/`sum`, simulated
    /// ranks for `chaos`.
    pub workers: u64,
    /// Tolerance the selector ran under: `bitwise`, `abs:<v>`, `rel:<v>`.
    pub tolerance: String,
    /// Selected algorithm (abbreviation, e.g. `PR`).
    pub algorithm: String,
    /// Where the selector's cost model came from (`CostModel::source`,
    /// e.g. `BENCH_26.json@avx2`).
    pub cost_source: String,
    /// Active SIMD dispatch tier label.
    pub simd_tier: String,
    /// Relevant `REPRO_*` environment, sorted by name; only variables that
    /// were actually set are recorded.
    pub env: Vec<(String, String)>,
    /// Whether numerical telemetry was on.
    pub telemetry: bool,
    /// Telemetry sampling stride, when sampled.
    pub sample: Option<u64>,
    /// Index nudged by one ulp (`--perturb`), when set.
    pub perturb: Option<u64>,
    /// Decision-cache state for this run (`off` when the run did not
    /// consult the cache — the traced CLI paths select fresh every time).
    pub cache: String,
    /// Fault-plane parameters, for chaos runs.
    pub fault: Option<FaultSpec>,
    /// Where the input came from: `generated` (seeded generator; replay
    /// regenerates), `embedded` (bit patterns in `values_bits`), or
    /// `external` (a file too large to embed — not replayable).
    pub source: String,
    /// The exact input as f64 bit patterns, when embedded
    /// (≤ [`MAX_EMBEDDED_VALUES`] values).
    pub values_bits: Option<Vec<u64>>,
    /// Bit pattern of the run's primary result (the runtime/world sum).
    pub result_bits: Option<u64>,
    /// Bit pattern of the selector's sum, when the workload computes one
    /// separately from the primary result.
    pub selector_bits: Option<u64>,
}

impl RunManifest {
    /// A mostly-empty manifest for `cmd`; callers fill in what their
    /// workload knows.
    pub fn new(cmd: &str) -> Self {
        RunManifest {
            cmd: cmd.to_string(),
            n: 0,
            k: None,
            dr: 0,
            seed: 0,
            workers: 0,
            tolerance: "bitwise".to_string(),
            algorithm: String::new(),
            cost_source: String::new(),
            simd_tier: String::new(),
            env: Vec::new(),
            telemetry: false,
            sample: None,
            perturb: None,
            cache: "off".to_string(),
            fault: None,
            source: "generated".to_string(),
            values_bits: None,
            result_bits: None,
            selector_bits: None,
        }
    }

    /// Whether [`RunManifest::parse`]d-back state suffices to re-execute:
    /// the input is either embedded or regenerable from the seed.
    pub fn replayable(&self) -> bool {
        self.values_bits.is_some() || self.source == "generated"
    }

    /// Serialize as one JSON object (no trailing newline), fixed field
    /// order, exact round-trip encodings (see module docs).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema\":");
        push_json_string(&mut out, MANIFEST_SCHEMA);
        out.push_str(",\"cmd\":");
        push_json_string(&mut out, &self.cmd);
        let _ = write!(out, ",\"n\":{}", self.n);
        out.push_str(",\"k\":");
        match self.k {
            Some(k) => push_json_f64(&mut out, k),
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"dr\":{}", self.dr);
        let _ = write!(out, ",\"seed\":\"{}\"", self.seed);
        let _ = write!(out, ",\"workers\":{}", self.workers);
        out.push_str(",\"tolerance\":");
        push_json_string(&mut out, &self.tolerance);
        out.push_str(",\"algorithm\":");
        push_json_string(&mut out, &self.algorithm);
        out.push_str(",\"cost_source\":");
        push_json_string(&mut out, &self.cost_source);
        out.push_str(",\"simd_tier\":");
        push_json_string(&mut out, &self.simd_tier);
        out.push_str(",\"env\":{");
        for (i, (name, value)) in self.env.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            push_json_string(&mut out, value);
        }
        out.push('}');
        let _ = write!(out, ",\"telemetry\":{}", self.telemetry);
        out.push_str(",\"sample\":");
        match self.sample {
            Some(s) => {
                let _ = write!(out, "{s}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"perturb\":");
        match self.perturb {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"cache\":");
        push_json_string(&mut out, &self.cache);
        out.push_str(",\"fault\":");
        match &self.fault {
            None => out.push_str("null"),
            Some(fs) => {
                out.push_str("{\"drop\":");
                push_json_f64(&mut out, fs.drop);
                out.push_str(",\"delay\":");
                push_json_f64(&mut out, fs.delay);
                out.push_str(",\"dup\":");
                push_json_f64(&mut out, fs.dup);
                out.push_str(",\"reorder\":");
                push_json_f64(&mut out, fs.reorder);
                let _ = write!(out, ",\"kill\":{}}}", fs.kill);
            }
        }
        out.push_str(",\"source\":");
        push_json_string(&mut out, &self.source);
        out.push_str(",\"values_bits\":");
        match &self.values_bits {
            None => out.push_str("null"),
            Some(bits) => {
                out.push('[');
                for (i, b) in bits.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{b:016x}\"");
                }
                out.push(']');
            }
        }
        out.push_str(",\"result_bits\":");
        push_opt_bits(&mut out, self.result_bits);
        out.push_str(",\"selector_bits\":");
        push_opt_bits(&mut out, self.selector_bits);
        out.push('}');
        out
    }

    /// Parse a manifest back from its JSON form. Any malformed document,
    /// wrong schema marker, or ill-typed field is an error — replay treats
    /// these as schema failures (exit 2), distinct from a numerical
    /// mismatch (exit 1).
    pub fn parse(text: &str) -> Result<RunManifest, String> {
        let doc = Json::parse(text.trim()).map_err(|e| format!("manifest: {e}"))?;
        let schema = req_str(&doc, "schema")?;
        if schema != MANIFEST_SCHEMA {
            return Err(format!(
                "manifest: unsupported schema {schema:?} (expected {MANIFEST_SCHEMA:?})"
            ));
        }
        let fault = match doc.get("fault") {
            None | Some(Json::Null) => None,
            Some(fj) => Some(FaultSpec {
                drop: req_f64(fj, "drop")?,
                delay: req_f64(fj, "delay")?,
                dup: req_f64(fj, "dup")?,
                reorder: req_f64(fj, "reorder")?,
                kill: req_u64(fj, "kill")?,
            }),
        };
        let env = match doc.get("env") {
            Some(Json::Obj(map)) => map
                .iter()
                .map(|(name, value)| {
                    value
                        .as_str()
                        .map(|v| (name.clone(), v.to_string()))
                        .ok_or(format!("manifest: env {name:?} is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("manifest: missing object field \"env\"".to_string()),
        };
        let values_bits = match doc.get("values_bits") {
            None | Some(Json::Null) => None,
            Some(Json::Arr(items)) => Some(
                items
                    .iter()
                    .map(|item| {
                        item.as_str()
                            .ok_or("manifest: values_bits entry is not a string".to_string())
                            .and_then(parse_hex_bits)
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            Some(_) => return Err("manifest: values_bits must be an array or null".to_string()),
        };
        Ok(RunManifest {
            cmd: req_str(&doc, "cmd")?,
            n: req_u64(&doc, "n")?,
            k: opt_f64(&doc, "k")?,
            dr: req_u64(&doc, "dr")?,
            seed: req_str(&doc, "seed")?
                .parse()
                .map_err(|_| "manifest: seed is not a decimal u64".to_string())?,
            workers: req_u64(&doc, "workers")?,
            tolerance: req_str(&doc, "tolerance")?,
            algorithm: req_str(&doc, "algorithm")?,
            cost_source: req_str(&doc, "cost_source")?,
            simd_tier: req_str(&doc, "simd_tier")?,
            env,
            telemetry: req_bool(&doc, "telemetry")?,
            sample: opt_u64(&doc, "sample")?,
            perturb: opt_u64(&doc, "perturb")?,
            cache: req_str(&doc, "cache")?,
            fault,
            source: req_str(&doc, "source")?,
            values_bits,
            result_bits: opt_bits(&doc, "result_bits")?,
            selector_bits: opt_bits(&doc, "selector_bits")?,
        })
    }
}

fn push_opt_bits(out: &mut String, bits: Option<u64>) {
    match bits {
        Some(b) => {
            let _ = write!(out, "\"{b:016x}\"");
        }
        None => out.push_str("null"),
    }
}

fn parse_hex_bits(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|_| format!("manifest: bad bit pattern {s:?}"))
}

fn req_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(format!("manifest: missing string field {key:?}"))
}

fn req_bool(doc: &Json, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("manifest: missing bool field {key:?}")),
    }
}

fn req_u64(doc: &Json, key: &str) -> Result<u64, String> {
    let x = doc
        .get(key)
        .and_then(Json::as_num)
        .ok_or(format!("manifest: missing numeric field {key:?}"))?;
    if x < 0.0 || x.fract() != 0.0 || x > 2f64.powi(53) {
        return Err(format!(
            "manifest: {key:?} is not a small non-negative integer, got {x}"
        ));
    }
    Ok(x as u64)
}

fn opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        _ => req_u64(doc, key).map(Some),
    }
}

/// A float field that may be a plain number or one of the non-finite tags
/// the event serializer uses (`"inf"`, `"-inf"`, `"nan"`).
fn req_f64(doc: &Json, key: &str) -> Result<f64, String> {
    match doc.get(key) {
        Some(Json::Num(x)) => Ok(*x),
        Some(Json::Str(s)) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(format!("manifest: {key:?} has non-numeric value {other:?}")),
        },
        _ => Err(format!("manifest: missing numeric field {key:?}")),
    }
}

fn opt_f64(doc: &Json, key: &str) -> Result<Option<f64>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        _ => req_f64(doc, key).map(Some),
    }
}

fn opt_bits(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => parse_hex_bits(s).map(Some),
        Some(_) => Err(format!("manifest: {key:?} must be a hex string or null")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("reduce");
        m.n = 4096;
        m.k = Some(f64::INFINITY);
        m.dr = 12;
        m.seed = u64::MAX - 1; // deliberately above 2^53
        m.workers = 2;
        m.tolerance = "abs:1e-12".to_string();
        m.algorithm = "PR".to_string();
        m.cost_source = "baseline BENCH_06.json (avx2)".to_string();
        m.simd_tier = "avx2".to_string();
        m.env = vec![("REPRO_SIMD".to_string(), "avx2".to_string())];
        m.telemetry = true;
        m.sample = Some(3);
        m.perturb = Some(17);
        m.fault = Some(FaultSpec {
            drop: 0.25,
            delay: 0.1,
            dup: 0.0,
            reorder: 0.5,
            kill: 2,
        });
        m.values_bits = Some(vec![0.1f64.to_bits(), (-0.0f64).to_bits(), u64::MAX]);
        m.source = "embedded".to_string();
        m.result_bits = Some(1.5f64.to_bits());
        m.selector_bits = Some(0x0123_4567_89ab_cdef);
        m
    }

    #[test]
    fn round_trips_exactly_including_u64_extremes() {
        let m = sample();
        let json = m.to_json();
        let back = RunManifest::parse(&json).unwrap();
        assert_eq!(back, m);
        // And the serialization itself is stable.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn minimal_manifest_round_trips() {
        let m = RunManifest::new("chaos");
        let back = RunManifest::parse(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert!(back.replayable());
    }

    #[test]
    fn external_source_without_values_is_not_replayable() {
        let mut m = RunManifest::new("sum");
        m.source = "external".to_string();
        assert!(!m.replayable());
        m.values_bits = Some(vec![0]);
        assert!(m.replayable());
    }

    #[test]
    fn rejects_wrong_schema_garbage_and_bad_fields() {
        assert!(RunManifest::parse("not json").is_err());
        assert!(RunManifest::parse("{\"schema\":\"bogus-v9\"}")
            .unwrap_err()
            .contains("unsupported schema"));
        let mut m = sample();
        m.seed = 7;
        let json = m.to_json().replace("\"seed\":\"7\"", "\"seed\":7");
        assert!(
            RunManifest::parse(&json).is_err(),
            "numeric seed must be rejected"
        );
        let json = m
            .to_json()
            .replace("\"result_bits\":\"", "\"result_bits\":\"zz");
        assert!(RunManifest::parse(&json).is_err());
    }

    #[test]
    fn nonfinite_floats_round_trip_via_tags() {
        let mut m = RunManifest::new("reduce");
        m.k = Some(f64::INFINITY);
        let json = m.to_json();
        assert!(json.contains("\"k\":\"inf\""), "{json}");
        assert_eq!(RunManifest::parse(&json).unwrap().k, Some(f64::INFINITY));
    }
}

//! # `repro-cli` — the `repro-reduce` command
//!
//! A thin, dependency-free command-line front end over `repro-core`. The
//! commands, their flags and the limits on what a command may generate
//! or start are listed in [`USAGE`] (`repro-reduce help`).
//!
//! Values come from positional arguments and/or `--file` (whitespace- or
//! newline-separated floats; `-` reads stdin). All commands are pure
//! functions from arguments + input to an output string, so the entire CLI
//! is unit-testable without spawning processes.
//!
//! The `trace` family emits JSON Lines observability events (one per line)
//! followed by `#`-prefixed human summary lines; `trace check` re-parses a
//! saved trace and validates the schema contract. `trace chaos` runs a
//! deterministic communication script, so two runs with the same seed
//! produce byte-identical event streams.
//!
//! `--telemetry` adds numerical-accuracy telemetry to a trace: per-node
//! `node` events carrying the partial sum bits, the running Higham error
//! bound, and (at `--sample`d nodes) the exact ulp deviation against a
//! superaccumulator shadow. It is **off by default** — an untelemetried
//! trace is byte-identical to one from before the feature existed.
//! `--perturb I` nudges input `I` up by one ulp, the forensic scenario:
//! `trace diff` aligns two traces by plan-derived node id, reports the
//! first divergent node, and walks the divergence to its leaf-interval
//! origin (exit status 1 when the traces diverge). `report` renders the
//! metrics registry of one telemetried run as Prometheus text exposition
//! or as a self-contained zero-dependency HTML page.
//!
//! The `agg` family drives the sharded aggregation engine (`repro-agg`),
//! whose every shard is an exact superaccumulator: `loadgen` runs the
//! deterministic client swarm and prints one byte-comparable
//! `agg <name> <bits> …` line per aggregate plus a `digest <bits>` line —
//! identical for any `--shuffle`, `--shards`, or `--workers`. `serve`
//! adds snapshot/restore (`repro-agg-snapshot-v2`) and kill-point
//! control, and ends a *finished* run with the same `# manifest: {…}`
//! trailer the traced commands emit, so `replay` re-executes the
//! aggregation and verifies the digest bitwise. `agg bench` sweeps shard
//! counts and fails (exit 1) on any digest divergence; `agg check`
//! strict-parses a saved state document (exit 2 on schema violations,
//! v1 documents included).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use repro_core::obs::{FaultSpec, RunManifest};
use repro_core::prelude::*;
use repro_core::select::VerifiedReducer;
use repro_core::stats::{table::sci, Table};

/// CLI errors: user-facing messages, no panics for bad input.
///
/// `code` is the process exit status the binary maps the error to, so
/// scripts can tell *why* a command failed without parsing stderr:
/// `1` for ordinary failures and numerical divergence (`trace diff`
/// finding divergent nodes, `replay` not matching bitwise), `2` for
/// parse/schema errors (a malformed trace or manifest, an unsupported
/// schema version, an invalid environment).
#[derive(Debug, PartialEq)]
pub struct CliError {
    /// The user-facing message.
    pub msg: String,
    /// Process exit code: 1 = failure/divergence, 2 = parse/schema error.
    pub code: i32,
}

impl CliError {
    /// An ordinary failure or numerical divergence (exit code 1).
    pub fn new(msg: impl Into<String>) -> CliError {
        CliError {
            msg: msg.into(),
            code: 1,
        }
    }

    /// A parse/schema error (exit code 2).
    pub fn schema(msg: impl Into<String>) -> CliError {
        CliError {
            msg: msg.into(),
            code: 2,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError::new(msg)
}

fn err_schema(msg: impl Into<String>) -> CliError {
    CliError::schema(msg)
}

/// Validate the `REPRO_SIMD` dispatch environment: `Ok` when it resolves to
/// a runnable tier, `Err` with the structured [`repro_core::fp::simd::TierError`]
/// rendered as a user-facing message otherwise. The binary calls this before
/// dispatching any command so an invalid override is a clean startup
/// diagnostic (nonzero exit) instead of a mid-run library panic or a silent
/// fallback.
pub fn check_dispatch_env() -> Result<(), CliError> {
    repro_core::fp::simd::try_active_tier()
        .map(|_| ())
        .map_err(|e| err(e.to_string()))
}

/// Usage text.
pub const USAGE: &str = "\
repro-reduce — reproducible floating-point reductions

USAGE:
  repro-reduce sum     [--alg ST|K|N|PW|CP|DD|PR|DS] [--hex] [--file F] [VALUES...]
  repro-reduce profile [--file F] [VALUES...]
  repro-reduce select  --tolerance T [--relative|--bitwise] [--explain]
                       [--file F] [VALUES...]
  repro-reduce verify  [--tolerance T] [--bitwise] [--file F] [VALUES...]
  repro-reduce compare [--file F] [VALUES...]
  repro-reduce gen     --n N [--k K|inf] [--dr D] [--seed S]
  repro-reduce dot     --file-x FX --file-y FY [--alg ST|CP|PR]
  repro-reduce calibrate [--n N] [--perms P] [--seed S]
  repro-reduce tree    [--shape balanced|serial|random|binomial] [--alg A]
                       [--dot] [--seed S] [--file F] [VALUES...]
  repro-reduce chaos   [--ranks R] [--n N] [--dr D] [--seed S] [--drop P]
                       [--delay P] [--dup P] [--reorder P] [--kill K]
                       [--topology binomial|flat|chain]
  repro-reduce trace reduce [--n N] [--k K|inf] [--dr D] [--seed S]
                       [--tolerance T] [--bitwise] [--wall] [--telemetry]
                       [--sample N] [--perturb I] [--file F] [VALUES...]
  repro-reduce trace chaos  [--ranks R] [--n N] [--dr D] [--seed S] [--drop P]
                       [--delay P] [--dup P] [--reorder P] [--kill K]
                       [--telemetry] [--sample N] [--perturb I]
  repro-reduce trace check  --file F
  repro-reduce trace diff   A.jsonl B.jsonl
  repro-reduce report  [--format prom|html] [--n N] [--k K|inf] [--dr D]
                       [--seed S] [--sample N] [--file F] [VALUES...]
  repro-reduce bench   [--out PATH|-]
  repro-reduce simd    [--check scalar|sse2|avx2]
  repro-reduce replay  MANIFEST.json
  repro-reduce flight  [--dump DIR]
  repro-reduce agg loadgen [--aggregates A] [--clients C] [--batches B]
                       [--batch-len L] [--shards K] [--workers W]
                       [--seed S] [--shuffle X]
  repro-reduce agg serve   (loadgen flags) [--restore PATH] [--snapshot PATH]
                       [--start-at I] [--stop-at I] [--manifest PATH]
  repro-reduce agg bench   (loadgen flags; sweeps shards 1/4/16)
  repro-reduce agg check   --file F

Values come from positional args and/or --file (whitespace-separated;
'-' = stdin). trace emits JSONL events plus '#' summary lines; with the
same seed, 'trace chaos' event streams are byte-identical across runs.
--telemetry adds per-node accuracy events (partial sums, Higham bounds,
sampled exact-ulp deviations); 'trace diff' aligns two traces by node id
and walks any divergence to its leaf origin; 'report' renders the
metrics registry as Prometheus text or HTML.

sum / trace reduce / trace chaos end with a '# manifest: {...}' line
capturing the run's full determinism context (--manifest PATH also
writes it to a file); 'replay' re-executes a manifest (or the manifest
line of a saved trace) and succeeds only on bitwise-identical results.
'flight' shows the always-on flight recorder's rings and overhead
accounting; --dump writes a postmortem.jsonl. REPRO_FLIGHT=off disables
the recorder; REPRO_POSTMORTEM=DIR enables incident dumps.

'agg' drives the sharded aggregation engine, which sums every aggregate
exactly: 'loadgen' runs the seeded client swarm and prints
byte-comparable 'agg'/'digest' lines (identical for any
--shuffle/--shards/--workers); 'serve' adds snapshot/restore
(repro-agg-snapshot-v2) + kill-point control and ends finished runs with
a replayable manifest; 'agg bench' sweeps shards 1/4/16 and exits 1 on
digest divergence; 'agg check' strict-parses a saved state document
(exit 2 when invalid, v1 included).
Defaults scale with REPRO_SCALE.

Limits, checked before anything is allocated or started ('replay' exits
2 on a manifest beyond them): --n generates at least 2 and at most
134217728 (2^27) values, over a --dr of at most 560 decades, for a --k
that is a number or inf (not nan); --tolerance is 0, positive or inf
(not nan, not negative); calibrate --perms is at least 2 and at most
1048576 (2^20); --ranks
and agg --workers are at most 1024 each (one thread apiece); an agg
schedule holds at most 16777216 (2^24) batches (aggregates x clients x
batches) of at most 134217728 (2^27) values (--batch-len).

Exit codes: 0 = success; 1 = failure or numerical divergence ('trace
diff' divergent nodes, 'replay' mismatch); 2 = parse/schema error
(malformed trace or manifest, unsupported schema, invalid REPRO_SIMD).";

/// Walks `--flag [value]` arguments. Each command matches the flags it
/// accepts, one arm per flag, and reads a flag's value through
/// [`Flags::text`] or [`Flags::value`].
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    /// The argument [`Flags::next_arg`] returned last.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags {
            args: args.iter(),
            flag: "",
        }
    }

    /// The next argument: a flag, or a positional value.
    fn next_arg(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// The current flag's value.
    fn text(&mut self) -> Result<String, CliError> {
        self.args
            .next()
            .cloned()
            .ok_or_else(|| err(format!("{} needs a value", self.flag)))
    }

    /// The current flag's value, parsed.
    fn value<T: std::str::FromStr>(&mut self) -> Result<T, CliError> {
        let v = self.text()?;
        v.parse()
            .map_err(|_| err(format!("bad {}: {v:?}", self.flag)))
    }
}

/// Parsed global options shared by value-consuming commands.
#[derive(Debug, Default)]
struct Opts {
    values: Vec<f64>,
    alg: Option<String>,
    file_x: Option<String>,
    file_y: Option<String>,
    perms: u64,
    tolerance: Option<Tolerance>,
    hex: bool,
    shape: Option<String>,
    dot: bool,
    explain: bool,
    n: Option<usize>,
    k: Option<f64>,
    dr: u32,
    seed: u64,
    ranks: Option<usize>,
    drop: f64,
    delay: f64,
    dup: f64,
    reorder: f64,
    kill: usize,
    topology: Option<String>,
    wall: bool,
    telemetry: bool,
    sample: Option<u64>,
    perturb: Option<usize>,
    format: Option<String>,
    out: Option<String>,
    manifest: Option<String>,
}

fn parse_opts(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, CliError>,
) -> Result<Opts, CliError> {
    let mut o = Opts {
        seed: 2015,
        perms: 20,
        ..Default::default()
    };
    let (mut tolerance, mut relative, mut bitwise) = (None, false, false);
    let mut r = Flags::new(args);
    while let Some(a) = r.next_arg() {
        match a {
            "--alg" => o.alg = Some(r.text()?),
            "--file" => {
                let text = read_file(&r.text()?)?;
                for tok in text.split_whitespace() {
                    o.values.push(
                        tok.parse()
                            .map_err(|_| err(format!("bad value in file: {tok:?}")))?,
                    );
                }
            }
            "--tolerance" => {
                let t = r.text()?;
                tolerance = Some(spread_budget(
                    t.parse::<f64>()
                        .map_err(|_| err(format!("bad tolerance: {t:?}")))?,
                )?);
            }
            "--relative" => relative = true,
            "--bitwise" => bitwise = true,
            "--hex" => o.hex = true,
            "--shape" => o.shape = Some(r.text()?),
            "--dot" => o.dot = true,
            "--explain" => o.explain = true,
            "--n" => o.n = Some(generated_len(r.value()?)?),
            "--k" => o.k = Some(generated_k(r.value()?)?),
            "--dr" => o.dr = generated_dr(r.value()?)?,
            "--file-x" => o.file_x = Some(r.text()?),
            "--file-y" => o.file_y = Some(r.text()?),
            "--perms" => o.perms = permutation_count(r.value()?)?,
            "--seed" => o.seed = r.value()?,
            "--ranks" => o.ranks = Some(rank_count(r.value()?)?),
            "--drop" => o.drop = r.value()?,
            "--delay" => o.delay = r.value()?,
            "--dup" => o.dup = r.value()?,
            "--reorder" => o.reorder = r.value()?,
            "--kill" => o.kill = r.value()?,
            "--topology" => o.topology = Some(r.text()?),
            "--wall" => o.wall = true,
            "--telemetry" => o.telemetry = true,
            "--sample" => o.sample = Some(r.value()?),
            "--perturb" => o.perturb = Some(r.value()?),
            "--format" => o.format = Some(r.text()?),
            "--out" => o.out = Some(r.text()?),
            "--manifest" => o.manifest = Some(r.text()?),
            _ if a.starts_with("--") => return Err(err(format!("unknown option {a}"))),
            _ => o
                .values
                .push(a.parse().map_err(|_| err(format!("bad value: {a:?}")))?),
        }
    }
    // `--bitwise` wins, `--relative` applies in either order, and the last
    // `--tolerance` wins.
    o.tolerance = if bitwise {
        Some(Tolerance::Bitwise)
    } else if relative {
        tolerance.map(Tolerance::RelativeSpread)
    } else {
        tolerance.map(Tolerance::AbsoluteSpread)
    };
    Ok(o)
}

/// The most values a command generates (`--n`; the `n` of a `reduce` or
/// `chaos` manifest).
const MAX_GENERATED: u64 = 1 << 27;
/// The fewest values the generator makes: it pins the two ends of the
/// exponent window to two values.
const MIN_GENERATED: u64 = 2;
/// The widest generated dynamic range, in decades (`--dr`; the `dr` of a
/// generated `reduce` or `chaos` manifest): the generator's exponent
/// window must stay within 10^±280.
const MAX_GENERATED_DR: u64 = 560;
/// The most ranks (`--ranks`; a `chaos` manifest's `workers`) or agg
/// workers (`--workers`; an `agg` manifest's `workers`): each is a thread.
const MAX_THREADS: u64 = 1024;
/// The most batches an agg schedule holds (aggregates × clients × batches).
const MAX_AGG_BATCHES: u64 = 1 << 24;
/// The most values in one agg batch (`--batch-len`).
const MAX_BATCH_LEN: u64 = 1 << 27;
/// The most leaf permutations `calibrate` measures per cell and operator
/// (`--perms`); each worker holds one error per permutation.
const MAX_PERMS: u64 = 1 << 20;

/// `v` as a count, or an error naming `what` when it exceeds `max`. The
/// flag path reports it with exit 1; `replay` re-raises it with exit 2.
fn at_most(what: &str, v: u64, max: u64) -> Result<usize, CliError> {
    if v <= max {
        Ok(v as usize)
    } else {
        Err(err(format!("{what} {v} exceeds the limit of {max}")))
    }
}

/// The length of a generated input.
fn generated_len(n: u64) -> Result<usize, CliError> {
    if n < MIN_GENERATED {
        return Err(err(format!(
            "--n {n} is below the minimum of {MIN_GENERATED}"
        )));
    }
    at_most("--n", n, MAX_GENERATED)
}

/// The dynamic range of a generated input, in decades.
fn generated_dr(dr: u64) -> Result<u32, CliError> {
    at_most("--dr", dr, MAX_GENERATED_DR).map(|dr| dr as u32)
}

/// The condition-number target of a generated input: any number or
/// infinity (k <= 1 generates a one-signed set), but not NaN, which names
/// no target. A manifest's JSON `k` cannot spell NaN, so only the flag
/// needs this.
fn generated_k(k: f64) -> Result<f64, CliError> {
    if k.is_nan() {
        return Err(err("--k NaN is not a condition number"));
    }
    Ok(k)
}

/// A `--tolerance`: a spread, so zero, positive or infinite. NaN names no
/// budget, and no spread is negative.
fn spread_budget(t: f64) -> Result<f64, CliError> {
    if t >= 0.0 {
        Ok(t)
    } else {
        Err(err(format!(
            "--tolerance {t} is not a spread (0, positive or inf)"
        )))
    }
}

/// The permutations `calibrate` measures per cell: a spread needs two
/// results at least.
fn permutation_count(perms: u64) -> Result<u64, CliError> {
    if perms < 2 {
        return Err(err(format!("--perms {perms} is below the minimum of 2")));
    }
    at_most("--perms", perms, MAX_PERMS)?;
    Ok(perms)
}

/// The rank count of a simulated world, which starts one thread per rank.
fn rank_count(ranks: u64) -> Result<usize, CliError> {
    at_most("--ranks", ranks, MAX_THREADS)
}

/// An agg load shape: its worker threads, its schedule length (with
/// checked multiplication) and its batch length.
fn check_agg_shape(spec: &repro_core::agg::LoadSpec) -> Result<(), CliError> {
    at_most("--workers", spec.workers as u64, MAX_THREADS)?;
    let batches = [spec.aggregates, spec.clients, spec.batches]
        .iter()
        .try_fold(1u64, |acc, &x| acc.checked_mul(x as u64))
        .unwrap_or(u64::MAX);
    at_most("agg schedule (batches)", batches, MAX_AGG_BATCHES)?;
    at_most("--batch-len", spec.batch_len as u64, MAX_BATCH_LEN)?;
    Ok(())
}

fn parse_algorithm(s: &str) -> Result<Algorithm, CliError> {
    let upper = s.to_ascii_uppercase();
    Algorithm::from_abbrev(&upper).ok_or_else(|| {
        err(format!(
            "unknown algorithm {upper:?} (expected ST|K|N|PW|CP|DD|PR|DS)"
        ))
    })
}

fn need_values(o: &Opts) -> Result<&[f64], CliError> {
    if o.values.is_empty() {
        Err(err("no input values (pass numbers or --file)"))
    } else {
        Ok(&o.values)
    }
}

/// Resolve `--telemetry` / `--sample` into a sampling policy. Telemetry is
/// strictly opt-in: without `--telemetry` the config is off and the traced
/// commands stay byte-identical to their pre-telemetry output.
fn telemetry_cfg(o: &Opts) -> repro_core::obs::TelemetryConfig {
    use repro_core::obs::TelemetryConfig;
    if !o.telemetry {
        TelemetryConfig::off()
    } else {
        match o.sample {
            Some(every) => TelemetryConfig::sampled(every),
            None => TelemetryConfig::full(),
        }
    }
}

/// Apply `--perturb I`: nudge input `I` by exactly one ulp (one step in the
/// bit representation). The forensic scenario — a single least-significant
/// perturbation whose propagation `trace diff` then localizes.
fn apply_perturb(values: &mut [f64], perturb: Option<usize>) -> Result<(), CliError> {
    let Some(idx) = perturb else { return Ok(()) };
    let v = *values.get(idx).ok_or_else(|| {
        err(format!(
            "--perturb {idx} out of range (only {} values)",
            values.len()
        ))
    })?;
    values[idx] = f64::from_bits(v.to_bits() + 1);
    Ok(())
}

/// Initialize the process-global flight recorder from the environment
/// (`REPRO_FLIGHT`, `REPRO_POSTMORTEM`) and install the panic hook that
/// dumps a post-mortem when the process dies mid-reduction. The binary
/// calls this once before dispatching; it is idempotent.
pub fn init_flight_from_env() {
    let _ = repro_core::obs::flight::global();
    repro_core::obs::flight::install_panic_hook();
}

/// The `REPRO_*` environment variables that can change a run's numerics
/// or its observability envelope — the set a manifest must capture for
/// the replay contract to hold across shells.
const MANIFEST_ENV_VARS: [&str; 5] = [
    "REPRO_FLIGHT",
    "REPRO_POSTMORTEM",
    "REPRO_RUNTIME_WORKERS",
    "REPRO_SCALE",
    "REPRO_SIMD",
];

/// Capture the manifest-relevant environment: only variables that are
/// actually set, in fixed (sorted) order so the manifest is deterministic.
fn manifest_env() -> Vec<(String, String)> {
    MANIFEST_ENV_VARS
        .iter()
        .filter_map(|name| std::env::var(name).ok().map(|v| (name.to_string(), v)))
        .collect()
}

/// The active SIMD tier's label for manifest embedding. Dispatch was
/// validated at startup, so an error here degenerates to a marker rather
/// than failing the run.
fn simd_tier_label() -> String {
    repro_core::fp::simd::try_active_tier()
        .map(|t| t.label().to_string())
        .unwrap_or_else(|_| "invalid".to_string())
}

/// Start a manifest for one CLI workload with everything that is known
/// before the reduction runs: shape knobs, tolerance, environment, SIMD
/// tier, telemetry policy, and the input itself (embedded as exact bit
/// patterns when explicit and small enough, else marked generated or
/// external). `pre_perturb` must be the input *before* `--perturb` was
/// applied — replay re-applies the recorded perturbation.
fn manifest_for(cmd: &str, o: &Opts, pre_perturb: &[f64], generated: bool) -> RunManifest {
    use repro_core::obs::manifest::MAX_EMBEDDED_VALUES;
    let mut m = RunManifest::new(cmd);
    m.n = pre_perturb.len() as u64;
    m.dr = o.dr as u64;
    m.seed = o.seed;
    m.tolerance = o.tolerance.unwrap_or(Tolerance::Bitwise).to_string();
    m.simd_tier = simd_tier_label();
    m.env = manifest_env();
    m.telemetry = o.telemetry;
    m.sample = o.sample;
    m.perturb = o.perturb.map(|i| i as u64);
    if generated {
        m.source = "generated".to_string();
    } else if pre_perturb.len() <= MAX_EMBEDDED_VALUES {
        m.source = "embedded".to_string();
        m.values_bits = Some(pre_perturb.iter().map(|v| v.to_bits()).collect());
    } else {
        m.source = "external".to_string();
    }
    m
}

/// Finish a manifest-carrying command: append the `# manifest: {...}`
/// trailer (the last line of the output, so `replay` can consume a saved
/// trace directly), park the final manifest on the flight recorder for
/// post-mortem embedding, and honor `--manifest PATH`.
fn finish_with_manifest(
    mut out: String,
    manifest: &RunManifest,
    o: &Opts,
) -> Result<String, CliError> {
    let json = manifest.to_json();
    repro_core::obs::flight::global().set_manifest_json(Some(json.clone()));
    out.push_str("\n# manifest: ");
    out.push_str(&json);
    if let Some(path) = &o.manifest {
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| err(format!("writing {path}: {e}")))?;
    }
    Ok(out)
}

/// Run one command; `read_file` abstracts the filesystem for testability.
pub fn run(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, CliError>,
) -> Result<String, CliError> {
    let (cmd, rest) = args.split_first().ok_or_else(|| err(USAGE))?;
    // These families read their own flags: `trace check` takes --file as
    // trace text, `simd` a tier name, `replay` a manifest path, `flight`
    // --dump DIR, and `agg` counts. The rest share [`parse_opts`].
    match cmd.as_str() {
        "trace" => run_trace(rest, read_file),
        "simd" => run_simd(rest),
        "replay" => run_replay(rest, read_file),
        "flight" => run_flight(rest),
        "agg" => run_agg(rest, read_file),
        _ => run_values(cmd, &parse_opts(rest, read_file)?, read_file),
    }
}

/// The commands that read [`Opts`]: values, generator shape and chaos knobs.
fn run_values(
    cmd: &str,
    o: &Opts,
    read_file: &dyn Fn(&str) -> Result<String, CliError>,
) -> Result<String, CliError> {
    match cmd {
        "sum" => {
            let values = need_values(o)?;
            let alg = parse_algorithm(o.alg.as_deref().unwrap_or("PR"))?;
            let result = alg.sum(values);
            let rendered = if o.hex {
                repro_core::fp::format_hex(result)
            } else {
                format!("{result:.17e}")
            };
            let mut manifest = manifest_for("sum", o, values, false);
            manifest.workers = 1;
            manifest.algorithm = alg.abbrev().to_string();
            manifest.result_bits = Some(result.to_bits());
            finish_with_manifest(
                format!(
                    "{rendered}\n# algorithm: {alg} ({})\n# exact error: {}",
                    alg.name(),
                    sci(repro_core::fp::abs_error(result, values)),
                ),
                &manifest,
                o,
            )
        }
        "profile" => {
            let values = need_values(o)?;
            let p = repro_core::select::profile(values);
            let m = repro_core::gen::measure(values);
            let mut t = Table::new(&["quantity", "estimated (1 pass)", "exact"]);
            t.row(&["n".into(), p.n.to_string(), m.n.to_string()]);
            t.row(&["condition number k".into(), sci(p.k), sci(m.k)]);
            t.row(&[
                "dynamic range (decades)".into(),
                p.dr_decades().to_string(),
                m.dr.to_string(),
            ]);
            t.row(&["Σ|x|".into(), sci(p.abs_sum), sci(m.abs_sum)]);
            t.row(&["Σx".into(), sci(p.sum_estimate), sci(m.sum)]);
            let mut rec = Table::new(&["tolerance", "recommended operator"]);
            for r in repro_core::select::recommendations(values) {
                rec.row(&[format!("{:?}", r.tolerance), r.algorithm.to_string()]);
            }
            Ok(format!(
                "{}\nrecommendations:\n{}",
                t.render(),
                rec.render()
            ))
        }
        "select" => {
            let values = need_values(o)?;
            let tol = o
                .tolerance
                .ok_or_else(|| err("--tolerance (or --bitwise) is required"))?;
            let reducer = AdaptiveReducer::heuristic(tol);
            let out = reducer.reduce(values);
            let mut text = format!(
                "{:.17e}\n# selected: {} ({})\n# profile: n = {}, k ≈ {}, dr ≈ {} decades",
                out.sum,
                out.algorithm,
                out.algorithm.name(),
                out.profile.n,
                sci(out.profile.k),
                out.profile.dr_decades(),
            );
            if o.explain {
                text.push('\n');
                text.push_str(&repro_core::select::explain(&out.profile, tol).render());
            }
            Ok(text)
        }
        "verify" => {
            let values = need_values(o)?;
            let reducer = VerifiedReducer::new(o.tolerance.unwrap_or(Tolerance::Bitwise), o.seed);
            let out = reducer
                .reduce(values)
                .ok_or_else(|| err("no algorithm on the ladder satisfied the tolerance"))?;
            let ladder = out
                .disagreements
                .iter()
                .map(|(a, d)| format!("{}: disagreement {}", a.abbrev(), sci(*d)))
                .collect::<Vec<_>>()
                .join("\n# ");
            Ok(format!(
                "{:.17e}\n# accepted: {}\n# {}",
                out.sum, out.algorithm, ladder
            ))
        }
        "compare" => {
            let values = need_values(o)?;
            let exact = repro_core::fp::exact_sum_acc(values);
            let mut t = Table::new(&["algorithm", "result", "|error| vs exact", "reproducible"]);
            for alg in Algorithm::ALL {
                let r = alg.sum(values);
                t.row(&[
                    alg.to_string(),
                    format!("{r:+.17e}"),
                    sci(repro_core::fp::abs_error_vs(&exact, r)),
                    if alg.is_reproducible() {
                        "bitwise".into()
                    } else {
                        "no".into()
                    },
                ]);
            }
            t.row(&[
                "exact".into(),
                format!("{:+.17e}", exact.to_f64()),
                "0".into(),
                "—".into(),
            ]);
            Ok(t.render())
        }
        "gen" => {
            let n = o.n.ok_or_else(|| err("gen requires --n"))?;
            let k = o.k.unwrap_or(1.0);
            let values = repro_core::gen::grid_cell(n, k, o.dr, o.seed, 1e16);
            let mut out = String::with_capacity(values.len() * 24);
            for v in &values {
                out.push_str(&format!("{v:e}\n"));
            }
            out.pop();
            Ok(out)
        }
        "dot" => {
            let parse_vec = |path: &Option<String>, flag: &str| -> Result<Vec<f64>, CliError> {
                let path = path
                    .as_ref()
                    .ok_or_else(|| err(format!("dot requires {flag}")))?;
                read_file(path)?
                    .split_whitespace()
                    .map(|t| {
                        t.parse()
                            .map_err(|_| err(format!("bad value {t:?} in {path}")))
                    })
                    .collect()
            };
            let x = parse_vec(&o.file_x, "--file-x")?;
            let y = parse_vec(&o.file_y, "--file-y")?;
            if x.len() != y.len() {
                return Err(err(format!("length mismatch: {} vs {}", x.len(), y.len())));
            }
            use repro_core::sum::{dot2, dot_exact, dot_reproducible, dot_standard};
            let result = match o
                .alg
                .as_deref()
                .unwrap_or("PR")
                .to_ascii_uppercase()
                .as_str()
            {
                "ST" => dot_standard(&x, &y),
                "CP" => dot2(&x, &y),
                "PR" => dot_reproducible(&x, &y, 3),
                other => return Err(err(format!("dot supports ST|CP|PR, got {other:?}"))),
            };
            Ok(format!(
                "{result:.17e}\n# exact error: {}",
                sci((result - dot_exact(&x, &y)).abs())
            ))
        }
        "tree" => {
            let values = need_values(o)?;
            let shape = match o.shape.as_deref().unwrap_or("balanced") {
                "balanced" => repro_core::tree::TreeShape::Balanced,
                "serial" => repro_core::tree::TreeShape::Serial,
                "random" => repro_core::tree::TreeShape::Random { seed: o.seed },
                "binomial" => repro_core::tree::TreeShape::Binomial,
                other => {
                    return Err(err(format!(
                        "unknown shape {other:?} (expected balanced|serial|random|binomial)"
                    )))
                }
            };
            let tree = repro_core::tree::ReductionTree::build(shape, values.len());
            if o.dot {
                return Ok(tree.render_dot(values));
            }
            let (root, residuals) = tree.error_attribution(values);
            let total = repro_core::fp::exact_sum(&residuals);
            let mut out = tree.render(values);
            out.push_str(&format!(
                "\n# result: {root:.17e}\n# total rounding error: {}\n# worst nodes:",
                sci(total.abs()),
            ));
            for (id, e) in tree.worst_nodes(values, 3) {
                out.push_str(&format!("\n#   node {id}: {}", sci(e)));
            }
            Ok(out)
        }
        "calibrate" => {
            let cfg = repro_core::select::CalibrationConfig {
                n: o.n.unwrap_or(4096),
                permutations: o.perms,
                seed: o.seed,
                ..Default::default()
            };
            let table = repro_core::select::calibrate(&cfg);
            Ok(table.to_csv())
        }
        "chaos" => run_chaos(o),
        "report" => run_report(o),
        "bench" => run_bench(o),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(err(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

/// `chaos`: run a fault-injected distributed reduction and check that the
/// healed result is bitwise identical to a sequential reference over the
/// survivor set, then demo the checkpoint-resumable engine on the same data.
fn run_chaos(o: &Opts) -> Result<String, CliError> {
    use repro_core::mpisim::{ft_reduce_sum, ReduceConfig, ReduceTopology, World};
    use repro_core::runtime::CheckpointStore;

    let ranks = o.ranks.unwrap_or(8);
    let n = o.n.unwrap_or(4096);
    let topo_name = o.topology.as_deref().unwrap_or("binomial");
    let topology = match topo_name {
        "binomial" => ReduceTopology::Binomial,
        "flat" => ReduceTopology::FlatArrival,
        "chain" => ReduceTopology::Chain,
        other => {
            return Err(err(format!(
                "unknown topology {other:?} (expected binomial|flat|chain)"
            )))
        }
    };
    let cfg = ReduceConfig::validated(topology, 0, 0).map_err(|e| err(e.0))?;
    let plan = fault_plan(o, ranks)?;

    let values = repro_core::gen::zero_sum_with_range(n, o.dr, o.seed);
    let per = n.div_ceil(ranks.max(1));
    let chunk = |rank: usize| -> &[f64] { &values[(rank * per).min(n)..((rank + 1) * per).min(n)] };

    let report = World::run_report(ranks, &plan, |comm| {
        ft_reduce_sum(comm, chunk(comm.rank()), Algorithm::PR, 0, &cfg)
    })
    .map_err(|e| err(e.0))?;

    let outcome = match &report.results[0] {
        Ok(out) => out,
        Err(e) => {
            return Err(err(format!(
                "root rank failed: {e}\n# report: {}",
                report.summary()
            )))
        }
    };
    let sum = outcome
        .value
        .ok_or_else(|| err("root rank returned no value"))?;

    let check = survivor_check(sum, outcome.survivors.iter().map(|&r| chunk(r)));

    // Checkpoint-resumable engine demo on the same data: chunk 0 fails its
    // first attempt, the engine retries it and heals the plan.
    let rt = Runtime::new(2);
    let rplan = ReductionPlan::with_chunk_count(values.len(), ranks.max(2));
    let mut store = CheckpointStore::for_plan(&rplan);
    let fail_once = |c: usize, attempt: u32| c == 0 && attempt == 0;
    let (_, stats) = rt
        .accumulate_resumable(
            &values,
            &rplan,
            || BinnedSum::new(3),
            &mut store,
            Some(&fail_once),
        )
        .map_err(|e| err(e.to_string()))?;

    Ok(format!(
        "{sum:.17e}\n\
         # survivors: {:?} (rounds={})\n\
         # report: {}\n\
         # survivor reference (PR fold=3): {check}\n\
         # checkpoint demo: retries={} heals={} checkpoint_restores={}\n\
         # replay: repro-reduce chaos --ranks {ranks} --n {n} --dr {} --seed {} \
         --drop {} --delay {} --dup {} --reorder {} --kill {} --topology {topo_name}",
        outcome.survivors,
        outcome.rounds,
        report.summary(),
        stats.retries,
        stats.heals,
        stats.checkpoint_restores,
        o.dr,
        o.seed,
        o.drop,
        o.delay,
        o.dup,
        o.reorder,
        o.kill,
    ))
}

/// The fault plan both chaos commands run: the flags' fault probabilities,
/// and the K highest ranks (never the root) killed a few ops in — early
/// enough that a single collective observes the failure and heals around
/// it.
fn fault_plan(o: &Opts, ranks: usize) -> Result<repro_core::mpisim::FaultPlan, CliError> {
    let mut plan = repro_core::mpisim::FaultPlan::new(o.seed)
        .with_drop(o.drop)
        .with_delay(o.delay, 1_500)
        .with_duplicate(o.dup)
        .with_reorder(o.reorder)
        .with_timeouts(std::time::Duration::from_millis(10), 2);
    for i in 0..o.kill.min(ranks.saturating_sub(1)) {
        plan = plan.with_kill(ranks - 1 - i, 3 + i as u64);
    }
    plan.validate().map_err(|e| err(e.0))?;
    Ok(plan)
}

/// Compare a healed distributed sum with a sequential PR pass over the
/// survivors' chunks. PR is bitwise reproducible under any deposit order
/// and merge tree, so the two must match exactly.
fn survivor_check<'v>(sum: f64, survivors: impl Iterator<Item = &'v [f64]>) -> String {
    let mut reference = BinnedSum::new(3);
    for chunk in survivors {
        reference.add_slice(chunk);
    }
    let reference = reference.finalize();
    if reference.to_bits() == sum.to_bits() {
        "OK (bitwise)".to_string()
    } else {
        format!("FAIL (reference {reference:.17e})")
    }
}

/// `trace`: the observability family. Dispatches to a subcommand; each one
/// emits JSON Lines events followed by `#`-prefixed human summary lines.
fn run_trace(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, CliError>,
) -> Result<String, CliError> {
    let (sub, rest) = args
        .split_first()
        .ok_or_else(|| err("trace needs a subcommand: reduce|chaos|check|diff"))?;
    match sub.as_str() {
        "reduce" => run_trace_reduce(&parse_opts(rest, read_file)?),
        "chaos" => run_trace_chaos(&parse_opts(rest, read_file)?),
        "check" => run_trace_check(rest, read_file),
        "diff" => run_trace_diff(rest, read_file),
        other => Err(err(format!(
            "unknown trace subcommand {other:?} (expected reduce|chaos|check|diff)"
        ))),
    }
}

/// `trace reduce`: run the selector and the threaded runtime over one input
/// with tracing on. The selector contributes a `decision` record in the
/// `select` subsystem; the runtime contributes plan-derived `chunk_exec` /
/// `merge` spans in the `runtime` subsystem (identical for any worker
/// count); execution facts land in the metrics registry, rendered as `#`
/// comment lines so the JSONL stream stays deterministic.
fn run_trace_reduce(o: &Opts) -> Result<String, CliError> {
    let (out, manifest) = trace_reduce_with_manifest(o)?;
    finish_with_manifest(out, &manifest, o)
}

/// The input values, or, when none were given, `grid_cell` data from
/// `--n` (default 4096), `--k`, `--dr` and `--seed`. The flag says
/// whether the values were generated.
fn input_or_generated(o: &Opts) -> (Vec<f64>, bool) {
    if o.values.is_empty() {
        let n = o.n.unwrap_or(4096);
        let k = o.k.unwrap_or(1.0);
        (repro_core::gen::grid_cell(n, k, o.dr, o.seed, 1e16), true)
    } else {
        (o.values.clone(), false)
    }
}

/// The `trace reduce` workload proper, returning the rendered trace (sans
/// manifest trailer) alongside the completed [`RunManifest`] — `replay`
/// re-runs this and compares manifests instead of scraping output text.
fn trace_reduce_with_manifest(o: &Opts) -> Result<(String, RunManifest), CliError> {
    use repro_core::obs::{render_jsonl, Registry, Trace};

    let (mut values, generated) = input_or_generated(o);
    let mut manifest = manifest_for("reduce", o, &values, generated);
    manifest.workers = 2;
    if generated {
        manifest.k = Some(o.k.unwrap_or(1.0));
    }
    // Park the provisional manifest before any numeric work: a post-mortem
    // from a mid-reduction death must still say what run was in flight.
    repro_core::obs::flight::global().set_manifest_json(Some(manifest.to_json()));
    apply_perturb(&mut values, o.perturb)?;
    let tol = o.tolerance.unwrap_or(Tolerance::Bitwise);
    let telemetry = telemetry_cfg(o);

    let (trace, sink) = Trace::to_memory();
    let trace = trace.with_wall_clock(o.wall);
    let registry = Registry::new();

    let mut select_scope = trace.scope("select");
    let reducer = AdaptiveReducer::heuristic(tol);
    // With telemetry on, the selector also measures the realized spread of
    // its choice and records it beside the prediction (calibration drift).
    let outcome = if telemetry.enabled() {
        reducer.reduce_telemetry(&values, &mut select_scope, Some(&registry))
    } else {
        reducer.reduce_traced(&values, &mut select_scope)
    };

    // Test hook for the post-mortem contract: die between selection and
    // the runtime reduction, exactly where a real crash loses the most
    // context — the subprocess test asserts the dump still explains us.
    if std::env::var("REPRO_FLIGHT_TEST_PANIC").as_deref() == Ok("reduce") {
        panic!("injected mid-reduction panic (REPRO_FLIGHT_TEST_PANIC=reduce)");
    }

    let mut runtime_scope = trace.scope("runtime");
    let rt = Runtime::new(2);
    let plan = ReductionPlan::for_len(values.len());
    let (sum, stats) = rt.reduce_telemetry(
        &values,
        &plan,
        || BinnedSum::new(3),
        &mut runtime_scope,
        telemetry,
        Some(&registry),
    );

    stats.publish(&registry, "runtime");

    manifest.algorithm = outcome.algorithm.abbrev().to_string();
    manifest.cost_source = repro_core::select::CostModel::default()
        .source()
        .to_string();
    manifest.selector_bits = Some(outcome.sum.to_bits());
    manifest.result_bits = Some(sum.to_bits());

    let mut out = render_jsonl(&sink.drain());
    out.push_str(&format!(
        "# trace reduce: n={} selected={} selector sum={:.17e} PR sum={:.17e}\n",
        values.len(),
        outcome.algorithm,
        outcome.sum,
        sum,
    ));
    for line in registry.snapshot().render().lines() {
        out.push_str("# metric ");
        out.push_str(line);
        out.push('\n');
    }
    out.pop();
    Ok((out, manifest))
}

/// `trace chaos`: a fault-injected distributed gather whose event stream is
/// a pure function of the seed. Unlike the `chaos` command's fault-tolerant
/// collective (whose retry/round structure depends on thread timing), this
/// runs a fixed communication script: every non-root rank sends its chunk
/// as [`SEGMENTS`] PR-checkpoint strings on predetermined tags, and the root
/// polls every (rank, segment) slot with directed timed receives in a fixed
/// order, dropping a rank wholesale on its first timeout. All fault draws
/// come from per-rank seeded streams, so two runs with the same seed yield
/// byte-identical JSONL (and PR merging keeps the healed sum bitwise equal
/// to a sequential reference over the survivor set).
fn run_trace_chaos(o: &Opts) -> Result<String, CliError> {
    let (out, manifest) = trace_chaos_with_manifest(o)?;
    finish_with_manifest(out, &manifest, o)
}

/// The `trace chaos` workload proper; see [`trace_reduce_with_manifest`]
/// for the split's rationale.
fn trace_chaos_with_manifest(o: &Opts) -> Result<(String, RunManifest), CliError> {
    use repro_core::mpisim::{FaultError, World};
    use repro_core::obs::{f, render_jsonl, Trace};

    const SEGMENTS: usize = 4;

    let ranks = o.ranks.unwrap_or(6);
    let n = o.n.unwrap_or(2048);
    let telemetry = telemetry_cfg(o);
    let plan = fault_plan(o, ranks)?;

    let mut values = repro_core::gen::zero_sum_with_range(n, o.dr, o.seed);
    let mut manifest = manifest_for("chaos", o, &values, true);
    manifest.workers = ranks as u64;
    manifest.algorithm = "PR".to_string();
    manifest.fault = Some(FaultSpec {
        drop: o.drop,
        delay: o.delay,
        dup: o.dup,
        reorder: o.reorder,
        kill: o.kill as u64,
    });
    // Parked before the world runs: a fault-plane kill triggers an
    // incident dump that must name this run.
    repro_core::obs::flight::global().set_manifest_json(Some(manifest.to_json()));
    apply_perturb(&mut values, o.perturb)?;
    let values = values;
    let per = n.div_ceil(ranks.max(1));
    let chunk = |rank: usize| -> &[f64] { &values[(rank * per).min(n)..((rank + 1) * per).min(n)] };
    let tag = |rank: usize, seg: usize| ((rank as u64) << 8) | seg as u64;

    let (report, events) = World::run_report_traced(ranks, &plan, true, |comm| {
        let rank = comm.rank();
        let mine = chunk(rank);
        if rank == 0 {
            let mut merged = BinnedSum::new(3);
            merged.add_slice(mine);
            if telemetry.enabled() {
                // The root's own chunk is its leaf in the gather tree.
                chaos_node_event(comm, telemetry, 1, "leaf.r0", 0, merged.finalize(), &[mine]);
            }
            let mut survivors = vec![0usize];
            for src in 1..comm.size() {
                let mut partials = Vec::with_capacity(SEGMENTS);
                for seg in 0..SEGMENTS {
                    match comm.recv_timeout::<String>(src, tag(src, seg)) {
                        Ok(cp) => match BinnedSum::restore(&cp) {
                            Some(p) => partials.push(p),
                            None => {
                                partials.clear();
                                break;
                            }
                        },
                        Err(FaultError::Timeout { .. }) => {
                            // A dead or lossy rank: skip its remaining
                            // segments rather than paying the timeout
                            // budget three more times.
                            partials.clear();
                            break;
                        }
                        Err(e) => return Err(e),
                    }
                }
                if partials.len() == SEGMENTS {
                    for p in &partials {
                        merged.merge(p);
                    }
                    survivors.push(src);
                }
            }
            let sum = merged.finalize();
            if telemetry.enabled() {
                // The merged gather result over the survivor set — ordinal 0
                // so the root is always exact-sampled when sampling is on.
                let parts: Vec<&[f64]> = survivors.iter().map(|&r| chunk(r)).collect();
                chaos_node_event(comm, telemetry, 0, "root", 0, sum, &parts);
            }
            comm.trace_event(
                "gather_done",
                vec![
                    f("survivors", format!("{survivors:?}")),
                    f("sum_bits", format!("{:016x}", sum.to_bits())),
                ],
            );
            Ok((sum, survivors))
        } else {
            let seg_len = mine.len().div_ceil(SEGMENTS).max(1);
            for seg in 0..SEGMENTS {
                let lo = (seg * seg_len).min(mine.len());
                let hi = ((seg + 1) * seg_len).min(mine.len());
                let mut part = BinnedSum::new(3);
                part.add_slice(&mine[lo..hi]);
                if telemetry.enabled() {
                    chaos_node_event(
                        comm,
                        telemetry,
                        (rank * SEGMENTS + seg) as u64 + 1,
                        &format!("leaf.r{rank}.s{seg}"),
                        rank * per + lo,
                        part.finalize(),
                        &[&mine[lo..hi]],
                    );
                }
                comm.try_send(0, tag(rank, seg), part.checkpoint())?;
            }
            Ok((0.0, Vec::new()))
        }
    })
    .map_err(|e| err(e.0))?;

    let (sum, survivors) = match &report.results[0] {
        Ok(v) => v.clone(),
        Err(e) => return Err(err(format!("root rank failed: {e}"))),
    };

    let check = survivor_check(sum, survivors.iter().map(|&r| chunk(r)));

    // One selector decision record per traced run: profile the full input
    // and record what the selector would do for a bitwise budget.
    let (trace, sink) = Trace::to_memory();
    let mut select_scope = trace.scope("select");
    let profile = repro_core::select::profile_parallel(&values);
    let explanation = repro_core::select::explain(&profile, Tolerance::Bitwise);
    repro_core::select::record_decision(&mut select_scope, &profile, &explanation);
    let select_events = sink.drain();
    let total_events = select_events.len() + events.len();

    let mut out = render_jsonl(&select_events);
    out.push_str(&render_jsonl(&events));
    out.push_str(&format!(
        "# trace chaos: ranks={ranks} n={n} seed={} events={total_events}\n\
         # ranks: completed={} failed={}\n\
         # survivors: {survivors:?}\n\
         # sum: {sum:.17e}\n\
         # survivor reference (PR fold=3): {check}\n\
         # replay: repro-reduce trace chaos --ranks {ranks} --n {n} --dr {} --seed {} \
         --drop {} --delay {} --dup {} --reorder {} --kill {}",
        o.seed,
        report.completed,
        report.failed,
        o.dr,
        o.seed,
        o.drop,
        o.delay,
        o.dup,
        o.reorder,
        o.kill,
    ));
    if o.telemetry {
        out.push_str(" --telemetry");
        if let Some(every) = o.sample {
            out.push_str(&format!(" --sample {every}"));
        }
    }
    if let Some(idx) = o.perturb {
        out.push_str(&format!(" --perturb {idx}"));
    }
    manifest.cost_source = explanation.cost_source.clone();
    manifest.result_bits = Some(sum.to_bits());
    Ok((out, manifest))
}

/// Emit one numerical-telemetry `node` event from the chaos gather script:
/// partial-sum bits, Higham bound over the node's elements, and — when the
/// node's ordinal is exact-sampled — the ulp deviation against a
/// superaccumulator shadow. Node ids (`leaf.r{rank}.s{seg}`, `leaf.r0`,
/// `root`) derive from the fixed gather plan, never from timing, so
/// `trace diff` can align them across runs with different fault draws.
fn chaos_node_event(
    comm: &mut repro_core::mpisim::Comm,
    telemetry: repro_core::obs::TelemetryConfig,
    ordinal: u64,
    node: &str,
    start: usize,
    partial: f64,
    parts: &[&[f64]],
) {
    use repro_core::obs::f;
    let mut exact = Superaccumulator::new();
    let mut abs = Superaccumulator::new();
    let mut n = 0usize;
    for part in parts {
        exact.add_slice_pair(&mut abs, part);
        n += part.len();
    }
    let mut fields = vec![
        f("node", node.to_string()),
        f("start", start as u64),
        f("len", n as u64),
        f("sum_bits", format!("{:016x}", partial.to_bits())),
        f("bound", repro_core::fp::higham_bound(n, abs.to_f64())),
    ];
    if telemetry.sample_exact(ordinal) {
        let shadow = exact.to_f64();
        fields.push(f("ulps", repro_core::fp::ulp_distance(partial, shadow)));
        fields.push(f("exact_bits", format!("{:016x}", shadow.to_bits())));
    }
    comm.trace_event("node", fields);
}

/// `trace diff`: align two saved traces by plan-derived node id (never by
/// sequence position), report the first numerically divergent node, and
/// walk the divergence to its leaf-interval origin. A clean diff returns
/// `Ok` (exit 0); any divergence or alignment gap returns the same report
/// as an error (exit 1), so CI can gate on it directly.
fn run_trace_diff(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, CliError>,
) -> Result<String, CliError> {
    let mut paths = Vec::new();
    for a in args {
        if a.starts_with("--") {
            return Err(err(format!(
                "trace diff takes two trace files, got option {a}"
            )));
        }
        paths.push(a.clone());
    }
    if paths.len() != 2 {
        return Err(err(format!(
            "trace diff requires exactly two trace files, got {}",
            paths.len()
        )));
    }
    let a = read_file(&paths[0])?;
    let b = read_file(&paths[1])?;
    // Parse/schema failures exit 2; numerical divergence exits 1 — CI can
    // distinguish "the traces disagree" from "I couldn't read the traces".
    let report = repro_core::obs::forensics::diff_traces(&a, &b)
        .map_err(|e| err_schema(format!("trace diff: {e}")))?;
    let rendered = report.render();
    if report.is_clean() {
        Ok(rendered)
    } else {
        // A divergence is an incident: flush the flight rings so the
        // post-mortem (when configured) carries the forensic context.
        repro_core::obs::flight::incident("trace.diff.divergence");
        Err(err(rendered))
    }
}

/// `simd`: report the runtime SIMD dispatch decision. With no arguments,
/// prints the active tier, where the decision came from (`REPRO_SIMD`
/// override or CPU feature detection), and every tier this CPU supports.
/// `--check <tier>` answers through the exit status — the CI matrix probes
/// it before exporting `REPRO_SIMD=<tier>`, so an unavailable tier is
/// skipped loudly instead of silently exercising the fallback.
fn run_simd(rest: &[String]) -> Result<String, CliError> {
    use repro_core::fp::simd;
    match rest {
        [] => {
            // Surface an invalid REPRO_SIMD as a diagnostic + nonzero exit,
            // not the silent library fallback (and never a panic).
            let active = simd::try_active_tier().map_err(|e| err(e.to_string()))?;
            let tiers: Vec<&str> = simd::supported_tiers().iter().map(|t| t.label()).collect();
            Ok(format!(
                "active: {}\nsource: {}\nsupported: {}",
                active.label(),
                simd::dispatch_source(),
                tiers.join(" "),
            ))
        }
        [flag, tier] if flag == "--check" => {
            let t = simd::SimdTier::parse(tier)
                .ok_or_else(|| err(format!("--check {tier:?}: expected scalar|sse2|avx2")))?;
            if simd::tier_supported(t) {
                Ok(format!("{} supported", t.label()))
            } else {
                Err(err(format!("{} not supported on this CPU", t.label())))
            }
        }
        _ => Err(err("usage: repro-reduce simd [--check scalar|sse2|avx2]")),
    }
}

/// `bench`: run the tracked throughput harness (`repro_bench::throughput`)
/// at the current `REPRO_SCALE` and write the fixed-schema `BENCH_*.json`
/// document — the repo's perf trajectory, one comparable point per PR.
/// `--out -` prints the JSON (plus `#` summary lines) instead of writing;
/// the default target is `BENCH_22.json` in the working directory.
fn run_bench(o: &Opts) -> Result<String, CliError> {
    use repro_bench::throughput;
    let entries = throughput::run_suite();
    let json = throughput::render_json(&entries);
    let ratio = throughput::batched_over_scalar_ratio(&entries)
        .ok_or_else(|| err("bench suite missing superaccumulator entries"))?;
    let summary = format!(
        "# {} ops at scale {:?}, n = {}, seed = {}, rev = {}\n\
         # batched/scalar superaccumulator throughput ratio: {ratio:.2}x",
        entries.len(),
        repro_bench::scale(),
        entries.first().map(|e| e.n).unwrap_or(0),
        entries.first().map(|e| e.seed).unwrap_or(0),
        entries.first().map(|e| e.git_rev.as_str()).unwrap_or("?"),
    );
    let out = o.out.as_deref().unwrap_or("BENCH_22.json");
    if out == "-" {
        Ok(format!("{json}{summary}"))
    } else {
        std::fs::write(out, &json).map_err(|e| err(format!("writing {out}: {e}")))?;
        Ok(format!("# wrote {out}\n{summary}"))
    }
}

/// `report`: run one telemetried workload (selector + threaded runtime over
/// a generated or given input) and render the resulting metrics registry —
/// node counts, the ulp-deviation histogram, predicted vs realized selector
/// spread — as Prometheus text exposition or as a self-contained
/// zero-dependency HTML page with the per-node error trajectory.
fn run_report(o: &Opts) -> Result<String, CliError> {
    use repro_core::obs::{forensics, render_jsonl, report, Registry, TelemetryConfig, Trace};

    let (values, _) = input_or_generated(o);
    // A report without node telemetry would be empty, so the sampling
    // policy defaults to full instead of off here.
    let telemetry = match o.sample {
        Some(every) => TelemetryConfig::sampled(every),
        None => TelemetryConfig::full(),
    };

    let (trace, sink) = Trace::to_memory();
    let registry = Registry::new();

    let mut select_scope = trace.scope("select");
    let reducer = AdaptiveReducer::heuristic(o.tolerance.unwrap_or(Tolerance::Bitwise));
    let outcome = reducer.reduce_telemetry(&values, &mut select_scope, Some(&registry));

    let mut runtime_scope = trace.scope("runtime");
    let rt = Runtime::new(2);
    // Eight-way chunking (rather than the default single chunk at these
    // sizes) so the error trajectory shows a real merge tree.
    let plan = ReductionPlan::with_chunk_count(values.len(), 8);
    let (_, stats) = rt.reduce_telemetry(
        &values,
        &plan,
        || BinnedSum::new(3),
        &mut runtime_scope,
        telemetry,
        Some(&registry),
    );
    stats.publish(&registry, "runtime");

    let text = render_jsonl(&sink.drain());
    let nodes = forensics::collect_nodes(&text).map_err(|e| err(format!("report: {e}")))?;
    let snap = registry.snapshot();
    match o.format.as_deref().unwrap_or("prom") {
        "prom" => Ok(report::render_prometheus(&snap)),
        "html" => Ok(report::render_html(
            &format!(
                "repro-reduce report — n={} seed={} selected={}",
                values.len(),
                o.seed,
                outcome.algorithm,
            ),
            &snap,
            &nodes,
        )),
        other => Err(err(format!(
            "unknown report format {other:?} (expected prom|html)"
        ))),
    }
}

/// `trace check`: re-parse a saved trace and enforce the schema contract
/// (JSON object per line, string `sub`/`kind`, strictly increasing `seq`
/// per subsystem; `#` comments and blank lines ignored).
fn run_trace_check(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, CliError>,
) -> Result<String, CliError> {
    let mut file = None;
    let mut r = Flags::new(args);
    while let Some(a) = r.next_arg() {
        match a {
            "--file" => file = Some(r.text()?),
            other => return Err(err(format!("trace check takes only --file, got {other:?}"))),
        }
    }
    let path = file.ok_or_else(|| err("trace check requires --file"))?;
    let text = read_file(&path)?;
    let summary = repro_core::obs::validate_trace(&text)
        .map_err(|e| err_schema(format!("invalid trace: {e}")))?;
    Ok(format!(
        "# trace OK: events={} subsystems={:?} dropped={}",
        summary.events, summary.subsystems, summary.dropped
    ))
}

/// Pull the manifest JSON out of what `replay` was handed: either a bare
/// manifest file (one JSON object) or a saved trace whose last
/// `# manifest: ` trailer carries it.
fn extract_manifest_json(text: &str) -> Option<&str> {
    let trimmed = text.trim();
    if trimmed.starts_with('{') && !trimmed.contains('\n') {
        return Some(trimmed);
    }
    trimmed
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("# manifest: "))
}

/// `replay`: re-execute the run a manifest describes and compare results
/// bitwise. A manifest that cannot be parsed, has an unsupported schema,
/// or is not replayable exits 2; a bitwise mismatch — the replay contract
/// broken — exits 1; only exact bit-for-bit agreement exits 0.
fn run_replay(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, CliError>,
) -> Result<String, CliError> {
    let [path] = args else {
        return Err(err("usage: repro-reduce replay MANIFEST.json"));
    };
    let text = read_file(path)?;
    let json = extract_manifest_json(&text)
        .ok_or_else(|| err_schema(format!("replay: no manifest found in {path}")))?;
    let stored = RunManifest::parse(json).map_err(|e| err_schema(format!("replay: {e}")))?;
    if !stored.replayable() {
        return Err(err_schema(format!(
            "replay: manifest source {:?} is not replayable (input neither embedded nor generated)",
            stored.source
        )));
    }

    let fresh = replay_execute(&stored)?;

    let mut mismatches = Vec::new();
    let mut check_bits = |what: &str, recorded: Option<u64>, replayed: Option<u64>| {
        if let (Some(a), Some(b)) = (recorded, replayed) {
            if a != b {
                mismatches.push(format!("{what}: recorded {a:016x} replayed {b:016x}"));
            }
        }
    };
    check_bits("result_bits", stored.result_bits, fresh.result_bits);
    check_bits("selector_bits", stored.selector_bits, fresh.selector_bits);
    if !stored.algorithm.is_empty() && stored.algorithm != fresh.algorithm {
        mismatches.push(format!(
            "algorithm: recorded {} replayed {}",
            stored.algorithm, fresh.algorithm
        ));
    }
    if !mismatches.is_empty() {
        repro_core::obs::flight::incident("replay.divergence");
        return Err(err(format!(
            "replay DIVERGED: cmd={} n={} seed={}\n  {}",
            stored.cmd,
            stored.n,
            stored.seed,
            mismatches.join("\n  "),
        )));
    }
    let bits = stored.result_bits.unwrap_or(0);
    Ok(format!(
        "replay OK (bitwise): cmd={} n={} seed={} algorithm={} result_bits={bits:016x}\n\
         # manifest simd_tier={} current={}",
        stored.cmd,
        stored.n,
        stored.seed,
        fresh.algorithm,
        stored.simd_tier,
        simd_tier_label(),
    ))
}

/// Re-execute the workload a manifest describes and return the freshly
/// completed manifest (carrying the recomputed result bits).
fn replay_execute(m: &RunManifest) -> Result<RunManifest, CliError> {
    // A bad field or a size past the flag path's limits: exit 2.
    fn malformed(e: impl std::fmt::Display) -> CliError {
        err_schema(format!("replay: {e}"))
    }
    let tolerance = m.tolerance.parse::<Tolerance>().map_err(malformed)?;
    let mut o = Opts {
        seed: m.seed,
        tolerance: Some(tolerance),
        telemetry: m.telemetry,
        sample: m.sample,
        perturb: m.perturb.map(|i| i as usize),
        ..Default::default()
    };
    if let Some(bits) = &m.values_bits {
        o.values = bits.iter().map(|&b| f64::from_bits(b)).collect();
    }
    match m.cmd.as_str() {
        "reduce" => {
            // Embedded values were never generated.
            if o.values.is_empty() {
                o.n = Some(generated_len(m.n).map_err(malformed)?);
                o.dr = generated_dr(m.dr).map_err(malformed)?;
            }
            o.k = m.k;
            trace_reduce_with_manifest(&o).map(|(_, manifest)| manifest)
        }
        "chaos" => {
            o.n = Some(generated_len(m.n).map_err(malformed)?);
            o.dr = generated_dr(m.dr).map_err(malformed)?;
            let ranks = rank_count(m.workers).map_err(malformed)?;
            o.ranks = Some(ranks);
            if let Some(fault) = &m.fault {
                o.drop = fault.drop;
                o.delay = fault.delay;
                o.dup = fault.dup;
                o.reorder = fault.reorder;
                o.kill = fault.kill as usize;
            }
            // A fault rate outside [0, 1] is a malformed field too.
            fault_plan(&o, ranks).map_err(malformed)?;
            trace_chaos_with_manifest(&o).map(|(_, manifest)| manifest)
        }
        "sum" => {
            if o.values.is_empty() {
                return Err(err_schema("replay: sum manifest has no embedded values"));
            }
            let alg = parse_algorithm(&m.algorithm).map_err(malformed)?;
            let mut fresh = m.clone();
            fresh.result_bits = Some(alg.sum(&o.values).to_bits());
            Ok(fresh)
        }
        // `agg serve` manifests reuse the generic numeric slots (see
        // `agg_manifest`): dr = aggregates, k = clients, perturb =
        // batches, sample = batch_len. Shards and arrival shuffle are
        // deliberately NOT recorded — the digest is invariant to both, so
        // replaying with the defaults is a *stronger* check than
        // repeating the recorded topology.
        "agg" => {
            use repro_core::agg::{loadgen, AggConfig, AggEngine, LoadSpec};
            let spec = LoadSpec {
                aggregates: m.dr as usize,
                clients: m.k.unwrap_or(0.0) as usize,
                batches: m.perturb.unwrap_or(0) as usize,
                batch_len: m.sample.unwrap_or(0) as usize,
                seed: m.seed,
                shuffle: 0,
                workers: (m.workers as usize).max(1),
            };
            check_agg_shape(&spec).map_err(malformed)?;
            if spec.total_updates() == 0 || spec.total_updates() != m.n {
                return Err(err_schema(format!(
                    "replay: agg manifest shape mismatch (n={} vs aggregates*clients*batches*batch_len={})",
                    m.n,
                    spec.total_updates(),
                )));
            }
            let engine = AggEngine::new(AggConfig::default());
            loadgen::run(&engine, &spec, 0, None);
            let mut fresh = m.clone();
            fresh.result_bits = Some(engine.digest_bits());
            Ok(fresh)
        }
        other => Err(err_schema(format!(
            "replay: unknown manifest cmd {other:?}"
        ))),
    }
}

/// `flight`: show the process-global flight recorder — enabled state, ring
/// capacity, per-subsystem retained/dropped/recorded counts, and the
/// `obs.overhead.*` self-accounting. `--dump DIR` additionally writes a
/// `postmortem.jsonl` there, the same document an incident would produce.
fn run_flight(args: &[String]) -> Result<String, CliError> {
    use repro_core::obs::flight;
    let mut dump_dir = None;
    let mut r = Flags::new(args);
    while let Some(a) = r.next_arg() {
        match a {
            "--dump" => dump_dir = Some(r.text()?),
            other => return Err(err(format!("flight takes only --dump DIR, got {other:?}"))),
        }
    }
    let rec = flight::global();
    let ring = rec.ring();
    let mut out = format!(
        "# flight recorder: enabled={} capacity={} dumps={}",
        rec.enabled(),
        ring.capacity(),
        rec.dumps_written(),
    );
    for snap in ring.snapshot() {
        out.push_str(&format!(
            "\n# ring {}: retained={} dropped={} recorded={}",
            snap.sub,
            snap.events.len(),
            snap.dropped,
            snap.recorded,
        ));
    }
    let registry = repro_core::obs::Registry::new();
    rec.account(&registry);
    for line in registry.snapshot().render().lines() {
        out.push_str("\n# metric ");
        out.push_str(line);
    }
    if let Some(dir) = dump_dir {
        rec.set_dump_dir(Some(std::path::PathBuf::from(&dir)));
        match rec.dump("cli.flight.dump") {
            Some(path) => out.push_str(&format!("\n# wrote {}", path.display())),
            None => out.push_str("\n# no dump written (recorder disabled)"),
        }
    }
    Ok(out)
}

/// Parsed options for the `agg` family (counts, not floats, so it does
/// not share [`Opts`]).
struct AggOpts {
    spec: repro_core::agg::LoadSpec,
    shards: usize,
    restore: Option<String>,
    snapshot: Option<String>,
    start_at: usize,
    stop_at: Option<usize>,
    manifest: Option<String>,
    file: Option<String>,
}

/// `agg` workload defaults at the current `REPRO_SCALE`:
/// `(aggregates, clients, batches, batch_len)`. The default scale is the
/// headline configuration — thousands of clients, millions of updates —
/// sized so `agg bench` still finishes in seconds.
fn agg_scale_defaults() -> (usize, usize, usize, usize) {
    match repro_bench::scale() {
        repro_bench::Scale::Quick => (2, 64, 4, 64),
        repro_bench::Scale::Default => (4, 1024, 8, 256),
        repro_bench::Scale::Full => (8, 4096, 16, 256),
    }
}

fn parse_agg_opts(args: &[String]) -> Result<AggOpts, CliError> {
    let (aggregates, clients, batches, batch_len) = agg_scale_defaults();
    let mut o = AggOpts {
        spec: repro_core::agg::LoadSpec {
            aggregates,
            clients,
            batches,
            batch_len,
            seed: 2015,
            shuffle: 1,
            workers: 4,
        },
        shards: 4,
        restore: None,
        snapshot: None,
        start_at: 0,
        stop_at: None,
        manifest: None,
        file: None,
    };
    let mut r = Flags::new(args);
    while let Some(a) = r.next_arg() {
        match a {
            "--aggregates" => o.spec.aggregates = r.value()?,
            "--clients" => o.spec.clients = r.value()?,
            "--batches" => o.spec.batches = r.value()?,
            "--batch-len" => o.spec.batch_len = r.value()?,
            "--shards" => o.shards = r.value()?,
            "--workers" => o.spec.workers = r.value()?,
            "--seed" => o.spec.seed = r.value()?,
            "--shuffle" => o.spec.shuffle = r.value()?,
            "--restore" => o.restore = Some(r.text()?),
            "--snapshot" => o.snapshot = Some(r.text()?),
            "--start-at" => o.start_at = r.value()?,
            "--stop-at" => o.stop_at = Some(r.value()?),
            "--manifest" => o.manifest = Some(r.text()?),
            "--file" => o.file = Some(r.text()?),
            other => return Err(err(format!("unknown agg option {other:?}"))),
        }
    }
    if o.spec.aggregates == 0 || o.shards == 0 {
        return Err(err("agg needs --aggregates >= 1 and --shards >= 1"));
    }
    check_agg_shape(&o.spec)?;
    Ok(o)
}

/// The byte-comparable half of `agg` output: one line per aggregate
/// (name order) plus the engine digest. CI smoke gates diff exactly
/// these lines (everything not starting with `#`) across shuffles,
/// shard counts, and kill/restore splits.
fn render_agg_lines(engine: &repro_core::agg::AggEngine) -> String {
    let mut out = String::new();
    for agg in engine.aggregates() {
        let bits = agg.finalize_bits();
        out.push_str(&format!(
            "agg {} {bits:016x} {:.17e} updates={}\n",
            agg.name(),
            f64::from_bits(bits),
            agg.updates(),
        ));
    }
    out.push_str(&format!("digest {:016x}", engine.digest_bits()));
    out
}

/// Start a manifest for an `agg serve` run. The generic numeric slots
/// carry the load shape — `dr` = aggregates, `k` = clients, `perturb` =
/// batches, `sample` = batch_len, `n` = total updates — and shards /
/// shuffle are intentionally omitted: the digest is invariant to both,
/// so `replay` re-runs with defaults and must still match bitwise.
fn agg_manifest(spec: &repro_core::agg::LoadSpec, result_bits: u64) -> RunManifest {
    let mut m = RunManifest::new("agg");
    m.n = spec.total_updates();
    m.k = Some(spec.clients as f64);
    m.dr = spec.aggregates as u64;
    m.seed = spec.seed;
    m.workers = spec.workers as u64;
    m.sample = Some(spec.batch_len as u64);
    m.perturb = Some(spec.batches as u64);
    m.tolerance = "bitwise".to_string();
    m.simd_tier = simd_tier_label();
    m.env = manifest_env();
    m.source = "generated".to_string();
    m.result_bits = Some(result_bits);
    m
}

/// `agg loadgen` / `agg serve`: drain the seeded client swarm into a
/// fresh (or `--restore`d) engine, print the comparable `agg`/`digest`
/// lines plus `#` throughput stats, optionally `--snapshot` the final
/// state, and — for `serve` runs that completed the schedule — append
/// the replayable `# manifest:` trailer.
fn run_agg_load(
    o: &AggOpts,
    serve: bool,
    read_file: &dyn Fn(&str) -> Result<String, CliError>,
) -> Result<String, CliError> {
    use repro_core::agg::{loadgen, AggConfig, AggEngine};
    let config = AggConfig { shards: o.shards };
    let engine = match &o.restore {
        Some(path) => AggEngine::restore(&read_file(path)?, config)
            .map_err(|e| err_schema(format!("agg serve --restore {path}: {e}")))?,
        None => AggEngine::new(config),
    };
    let spec = &o.spec;
    let started = std::time::Instant::now();
    let deposited = loadgen::run(&engine, spec, o.start_at, o.stop_at);
    let elapsed = started.elapsed().as_secs_f64();
    if let Some(path) = &o.snapshot {
        std::fs::write(path, engine.serialize())
            .map_err(|e| err(format!("writing {path}: {e}")))?;
    }
    let rate = if elapsed > 0.0 {
        deposited as f64 / elapsed
    } else {
        f64::INFINITY
    };
    let mut out = render_agg_lines(&engine);
    out.push_str(&format!(
        "\n# agg: aggregates={} clients={} batches={} batch_len={} shards={} workers={} seed={} shuffle={}",
        spec.aggregates,
        spec.clients,
        spec.batches,
        spec.batch_len,
        o.shards,
        spec.workers,
        spec.seed,
        spec.shuffle,
    ));
    out.push_str(&format!(
        "\n# deposited {deposited} updates in {elapsed:.3}s ({rate:.0} updates/sec)"
    ));
    if let Some(path) = &o.snapshot {
        out.push_str(&format!("\n# snapshot: wrote {path}"));
    }
    if !serve {
        return Ok(out);
    }
    // Only a *finished* schedule gets a manifest: a partial run's digest
    // is not what a fresh replay of the full workload would produce.
    let finished = o.stop_at.map_or(true, |stop| stop >= spec.total_batches());
    if !finished {
        out.push_str(&format!(
            "\n# partial run (stopped at event {} of {}): no manifest",
            o.stop_at.unwrap_or(0),
            spec.total_batches(),
        ));
        return Ok(out);
    }
    let manifest = agg_manifest(spec, engine.digest_bits());
    let carrier = Opts {
        manifest: o.manifest.clone(),
        ..Default::default()
    };
    finish_with_manifest(out, &manifest, &carrier)
}

/// `agg bench`: run the identical workload at shard counts 1, 4, and 16,
/// report per-configuration throughput, and fail (exit 1) unless every
/// configuration finalizes to bit-identical digests — the engine's
/// headline claim, measured and enforced in one command.
fn run_agg_bench(o: &AggOpts) -> Result<String, CliError> {
    use repro_core::agg::{loadgen, AggConfig, AggEngine};
    let mut out = String::new();
    let mut digests: Vec<(usize, u64)> = Vec::new();
    let mut last: Option<AggEngine> = None;
    for shards in [1usize, 4, 16] {
        let engine = AggEngine::new(AggConfig { shards });
        let started = std::time::Instant::now();
        let deposited = loadgen::run(&engine, &o.spec, 0, None);
        let elapsed = started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            deposited as f64 / elapsed
        } else {
            f64::INFINITY
        };
        out.push_str(&format!(
            "# shards={shards}: {deposited} updates in {elapsed:.3}s ({rate:.0} updates/sec)\n"
        ));
        digests.push((shards, engine.digest_bits()));
        last = Some(engine);
    }
    let base = digests[0].1;
    if let Some(&(shards, bits)) = digests.iter().find(|&&(_, bits)| bits != base) {
        repro_core::obs::flight::incident("agg.bench.divergence");
        return Err(err(format!(
            "agg bench DIVERGED: shards=1 digest {base:016x} but shards={shards} digest {bits:016x}"
        )));
    }
    let engine = last.expect("three configurations ran");
    Ok(format!("{}{}", out, render_agg_lines(&engine)))
}

/// `agg check`: strict-parse a saved `repro-agg-snapshot-v2` (or a single
/// `repro-agg-state-v2` document) and summarize it. Any malformed,
/// truncated, or unknown-schema input exits 2 — the same contract as
/// `trace check` and `replay`.
fn run_agg_check(
    o: &AggOpts,
    read_file: &dyn Fn(&str) -> Result<String, CliError>,
) -> Result<String, CliError> {
    use repro_core::agg::{
        document_lines, parse_aggregate, parse_snapshot, ParsedAggregate, STATE_SCHEMA,
    };
    let path = o
        .file
        .as_ref()
        .ok_or_else(|| err("agg check requires --file"))?;
    let text = read_file(path)?;
    let invalid = |e| err_schema(format!("invalid agg state: {e}"));
    let parsed: Vec<ParsedAggregate> = if text.starts_with(STATE_SCHEMA) {
        let mut lines = document_lines(&text).map_err(invalid)?;
        let one = parse_aggregate(&mut lines).map_err(invalid)?;
        if lines.next().is_some() {
            return Err(err_schema(
                "invalid agg state: trailing lines after end marker",
            ));
        }
        vec![one]
    } else {
        parse_snapshot(&text).map_err(invalid)?
    };
    let updates: u64 = parsed.iter().map(|a| a.updates).sum();
    let mut out = format!(
        "# agg state OK: aggregates={} updates={updates}",
        parsed.len()
    );
    for a in &parsed {
        out.push_str(&format!(
            "\n# {} shards={} updates={} batches={}",
            a.name,
            a.shards.len(),
            a.updates,
            a.batches,
        ));
    }
    Ok(out)
}

/// Dispatch the `agg` subcommands.
fn run_agg(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, CliError>,
) -> Result<String, CliError> {
    let (sub, rest) = args
        .split_first()
        .ok_or_else(|| err("usage: repro-reduce agg loadgen|serve|bench|check ..."))?;
    let o = parse_agg_opts(rest)?;
    match sub.as_str() {
        "loadgen" => {
            if o.restore.is_some()
                || o.snapshot.is_some()
                || o.start_at != 0
                || o.stop_at.is_some()
                || o.manifest.is_some()
            {
                return Err(err("agg loadgen does not checkpoint; use agg serve for \
                     --restore/--snapshot/--start-at/--stop-at/--manifest"));
            }
            run_agg_load(&o, false, read_file)
        }
        "serve" => run_agg_load(&o, true, read_file),
        "bench" => run_agg_bench(&o),
        "check" => run_agg_check(&o, read_file),
        other => Err(err(format!(
            "unknown agg subcommand {other:?} (expected loadgen|serve|bench|check)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_fs(_: &str) -> Result<String, CliError> {
        Err(err("no filesystem in tests"))
    }

    fn run_cmd(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&args, &no_fs)
    }

    #[test]
    fn bench_emits_schema_entries_and_summary() {
        std::env::set_var("REPRO_SCALE", "quick");
        let out = run_cmd(&["bench", "--out", "-"]).unwrap();
        assert!(
            out.contains("\"schema\": \"repro-bench-throughput-v1\""),
            "{out}"
        );
        for op in [
            "superacc/scalar",
            "superacc/batched",
            "simd/scalar",
            "select/profile",
        ] {
            assert!(out.contains(op), "missing {op} in {out}");
        }
        assert!(out.contains("# batched/scalar superaccumulator"), "{out}");
        // The document half parses as JSON on its own.
        let json: String = out.lines().take_while(|l| !l.starts_with('#')).collect();
        assert!(repro_core::obs::Json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn bench_covers_one_simd_op_per_supported_tier() {
        std::env::set_var("REPRO_SCALE", "quick");
        let out = run_cmd(&["bench", "--out", "-"]).unwrap();
        for tier in repro_core::fp::simd::supported_tiers() {
            let op = format!("simd/{}", tier.label());
            assert!(out.contains(&op), "missing {op} in {out}");
        }
    }

    #[test]
    fn simd_reports_dispatch_and_supported_tiers() {
        let out = run_cmd(&["simd"]).unwrap();
        assert!(out.contains("active: "), "{out}");
        assert!(out.contains("source: "), "{out}");
        assert!(out.contains("supported: scalar"), "{out}");
    }

    #[test]
    fn simd_check_answers_by_exit_status() {
        // scalar is supported everywhere; an unknown tier is a usage error.
        assert!(run_cmd(&["simd", "--check", "scalar"]).is_ok());
        assert!(run_cmd(&["simd", "--check", "mmx"]).is_err());
        assert!(run_cmd(&["simd", "--bogus"]).is_err());
        for tier in ["sse2", "avx2"] {
            let got = run_cmd(&["simd", "--check", tier]);
            let supported = repro_core::fp::simd::SimdTier::parse(tier)
                .map(repro_core::fp::simd::tier_supported)
                .unwrap_or(false);
            assert_eq!(got.is_ok(), supported, "tier {tier}");
        }
    }

    /// The byte-comparable half of agg output (everything not `#`).
    fn agg_lines(out: &str) -> Vec<&str> {
        out.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .collect()
    }

    const AGG_SMALL: &[&str] = &[
        "--aggregates",
        "2",
        "--clients",
        "12",
        "--batches",
        "3",
        "--batch-len",
        "32",
    ];

    fn agg_cmd(prefix: &[&str], extra: &[&str]) -> Vec<String> {
        prefix
            .iter()
            .chain(AGG_SMALL)
            .chain(extra)
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn agg_loadgen_lines_are_invariant_to_shuffle_shards_workers() {
        let base = run(&agg_cmd(&["agg", "loadgen"], &[]), &no_fs).unwrap();
        assert_eq!(agg_lines(&base).len(), 3, "{base}"); // 2 aggregates + digest
        assert!(base.contains("updates/sec"), "{base}");
        for extra in [
            ["--shuffle", "99", "--shards", "1", "--workers", "1"],
            ["--shuffle", "7", "--shards", "16", "--workers", "8"],
        ] {
            let out = run(&agg_cmd(&["agg", "loadgen"], &extra), &no_fs).unwrap();
            assert_eq!(agg_lines(&out), agg_lines(&base), "extra: {extra:?}");
        }
        // A different payload seed is a genuinely different workload.
        let other = run(&agg_cmd(&["agg", "loadgen"], &["--seed", "3"]), &no_fs).unwrap();
        assert_ne!(agg_lines(&other), agg_lines(&base));
    }

    #[test]
    fn agg_serve_restore_resume_matches_uninterrupted_run() {
        use repro_core::agg::{loadgen, AggConfig, AggEngine, LoadSpec};
        let spec = LoadSpec {
            aggregates: 2,
            clients: 12,
            batches: 3,
            batch_len: 32,
            seed: 2015,
            shuffle: 1,
            workers: 4,
        };
        // First half via the library, "killed" into a snapshot string...
        let first = AggEngine::new(AggConfig::default());
        loadgen::run(&first, &spec, 0, Some(spec.total_batches() / 2));
        let snapshot = first.serialize();
        let fs = move |path: &str| {
            if path == "snap" {
                Ok(snapshot.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        // ...resumed through the CLI from the kill point.
        let cut = (spec.total_batches() / 2).to_string();
        let resumed = run(
            &agg_cmd(
                &["agg", "serve"],
                &["--restore", "snap", "--start-at", &cut],
            ),
            &fs,
        )
        .unwrap();
        let full = run(&agg_cmd(&["agg", "serve"], &[]), &no_fs).unwrap();
        assert_eq!(agg_lines(&resumed), agg_lines(&full));
        assert!(resumed.contains("# manifest: "), "{resumed}");
    }

    #[test]
    fn agg_serve_partial_run_emits_no_manifest() {
        let out = run(&agg_cmd(&["agg", "serve"], &["--stop-at", "5"]), &no_fs).unwrap();
        assert!(out.contains("# partial run"), "{out}");
        assert!(!out.contains("# manifest: "), "{out}");
    }

    #[test]
    fn agg_replay_round_trips_a_serve_manifest() {
        let served = run(&agg_cmd(&["agg", "serve"], &["--workers", "2"]), &no_fs).unwrap();
        let fs = move |path: &str| {
            if path == "run.out" {
                Ok(served.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        let out = run(&["replay".to_string(), "run.out".to_string()], &fs).unwrap();
        assert!(out.starts_with("replay OK (bitwise): cmd=agg"), "{out}");
    }

    #[test]
    fn agg_bench_sweeps_shards_and_agrees_bitwise() {
        let out = run(&agg_cmd(&["agg", "bench"], &[]), &no_fs).unwrap();
        for shards in ["# shards=1:", "# shards=4:", "# shards=16:"] {
            assert!(out.contains(shards), "missing {shards} in {out}");
        }
        assert!(agg_lines(&out).last().unwrap().starts_with("digest "));
    }

    #[test]
    fn agg_check_accepts_real_state_and_rejects_garbage_with_exit_2() {
        use repro_core::agg::{AggConfig, AggEngine};
        let engine = AggEngine::new(AggConfig::default());
        engine
            .declare("demo", &[1.0, 2.0])
            .ingest(0, &[1.0, 2.0, 3.0]);
        let good = engine.serialize();
        let truncated: String = good.lines().take(2).collect::<Vec<_>>().join("\n");
        let v1 = good.replacen("-v2 ", "-v1 ", 1);
        // A single state document is checked on its own too.
        let doc = engine.get("demo").unwrap().serialize();
        let doc_unterminated = doc.trim_end().to_string();
        let doc_trailing = format!("{doc}end\n");
        let fs = move |path: &str| match path {
            "good" => Ok(good.clone()),
            "doc" => Ok(doc.clone()),
            "doc_unterminated" => Ok(doc_unterminated.clone()),
            "doc_trailing" => Ok(doc_trailing.clone()),
            "trunc" => Ok(truncated.clone()),
            "garbage" => Ok("repro-agg-snapshot-v9 aggregates=1".to_string()),
            "v1" => Ok(v1.clone()),
            // Hostile header counts: rejected, never used to size an
            // allocation.
            "aggregates" => Ok(format!("repro-agg-snapshot-v2 aggregates={}\n", u64::MAX)),
            "shards" => Ok("repro-agg-snapshot-v2 aggregates=1\n\
                 repro-agg-state-v2 name=a shards=4000000000000 updates=0 batches=0\n"
                .to_string()),
            _ => Err(err("unknown file")),
        };
        let args = |f: &str| {
            vec![
                "agg".to_string(),
                "check".to_string(),
                "--file".into(),
                f.into(),
            ]
        };
        let ok = run(&args("good"), &fs).unwrap();
        assert!(ok.contains("agg state OK: aggregates=1 updates=3"), "{ok}");
        let one = run(&args("doc"), &fs).unwrap();
        assert!(one.contains("# demo shards=4 updates=3 batches=1"), "{one}");
        for bad in [
            "trunc",
            "garbage",
            "v1",
            "aggregates",
            "shards",
            "doc_unterminated",
            "doc_trailing",
        ] {
            let e = run(&args(bad), &fs).unwrap_err();
            assert_eq!(e.code, 2, "{bad}: {}", e.msg);
        }
    }

    #[test]
    fn agg_loadgen_rejects_serve_only_flags() {
        let e = run(&agg_cmd(&["agg", "loadgen"], &["--stop-at", "3"]), &no_fs).unwrap_err();
        assert!(e.msg.contains("agg serve"), "{}", e.msg);
        let e = run_cmd(&["agg", "frobnicate"]).unwrap_err();
        assert!(e.msg.contains("unknown agg subcommand"), "{}", e.msg);
    }

    #[test]
    fn sum_defaults_to_pr() {
        let out = run_cmd(&["sum", "1e16", "1", "-1e16"]).unwrap();
        assert!(out.starts_with("1.0"), "{out}");
        assert!(out.contains("PR(fold=3)"));
    }

    #[test]
    fn sum_hex_output_round_trips() {
        let out = run_cmd(&["sum", "--hex", "--alg", "CP", "0.1", "0.2"]).unwrap();
        let first = out.lines().next().unwrap();
        let parsed = repro_core::fp::parse_hex(first).unwrap();
        assert_eq!(parsed.to_bits(), (0.1f64 + 0.2f64).to_bits());
    }

    #[test]
    fn sum_with_explicit_algorithm() {
        let out = run_cmd(&["sum", "--alg", "ST", "1e16", "1", "-1e16"]).unwrap();
        assert!(out.starts_with("0"), "{out}");
        assert!(out.contains("exact error: 1.000e0"));
    }

    #[test]
    fn profile_reports_k_dr_and_recommendations() {
        let out = run_cmd(&["profile", "3.14e4", "1.59e-4", "-3.14e4", "-1.59e-4"]).unwrap();
        assert!(out.contains("inf"), "{out}");
        assert!(out.contains('8'), "{out}");
        assert!(out.contains("recommendations"), "{out}");
        assert!(out.contains("Bitwise"), "{out}");
    }

    #[test]
    fn select_escalates_on_hostile_input() {
        let values = ["3.14e8", "1.59e-8", "-3.14e8", "-1.59e-8"];
        let mut args = vec!["select", "--tolerance", "1e-30"];
        args.extend_from_slice(&values);
        let out = run_cmd(&args).unwrap();
        // Escalated to the exact rung, whose result is the exact sum.
        assert!(out.contains("# selected: DS"), "{out}");
        let sum: f64 = out.lines().next().unwrap().parse().unwrap();
        let values: Vec<f64> = values.iter().map(|v| v.parse().unwrap()).collect();
        assert_eq!(
            sum.to_bits(),
            repro_core::fp::exact_sum(&values).to_bits(),
            "{out}"
        );
    }

    #[test]
    fn ds_sums_overflowing_and_infinite_inputs_like_ieee() {
        // The exact sum of [1, inf] is inf, and [1, 1e308, 1e308] rounds
        // past f64::MAX to inf.
        for values in [["1", "inf"].as_slice(), &["1", "1e308", "1e308"]] {
            let mut args = vec!["sum", "--alg", "DS"];
            args.extend_from_slice(values);
            let out = run_cmd(&args).unwrap();
            assert_eq!(out.lines().next(), Some("inf"), "{values:?}: {out}");
        }
    }

    #[test]
    fn verify_defaults_to_bitwise_and_reports_ladder() {
        let out = run_cmd(&["verify", "1.0", "2.0", "3.0"]).unwrap();
        assert!(out.contains("accepted: ST"), "{out}");
    }

    #[test]
    fn compare_lists_every_algorithm_and_exact() {
        let out = run_cmd(&["compare", "0.1", "0.2", "0.3"]).unwrap();
        for label in ["ST", "K", "CP", "PR(fold=3)", "DS", "exact"] {
            assert!(out.contains(label), "missing {label} in:\n{out}");
        }
    }

    #[test]
    fn gen_emits_n_parseable_values_with_target_properties() {
        let out = run_cmd(&[
            "gen", "--n", "100", "--k", "inf", "--dr", "8", "--seed", "7",
        ])
        .unwrap();
        let values: Vec<f64> = out.lines().map(|l| l.parse().unwrap()).collect();
        assert_eq!(values.len(), 100);
        let m = repro_core::gen::measure(&values);
        assert_eq!(m.sum, 0.0);
    }

    #[test]
    fn gen_pipes_into_sum() {
        let data = run_cmd(&["gen", "--n", "50", "--k", "1000", "--dr", "4"]).unwrap();
        let fs = move |path: &str| {
            if path == "pipe" {
                Ok(data.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        let args: Vec<String> = ["sum", "--file", "pipe"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = run(&args, &fs).unwrap();
        assert!(out.contains("algorithm"), "{out}");
    }

    #[test]
    fn dot_command_reads_two_files() {
        let fs = |path: &str| match path {
            "x" => Ok("1 2 3".to_string()),
            "y" => Ok("4 5 6".to_string()),
            _ => Err(err("nope")),
        };
        let args: Vec<String> = ["dot", "--file-x", "x", "--file-y", "y", "--alg", "PR"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = run(&args, &fs).unwrap();
        assert!(out.starts_with("3.2"), "{out}"); // 4+10+18 = 32
        assert!(out.contains("exact error: 0"));
    }

    #[test]
    fn calibrate_emits_parseable_csv() {
        let out = run_cmd(&["calibrate", "--n", "128", "--perms", "4"]).unwrap();
        let table = repro_core::select::CalibrationTable::from_csv(&out).expect("parse");
        assert!(!table.cells.is_empty());
        assert_eq!(table.n, 128);
    }

    #[test]
    fn select_explains_its_decision_on_request() {
        let out = run_cmd(&[
            "select",
            "--tolerance",
            "1e-30",
            "--explain",
            "3.14e8",
            "1.59e-8",
            "-3.14e8",
            "-1.59e-8",
        ])
        .unwrap();
        assert!(out.contains("CHOSEN"), "{out}");
        assert!(out.contains("exceeds budget"), "{out}");
        assert!(out.contains("budget (absolute spread)"), "{out}");
    }

    #[test]
    fn tree_renders_ascii_with_attribution() {
        let out = run_cmd(&["tree", "--shape", "serial", "1e16", "1", "-1e16"]).unwrap();
        assert!(out.contains("total rounding error: 1.000e0"), "{out}");
        assert!(out.contains("worst nodes"), "{out}");
        // Balanced shape on the same data commutes the loss to a different node
        // but the CLI still reports it.
        let out = run_cmd(&["tree", "--shape", "balanced", "1", "1e16", "-1e16"]).unwrap();
        assert!(out.contains("result:"), "{out}");
    }

    #[test]
    fn tree_emits_graphviz_dot() {
        let out = run_cmd(&["tree", "--dot", "0.1", "0.2", "0.3"]).unwrap();
        assert!(out.starts_with("digraph"), "{out}");
        assert!(out.contains("->"), "{out}");
    }

    #[test]
    fn tree_rejects_unknown_shape() {
        assert!(run_cmd(&["tree", "--shape", "mobius", "1", "2"]).is_err());
    }

    #[test]
    fn chaos_clean_run_is_bitwise_ok() {
        let out = run_cmd(&["chaos", "--ranks", "6", "--n", "512", "--seed", "42"]).unwrap();
        assert!(out.contains("OK (bitwise)"), "{out}");
        assert!(out.contains("completed=6 failed=0"), "{out}");
        assert!(out.contains("(rounds=1)"), "{out}");
        assert!(out.contains("replay: repro-reduce chaos"), "{out}");
    }

    #[test]
    fn chaos_heals_around_kills_and_stays_bitwise() {
        let out = run_cmd(&[
            "chaos",
            "--ranks",
            "6",
            "--n",
            "512",
            "--seed",
            "7",
            "--kill",
            "1",
            "--drop",
            "0.05",
            "--topology",
            "chain",
        ])
        .unwrap();
        assert!(out.contains("OK (bitwise)"), "{out}");
        assert!(out.contains("failed=1"), "{out}");
        // The checkpoint demo always injects one chunk failure.
        assert!(
            out.contains("checkpoint demo: retries=1 heals=1 checkpoint_restores=0"),
            "{out}"
        );
    }

    #[test]
    fn chaos_replay_is_deterministic() {
        let args = [
            "chaos", "--ranks", "5", "--n", "256", "--seed", "11", "--drop", "0.2",
        ];
        let a = run_cmd(&args).unwrap();
        let b = run_cmd(&args).unwrap();
        let head = |s: &str| -> String {
            s.lines()
                .filter(|l| !l.contains("report:")) // retry counts are timing-dependent
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(head(&a), head(&b));
    }

    #[test]
    fn chaos_rejects_bad_knobs() {
        assert!(run_cmd(&["chaos", "--topology", "mesh"]).is_err());
        assert!(run_cmd(&["chaos", "--drop", "1.5"]).is_err());
        assert!(run_cmd(&["chaos", "--ranks", "0"]).is_err());
    }

    /// JSONL event lines only — the deterministic part of a trace.
    fn event_lines(out: &str) -> Vec<&str> {
        out.lines().filter(|l| !l.starts_with('#')).collect()
    }

    #[test]
    fn trace_reduce_emits_decision_and_runtime_spans() {
        let out = run_cmd(&["trace", "reduce", "--n", "512", "--dr", "8", "--seed", "3"]).unwrap();
        let summary = repro_core::obs::validate_trace(&out).expect("schema");
        assert_eq!(summary.subsystems, vec!["runtime", "select"]);
        let events = event_lines(&out);
        assert!(
            events.iter().any(|l| l.contains("\"kind\":\"decision\"")),
            "{out}"
        );
        assert!(
            events.iter().any(|l| l.contains("\"kind\":\"reduce_end\"")),
            "{out}"
        );
        assert!(
            out.contains("# metric counter runtime.tasks_executed"),
            "{out}"
        );
    }

    #[test]
    fn trace_reduce_event_stream_is_deterministic_without_wall_clock() {
        let args = ["trace", "reduce", "--n", "256", "--k", "inf", "--dr", "4"];
        let a = run_cmd(&args).unwrap();
        let b = run_cmd(&args).unwrap();
        assert_eq!(event_lines(&a), event_lines(&b));
        assert!(!a.contains("wall_us"), "{a}");
        let walled = run_cmd(&["trace", "reduce", "--wall", "--n", "64"]).unwrap();
        assert!(walled.contains("wall_us"), "{walled}");
    }

    #[test]
    fn trace_chaos_replays_byte_identically() {
        let args = [
            "trace", "chaos", "--ranks", "4", "--n", "256", "--seed", "909", "--drop", "0.3",
            "--dup", "0.2", "--kill", "1",
        ];
        let a = run_cmd(&args).unwrap();
        let b = run_cmd(&args).unwrap();
        // Full byte identity — summary lines included — because the script
        // excludes every timing-dependent quantity.
        assert_eq!(a, b);
        let events = event_lines(&a);
        assert!(
            events.iter().any(|l| l.contains("\"kind\":\"decision\"")),
            "{a}"
        );
        assert!(
            events.iter().any(|l| l.contains("\"kind\":\"kill\"")),
            "{a}"
        );
        assert!(
            events
                .iter()
                .any(|l| l.contains("\"kind\":\"gather_done\"")),
            "{a}"
        );
        assert!(a.contains("OK (bitwise)"), "{a}");
        assert!(a.contains("failed=1"), "{a}");
    }

    #[test]
    fn trace_chaos_clean_run_keeps_every_rank() {
        let out = run_cmd(&[
            "trace", "chaos", "--ranks", "3", "--n", "128", "--seed", "5",
        ])
        .unwrap();
        assert!(out.contains("# survivors: [0, 1, 2]"), "{out}");
        assert!(out.contains("OK (bitwise)"), "{out}");
        repro_core::obs::validate_trace(&out).expect("schema");
    }

    #[test]
    fn trace_check_round_trips_a_generated_trace() {
        let trace =
            run_cmd(&["trace", "chaos", "--ranks", "3", "--n", "64", "--seed", "8"]).unwrap();
        let fs = move |path: &str| {
            if path == "t.jsonl" {
                Ok(trace.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        let args: Vec<String> = ["trace", "check", "--file", "t.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = run(&args, &fs).unwrap();
        assert!(out.contains("trace OK"), "{out}");
        assert!(out.contains("select"), "{out}");

        let bad_fs = |path: &str| {
            if path == "bad.jsonl" {
                Ok("{\"sub\":\"x\",\"seq\":1,\"kind\":\"a\"}\n{\"sub\":\"x\",\"seq\":1,\"kind\":\"b\"}".to_string())
            } else {
                Err(err("unknown file"))
            }
        };
        let args: Vec<String> = ["trace", "check", "--file", "bad.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&args, &bad_fs).unwrap_err();
        assert!(e.msg.contains("invalid trace"), "{e}");
    }

    #[test]
    fn trace_error_paths() {
        assert!(run_cmd(&["trace"]).is_err(), "needs subcommand");
        assert!(run_cmd(&["trace", "bogus"]).is_err(), "unknown subcommand");
        assert!(run_cmd(&["trace", "check"]).is_err(), "check needs --file");
        assert!(
            run_cmd(&["trace", "check", "--seed", "1"]).is_err(),
            "check rejects stray options"
        );
        assert!(
            run_cmd(&["trace", "chaos", "--drop", "2.0"]).is_err(),
            "invalid fault probability"
        );
    }

    #[test]
    fn trace_reduce_telemetry_emits_node_events_and_realized_spread() {
        let off = run_cmd(&["trace", "reduce", "--n", "256", "--dr", "8", "--seed", "3"]).unwrap();
        assert!(!off.contains("\"kind\":\"node\""), "{off}");
        assert!(!off.contains("realized_spread"), "{off}");
        let on = run_cmd(&[
            "trace",
            "reduce",
            "--n",
            "256",
            "--dr",
            "8",
            "--seed",
            "3",
            "--telemetry",
        ])
        .unwrap();
        repro_core::obs::validate_trace(&on).expect("schema");
        assert!(on.contains("\"kind\":\"node\""), "{on}");
        assert!(on.contains("realized_spread"), "{on}");
        assert!(on.contains("runtime.nodes_observed"), "{on}");
        // Telemetry is additive: the traced run computes the same sum.
        let sum_line = |s: &str| {
            s.lines()
                .find(|l| l.contains("PR sum="))
                .unwrap()
                .to_string()
        };
        assert_eq!(sum_line(&off), sum_line(&on));
    }

    #[test]
    fn trace_diff_is_clean_on_identical_telemetry_traces() {
        let t = run_cmd(&["trace", "reduce", "--n", "128", "--dr", "4", "--telemetry"]).unwrap();
        let fs = move |path: &str| match path {
            "a.jsonl" | "b.jsonl" => Ok(t.clone()),
            _ => Err(err("unknown file")),
        };
        let args: Vec<String> = ["trace", "diff", "a.jsonl", "b.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = run(&args, &fs).unwrap();
        assert!(out.contains("no divergent nodes"), "{out}");
    }

    #[test]
    fn trace_diff_localizes_a_one_ulp_perturbation() {
        // The perturbed element dominates its chunk, so the one-ulp nudge
        // survives the leaf's rounding and the diff can name the origin.
        let vals = [
            "1.0", "1e-30", "1e-30", "1e-30", "1e-30", "1e-30", "1e-30", "1e-30",
        ];
        let mut base = vec!["trace", "reduce", "--telemetry"];
        base.extend_from_slice(&vals);
        let a = run_cmd(&base).unwrap();
        let mut pert = vec!["trace", "reduce", "--telemetry", "--perturb", "0"];
        pert.extend_from_slice(&vals);
        let b = run_cmd(&pert).unwrap();
        let fs = move |path: &str| match path {
            "a.jsonl" => Ok(a.clone()),
            "b.jsonl" => Ok(b.clone()),
            _ => Err(err("unknown file")),
        };
        let args: Vec<String> = ["trace", "diff", "a.jsonl", "b.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&args, &fs).unwrap_err();
        assert!(e.msg.contains("first divergent node"), "{e}");
        assert!(
            e.msg
                .contains("origin: node runtime/c0 leaf interval [0, 8)"),
            "{e}"
        );
    }

    #[test]
    fn trace_chaos_telemetry_replays_byte_identically() {
        let args = [
            "trace",
            "chaos",
            "--ranks",
            "3",
            "--n",
            "96",
            "--seed",
            "5",
            "--telemetry",
        ];
        let a = run_cmd(&args).unwrap();
        let b = run_cmd(&args).unwrap();
        assert_eq!(a, b);
        repro_core::obs::validate_trace(&a).expect("schema");
        assert!(a.contains("\"node\":\"root\""), "{a}");
        assert!(a.contains("\"node\":\"leaf.r1.s0\""), "{a}");
        // The replay line advertises the telemetry flag so a copy-pasted
        // rerun reproduces the telemetried stream, not the bare one.
        assert!(a.contains("--kill 0 --telemetry"), "{a}");
    }

    #[test]
    fn trace_chaos_perturbation_diverges_at_the_root() {
        let base = [
            "trace",
            "chaos",
            "--ranks",
            "3",
            "--n",
            "96",
            "--seed",
            "5",
            "--telemetry",
        ];
        let a = run_cmd(&base).unwrap();
        let pert = [
            "trace",
            "chaos",
            "--ranks",
            "3",
            "--n",
            "96",
            "--seed",
            "5",
            "--telemetry",
            "--perturb",
            "40",
        ];
        let b = run_cmd(&pert).unwrap();
        let fs = move |path: &str| match path {
            "a.jsonl" => Ok(a.clone()),
            "b.jsonl" => Ok(b.clone()),
            _ => Err(err("unknown file")),
        };
        let args: Vec<String> = ["trace", "diff", "a.jsonl", "b.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&args, &fs).unwrap_err();
        // The zero-sum input makes the perturbation visible in the merged
        // gather result no matter what the leaf rounding absorbs.
        assert!(e.msg.contains("rank0/root"), "{e}");
        assert!(e.msg.contains("origin: node"), "{e}");
    }

    #[test]
    fn report_renders_prometheus_and_html() {
        let prom = run_cmd(&["report", "--n", "128", "--dr", "4", "--seed", "7"]).unwrap();
        assert!(prom.contains("# TYPE"), "{prom}");
        assert!(prom.contains("runtime_nodes_observed"), "{prom}");
        assert!(prom.contains("select_spread_drift"), "{prom}");
        let html = run_cmd(&[
            "report", "--format", "html", "--n", "128", "--dr", "4", "--seed", "7",
        ])
        .unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"), "{html}");
        assert!(html.contains("Error trajectory"), "{html}");
    }

    #[test]
    fn telemetry_error_paths() {
        assert!(
            run_cmd(&["trace", "diff", "only-one.jsonl"]).is_err(),
            "diff needs two files"
        );
        assert!(
            run_cmd(&["trace", "diff", "a", "b", "c"]).is_err(),
            "diff rejects three files"
        );
        assert!(
            run_cmd(&["trace", "diff", "--file", "a"]).is_err(),
            "diff rejects options"
        );
        assert!(
            run_cmd(&["trace", "reduce", "--perturb", "99", "1", "2"]).is_err(),
            "perturb out of range"
        );
        assert!(
            run_cmd(&["report", "--format", "yaml"]).is_err(),
            "unknown report format"
        );
        assert!(
            run_cmd(&["trace", "reduce", "--sample", "-1"]).is_err(),
            "bad sample"
        );
    }

    /// The `# manifest: ` trailer of a command's output.
    fn manifest_line(out: &str) -> &str {
        out.lines()
            .rev()
            .find_map(|l| l.strip_prefix("# manifest: "))
            .expect("output carries a manifest trailer")
    }

    #[test]
    fn trace_reduce_manifest_parses_and_replays_bitwise() {
        let out = run_cmd(&["trace", "reduce", "--n", "256", "--dr", "6", "--seed", "11"]).unwrap();
        let m = RunManifest::parse(manifest_line(&out)).expect("manifest parses");
        assert_eq!(m.cmd, "reduce");
        assert_eq!(m.n, 256);
        assert_eq!(m.seed, 11);
        assert_eq!(m.source, "generated");
        assert!(m.replayable());
        assert!(m.result_bits.is_some());
        assert!(m.selector_bits.is_some());
        assert!(!m.algorithm.is_empty());
        // `replay` accepts the saved trace text directly (manifest trailer).
        let fs = move |path: &str| {
            if path == "t.jsonl" {
                Ok(out.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        let args: Vec<String> = ["replay", "t.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let ok = run(&args, &fs).unwrap();
        assert!(ok.contains("replay OK (bitwise)"), "{ok}");
    }

    #[test]
    fn trace_chaos_manifest_round_trips_fault_spec_and_replays() {
        let out = run_cmd(&[
            "trace", "chaos", "--ranks", "4", "--n", "128", "--seed", "9", "--kill", "1", "--drop",
            "0.1",
        ])
        .unwrap();
        let m = RunManifest::parse(manifest_line(&out)).expect("manifest parses");
        assert_eq!(m.cmd, "chaos");
        assert_eq!(m.workers, 4);
        let fault = m.fault.as_ref().expect("chaos manifest carries faults");
        assert_eq!(fault.kill, 1);
        assert_eq!(fault.drop, 0.1);
        let json = m.to_json();
        let fs = move |path: &str| {
            if path == "m.json" {
                Ok(json.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        let args: Vec<String> = ["replay", "m.json"].iter().map(|s| s.to_string()).collect();
        let ok = run(&args, &fs).unwrap();
        assert!(ok.contains("replay OK (bitwise)"), "{ok}");
    }

    #[test]
    fn sum_manifest_embeds_values_and_replays() {
        let out = run_cmd(&["sum", "--alg", "K", "1e16", "1", "-1e16"]).unwrap();
        let m = RunManifest::parse(manifest_line(&out)).expect("manifest parses");
        assert_eq!(m.cmd, "sum");
        assert_eq!(m.source, "embedded");
        assert_eq!(m.values_bits.as_ref().map(Vec::len), Some(3));
        assert_eq!(m.algorithm, "K");
        let json = m.to_json();
        let fs = move |path: &str| {
            if path == "m.json" {
                Ok(json.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        let args: Vec<String> = ["replay", "m.json"].iter().map(|s| s.to_string()).collect();
        assert!(run(&args, &fs).unwrap().contains("replay OK"), "sum replay");
    }

    #[test]
    fn replay_detects_a_perturbed_manifest_with_exit_code_1() {
        let out = run_cmd(&["trace", "reduce", "--n", "128", "--dr", "8", "--seed", "11"]).unwrap();
        // A different seed generates different data: the recorded result
        // bits can no longer be reproduced, which is exactly the
        // divergence the replay gate must catch.
        let perturbed = manifest_line(&out).replace("\"seed\":\"11\"", "\"seed\":\"12\"");
        assert_ne!(perturbed, manifest_line(&out), "seed field must rewrite");
        let fs = move |path: &str| {
            if path == "m.json" {
                Ok(perturbed.clone())
            } else {
                Err(err("unknown file"))
            }
        };
        let args: Vec<String> = ["replay", "m.json"].iter().map(|s| s.to_string()).collect();
        let e = run(&args, &fs).unwrap_err();
        assert_eq!(e.code, 1, "{e}");
        assert!(e.msg.contains("replay DIVERGED"), "{e}");
        assert!(e.msg.contains("result_bits"), "{e}");
    }

    #[test]
    fn replay_rejects_malformed_manifests_with_exit_code_2() {
        let fs = |path: &str| match path {
            "garbage.json" => Ok("this is not a manifest".to_string()),
            "badschema.json" => {
                Ok("{\"schema\":\"repro-manifest-v999\",\"cmd\":\"reduce\"}".to_string())
            }
            _ => Err(err("unknown file")),
        };
        for path in ["garbage.json", "badschema.json"] {
            let args: Vec<String> = ["replay", path].iter().map(|s| s.to_string()).collect();
            let e = run(&args, &fs).unwrap_err();
            assert_eq!(e.code, 2, "{path}: {e}");
        }
        assert!(run_cmd(&["replay"]).is_err(), "replay needs a path");
    }

    #[test]
    fn replay_rejects_manifests_past_the_limits_with_exit_code_2() {
        // A generated input of 2^53 values, and a 2^40-client agg schedule
        // on one worker: each would otherwise be sized into an allocation.
        let mut reduce = RunManifest::new("reduce");
        reduce.n = 1 << 53;
        let mut agg = RunManifest::new("agg");
        agg.n = 1 << 40;
        agg.k = Some((1u64 << 40) as f64);
        agg.dr = 1;
        agg.perturb = Some(1);
        agg.sample = Some(1);
        agg.workers = 1;
        for m in [reduce, agg] {
            let json = m.to_json();
            let fs = move |_: &str| -> Result<String, CliError> { Ok(json.clone()) };
            let e = run(&["replay".to_string(), "m.json".to_string()], &fs).unwrap_err();
            assert_eq!(e.code, 2, "{}: {}", m.cmd, e.msg);
            assert!(e.msg.contains("exceeds the limit"), "{}: {}", m.cmd, e.msg);
        }
    }

    /// Replay one manifest, returning its error (it must fail).
    fn replay_err(m: &RunManifest) -> CliError {
        let json = m.to_json();
        let fs = move |_: &str| -> Result<String, CliError> { Ok(json.clone()) };
        run(&["replay".to_string(), "m.json".to_string()], &fs).unwrap_err()
    }

    #[test]
    fn generated_inputs_outside_the_generator_domain_exit_1_or_2() {
        // The flags: exit 1 before anything is generated.
        for args in [
            &["gen", "--n", "0"][..],
            &["gen", "--n", "1"],
            &["gen", "--n", "10", "--dr", "561"],
            &["trace", "reduce", "--n", "1"],
            &["trace", "reduce", "--n", "64", "--dr", "561"],
            &["report", "--n", "1"],
            &["chaos", "--n", "1", "--ranks", "2"],
            &["trace", "chaos", "--n", "64", "--dr", "561"],
            &["gen", "--n", "4", "--k", "nan"],
            &["trace", "reduce", "--n", "64", "--k", "NaN"],
            &["report", "--n", "64", "--k", "nan"],
            // A budget is a spread: not NaN, not negative.
            &["select", "--tolerance", "nan", "1", "2"],
            &["select", "--tolerance", "-1", "1", "2"],
            &["select", "--tolerance", "-1e-9", "--relative", "1", "2"],
            &["verify", "--tolerance", "NaN", "1", "2"],
            &["trace", "reduce", "--n", "64", "--tolerance", "nan"],
            // A spread needs two permutations; the cap bounds the errors
            // each worker holds.
            &["calibrate", "--perms", "0"],
            &["calibrate", "--perms", "1"],
            &["calibrate", "--perms", "18446744073709551615"],
        ] {
            let e = run_cmd(args).unwrap_err();
            assert_eq!(e.code, 1, "{args:?}: {e}");
        }
        for t in ["inf", "0"] {
            let out = run_cmd(&["select", "--tolerance", t, "1", "2"]).unwrap();
            assert!(out.contains("# selected:"), "--tolerance {t}: {out}");
        }
        // The bounds themselves are in the domain, and so is every k that
        // is not NaN.
        let out = run_cmd(&["gen", "--n", "2", "--dr", "560"]).unwrap();
        assert_eq!(out.lines().count(), 2, "{out}");
        for k in ["inf", "-inf", "0", "-3", "1e300"] {
            let out = run_cmd(&["gen", "--n", "4", "--k", k]).unwrap();
            assert_eq!(out.lines().count(), 4, "--k {k}: {out}");
        }
        // The same bounds on a generated manifest: exit 2.
        let reduce = |n: u64, dr: u64| {
            let mut m = RunManifest::new("reduce");
            (m.n, m.dr) = (n, dr);
            m
        };
        let chaos = |n: u64, dr: u64| {
            let mut m = reduce(n, dr);
            m.cmd = "chaos".to_string();
            m.workers = 2;
            m
        };
        for m in [reduce(1, 0), reduce(64, 561), chaos(1, 0), chaos(64, 561)] {
            let e = replay_err(&m);
            assert_eq!(e.code, 2, "{} n={} dr={}: {e}", m.cmd, m.n, m.dr);
        }
        // A manifest's tolerance is a spread too.
        let out = run_cmd(&["trace", "reduce", "--n", "64"]).unwrap();
        for tolerance in ["abs:NaN", "rel:NaN", "abs:-1"] {
            let mut m = RunManifest::parse(manifest_line(&out)).expect("manifest parses");
            m.tolerance = tolerance.to_string();
            let e = replay_err(&m);
            assert_eq!(e.code, 2, "{tolerance}: {e}");
            assert!(e.msg.contains("tolerance"), "{tolerance}: {e}");
        }
        // An embedded input was never generated: its length is no bound.
        let out = run_cmd(&["trace", "reduce", "5"]).unwrap();
        let line = manifest_line(&out).to_string();
        let fs = move |_: &str| -> Result<String, CliError> { Ok(line.clone()) };
        run(&["replay".to_string(), "m.json".to_string()], &fs).unwrap();
    }

    #[test]
    fn replay_rejects_a_fault_rate_outside_the_unit_interval_with_exit_code_2() {
        let out = run_cmd(&["trace", "chaos", "--ranks", "2", "--n", "64"]).unwrap();
        let mut m = RunManifest::parse(manifest_line(&out)).expect("manifest parses");
        m.fault
            .as_mut()
            .expect("chaos manifests record faults")
            .drop = 1.5;
        let e = replay_err(&m);
        assert_eq!(e.code, 2, "{e}");
        assert!(e.msg.contains("drop"), "{e}");
    }

    #[test]
    fn limits_bound_inputs_threads_and_agg_schedules() {
        assert_eq!(generated_len(1 << 27).unwrap(), 1 << 27);
        assert_eq!(generated_len((1 << 27) + 1).unwrap_err().code, 1);
        assert_eq!(generated_len(2).unwrap(), 2);
        assert_eq!(generated_len(1).unwrap_err().code, 1);
        assert_eq!(generated_dr(560).unwrap(), 560);
        assert_eq!(generated_dr(561).unwrap_err().code, 1);
        assert_eq!(rank_count(1024).unwrap(), 1024);
        assert!(rank_count(1025).is_err());
        assert_eq!(permutation_count(2).unwrap(), 2);
        assert_eq!(permutation_count(1 << 20).unwrap(), 1 << 20);
        for bad in [0, 1, (1 << 20) + 1, u64::MAX] {
            assert_eq!(permutation_count(bad).unwrap_err().code, 1, "{bad}");
        }
        // The largest default schedule, `REPRO_SCALE=full`, fits.
        let full = repro_core::agg::LoadSpec {
            aggregates: 8,
            clients: 4096,
            batches: 16,
            batch_len: 256,
            seed: 2015,
            shuffle: 1,
            workers: 1024,
        };
        assert!(check_agg_shape(&full).is_ok());
        use repro_core::agg::LoadSpec;
        // 8 × 2^17 × 16 = 2^24 batches: exactly at the limit.
        let at_limit = LoadSpec {
            clients: 1 << 17,
            ..full
        };
        assert!(check_agg_shape(&at_limit).is_ok());
        for bad in [
            LoadSpec {
                workers: 1025,
                ..full
            },
            LoadSpec {
                batch_len: (1 << 27) + 1,
                ..full
            },
            LoadSpec {
                clients: (1 << 17) + 1,
                ..full
            },
            LoadSpec {
                clients: usize::MAX,
                ..full
            },
        ] {
            assert_eq!(check_agg_shape(&bad).unwrap_err().code, 1, "{bad:?}");
        }
    }

    #[test]
    fn trace_check_rejects_deep_nesting_with_exit_code_2() {
        let fs = |_: &str| -> Result<String, CliError> { Ok("[".repeat(100_000)) };
        let args: Vec<String> = ["trace", "check", "--file", "deep.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&args, &fs).unwrap_err();
        assert_eq!(e.code, 2, "{e}");
    }

    #[test]
    fn trace_diff_exit_codes_distinguish_parse_from_divergence() {
        // Unparseable input: schema error, exit 2.
        let bad_fs = |_: &str| Ok("not json at all {".to_string());
        let args: Vec<String> = ["trace", "diff", "a", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&args, &bad_fs).unwrap_err();
        assert_eq!(e.code, 2, "{e}");
        // Numerical divergence: exit 1.
        let vals = ["1.0", "1e-30", "1e-30", "1e-30"];
        let mut base = vec!["trace", "reduce", "--telemetry"];
        base.extend_from_slice(&vals);
        let a = run_cmd(&base).unwrap();
        let mut pert = vec!["trace", "reduce", "--telemetry", "--perturb", "0"];
        pert.extend_from_slice(&vals);
        let b = run_cmd(&pert).unwrap();
        let fs = move |path: &str| match path {
            "a.jsonl" => Ok(a.clone()),
            "b.jsonl" => Ok(b.clone()),
            _ => Err(err("unknown file")),
        };
        let args: Vec<String> = ["trace", "diff", "a.jsonl", "b.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&args, &fs).unwrap_err();
        assert_eq!(e.code, 1, "{e}");
    }

    #[test]
    fn flight_subcommand_reports_rings_and_overhead() {
        // Drive at least one reduction through the process-global recorder
        // so the status has something to show.
        run_cmd(&["trace", "reduce", "--n", "64"]).unwrap();
        let out = run_cmd(&["flight"]).unwrap();
        assert!(out.contains("# flight recorder: enabled="), "{out}");
        assert!(out.contains("capacity="), "{out}");
        assert!(out.contains("obs.overhead.events"), "{out}");
        assert!(out.contains("# ring select:"), "{out}");
        assert!(run_cmd(&["flight", "--bogus"]).is_err());
        assert!(run_cmd(&["flight", "--dump"]).is_err(), "--dump needs dir");
    }

    #[test]
    fn manifests_are_deterministic_across_runs() {
        let args = ["trace", "reduce", "--n", "128", "--dr", "4", "--seed", "3"];
        let a = run_cmd(&args).unwrap();
        let b = run_cmd(&args).unwrap();
        assert_eq!(manifest_line(&a), manifest_line(&b));
    }

    #[test]
    fn error_paths() {
        assert!(run_cmd(&["sum"]).is_err(), "no values");
        assert!(run_cmd(&["sum", "abc"]).is_err(), "bad value");
        assert!(run_cmd(&["sum", "--alg", "XX", "1"]).is_err(), "bad alg");
        assert!(run_cmd(&["select", "1.0"]).is_err(), "missing tolerance");
        assert!(run_cmd(&["gen"]).is_err(), "gen needs --n");
        assert!(run_cmd(&["dot"]).is_err(), "dot needs files");
        assert!(run_cmd(&["bogus"]).is_err(), "unknown command");
        assert!(run_cmd(&["sum", "--nope", "1"]).is_err(), "unknown option");
        let usage = run_cmd(&["help"]).unwrap();
        assert!(usage.contains("USAGE"));
    }
}

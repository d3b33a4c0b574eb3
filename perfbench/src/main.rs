//! Benchmark command: one workload, one seed, a closed loop from one load
//! thread. Prints the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`) as the last line of standard output.
//!
//! ```text
//! perfbench --workload reduce-small --seed 1 --seconds 45 --trace 0
//! ```

use perfbench::agg::{AggIngest, AggShip};
use perfbench::check::{Checks, PoolTally};
use perfbench::reduce::Reduce;
use perfbench::stats::{median, percentile, window_rates};
use perfbench::trace::{coverage, totals, Tracer};
use perfbench::{
    Layers, Workload, END_TO_END, MIN_OPS, MIN_SETUPS, MIN_SETUP_S, PER_LAYER, WORKLOADS,
};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload reduce-large|reduce-small|agg-ingest|agg-ship \
--seed N --seconds S --trace 0|1 [--spans FILE] [--git-rev REV] [--src-digest HEX]";

/// Length of the windows whose rates give the run's throughput, s.
const WINDOW_S: f64 = 1.0;

/// Percentile of the window rates reported as throughput: the rate the run
/// sustained in nine windows of ten. On a shared 2-vCPU host the speed has
/// a steady floor with spells of up to 1.7× above it. How much of a run the
/// spells cover varies: over five 30- to 60-second runs of `reduce-small`,
/// the median window spread 10–14% (IQR over median), this percentile 2–4%.
const SUSTAINED_PCT: usize = 10;

/// Fewest untraced/traced/probe cycles in a traced run.
const MIN_CYCLES: usize = 2;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
    git_rev: String,
    src_digest: String,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut spans, mut git_rev, mut src_digest) = (None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = WORKLOADS.iter().find(|w| **w == value);
                workload = Some(*name.ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            "--spans" => spans = Some(value),
            "--git-rev" => git_rev = Some(value),
            "--src-digest" => src_digest = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
        git_rev: git_rev.unwrap_or_else(|| "unknown".into()),
        src_digest: src_digest.unwrap_or_else(|| "unknown".into()),
    })
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run's metadata as one JSON object: seed, revision, SIMD tier,
/// cores, flight recorder, and every `REPRO_*` variable that is set.
fn metadata(args: &Args) -> String {
    let tier = match repro_fp::simd::try_active_tier() {
        Ok(t) => t.label().to_string(),
        Err(e) => format!("error: {e}"),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let flight = if repro_obs::flight::global().enabled() {
        "on"
    } else {
        "off"
    };
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("REPRO_"))
        .collect();
    env.sort();
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \
         \"src_digest\": {}, \"simd_tier\": {}, \"nproc\": {nproc}, \"flight_recorder\": {}, \
         \"env\": {{{}}}}}",
        quote(args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        quote(&args.git_rev),
        quote(&args.src_digest),
        quote(&tier),
        quote(flight),
        env.join(", ")
    )
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn rss_peak_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The result line: checks and metrics, in the order `names` lists them.
fn result_line(
    checks: Checks,
    names: &[(&str, &str)],
    value: impl Fn(&str) -> f64,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let v = value(name);
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.broken == 0,
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    ))
}

/// Untraced closed loop: whole passes until `seconds` have passed and at
/// least [`MIN_OPS`] ops are done. Throughput is the sustained rate over
/// [`WINDOW_S`]-second windows ([`SUSTAINED_PCT`]). Checks are tallied per
/// op of the pass ([`PoolTally`]), so they repeat exactly for a seed.
fn timed_run(w: &mut dyn Workload, seconds: u64, setup_s: f64) -> Result<String, String> {
    let mut tracer = Tracer::off();
    let mut latencies = Vec::new();
    let mut pass_ends = Vec::new();
    let mut pool = PoolTally::new(w.pass_ops());
    let start = Instant::now();
    loop {
        for i in 0..w.pass_ops() {
            let t = Instant::now();
            pool.record(i, w.op(i, &mut tracer));
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
        }
        pass_ends.push((start.elapsed().as_secs_f64(), latencies.len()));
        if start.elapsed() >= Duration::from_secs(seconds) && latencies.len() >= MIN_OPS {
            break;
        }
    }
    let rates = window_rates(&pass_ends, WINDOW_S);
    let ops_per_s = percentile(&rates, SUSTAINED_PCT);
    let rss = rss_peak_mib()?;
    let checks = pool.total();
    let elapsed_s = start.elapsed().as_secs_f64();
    println!(
        "# ops={} passes={} window_s={elapsed_s:.3} windows={} mean_ops_per_s={:.4} \
         median_window_ops_per_s={:.4} checks={} failed={} fail_ratio={:.6}",
        latencies.len(),
        pass_ends.len(),
        rates.len(),
        latencies.len() as f64 / elapsed_s,
        median(&rates),
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted as f64
    );
    result_line(checks, END_TO_END, |name| match name {
        "values_per_s" => ops_per_s * w.values_per_op() as f64,
        "ops_per_s" => ops_per_s,
        "op_p50_ms" => percentile(&latencies, 50),
        "op_p90_ms" => percentile(&latencies, 90),
        "rss_peak_mib" => rss,
        "check_pass_ratio" => (checks.attempted - checks.failed) as f64 / checks.attempted as f64,
        "setup_s" => setup_s,
        _ => unreachable!("every end-to-end metric is computed"),
    })
}

/// Traced run: cycles of an untraced pass, a traced pass and a probe pass
/// until `seconds` have passed. Spans are written to `spans` at the end.
fn traced_run(w: &mut dyn Workload, seconds: u64, spans: Option<&str>) -> Result<String, String> {
    let ring = repro_obs::flight::global().ring();
    let mut off = Tracer::off();
    let mut tracer = Tracer::on();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut pool = PoolTally::new(w.pass_ops());
    let (mut events, mut bytes, mut ops) = (0, 0, 0);
    let start = Instant::now();
    while untraced.len() < MIN_CYCLES || start.elapsed() < Duration::from_secs(seconds) {
        for traced_pass in [false, true] {
            let t = Instant::now();
            for i in 0..w.pass_ops() {
                let (e0, b0) = (ring.events_recorded(), ring.bytes_recorded());
                let checks = if traced_pass {
                    tracer.root("op", |t| w.op(i, t))
                } else {
                    w.op(i, &mut off)
                };
                pool.record(i, checks);
                events += ring.events_recorded() - e0;
                bytes += ring.bytes_recorded() - b0;
                ops += 1;
            }
            let pass_s = t.elapsed().as_secs_f64();
            if traced_pass {
                &mut traced
            } else {
                &mut untraced
            }
            .push(pass_s);
        }
        tracer.root("probe", |t| w.probe(t));
    }

    let mut layers = Layers::default();
    w.layers(&totals(tracer.spans()), &mut layers);
    let coverage = coverage(tracer.spans(), "op");
    // Traced over untraced throughput, minus 1: the passes do equal work.
    let overhead = median(&untraced) / median(&traced) - 1.0;
    layers.set("trace.coverage", coverage);
    layers.set("trace.overhead", overhead);
    layers.set("obs.flight_events_per_op", events as f64 / ops as f64);
    layers.set("obs.flight_bytes_per_op", bytes as f64 / ops as f64);
    let checks = pool.total();
    let fail_ratio = checks.failed as f64 / checks.attempted as f64;
    layers.set("check.fail_ratio", fail_ratio);

    println!(
        "# cycles={} ops={ops} spans={} coverage={coverage:.4} overhead={overhead:.4} \
         checks={} failed={} fail_ratio={fail_ratio:.6}",
        untraced.len(),
        tracer.spans().len(),
        checks.attempted,
        checks.failed
    );
    for line in w.failures() {
        println!("# failed: {line}");
    }
    for &(name, unit) in PER_LAYER {
        println!("# {name} = {} {unit}", layers.get(name));
    }
    if let Some(path) = spans {
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        tracer
            .write_tsv(&mut out)
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    result_line(checks, PER_LAYER, |name| layers.get(name))
}

fn run(args: &Args) -> Result<String, String> {
    println!("# meta {}", metadata(args));
    let t = Instant::now();
    let mut w: Box<dyn Workload> = match args.workload {
        "reduce-large" => Box::new(Reduce::large(args.seed)),
        "reduce-small" => Box::new(Reduce::small(args.seed)),
        "agg-ingest" => Box::new(AggIngest::new(args.seed)),
        "agg-ship" => Box::new(AggShip::new(args.seed)),
        other => unreachable!("parse_args admits only known workloads, not {other}"),
    };
    let generate_s = t.elapsed().as_secs_f64();
    let mut setups: Vec<f64> = Vec::new();
    while setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < MIN_SETUP_S {
        let t = Instant::now();
        w.setup();
        setups.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);
    let each: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "# generate_s={generate_s:.3} setup_s={setup_s:.4} setups={} [{}] \
         pass_ops={} values_per_op={}",
        setups.len(),
        each.join(" "),
        w.pass_ops(),
        w.values_per_op()
    );
    if args.trace {
        traced_run(w.as_mut(), args.seconds, args.spans.as_deref())
    } else {
        timed_run(w.as_mut(), args.seconds, setup_s)
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Shared scaffolding for the experiment harness.
//!
//! Every bench target regenerates one table or figure of the paper. The
//! workload sizes scale with the `REPRO_SCALE` environment variable:
//!
//! | scale | intent | figure-7 sizes | grid cells | permutations |
//! |-------|--------|----------------|------------|--------------|
//! | `quick` | CI smoke | 1K, 8K | 4×4, n=1K | 15 |
//! | `default` | laptop minutes | 8K, 64K | 6×5, n=8K | 50 |
//! | `full` | paper scale | 8K, 1M | 6×5, n=1M | 100 (Fig 7) / 1000 (grids) |
//!
//! All experiments are seeded and print their seeds: re-running a bench
//! reproduces its output bit-for-bit.

#![forbid(unsafe_code)]

use std::time::Instant;

/// Workload scale selected via `REPRO_SCALE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI smoke test sizes.
    Quick,
    /// Laptop-friendly defaults (a few minutes for the whole suite).
    Default,
    /// The paper's own parameters (long; grids take hours).
    Full,
}

/// Read `REPRO_SCALE` (quick|default|full).
pub fn scale() -> Scale {
    match std::env::var("REPRO_SCALE").as_deref() {
        Ok("quick") => Scale::Quick,
        Ok("full") => Scale::Full,
        _ => Scale::Default,
    }
}

/// Scaled experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Concurrency levels for Figure 7 (paper: 8K and 1M leaves).
    pub fig7_sizes: Vec<usize>,
    /// Leaf permutations per configuration (paper: 100).
    pub fig7_perms: u64,
    /// Values per grid cell (paper: 1M).
    pub grid_n: usize,
    /// Permutations per grid cell (paper: 1000).
    pub grid_perms: u64,
    /// Values / orders for Figure 2 (paper: 10,000 / 10,000).
    pub fig2_values: usize,
    /// Number of random summation orders for Figure 2.
    pub fig2_orders: usize,
    /// Series length for the Figure 4 timing run (paper: 10⁶).
    pub timing_n: usize,
    /// Timing repetitions (paper: 20, warm cache).
    pub timing_reps: usize,
    /// Base RNG seed.
    pub seed: u64,
}

/// Parameters for the current [`scale`].
pub fn params() -> Params {
    let seed = 2015;
    match scale() {
        Scale::Quick => Params {
            fig7_sizes: vec![1 << 10, 1 << 13],
            fig7_perms: 15,
            grid_n: 1 << 10,
            grid_perms: 15,
            fig2_values: 2_000,
            fig2_orders: 500,
            timing_n: 100_000,
            timing_reps: 5,
            seed,
        },
        Scale::Default => Params {
            fig7_sizes: vec![1 << 13, 1 << 16],
            fig7_perms: 50,
            grid_n: 1 << 13,
            grid_perms: 50,
            fig2_values: 10_000,
            fig2_orders: 2_000,
            timing_n: 1_000_000,
            timing_reps: 20,
            seed,
        },
        Scale::Full => Params {
            fig7_sizes: vec![1 << 13, 1 << 20],
            fig7_perms: 100,
            grid_n: 1 << 20,
            grid_perms: 1_000,
            fig2_values: 10_000,
            fig2_orders: 10_000,
            timing_n: 1_000_000,
            timing_reps: 20,
            seed,
        },
    }
}

/// Grid axes shared by the Figures 9–12 benches.
pub mod grid_axes {
    /// Condition-number decades probed by the `(k, dr)` and `(n, k)` grids.
    pub fn k_targets() -> Vec<f64> {
        vec![1.0, 1e2, 1e4, 1e6, 1e8, 1e12, f64::INFINITY]
    }

    /// Dynamic ranges (decimal decades) probed by the grids.
    pub fn dr_targets() -> Vec<u32> {
        vec![0, 8, 16, 24, 32]
    }

    /// Concurrency levels probed by the `(n, dr)` and `(n, k)` grids.
    pub fn n_targets(scale: super::Scale) -> Vec<usize> {
        match scale {
            super::Scale::Quick => vec![1 << 8, 1 << 10, 1 << 12],
            super::Scale::Default => vec![1 << 10, 1 << 12, 1 << 14, 1 << 16],
            super::Scale::Full => vec![1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20],
        }
    }

    /// The "beyond every finite k" scale for zero-sum grid cells.
    pub const INF_ABS_SUM: f64 = 1e16;

    /// A value on a grid axis — `n` (`usize`), `dr` (`u32`) or `k` (`f64`,
    /// the one float axis) — and its label in a grid's header.
    pub trait AxisValue: Copy + Sync {
        /// The header label.
        fn label(self) -> String;
    }

    impl AxisValue for usize {
        fn label(self) -> String {
            self.to_string()
        }
    }

    impl AxisValue for u32 {
        fn label(self) -> String {
            self.to_string()
        }
    }

    impl AxisValue for f64 {
        fn label(self) -> String {
            if self.is_infinite() {
                "inf".into()
            } else {
                format!("{self:.0e}")
            }
        }
    }
}

/// Print the standard experiment banner.
pub fn banner(id: &str, paper_item: &str, what: &str) {
    let p = params();
    println!("{}", "=".repeat(78));
    println!("{id} — reproduces {paper_item}");
    println!("{what}");
    println!(
        "scale = {:?} (REPRO_SCALE=quick|default|full), base seed = {}",
        scale(),
        p.seed
    );
    println!("{}", "=".repeat(78));
}

/// The grid scaffold of the Figures 9–12 benches: measure a row × column
/// grid of generated cells, one [`repro_core::stats::Grid`] per algorithm,
/// each cell through the paper's Figure 8 measurement
/// ([`repro_core::select::calibrate::spreads`]).
pub mod sweep {
    use super::grid_axes::AxisValue;
    use repro_core::runtime::{ReductionPlan, Runtime};
    use repro_core::select::calibrate::spreads;
    use repro_core::stats::Grid;
    use repro_core::sum::Algorithm;

    /// Measure the `rows` × `cols` grid and return one [`Grid`] per
    /// algorithm, in `algorithms` order. Cell `(r, c)` is the set
    /// `cell(rows[r], cols[c], seed)` with `seed = base ^ (r << 16) ^ c`
    /// (`base` the [`super::params`] seed), and its spreads take
    /// `grid_perms` trees from the permutation stream `seed ^ 0x5EED`.
    /// Cells are seeded, so they run on the shared runtime pool without
    /// moving a bit; a panicking cell re-raises here.
    pub fn grids<R: AxisValue, C: AxisValue>(
        (row_axis, rows): (&str, &[R]),
        (col_axis, cols): (&str, &[C]),
        algorithms: &[Algorithm],
        cell: impl Fn(R, C, u64) -> Vec<f64> + Sync,
    ) -> Vec<Grid> {
        let p = super::params();
        let plan = ReductionPlan::with_chunk_len(rows.len() * cols.len(), 1);
        let measured = Runtime::global().map_chunks(&plan, |i, _| {
            let (r, c) = (i / cols.len(), i % cols.len());
            let seed = p.seed ^ ((r as u64) << 16) ^ c as u64;
            let values = cell(rows[r], cols[c], seed);
            spreads(&values, p.grid_perms, seed ^ 0x5EED, algorithms)
        });
        let row_labels: Vec<String> = rows.iter().map(|&v| v.label()).collect();
        let col_labels: Vec<String> = cols.iter().map(|&v| v.label()).collect();
        let mut grids: Vec<Grid> = algorithms
            .iter()
            .map(|_| Grid::new(row_axis, col_axis, row_labels.clone(), col_labels.clone()))
            .collect();
        for (i, cell_spreads) in measured.into_iter().enumerate() {
            for (grid, s) in grids.iter_mut().zip(cell_spreads) {
                grid.set(i / cols.len(), i % cols.len(), s);
            }
        }
        grids
    }

    /// Print the Figures 9–11 panels: per algorithm, its grid's heat map
    /// and CSV under `panel <abbrev> (<name>), <fixed>:`, where `fixed`
    /// names the coordinate the figure holds constant.
    pub fn print_panels(algorithms: &[Algorithm], grids: &[Grid], fixed: &str) {
        for (alg, grid) in algorithms.iter().zip(grids) {
            println!("\npanel {} ({}), {fixed}:", alg.abbrev(), alg.name());
            println!("{}", grid.render_heat());
            println!("csv:\n{}", grid.to_csv());
        }
    }
}

/// The tracked throughput harness behind `repro-reduce bench` and the
/// repo-root `BENCH_*.json` perf trajectory.
///
/// Every future PR appends a comparable point: the workloads (seeded
/// [`params`] sizes), the op list, and the JSON schema are fixed, so two
/// same-seed runs differ only in the timing fields (`min_ns`, `median_ns`,
/// `p90_ns`) — everything else is byte-identical, which is what the CI
/// determinism gate asserts.
pub mod throughput {
    use repro_core::fp::rng::DetRng;
    use repro_core::fp::simd::supported_tiers;
    use repro_core::fp::Superaccumulator;
    use repro_core::select::profile::profile;
    use repro_core::sum::{Accumulator, Algorithm};

    /// The schema marker of the document [`render_json`] writes.
    pub const SCHEMA: &str = "repro-bench-throughput-v2";

    /// Values per call of the `rung/*` entries but `rung/DS/call`.
    pub const RUNG_N: usize = 4096;

    /// Values per call of `rung/DS/call`, the entry that fixes DS's
    /// per-call term.
    pub const CALL_N: usize = 256;

    /// What an entry's timings are per.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Unit {
        /// One value summed.
        Elem,
        /// One call, whatever it reads.
        Call,
        /// One recorded event.
        Event,
        /// One value ingested into an aggregate.
        Update,
    }

    impl Unit {
        /// The schema spelling.
        pub fn label(self) -> &'static str {
            match self {
                Unit::Elem => "elem",
                Unit::Call => "call",
                Unit::Event => "event",
                Unit::Update => "update",
            }
        }
    }

    /// One measured point of the fixed schema
    /// `op, n, unit, reps, min_ns, median_ns, p90_ns, seed, git_rev`.
    #[derive(Clone, Debug)]
    pub struct BenchEntry {
        /// Operation label (e.g. `sum/ST`, `rung/DS/p3`, `simd/avx2`).
        pub op: String,
        /// Values each timed call reads (events or updates per run for the
        /// `obs/` and `agg/ingest` entries; for the per-call `agg/` entries,
        /// the values per `agg/ingest` run that fed the engine they act on).
        pub n: usize,
        /// What the timings are per.
        pub unit: Unit,
        /// Timed repetitions, after one untimed warm-up.
        pub reps: usize,
        /// Fastest repetition, ns per unit.
        pub min_ns: f64,
        /// Median repetition, ns per unit.
        pub median_ns: f64,
        /// 90th-percentile (nearest-rank) repetition, ns per unit.
        pub p90_ns: f64,
        /// Workload RNG seed.
        pub seed: u64,
        /// Git revision the numbers were measured at.
        pub git_rev: String,
    }

    /// The uniform `[0, 1)` workload of the `sum/`, `superacc/`, `simd/`,
    /// `select/`, `obs/` and `agg/` entries, and of `rung/ST`, `rung/K`,
    /// `rung/CP` and `rung/DS/call` (the harness's baseline distribution:
    /// benign exponent range, so the superaccumulator's cascade takes two
    /// parts and the ≥ 2× batched-vs-scalar acceptance ratio is measured
    /// under favourable-but-realistic data).
    pub fn uniform_workload(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..n).map(|_| rng.next_f64()).collect()
    }

    /// The wide-range workload of `superacc/wide`: the `agg loadgen`
    /// payload shape, `(u − 0.5) · 2^e` with `e` uniform in `[−30, 30]`,
    /// drawn from [`repro_core::agg::batch_values`]. Its blocks span more
    /// than 84 bits, so the superaccumulator's cascade splits every value
    /// into three or four parts where uniform data takes two.
    pub fn wide_workload(n: usize, seed: u64) -> Vec<f64> {
        repro_core::agg::batch_values(seed, 0, 0, 0, n)
    }

    /// The workload of `rung/DS/p{parts}`: signed values `m · 2^e`, `m`
    /// uniform in `[1, 2)` and `e` uniform over `S = 42 · parts − 74`
    /// binades, with both end binades in every 256-value chunk. Any block
    /// of whole chunks then spans `S + 53` or `S + 54` bits from the grid
    /// base to the top, so `Cascade::plan` splits it into exactly `parts`
    /// parts, and refuses it at `parts` = `MAX_PARTS + 1`.
    pub fn parts_workload(parts: usize, n: usize, seed: u64) -> Vec<f64> {
        let span = 42 * parts as i32 - 74;
        let lo = -span / 2;
        let mut rng = DetRng::seed_from_u64(seed ^ parts as u64);
        (0..n)
            .map(|i| {
                let e = match i % 256 {
                    0 => lo,
                    1 => lo + span,
                    _ => lo + (rng.next_u64() % (span as u64 + 1)) as i32,
                };
                let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
                sign * (1.0 + rng.next_f64()) * 2f64.powi(e)
            })
            .collect()
    }

    /// Best-effort current git revision, read from `.git` without spawning a
    /// process; `"unknown"` outside a checkout.
    pub fn git_rev() -> String {
        fn read_rev(dir: &std::path::Path) -> Option<String> {
            let head = std::fs::read_to_string(dir.join(".git/HEAD")).ok()?;
            let head = head.trim();
            let full = if let Some(reference) = head.strip_prefix("ref: ") {
                std::fs::read_to_string(dir.join(".git").join(reference.trim()))
                    .ok()?
                    .trim()
                    .to_string()
            } else {
                head.to_string()
            };
            if full.len() >= 12 && full.chars().all(|c| c.is_ascii_hexdigit()) {
                Some(full[..12].to_string())
            } else {
                None
            }
        }
        let mut dir = std::env::current_dir().unwrap_or_default();
        loop {
            if let Some(rev) = read_rev(&dir) {
                return rev;
            }
            if !dir.pop() {
                return "unknown".to_string();
            }
        }
    }

    /// The suite's fixed context and the entries it has timed so far.
    struct Suite {
        seed: u64,
        rev: String,
        reps: usize,
        entries: Vec<BenchEntry>,
    }

    impl Suite {
        /// Time `reps` repetitions of `f` (warm cache, one untimed run
        /// first), each doing `units` units of work, into an entry of ns
        /// per unit.
        fn time(&mut self, op: &str, n: usize, unit: Unit, units: usize, f: impl FnMut() -> f64) {
            let times = super::rep_times(self.reps, f);
            let per_unit = |secs: f64| secs * 1e9 / units.max(1) as f64;
            let p90 = (times.len() * 9).div_ceil(10).max(1) - 1;
            self.entries.push(BenchEntry {
                op: op.to_string(),
                n,
                unit,
                reps: times.len(),
                min_ns: per_unit(times[0]),
                median_ns: per_unit(times[times.len() / 2]),
                p90_ns: per_unit(times[p90]),
                seed: self.seed,
                git_rev: self.rev.clone(),
            });
        }

        /// Time one call of `f` on `values` per repetition, ns per value.
        fn elem(&mut self, op: &str, values: &[f64], mut f: impl FnMut(&[f64]) -> f64) {
            self.time(op, values.len(), Unit::Elem, values.len(), || f(values));
        }

        /// Time one `alg` call after another on `values`, ns per value, or
        /// per call with `unit` [`Unit::Call`]. Each repetition runs
        /// calls over 2^20 values in all, so even a 256-value call is
        /// timed in batches of about a millisecond.
        fn rung(&mut self, op: &str, alg: Algorithm, values: &[f64], unit: Unit) {
            let calls = (1 << 20) / values.len();
            let units = match unit {
                Unit::Call => calls,
                _ => calls * values.len(),
            };
            self.time(op, values.len(), unit, units, || {
                (0..calls)
                    .map(|_| alg.sum(std::hint::black_box(values)))
                    .sum()
            });
        }
    }

    /// Run the full suite at the current [`super::scale`]: every `sum`
    /// operator; the per-call prices the selector's cost model reads
    /// (`rung/ST`, `rung/K` and `rung/CP` per value on [`RUNG_N`] uniform
    /// values, `rung/DS/call` per call on [`CALL_N`] of them, and
    /// `rung/DS/p2` … `rung/DS/p9` per value on [`parts_workload`]); the
    /// superaccumulator scalar vs batched paths, the batched path on
    /// wide-range data ([`wide_workload`]), the batched path once per
    /// supported SIMD dispatch tier (`simd/<tier>` — the entry *list*
    /// follows the machine, which the CI op-coverage check probes via
    /// `repro-reduce simd --check`), the selector's profile pass, the
    /// observability tax per event, and the aggregation engine's ingest
    /// per update and merge, snapshot and finalize per call. Entry order
    /// is fixed. `superacc/batched` and the `rung/` entries stay on the
    /// active tier — they report what `add_slice` actually delivers here.
    pub fn run_suite() -> Vec<BenchEntry> {
        let p = super::params();
        let n = p.timing_n;
        let seed = p.seed;
        let mut suite = Suite {
            seed,
            rev: git_rev(),
            reps: p.timing_reps.clamp(3, 20),
            entries: Vec::new(),
        };
        let values = uniform_workload(n, seed);
        for alg in Algorithm::ALL {
            suite.elem(&format!("sum/{}", alg.abbrev()), &values, move |v| {
                let mut acc = alg.new_accumulator();
                acc.add_slice(v);
                acc.finalize()
            });
        }
        let rung_values = uniform_workload(RUNG_N, seed);
        for alg in [Algorithm::Standard, Algorithm::Kahan, Algorithm::Composite] {
            let op = format!("rung/{}", alg.abbrev());
            suite.rung(&op, alg, &rung_values, Unit::Elem);
        }
        let call_values = uniform_workload(CALL_N, seed);
        suite.rung("rung/DS/call", Algorithm::Distill, &call_values, Unit::Call);
        for parts in 2..=repro_core::fp::simd::MAX_PARTS + 1 {
            let op = format!("rung/DS/p{parts}");
            let values = parts_workload(parts, RUNG_N, seed);
            suite.rung(&op, Algorithm::Distill, &values, Unit::Elem);
        }
        suite.elem("superacc/scalar", &values, |v| {
            let mut acc = Superaccumulator::new();
            for &x in v {
                acc.add(x);
            }
            acc.to_f64()
        });
        let batched = |v: &[f64]| {
            let mut acc = Superaccumulator::new();
            acc.add_slice(v);
            acc.to_f64()
        };
        suite.elem("superacc/batched", &values, batched);
        suite.elem("superacc/wide", &wide_workload(n, seed), batched);
        for &tier in supported_tiers() {
            suite.elem(&format!("simd/{}", tier.label()), &values, move |v| {
                let mut acc = Superaccumulator::new();
                acc.add_slice_with_tier(v, tier);
                acc.to_f64()
            });
        }
        suite.elem("select/profile", &values, |v| profile(v).sum_estimate);
        // The always-on selection fast path: strided sampled profiling
        // (cost amortized over the *full* n, the number that competes with
        // select/profile), then the cached decision path warm (cache_hit)
        // and cold (cache_miss, cleared every rep — selection plus insert
        // plus the reduction itself).
        {
            use repro_core::select::sample::{SampleConfig, SampledProfile};
            use repro_core::select::{AdaptiveReducer, DecisionCache, Tolerance};
            suite.elem("select/sampled_profile", &values, |v| {
                let s = SampledProfile::collect(v, &SampleConfig::default());
                s.estimated_profile().sum_estimate
            });
            let reducer = AdaptiveReducer::heuristic(Tolerance::AbsoluteSpread(1e-6));
            let cache = DecisionCache::new();
            let _ = reducer.reduce_cached(&values, &cache); // warm the cache
            suite.elem("select/cache_hit", &values, |v| {
                reducer.reduce_cached(v, &cache).sum
            });
            suite.elem("select/cache_miss", &values, |v| {
                cache.clear();
                reducer.reduce_cached(v, &cache).sum
            });
        }
        // The observability tax, one event per element, in ns per event: a
        // disabled scope, through `black_box` so its branch runs per
        // element (the price of leaving instrumentation in a hot path —
        // `event_with` skips field construction entirely, so this is a
        // branch, not an allocation), `FlightRecorder::record_with` on a
        // private recorder with the global one's capacity (the path every
        // always-on event takes, on a full ring), and what a traced CLI run
        // pays: record into memory, then `render_jsonl`.
        {
            use repro_core::obs::flight::DEFAULT_RING_CAPACITY;
            use repro_core::obs::{f, render_jsonl, FlightRecorder, Trace};
            let v = &values;
            suite.time("obs/noop", n, Unit::Event, n, || {
                let trace = Trace::disabled();
                let mut scope = trace.scope("bench");
                for (i, &x) in v.iter().enumerate() {
                    let scope = std::hint::black_box(&mut scope);
                    scope.event_with("e", || vec![f("i", i as u64), f("x", x)]);
                }
                v.len() as f64
            });
            suite.time("obs/ring", n, Unit::Event, n, || {
                let recorder = FlightRecorder::new(DEFAULT_RING_CAPACITY);
                for (i, &x) in v.iter().enumerate() {
                    recorder.record_with("bench", "e", || vec![f("i", i as u64), f("x", x)]);
                }
                v.len() as f64
            });
            suite.time("obs/jsonl", n, Unit::Event, n, || {
                let (trace, sink) = Trace::to_memory();
                let mut scope = trace.scope("bench");
                for (i, &x) in v.iter().enumerate() {
                    scope.event("e", vec![f("i", i as u64), f("x", x)]);
                }
                render_jsonl(&sink.drain()).len() as f64
            });
        }
        // The aggregation engine's serving-path costs: `agg/ingest` is
        // 256-value batches round-robin over 64 clients into a default
        // (4-shard) aggregate, per value ingested; per call, `agg/merge` is
        // the wire path (parse a shipped snapshot of the same workload and
        // shard-merge it in), `agg/snapshot` serializes the engine, and
        // `agg/finalize` runs the stride-doubling merge tree and rounds.
        {
            use repro_core::agg::{AggConfig, AggEngine};
            let engine = AggEngine::new(AggConfig::default());
            let agg = engine.declare("bench", &values[..values.len().min(1024)]);
            let v = &values;
            suite.time("agg/ingest", n, Unit::Update, n, || {
                for (i, chunk) in v.chunks(256).enumerate() {
                    agg.ingest(i as u64 % 64, chunk);
                }
                v.len() as f64
            });
            let shipped = engine.serialize();
            let local =
                AggEngine::restore(&shipped, AggConfig::default()).expect("own snapshot restores");
            suite.time("agg/merge", n, Unit::Call, 1, || {
                local
                    .merge_serialized(&shipped)
                    .expect("own snapshot merges");
                1.0
            });
            suite.time("agg/snapshot", n, Unit::Call, 1, || {
                engine.serialize().len() as f64
            });
            suite.time("agg/finalize", n, Unit::Call, 1, || {
                f64::from_bits(engine.digest_bits())
            });
        }
        suite.entries
    }

    /// Measured batched-over-scalar superaccumulator throughput ratio
    /// (the PR-5 acceptance number, from the medians), if both entries
    /// are present.
    pub fn batched_over_scalar_ratio(entries: &[BenchEntry]) -> Option<f64> {
        let ns = |op: &str| entries.iter().find(|e| e.op == op).map(|e| e.median_ns);
        Some(ns("superacc/scalar")? / ns("superacc/batched")?)
    }

    /// Render entries as the tracked `BENCH_*.json` document. Field order,
    /// separators, and terminating newline are fixed so the CI determinism
    /// gate can diff two runs byte-for-byte after stripping the three
    /// timing fields.
    pub fn render_json(entries: &[BenchEntry]) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"scale\": \"{:?}\",\n", super::scale()));
        s.push_str("  \"entries\": [\n");
        for (i, e) in entries.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"op\": \"{}\", \"n\": {}, \"unit\": \"{}\", \"reps\": {}, \"min_ns\": {:.4}, \"median_ns\": {:.4}, \"p90_ns\": {:.4}, \"seed\": {}, \"git_rev\": \"{}\"}}{}\n",
                e.op,
                e.n,
                e.unit.label(),
                e.reps,
                e.min_ns,
                e.median_ns,
                e.p90_ns,
                e.seed,
                e.git_rev,
                if i + 1 == entries.len() { "" } else { "," }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use repro_core::fp::simd::{active_tier, Cascade, MAX_PARTS};

        #[test]
        fn suite_covers_required_ops_and_renders_valid_json() {
            std::env::set_var("REPRO_SCALE", "quick");
            let entries = run_suite();
            let unit_of = |op: &str| entries.iter().find(|e| e.op == op).map(|e| e.unit);
            for (op, unit) in [
                ("rung/ST", Unit::Elem),
                ("rung/K", Unit::Elem),
                ("rung/CP", Unit::Elem),
                ("rung/DS/call", Unit::Call),
                ("superacc/scalar", Unit::Elem),
                ("superacc/batched", Unit::Elem),
                ("superacc/wide", Unit::Elem),
                ("simd/scalar", Unit::Elem), // always supported; other tiers follow the machine
                ("select/profile", Unit::Elem),
                ("select/sampled_profile", Unit::Elem),
                ("select/cache_hit", Unit::Elem),
                ("select/cache_miss", Unit::Elem),
                ("obs/noop", Unit::Event),
                ("obs/ring", Unit::Event),
                ("obs/jsonl", Unit::Event),
                ("agg/ingest", Unit::Update),
                ("agg/merge", Unit::Call),
                ("agg/snapshot", Unit::Call),
                ("agg/finalize", Unit::Call),
            ] {
                assert_eq!(unit_of(op), Some(unit), "{op}");
            }
            for parts in 2..=MAX_PARTS + 1 {
                assert_eq!(unit_of(&format!("rung/DS/p{parts}")), Some(Unit::Elem));
            }
            for tier in repro_core::fp::simd::supported_tiers() {
                let op = format!("simd/{}", tier.label());
                assert!(entries.iter().any(|e| e.op == op), "missing {op}");
            }
            for alg in Algorithm::ALL {
                let op = format!("sum/{}", alg.abbrev());
                assert!(entries.iter().any(|e| e.op == op), "missing {op}");
            }
            for e in &entries {
                assert!(e.reps >= 3, "{}", e.op);
                assert!(
                    e.min_ns <= e.median_ns && e.median_ns <= e.p90_ns,
                    "{}",
                    e.op
                );
            }
            assert!(batched_over_scalar_ratio(&entries).unwrap() > 0.0);
            let json = render_json(&entries);
            let parsed = repro_core::obs::Json::parse(json.trim()).expect("valid JSON");
            assert_eq!(parsed.get("schema").unwrap().as_str(), Some(SCHEMA));
        }

        /// Every block `add_slice` can cut from a `rung/DS/p{P}` workload
        /// plans exactly `P` parts (a block of whole 256-value chunks has
        /// the chunks' extremes), the plan refuses the 9-part span, the
        /// profile prices the workload at `P` parts, and the 256 uniform
        /// values of `rung/DS/call` plan two.
        #[test]
        fn rung_workloads_plan_their_part_counts() {
            let tier = active_tier();
            let parts_of = |block: &[f64]| Cascade::plan(tier, block).map(Cascade::parts);
            for parts in 2..=MAX_PARTS + 1 {
                let values = parts_workload(parts, RUNG_N, 2015);
                let expect = (parts <= MAX_PARTS).then_some(parts);
                for chunk in values.chunks(256) {
                    assert_eq!(parts_of(chunk), expect, "{parts} parts");
                }
                assert_eq!(parts_of(&values), expect, "{parts} parts");
                assert_eq!(profile(&values).cascade_parts(), parts);
            }
            assert_eq!(parts_of(&uniform_workload(CALL_N, 2015)), Some(2));
        }
    }
}

/// Time a closure, returning (result, seconds). Used by the timing figures
/// (Criterion is used for the microbenchmarks; the figure tables need raw
/// numbers to print ratios).
pub fn time_it<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Median-of-`reps` wall time of a closure (warm cache: one untimed run
/// first), in seconds.
pub fn median_time(reps: usize, f: impl FnMut() -> f64) -> f64 {
    let times = rep_times(reps, f);
    times[times.len() / 2]
}

/// The wall times of `reps` (at least one) timed runs of a closure, after
/// one untimed run to warm the cache, in seconds, fastest first.
pub fn rep_times(reps: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let mut sink = f(); // warm-up
    let mut times = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let (s, t) = time_it(&mut f);
        sink += s;
        times.push(t);
    }
    std::hint::black_box(sink);
    times.sort_by(f64::total_cmp);
    times
}

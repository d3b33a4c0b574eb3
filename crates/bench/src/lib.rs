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

    /// Label for a k axis value.
    pub fn k_label(k: f64) -> String {
        if k.is_infinite() {
            "inf".into()
        } else {
            format!("{k:.0e}")
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

/// The grid-cell evaluation engine shared by the Figures 9–12 benches —
/// the machinery the paper's Figure 8 illustrates: per cell, generate a set
/// with the cell's parameters, reduce it over many permuted balanced trees
/// with each algorithm, and record the standard deviation of the exact
/// errors.
pub mod sweep {
    use repro_core::fp::{abs_error_vs, exact_sum_acc};
    use repro_core::stats::population_stddev;
    use repro_core::sum::Algorithm;
    use repro_core::tree::permute::PermutationStudy;
    use repro_core::tree::{reduce, TreeShape};

    /// One grid cell's coordinates.
    #[derive(Clone, Copy, Debug)]
    pub struct CellSpec {
        /// Number of values.
        pub n: usize,
        /// Condition-number target (`f64::INFINITY` for the zero-sum row).
        pub k: f64,
        /// Dynamic range target (decimal decades).
        pub dr: u32,
        /// Cell seed.
        pub seed: u64,
        /// Cell scaling (the paper does not specify its normalization; each
        /// figure's bench picks the one that makes its axes meaningful —
        /// see EXPERIMENTS.md "grid normalization").
        pub scaling: CellScaling,
    }

    /// How a grid cell's magnitudes are normalized across cells.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum CellScaling {
        /// Rescale so the exact sum ≈ 1 (`Σ|x| ≈ k`): the k axis drives the
        /// absolute variability — used by the (k, dr) and (n, k) grids
        /// (Figures 9, 11, 12).
        UnitSum,
        /// Keep per-element magnitudes O(1) (`Σ|x| ≈ n`): the n axis drives
        /// the absolute variability — used by the (n, dr) grid (Figure 10).
        UnitElements,
    }

    /// Evaluate many cells on a scoped thread pool (cells are independent
    /// and seeded, so parallelism changes nothing but wall time — matters
    /// at REPRO_SCALE=full where a grid is hours single-threaded).
    /// Results are returned in input order.
    pub fn cells_stddevs_parallel(
        specs: &[CellSpec],
        perms: u64,
        algorithms: &[Algorithm],
    ) -> Vec<Vec<f64>> {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(specs.len().max(1));
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut out: Vec<Option<Vec<f64>>> = vec![None; specs.len()];
        let slots: Vec<std::sync::Mutex<&mut Option<Vec<f64>>>> =
            out.iter_mut().map(std::sync::Mutex::new).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { return };
                    let r = cell_stddevs(*spec, perms, algorithms);
                    **slots[i].lock().expect("slot") = Some(r);
                });
            }
        });
        drop(slots);
        out.into_iter().map(|o| o.expect("computed")).collect()
    }

    /// Evaluate one cell: per algorithm, the stddev of the exact absolute
    /// error across `perms` permuted balanced trees.
    pub fn cell_stddevs(spec: CellSpec, perms: u64, algorithms: &[Algorithm]) -> Vec<f64> {
        let values = match spec.scaling {
            CellScaling::UnitSum => repro_core::gen::grid_cell(
                spec.n,
                spec.k,
                spec.dr,
                spec.seed,
                super::grid_axes::INF_ABS_SUM,
            ),
            CellScaling::UnitElements => {
                use repro_core::gen::{generate, CondTarget, DatasetSpec};
                let condition = if spec.k.is_infinite() {
                    CondTarget::Infinite
                } else if spec.k <= 1.0 {
                    CondTarget::One
                } else {
                    CondTarget::Finite(spec.k)
                };
                // Anchor the window's TOP decade at 1 and extend downward:
                // the dominant magnitudes stay O(1) across the dr axis, so
                // dr contributes only alignment error (the weak gradient the
                // paper reports), not a raw scale change.
                let mut ds = DatasetSpec::new(spec.n, condition, spec.dr, spec.seed);
                ds.scale = -(spec.dr as i32);
                generate(&ds)
            }
        };
        let exact = exact_sum_acc(&values);
        algorithms
            .iter()
            .map(|&alg| {
                let mut errors = Vec::with_capacity(perms as usize);
                PermutationStudy::new(&values, perms, spec.seed ^ 0x5EED).for_each(
                    |_, permuted| {
                        errors.push(abs_error_vs(
                            &exact,
                            reduce(permuted, TreeShape::Balanced, alg),
                        ));
                    },
                );
                population_stddev(&errors)
            })
            .collect()
    }
}

/// The tracked throughput harness behind `repro-reduce bench` and the
/// repo-root `BENCH_*.json` perf trajectory.
///
/// Every future PR appends a comparable point: the workload (uniform values,
/// seeded [`params`] sizes), the op list, and the JSON schema are fixed, so
/// two same-seed runs differ only in the timing fields (`ns_per_elem`,
/// `bytes_per_sec`) — everything else is byte-identical, which is what the
/// CI determinism gate asserts.
pub mod throughput {
    use repro_core::fp::rng::DetRng;
    use repro_core::fp::simd::supported_tiers;
    use repro_core::fp::Superaccumulator;
    use repro_core::select::profile::profile;
    use repro_core::sum::{Accumulator, Algorithm};

    /// One measured point of the fixed schema
    /// `op, n, ns_per_elem, bytes_per_sec, seed, git_rev`.
    #[derive(Clone, Debug)]
    pub struct BenchEntry {
        /// Operation label (e.g. `sum/ST`, `superacc/batched`, `simd/avx2`).
        pub op: String,
        /// Elements per timed run.
        pub n: usize,
        /// Median wall time per element, nanoseconds.
        pub ns_per_elem: f64,
        /// Sustained input bandwidth, bytes per second (`8 n / t`).
        pub bytes_per_sec: f64,
        /// Workload RNG seed.
        pub seed: u64,
        /// Git revision the numbers were measured at.
        pub git_rev: String,
    }

    /// The uniform `[0, 1)` workload every op but `superacc/wide` is timed
    /// on (the harness's baseline distribution: benign exponent range, so
    /// the superaccumulator's cascade takes two parts and the ≥ 2×
    /// batched-vs-scalar acceptance ratio is measured under
    /// favourable-but-realistic data).
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

    /// Median ns/element of `f` over `values` (warm cache, [`super::median_time`]).
    fn measure(
        op: &str,
        values: &[f64],
        seed: u64,
        git_rev: &str,
        reps: usize,
        mut f: impl FnMut(&[f64]) -> f64,
    ) -> BenchEntry {
        let secs = super::median_time(reps, || f(values));
        let n = values.len().max(1);
        BenchEntry {
            op: op.to_string(),
            n: values.len(),
            ns_per_elem: secs * 1e9 / n as f64,
            bytes_per_sec: (n * std::mem::size_of::<f64>()) as f64 / secs.max(1e-12),
            seed,
            git_rev: git_rev.to_string(),
        }
    }

    /// Run the full suite at the current [`super::scale`]: every `sum`
    /// operator, the superaccumulator scalar vs batched paths, the batched
    /// path on wide-range data ([`wide_workload`]), the batched path once
    /// per supported SIMD dispatch tier (`simd/<tier>` — the
    /// entry *list* follows the machine, which the CI op-coverage check
    /// probes via `repro-reduce simd --check`), and the selector's profile
    /// pass (serial and fused). Entry order is fixed. `superacc/batched`
    /// stays on the active tier — it reports what `add_slice` actually
    /// delivers here.
    pub fn run_suite() -> Vec<BenchEntry> {
        let p = super::params();
        let n = p.timing_n;
        let seed = p.seed;
        let reps = p.timing_reps.clamp(3, 20);
        let rev = git_rev();
        let values = uniform_workload(n, seed);
        let mut out = Vec::new();
        for alg in Algorithm::ALL {
            out.push(measure(
                &format!("sum/{}", alg.abbrev()),
                &values,
                seed,
                &rev,
                reps,
                |v| {
                    let mut acc = alg.new_accumulator();
                    acc.add_slice(v);
                    acc.finalize()
                },
            ));
        }
        out.push(measure("superacc/scalar", &values, seed, &rev, reps, |v| {
            let mut acc = Superaccumulator::new();
            for &x in v {
                acc.add(x);
            }
            acc.to_f64()
        }));
        out.push(measure(
            "superacc/batched",
            &values,
            seed,
            &rev,
            reps,
            |v| {
                let mut acc = Superaccumulator::new();
                acc.add_slice(v);
                acc.to_f64()
            },
        ));
        out.push(measure(
            "superacc/wide",
            &wide_workload(n, seed),
            seed,
            &rev,
            reps,
            |v| {
                let mut acc = Superaccumulator::new();
                acc.add_slice(v);
                acc.to_f64()
            },
        ));
        for &tier in supported_tiers() {
            out.push(measure(
                &format!("simd/{}", tier.label()),
                &values,
                seed,
                &rev,
                reps,
                |v| {
                    let mut acc = Superaccumulator::new();
                    acc.add_slice_with_tier(v, tier);
                    acc.to_f64()
                },
            ));
        }
        out.push(measure("select/profile", &values, seed, &rev, reps, |v| {
            profile(v).sum_estimate
        }));
        // The always-on selection fast path: strided sampled profiling
        // (cost amortized over the *full* n, the number that competes with
        // select/profile), then the cached decision path warm (cache_hit)
        // and cold (cache_miss, cleared every rep — selection plus insert
        // plus the reduction itself).
        {
            use repro_core::select::sample::{SampleConfig, SampledProfile};
            use repro_core::select::{AdaptiveReducer, DecisionCache, Tolerance};
            out.push(measure(
                "select/sampled_profile",
                &values,
                seed,
                &rev,
                reps,
                |v| {
                    let s = SampledProfile::collect(v, &SampleConfig::default());
                    s.estimated_profile().sum_estimate
                },
            ));
            let reducer = AdaptiveReducer::heuristic(Tolerance::AbsoluteSpread(1e-6));
            let cache = DecisionCache::new();
            let _ = reducer.reduce_cached(&values, &cache); // warm the cache
            out.push(measure(
                "select/cache_hit",
                &values,
                seed,
                &rev,
                reps,
                |v| reducer.reduce_cached(v, &cache).sum,
            ));
            out.push(measure(
                "select/cache_miss",
                &values,
                seed,
                &rev,
                reps,
                |v| {
                    cache.clear();
                    reducer.reduce_cached(v, &cache).sum
                },
            ));
        }
        // The observability tax, one event per element so `ns_per_elem`
        // *is* the per-event cost: a disabled scope (the price of leaving
        // instrumentation in a hot path — `event_with` skips field
        // construction entirely, so this is a branch, not an allocation),
        // the flight recorder's bounded ring (the always-on cost ceiling),
        // and a full JSONL render into a discarded writer (what
        // `--trace`-style streaming would pay).
        {
            use repro_core::obs::{f, JsonlSink, RingSink, Trace};
            use std::sync::Arc;
            out.push(measure("obs/noop", &values, seed, &rev, reps, |v| {
                let trace = Trace::disabled();
                let mut scope = trace.scope("bench");
                for (i, &x) in v.iter().enumerate() {
                    scope.event_with("e", || vec![f("i", i as u64), f("x", x)]);
                }
                v.len() as f64
            }));
            out.push(measure("obs/ring", &values, seed, &rev, reps, |v| {
                let ring = Arc::new(RingSink::new(1024));
                let trace = Trace::to_sink(ring);
                let mut scope = trace.scope("bench");
                for (i, &x) in v.iter().enumerate() {
                    scope.event("e", vec![f("i", i as u64), f("x", x)]);
                }
                v.len() as f64
            }));
            out.push(measure("obs/jsonl", &values, seed, &rev, reps, |v| {
                let trace = Trace::to_sink(Arc::new(JsonlSink::new(std::io::sink())));
                let mut scope = trace.scope("bench");
                for (i, &x) in v.iter().enumerate() {
                    scope.event("e", vec![f("i", i as u64), f("x", x)]);
                }
                v.len() as f64
            }));
        }
        // The aggregation engine's serving-path costs, amortized per
        // ingested element: `agg/ingest` is 256-value batches round-robin
        // over 64 clients into a default (4-shard) aggregate; `agg/merge`
        // is the wire path (parse a shipped snapshot of the same workload
        // and shard-merge it in); `agg/snapshot` serializes the engine;
        // `agg/finalize` runs the stride-doubling merge tree and rounds.
        {
            use repro_core::agg::{AggConfig, AggEngine};
            let engine = AggEngine::new(AggConfig::default());
            let agg = engine.declare("bench", &values[..values.len().min(1024)]);
            out.push(measure("agg/ingest", &values, seed, &rev, reps, |v| {
                for (i, chunk) in v.chunks(256).enumerate() {
                    agg.ingest(i as u64 % 64, chunk);
                }
                v.len() as f64
            }));
            let shipped = engine.serialize();
            let local =
                AggEngine::restore(&shipped, AggConfig::default()).expect("own snapshot restores");
            out.push(measure("agg/merge", &values, seed, &rev, reps, |v| {
                local
                    .merge_serialized(&shipped)
                    .expect("own snapshot merges");
                v.len() as f64
            }));
            out.push(measure("agg/snapshot", &values, seed, &rev, reps, |v| {
                engine.serialize().len() as f64 + v.len() as f64
            }));
            out.push(measure("agg/finalize", &values, seed, &rev, reps, |_| {
                f64::from_bits(engine.digest_bits())
            }));
        }
        out
    }

    /// Measured batched-over-scalar superaccumulator throughput ratio
    /// (the PR-5 acceptance number), if both entries are present.
    pub fn batched_over_scalar_ratio(entries: &[BenchEntry]) -> Option<f64> {
        let ns = |op: &str| entries.iter().find(|e| e.op == op).map(|e| e.ns_per_elem);
        Some(ns("superacc/scalar")? / ns("superacc/batched")?)
    }

    /// Render entries as the tracked `BENCH_*.json` document. Field order,
    /// separators, and terminating newline are fixed so the CI determinism
    /// gate can diff two runs byte-for-byte after stripping the two timing
    /// fields.
    pub fn render_json(entries: &[BenchEntry]) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"schema\": \"repro-bench-throughput-v1\",\n");
        s.push_str(&format!("  \"scale\": \"{:?}\",\n", super::scale()));
        s.push_str("  \"entries\": [\n");
        for (i, e) in entries.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"op\": \"{}\", \"n\": {}, \"ns_per_elem\": {:.4}, \"bytes_per_sec\": {:.0}, \"seed\": {}, \"git_rev\": \"{}\"}}{}\n",
                e.op,
                e.n,
                e.ns_per_elem,
                e.bytes_per_sec,
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

        #[test]
        fn suite_covers_required_ops_and_renders_valid_json() {
            std::env::set_var("REPRO_SCALE", "quick");
            let entries = run_suite();
            for op in [
                "superacc/scalar",
                "superacc/batched",
                "superacc/wide",
                "simd/scalar", // always supported; other tiers follow the machine
                "select/profile",
                "select/sampled_profile",
                "select/cache_hit",
                "select/cache_miss",
                "obs/noop",
                "obs/ring",
                "obs/jsonl",
                "agg/ingest",
                "agg/merge",
                "agg/snapshot",
                "agg/finalize",
            ] {
                assert!(entries.iter().any(|e| e.op == op), "missing {op}");
            }
            for tier in repro_core::fp::simd::supported_tiers() {
                let op = format!("simd/{}", tier.label());
                assert!(entries.iter().any(|e| e.op == op), "missing {op}");
            }
            for alg in Algorithm::ALL {
                let op = format!("sum/{}", alg.abbrev());
                assert!(entries.iter().any(|e| e.op == op), "missing {op}");
            }
            assert!(batched_over_scalar_ratio(&entries).unwrap() > 0.0);
            let json = render_json(&entries);
            let parsed = repro_core::obs::Json::parse(json.trim()).expect("valid JSON");
            assert_eq!(
                parsed.get("schema").unwrap().as_str(),
                Some("repro-bench-throughput-v1")
            );
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
pub fn median_time(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut sink = f(); // warm-up
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (s, t) = time_it(&mut f);
        sink += s;
        times.push(t);
    }
    std::hint::black_box(sink);
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

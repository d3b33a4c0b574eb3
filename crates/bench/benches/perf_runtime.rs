//! **Runtime engine benchmark** — the pooled work-stealing engine against
//! the old spawn-per-call executor, across worker counts, for a cheap
//! operator (ST) and a reproducible one (PR). The acceptance bar for the
//! runtime: at 1M elements and ≥4 workers the persistent pool must beat
//! spawning threads per call.

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use repro_core::runtime::{spawn_reduce, MergeOrder, ReductionPlan, Runtime};
use repro_core::sum::{Accumulator, BinnedSum, StandardSum};

const N: usize = 1 << 20; // 1M elements

fn pooled_vs_spawn(c: &mut Criterion) {
    let values = repro_core::gen::zero_sum_with_range(N, 8, 42);
    let mut group = c.benchmark_group("engine");
    group.sample_size(20);
    group.throughput(Throughput::Elements(N as u64));
    for &workers in &[1usize, 2, 4, 8] {
        let rt = Runtime::new(workers);
        let plan = ReductionPlan::with_chunk_count(N, workers);
        group.bench_with_input(
            BenchmarkId::new("pooled/ST", workers),
            &values,
            |b, values| b.iter(|| rt.reduce(values, &plan, StandardSum::new, MergeOrder::Arrival)),
        );
        group.bench_with_input(
            BenchmarkId::new("spawn/ST", workers),
            &values,
            |b, values| {
                b.iter(|| spawn_reduce(values, workers, StandardSum::new, MergeOrder::Arrival))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("pooled/PR", workers),
            &values,
            |b, values| {
                b.iter(|| rt.reduce(values, &plan, || BinnedSum::new(3), MergeOrder::Arrival))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("spawn/PR", workers),
            &values,
            |b, values| {
                b.iter(|| spawn_reduce(values, workers, || BinnedSum::new(3), MergeOrder::Arrival))
            },
        );
    }
    group.finish();
}

fn stats_snapshot() {
    let values = repro_core::gen::zero_sum_with_range(N, 8, 44);
    let rt = Runtime::new(4);
    let plan = ReductionPlan::for_len(N);
    let (acc, stats) = rt.accumulate(&values, &plan, || BinnedSum::new(3), MergeOrder::Plan);
    println!("runtime stats (PR, 1M, 4 workers): {stats}");
    black_box(acc.finalize());
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    pooled_vs_spawn(&mut c);
    stats_snapshot();
    c.final_summary();
}

//! **Microbenchmarks** — per-element cost of every operator across input
//! sizes, plus the dot-product variants. Criterion-powered; a finer-grained
//! view of the per-operator costs behind the per-call prices the
//! selector's default cost model reads from the committed `BENCH_26.json`
//! baseline (refreshed with `repro-reduce bench`).

use criterion::{BenchmarkId, Criterion, Throughput};
use repro_core::runtime::{MergeOrder, ReductionPlan, Runtime};
use repro_core::sum::{dot2, dot_reproducible, dot_standard, Accumulator, Algorithm};

fn operator_sums(c: &mut Criterion) {
    let mut group = c.benchmark_group("operators");
    group.sample_size(20);
    for &n in &[1_024usize, 65_536] {
        let values = repro_core::gen::zero_sum_with_range(n, 8, 2015);
        group.throughput(Throughput::Elements(n as u64));
        for alg in Algorithm::ALL {
            group.bench_with_input(BenchmarkId::new(alg.abbrev(), n), &values, |b, values| {
                b.iter(|| {
                    let mut acc = alg.new_accumulator();
                    acc.add_slice(values);
                    acc.finalize()
                })
            });
        }
    }
    group.finish();
}

fn operator_sums_pooled(c: &mut Criterion) {
    // Same operators, but chunked across the shared persistent pool —
    // the per-element cost the runtime selector actually pays.
    let mut group = c.benchmark_group("operators_pooled");
    group.sample_size(20);
    let n = 1 << 20;
    let values = repro_core::gen::zero_sum_with_range(n, 8, 2015);
    let plan = ReductionPlan::for_len(n);
    group.throughput(Throughput::Elements(n as u64));
    for alg in Algorithm::ALL {
        group.bench_with_input(BenchmarkId::new(alg.abbrev(), n), &values, |b, values| {
            b.iter(|| {
                Runtime::global().reduce(values, &plan, || alg.new_accumulator(), MergeOrder::Plan)
            })
        });
    }
    group.finish();
}

fn dot_products(c: &mut Criterion) {
    let mut group = c.benchmark_group("dot");
    group.sample_size(20);
    let n = 65_536usize;
    let x = repro_core::gen::uniform(n, -100.0, 100.0, 1);
    let y = repro_core::gen::uniform(n, -100.0, 100.0, 2);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("standard", |b| b.iter(|| dot_standard(&x, &y)));
    group.bench_function("dot2", |b| b.iter(|| dot2(&x, &y)));
    group.bench_function("reproducible_fold3", |b| {
        b.iter(|| dot_reproducible(&x, &y, 3))
    });
    group.finish();
}

fn exact_oracles(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracles");
    group.sample_size(20);
    let n = 65_536usize;
    let values = repro_core::gen::zero_sum_with_range(n, 16, 7);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("superaccumulator", |b| {
        b.iter(|| repro_core::fp::exact_sum(&values))
    });
    group.bench_function("expansion_distill", |b| {
        b.iter(|| repro_core::sum::DistillSum::sum_slice(&values))
    });
    group.finish();
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    operator_sums(&mut c);
    operator_sums_pooled(&mut c);
    dot_products(&mut c);
    exact_oracles(&mut c);
    c.final_summary();
}

//! **Stress** — reproducibility torture: hammer the reproducible operators
//! with millions of deposits across hostile exponent distributions, random
//! merge topologies, and real thread nondeterminism, checking bitwise
//! agreement and exactness against the superaccumulator throughout.
//!
//! This target exists because a paper-scale Figure 7 run once falsified the
//! binned operator (see EXPERIMENTS.md, "A reproduction finding worth
//! reporting"); the conditions that caught it — wide dynamic range, many
//! renorm cycles, multiple window raises — are distilled here and run at
//! every scale.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use repro_bench::{banner, params, scale, Scale};
use repro_core::prelude::*;
use repro_core::sum::DistillSum;

fn main() {
    let p = params();
    banner(
        "stress_reproducibility",
        "reproducibility contracts under stress (regression armor)",
        "bitwise agreement across shuffles, topologies, and threads at scale",
    );
    let (n, shuffles, rounds) = match scale() {
        Scale::Quick => (20_000, 10, 4),
        Scale::Default => (200_000, 20, 8),
        Scale::Full => (1_000_000, 50, 16),
    };

    let mut failures = 0usize;
    for round in 0..rounds {
        // Rotate through hostile exponent distributions.
        let dr = [8u32, 16, 24, 32][round % 4];
        let seed = p.seed.wrapping_add(round as u64 * 7919);
        let mut values = repro_core::gen::zero_sum_with_range(n, dr, seed);
        let exact = repro_core::fp::exact_sum(&values);

        // 1. Shuffle invariance for PR (fold 1..4) and Distill.
        let pr_refs: Vec<f64> = (1..=4)
            .map(|fold| repro_core::sum::BinnedSum::sum_slice(&values, fold))
            .collect();
        let ds_ref = DistillSum::sum_slice(&values);
        assert_eq!(ds_ref.to_bits(), exact.to_bits(), "Distill must be exact");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        for s in 0..shuffles {
            values.shuffle(&mut rng);
            for (fold, &want) in (1..=4).zip(pr_refs.iter()) {
                let got = repro_core::sum::BinnedSum::sum_slice(&values, fold);
                if got.to_bits() != want.to_bits() {
                    println!("FAIL round {round} shuffle {s}: PR fold {fold} diverged");
                    failures += 1;
                }
            }
            if s % 5 == 0 {
                let got = DistillSum::sum_slice(&values);
                if got.to_bits() != ds_ref.to_bits() {
                    println!("FAIL round {round} shuffle {s}: Distill diverged");
                    failures += 1;
                }
            }
        }

        // 2. Random merge topologies.
        for t in 0..3 {
            let got = random_topology(&values, seed ^ t);
            if got.to_bits() != pr_refs[2].to_bits() {
                println!("FAIL round {round} topology {t}: PR fold 3 diverged");
                failures += 1;
            }
        }

        // 3. Real thread nondeterminism (arrival-order merges).
        use repro_core::runtime::{MergeOrder, ReductionPlan, Runtime};
        let plan = ReductionPlan::with_chunk_count(values.len(), 8);
        for _ in 0..3 {
            let got = Runtime::global().reduce(
                &values,
                &plan,
                || repro_core::sum::BinnedSum::new(3),
                MergeOrder::Arrival,
            );
            if got.to_bits() != pr_refs[2].to_bits() {
                println!("FAIL round {round}: threaded PR diverged");
                failures += 1;
            }
        }
        println!(
            "round {round}: n = {n}, dr = {dr}: PR folds 1-4, Distill, topologies, threads all bitwise stable"
        );
    }
    println!(
        "\n{} rounds x ({} shuffles x 4 folds + topology + thread checks): {} failures",
        rounds, shuffles, failures
    );
    assert_eq!(failures, 0, "reproducibility stress found divergence");
    println!("shape check: PASS");
}

fn random_topology(values: &[f64], seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parts: Vec<repro_core::sum::BinnedSum> = Vec::new();
    let mut i = 0usize;
    while i < values.len() {
        let take = rng.random_range(1..=(values.len() - i).min(5000));
        let mut acc = repro_core::sum::BinnedSum::new(3);
        acc.add_slice(&values[i..i + take]);
        parts.push(acc);
        i += take;
    }
    while parts.len() > 1 {
        let j = rng.random_range(1..parts.len());
        let other = parts.swap_remove(j);
        let k = rng.random_range(0..parts.len());
        parts[k].merge(&other);
    }
    parts.pop().unwrap().finalize()
}

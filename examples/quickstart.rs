//! Quickstart: why floating-point reductions are irreproducible, what each
//! summation operator does about it, and how the adaptive selector picks one.
//!
//! ```sh
//! cargo run --release -p repro-examples --bin quickstart
//! ```

use repro_core::fp::rng::DetRng;
use repro_core::prelude::*;
use repro_core::stats::{descriptive::Summary, table::sci, Table};

fn main() {
    // ------------------------------------------------------------------
    // 1. Non-associativity in three lines (the paper's intro example).
    // ------------------------------------------------------------------
    let (a, b, c) = (1e9, -1e9, 1e-9);
    println!("(a + b) + c = {:e}", (a + b) + c);
    println!("a + (b + c) = {:e}", a + (b + c));
    println!("exact       = {:e}\n", exact_sum(&[a, b, c]));

    // ------------------------------------------------------------------
    // 2. An ill-conditioned workload: exact sum zero, dr = 32 decades.
    // ------------------------------------------------------------------
    let values = repro_core::gen::zero_sum_with_range(100_000, 32, 42);
    println!(
        "workload: n = {}, k = {:e}, dr = {} decades, exact sum = {:e}",
        values.len(),
        condition_number(&values),
        dynamic_range(&values).unwrap(),
        exact_sum(&values),
    );

    // ------------------------------------------------------------------
    // 3. Shuffle the reduction order 20 times per algorithm and watch who
    //    stays put (a miniature of the paper's Figure 7).
    // ------------------------------------------------------------------
    let mut table = Table::new(&[
        "algorithm",
        "min |error|",
        "max |error|",
        "spread (stddev)",
        "bitwise stable",
    ]);
    let mut rng = DetRng::seed_from_u64(7);
    for alg in Algorithm::PAPER_SET {
        let mut shuffled = values.clone();
        let mut errors = Vec::new();
        let mut bits = std::collections::HashSet::new();
        for _ in 0..20 {
            rng.shuffle(&mut shuffled);
            let sum = tree::reduce(&shuffled, TreeShape::Balanced, alg);
            bits.insert(sum.to_bits());
            errors.push(abs_error(sum, &values));
        }
        let s = Summary::of(&errors);
        table.row(&[
            alg.to_string(),
            sci(s.min),
            sci(s.max),
            sci(s.stddev),
            if bits.len() == 1 {
                "yes".into()
            } else {
                format!("no ({} values)", bits.len())
            },
        ]);
    }
    println!("\nerror across 20 random reduction orders (balanced tree):");
    println!("{}", table.render());

    // ------------------------------------------------------------------
    // 4. Let the runtime pick: cheapest algorithm meeting each tolerance.
    // ------------------------------------------------------------------
    println!("adaptive selection on this workload:");
    for t in [1e-6, 1e-10, 1e-13, 1e-16] {
        let reducer = AdaptiveReducer::heuristic(Tolerance::AbsoluteSpread(t));
        let outcome = reducer.reduce(&values);
        println!(
            "  tolerance {:>8.0e}  ->  {:<12}  sum = {:e}",
            t,
            outcome.algorithm.to_string(),
            outcome.sum
        );
    }
    let bitwise = AdaptiveReducer::heuristic(Tolerance::Bitwise).reduce(&values);
    println!(
        "  bitwise          ->  {:<12}  sum = {:e}",
        bitwise.algorithm.to_string(),
        bitwise.sum
    );

    // ------------------------------------------------------------------
    // 5. The persistent runtime: same data, pooled workers, racing
    //    arrival-order merges — and the reproducible operator holds.
    // ------------------------------------------------------------------
    use repro_core::runtime::{MergeOrder, ReductionPlan, Runtime};
    use repro_core::sum::BinnedSum;
    let rt = Runtime::global();
    let plan = ReductionPlan::with_chunk_len(values.len(), 8 * 1024);
    let mut arrival_bits = std::collections::HashSet::new();
    for _ in 0..10 {
        let sum = rt.reduce(&values, &plan, || BinnedSum::new(3), MergeOrder::Arrival);
        arrival_bits.insert(sum.to_bits());
    }
    let (acc, stats) = rt.accumulate(&values, &plan, || BinnedSum::new(3), MergeOrder::Plan);
    let sum = acc.finalize();
    println!("\npersistent runtime ({} workers):", rt.workers());
    println!(
        "  PR over 10 racing arrival-order runs: {} distinct bit pattern(s)",
        arrival_bits.len()
    );
    println!("  plan-order: sum = {sum:e}");
    println!("  {stats}");
    assert_eq!(arrival_bits.len(), 1, "PR must absorb arrival-order races");
    assert!(
        arrival_bits.contains(&sum.to_bits()),
        "merge orders must agree for PR"
    );
}

//! Verified reduction: measure irreproducibility instead of predicting it.
//!
//! The `VerifiedReducer` reduces the data under two independent random
//! orders; if the runs disagree beyond the tolerance it escalates to the
//! next costlier operator — the paper's reproducibility definition
//! ("closeness of agreement among repeated simulation results") enforced
//! empirically at runtime.
//!
//! ```sh
//! cargo run --release -p repro-examples --bin verified_reduction
//! ```

use repro_core::prelude::*;
use repro_core::select::VerifiedReducer;
use repro_core::stats::{table::sci, Table};

fn main() {
    let workloads: Vec<(&str, Vec<f64>)> = vec![
        ("benign: 1..10^5", (1..=100_000).map(|i| i as f64).collect()),
        (
            "moderate: k=1e6, dr=16",
            repro_core::gen::grid_cell(100_000, 1e6, 16, 7, 1e16),
        ),
        (
            "hostile: zero-sum, dr=32",
            repro_core::gen::zero_sum_with_range(100_000, 32, 7),
        ),
    ];

    for tolerance in [Tolerance::AbsoluteSpread(1e-9), Tolerance::Bitwise] {
        println!("tolerance: {tolerance:?}");
        let mut t = Table::new(&[
            "workload",
            "ladder climbed",
            "accepted",
            "result",
            "|error|",
        ]);
        for (name, values) in &workloads {
            let reducer = VerifiedReducer::new(tolerance, 2015);
            let outcome = reducer.reduce(values);
            let climbed = outcome
                .disagreements
                .iter()
                .map(|(a, d)| format!("{}:{}", a.abbrev(), sci(*d)))
                .collect::<Vec<_>>()
                .join(" → ");
            t.row(&[
                name.to_string(),
                climbed,
                outcome.algorithm.to_string(),
                sci(outcome.sum),
                sci(repro_core::fp::abs_error(outcome.sum, values)),
            ]);
        }
        println!("{}", t.render());
    }
    println!(
        "reading: the ladder column shows each tried operator with its measured\n\
         two-run disagreement; escalation stops at the first operator whose runs\n\
         agree within tolerance. No model, no calibration — just the paper's\n\
         definition of reproducibility, checked."
    );
}

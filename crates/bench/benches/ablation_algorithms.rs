//! **Ablation** — extended operator set: where do Neumaier and pairwise
//! summation (classical algorithms outside the paper's four) land on the
//! Figure-7 workload?
//!
//! Expected: pairwise improves on ST by a log-factor but still varies;
//! Neumaier tracks Kahan (it fixes Kahan's large-addend weakness, which
//! this workload exercises only mildly); neither approaches CP/PR.

use repro_bench::{banner, params};
use repro_core::fp::exact_sum_acc;
use repro_core::stats::{descriptive::Boxplot, population_stddev, table::sci, Table};
use repro_core::sum::Algorithm;
use repro_core::tree::permute::PermutationStudy;
use repro_core::tree::TreeShape;

fn main() {
    let p = params();
    banner(
        "ablation_algorithms",
        "design study: extended operator set (DESIGN.md ablations)",
        "Neumaier and pairwise vs the paper's four on the Figure-7 workload",
    );
    let n = p.fig7_sizes[0];
    let values = repro_core::gen::zero_sum_with_range(n, 32, p.seed ^ 0xA16);
    let exact = exact_sum_acc(&values);

    let mut t = Table::new(&[
        "algorithm",
        "cost rank",
        "median |error|",
        "stddev",
        "max |error|",
    ]);
    let mut spreads = std::collections::HashMap::new();
    for alg in Algorithm::ALL {
        let study = PermutationStudy::new(&values, p.fig7_perms, p.seed ^ 0xA17);
        let errors = study.errors(&exact, TreeShape::Balanced, alg);
        let b = Boxplot::of(&errors);
        let sd = population_stddev(&errors);
        spreads.insert(alg.abbrev(), sd);
        t.row(&[
            alg.to_string(),
            alg.cost_rank().to_string(),
            sci(b.median),
            sci(sd),
            sci(b.max),
        ]);
    }
    println!(
        "\nn = {n}, {} permutations, balanced trees:\n{}",
        p.fig7_perms,
        t.render()
    );

    println!("readings:");
    println!(
        "  pairwise vs ST: {} vs {} (log-factor structure, still order-sensitive)",
        sci(spreads["PW"]),
        sci(spreads["ST"])
    );
    println!(
        "  Neumaier vs Kahan: {} vs {} (same compensation class)",
        sci(spreads["N"]),
        sci(spreads["K"])
    );
    println!(
        "  neither reaches CP ({}) or PR ({}) — the paper's four remain the\n\
         \tright selection ladder; the extensions only refine the cheap end.",
        sci(spreads["CP"]),
        sci(spreads["PR"])
    );
}

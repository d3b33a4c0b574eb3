//! **Ablation** — the tree-shape spectrum: the paper studies the two
//! extremes (balanced, serial); this ablation fills in the middle
//! (binomial, random, skewed) to show variability degrades *gradually* as
//! trees leave balance, which motivates the paper's call for applications
//! to "maintain awareness of the degree of fluctuation in reduction tree
//! shape".

use repro_bench::{banner, params};
use repro_core::fp::exact_sum_acc;
use repro_core::stats::{population_stddev, table::sci, Table};
use repro_core::sum::Algorithm;
use repro_core::tree::permute::PermutationStudy;
use repro_core::tree::TreeShape;

fn main() {
    let p = params();
    banner(
        "ablation_tree_shapes",
        "design study: tree-shape spectrum (DESIGN.md ablations)",
        "error variability per shape per algorithm on the Figure-7 workload",
    );
    let n = p.fig7_sizes[0];
    let values = repro_core::gen::zero_sum_with_range(n, 32, p.seed ^ 0x7EE);
    let exact = exact_sum_acc(&values);

    let shapes = [
        TreeShape::Balanced,
        TreeShape::Binomial,
        TreeShape::Random { seed: 11 },
        TreeShape::Skewed { ratio: 100 },
        TreeShape::Serial,
    ];

    let mut t = Table::new(&[
        "shape",
        "depth",
        "ST stddev",
        "K stddev",
        "CP stddev",
        "PR stddev",
    ]);
    for shape in shapes {
        let mut row = vec![shape.label(), shape.depth(n).to_string()];
        for alg in Algorithm::PAPER_SET {
            let study = PermutationStudy::new(&values, p.fig7_perms, p.seed ^ 3);
            row.push(sci(population_stddev(&study.errors(&exact, shape, alg))));
        }
        t.row(&row);
    }
    println!(
        "\nn = {n}, {} permutations per cell:\n{}",
        p.fig7_perms,
        t.render()
    );
    println!(
        "reading: ST/K variability grows as shapes deepen toward serial; CP stays\n\
         several orders below; PR is identically zero on every shape."
    );
}

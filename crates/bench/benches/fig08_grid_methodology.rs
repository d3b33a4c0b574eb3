//! **Figure 8** — "Overview of the grid with its cells used to study the
//! effect of concurrency, conditioning, and dynamic range."
//!
//! Figure 8 is the paper's methodology diagram, not a data figure; its
//! reproduction is the one cell measurement every grid runs
//! (`repro_select::calibrate::spreads`, over cells from
//! `repro_gen::grid_cell` laid out by `repro_bench::sweep::grids`). This
//! bench documents the protocol and runs it end-to-end on a single
//! demonstration cell so every stage is visible.

use repro_bench::{banner, params};
use repro_core::fp::exact_sum_acc;
use repro_core::gen::{grid_cell, measure};
use repro_core::select::calibrate::spreads;
use repro_core::stats::{population_stddev, table::sci, Table};
use repro_core::sum::Algorithm;
use repro_core::tree::permute::PermutationStudy;
use repro_core::tree::TreeShape;

fn main() {
    let p = params();
    banner(
        "fig08_grid_methodology",
        "Figure 8",
        "the per-cell protocol behind Figures 9-12, demonstrated stage by stage",
    );
    println!(
        "\nprotocol (per grid cell):\n\
          1. generate a set of n floating-point values with the cell's (k, dr);\n\
         2. verify the realized parameters exactly (superaccumulator);\n\
         3. build R distinct balanced reduction trees by permuting the\n\
            assignment of values to leaves;\n\
         4. reduce with each algorithm on every tree;\n\
         5. measure each sum's error against the exact reference;\n\
         6. shade the cell by the standard deviation of the errors.\n"
    );

    // Demonstration cell: k = 1e8, dr = 16.
    let (k, dr) = (1e8, 16u32);
    let values = grid_cell(p.grid_n, k, dr, p.seed, repro_bench::grid_axes::INF_ABS_SUM);
    let m = measure(&values);
    println!(
        "stage 1-2: generated n = {} with target (k = {:.0e}, dr = {dr});\n\
         realized exactly: k = {}, dr = {}, sum = {}, Σ|x| = {}\n",
        m.n,
        k,
        sci(m.k),
        m.dr,
        sci(m.sum),
        sci(m.abs_sum)
    );

    let exact = exact_sum_acc(&values);
    let stream = p.seed ^ 0x5EED; // the grid benches' permutation stream
    let mut t = Table::new(&["algorithm", "first 3 errors ...", "stddev (cell shade)"]);
    for alg in Algorithm::PAPER_SET {
        let study = PermutationStudy::new(&values, p.grid_perms, stream);
        let errors = study.errors(&exact, TreeShape::Balanced, alg);
        t.row(&[
            alg.to_string(),
            errors
                .iter()
                .take(3)
                .map(|e| sci(*e))
                .collect::<Vec<_>>()
                .join(", "),
            sci(population_stddev(&errors)),
        ]);
    }
    println!(
        "stage 3-6: {} permuted balanced trees per algorithm:\n{}",
        p.grid_perms,
        t.render()
    );

    // And the packaged form every grid calls:
    let stds = spreads(&values, p.grid_perms, stream, &Algorithm::PAPER_SET);
    println!(
        "packaged calibrate::spreads output (same protocol): {}",
        stds.iter().map(|s| sci(*s)).collect::<Vec<_>>().join(", ")
    );
    println!("shape check: PASS (methodology demonstration)");
}

//! **Figure 11** — "Standard deviation errors for standard summation (left),
//! Kahan summation (middle), and composite precision summation (right) for
//! different (n, k) values and fixed dynamic range dr."
//!
//! Expected shape: "a strong relationship between high variability of sums
//! and sets of summands with high condition number" — the k-axis gradient
//! dominates the n-axis gradient, and dwarfs Figure 10's dr gradient.

use repro_bench::{banner, grid_axes, sweep};
use repro_core::gen::grid_cell;
use repro_core::sum::Algorithm;

const FIXED_DR: u32 = 8;

fn main() {
    banner(
        "fig11_grid_n_k",
        "Figure 11",
        "stddev-of-error grids over (n, k) at fixed dr, panels: ST / K / CP",
    );
    let ns = grid_axes::n_targets(repro_bench::scale());
    let ks = grid_axes::k_targets();
    let algorithms = [Algorithm::Standard, Algorithm::Kahan, Algorithm::Composite];
    let grids = sweep::grids(("n", &ns), ("k", &ks), &algorithms, |n, k, seed| {
        grid_cell(n, k, FIXED_DR, seed, grid_axes::INF_ABS_SUM)
    });
    sweep::print_panels(&algorithms, &grids, &format!("dr = {FIXED_DR}"));

    let st = &grids[0];
    let (rows, cols) = (st.rows(), st.cols());
    // k gradient along the top n row (excluding the inf column's fixed scale).
    let k_growth = st.get(rows - 1, cols - 2) / st.get(rows - 1, 0).max(f64::MIN_POSITIVE);
    let n_growth = st.get(rows - 1, 0) / st.get(0, 0).max(f64::MIN_POSITIVE);
    println!("expected shapes (paper) and measurements:");
    let c1 = k_growth > 1e4;
    println!(
        "  [{}] strong k gradient for ST at fixed n ({:.1e}x across the k range)",
        if c1 { "PASS" } else { "FAIL" },
        k_growth
    );
    let c2 = k_growth > n_growth;
    println!(
        "  [{}] k dominates n ({:.1e}x vs {:.1e}x)",
        if c2 { "PASS" } else { "FAIL" },
        k_growth,
        n_growth
    );
    println!("shape check: {}", if c1 && c2 { "PASS" } else { "FAIL" });
}

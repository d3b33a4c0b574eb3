//! **Figure 9** — "Standard deviation errors for standard summation (left),
//! Kahan summation (middle), and composite precision summation (right) for
//! different (k, dr) values and fixed concurrency n."
//!
//! Expected shape: cells darken (greater variability) toward high condition
//! number; dr exerts a much weaker pull; the CP panel is flat at orders of
//! magnitude below ST/K everywhere (the paper renders it as "did not vary").

use repro_bench::{banner, grid_axes, params, sweep};
use repro_core::gen::grid_cell;
use repro_core::sum::Algorithm;

fn main() {
    let p = params();
    banner(
        "fig09_grid_k_dr",
        "Figure 9",
        "stddev-of-error grids over (k, dr) at fixed n, panels: ST / K / CP",
    );
    let ks = grid_axes::k_targets();
    let drs = grid_axes::dr_targets();
    let algorithms = [Algorithm::Standard, Algorithm::Kahan, Algorithm::Composite];
    let grids = sweep::grids(("k", &ks), ("dr", &drs), &algorithms, |k, dr, seed| {
        grid_cell(p.grid_n, k, dr, seed, grid_axes::INF_ABS_SUM)
    });
    sweep::print_panels(&algorithms, &grids, &format!("n = {}", p.grid_n));

    // Shape checks.
    let st = &grids[0];
    let cp = &grids[2];
    let rows = st.rows();
    let top_k_st = st.get(rows - 2, 0); // largest finite k, dr = 0
    let low_k_st = st.get(0, 0); // k = 1, dr = 0
    println!("expected shapes (paper) and measurements:");
    let mut all = true;
    let c1 = top_k_st > low_k_st * 10.0;
    println!(
        "  [{}] variability grows strongly with k (ST, dr=0): {:e} -> {:e}",
        if c1 { "PASS" } else { "FAIL" },
        low_k_st,
        top_k_st
    );
    all &= c1;
    let max_cp = cp.iter().map(|(_, _, v)| v).fold(0.0f64, f64::max);
    let max_st = st.iter().map(|(_, _, v)| v).fold(0.0f64, f64::max);
    let c2 = max_cp < max_st / 1e6;
    println!(
        "  [{}] CP panel sits orders of magnitude below ST everywhere: max {:e} vs {:e}",
        if c2 { "PASS" } else { "FAIL" },
        max_cp,
        max_st
    );
    all &= c2;
    println!("shape check: {}", if all { "PASS" } else { "FAIL" });
}

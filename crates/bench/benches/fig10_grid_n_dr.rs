//! **Figure 10** — "Standard deviation errors for standard summation (left),
//! Kahan summation (middle), and composite precision summation (right) for
//! different (n, dr) values and fixed condition number k" (k = 1, so the
//! ability of dynamic range to estimate alignment error can be assessed).
//!
//! Expected shape: a tendency for high-concurrency / high-dynamic-range
//! cells to vary more, but — the paper's "most valuable lesson" — dr exerts
//! much less influence than the condition number (compare against the
//! Figure 9/11 gradients).

use repro_bench::{banner, grid_axes, sweep};
use repro_core::gen::{generate, CondTarget, DatasetSpec};
use repro_core::sum::Algorithm;

/// A Figure 10 cell: `n` values at k = 1 with per-element magnitudes O(1)
/// (`Σ|x| ≈ n`, so the n axis drives the absolute variability; see
/// EXPERIMENTS.md "grid normalization").
fn unit_elements(n: usize, dr: u32, seed: u64) -> Vec<f64> {
    // Anchor the window's TOP decade at 1 and extend downward: the dominant
    // magnitudes stay O(1) across the dr axis, so dr contributes only
    // alignment error (the weak gradient the paper reports), not a raw
    // scale change.
    let mut spec = DatasetSpec::new(n, CondTarget::One, dr, seed);
    spec.scale = -(dr as i32);
    generate(&spec)
}

fn main() {
    banner(
        "fig10_grid_n_dr",
        "Figure 10",
        "stddev-of-error grids over (n, dr) at fixed k = 1, panels: ST / K / CP",
    );
    let ns = grid_axes::n_targets(repro_bench::scale());
    let drs = grid_axes::dr_targets();
    let algorithms = [Algorithm::Standard, Algorithm::Kahan, Algorithm::Composite];
    let grids = sweep::grids(("n", &ns), ("dr", &drs), &algorithms, unit_elements);
    sweep::print_panels(&algorithms, &grids, "k = 1");

    // Shape checks: growth along n and along dr exists for ST but is weak
    // compared to Figure 9's k-gradient.
    let st = &grids[0];
    let (rows, cols) = (st.rows(), st.cols());
    let n_growth = st.get(rows - 1, 0) / st.get(0, 0).max(f64::MIN_POSITIVE);
    let dr_growth = st.get(rows - 1, cols - 1) / st.get(rows - 1, 0).max(f64::MIN_POSITIVE);
    println!("expected shapes (paper) and measurements:");
    let c1 = n_growth > 1.0;
    println!(
        "  [{}] ST variability grows with n at fixed dr ({:.1}x across the n range)",
        if c1 { "PASS" } else { "FAIL" },
        n_growth
    );
    let c2 = dr_growth < 1e4;
    println!(
        "  [{}] the dr gradient stays weak at k = 1 ({:.1}x across 32 decades — compare\n\
         \tFigure 9's k gradient of >= 10^6x)",
        if c2 { "PASS" } else { "FAIL" },
        dr_growth
    );
    println!("shape check: {}", if c1 && c2 { "PASS" } else { "FAIL" });
}

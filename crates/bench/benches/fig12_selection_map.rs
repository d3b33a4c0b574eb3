//! **Figure 12** — "Selection of the cheapest but acceptably accurate
//! reduction algorithm among the Kahan (K), composite precision (CP), and
//! prerounding (PR) algorithms for different error variability thresholds
//! (left to right: t = 5e-13, 3e-13, 2.5e-13, 1.5e-13, 5e-14)."
//!
//! Per (k, dr) cell, per threshold: the cheapest of {K, CP, PR} whose
//! measured error stddev across permuted trees is ≤ t. Expected shape: as t
//! shrinks, increasingly costly algorithms take over, starting from the
//! high-k / high-dr corner.
//!
//! We print the paper's literal thresholds and a wider sweep: absolute
//! spreads scale with the workload (n and the unit-sum normalization), so
//! the exact crossover thresholds shift with `REPRO_SCALE`, while the
//! escalation structure is scale-invariant.

use repro_bench::{banner, grid_axes, params, sweep};
use repro_core::gen::grid_cell;
use repro_core::stats::Table;
use repro_core::sum::Algorithm;

fn main() {
    let p = params();
    banner(
        "fig12_selection_map",
        "Figure 12",
        "cheapest acceptable algorithm among {K, CP, PR} per (k, dr) cell, per threshold",
    );
    let ks = grid_axes::k_targets();
    let drs = grid_axes::dr_targets();
    // Candidates in the paper's cost order (ST excluded, as in the figure).
    let candidates = [Algorithm::Kahan, Algorithm::Composite, Algorithm::PR];

    // Measure every cell once: one spread grid per candidate.
    let spread = sweep::grids(("k", &ks), ("dr", &drs), &candidates, |k, dr, seed| {
        grid_cell(p.grid_n, k, dr, seed, grid_axes::INF_ABS_SUM)
    });
    // The cheapest candidate whose spread at cell (r, c) fits `t`.
    let choice = |r: usize, c: usize, t: f64| {
        candidates
            .iter()
            .zip(&spread)
            .find(|(_, grid)| grid.get(r, c) <= t)
            .map_or("PR", |(a, _)| a.abbrev())
    };

    let paper_thresholds = [5e-13, 3e-13, 2.5e-13, 1.5e-13, 5e-14];
    let wide_thresholds = [1e-8, 1e-10, 1e-12, 1e-14, 1e-16, 1e-20];

    let mut maps_differ = false;
    let mut previous_map: Option<Vec<&str>> = None;
    for (label, thresholds) in [
        ("paper thresholds", &paper_thresholds[..]),
        ("wider sweep", &wide_thresholds[..]),
    ] {
        println!("\n--- {label} ---");
        for &t in thresholds {
            let mut header = vec!["k \\ dr".to_string()];
            header.extend(spread[0].col_labels().iter().cloned());
            let mut table = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
            let mut flat = Vec::new();
            for (r, k_label) in spread[0].row_labels().iter().enumerate() {
                let mut row = vec![k_label.clone()];
                for c in 0..drs.len() {
                    row.push(choice(r, c, t).to_string());
                    flat.push(choice(r, c, t));
                }
                table.row(&row);
            }
            println!("threshold t = {t:e}:\n{}", table.render());
            if let Some(prev) = &previous_map {
                maps_differ |= *prev != flat;
            }
            previous_map = Some(flat);
        }
    }

    // Shape checks.
    println!("expected shapes (paper) and measurements:");
    // 1. Escalation: tighter threshold never picks a cheaper algorithm.
    let rank = |abbr: &str| match abbr {
        "K" => 0,
        "CP" => 1,
        _ => 2,
    };
    let mut monotone = true;
    for r in 0..ks.len() {
        for c in 0..drs.len() {
            let mut last = 0;
            for &t in wide_thresholds.iter() {
                let rung = rank(choice(r, c, t));
                monotone &= rung >= last;
                last = rung;
            }
        }
    }
    println!(
        "  [{}] tightening the threshold only escalates (never de-escalates)",
        if monotone { "PASS" } else { "FAIL" }
    );
    // 2. The hostile corner escalates before the benign corner (K spreads).
    let benign_escalation = spread[0].get(0, 0); // k=1, dr=0
    let hostile_escalation = spread[0].get(ks.len() - 1, drs.len() - 1);
    let corner = hostile_escalation >= benign_escalation;
    println!(
        "  [{}] the high-k/high-dr corner is at least as hard as the benign corner\n\
         \t(K spread {:e} vs {:e})",
        if corner { "PASS" } else { "FAIL" },
        hostile_escalation,
        benign_escalation
    );
    println!(
        "  [{}] the maps change across thresholds (selection is threshold-sensitive)",
        if maps_differ { "PASS" } else { "FAIL" }
    );
    println!(
        "shape check: {}",
        if monotone && corner && maps_differ {
            "PASS"
        } else {
            "FAIL"
        }
    );
}

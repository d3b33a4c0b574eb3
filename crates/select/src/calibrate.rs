//! Empirical calibration: replay the paper's grid methodology (Figure 8) to
//! measure, per `(k, dr)` cell, how much each algorithm's result actually
//! varies across reduction trees — then let the selector interpolate that
//! table at run time.

use repro_fp::exact_sum_acc;
use repro_gen::grid_cell;
use repro_runtime::{ReductionPlan, Runtime};
use repro_stats::population_stddev;
use repro_sum::Algorithm;
use repro_tree::permute::PermutationStudy;
use repro_tree::TreeShape;

/// What to calibrate over.
#[derive(Clone, Debug)]
pub struct CalibrationConfig {
    /// Condition-number decades to probe (log10 k values; `f64::INFINITY`
    /// allowed for the zero-sum column).
    pub k_targets: Vec<f64>,
    /// Dynamic ranges (decimal decades) to probe.
    pub dr_targets: Vec<u32>,
    /// Values per generated cell set.
    pub n: usize,
    /// Leaf permutations per cell and algorithm.
    pub permutations: u64,
    /// Algorithms to calibrate (cheapest-first recommended).
    pub algorithms: Vec<Algorithm>,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            k_targets: vec![1.0, 1e2, 1e4, 1e8, 1e12, f64::INFINITY],
            dr_targets: vec![0, 8, 16, 24, 32],
            n: 4096,
            permutations: 30,
            algorithms: Algorithm::PAPER_SET.to_vec(),
            seed: 0xC0FFEE,
        }
    }
}

/// One calibrated cell: targets plus the measured variability (stddev of
/// absolute error across permuted balanced trees) per algorithm.
#[derive(Clone, Debug)]
pub struct CalCell {
    /// Condition-number target of the generated set.
    pub k: f64,
    /// Dynamic-range target (decades).
    pub dr: u32,
    /// `(algorithm, error stddev)` pairs, in the config's algorithm order.
    pub spread: Vec<(Algorithm, f64)>,
}

/// A measured `(k, dr) → variability` table.
#[derive(Clone, Debug)]
pub struct CalibrationTable {
    /// All calibrated cells.
    pub cells: Vec<CalCell>,
    /// The `n` the table was calibrated at (variability scales with n; the
    /// selector compensates when profiles differ wildly).
    pub n: usize,
}

impl CalibrationTable {
    /// Serialize to CSV (`n,k,dr,algorithm,spread` rows) so an expensive
    /// calibration can be reused across runs without a serde dependency.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("n,k,dr,algorithm,spread\n");
        for cell in &self.cells {
            for (alg, spread) in &cell.spread {
                out.push_str(&format!(
                    "{},{},{},{},{:e}\n",
                    self.n,
                    if cell.k.is_infinite() {
                        "inf".into()
                    } else {
                        format!("{:e}", cell.k)
                    },
                    cell.dr,
                    alg,
                    spread
                ));
            }
        }
        out
    }

    /// Parse a table back from [`CalibrationTable::to_csv`] output.
    ///
    /// Returns `None` on any malformed row (calibration data is generated,
    /// not user-authored, so malformation means corruption).
    pub fn from_csv(csv: &str) -> Option<Self> {
        let mut cells: Vec<CalCell> = Vec::new();
        let mut n = 0usize;
        for line in csv.lines().skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split(',').collect();
            if parts.len() != 5 {
                return None;
            }
            n = parts[0].parse().ok()?;
            let k: f64 = if parts[1] == "inf" {
                f64::INFINITY
            } else {
                parts[1].parse().ok()?
            };
            let dr: u32 = parts[2].parse().ok()?;
            let alg = parse_algorithm(parts[3])?;
            let spread: f64 = parts[4].parse().ok()?;
            match cells.iter_mut().find(|c| c.k == k && c.dr == dr) {
                Some(cell) => cell.spread.push((alg, spread)),
                None => cells.push(CalCell {
                    k,
                    dr,
                    spread: vec![(alg, spread)],
                }),
            }
        }
        if cells.is_empty() {
            return None;
        }
        Some(Self { cells, n })
    }

    /// The cell nearest to `(k, dr)` in `(log10 k, dr)` space.
    pub fn nearest(&self, k: f64, dr_decades: i32) -> &CalCell {
        let lk = log10_clamped(k);
        self.cells
            .iter()
            .min_by(|a, b| {
                let da = cell_distance(lk, dr_decades, a);
                let db = cell_distance(lk, dr_decades, b);
                da.total_cmp(&db)
            })
            .expect("calibration table is never empty")
    }
}

/// Parse an algorithm label exactly as `Algorithm`'s `Display` impl writes
/// it: an abbreviation, or `PR(fold=N)` for the binned operator (so a bare
/// `PR` is rejected).
fn parse_algorithm(s: &str) -> Option<Algorithm> {
    match s.strip_prefix("PR(fold=") {
        Some(fold) => Some(Algorithm::Binned {
            fold: fold.strip_suffix(')')?.parse().ok()?,
        }),
        None => Algorithm::from_abbrev(s).filter(|a| a.to_string() == s),
    }
}

fn log10_clamped(k: f64) -> f64 {
    if k.is_infinite() {
        20.0 // beyond every finite decade the table probes
    } else {
        k.max(1.0).log10()
    }
}

fn cell_distance(lk: f64, dr: i32, cell: &CalCell) -> f64 {
    let dk = lk - log10_clamped(cell.k);
    // One decade of k ≈ four decades of dr in influence (the paper finds k
    // dominates dr), so weight dr down.
    let ddr = (dr - cell.dr as i32) as f64 / 4.0;
    dk * dk + ddr * ddr
}

/// A calibration sweep failure, pinned to the grid cell that caused it.
///
/// Every cell runs generated data through every operator; a failure in one
/// cell (a generator edge case, an operator panic) is reported with the
/// cell's coordinates, so the sweep is diagnosable and the caller decides
/// whether to retry, shrink the grid, or give up.
#[derive(Clone, Debug, PartialEq)]
pub struct CalibrationError {
    /// Values per cell the sweep was configured with.
    pub n: usize,
    /// Condition-number target of the failing cell.
    pub k: f64,
    /// Dynamic-range target (decades) of the failing cell.
    pub dr: u32,
    /// What went wrong (a recovered panic message, or a sweep-level
    /// precondition).
    pub message: String,
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "calibration failed at cell (n={}, k={:e}, dr={}): {}",
            self.n, self.k, self.dr, self.message
        )
    }
}

impl std::error::Error for CalibrationError {}

/// Render a recovered panic payload as a message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked (non-string payload)".to_string()
    }
}

/// Run the calibration sweep: for every `(k, dr)` cell, generate a set and
/// measure its [`spreads`]. Cells are independent and seeded, so they run
/// on the shared runtime pool ([`Runtime::global`], sized by
/// `REPRO_RUNTIME_WORKERS`) and the table's bits do not depend on the
/// worker count.
///
/// A failing cell surfaces as a [`CalibrationError`] naming its
/// `(n, k, dr)` coordinates (the first failing cell in grid order); the
/// other cells finish normally instead of cascading.
pub fn try_calibrate(cfg: &CalibrationConfig) -> Result<CalibrationTable, CalibrationError> {
    // The "beyond every finite row" scale for the zero-sum column: one
    // decade past the largest finite k probed.
    let inf_abs = cfg
        .k_targets
        .iter()
        .copied()
        .filter(|k| k.is_finite())
        .fold(1.0f64, f64::max)
        * 10.0;
    let cols = cfg.dr_targets.len();
    let cell_count = cfg.k_targets.len() * cols;
    let refuse = |message: String| CalibrationError {
        n: cfg.n,
        k: f64::NAN,
        dr: 0,
        message,
    };
    if cell_count == 0 {
        return Err(refuse("empty calibration grid (no k or dr targets)".into()));
    }
    if cfg.permutations < 2 {
        // One result per cell has no spread: every entry would read 0,
        // and a selector would take that for "ST fits every budget".
        return Err(refuse(format!(
            "{} permutations measure no spread (at least 2)",
            cfg.permutations
        )));
    }
    let plan = ReductionPlan::with_chunk_len(cell_count, 1);
    let cells = Runtime::global().map_chunks(&plan, |i, _| {
        let (ki, di) = (i / cols, i % cols);
        // A panic inside one cell (generator edge case, operator bug)
        // must not mask the culprit: convert it to a coordinate-tagged
        // error.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            calibrate_cell(cfg, ki, di, inf_abs)
        }))
        .map_err(|payload| CalibrationError {
            n: cfg.n,
            k: cfg.k_targets[ki],
            dr: cfg.dr_targets[di],
            message: panic_message(payload),
        })
    });
    Ok(CalibrationTable {
        cells: cells.into_iter().collect::<Result<_, _>>()?,
        n: cfg.n,
    })
}

/// [`try_calibrate`], panicking with the coordinate-tagged diagnostic on
/// failure. Kept for callers treating calibration failure as fatal (the
/// historical behavior, minus the cascade of opaque worker panics).
pub fn calibrate(cfg: &CalibrationConfig) -> CalibrationTable {
    match try_calibrate(cfg) {
        Ok(table) => table,
        Err(e) => panic!("{e}"),
    }
}

/// The paper's Figure 8 cell measurement: for each of `algorithms`, the
/// population standard deviation of the exact absolute error of `values`
/// reduced over `permutations` balanced trees with permuted leaves (the
/// permutation stream of `seed`). The calibration sweep and the
/// Figures 8–12 benches measure every cell through this function.
///
/// Sequential by design: callers run whole cells on the runtime pool, and
/// a cell that called back into that pool would block its worker.
pub fn spreads(values: &[f64], permutations: u64, seed: u64, algorithms: &[Algorithm]) -> Vec<f64> {
    let exact = exact_sum_acc(values);
    algorithms
        .iter()
        .map(|&alg| {
            let study = PermutationStudy::new(values, permutations, seed);
            population_stddev(&study.errors(&exact, TreeShape::Balanced, alg))
        })
        .collect()
}

/// Measure the cell of the `ki`-th k target and the `di`-th dr target.
fn calibrate_cell(cfg: &CalibrationConfig, ki: usize, di: usize, inf_abs: f64) -> CalCell {
    let (k, dr) = (cfg.k_targets[ki], cfg.dr_targets[di]);
    let seed = cfg
        .seed
        .wrapping_add((ki as u64) << 32)
        .wrapping_add(di as u64);
    let values = grid_cell(cfg.n, k, dr, seed, inf_abs);
    let spread = spreads(&values, cfg.permutations, seed ^ 0xABCD, &cfg.algorithms);
    CalCell {
        k,
        dr,
        spread: cfg.algorithms.iter().copied().zip(spread).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CalibrationConfig {
        CalibrationConfig {
            k_targets: vec![1.0, 1e6, f64::INFINITY],
            dr_targets: vec![0, 16],
            n: 512,
            permutations: 8,
            algorithms: Algorithm::PAPER_SET.to_vec(),
            seed: 42,
        }
    }

    #[test]
    fn calibration_covers_every_cell() {
        let table = calibrate(&small_cfg());
        assert_eq!(table.cells.len(), 6);
        assert!(table
            .cells
            .iter()
            .all(|c| c.spread.len() == Algorithm::PAPER_SET.len()));
    }

    #[test]
    fn pr_column_is_exactly_zero_spread() {
        let table = calibrate(&small_cfg());
        for cell in &table.cells {
            let (_, pr_spread) = cell
                .spread
                .iter()
                .find(|(a, _)| a.is_reproducible())
                .unwrap();
            assert_eq!(
                *pr_spread, 0.0,
                "PR varied in cell k={:e} dr={}",
                cell.k, cell.dr
            );
        }
    }

    #[test]
    fn hostile_cells_show_more_st_spread_than_benign_cells() {
        let table = calibrate(&small_cfg());
        let st = |cell: &CalCell| cell.spread[0].1;
        let benign = table
            .cells
            .iter()
            .find(|c| c.k == 1.0 && c.dr == 0)
            .unwrap();
        let hostile = table
            .cells
            .iter()
            .find(|c| c.k.is_infinite() && c.dr == 16)
            .unwrap();
        assert!(
            st(hostile) > st(benign),
            "hostile {:e} !> benign {:e}",
            st(hostile),
            st(benign)
        );
    }

    #[test]
    fn csv_round_trip_preserves_the_table() {
        let table = calibrate(&small_cfg());
        let csv = table.to_csv();
        let back = CalibrationTable::from_csv(&csv).expect("parse back");
        assert_eq!(back.n, table.n);
        assert_eq!(back.cells.len(), table.cells.len());
        for (a, b) in table.cells.iter().zip(back.cells.iter()) {
            assert_eq!(a.k.to_bits(), b.k.to_bits());
            assert_eq!(a.dr, b.dr);
            assert_eq!(a.spread.len(), b.spread.len());
            for ((alg_a, s_a), (alg_b, s_b)) in a.spread.iter().zip(b.spread.iter()) {
                assert_eq!(alg_a, alg_b);
                assert_eq!(s_a.to_bits(), s_b.to_bits(), "spread must survive bitwise");
            }
        }
    }

    #[test]
    fn from_csv_rejects_garbage() {
        assert!(CalibrationTable::from_csv("").is_none());
        assert!(CalibrationTable::from_csv("n,k,dr,algorithm,spread\n1,2\n").is_none());
        assert!(
            CalibrationTable::from_csv("n,k,dr,algorithm,spread\n64,1,0,BOGUS,1e-3\n").is_none()
        );
        // `to_csv` writes the binned operator as `PR(fold=N)`, never bare.
        assert!(CalibrationTable::from_csv("n,k,dr,algorithm,spread\n64,1,0,PR,1e-3\n").is_none());
    }

    #[test]
    fn display_labels_parse_back_over_all() {
        for alg in Algorithm::ALL {
            assert_eq!(parse_algorithm(&alg.to_string()), Some(alg));
        }
        assert_eq!(
            parse_algorithm("PR(fold=2)"),
            Some(Algorithm::Binned { fold: 2 })
        );
    }

    /// The methodology's numbers, pinned: any change to the generator, the
    /// permutation stream, the tree walk, an operator or the spread
    /// statistic moves these bytes.
    #[test]
    fn small_grid_csv_bytes_are_pinned() {
        let cfg = CalibrationConfig {
            k_targets: vec![1e6, f64::INFINITY],
            dr_targets: vec![16],
            n: 256,
            permutations: 4,
            algorithms: Algorithm::PAPER_SET.to_vec(),
            seed: 42,
        };
        assert_eq!(
            calibrate(&cfg).to_csv(),
            "n,k,dr,algorithm,spread\n\
             256,1e6,16,ST,8.285891071085916e-12\n\
             256,1e6,16,K,8.680701562161127e-12\n\
             256,1e6,16,CP,0e0\n\
             256,1e6,16,PR(fold=3),0e0\n\
             256,inf,16,ST,7.561396956889995e-11\n\
             256,inf,16,K,5.5321992306485677e-11\n\
             256,inf,16,CP,1.0716592678495065e-26\n\
             256,inf,16,PR(fold=3),0e0\n"
        );
    }

    #[test]
    fn try_calibrate_matches_calibrate_on_a_healthy_grid() {
        let table = try_calibrate(&small_cfg()).expect("healthy grid");
        let direct = calibrate(&small_cfg());
        assert_eq!(table.n, direct.n);
        assert_eq!(table.to_csv(), direct.to_csv());
    }

    #[test]
    fn failing_cell_surfaces_coordinates_not_a_panic_cascade() {
        // n = 0 makes the generator's rescale factor non-finite, so every
        // cell panics internally. The sweep must convert that into one
        // coordinate-tagged error instead of crossing the pool scope as a
        // panic.
        let cfg = CalibrationConfig {
            n: 0,
            ..small_cfg()
        };
        let err = try_calibrate(&cfg).expect_err("n = 0 cannot calibrate");
        assert_eq!(err.n, 0);
        assert!(
            cfg.k_targets.contains(&err.k) || err.k.is_infinite(),
            "error names a grid cell: {err:?}"
        );
        assert!(cfg.dr_targets.contains(&err.dr), "{err:?}");
        let text = err.to_string();
        assert!(text.contains("n=0"), "{text}");
        assert!(text.contains("dr="), "{text}");
    }

    #[test]
    fn empty_grid_is_an_error_not_a_panic() {
        let cfg = CalibrationConfig {
            k_targets: vec![],
            ..small_cfg()
        };
        let err = try_calibrate(&cfg).expect_err("nothing to calibrate");
        assert!(err.to_string().contains("empty calibration grid"), "{err}");
    }

    #[test]
    fn fewer_than_two_permutations_is_an_error_not_a_zero_table() {
        for permutations in [0, 1] {
            let cfg = CalibrationConfig {
                permutations,
                ..small_cfg()
            };
            let err = try_calibrate(&cfg).expect_err("one result has no spread");
            assert!(err.to_string().contains("at least 2"), "{err}");
        }
    }

    #[test]
    fn calibrate_panics_with_the_tagged_diagnostic() {
        let cfg = CalibrationConfig {
            n: 0,
            ..small_cfg()
        };
        let panic = std::panic::catch_unwind(|| calibrate(&cfg)).expect_err("must panic");
        let msg = panic_message(panic);
        assert!(msg.contains("calibration failed at cell"), "{msg}");
    }

    #[test]
    fn nearest_cell_lookup() {
        let table = calibrate(&small_cfg());
        let c = table.nearest(2.0, 0);
        assert_eq!(c.k, 1.0);
        let c = table.nearest(1e7, 14);
        assert_eq!(c.k, 1e6);
        assert_eq!(c.dr, 16);
        let c = table.nearest(f64::INFINITY, 32);
        assert!(c.k.is_infinite());
    }
}

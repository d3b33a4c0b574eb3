//! **Figure 6** — "Empirical study of relative sensitivity of three
//! summation algorithms: Kahan's compensated summation (K), composite
//! precision summation (CP), and prerounded summation (PR). Note that (a)
//! zooms into (b)."
//!
//! A fixed zero-sum, dr = 32 set is reduced over many same-shape (balanced)
//! trees with different leaf assignments; for each tree we record each
//! algorithm's exact error. Expected shape: "as a progressively greater
//! amount of computation is invested in compensating for roundoff error,
//! the sum becomes less sensitive to the varying reduction tree" — error
//! ranges shrink K ≫ CP ≥ PR, with PR exactly constant.

use repro_bench::{banner, params};
use repro_core::fp::exact_sum_acc;
use repro_core::stats::{descriptive::Boxplot, table::sci, Table};
use repro_core::sum::Algorithm;
use repro_core::tree::permute::PermutationStudy;
use repro_core::tree::TreeShape;

fn main() {
    let p = params();
    banner(
        "fig06_sensitivity",
        "Figure 6 (a: zoom, b: full)",
        "relative sensitivity of K / CP / PR across same-shape trees with permuted leaves",
    );
    let n = p.fig7_sizes[0];
    let values = repro_core::gen::zero_sum_with_range(n, 32, p.seed ^ 0xF166);
    let exact = exact_sum_acc(&values);
    let algorithms = [Algorithm::Kahan, Algorithm::Composite, Algorithm::PR];

    let per_alg: Vec<(Algorithm, Vec<f64>)> = algorithms
        .into_iter()
        .map(|alg| {
            let study = PermutationStudy::new(&values, p.fig7_perms, p.seed ^ 66);
            (alg, study.errors(&exact, TreeShape::Balanced, alg))
        })
        .collect();

    // (b): full view.
    let mut t = Table::new(&["algorithm", "min", "q1", "median", "q3", "max", "range"]);
    for (alg, errors) in &per_alg {
        let b = Boxplot::of(errors);
        t.row(&[
            alg.to_string(),
            sci(b.min),
            sci(b.q1),
            sci(b.median),
            sci(b.q3),
            sci(b.max),
            sci(b.range()),
        ]);
    }
    println!(
        "\n(b) error per tree, {} permuted balanced trees over n = {n} (zero-sum, dr = 32):\n{}",
        p.fig7_perms,
        t.render()
    );

    // (a): the zoom = the same data excluding K's scale.
    let mut t = Table::new(&["algorithm", "min", "median", "max"]);
    for (alg, errors) in per_alg.iter().skip(1) {
        let b = Boxplot::of(errors);
        t.row(&[alg.to_string(), sci(b.min), sci(b.median), sci(b.max)]);
    }
    println!("(a) zoom into CP and PR:\n{}", t.render());

    let range = |i: usize| Boxplot::of(&per_alg[i].1).range();
    println!("expected shape (paper): sensitivity shrinks K >> CP >= PR, PR exactly 0.");
    let (rk, rcp, rpr) = (range(0), range(1), range(2));
    println!(
        "measured ranges: K = {}, CP = {}, PR = {}",
        sci(rk),
        sci(rcp),
        sci(rpr)
    );
    assert!(rk > rcp * 1e3, "K range must dwarf CP range");
    assert_eq!(rpr, 0.0, "PR must be exactly insensitive");
    println!("shape check: PASS");
}

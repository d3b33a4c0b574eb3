//! Exact dataset measurements derived from the superaccumulator.
//!
//! The paper characterizes a set of summands by two intrinsic quantities:
//!
//! * the **sum condition number** `k = Σ|xᵢ| / |Σxᵢ|`, and
//! * the **dynamic range** `dr = exp(max|xᵢ|) − exp(min|xᵢ|)`,
//!
//! both independent of any ordering. Because we can sum exactly, we compute
//! these *exactly* (each rounded once at the end), rather than estimating
//! them with the very floating-point arithmetic under study.

use crate::superacc::Superaccumulator;
use crate::ulp::exponent;

/// The exact sum of `values`, rounded to `f64` once (round-to-nearest-even).
///
/// ```
/// use repro_fp::exact_sum;
/// assert_eq!(exact_sum(&[1e16, 1.0, -1e16]), 1.0);
/// ```
pub fn exact_sum(values: &[f64]) -> f64 {
    exact_sum_acc(values).to_f64()
}

/// The exact sum as a [`Superaccumulator`], for callers that need to keep
/// full precision (e.g. to measure errors below one ulp of the sum).
/// Slices take the batched [`Superaccumulator::add_slice`] hot path.
pub fn exact_sum_acc(values: &[f64]) -> Superaccumulator {
    let mut acc = Superaccumulator::new();
    acc.add_slice(values);
    acc
}

/// The exact absolute-value sum `Σ|xᵢ|`, rounded once: the `|x|` register
/// of [`Superaccumulator::add_slice_pair`].
pub fn exact_abs_sum(values: &[f64]) -> f64 {
    let (mut sum, mut abs) = (Superaccumulator::new(), Superaccumulator::new());
    sum.add_slice_pair(&mut abs, values);
    abs.to_f64()
}

/// Exact sum condition number `k = Σ|xᵢ| / |Σxᵢ|`.
///
/// Returns `f64::INFINITY` when the exact sum is zero (the paper's `k = ∞`
/// case) and `f64::NAN` for empty input or non-finite values.
pub fn condition_number(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return f64::NAN;
    }
    let (mut sum, mut abs) = (Superaccumulator::new(), Superaccumulator::new());
    sum.add_slice_pair(&mut abs, values);
    if sum.is_zero() {
        return f64::INFINITY;
    }
    // Form the quotient in double-double to avoid an avoidable half-ulp loss
    // in each operand; a single rounding when converting at the end.
    let q = abs.to_dd().div_dd(sum.to_dd().abs());
    q.to_f64()
}

/// Decimal exponent of a finite nonzero value: `floor(log10 |x|)`,
/// the exponent `E` of the scientific notation `m × 10^E` with `1 ≤ m < 10`.
///
/// Computed with a correction loop so values at decade boundaries classify
/// correctly despite `log10` rounding. Returns `None` for zero / non-finite.
pub fn decimal_exponent(x: f64) -> Option<i32> {
    if x == 0.0 || !x.is_finite() {
        return None;
    }
    let a = x.abs();
    let mut e = a.log10().floor() as i32;
    // log10 can be off by one ulp near decade boundaries; nudge into place.
    while pow10(e) > a {
        e -= 1;
    }
    while pow10(e + 1) <= a {
        e += 1;
    }
    Some(e)
}

/// Correctly rounded `10^e` with saturation outside f64 range (for decade
/// comparisons). `powi` accumulates rounding error over repeated squarings,
/// which mis-classifies values sitting exactly on a decade literal like
/// `1e100`; parsing gives the correctly rounded decade the same way literals
/// are rounded.
fn pow10(e: i32) -> f64 {
    use std::sync::OnceLock;
    static DECADES: OnceLock<Vec<f64>> = OnceLock::new();
    if e > 308 {
        return f64::INFINITY;
    }
    if e < -323 {
        return 0.0;
    }
    let table = DECADES.get_or_init(|| {
        (-323..=308)
            .map(|k| format!("1e{k}").parse::<f64>().expect("decade literal"))
            .collect()
    });
    table[(e + 323) as usize]
}

/// Dynamic range `dr = exp(max|xᵢ|) − exp(min|xᵢ|)` over the nonzero values,
/// in **decimal** exponents — the convention of the paper's Table I, where
/// `{2.37e+16, 3.41e+8, 4.32e+8, 8.14e+16}` has `dr = 8`.
///
/// Zeros are ignored (they have no exponent); returns `0` when no nonzero
/// value is present, and `None` if any value is non-finite.
pub fn dynamic_range(values: &[f64]) -> Option<i32> {
    let mut min_e = i32::MAX;
    let mut max_e = i32::MIN;
    for &v in values {
        if !v.is_finite() {
            return None;
        }
        if let Some(e) = decimal_exponent(v) {
            min_e = min_e.min(e);
            max_e = max_e.max(e);
        }
    }
    if min_e == i32::MAX {
        Some(0) // all zeros
    } else {
        Some(max_e - min_e)
    }
}

/// Dynamic range in **binary** (IEEE-754) exponents — the literal reading of
/// the paper's definition via the stored exponent field. `dr_binary ≈
/// dr_decimal × log₂10 ≈ 3.32 × dr_decimal`.
pub fn dynamic_range_binary(values: &[f64]) -> Option<i32> {
    let mut min_e = i32::MAX;
    let mut max_e = i32::MIN;
    for &v in values {
        if !v.is_finite() {
            return None;
        }
        if let Some(e) = exponent(v) {
            min_e = min_e.min(e);
            max_e = max_e.max(e);
        }
    }
    if min_e == i32::MAX {
        Some(0)
    } else {
        Some(max_e - min_e)
    }
}

/// Exact absolute error of a computed sum: `|computed − Σxᵢ|`, where the
/// subtraction happens inside the exact accumulator and is rounded once.
pub fn abs_error(computed: f64, values: &[f64]) -> f64 {
    let mut acc = exact_sum_acc(values);
    acc.sub(computed);
    acc.to_f64().abs()
}

/// Exact absolute error against a *precomputed* exact accumulator, for tight
/// loops that evaluate many computed sums of the same data (permutation
/// studies): clones the reference, subtracts, rounds once.
pub fn abs_error_vs(reference: &Superaccumulator, computed: f64) -> f64 {
    let mut acc = reference.clone();
    acc.sub(computed);
    acc.to_f64().abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_sum_of_classic_absorption_case() {
        assert_eq!(exact_sum(&[1e9, -1e9, 1e-9]), 1e-9);
    }

    #[test]
    fn condition_number_of_same_sign_sets_is_one() {
        // k = 1 exactly for all-positive and all-negative sets.
        assert_eq!(condition_number(&[1.0, 2.0, 3.5]), 1.0);
        assert_eq!(condition_number(&[-1.0, -2.0, -3.5]), 1.0);
    }

    #[test]
    fn condition_number_of_zero_sum_is_infinite() {
        assert_eq!(
            condition_number(&[3.14e8, 1.59e8, -3.14e8, -1.59e8]),
            f64::INFINITY
        );
    }

    #[test]
    fn condition_number_of_paper_table1_row() {
        // {2.505e+2, 2.5e+2, -2.495e+2, -2.5e+2}: Σ|x| = 999.5, Σx ≈ 1.0
        // => k ≈ 1000 (the paper's k = 1000 row).
        let k = condition_number(&[2.505e2, 2.5e2, -2.495e2, -2.5e2]);
        assert!((k - 999.5).abs() < 1.0, "k = {k}");
    }

    #[test]
    fn condition_number_empty_and_nonfinite() {
        assert!(condition_number(&[]).is_nan());
        assert!(condition_number(&[1.0, f64::NAN]).is_nan());
        assert!(condition_number(&[1.0, f64::INFINITY]).is_nan());
    }

    #[test]
    fn decimal_exponent_at_decade_boundaries() {
        assert_eq!(decimal_exponent(1.0), Some(0));
        assert_eq!(decimal_exponent(9.999999), Some(0));
        assert_eq!(decimal_exponent(10.0), Some(1));
        assert_eq!(decimal_exponent(0.1), Some(-1));
        assert_eq!(decimal_exponent(1e100), Some(100));
        assert_eq!(decimal_exponent(-2.37e16), Some(16));
        assert_eq!(decimal_exponent(0.0), None);
        assert_eq!(decimal_exponent(f64::NAN), None);
    }

    #[test]
    fn dynamic_range_of_table1_rows() {
        // Paper Table I: each row's measured dr must match its label.
        assert_eq!(
            dynamic_range(&[1.23e32, 1.35e32, 2.37e32, 3.54e32]),
            Some(0)
        );
        assert_eq!(dynamic_range(&[2.37e16, 3.41e8, 4.32e8, 8.14e16]), Some(8));
        assert_eq!(
            dynamic_range(&[3.14e32, 1.59e16, 2.65e18, 3.58e24]),
            Some(16)
        );
        assert_eq!(
            dynamic_range(&[3.14e4, 1.59e-4, -3.14e4, -1.59e-4]),
            Some(8)
        );
        assert_eq!(
            dynamic_range(&[3.14e8, 1.59e-8, -3.14e8, -1.59e-8]),
            Some(16)
        );
    }

    #[test]
    fn dynamic_range_ignores_zeros() {
        assert_eq!(dynamic_range(&[0.0, 400.0, 0.0, 1.0]), Some(2));
        assert_eq!(dynamic_range(&[0.0, 0.0]), Some(0));
        assert_eq!(dynamic_range(&[]), Some(0));
        assert_eq!(dynamic_range(&[1.0, f64::INFINITY]), None);
    }

    #[test]
    fn binary_dynamic_range_scales_by_log2_of_10() {
        let vals = [1e16, 1e8];
        let dec = dynamic_range(&vals).unwrap();
        let bin = dynamic_range_binary(&vals).unwrap();
        assert_eq!(dec, 8);
        // 8 decades is 26..27 binades.
        assert!((26..=27).contains(&bin), "bin = {bin}");
    }

    #[test]
    fn abs_error_measures_sub_ulp_differences() {
        let values = [1.0, 2f64.powi(-80)];
        // Plain f64 summation loses the tiny term entirely.
        let computed = 1.0 + 2f64.powi(-80);
        assert_eq!(computed, 1.0);
        assert_eq!(abs_error(computed, &values), 2f64.powi(-80));
        // The correctly rounded sum has error equal to the dropped residual,
        // not zero -- and we can see that, because the reference is exact.
        assert_eq!(abs_error(exact_sum(&values), &values), 2f64.powi(-80));
    }

    #[test]
    fn abs_error_vs_reference_matches_direct() {
        let values = [0.1, 0.2, 0.3, -0.4];
        let reference = exact_sum_acc(&values);
        let computed: f64 = values.iter().sum();
        assert_eq!(
            abs_error_vs(&reference, computed),
            abs_error(computed, &values)
        );
    }
}

//! One-pass dataset profiling on the exact register.
//!
//! The paper's premise is that `n`, `k`, and `dr` are "estimable quantities"
//! a runtime can afford to compute. This profiler computes them exactly in
//! one pass: `Σx` and `Σ|x|` fold into two [`Superaccumulator`]s through
//! one cascade ([`Superaccumulator::add_slice_pair`]), so `sum_estimate` is
//! the correctly rounded sum (the DS result itself) and `k` is the quotient
//! of the two correctly rounded sums. The exponent extremes and `max|x|`
//! come from a branch-free min/max fold over each block's magnitudes; only
//! a block whose non-NaN values include a zero, a subnormal or an infinity
//! (or that has none) takes the per-value path. Because the registers are
//! exact, a profile assembled from chunk partials is bit-identical to the
//! profile of the whole dataset no matter how the partials were grouped.

use repro_fp::simd::{Cascade, MAX_PARTS};
use repro_fp::ulp::exponent;
use repro_fp::Superaccumulator;

/// Values per profiling block: 4 KiB of f64s, comfortably cache-resident,
/// and the granularity at which the exponent pass falls back to per-value
/// work.
const BLOCK: usize = 512;

/// The profile the selector consumes.
///
/// The derived sums (`sum_estimate`, `abs_sum`, `k`) are plain doubles for
/// the selector's convenience; the profile also carries the exact registers
/// behind them privately, so that [`DataProfile::merge`] recombines
/// partials without rounding. That is what makes merging associative *in
/// bits*, not just approximately.
#[derive(Clone, Debug)]
pub struct DataProfile {
    /// Number of values.
    pub n: usize,
    /// Condition number `Σ|x| / |Σx|` of the correctly rounded sums (∞ if
    /// the sum is zero; 1 for empty input).
    pub k: f64,
    /// Dynamic range in binary binades (difference of extreme exponents).
    pub dr_binades: i32,
    /// Largest magnitude.
    pub max_abs: f64,
    /// Absolute-value sum, correctly rounded (extrapolated from the sample
    /// in [`crate::SampledProfile::estimated_profile`]).
    pub abs_sum: f64,
    /// Sum, correctly rounded: the exact sum DS returns (extrapolated from
    /// the sample in [`crate::SampledProfile::estimated_profile`]).
    pub sum_estimate: f64,
    /// Smallest binary exponent seen (`i32::MAX` when no nonzero values).
    pub min_exp: i32,
    /// Largest binary exponent seen (`i32::MIN` when no nonzero values).
    pub max_exp: i32,
    /// Exact register for `Σx` behind `sum_estimate`.
    sum_acc: Superaccumulator,
    /// Exact register for `Σ|x|` behind `abs_sum`.
    abs_acc: Superaccumulator,
}

/// Field by field; the registers compare by exact value.
impl PartialEq for DataProfile {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.k == other.k
            && self.dr_binades == other.dr_binades
            && self.max_abs == other.max_abs
            && self.abs_sum == other.abs_sum
            && self.sum_estimate == other.sum_estimate
            && self.min_exp == other.min_exp
            && self.max_exp == other.max_exp
            && self.sum_acc.checkpoint() == other.sum_acc.checkpoint()
            && self.abs_acc.checkpoint() == other.abs_acc.checkpoint()
    }
}

impl DataProfile {
    /// Dynamic range in decimal decades (the paper's Table I convention).
    pub fn dr_decades(&self) -> i32 {
        // binade → decade: log10(2) ≈ 0.30103
        (self.dr_binades as f64 * std::f64::consts::LOG10_2).round() as i32
    }

    /// Parts per value of DS's extraction cascade on a block holding this
    /// profile's exponent extremes ([`Cascade::for_exponents`]), or
    /// [`MAX_PARTS`]` + 1` where the plan refuses such a block and
    /// `add_slice` adds its values one by one: a NaN or an infinity, or a
    /// span past the cap. The profile keeps the exponent of its smallest
    /// nonzero magnitude, not of that magnitude's predecessor, which lies
    /// one binade lower for a power of two; taking the lower one, the count
    /// is never below the plan's for a block holding both extremes.
    pub fn cascade_parts(&self) -> usize {
        let refused = MAX_PARTS + 1;
        if self.sum_estimate.is_nan() || self.max_abs.is_infinite() {
            return refused;
        }
        if self.min_exp > self.max_exp {
            return 2; // no nonzero value: zeros plan two parts
        }
        let biased = |e: i32| (e + 1023).max(0) as u32;
        Cascade::for_exponents(biased(self.min_exp - 1), biased(self.max_exp))
            .map_or(refused, Cascade::parts)
    }

    /// The profile of an empty dataset (the identity for [`DataProfile::merge`]).
    pub fn empty() -> Self {
        Self {
            n: 0,
            k: 1.0,
            dr_binades: 0,
            max_abs: 0.0,
            abs_sum: 0.0,
            sum_estimate: 0.0,
            min_exp: i32::MAX,
            max_exp: i32::MIN,
            sum_acc: Superaccumulator::new(),
            abs_acc: Superaccumulator::new(),
        }
    }

    /// Merge a sibling partial profile (for distributed profiling: each
    /// rank profiles its chunk, the profiles reduce, every rank selects
    /// from the same global profile).
    ///
    /// `n`, `max|x|`, and the extreme exponents combine exactly; `Σx` and
    /// `Σ|x|` combine by merging the exact registers — so any permutation
    /// of chunk partials, merged under any tree, reproduces the serial
    /// [`profile`] of the whole dataset bit for bit. `k` is recomputed from
    /// the merged sums.
    pub fn merge(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            self.clone_from(other);
            return;
        }
        self.n += other.n;
        self.sum_acc.merge(&other.sum_acc);
        self.abs_acc.merge(&other.abs_acc);
        self.max_abs = self.max_abs.max(other.max_abs);
        self.min_exp = self.min_exp.min(other.min_exp);
        self.max_exp = self.max_exp.max(other.max_exp);
        self.derive();
    }

    /// Fold a block of values into the accumulated state (`n`, the `Σx`
    /// and `Σ|x|` registers, the exponent extremes, `max|x|`) without
    /// deriving the public estimates; [`DataProfile::derive`] brings those
    /// up to date.
    pub(crate) fn push_slice(&mut self, block: &[f64]) {
        if block.is_empty() {
            return;
        }
        self.n += block.len();
        self.sum_acc.add_slice_pair(&mut self.abs_acc, block);
        let (lo, hi) = magnitude_extremes(block);
        if f64::MIN_POSITIVE <= lo && lo <= hi && hi <= f64::MAX {
            // Every non-NaN value is normal: each exponent is its biased
            // field, and NaNs count for nothing on either path.
            let biased = |m: f64| (m.to_bits() >> 52) as i32 - 1023;
            self.min_exp = self.min_exp.min(biased(lo));
            self.max_exp = self.max_exp.max(biased(hi));
            self.max_abs = self.max_abs.max(hi);
        } else {
            // A zero, subnormal or infinity, or no non-NaN value: per value.
            for &x in block {
                if let Some(e) = exponent(x) {
                    self.min_exp = self.min_exp.min(e);
                    self.max_exp = self.max_exp.max(e);
                }
                self.max_abs = self.max_abs.max(x.abs());
            }
        }
    }

    /// Derive `sum_estimate`, `abs_sum`, `dr_binades`, and `k` from the
    /// accumulated state — the one place the registers are rounded.
    pub(crate) fn derive(&mut self) {
        self.sum_estimate = self.sum_acc.to_f64();
        self.abs_sum = self.abs_acc.to_f64();
        self.dr_binades = if self.min_exp == i32::MAX {
            0
        } else {
            self.max_exp - self.min_exp
        };
        self.k = condition_estimate(self.sum_estimate, self.abs_sum);
    }
}

/// `k = Σ|x| / |Σx|` with the degenerate cases pinned: an exactly
/// cancelling sum is infinitely ill-conditioned, an all-zero (or empty)
/// dataset is trivially well-conditioned.
fn condition_estimate(sum: f64, abs_sum: f64) -> f64 {
    if sum == 0.0 {
        if abs_sum == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        abs_sum / sum.abs()
    }
}

/// `(min, max)` of `|x|` over the non-NaN values of `block`, `(+inf, 0)`
/// when there are none. The folds are compare-selects on lane arrays, which
/// the baseline vectorizer packs into `minpd`/`maxpd`; a NaN loses every
/// compare, so it never reaches either extreme.
fn magnitude_extremes(block: &[f64]) -> (f64, f64) {
    const LANES: usize = 8;
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [0.0f64; LANES];
    let mut fold = |j: usize, x: f64| {
        let m = x.abs();
        lo[j] = if m < lo[j] { m } else { lo[j] };
        hi[j] = if m > hi[j] { m } else { hi[j] };
    };
    let mut chunks = block.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        for (j, &x) in chunk.iter().enumerate() {
            fold(j, x);
        }
    }
    for &x in chunks.remainder() {
        fold(0, x);
    }
    lo.into_iter()
        .zip(hi)
        .fold((f64::INFINITY, 0.0), |(lo, hi), (l, h)| {
            (if l < lo { l } else { lo }, if h > hi { h } else { hi })
        })
}

/// Profile a dataset in one pass.
pub fn profile(values: &[f64]) -> DataProfile {
    let mut p = DataProfile::empty();
    for block in values.chunks(BLOCK) {
        p.push_slice(block);
    }
    p.derive();
    p
}

/// Profile a dataset in parallel on the shared runtime pool: one
/// [`profile`] pass per plan chunk, partial profiles merged in plan
/// (chunk-index) order via [`DataProfile::merge`].
///
/// The plan depends only on `values.len()`, so the result is deterministic
/// for every worker count. Falls back to the sequential pass when the data
/// fits in a single chunk.
pub fn profile_parallel(values: &[f64]) -> DataProfile {
    use repro_runtime::{ReductionPlan, Runtime};
    let plan = ReductionPlan::for_len(values.len());
    if plan.num_chunks() == 1 {
        return profile(values);
    }
    let parts = Runtime::global().map_chunks(&plan, |_, range| profile(&values[range]));
    let mut acc = DataProfile::empty();
    for p in &parts {
        acc.merge(p);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_profile_agrees_with_sequential() {
        // > 1 default chunk, so the pool path actually runs.
        let values: Vec<f64> = (0..200_000)
            .map(|i| {
                let e = (i % 24) - 12;
                (if i % 2 == 0 { 1.0 } else { -1.0 }) * (i as f64 + 0.25) * (e as f64).exp2()
            })
            .collect();
        let seq = profile(&values);
        let par = profile_parallel(&values);
        assert_eq!(par.n, seq.n);
        assert_eq!(par.max_abs, seq.max_abs);
        assert_eq!(par.min_exp, seq.min_exp);
        assert_eq!(par.max_exp, seq.max_exp);
        assert_eq!(par.dr_binades, seq.dr_binades);
        // The registers are exact, so the parallel profile matches the
        // serial one bit for bit — not just within a tolerance.
        assert_eq!(par.abs_sum.to_bits(), seq.abs_sum.to_bits());
        assert_eq!(par.sum_estimate.to_bits(), seq.sum_estimate.to_bits());
        assert_eq!(par.k.to_bits(), seq.k.to_bits());
        // Deterministic: chunk boundaries depend only on the length.
        let again = profile_parallel(&values);
        assert_eq!(par.sum_estimate.to_bits(), again.sum_estimate.to_bits());
        assert_eq!(par.k.to_bits(), again.k.to_bits());
    }

    /// A block's profile prices it at the parts `Cascade::plan` gives it:
    /// exactly where its smallest magnitude is a power of two or
    /// subnormal, at most one part more otherwise (the profile does not see
    /// the predecessor's binade), and one past the cap where the plan
    /// refuses the block.
    #[test]
    fn cascade_parts_follow_the_plan() {
        use repro_fp::simd::active_tier;
        let plan =
            |v: &[f64]| Cascade::plan(active_tier(), v).map_or(MAX_PARTS + 1, Cascade::parts);
        let pow2 = |e: i32| 2f64.powi(e / 2) * 2f64.powi(e - e / 2);
        for span in 0..400 {
            for mantissa in [1.0, 1.5, 1.99] {
                for base in [-1074, -1030, -20, 0, 600] {
                    let block = [mantissa * pow2(base), -1.25 * pow2((base + span).min(1023))];
                    let min = block[0].abs().min(block[1].abs());
                    let exact = min < f64::MIN_POSITIVE || min.to_bits() << 12 == 0;
                    let (got, want) = (profile(&block).cascade_parts(), plan(&block));
                    assert!(
                        got == want || (!exact && got == want + 1),
                        "{block:?}: profile {got}, plan {want}"
                    );
                }
            }
        }
        assert_eq!(profile(&[]).cascade_parts(), 2);
        assert_eq!(profile(&[0.0, -0.0]).cascade_parts(), plan(&[0.0, -0.0]));
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(profile(&[1.0, special]).cascade_parts(), MAX_PARTS + 1);
            assert_eq!(plan(&[1.0, special]), MAX_PARTS + 1);
        }
    }

    #[test]
    fn extremes_fold_matches_the_per_value_reference() {
        // The per-value path over the whole slice: (min_exp, max_exp,
        // max_abs bits).
        fn reference(values: &[f64]) -> (i32, i32, u64) {
            let (mut lo, mut hi, mut max_abs) = (i32::MAX, i32::MIN, 0.0f64);
            for &x in values {
                if let Some(e) = exponent(x) {
                    lo = lo.min(e);
                    hi = hi.max(e);
                }
                max_abs = max_abs.max(x.abs());
            }
            (lo, hi, max_abs.to_bits())
        }
        // 700 normals: one full 512-value block and a tail whose last four
        // values sit past the last 8-lane group.
        let normals: Vec<f64> = (0..700)
            .map(|i| (i as f64 - 350.5) * 2f64.powi(i % 40 - 20))
            .collect();
        let with = |edits: &[(usize, f64)]| {
            let mut v = normals.clone();
            edits.iter().for_each(|&(i, x)| v[i] = x);
            v
        };
        let cases = [
            vec![f64::NAN; 9],
            vec![-f64::NAN, f64::NAN],
            vec![0.0, -0.0, 0.0],
            vec![-0.0; 600],
            vec![
                f64::from_bits(1),
                -f64::from_bits(1 << 40),
                f64::from_bits(3),
            ],
            normals.clone(),
            with(&[(3, f64::NAN)]),
            with(&[(600, -f64::NAN)]),
            with(&[(5, f64::INFINITY)]),
            with(&[(650, f64::NEG_INFINITY)]),
            // Straddling the block edge: each side holds the extreme or
            // the value that sends its block down the per-value path.
            with(&[(511, 0.0)]),
            with(&[(512, -0.0)]),
            with(&[(511, f64::from_bits(7)), (512, 1e300)]),
            with(&[(511, -1e300), (512, f64::MIN_POSITIVE)]),
            with(&[(511, f64::NAN), (512, f64::INFINITY)]),
            with(&[(699, -1e300), (698, 1e-300)]),
            with(&[(699, f64::MAX), (0, -f64::MIN_POSITIVE)]),
        ];
        for values in &cases {
            let p = profile(values);
            assert_eq!(
                (p.min_exp, p.max_exp, p.max_abs.to_bits()),
                reference(values),
                "{:?}",
                &values[..values.len().min(4)]
            );
        }
        // A block with no non-NaN value folds to no extremes at all.
        assert_eq!(magnitude_extremes(&[f64::NAN; 11]), (f64::INFINITY, 0.0));
        assert_eq!(magnitude_extremes(&[]), (f64::INFINITY, 0.0));
    }

    #[test]
    fn profile_of_benign_data() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = profile(&values);
        assert_eq!(p.n, 100);
        assert_eq!(p.k, 1.0);
        assert_eq!(p.sum_estimate, 5050.0);
        assert_eq!(p.abs_sum, 5050.0);
        assert_eq!(p.max_abs, 100.0);
        // 1..100 spans binades 0..6.
        assert_eq!(p.dr_binades, 6);
        assert_eq!(p.dr_decades(), 2);
    }

    #[test]
    fn profile_matches_exact_measurement_on_hard_data() {
        let generated = repro_gen::generate(&repro_gen::DatasetSpec::new(
            2000,
            repro_gen::CondTarget::Finite(1e6),
            16,
            3,
        ));
        // Cancellation across 60 binades: a profile that rounds below the
        // top bins loses the residue.
        let wide = [1.0, 1.2345 * 2f64.powi(-60), -1.0, 3.0 * 2f64.powi(-70)];
        for values in [&generated[..], &wide] {
            let p = profile(values);
            let m = repro_gen::measure(values);
            // The registers are exact: Σx and Σ|x| are the correctly
            // rounded sums, and k is their quotient (measure forms it in
            // double-double, so the two may differ in the last place).
            assert_eq!(p.sum_estimate.to_bits(), m.sum.to_bits());
            assert_eq!(p.abs_sum.to_bits(), m.abs_sum.to_bits());
            assert!(
                (p.k - m.k).abs() <= 2.0 * f64::EPSILON * m.k,
                "k {} vs {}",
                p.k,
                m.k
            );
            assert!(
                (p.dr_decades() - m.dr).abs() <= 1,
                "dr̂ {} vs {}",
                p.dr_decades(),
                m.dr
            );
        }
    }

    #[test]
    fn zero_sum_data_profiles_as_infinite_k() {
        let values = repro_gen::zero_sum_with_range(1000, 8, 5);
        let p = profile(&values);
        assert_eq!(p.k, f64::INFINITY);
    }

    #[test]
    fn merged_profiles_match_whole_dataset_profiles() {
        let a = repro_gen::zero_sum_with_range(1000, 16, 1);
        let b: Vec<f64> = (1..=500).map(|i| i as f64).collect();
        let mut merged = profile(&a);
        merged.merge(&profile(&b));
        let whole = profile(&[a.clone(), b.clone()].concat());
        assert_eq!(merged.n, whole.n);
        assert_eq!(merged.dr_binades, whole.dr_binades);
        assert_eq!(merged.max_abs, whole.max_abs);
        let rel = |x: f64, y: f64| (x - y).abs() / y.abs().max(f64::MIN_POSITIVE);
        assert!(rel(merged.abs_sum, whole.abs_sum) < 1e-12);
        assert!(rel(merged.k, whole.k) < 1e-9, "{} vs {}", merged.k, whole.k);
    }

    #[test]
    fn incremental_add_matches_batch_profile_bitwise() {
        // Compare every observable quantity bitwise, then the registers.
        fn assert_bitwise_same(a: &DataProfile, b: &DataProfile) {
            assert_eq!(a.n, b.n);
            assert_eq!(a.k.to_bits(), b.k.to_bits());
            assert_eq!(a.dr_binades, b.dr_binades);
            assert_eq!(a.max_abs.to_bits(), b.max_abs.to_bits());
            assert_eq!(a.abs_sum.to_bits(), b.abs_sum.to_bits());
            assert_eq!(a.sum_estimate.to_bits(), b.sum_estimate.to_bits());
            assert_eq!(a.min_exp, b.min_exp);
            assert_eq!(a.max_exp, b.max_exp);
            assert_eq!(a, b);
        }
        // Fold one value at a time: merge its one-value profile.
        fn add(p: &mut DataProfile, x: f64) {
            p.merge(&profile(std::slice::from_ref(&x)));
        }
        let values = repro_gen::zero_sum_with_range(777, 24, 9);
        let batch = profile(&values);
        // Pure streaming.
        let mut inc = DataProfile::empty();
        for &x in &values {
            add(&mut inc, x);
        }
        assert_bitwise_same(&inc, &batch);
        // Interleaved per-value and slice merges, arbitrary split points.
        let mut mixed = profile(&values[..100]);
        for &x in &values[100..300] {
            add(&mut mixed, x);
        }
        mixed.merge(&profile(&values[300..]));
        assert_bitwise_same(&mixed, &batch);
        // And the streaming profile keeps merging like any other partial.
        let mut half = DataProfile::empty();
        for &x in &values[..400] {
            add(&mut half, x);
        }
        half.merge(&profile(&values[400..]));
        assert_bitwise_same(&half, &batch);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let data = repro_gen::uniform(100, -1.0, 1.0, 2);
        let mut p = profile(&data);
        let before = p.clone();
        p.merge(&DataProfile::empty());
        assert_eq!(p, before);
        let mut e = DataProfile::empty();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn degenerate_inputs() {
        let p = profile(&[]);
        assert_eq!((p.n, p.k, p.dr_binades), (0, 1.0, 0));
        assert_eq!(p, DataProfile::empty());
        let p = profile(&[0.0, 0.0]);
        assert_eq!(p.k, 1.0);
        assert_eq!(p.max_abs, 0.0);
    }
}

//! PR — binned (indexed) reproducible summation, in the style of ReproBLAS's
//! `dIAdd`/`dIAddd` operators (Demmel & Nguyen, *Parallel Reproducible
//! Summation*, IEEE ToC 2015). This is the paper's **prerounded summation**
//! operator.
//!
//! # How it works
//!
//! The f64 exponent range is covered by a fixed **absolute grid** of bins of
//! width `W = 40` bits. Bin `a` has *quantum* `Δₐ = 2^(970 − 40a)`: deposits
//! into bin `a` are multiples of `Δₐ`.
//!
//! The accumulator keeps a window of `fold + 1` adjacent bins: one
//! **headroom bin** above the bin of the largest magnitude seen so far,
//! plus `fold` working bins. Depositing a value `x`:
//!
//! 1. **Slice** `x` top-first starting at its *canonical* boundary bin
//!    (the bin above its own — round-to-nearest can push up to one quantum
//!    of mass there): at each bin, round the remaining residual to the
//!    bin's quantum with the classic biased-add trick
//!    `q = fl((r + Mₐ) − Mₐ)`, where `Mₐ = 1.5·2^(Δₐ-exponent + 52)` is a
//!    **constant**. Using the constant bias (rather than the running
//!    primary) makes every slice — including round-to-nearest-even
//!    tie-breaks — a pure function of `x` and the bin, never of accumulated
//!    state. The headroom bin guarantees the canonical start bin is always
//!    inside the window (`window top = bin(max) − 1 ≤ bin(x) − 1`), so the
//!    per-bin slices of every value are identical **in every deposit
//!    order** — without the headroom, a value's boundary round-up could
//!    land in a different bin depending on the running max at deposit time,
//!    and later window raises would drop different material (a genuine
//!    irreproducibility this crate's early development hit and fixed; see
//!    the regression test `boundary_roundup_is_order_independent`).
//! 2. **Accumulate** each slice into the bin's *primary* field
//!    `pₐ = Mₐ + sₐ`. While `|sₐ| ≤ 2^(qₐ−2)` (enforced by renormalization),
//!    `pₐ` stays inside `Mₐ`'s binade, so every accumulation is **exact** —
//!    integer arithmetic in units of `Δₐ` dressed up as floating point.
//! 3. **Renormalize** every 256 deposits: strip quarters of the binade into
//!    a 64-bit integer *carry* per bin, keeping the primary centred.
//!
//! Because every operation after slicing is exact, and slicing is a pure
//! function of the value, the finalized result is **bitwise identical under
//! any permutation of deposits and any merge tree** — the property the
//! paper's Figure 7 shows as a flat line for PR. Accuracy is governed by the
//! window width: error ≤ `n · Δ(window bottom)`, i.e. ~`n · max|xᵢ| ·
//! 2^(−40·fold + 40)`; with the default `fold = 3` that is far below one ulp
//! of any plausible sum.
//!
//! # Range limits (documented, deterministic)
//!
//! * Values with `|x| ≥ 2^1010` (within 2¹⁴ of f64 overflow) poison the
//!   accumulator — finalize returns NaN. (ReproBLAS has the same top-bin
//!   restriction.)
//! * Contributions more than `fold` bins below the running maximum are
//!   rounded away — that is the *pre-rounding* that buys reproducibility.
//! * Deposits below `2^-1071` flush to zero (deep-subnormal floor of the
//!   grid).

use crate::Accumulator;
use repro_fp::ulp::{exponent, pow2};
use repro_fp::Superaccumulator;

/// Bin width in bits.
pub const BIN_WIDTH: i32 = 40;

/// Quantum exponent of bin 0 (`Δ₀ = 2^970`); chosen as large as possible
/// while keeping every bias `Mₐ = 1.5·2^(bₐ+52)` a normal f64.
const BIN0_QUANTUM_EXP: i32 = 970;

/// Largest supported value exponent: bin 0 covers `e ∈ [970, 1009]`.
const MAX_SUPPORTED_EXP: i32 = BIN0_QUANTUM_EXP + BIN_WIDTH - 1;

/// Last bin whose bias is still a normal f64 (`b₅₁ = −1070 ≥ −1074`).
const MAX_BIN: i32 = 51;

/// Maximum fold supported (ReproBLAS uses up to 4 in practice).
pub const MAX_FOLD: usize = 4;

/// Internal slot count: `fold` working bins plus the headroom bin.
const MAX_SLOTS: usize = MAX_FOLD + 1;

/// Bound on a restored slot's carry magnitude: half of the `2^53` that
/// [`BinnedSum::finalize`] converts exactly, so any two restored states
/// merge within it. A real accumulator's carries move by a few units per
/// renormalization.
const MAX_CARRY: i64 = 1 << 52;

/// Deposits between renormalizations. Drift per deposit is below
/// `2^(q−11)·1.0009` per slot; 256 of them stay well inside the `2^(q−2)`
/// capacity together with the `2^(q−3)` post-renorm residual.
const RENORM_EVERY: u32 = 256;

/// Quantum exponent of absolute bin `a`.
#[inline]
fn quantum_exp(bin: i32) -> i32 {
    BIN0_QUANTUM_EXP - bin * BIN_WIDTH
}

/// Extraction bias for absolute bin `a`: `1.5 · 2^(quantum_exp + 52)`.
#[inline]
fn bias(bin: i32) -> f64 {
    1.5 * pow2(quantum_exp(bin) + 52)
}

/// Absolute bin index of a value with binary exponent `e` (clamped to the
/// grid).
#[inline]
fn bin_of_exponent(e: i32) -> i32 {
    debug_assert!(e <= MAX_SUPPORTED_EXP);
    let raw = (MAX_SUPPORTED_EXP - e).div_euclid(BIN_WIDTH);
    raw.min(MAX_BIN)
}

/// Reproducible binned accumulator — the paper's **PR** reduction operator.
///
/// ```
/// use repro_sum::{Accumulator, BinnedSum};
///
/// let values = [1e16, 3.14, -1e16, -2.0, 7.5e-13];
/// let mut forward = BinnedSum::new(3);
/// let mut backward = BinnedSum::new(3);
/// for &v in &values {
///     forward.add(v);
/// }
/// for &v in values.iter().rev() {
///     backward.add(v);
/// }
/// // Bitwise identical regardless of order:
/// assert_eq!(forward.finalize().to_bits(), backward.finalize().to_bits());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BinnedSum {
    fold: usize,
    /// Absolute bin index of the window's top slot (the headroom bin);
    /// `-1` while empty.
    index: i32,
    /// `primary[j] = bias(index+j) + s_j`, with `s_j` an exact multiple of
    /// the bin quantum.
    primary: [f64; MAX_SLOTS],
    /// Stripped quarters (units of `2^(quantum_exp+50)`) per slot.
    carry: [i64; MAX_SLOTS],
    deposits: u32,
    nan: bool,
    pos_inf: bool,
    neg_inf: bool,
    /// Saw a value above the supported range (`|x| >= 2^1010`).
    range_overflow: bool,
}

impl BinnedSum {
    /// New accumulator with the given fold (1..=4). The paper's PR operator
    /// corresponds to `fold = 3`, the ReproBLAS default.
    pub fn new(fold: usize) -> Self {
        assert!(
            (1..=MAX_FOLD).contains(&fold),
            "fold must be in 1..={MAX_FOLD}, got {fold}"
        );
        Self {
            fold,
            index: -1,
            primary: [0.0; MAX_SLOTS],
            carry: [0; MAX_SLOTS],
            deposits: 0,
            nan: false,
            pos_inf: false,
            neg_inf: false,
            range_overflow: false,
        }
    }

    /// The fold (number of live bins).
    pub fn fold(&self) -> usize {
        self.fold
    }

    /// Sum a slice reproducibly at the given fold.
    pub fn sum_slice(values: &[f64], fold: usize) -> f64 {
        let mut acc = Self::new(fold);
        acc.add_slice(values);
        acc.finalize()
    }

    /// Number of live slots: the headroom bin plus `fold` working bins.
    fn slots(&self) -> usize {
        self.fold + 1
    }

    /// Window top must never exceed this, so the window fits on the grid.
    fn max_index(&self) -> i32 {
        MAX_BIN - self.fold as i32
    }

    /// Raise (coarsen) the window so its top slot is absolute bin
    /// `new_index`. Slot contents slide toward the bottom; slots that fall
    /// off are discarded (their contribution is below the new window).
    fn raise_window(&mut self, new_index: i32) {
        debug_assert!(self.index < 0 || new_index < self.index);
        let k = self.slots();
        if self.index < 0 {
            // First value: open a fresh window.
            self.index = new_index;
            for j in 0..k {
                self.primary[j] = bias(new_index + j as i32);
                self.carry[j] = 0;
            }
            return;
        }
        let d = (self.index - new_index) as usize;
        for j in (0..k).rev() {
            if j >= d {
                self.primary[j] = self.primary[j - d];
                self.carry[j] = self.carry[j - d];
            } else {
                self.primary[j] = bias(new_index + j as i32);
                self.carry[j] = 0;
            }
        }
        self.index = new_index;
    }

    /// Strip accumulated quarters into the integer carries so the primaries
    /// stay centred in their binades.
    fn renormalize(&mut self) {
        if self.index < 0 {
            return;
        }
        for j in 0..self.slots() {
            let bin = self.index + j as i32;
            let q = quantum_exp(bin) + 52;
            let quarter = pow2(q - 2);
            let s = self.primary[j] - bias(bin); // exact: same binade
            let k = (s / quarter).round(); // in {-1, 0, 1}
            if k != 0.0 {
                self.primary[j] -= k * quarter; // exact: multiple of quantum
                self.carry[j] += k as i64;
            }
        }
        self.deposits = 0;
    }

    /// Serialize the accumulator state to a compact text checkpoint.
    ///
    /// Long-running reductions (simulations summing across restarts) can
    /// persist the accumulator and resume **bitwise identically**: the
    /// state is exact, so checkpoint/restore commutes with any split of the
    /// deposit stream. Format: one line,
    /// `fold;index;p0,p1,..;c0,c1,..;flags` with primaries as hex bit
    /// patterns (text-safe and exact).
    pub fn checkpoint(&self) -> String {
        let primaries: Vec<String> = self.primary[..self.slots()]
            .iter()
            .map(|p| format!("{:016x}", p.to_bits()))
            .collect();
        let carries: Vec<String> = self.carry[..self.slots()]
            .iter()
            .map(|c| c.to_string())
            .collect();
        format!(
            "{};{};{};{};{}{}{}{}",
            self.fold,
            self.index,
            primaries.join(","),
            carries.join(","),
            u8::from(self.nan),
            u8::from(self.pos_inf),
            u8::from(self.neg_inf),
            u8::from(self.range_overflow),
        )
    }

    /// Restore an accumulator from [`BinnedSum::checkpoint`] output.
    /// Strict: returns `None` unless `text` is byte for byte what
    /// `checkpoint` writes, for a state that `merge` and `finalize` read
    /// exactly and without panicking.
    pub fn restore(text: &str) -> Option<Self> {
        let mut parts = text.split(';');
        let fold: usize = parts.next()?.parse().ok()?;
        if !(1..=MAX_FOLD).contains(&fold) {
            return None;
        }
        let index: i32 = parts.next()?.parse().ok()?;
        let mut acc = Self::new(fold);
        acc.index = index;
        let primaries = parts.next()?;
        for (j, tok) in primaries.split(',').enumerate() {
            if j >= acc.slots() {
                return None;
            }
            acc.primary[j] = f64::from_bits(u64::from_str_radix(tok, 16).ok()?);
        }
        let carries = parts.next()?;
        for (j, tok) in carries.split(',').enumerate() {
            if j >= acc.slots() {
                return None;
            }
            acc.carry[j] = tok.parse().ok()?;
        }
        let flags = parts.next()?.as_bytes();
        if flags.len() != 4 || parts.next().is_some() {
            return None;
        }
        acc.nan = flags[0] == b'1';
        acc.pos_inf = flags[1] == b'1';
        acc.neg_inf = flags[2] == b'1';
        acc.range_overflow = flags[3] == b'1';
        // The checkpoint does not record how many deposits have drifted
        // the primaries since their last renormalization (up to
        // `RENORM_EVERY - 1`), so the first deposit after a restore
        // renormalizes. A fresh count would let an accumulator restored
        // more often than every `RENORM_EVERY` deposits never renormalize.
        acc.deposits = RENORM_EVERY - 1;
        // Re-rendering rejects every non-canonical spelling: signs, leading
        // zeros, padding, upper-case hex, missing slots and flags other
        // than `0`/`1`.
        (acc.is_checkpointable() && acc.checkpoint() == text).then_some(acc)
    }

    /// Whether `merge` and `finalize` read the state exactly and without
    /// panicking: empty with zeroed slots, or a window on the grid (top in
    /// `0..=MAX_BIN − fold`) whose primaries lie within a factor of two of
    /// their biases, so `primary − bias` is exact (Sterbenz), and whose
    /// carries are below [`MAX_CARRY`].
    fn is_checkpointable(&self) -> bool {
        let k = self.slots();
        if self.index == -1 {
            return self.primary[..k].iter().all(|p| p.to_bits() == 0)
                && self.carry[..k].iter().all(|&c| c == 0);
        }
        (0..=self.max_index()).contains(&self.index)
            && (0..k).all(|j| {
                let b = bias(self.index + j as i32);
                (b / 2.0..=b * 2.0).contains(&self.primary[j])
                    && (-MAX_CARRY..MAX_CARRY).contains(&self.carry[j])
            })
    }

    /// Exact bin content of slot `j` as `(primary − bias, carry·quarter)`;
    /// both parts are exact f64 values.
    fn slot_parts(&self, j: usize) -> (f64, f64) {
        let bin = self.index + j as i32;
        let q = quantum_exp(bin) + 52;
        let s = self.primary[j] - bias(bin);
        let carry_value = (self.carry[j] as f64) * pow2(q - 2);
        debug_assert!(self.carry[j].abs() < (1i64 << 53));
        (s, carry_value)
    }
}

impl Accumulator for BinnedSum {
    fn add(&mut self, x: f64) {
        if x == 0.0 {
            return;
        }
        if !x.is_finite() {
            if x.is_nan() {
                self.nan = true;
            } else if x > 0.0 {
                self.pos_inf = true;
            } else {
                self.neg_inf = true;
            }
            return;
        }
        let e = exponent(x).expect("finite nonzero");
        if e > MAX_SUPPORTED_EXP {
            self.range_overflow = true;
            return;
        }
        let ix = bin_of_exponent(e);
        // Window top: one headroom bin above the running max's bin, so the
        // canonical start bin below is always inside the window.
        let target = (ix - 1).clamp(0, self.max_index());
        if self.index < 0 || target < self.index {
            if self.index >= 0 {
                // Keep exactness at the merge of old content into the new
                // window: strip drift before sliding.
                self.renormalize();
            }
            self.raise_window(target);
        }
        // Canonical decomposition: slices above bin ix-1 are identically
        // zero, so extraction always starts at the boundary bin ix-1 —
        // the same bin in every deposit order (window top <= ix-1 always).
        let first = (ix - 1).max(0) - self.index;
        debug_assert!(first >= 0, "window top must sit at or above the start bin");
        if first >= self.slots() as i32 {
            return; // entirely below the window: pre-rounded away
        }
        let mut r = x;
        for j in first as usize..self.slots() {
            let m = bias(self.index + j as i32);
            // Slice against the CONSTANT bias: q is a pure function of
            // (r, bin) including its tie-break, never of accumulated state.
            let q = (r + m) - m;
            if q != 0.0 {
                self.primary[j] += q; // exact while capacity is respected
                r -= q; // exact (Sterbenz)
            }
            if r == 0.0 {
                break;
            }
        }
        self.deposits += 1;
        if self.deposits >= RENORM_EVERY {
            self.renormalize();
        }
    }

    fn merge(&mut self, other: &Self) {
        self.nan |= other.nan;
        self.pos_inf |= other.pos_inf;
        self.neg_inf |= other.neg_inf;
        self.range_overflow |= other.range_overflow;
        if other.index < 0 {
            return;
        }
        if self.index < 0 {
            let flags = (self.nan, self.pos_inf, self.neg_inf, self.range_overflow);
            *self = *other;
            self.nan = flags.0;
            self.pos_inf = flags.1;
            self.neg_inf = flags.2;
            self.range_overflow = flags.3;
            self.renormalize();
            return;
        }
        assert_eq!(
            self.fold, other.fold,
            "cannot merge BinnedSum accumulators of different folds"
        );
        let mut rhs = *other;
        rhs.renormalize();
        self.renormalize();
        if rhs.index < self.index {
            self.raise_window(rhs.index);
        } else if rhs.index > self.index {
            rhs.raise_window(self.index);
        }
        for j in 0..self.slots() {
            let bin = self.index + j as i32;
            let s_other = rhs.primary[j] - bias(bin); // exact
            self.primary[j] += s_other; // exact: |s_a + s_b| within capacity
            self.carry[j] += rhs.carry[j];
        }
        self.renormalize();
    }

    fn finalize(&self) -> f64 {
        if self.nan || self.range_overflow || (self.pos_inf && self.neg_inf) {
            return f64::NAN;
        }
        self.finalize_inner()
    }
}

impl BinnedSum {
    /// Read the accumulated value at double-double precision (~106 bits):
    /// the window holds up to `40·fold + 40` bits of signal, more than one
    /// f64 can return. Finite-state only (specials go through
    /// [`Accumulator::finalize`]).
    pub fn value_dd(&self) -> repro_fp::DoubleDouble {
        if self.nan || self.range_overflow || self.pos_inf || self.neg_inf || self.index < 0 {
            return repro_fp::DoubleDouble::from_f64(self.finalize());
        }
        let mut acc = Superaccumulator::new();
        for j in 0..self.slots() {
            let (s, carry_value) = self.slot_parts(j);
            acc.add(s);
            acc.add(carry_value);
        }
        acc.to_dd()
    }

    fn finalize_inner(&self) -> f64 {
        if self.pos_inf {
            return f64::INFINITY;
        }
        if self.neg_inf {
            return f64::NEG_INFINITY;
        }
        if self.index < 0 {
            return 0.0;
        }
        // The bin contents are exact; sum them exactly and round once.
        let mut acc = Superaccumulator::new();
        for j in 0..self.slots() {
            let (s, carry_value) = self.slot_parts(j);
            acc.add(s);
            acc.add(carry_value);
        }
        acc.to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Accumulator;

    fn bits(x: f64) -> u64 {
        x.to_bits()
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(BinnedSum::new(3).finalize(), 0.0);
    }

    #[test]
    fn single_value_round_trips_within_window_accuracy() {
        for x in [1.0, -3.7e200, 2.5e-300, 0.1] {
            let mut acc = BinnedSum::new(3);
            acc.add(x);
            let r = acc.finalize();
            let rel = ((r - x) / x).abs();
            assert!(rel < 2f64.powi(-79), "{x:e} -> {r:e} (rel {rel:e})");
        }
    }

    #[test]
    fn order_independence_exhaustive_small() {
        // All 120 permutations of 5 adversarial values: identical bits.
        let vals = [1e16, -1.0, 3.5e-12, -1e16, 2f64.powi(-40)];
        let mut reference = None;
        let mut idx = [0usize, 1, 2, 3, 4];
        heap_permutations(&mut idx, &mut |perm| {
            let mut acc = BinnedSum::new(3);
            for &i in perm {
                acc.add(vals[i]);
            }
            let r = bits(acc.finalize());
            match reference {
                None => reference = Some(r),
                Some(want) => assert_eq!(r, want, "perm {perm:?} diverged"),
            }
        });
    }

    fn heap_permutations(items: &mut [usize], visit: &mut impl FnMut(&[usize])) {
        fn heap(k: usize, items: &mut [usize], visit: &mut impl FnMut(&[usize])) {
            if k <= 1 {
                visit(items);
                return;
            }
            for i in 0..k {
                heap(k - 1, items, visit);
                if k % 2 == 0 {
                    items.swap(i, k - 1);
                } else {
                    items.swap(0, k - 1);
                }
            }
        }
        heap(items.len(), items, visit);
    }

    #[test]
    fn merge_tree_equals_sequential_bitwise() {
        // Reduce 64 values sequentially vs. via a balanced merge tree.
        let values: Vec<f64> = (0..64)
            .map(|i| ((i * 37 % 64) as f64 - 31.5) * 2f64.powi((i % 40) - 20))
            .collect();
        let mut seq = BinnedSum::new(3);
        seq.add_slice(&values);

        fn tree(vals: &[f64]) -> BinnedSum {
            if vals.len() == 1 {
                let mut a = BinnedSum::new(3);
                a.add(vals[0]);
                return a;
            }
            let (l, r) = vals.split_at(vals.len() / 2);
            let mut a = tree(l);
            a.merge(&tree(r));
            a
        }
        assert_eq!(bits(tree(&values).finalize()), bits(seq.finalize()));
    }

    #[test]
    fn accurate_for_well_scaled_data() {
        let values: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let exact = repro_fp::exact_sum(&values);
        let got = BinnedSum::sum_slice(&values, 3);
        let err = (got - exact).abs();
        assert!(err <= repro_fp::ulp::ulp(exact), "err {err:e}");
    }

    #[test]
    fn window_drops_far_below_maximum() {
        // fold=1: only ~40 bits of window. A value 2^-60 below the max is
        // pre-rounded away entirely -- deterministically.
        let mut acc = BinnedSum::new(1);
        acc.add(1.0);
        acc.add(2f64.powi(-50));
        let r = acc.finalize();
        assert_eq!(r, 1.0);
        // With fold = 3 (120-bit window) the term survives: 1 + 2^-50 is
        // representable and must come back exactly.
        let mut acc = BinnedSum::new(3);
        acc.add(1.0);
        acc.add(2f64.powi(-50));
        assert_eq!(acc.finalize(), 1.0 + 2f64.powi(-50));
        assert_ne!(acc.finalize(), 1.0);
    }

    #[test]
    fn window_raise_drops_old_fine_bins_deterministically() {
        // Accumulate small values first, then a huge one: the window jumps
        // up and the small residue must be *identically* what we'd get
        // depositing the huge value first.
        let small: Vec<f64> = (0..100).map(|i| (i as f64 + 0.5) * 1e-8).collect();
        let mut a = BinnedSum::new(2);
        a.add_slice(&small);
        a.add(1e30);
        let mut b = BinnedSum::new(2);
        b.add(1e30);
        b.add_slice(&small);
        assert_eq!(bits(a.finalize()), bits(b.finalize()));
    }

    #[test]
    fn renormalization_survives_many_deposits() {
        // Enough deposits to force many renorm cycles, all at one scale.
        let n = 100_000;
        let values: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 1e-10).collect();
        let exact = repro_fp::exact_sum(&values);
        let got = BinnedSum::sum_slice(&values, 3);
        let rel = ((got - exact) / exact).abs();
        assert!(rel < 1e-15, "rel err {rel:e}");
    }

    #[test]
    fn special_values() {
        let mut acc = BinnedSum::new(3);
        acc.add(f64::INFINITY);
        assert_eq!(acc.finalize(), f64::INFINITY);
        acc.add(f64::NEG_INFINITY);
        assert!(acc.finalize().is_nan());

        let mut acc = BinnedSum::new(3);
        acc.add(f64::NAN);
        assert!(acc.finalize().is_nan());

        // Range overflow poisons deterministically.
        let mut acc = BinnedSum::new(3);
        acc.add(f64::MAX);
        assert!(acc.finalize().is_nan());
    }

    #[test]
    fn fold_one_through_four_all_reproducible() {
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut values: Vec<f64> = (0..500)
            .map(|i| ((i % 97) as f64 - 48.0) * 2f64.powi((i % 80) - 40))
            .collect();
        for fold in 1..=4 {
            let reference = BinnedSum::sum_slice(&values, fold);
            for _ in 0..10 {
                values.shuffle(&mut rng);
                assert_eq!(
                    bits(BinnedSum::sum_slice(&values, fold)),
                    bits(reference),
                    "fold {fold} not order-independent"
                );
            }
        }
    }

    #[test]
    fn higher_fold_is_more_accurate() {
        // Zero-sum data with 25 decades of dynamic range.
        let mut values = Vec::new();
        for i in 0..2000 {
            let v = (1.0 + (i % 13) as f64) * 10f64.powi(i % 26 - 13);
            values.push(v);
            values.push(-v);
        }
        let exact = 0.0;
        let mut last_err = f64::INFINITY;
        for fold in 1..=4 {
            let err = (BinnedSum::sum_slice(&values, fold) - exact).abs();
            assert!(
                err <= last_err || err == 0.0,
                "fold {fold}: err {err:e} worse than previous {last_err:e}"
            );
            last_err = err.max(f64::MIN_POSITIVE);
        }
    }

    #[test]
    #[should_panic(expected = "fold must be in")]
    fn zero_fold_rejected() {
        let _ = BinnedSum::new(0);
    }

    #[test]
    fn boundary_roundup_is_order_independent() {
        // Regression test for a real bug: a value in the top half of its
        // bin's range rounds one quantum into the bin ABOVE its own. Without
        // the headroom bin, whether that boundary bin existed at deposit
        // time depended on the running max (i.e. on order), and a later
        // window raise would drop different material per order. Construct
        // exactly that scenario: tiny values sharing a bin, then a value
        // ~2^40 larger, then one ~2^80 larger still, so the window raises
        // twice and the boundary bin of the tiny values sits right at a
        // drop edge for fold = 3.
        let tiny = f64::from_bits(0x3e06841219aff84f); // ~0.7 * 2^-30
        let tiny2 = tiny / 2.0;
        let mid = -8.879332731681778e14; // bin 24 (binade ~2^49)
        let big = 7.6e30; // bin 23 region (binade ~2^102)
        let base = [tiny, tiny2, mid, big, 0.25, -1e-3, 4.2e8];
        let mut perm: Vec<usize> = (0..base.len()).collect();
        let mut results = std::collections::HashSet::new();
        heap_permutations(&mut perm, &mut |p| {
            let mut acc = BinnedSum::new(3);
            for &i in p {
                acc.add(base[i]);
            }
            results.insert(acc.finalize().to_bits());
        });
        assert_eq!(
            results.len(),
            1,
            "boundary round-up leaked order dependence"
        );
    }

    #[test]
    fn wide_dynamic_range_shuffles_are_bitwise_stable() {
        // The fig07 workload class that exposed the boundary bug: 32
        // decades of dynamic range, thousands of values, many renorm cycles
        // and window raises.
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        for seed in [1u64, 7, 10207] {
            let mut values = repro_gen_like_zero_sum(4096, seed);
            let reference = BinnedSum::sum_slice(&values, 3);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFF);
            for _ in 0..20 {
                values.shuffle(&mut rng);
                assert_eq!(
                    BinnedSum::sum_slice(&values, 3).to_bits(),
                    reference.to_bits(),
                    "seed {seed}"
                );
            }
        }
    }

    /// Local generator mimicking repro-gen's zero-sum wide-range sets
    /// (repro-sum cannot depend on repro-gen without a cycle).
    fn repro_gen_like_zero_sum(n: usize, seed: u64) -> Vec<f64> {
        use rand::{rngs::StdRng, seq::SliceRandom, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = Vec::with_capacity(n);
        for _ in 0..n / 2 {
            let e: f64 = rng.random_range(-16.0..16.0);
            let m: f64 = rng.random_range(1.0..10.0);
            let x = m * 10f64.powf(e);
            v.push(x);
            v.push(-x);
        }
        v.shuffle(&mut rng);
        v
    }

    #[test]
    fn merge_with_empty_and_poisoned_states() {
        // Empty merges are identities.
        let mut a = BinnedSum::new(3);
        a.add(1.5);
        let before = a.finalize();
        a.merge(&BinnedSum::new(3));
        assert_eq!(a.finalize().to_bits(), before.to_bits());
        let mut empty = BinnedSum::new(3);
        empty.merge(&a);
        assert_eq!(empty.finalize().to_bits(), before.to_bits());
        // Poison (range overflow) propagates through merges.
        let mut poisoned = BinnedSum::new(3);
        poisoned.add(f64::MAX);
        a.merge(&poisoned);
        assert!(a.finalize().is_nan());
        // And adding after poison keeps the poison.
        a.add(1.0);
        assert!(a.finalize().is_nan());
    }

    #[test]
    fn merge_of_two_empty_accumulators_is_zero() {
        let mut a = BinnedSum::new(2);
        a.merge(&BinnedSum::new(2));
        assert_eq!(a.finalize(), 0.0);
    }

    #[test]
    fn infinities_survive_merges() {
        let mut a = BinnedSum::new(3);
        a.add(f64::INFINITY);
        let mut b = BinnedSum::new(3);
        b.add(42.0);
        b.merge(&a);
        assert_eq!(b.finalize(), f64::INFINITY);
        let mut c = BinnedSum::new(3);
        c.add(f64::NEG_INFINITY);
        b.merge(&c);
        assert!(b.finalize().is_nan());
    }

    #[test]
    fn negative_zero_inputs_are_ignored() {
        let mut acc = BinnedSum::new(3);
        acc.add(-0.0);
        acc.add(0.0);
        assert_eq!(acc.finalize(), 0.0);
        acc.add(2.5);
        acc.add(-0.0);
        assert_eq!(acc.finalize(), 2.5);
    }

    #[test]
    fn value_dd_exposes_sub_ulp_signal() {
        let mut acc = BinnedSum::new(3);
        acc.add(1.0);
        acc.add(2f64.powi(-60));
        let dd = acc.value_dd();
        assert_eq!(dd.hi, 1.0);
        assert_eq!(dd.lo, 2f64.powi(-60));
        // Specials degrade to the scalar path.
        acc.add(f64::INFINITY);
        assert_eq!(acc.value_dd().hi, f64::INFINITY);
    }

    #[test]
    fn checkpoint_restore_is_bitwise_transparent() {
        // Sum half the stream, checkpoint, restore, sum the rest: bitwise
        // identical to the uninterrupted reduction.
        let values = repro_gen_like_zero_sum(4096, 31);
        let (first, second) = values.split_at(2000);
        let mut acc = BinnedSum::new(3);
        acc.add_slice(first);
        let saved = acc.checkpoint();
        let mut restored = BinnedSum::restore(&saved).expect("round trip");
        restored.add_slice(second);
        let mut whole = BinnedSum::new(3);
        whole.add_slice(&values);
        assert_eq!(restored.finalize().to_bits(), whole.finalize().to_bits());
        // And restoring again from the same text matches too (pure).
        let again = BinnedSum::restore(&saved).unwrap();
        assert_eq!(again.finalize().to_bits(), {
            let mut a = BinnedSum::new(3);
            a.add_slice(first);
            a.finalize().to_bits()
        });
    }

    #[test]
    fn frequent_checkpoints_keep_renormalizing() {
        // 255 deposits per cycle, one short of the renormalization cadence:
        // each restore must carry the drift forward, not forget it.
        let x = 511.0 + 2f64.powi(-30);
        let mut whole = BinnedSum::new(3);
        let mut cycled = BinnedSum::new(3);
        for cycle in 0..64 {
            for _ in 0..RENORM_EVERY - 1 {
                whole.add(x);
                cycled.add(x);
            }
            let text = cycled.checkpoint();
            cycled = BinnedSum::restore(&text)
                .unwrap_or_else(|| panic!("cycle {cycle}: checkpoint {text} did not restore"));
            assert_eq!(
                bits(cycled.finalize()),
                bits(whole.finalize()),
                "cycle {cycle}"
            );
        }
    }

    #[test]
    fn checkpoint_preserves_special_flags() {
        let mut acc = BinnedSum::new(2);
        acc.add(f64::INFINITY);
        let restored = BinnedSum::restore(&acc.checkpoint()).unwrap();
        assert_eq!(restored.finalize(), f64::INFINITY);
        let mut acc = BinnedSum::new(2);
        acc.add(f64::MAX); // range poison
        let restored = BinnedSum::restore(&acc.checkpoint()).unwrap();
        assert!(restored.finalize().is_nan());
    }

    #[test]
    fn restore_rejects_garbage() {
        for bad in [
            "",
            "9;0;;;0000",
            "3;0;zz;0;0000",
            "3",
            "3;0;0;0;00001;extra",
        ] {
            assert!(BinnedSum::restore(bad).is_none(), "{bad:?}");
        }
        let mut one = BinnedSum::new(3);
        one.add(1.0);
        let good = one.checkpoint();
        assert_eq!(one.index, 24);
        let mut fields: Vec<String> = good.split(';').map(String::from).collect();
        let with = |i: usize, v: &str| {
            let mut f = fields.clone();
            f[i] = v.to_string();
            f.join(";")
        };
        for bad in [
            with(4, "abcd"),
            with(4, "0002"),
            format!("+{good}"),
            format!("0{good}"),
            format!(" {good}"),
            format!("{good}\n"),
            with(1, "+24"),
            with(1, "2000000000"),
            with(1, "-2"),
            with(1, &(MAX_BIN - 2).to_string()),
            with(2, &fields[2].to_uppercase()),
            with(3, "0,0,0,-0"),
            with(3, &format!("0,0,0,{MAX_CARRY}")),
            with(3, &format!("0,0,0,{}", i64::MIN)),
            // Index 1 over the primaries of window 24.
            with(1, "1"),
            // The empty state with a nonzero slot.
            BinnedSum::new(3)
                .checkpoint()
                .replacen("0000000000000000", "3ff0000000000000", 1),
        ] {
            assert!(BinnedSum::restore(&bad).is_none(), "{bad:?}");
        }
        fields[3] = format!("0,0,0,{}", MAX_CARRY - 1);
        assert!(BinnedSum::restore(&fields.join(";")).is_some());
    }

    #[test]
    fn restore_accepts_only_what_checkpoint_writes() {
        let mut states = vec![BinnedSum::new(3)];
        let mut one = BinnedSum::new(1);
        one.add(0.1);
        states.push(one);
        let mut mixed = BinnedSum::new(4);
        mixed.add_slice(&repro_gen_like_zero_sum(600, 5)[..301]);
        states.push(mixed);
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX] {
            let mut acc = BinnedSum::new(2);
            acc.add(3.5);
            acc.add(special);
            states.push(acc);
        }
        let alphabet = b"0123456789abcdefABCDEF;,-+ .\nxz";
        for state in states {
            let good = state.checkpoint();
            let base = BinnedSum::restore(&good).expect("own checkpoint restores");
            assert_eq!(base.checkpoint(), good);
            assert_eq!(bits(base.finalize()), bits(state.finalize()));
            for cut in 0..good.len() {
                assert!(
                    BinnedSum::restore(&good[..cut]).is_none(),
                    "accepted a {cut}-byte prefix of {good}"
                );
            }
            // Every one-byte substitution: no panic in restore, finalize or
            // merge, and whatever parses re-serializes to its own bytes.
            for at in 0..good.len() {
                for &byte in alphabet {
                    let mut mutated = good.clone().into_bytes();
                    mutated[at] = byte;
                    let text = String::from_utf8(mutated).expect("ASCII stays UTF-8");
                    let Some(parsed) = BinnedSum::restore(&text) else {
                        continue;
                    };
                    assert_eq!(parsed.checkpoint(), text);
                    parsed.finalize();
                    let mut a = parsed;
                    a.merge(&base);
                    a.finalize();
                    let mut b = base;
                    b.merge(&parsed);
                    b.finalize();
                }
            }
        }
    }

    #[test]
    fn deep_subnormals_flush_deterministically() {
        let tiny = f64::from_bits(1); // 2^-1074, below the grid floor
        let mut a = BinnedSum::new(3);
        a.add(tiny);
        a.add(tiny);
        // Flushed to zero -- but deterministically so.
        let mut b = BinnedSum::new(3);
        b.add(tiny);
        b.add(tiny);
        assert_eq!(bits(a.finalize()), bits(b.finalize()));
    }
}

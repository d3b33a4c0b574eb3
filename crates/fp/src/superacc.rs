//! Exact summation via a Kulisch-style superaccumulator.
//!
//! A [`Superaccumulator`] is a wide fixed-point register covering the entire
//! exponent range of `f64` (bit weights `2^-1074` through beyond `2^1088`),
//! so the sum of **any** sequence of finite `f64` values is accumulated with
//! *no rounding at all*. A single correctly-rounded conversion back to `f64`
//! (round-to-nearest-even) happens in [`Superaccumulator::to_f64`].
//!
//! In this workspace the superaccumulator plays the role the paper assigns to
//! GNU MPFR quad-double arithmetic: the accurate reference against which all
//! summation errors are measured. Exact fixed-point accumulation is strictly
//! stronger than quad-double (it is error-free for sums), and — critically for
//! a paper about reproducibility — it is bitwise independent of the order in
//! which values are added.
//!
//! # Representation
//!
//! The register is a little-endian array of [`DIGITS`] base-2³² digits stored
//! in `i64` slots. Bit `p` of the register has weight `2^(p - 1074)`. Between
//! normalizations, digits may hold values outside `[0, 2³²)`; a counter
//! triggers carry propagation long before any `i64` could overflow. The final
//! carry out of the top digit is kept in a sign-extension word, making the
//! whole register a two's-complement fixed-point number:
//!
//! ```text
//! value = sign_ext · 2^(32·DIGITS - 1074) + Σ_i digits[i] · 2^(32·i - 1074)
//! ```

use crate::dd::DoubleDouble;
use crate::simd::{self, Cascade, SimdTier};
use crate::ulp::decompose;

/// Number of base-2³² digits in the register.
///
/// Bit span = `32 * DIGITS` = 2240 bits, covering weights `2^-1074` up to
/// `2^1166`; sums of up to 2⁷⁸ values of maximal magnitude fit without
/// overflow, far beyond anything a real reduction produces.
pub const DIGITS: usize = 70;

/// Adds between forced normalizations. Each `add` perturbs a digit by less
/// than 2³²; digits start in `[0, 2³²)`, so `2³⁰` adds keep every digit well
/// within `i64` range.
const NORMALIZE_EVERY: u32 = 1 << 30;

const DIGIT_MASK: i64 = 0xffff_ffff;

/// Bit width of the register-resident deposit window of the per-value
/// kernel ([`Superaccumulator::add_block`]): values whose mantissa's least
/// significant bit falls within 64 bits above the window anchor are
/// accumulated as `mantissa << s` in wide lane registers instead of being
/// scattered into the heap-resident digit array; everything else takes the
/// direct scalar-style deposit.
const WINDOW_BITS: usize = 64;

/// Independent `i128` lane accumulators interleaved round-robin by the
/// batched kernel. Consecutive same-exponent deposits would otherwise
/// serialize on one read-modify-write chain; four disjoint chains let the
/// CPU overlap them. Integer addition is exact and commutative, so the
/// split cannot change the accumulated value.
const ACC_LANES: usize = 4;

/// Elements per block of `add_slice`: the unit one scan plans a cascade
/// for ([`Cascade::plan`]), and one spill block of the per-value kernel. At
/// most `BLOCK / ACC_LANES = 512` deposits land in one of its lanes, each
/// below `2^(53 + WINDOW_BITS - 1) = 2^116`, so a lane's magnitude stays
/// under `2^126` — `i128` cannot overflow within a block.
const BLOCK: usize = 2048;

/// Default accumulator-chain count of the cascade kernel. Independent
/// chains break the one-FP-add-latency-per-element dependency chain; each
/// chain folds at most [`simd::SUB_BLOCK`] elements between deposits, which
/// keeps every partial sum exact (see [`Cascade`]). Callers can narrow or
/// widen the chain count through [`Superaccumulator::add_slice_lanes`] —
/// the result is bit-identical either way.
const FP_LANES: usize = 8;

/// A wide fixed-point accumulator that sums `f64` values exactly.
///
/// ```
/// use repro_fp::Superaccumulator;
///
/// let mut acc = Superaccumulator::new();
/// // Catastrophic for plain f64 (absorption), trivial for the register:
/// acc.add(1e16);
/// acc.add(1.0);
/// acc.add(-1e16);
/// assert_eq!(acc.to_f64(), 1.0);
/// ```
#[derive(Clone)]
pub struct Superaccumulator {
    digits: Box<[i64; DIGITS]>,
    /// Two's-complement sign extension beyond the top digit (`0` or `-1`
    /// after normalization, for in-range values).
    sign_ext: i64,
    /// Adds since the last normalization.
    pending: u32,
    /// Saw at least one NaN input (or both +inf and -inf).
    nan: bool,
    /// Saw +infinity / -infinity.
    pos_inf: bool,
    neg_inf: bool,
}

impl Default for Superaccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Superaccumulator {
    /// A fresh, zero-valued accumulator.
    pub fn new() -> Self {
        Self {
            digits: Box::new([0i64; DIGITS]),
            sign_ext: 0,
            pending: 0,
            nan: false,
            pos_inf: false,
            neg_inf: false,
        }
    }

    /// Exactly sum an iterator of values (batched through [`Self::add_slice`]).
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut acc = Self::new();
        acc.extend(values);
        acc
    }

    /// Add a value exactly. Non-finite inputs are recorded and poison the
    /// final conversion exactly as IEEE-754 sequential addition would
    /// (`+inf` + `-inf` → NaN).
    #[inline]
    pub fn add(&mut self, x: f64) {
        if x == 0.0 {
            return;
        }
        if !x.is_finite() {
            self.note_nonfinite(x);
            return;
        }
        let (sign, mantissa, shift) = decompose(x);
        // Bit position of the mantissa's least significant bit.
        let p = (shift + 1074) as u32;
        let d = (p >> 5) as usize;
        let r = p & 31;
        // mantissa < 2^53, r < 32  =>  v < 2^85: three 32-bit chunks.
        let v = (mantissa as u128) << r;
        let c0 = (v & 0xffff_ffff) as i64;
        let c1 = ((v >> 32) & 0xffff_ffff) as i64;
        let c2 = ((v >> 64) & 0xffff_ffff) as i64;
        if sign > 0 {
            self.digits[d] += c0;
            self.digits[d + 1] += c1;
            self.digits[d + 2] += c2;
        } else {
            self.digits[d] -= c0;
            self.digits[d + 1] -= c1;
            self.digits[d + 2] -= c2;
        }
        self.pending += 1;
        if self.pending >= NORMALIZE_EVERY {
            self.normalize();
        }
    }

    /// Subtract a value exactly (`add(-x)`).
    #[inline]
    pub fn sub(&mut self, x: f64) {
        self.add(-x);
    }

    /// Add every value in `values` exactly — the batched hot path.
    ///
    /// Bitwise identical to `for &x in values { self.add(x) }` (the register
    /// holds exact integers, so deposit order and grouping cannot matter),
    /// but substantially faster. Work proceeds in [`BLOCK`]-element blocks:
    ///
    /// * A branch-free scan reads the block's exponent extremes, and the
    ///   block splits into as many 42-bit parts as its span needs
    ///   ([`Cascade`]): three FP add/subs per part and value peel each value
    ///   exactly onto grid-aligned accumulator chains, and every 1024
    ///   values collapse into one exact deposit per part. Uniform data
    ///   takes two parts; data spanning hundreds of binades takes more.
    /// * A block that holds a NaN or an infinity, spans more than
    ///   [`simd::MAX_PARTS`] parts, or sits so high that the top grid
    ///   constant would overflow takes the per-value kernel
    ///   ([`Self::add_block`]), which deposits each element through
    ///   [`WINDOW_BITS`]-anchored `i128` lane registers.
    ///
    /// Both hot loops run on the process-wide SIMD dispatch tier
    /// ([`simd::active_tier`]; `REPRO_SIMD` overrides) — every tier is
    /// bit-identical, see the [`simd`] module docs.
    pub fn add_slice(&mut self, values: &[f64]) {
        self.add_slice_impl(None, values, simd::active_tier(), FP_LANES);
    }

    /// [`Self::add_slice`] on an explicit dispatch tier (bit-identical to
    /// every other tier; used by the cross-tier equivalence tests, the CI
    /// dispatch matrix, and the bench suite's per-tier entries).
    pub fn add_slice_with_tier(&mut self, values: &[f64], tier: SimdTier) {
        self.add_slice_impl(None, values, tier, FP_LANES);
    }

    /// [`Self::add_slice`] with an explicit accumulator-chain count
    /// (`lanes`, clamped to 1/2/4/8, and on the SSE2/AVX2 tiers to the
    /// chains whose accumulators fit the vector registers) for the cascade
    /// kernel. The lane
    /// count is purely an instruction-level-parallelism knob: narrow widths
    /// serialize on FP-add latency, wide widths overlap chains. The result
    /// is bit-identical for every width.
    pub fn add_slice_lanes(&mut self, values: &[f64], lanes: usize) {
        self.add_slice_impl(None, values, simd::active_tier(), lanes);
    }

    /// [`Self::add_slice`] with both dispatch knobs explicit — the entry the
    /// cross-tier property tests and the bench suite sweep. Bit-identical
    /// for every `(tier, lanes)` combination.
    pub fn add_slice_dispatch(&mut self, values: &[f64], tier: SimdTier, lanes: usize) {
        self.add_slice_impl(None, values, tier, lanes);
    }

    /// Add every value in `values` to `self` and its absolute value to
    /// `abs`, exactly, in one pass: bitwise identical to `for &x in values
    /// { self.add(x); abs.add(x.abs()) }`.
    ///
    /// Each block is scanned and planned once, for both registers: `|x|`
    /// spans the binades `x` does, so the plan of `x` is the plan of `|x|`,
    /// and the cascade folds the parts of `|x|` next to those of `x`
    /// ([`Cascade::run_pair`]). A block the plan refuses takes the
    /// per-value kernel for both registers. The condition number's two
    /// exact sums (`DataProfile`, the telemetry shadows) come from here.
    pub fn add_slice_pair(&mut self, abs: &mut Self, values: &[f64]) {
        self.add_slice_impl(Some(abs), values, simd::active_tier(), FP_LANES);
    }

    /// [`Self::add_slice_pair`] with both dispatch knobs explicit, as
    /// [`Self::add_slice_dispatch`]. Bit-identical for every `(tier,
    /// lanes)` combination.
    pub fn add_slice_pair_dispatch(
        &mut self,
        abs: &mut Self,
        values: &[f64],
        tier: SimdTier,
        lanes: usize,
    ) {
        self.add_slice_impl(Some(abs), values, tier, lanes);
    }

    fn add_slice_impl(
        &mut self,
        mut abs: Option<&mut Self>,
        values: &[f64],
        tier: SimdTier,
        lanes: usize,
    ) {
        let mut rest = values;
        while !rest.is_empty() {
            // Keep digit growth since the last normalization under the
            // NORMALIZE_EVERY budget so no i64 digit slot can overflow.
            // Each element costs at most one growth unit plus at most
            // 4 * ACC_LANES spill units per BLOCK, so half the remaining
            // budget in elements always fits. Cascade deposits go through
            // `add`, which renormalizes on its own.
            let pending = self.pending.max(abs.as_ref().map_or(0, |a| a.pending));
            let budget = ((NORMALIZE_EVERY - pending) / 2).max(1) as usize;
            let take = rest.len().min(budget);
            let (head, tail) = rest.split_at(take);
            for block in head.chunks(BLOCK) {
                match (Cascade::plan(tier, block), abs.as_deref_mut()) {
                    (Some(cascade), None) => {
                        cascade.run(tier, lanes, block, &mut |v| self.add(v));
                    }
                    (Some(cascade), Some(abs)) => {
                        cascade.run_pair(tier, lanes, block, &mut |v, a| {
                            self.add(v);
                            abs.add(a);
                        });
                    }
                    (None, abs) => {
                        self.add_block::<false>(block);
                        if let Some(abs) = abs {
                            abs.add_block::<true>(block);
                        }
                    }
                }
            }
            for acc in std::iter::once(&mut *self).chain(abs.as_deref_mut()) {
                if acc.pending >= NORMALIZE_EVERY {
                    acc.normalize();
                }
            }
            rest = tail;
        }
    }

    /// One spill block of `add_slice`: at most [`BLOCK`] elements, so the
    /// wide lane registers cannot overflow before the spill at the end.
    /// With `ABS`, adds the absolute values instead.
    fn add_block<const ABS: bool>(&mut self, block: &[f64]) {
        debug_assert!(block.len() <= BLOCK);
        let mut acc = [0i128; ACC_LANES];
        // Window anchor: bit position of the window's least significant bit,
        // always 32-aligned. `usize::MAX` marks the window as unanchored.
        let mut anchor = usize::MAX;
        let mut lane = 0usize;
        // Digit-growth units toward the `pending` budget: one per direct
        // deposit (three sub-2^32 chunks, same as a scalar `add`) plus one
        // per sub-2^32 chunk spilled from a wide lane.
        let mut units: u32 = 0;
        for &x in block {
            let x = if ABS { x.abs() } else { x };
            if x == 0.0 {
                continue;
            }
            if !x.is_finite() {
                self.note_nonfinite(x);
                continue;
            }
            let (sign, mantissa, shift) = decompose(x);
            // Bit position of the mantissa's least significant bit.
            let p = (shift + 1074) as usize;
            if anchor == usize::MAX {
                // First deposit anchors the window one digit below its own,
                // leaving 32 bits of headroom for downward exponent drift.
                anchor = ((p >> 5).saturating_sub(1)) << 5;
            }
            let s = p.wrapping_sub(anchor);
            if s < WINDOW_BITS {
                // In-window: a single shifted add on a lane register.
                let v = (mantissa as i128) << s;
                let slot = &mut acc[lane & (ACC_LANES - 1)];
                if sign > 0 {
                    *slot += v;
                } else {
                    *slot -= v;
                }
                lane = lane.wrapping_add(1);
            } else {
                // Out of window: deposit straight into the digit array
                // (the scalar path minus its per-element bookkeeping).
                let d = p >> 5;
                let r = p & 31;
                let v = (mantissa as u128) << r;
                let c0 = (v & 0xffff_ffff) as i64;
                let c1 = ((v >> 32) & 0xffff_ffff) as i64;
                let c2 = ((v >> 64) & 0xffff_ffff) as i64;
                if sign > 0 {
                    self.digits[d] += c0;
                    self.digits[d + 1] += c1;
                    self.digits[d + 2] += c2;
                } else {
                    self.digits[d] -= c0;
                    self.digits[d + 1] -= c1;
                    self.digits[d + 2] -= c2;
                }
                units += 1;
            }
        }
        if anchor != usize::MAX {
            let base = anchor >> 5;
            for a in acc {
                units += self.deposit_wide(a, base);
            }
        }
        self.pending = self.pending.saturating_add(units);
    }

    /// Spill one wide lane register into the digit array at digit `base`.
    ///
    /// Returns the number of sub-2^32 chunks deposited (each perturbs one
    /// digit, so it counts as that many units toward the `pending` budget).
    /// `|acc| < 2^126` (see [`BLOCK`]) splits into at most four chunks, and
    /// in-window deposits have digit index at most `base + 1 <= 64`, so
    /// `base + 3` stays within the register.
    fn deposit_wide(&mut self, acc: i128, base: usize) -> u32 {
        if acc == 0 {
            return 0;
        }
        let neg = acc < 0;
        let mut mag = acc.unsigned_abs();
        let mut i = base;
        let mut units = 0;
        while mag != 0 {
            let chunk = (mag & 0xffff_ffff) as i64;
            if neg {
                self.digits[i] -= chunk;
            } else {
                self.digits[i] += chunk;
            }
            mag >>= 32;
            i += 1;
            units += 1;
        }
        units
    }

    /// Record a non-finite input (shared by `add` and the batched path).
    #[cold]
    fn note_nonfinite(&mut self, x: f64) {
        if x.is_nan() {
            self.nan = true;
        } else if x > 0.0 {
            self.pos_inf = true;
        } else {
            self.neg_inf = true;
        }
    }

    /// Merge another accumulator into this one (exact; order-independent).
    ///
    /// Allocation-free: instead of cloning `other` to normalize it, the carry
    /// sweep runs on the fly over the borrowed digits, adding each normalized
    /// digit (always in `[0, 2³²)`) to the already-normalized `self`.
    pub fn merge(&mut self, other: &Self) {
        self.normalize();
        let mut carry: i64 = 0;
        for (a, &b) in self.digits.iter_mut().zip(other.digits.iter()) {
            let t = b + carry;
            let low = t & DIGIT_MASK;
            carry = (t - low) >> 32;
            *a += low; // both in [0, 2^32): no overflow
        }
        self.sign_ext += other.sign_ext + carry;
        self.nan |= other.nan;
        self.pos_inf |= other.pos_inf;
        self.neg_inf |= other.neg_inf;
        self.normalize();
    }

    /// Propagate carries so every digit lies in `[0, 2³²)` and the overflow
    /// lands in the sign-extension word.
    pub fn normalize(&mut self) {
        self.sign_ext += carry_sweep(&mut self.digits);
        self.pending = 0;
        debug_assert!(
            self.sign_ext == 0 || self.sign_ext == -1,
            "superaccumulator overflow: sign_ext = {}",
            self.sign_ext
        );
    }

    /// `true` if the accumulated (finite) value is exactly zero and no
    /// non-finite inputs were seen.
    pub fn is_zero(&mut self) -> bool {
        if self.nan || self.pos_inf || self.neg_inf {
            return false;
        }
        self.normalize();
        self.sign_ext == 0 && self.digits.iter().all(|&d| d == 0)
    }

    /// Sign of the accumulated value: `-1`, `0`, or `1`.
    /// NaN/infinite states report the sign of the dominating special.
    pub fn signum(&mut self) -> i32 {
        if self.nan || (self.pos_inf && self.neg_inf) {
            return 0;
        }
        if self.pos_inf {
            return 1;
        }
        if self.neg_inf {
            return -1;
        }
        self.normalize();
        if self.sign_ext == -1 {
            -1
        } else if self.digits.iter().any(|&d| d != 0) {
            1
        } else {
            0
        }
    }

    /// Correctly rounded (round-to-nearest-even) conversion to `f64`.
    ///
    /// This is the **only** rounding in the whole summation. Allocation-free:
    /// it normalizes a stack copy of the digits, as [`Self::checkpoint`]
    /// does.
    pub fn to_f64(&self) -> f64 {
        if self.nan || (self.pos_inf && self.neg_inf) {
            return f64::NAN;
        }
        if self.pos_inf {
            return f64::INFINITY;
        }
        if self.neg_inf {
            return f64::NEG_INFINITY;
        }
        let mut digits = *self.digits;
        let negative = self.sign_ext + carry_sweep(&mut digits) == -1;
        if negative {
            twos_complement_negate(&mut digits);
        }
        // Find the most significant set bit.
        let top = match digits.iter().rposition(|&d| d != 0) {
            None => return if negative { -0.0 } else { 0.0 },
            Some(t) => t,
        };
        let msb_in_digit = 63 - (digits[top] as u64).leading_zeros() as i32;
        debug_assert!(msb_in_digit < 32);
        let p = top as i32 * 32 + msb_in_digit; // absolute bit position of MSB
        let e = p - 1074; // binary exponent of the value
        if e > 1023 {
            return if negative {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            };
        }
        // Mantissa = bits [ulp_pos ..= p]; at most 53 bits. Values whose MSB
        // sits below bit 52 are subnormal-or-smaller and exact.
        let ulp_pos = (p - 52).max(0);
        let mut mantissa = read_bits(&digits, ulp_pos as u32, (p - ulp_pos + 1) as u32);
        // Round to nearest, ties to even.
        if ulp_pos > 0 {
            let round_bit = read_bits(&digits, (ulp_pos - 1) as u32, 1) != 0;
            if round_bit {
                let sticky = any_bit_below(&digits, (ulp_pos - 1) as u32);
                if sticky || (mantissa & 1) == 1 {
                    mantissa += 1;
                }
            }
        }
        let mut ulp_exp = ulp_pos - 1074;
        if mantissa == (1u64 << 53) {
            // Rounding overflowed the mantissa: 2^53 * 2^ulp_exp = 2^52 * 2^(ulp_exp+1).
            mantissa = 1u64 << 52;
            ulp_exp += 1;
            if ulp_exp + 52 > 1023 {
                return if negative {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                };
            }
        }
        // mantissa < 2^53 and ulp_exp in [-1074, 971]: the product is exact.
        let magnitude = (mantissa as f64) * crate::ulp::pow2(ulp_exp);
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }

    /// Read the value at roughly double-double precision: the correctly
    /// rounded leading part plus the correctly rounded residual.
    pub fn to_dd(&self) -> DoubleDouble {
        let hi = self.to_f64();
        if !hi.is_finite() {
            return DoubleDouble::from_f64(hi);
        }
        let mut rest = self.clone();
        rest.sub(hi);
        let lo = rest.to_f64();
        DoubleDouble { hi, lo }
    }

    /// Serialize the accumulator state to a compact, canonical text
    /// checkpoint.
    ///
    /// The register is exact, so checkpoint/restore commutes with any split
    /// of the deposit stream: restoring and adding the rest of the values
    /// is **bitwise identical** to an uninterrupted accumulation. This is
    /// the state the aggregation engine's `repro-agg-state-v2` wire format
    /// ships between nodes (serialize → ship → merge).
    ///
    /// Format: one line, `sa2;<sign_ext>;<lo>;<window>;<flags>`. After
    /// normalization every digit is in `[0, 2³²)` and every digit above
    /// the value's top holds the *sign fill* (`0`, or `ffffffff` when
    /// `sign_ext` is `-1`). Only the window from the lowest nonzero digit
    /// `lo` to the highest digit that differs from the fill is written, as
    /// comma-separated 8-hex digits; digits below `lo` are zero and digits
    /// past the window are the fill. Three `0`/`1` flag characters record
    /// nan / +inf / −inf. A sum of similar-magnitude values spans a few
    /// digits, so its checkpoint is a few dozen bytes, not 70 digits.
    pub fn checkpoint(&self) -> String {
        use std::fmt::Write;
        // Normalize a stack copy: no heap clone of the register.
        let mut digits = *self.digits;
        let sign_ext = self.sign_ext + carry_sweep(&mut digits);
        let fill = if sign_ext == -1 { DIGIT_MASK } else { 0 };
        let end = digits
            .iter()
            .rposition(|&d| d != fill)
            .map_or(0, |top| top + 1);
        let lo = digits[..end].iter().position(|&d| d != 0).unwrap_or(end);
        let mut out = String::with_capacity(20 + 9 * (end - lo));
        let _ = write!(out, "sa2;{sign_ext};{lo};");
        for (i, d) in digits[lo..end].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{d:08x}");
        }
        let _ = write!(
            out,
            ";{}{}{}",
            u8::from(self.nan),
            u8::from(self.pos_inf),
            u8::from(self.neg_inf)
        );
        out
    }

    /// Restore an accumulator from [`Superaccumulator::checkpoint`] output.
    /// Returns `None` on anything else: a wrong tag (including the retired
    /// `sa1` form), a sign extension other than `0`/`-1`, a window that
    /// starts or runs past the last digit, a digit that is not exactly
    /// eight lowercase hex characters, malformed flags, or any
    /// non-canonical spelling (a leading-zero offset, a zero first window
    /// digit, a last window digit equal to the sign fill, or a nonzero
    /// offset on an empty positive window). Restore accepts exactly the
    /// strings `checkpoint` writes, so a corrupt checkpoint can never
    /// silently decode into a different value.
    pub fn restore(text: &str) -> Option<Self> {
        let mut parts = text.split(';');
        if parts.next()? != "sa2" {
            return None;
        }
        let mut acc = Self::new();
        acc.sign_ext = match parts.next()? {
            "0" => 0,
            "-1" => -1,
            _ => return None,
        };
        let lo_text = parts.next()?;
        let lo = lo_text
            .parse::<usize>()
            .ok()
            .filter(|&lo| lo <= DIGITS && lo.to_string() == lo_text)?;
        let window = parts.next()?;
        let flags = parts.next()?.as_bytes();
        if flags.len() != 3 || flags.iter().any(|b| !matches!(b, b'0' | b'1')) {
            return None;
        }
        if parts.next().is_some() {
            return None;
        }
        let mut end = lo;
        for tok in window.split(',').filter(|_| !window.is_empty()) {
            let lower_hex = |b: u8| matches!(b, b'0'..=b'9' | b'a'..=b'f');
            if tok.len() != 8 || !tok.bytes().all(lower_hex) {
                return None;
            }
            *acc.digits.get_mut(end)? = i64::from(u32::from_str_radix(tok, 16).ok()?);
            end += 1;
        }
        let fill = if acc.sign_ext == -1 { DIGIT_MASK } else { 0 };
        let canonical = match (acc.digits[lo..end].first(), acc.digits[lo..end].last()) {
            (Some(&first), Some(&last)) => first != 0 && last != fill,
            // An empty window: zero (offset 0), or zeros then fill.
            _ => acc.sign_ext == -1 || lo == 0,
        };
        if !canonical {
            return None;
        }
        acc.digits[end..].fill(fill);
        acc.nan = flags[0] == b'1';
        acc.pos_inf = flags[1] == b'1';
        acc.neg_inf = flags[2] == b'1';
        Some(acc)
    }
}

/// Propagate carries through `digits` so each lies in `[0, 2³²)`; returns
/// the carry out of the top digit.
fn carry_sweep(digits: &mut [i64; DIGITS]) -> i64 {
    let mut carry: i64 = 0;
    for d in digits.iter_mut() {
        let t = *d + carry;
        let low = t & DIGIT_MASK;
        carry = (t - low) >> 32;
        *d = low;
    }
    carry
}

/// In-place two's-complement negation of normalized digits whose sign
/// extension is `-1`, turning them into their positive magnitude (the
/// sign extension of the result is 0: the magnitude fits).
fn twos_complement_negate(digits: &mut [i64; DIGITS]) {
    let mut carry: i64 = 1;
    for d in digits.iter_mut() {
        let t = (!*d & DIGIT_MASK) + carry;
        *d = t & DIGIT_MASK;
        carry = t >> 32;
    }
}

/// Read `count` bits (≤ 64) of normalized digits starting at absolute bit
/// position `from`.
fn read_bits(digits: &[i64; DIGITS], from: u32, count: u32) -> u64 {
    debug_assert!(count <= 64 && count > 0);
    let d = (from >> 5) as usize;
    let r = from & 31;
    let mut v: u128 = 0;
    for i in 0..4usize {
        if d + i < DIGITS {
            v |= (digits[d + i] as u64 as u128) << (32 * i);
        }
    }
    ((v >> r) as u64) & (u64::MAX >> (64 - count))
}

/// `true` if any bit of normalized digits strictly below position `limit`
/// is set.
fn any_bit_below(digits: &[i64; DIGITS], limit: u32) -> bool {
    let d = (limit >> 5) as usize;
    let r = limit & 31;
    digits[..d].iter().any(|&x| x != 0) || (r != 0 && (digits[d] & ((1i64 << r) - 1)) != 0)
}

impl Extend<f64> for Superaccumulator {
    /// Stages the iterator through a stack buffer so arbitrary sources get
    /// the batched [`Superaccumulator::add_slice`] kernel.
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        let mut buf = [0.0f64; 128];
        let mut len = 0usize;
        for v in iter {
            buf[len] = v;
            len += 1;
            if len == buf.len() {
                self.add_slice(&buf);
                len = 0;
            }
        }
        self.add_slice(&buf[..len]);
    }
}

impl FromIterator<f64> for Superaccumulator {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Self::from_values(iter)
    }
}

impl std::iter::Sum<f64> for Superaccumulator {
    /// `values.iter().copied().sum::<Superaccumulator>()` — exact, batched.
    fn sum<I: Iterator<Item = f64>>(iter: I) -> Self {
        Self::from_values(iter)
    }
}

impl<'a> std::iter::Sum<&'a f64> for Superaccumulator {
    fn sum<I: Iterator<Item = &'a f64>>(iter: I) -> Self {
        Self::from_values(iter.copied())
    }
}

impl std::ops::AddAssign<f64> for Superaccumulator {
    fn add_assign(&mut self, x: f64) {
        self.add(x);
    }
}

impl std::fmt::Debug for Superaccumulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Superaccumulator({:e})", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(values: &[f64]) -> f64 {
        Superaccumulator::from_values(values.iter().copied()).to_f64()
    }

    #[test]
    fn empty_sum_is_zero() {
        assert_eq!(sum(&[]), 0.0);
    }

    #[test]
    fn single_values_round_trip() {
        for x in [
            1.0,
            -1.0,
            0.1,
            -3.7e300,
            4.9e-324, // min subnormal
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
        ] {
            assert_eq!(sum(&[x]), x, "round trip failed for {x:e}");
        }
    }

    #[test]
    fn paper_intro_example_is_exact() {
        // a = 1e9, b = -1e9, c = 1e-9: both orders equal c exactly here.
        assert_eq!(sum(&[1e9, -1e9, 1e-9]), 1e-9);
        assert_eq!(sum(&[1e-9, 1e9, -1e9]), 1e-9);
    }

    #[test]
    fn absorption_is_impossible() {
        // 2^100 + 2^-100 - 2^100 = 2^-100 exactly.
        let big = 2f64.powi(100);
        let tiny = 2f64.powi(-100);
        assert_eq!(sum(&[big, tiny, -big]), tiny);
    }

    #[test]
    fn order_independence_brute_force() {
        let vals = [1e16, -1.0, 0.1, -1e16, 2.5e-13, 7.0];
        // All 720 permutations of 6 values produce the identical bits.
        let reference = sum(&vals);
        let mut idx = [0usize, 1, 2, 3, 4, 5];
        permutohedron_heap(&mut idx, &mut |perm: &[usize]| {
            let permuted: Vec<f64> = perm.iter().map(|&i| vals[i]).collect();
            assert_eq!(sum(&permuted).to_bits(), reference.to_bits());
        });
    }

    /// Minimal Heap's-algorithm permutation generator for tests.
    fn permutohedron_heap(items: &mut [usize], visit: &mut impl FnMut(&[usize])) {
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
    fn correct_rounding_ties_to_even() {
        // 1 + 2^-53 is exactly halfway between 1 and 1+2^-52: rounds to 1 (even).
        assert_eq!(sum(&[1.0, 2f64.powi(-53)]), 1.0);
        // 1 + 2^-52 + 2^-53 is halfway between 1+2^-52 and 1+2^-51... the
        // mantissa of 1+2^-52 is odd, so the tie rounds up.
        assert_eq!(
            sum(&[1.0, 2f64.powi(-52), 2f64.powi(-53)]),
            1.0 + 2.0 * 2f64.powi(-52)
        );
        // A sticky bit below the halfway point forces rounding up.
        assert_eq!(
            sum(&[1.0, 2f64.powi(-53), 2f64.powi(-80)]),
            1.0 + 2f64.powi(-52)
        );
    }

    #[test]
    fn negative_totals_round_correctly() {
        assert_eq!(sum(&[-1.0, -2f64.powi(-53)]), -1.0);
        assert_eq!(sum(&[-1e300, 1e300, -5.5]), -5.5);
        // two_sum guarantees fl(0.1 + 0.2) is the correctly rounded exact sum.
        assert_eq!(sum(&[-0.1, -0.2]), -(0.1 + 0.2));
    }

    #[test]
    fn subnormal_results_are_exact() {
        let tiny = f64::from_bits(3); // 3 * 2^-1074
        assert_eq!(sum(&[tiny, tiny]), f64::from_bits(6));
        let a = f64::MIN_POSITIVE;
        let b = -f64::MIN_POSITIVE / 2.0;
        assert_eq!(sum(&[a, b]), f64::MIN_POSITIVE / 2.0);
    }

    #[test]
    fn cancellation_to_exact_zero() {
        let vals = [0.1, 0.2, 0.3, -0.3, -0.2, -0.1];
        assert_eq!(sum(&vals), 0.0);
        let mut acc = Superaccumulator::from_values(vals.iter().copied());
        assert!(acc.is_zero());
        assert_eq!(acc.signum(), 0);
    }

    #[test]
    fn merge_equals_concatenation() {
        let xs = [1e10, -3.5, 2f64.powi(-40), -1e10];
        let ys = [7.7, -2f64.powi(60), 2f64.powi(60), 0.25];
        let mut a = Superaccumulator::from_values(xs.iter().copied());
        let b = Superaccumulator::from_values(ys.iter().copied());
        a.merge(&b);
        let all = Superaccumulator::from_values(xs.iter().chain(ys.iter()).copied());
        assert_eq!(a.to_f64().to_bits(), all.to_f64().to_bits());
    }

    #[test]
    fn special_values_propagate() {
        let mut acc = Superaccumulator::new();
        acc.add(f64::INFINITY);
        acc.add(1.0);
        assert_eq!(acc.to_f64(), f64::INFINITY);
        acc.add(f64::NEG_INFINITY);
        assert!(acc.to_f64().is_nan());

        let mut acc = Superaccumulator::new();
        acc.add(f64::NAN);
        assert!(acc.to_f64().is_nan());
    }

    #[test]
    fn to_dd_exposes_sub_ulp_residual() {
        let mut acc = Superaccumulator::new();
        acc.add(1.0);
        acc.add(2f64.powi(-80));
        let dd = acc.to_dd();
        assert_eq!(dd.hi, 1.0);
        assert_eq!(dd.lo, 2f64.powi(-80));
    }

    #[test]
    fn trait_sugar() {
        let mut acc: Superaccumulator = [1e16, 1.0].into_iter().collect();
        acc += -1e16;
        acc.extend([2.5, -0.5]);
        assert_eq!(acc.to_f64(), 3.0);
    }

    #[test]
    fn signum_reports_sign() {
        let mut acc = Superaccumulator::new();
        acc.add(-2.5);
        assert_eq!(acc.signum(), -1);
        acc.add(5.0);
        assert_eq!(acc.signum(), 1);
    }

    #[test]
    fn merge_chains_stay_exact() {
        // Fold 64 accumulators of hostile values pairwise; bitwise equal to
        // the flat sum.
        let values: Vec<f64> = (0..640)
            .map(|i| ((i % 37) as f64 - 18.0) * 2f64.powi((i % 100) - 50))
            .collect();
        let mut accs: Vec<Superaccumulator> = values
            .chunks(10)
            .map(|c| Superaccumulator::from_values(c.iter().copied()))
            .collect();
        while accs.len() > 1 {
            let b = accs.pop().unwrap();
            let idx = accs.len() / 2;
            accs[idx].merge(&b);
        }
        let whole = Superaccumulator::from_values(values.iter().copied());
        assert_eq!(accs[0].to_f64().to_bits(), whole.to_f64().to_bits());
    }

    #[test]
    fn normalize_is_idempotent() {
        let mut acc = Superaccumulator::from_values([1e300, -2.5e-300, 7.0]);
        acc.normalize();
        let once = acc.to_f64();
        acc.normalize();
        acc.normalize();
        assert_eq!(acc.to_f64().to_bits(), once.to_bits());
    }

    #[test]
    fn nan_poisons_merges_too() {
        let mut a = Superaccumulator::from_values([1.0, 2.0]);
        let mut b = Superaccumulator::new();
        b.add(f64::NAN);
        a.merge(&b);
        assert!(a.to_f64().is_nan());
        assert!(!a.is_zero());
    }

    /// The old (allocating) merge, kept as the behavioural reference for the
    /// zero-alloc rewrite.
    fn merge_reference(dst: &mut Superaccumulator, other: &Superaccumulator) {
        let mut other = other.clone();
        other.normalize();
        dst.normalize();
        for (a, b) in dst.digits.iter_mut().zip(other.digits.iter()) {
            *a += *b;
        }
        dst.sign_ext += other.sign_ext;
        dst.nan |= other.nan;
        dst.pos_inf |= other.pos_inf;
        dst.neg_inf |= other.neg_inf;
        dst.normalize();
    }

    fn hostile_values(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = crate::rng::DetRng::seed_from_u64(seed);
        (0..n)
            .map(|i| match i % 11 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from_bits(rng.next_u64() % 64 + 1), // subnormal
                3 => -f64::from_bits(rng.next_u64() % 64 + 1),
                _ => {
                    let m = rng.next_f64() - 0.5;
                    m * 2f64.powi((rng.next_u64() % 600) as i32 - 300)
                }
            })
            .collect()
    }

    #[test]
    fn add_slice_matches_scalar_adds_bitwise() {
        for seed in [1u64, 7, 42, 2015] {
            for n in [0usize, 1, 3, 17, 100, 1000, 4097] {
                let values = hostile_values(seed, n);
                let mut scalar = Superaccumulator::new();
                for &x in &values {
                    scalar.add(x);
                }
                let mut batched = Superaccumulator::new();
                batched.add_slice(&values);
                assert_eq!(
                    batched.to_f64().to_bits(),
                    scalar.to_f64().to_bits(),
                    "seed {seed} n {n}"
                );
                scalar.normalize();
                batched.normalize();
                assert_eq!(&*batched.digits, &*scalar.digits, "seed {seed} n {n}");
                assert_eq!(batched.sign_ext, scalar.sign_ext);
            }
        }
    }

    #[test]
    fn add_slice_handles_nonfinites_like_scalar() {
        let specials = [
            f64::INFINITY,
            1.0,
            f64::NEG_INFINITY,
            f64::NAN,
            0.0,
            -5.5e300,
        ];
        for hi in 1..=specials.len() {
            let vals = &specials[..hi];
            let mut scalar = Superaccumulator::new();
            for &x in vals {
                scalar.add(x);
            }
            let mut batched = Superaccumulator::new();
            batched.add_slice(vals);
            assert_eq!(batched.nan, scalar.nan);
            assert_eq!(batched.pos_inf, scalar.pos_inf);
            assert_eq!(batched.neg_inf, scalar.neg_inf);
            let (b, s) = (batched.to_f64(), scalar.to_f64());
            assert!(b.to_bits() == s.to_bits() || (b.is_nan() && s.is_nan()));
        }
    }

    #[test]
    fn zero_alloc_merge_matches_reference_merge() {
        for seed in [3u64, 1234] {
            let xs = hostile_values(seed, 513);
            let ys = hostile_values(seed.wrapping_mul(31), 257);
            let a0 = Superaccumulator::from_values(xs.iter().copied());
            let b = Superaccumulator::from_values(ys.iter().copied());
            let mut merged = a0.clone();
            merged.merge(&b);
            let mut reference = a0.clone();
            merge_reference(&mut reference, &b);
            assert_eq!(&*merged.digits, &*reference.digits, "seed {seed}");
            assert_eq!(merged.sign_ext, reference.sign_ext);
            assert_eq!(merged.to_f64().to_bits(), reference.to_f64().to_bits());
        }
        // Un-normalized self + un-normalized other, non-finite flags carried.
        let mut a = Superaccumulator::new();
        a.add(1e308);
        a.add(1e308);
        let mut b = Superaccumulator::new();
        b.add(-1e308);
        b.add(f64::INFINITY);
        let mut merged = a.clone();
        merged.merge(&b);
        let mut reference = a.clone();
        merge_reference(&mut reference, &b);
        assert_eq!(merged.to_f64().to_bits(), reference.to_f64().to_bits());
        assert_eq!(merged.pos_inf, reference.pos_inf);
    }

    #[test]
    fn sum_trait_uses_exact_accumulation() {
        let acc: Superaccumulator = [1e16, 1.0, -1e16].iter().sum();
        assert_eq!(acc.to_f64(), 1.0);
        let acc: Superaccumulator = [1e16, 1.0, -1e16].into_iter().sum();
        assert_eq!(acc.to_f64(), 1.0);
    }

    #[test]
    fn extreme_magnitude_mix() {
        // Sum f64::MAX four times and subtract it four times interleaved with
        // junk: final value must be the junk, exactly.
        let vals = [
            f64::MAX,
            f64::MAX,
            1.5e-300,
            f64::MAX,
            -f64::MAX,
            f64::MAX,
            -f64::MAX,
            -f64::MAX,
            -f64::MAX,
        ];
        assert_eq!(sum(&vals), 1.5e-300);
    }

    #[test]
    fn checkpoint_restore_is_bitwise_transparent() {
        for seed in 0..8u64 {
            let values = hostile_values(seed, 300);
            let (head, tail) = values.split_at(150);
            let mut acc = Superaccumulator::new();
            acc.add_slice(head);
            let mut restored =
                Superaccumulator::restore(&acc.checkpoint()).expect("own checkpoint restores");
            acc.add_slice(tail);
            restored.add_slice(tail);
            assert_eq!(
                restored.to_f64().to_bits(),
                acc.to_f64().to_bits(),
                "{seed}"
            );
        }
        // Negative totals exercise sign_ext == -1 (including a value whose
        // every digit from the window up is the fill: -2^-1074 and
        // -2^(32k - 1074)); specials the flag bytes.
        for vals in [
            vec![-1e308, -1e300, -3.5],
            vec![-f64::from_bits(1)],
            vec![-2f64.powi(32 * 40 - 1074)],
            vec![f64::MAX, f64::MAX, -1e-300],
            vec![f64::INFINITY, 1.0],
            vec![f64::NEG_INFINITY, 1.0],
            vec![f64::INFINITY, f64::NEG_INFINITY],
            vec![f64::NAN],
            vec![],
        ] {
            let acc = Superaccumulator::from_values(vals.iter().copied());
            let text = acc.checkpoint();
            let restored = Superaccumulator::restore(&text).expect("restores");
            assert_eq!(restored.to_f64().to_bits(), acc.to_f64().to_bits());
            assert_eq!(restored.checkpoint(), text, "{vals:?}");
        }
    }

    #[test]
    fn checkpoint_writes_only_the_digit_window() {
        // 1.0 is bit 1074: digit 33, bit 18.
        let one = Superaccumulator::from_values([1.0]).checkpoint();
        assert_eq!(one, "sa2;0;33;00040000;000");
        // -1.0 in two's complement: the same window, then the ffffffff fill.
        let minus_one = Superaccumulator::from_values([-1.0]).checkpoint();
        assert_eq!(minus_one, "sa2;-1;33;fffc0000;000");
        // Digit 32 is zero, so the window starts at 33 and spans two.
        let two_digits = Superaccumulator::from_values([1.0, 2f64.powi(32)]).checkpoint();
        assert_eq!(two_digits, "sa2;0;33;00040000,00040000;000");
        assert_eq!(Superaccumulator::new().checkpoint(), "sa2;0;0;;000");
        assert_eq!(
            Superaccumulator::from_values([-f64::from_bits(1)]).checkpoint(),
            "sa2;-1;0;;000"
        );
    }

    #[test]
    fn restore_rejects_garbage() {
        let good = Superaccumulator::from_values([1.0, -2.5e-300]).checkpoint();
        assert!(Superaccumulator::restore(&good).is_some());

        let cases = [
            String::new(),
            good.replacen("sa2;", "sa1;", 1), // retired tag
            // A complete v1 checkpoint of the same kind of value.
            format!("sa1;0;{};000", vec!["00000000"; 70].join(",")),
            good.replacen("sa2;0;", "sa2;1;", 1), // sign_ext not in {0,-1}
            good.replacen("sa2;0;", "sa2;-0;", 1),
            good.replacen(';', ";;", 1),                  // structure
            good.rsplit_once(',').unwrap().0.to_string(), // digit dropped
            good[..good.len() - 1].to_string(),           // truncated flags
            format!("{good}0"),                           // oversized flags
            format!("{good};"),                           // trailing field
            format!("{good}\n"),                          // no trimming
            // Windows that start or run past digit 70.
            "sa2;0;71;;000".to_string(),
            "sa2;0;18446744073709551616;;000".to_string(),
            "sa2;0;70;00000001;000".to_string(),
            "sa2;0;69;00000001,00000001;000".to_string(),
            // Digits out of range or badly spelled.
            "sa2;0;33;100000000;000".to_string(),
            "sa2;0;33;0004000g;000".to_string(),
            "sa2;0;33;+0040000;000".to_string(),
            "sa2;0;33;0004000A;000".to_string(),
            // Non-canonical windows: padding at either edge, a nonzero
            // empty-window offset, a leading-zero offset.
            "sa2;0;32;00000000,00040000;000".to_string(),
            "sa2;0;33;00040000,00000000;000".to_string(),
            "sa2;-1;33;fffc0000,ffffffff;000".to_string(),
            "sa2;0;5;;000".to_string(),
            "sa2;0;033;00040000;000".to_string(),
        ];
        for case in cases {
            assert!(
                Superaccumulator::restore(&case).is_none(),
                "accepted {case:?}"
            );
        }
    }
}

//! Runtime-dispatched SIMD kernels for the batched superaccumulator.
//!
//! [`crate::Superaccumulator::add_slice`] spends essentially all of its time
//! in two loops: the branch-free scan that reads each block's exponent
//! extremes, and the [`Cascade`] of Rump–Ogita–Oishi extractions that
//! splits every value of the block exactly onto grid-aligned parts. Both
//! are pure data-parallel streams, so this module provides explicit SSE2
//! and AVX2 implementations next to the portable ones, selected **once per
//! process**:
//!
//! * `REPRO_SIMD=scalar|sse2|avx2` forces a tier (mirroring the
//!   `REPRO_RUNTIME_WORKERS` / `REPRO_SCALE` env knobs). Forcing a tier the
//!   CPU lacks, or a value that parses to no tier, is a [`TierError`] —
//!   surfaced by [`try_active_tier`], which front ends (the `repro-reduce`
//!   binary validates at startup) turn into a diagnostic and a nonzero
//!   exit. Library hot paths keep working on the best supported tier; a CI
//!   dispatch matrix cannot "pass" silently because it probes tiers through
//!   `repro-reduce simd --check` first, and the process-init check refuses
//!   to run at all under a bad override.
//! * `REPRO_SIMD=auto` (or unset) picks the best tier
//!   [`std::arch::is_x86_feature_detected!`] reports.
//!
//! # Why every tier produces identical bits
//!
//! The cascade only ever performs **exact** floating-point additions: each
//! extraction `q = (x + C) − C` rounds onto a power-of-two grid and `x − q`
//! is exact, and the parts' partial sums stay inside the `2^53`
//! exact-integer range in grid units as long as no accumulator chain folds
//! more than 1024 elements between deposits ([`SUB_BLOCK`]; the bounds are
//! on [`Cascade`]). Exact additions are associative, so *any* chain count,
//! vector width, or fold order yields the same parts — and therefore
//! bit-identical deposits into the exact register. Each tier's chain count
//! is purely an instruction-level-parallelism choice (how many independent
//! FP dependency chains the CPU can overlap), never a semantic one. The
//! scan is an integer min/max, which no lane split can change, so every
//! tier also plans every block identically.

// The crate is `deny(unsafe_code)`; the `std::arch` intrinsics live behind
// `#[target_feature]` functions in this module only, each reachable solely
// through the runtime-dispatch checks below.
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// A dispatch tier for the batched exact-summation kernels.
///
/// Ordered from most portable to most specialized; [`active_tier`] selects
/// the highest supported tier unless `REPRO_SIMD` forces one.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum SimdTier {
    /// Portable Rust, the verbatim batched kernel every target builds.
    Scalar,
    /// 128-bit `std::arch` kernels (baseline on `x86_64`).
    Sse2,
    /// 256-bit `std::arch` kernels (runtime-detected).
    Avx2,
}

impl SimdTier {
    /// The env-knob / CLI spelling of the tier.
    pub fn label(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
        }
    }

    /// Parse a `REPRO_SIMD` tier name (`auto` is handled by the caller).
    pub fn parse(s: &str) -> Option<SimdTier> {
        match s {
            "scalar" => Some(SimdTier::Scalar),
            "sse2" => Some(SimdTier::Sse2),
            "avx2" => Some(SimdTier::Avx2),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The tiers this build + CPU can actually run, lowest first.
/// [`SimdTier::Scalar`] is always present.
pub fn supported_tiers() -> &'static [SimdTier] {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            &[SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2]
        } else {
            // SSE2 is part of the x86_64 baseline.
            &[SimdTier::Scalar, SimdTier::Sse2]
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        &[SimdTier::Scalar]
    }
}

/// `true` if [`active_tier`]/`add_slice` can execute `tier` on this machine.
pub fn tier_supported(tier: SimdTier) -> bool {
    supported_tiers().contains(&tier)
}

/// Why tier resolution rejected a `REPRO_SIMD` override.
///
/// Returned (never panicked) by [`try_active_tier`] / [`resolve_tier`]:
/// selection of a dispatch tier is library code and must stay panic-free —
/// front ends map this to a diagnostic and a nonzero exit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TierError {
    /// The override named no tier (`REPRO_SIMD` was not one of
    /// `scalar|sse2|avx2|auto`). Carries the offending value.
    Unparsable(String),
    /// The override forced a tier this CPU cannot execute.
    Unsupported(SimdTier),
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierError::Unparsable(v) => {
                write!(f, "REPRO_SIMD={v:?} is not one of scalar|sse2|avx2|auto")
            }
            TierError::Unsupported(tier) => write!(
                f,
                "REPRO_SIMD={} forces a tier this CPU does not support (supported: {})",
                tier.label(),
                supported_tiers()
                    .iter()
                    .map(|t| t.label())
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        }
    }
}

impl std::error::Error for TierError {}

/// Resolve a `REPRO_SIMD`-style override (`None` = unset) to a dispatch
/// tier plus a human-readable provenance label. Pure — the env read happens
/// once in [`try_active_tier`] — so the validation is unit-testable without
/// touching process state.
pub fn resolve_tier(env: Option<&str>) -> Result<(SimdTier, &'static str), TierError> {
    let best = *supported_tiers().last().expect("scalar always supported");
    match env {
        None => Ok((best, "auto (REPRO_SIMD unset)")),
        Some(v) if v.is_empty() || v == "auto" => Ok((best, "auto (REPRO_SIMD=auto)")),
        Some(v) => match SimdTier::parse(v) {
            Some(tier) if tier_supported(tier) => Ok((tier, "forced by REPRO_SIMD")),
            Some(tier) => Err(TierError::Unsupported(tier)),
            None => Err(TierError::Unparsable(v.to_string())),
        },
    }
}

static DISPATCH: OnceLock<Result<(SimdTier, &'static str), TierError>> = OnceLock::new();

fn dispatch() -> &'static Result<(SimdTier, &'static str), TierError> {
    DISPATCH.get_or_init(|| {
        let var = std::env::var("REPRO_SIMD").ok();
        resolve_tier(var.as_deref())
    })
}

/// The dispatch tier the `REPRO_SIMD` environment resolves to, or the
/// [`TierError`] explaining why the override is invalid — resolved once per
/// process and cached either way. Front ends call this at startup and turn
/// an `Err` into a clean diagnostic + nonzero exit (`repro-reduce` does);
/// library paths that cannot propagate an error use [`active_tier`].
pub fn try_active_tier() -> Result<SimdTier, TierError> {
    dispatch().as_ref().map(|&(t, _)| t).map_err(Clone::clone)
}

/// The tier every `add_slice` in this process uses, resolved once from
/// `REPRO_SIMD` and CPU feature detection.
///
/// Infallible by design — kernels deep inside a reduction have no error
/// channel: an invalid `REPRO_SIMD` falls back to the best supported tier
/// here (numerically indistinguishable; every tier is bit-identical).
/// Validation belongs at process init via [`try_active_tier`], which still
/// sees the structured [`TierError`].
pub fn active_tier() -> SimdTier {
    match dispatch() {
        Ok((tier, _)) => *tier,
        Err(_) => *supported_tiers().last().expect("scalar always supported"),
    }
}

/// How [`active_tier`] was chosen (for `repro-reduce simd` diagnostics).
pub fn dispatch_source() -> &'static str {
    match dispatch() {
        Ok((_, source)) => source,
        Err(_) => "auto (invalid REPRO_SIMD ignored; validate with try_active_tier)",
    }
}

/// Elements per deposit group of the cascade: every accumulator chain folds
/// at most this many elements before the block's parts are deposited, which
/// keeps every folded part sum exact (see [`Cascade`]).
pub const SUB_BLOCK: usize = 1024;

/// Bits per cascade level: extraction `l` rounds onto the grid
/// `2^(a + 42 l − 1074)` of a block with grid base `a` (see [`Cascade`]).
const LEVEL_BITS: u32 = 42;

/// Most parts a block splits into before [`Cascade::plan`] refuses it and
/// `add_slice` adds its values one by one. Each further part costs every
/// value three more FP operations. On outlier data the portable cascade
/// beats that loop of `add` at 8 parts and still at 9 (DESIGN.md §5.14
/// records both), so the cap is no break-even: it bounds the kernel set,
/// and no workload's block needs more than 4 parts.
pub const MAX_PARTS: usize = 8;

/// Highest grid bit position whose extraction constant `1.5 · 2^(g + 52 −
/// 1074)` is finite (biased exponent `g + 1 <= 2046`).
const MAX_GRID: u32 = 2045;

/// How `add_slice` sums one block exactly: a Rump–Ogita–Oishi cascade of
/// error-free extractions, planned from the block's exponent extremes.
///
/// Let `m` be the smallest nonzero magnitude in the block and `a` the bit
/// position (weight `2^(a − 1074)`) of the mantissa LSB of `pred(m)`, the
/// next double below: `m`'s own LSB, or one bit lower when `m` is a power
/// of two (a subnormal's LSB is bit 0). Let `top` be the exclusive bound of
/// the highest mantissa MSB. Every value is an integer multiple of `2^a`
/// below `2^top`. The block splits into
/// `P = max(2, ⌈(top − a)/42⌉)` parts at the grids `g_l = a + 42 l`,
/// extracted top-down for `l = P − 1 .. 1` from `x_{P−1} = x`:
///
/// ```text
/// q_l = (x_l + C_l) − C_l,   C_l = 1.5 · 2^(g_l + 52 − 1074)
/// x_{l−1} = x_l − q_l
/// ```
///
/// With round-to-nearest, `q_l` is `x_l` rounded to a multiple of
/// `2^(g_l − 1074)` and `x_l − q_l` is exact, so `x = q_{P−1} + … + q_1 +
/// x_0` holds exactly. The top part is at most `2^42` grid units (`top <=
/// g_{P−1} + 42`), every lower part and the residual `x_0` at most `2^41`.
/// Each accumulator chain folds at most [`SUB_BLOCK`] = 1024 values per
/// deposit, so every part sum stays at most `2^52` units: all FP additions
/// are exact, and each sub-block lands in the register as `P` exact scalar
/// deposits. Exact additions are associative, so every tier, chain count
/// and fold order produces the same parts, bit for bit.
///
/// The plan refuses (and the caller adds each value on its own) a block
/// that holds a NaN or an infinity, whose top constant `C_{P−1}` would
/// overflow, or that needs more than [`MAX_PARTS`] parts. A block of zeros
/// plans two parts at `a = 0` and deposits nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cascade {
    /// Grid base: bit position of the mantissa LSB of `pred(m)`.
    a: u32,
    /// Parts per value: one more than the extractions.
    parts: usize,
}

impl Cascade {
    /// Scan `block` on dispatch `tier` and plan its cascade, or `None` when
    /// its values must be added one by one. Every tier plans identically; a
    /// tier this CPU lacks runs the portable scan.
    pub fn plan(tier: SimdTier, block: &[f64]) -> Option<Cascade> {
        let (lo, hi) = scan(tier, block);
        // Biased exponents of pred(min nonzero |x|) and of max |x|.
        let (lo, hi) = (((lo as u16 & 0x7fff) >> 4) as u32, (hi as u16 >> 4) as u32);
        if hi == 0x7ff {
            return None; // a NaN or an infinity
        }
        if lo == 0x7ff {
            return Some(Cascade { a: 0, parts: 2 }); // zeros only
        }
        Self::for_exponents(lo, hi)
    }

    /// The plan of a block of finite values whose smallest nonzero
    /// magnitude has a predecessor of biased exponent `lo` and whose
    /// largest magnitude has biased exponent `hi` (`lo <= hi <= 0x7fe`), or
    /// `None` where the block needs more than [`MAX_PARTS`] parts or its top
    /// constant would overflow. [`Cascade::plan`] applies it to each block's
    /// scan; the selector's cost model applies it to a profile's exponent
    /// extremes, to price the exact sum by the parts it will run.
    pub fn for_exponents(lo: u32, hi: u32) -> Option<Cascade> {
        let a = lo.max(1) - 1;
        let top = hi + 52;
        let parts = (top - a).div_ceil(LEVEL_BITS).max(2) as usize;
        let grid = a + LEVEL_BITS * (parts as u32 - 1);
        (parts <= MAX_PARTS && grid <= MAX_GRID).then_some(Cascade { a, parts })
    }

    /// Parts each value of the block splits into.
    pub fn parts(self) -> usize {
        self.parts
    }

    /// Extract `block` (the block this cascade was planned on) on dispatch
    /// `tier` (the portable kernel when this CPU lacks the tier), feeding
    /// each sub-block's exact part sums to `deposit`, top part first.
    pub fn run(self, tier: SimdTier, block: &[f64], deposit: &mut impl FnMut(f64)) {
        self.run_kernel(tier, block, false, |[x, _]| {
            x[..self.parts].iter().rev().for_each(|&part| deposit(part))
        });
    }

    /// [`Cascade::run`] that also sums `|x|`, feeding each sub-block's part
    /// sums of `x` and of `|x|` to `deposit` in pairs, top part first.
    ///
    /// The plan of `|x|` is the plan of `x` (the scan reads sign-free
    /// words), and the extraction is odd-symmetric: `C_l` is an even
    /// multiple of the grid step, so the round-to-nearest-even tie of
    /// `x + C_l` goes the same way for `−x`, and `q_l(−x) = −q_l(x)` at
    /// every level. The parts of `|x|` are therefore the parts of `x` with
    /// the sign of `x` flipped into them (`q_l XOR sign(x)`, the residual
    /// likewise), folded into a second set of exact part sums.
    pub fn run_pair(self, tier: SimdTier, block: &[f64], deposit: &mut impl FnMut(f64, f64)) {
        self.run_kernel(tier, block, true, |[x, abs]| {
            (0..self.parts).rev().for_each(|l| deposit(x[l], abs[l]))
        });
    }

    fn run_kernel(
        self,
        tier: SimdTier,
        block: &[f64],
        pair: bool,
        mut deposit: impl FnMut(&PartSums),
    ) {
        let mut c = [0.0f64; MAX_PARTS];
        for (l, c) in c.iter_mut().enumerate().take(self.parts).skip(1) {
            let grid = u64::from(self.a + LEVEL_BITS * l as u32);
            *c = f64::from_bits(((grid + 1) << 52) | (1 << 51));
        }
        let kernel = kernel(tier, self.parts, pair);
        for sub in block.chunks(SUB_BLOCK) {
            // SAFETY: `kernel` returns a kernel of a tier this CPU runs.
            deposit(&unsafe { kernel(sub, &c, self.parts) });
        }
    }
}

/// The top 16-bit words [`Cascade::plan`] reads from a block, gathered in
/// one branch-free pass that every tier computes identically: `(min over
/// (bits | sign) − 1, max over |x|)`, both as signed 16-bit words.
///
/// The top word of a double holds its sign, its biased exponent and four
/// mantissa bits, so it orders magnitudes by exponent. The max key is the
/// top word of `|x|`. The min key is the top word of `pred(|x|)` (the next
/// double below) with the sign bit set, which orders nonzero magnitudes
/// below every zero: a zero's key wraps to `0x7fff`, the largest `i16`.
/// Signed 16-bit min/max is an instruction on every x86 tier (SSE2
/// `pminsw`), and it is exact on the top word of each 64-bit lane.
fn scan(tier: SimdTier, block: &[f64]) -> (i16, i16) {
    match runnable(tier) {
        SimdTier::Scalar => scan_portable(block),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` returned SSE2, so this CPU supports it.
        SimdTier::Sse2 => unsafe { scan_sse2(block) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` returned AVX2, so it was runtime-detected.
        SimdTier::Avx2 => unsafe { scan_avx2(block) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scan_portable(block),
    }
}

const SIGN: u64 = 1 << 63;

/// `tier` when this CPU runs it, else the portable tier. The SSE2/AVX2
/// kernels execute their tier's instructions, so a safe caller passing a
/// tier the CPU lacks must not reach them; every tier gives the same bits.
fn runnable(tier: SimdTier) -> SimdTier {
    if tier_supported(tier) {
        tier
    } else {
        SimdTier::Scalar
    }
}

/// The portable [`scan`]: one signed 16-bit min and max fold over the
/// top words.
fn scan_portable(block: &[f64]) -> (i16, i16) {
    let (mut lo, mut hi) = (i16::MAX, 0i16);
    for &x in block {
        let bits = x.to_bits();
        lo = lo.min((((bits | SIGN).wrapping_sub(1) as i64) >> 48) as i16);
        hi = hi.max((((bits & !SIGN) as i64) >> 48) as i16);
    }
    (lo, hi)
}

/// One sub-block's exact part sums, residual first: of `x`, and of `|x|`
/// (zeros unless the kernel runs the pair pass).
type PartSums = [[f64; MAX_PARTS]; 2];

/// The cascade over a sub-block tail too short for one vector group,
/// shared by every tier. With `PAIR`, also the parts of `|x|`: the parts
/// of `x` with the sign of `x` flipped into them (see [`Cascade::run_pair`]).
#[inline(always)]
fn cascade_tail<const PAIR: bool>(tail: &[f64], c: &[f64; MAX_PARTS], parts: usize) -> PartSums {
    let mut sums = [[0.0f64; MAX_PARTS]; 2];
    for &v in tail {
        let sign = v.to_bits() & SIGN;
        let mut x = v;
        for l in (1..parts).rev() {
            let q = (x + c[l]) - c[l];
            sums[0][l] += q;
            if PAIR {
                sums[1][l] += f64::from_bits(q.to_bits() ^ sign);
            }
            x -= q;
        }
        sums[0][0] += x;
        if PAIR {
            sums[1][0] += f64::from_bits(x.to_bits() ^ sign);
        }
    }
    sums
}

/// One sub-block's cascade kernel: `(sub, constants, parts) -> part sums`;
/// every tier returns the same bits. The vector kernels hold their
/// accumulators in registers, so they take the part count as a const
/// parameter and ignore the run-time one. Each kernel body is instantiated
/// twice: for `x` alone, and for the pair pass ([`Cascade::run_pair`]).
type Kernel = unsafe fn(&[f64], &[f64; MAX_PARTS], usize) -> PartSums;

/// The portable cascade over one sub-block of at most [`SUB_BLOCK`]
/// values. Each level runs as counted loops over a 64-value stack stage
/// (round, peel, then fold the rounded parts onto 8 chains) — the shape
/// the loop vectorizer packs even at baseline SSE2. The levels are a
/// run-time loop: each is a pass over the stage, so a const part count
/// would only multiply the code. With `PAIR`, each level also folds its
/// parts with the stage's signs flipped in onto a second set of chains.
fn cascade_portable<const PAIR: bool>(sub: &[f64], c: &[f64; MAX_PARTS], parts: usize) -> PartSums {
    debug_assert!(sub.len() <= SUB_BLOCK);
    const STAGE: usize = 64;
    const CHAINS: usize = 8;
    let mut acc = [[[0.0f64; CHAINS]; MAX_PARTS]; 2];
    let mut chunks = sub.chunks_exact(STAGE);
    for chunk in chunks.by_ref() {
        let mut x = [0.0f64; STAGE];
        x.copy_from_slice(chunk);
        let mut sign = [0u64; STAGE];
        if PAIR {
            for j in 0..STAGE {
                sign[j] = x[j].to_bits() & SIGN;
            }
        }
        for l in (1..parts).rev() {
            let mut q = [0.0f64; STAGE];
            for j in 0..STAGE {
                q[j] = (x[j] + c[l]) - c[l];
            }
            for j in 0..STAGE {
                x[j] -= q[j];
            }
            fold_chains(&mut acc[0][l], &q);
            if PAIR {
                flip_signs(&mut q, &sign);
                fold_chains(&mut acc[1][l], &q);
            }
        }
        fold_chains(&mut acc[0][0], &x);
        if PAIR {
            flip_signs(&mut x, &sign);
            fold_chains(&mut acc[1][0], &x);
        }
    }
    let mut sums = cascade_tail::<PAIR>(chunks.remainder(), c, parts);
    // Every fold is exact (SUB_BLOCK bound), so the order is free.
    for (sums, acc) in sums.iter_mut().zip(&acc) {
        for (sum, chains) in sums.iter_mut().zip(acc).take(parts) {
            for &v in chains {
                *sum += v;
            }
        }
    }
    sums
}

/// Fold a stage of parts onto `CHAINS` accumulator chains.
#[inline(always)]
fn fold_chains<const CHAINS: usize, const STAGE: usize>(acc: &mut [f64; CHAINS], q: &[f64; STAGE]) {
    for g in 0..STAGE / CHAINS {
        for j in 0..CHAINS {
            acc[j] += q[g * CHAINS + j];
        }
    }
}

/// Flip each value's sign bit where `sign` has it set: the parts of `x`
/// become the parts of `|x|`.
#[inline(always)]
fn flip_signs<const STAGE: usize>(q: &mut [f64; STAGE], sign: &[u64; STAGE]) {
    for j in 0..STAGE {
        q[j] = f64::from_bits(q[j].to_bits() ^ sign[j]);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{cascade_tail, PartSums, MAX_PARTS, SUB_BLOCK};
    use std::arch::x86_64::*;

    /// One kernel body per vector width: the [`super::Cascade`] recurrence
    /// on `CHAINS` independent vector chains per part, the sub-block tail
    /// through [`cascade_tail`]. With `PAIR`, each part is also folded with
    /// the sign of `x` flipped in, onto a second set of chains (the parts
    /// of `|x|`, see [`super::Cascade::run_pair`]).
    macro_rules! cascade_kernel {
        ($(#[$attr:meta])* $name:ident, $w:literal, $zero:ident, $set1:ident,
         $loadu:ident, $storeu:ident, $add:ident, $sub:ident, $and:ident, $xor:ident) => {
            $(#[$attr])*
            pub unsafe fn $name<const CHAINS: usize, const PARTS: usize, const PAIR: bool>(
                sub: &[f64],
                c: &[f64; MAX_PARTS],
                _parts: usize,
            ) -> PartSums {
                debug_assert!(sub.len() <= SUB_BLOCK);
                let mut cv = [$zero(); MAX_PARTS];
                for (v, &c) in cv[1..PARTS].iter_mut().zip(&c[1..PARTS]) {
                    *v = $set1(c);
                }
                let sign_bit = $set1(-0.0);
                let mut acc = [[[$zero(); CHAINS]; PARTS]; 2];
                let mut groups = sub.chunks_exact($w * CHAINS);
                for group in groups.by_ref() {
                    for j in 0..CHAINS {
                        let mut x = $loadu(group.as_ptr().add($w * j));
                        let sign = $and(x, sign_bit);
                        for l in (1..PARTS).rev() {
                            let q = $sub($add(x, cv[l]), cv[l]);
                            acc[0][l][j] = $add(acc[0][l][j], q);
                            if PAIR {
                                acc[1][l][j] = $add(acc[1][l][j], $xor(q, sign));
                            }
                            x = $sub(x, q);
                        }
                        acc[0][0][j] = $add(acc[0][0][j], x);
                        if PAIR {
                            acc[1][0][j] = $add(acc[1][0][j], $xor(x, sign));
                        }
                    }
                }
                let mut sums = cascade_tail::<PAIR>(groups.remainder(), c, PARTS);
                // Every fold is exact (SUB_BLOCK bound), so the order is free.
                let mut lanes = [0.0f64; $w];
                for (sums, acc) in sums.iter_mut().zip(&acc).take(1 + PAIR as usize) {
                    for (sum, chains) in sums.iter_mut().zip(acc) {
                        for &v in chains {
                            $storeu(lanes.as_mut_ptr(), v);
                            for lane in lanes {
                                *sum += lane;
                            }
                        }
                    }
                }
                sums
            }
        };
    }

    cascade_kernel!(
        /// The cascade on `__m128d` chains (two values per chain step).
        ///
        /// # Safety
        ///
        /// The CPU must support SSE2.
        #[target_feature(enable = "sse2")]
        cascade_sse2, 2, _mm_setzero_pd, _mm_set1_pd, _mm_loadu_pd, _mm_storeu_pd,
        _mm_add_pd, _mm_sub_pd, _mm_and_pd, _mm_xor_pd
    );
    cascade_kernel!(
        /// The cascade on `__m256d` chains (four values per chain step).
        ///
        /// # Safety
        ///
        /// The CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        cascade_avx2, 4, _mm256_setzero_pd, _mm256_set1_pd, _mm256_loadu_pd,
        _mm256_storeu_pd, _mm256_add_pd, _mm256_sub_pd, _mm256_and_pd, _mm256_xor_pd
    );

    /// [`super::scan`] on SSE2: the signed 16-bit min/max of every word,
    /// of which the top word of each 64-bit lane is read.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn scan_sse2(block: &[f64]) -> (i16, i16) {
        let sign = _mm_set1_epi64x(i64::MIN);
        let one = _mm_set1_epi64x(1);
        let mut lo = _mm_set1_epi16(i16::MAX);
        let mut hi = _mm_setzero_si128();
        let mut pairs = block.chunks_exact(2);
        for pair in pairs.by_ref() {
            let bits = _mm_loadu_si128(pair.as_ptr() as *const __m128i);
            lo = _mm_min_epi16(lo, _mm_sub_epi64(_mm_or_si128(bits, sign), one));
            hi = _mm_max_epi16(hi, _mm_andnot_si128(sign, bits));
        }
        let (mut l, mut h) = ([0i16; 8], [0i16; 8]);
        _mm_storeu_si128(l.as_mut_ptr() as *mut __m128i, lo);
        _mm_storeu_si128(h.as_mut_ptr() as *mut __m128i, hi);
        let (lo, hi) = super::scan_portable(pairs.remainder());
        (lo.min(l[3]).min(l[7]), hi.max(h[3]).max(h[7]))
    }

    /// [`scan_sse2`] on AVX2, four lanes at a time.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scan_avx2(block: &[f64]) -> (i16, i16) {
        let sign = _mm256_set1_epi64x(i64::MIN);
        let one = _mm256_set1_epi64x(1);
        let mut lo = _mm256_set1_epi16(i16::MAX);
        let mut hi = _mm256_setzero_si256();
        let mut quads = block.chunks_exact(4);
        for quad in quads.by_ref() {
            let bits = _mm256_loadu_si256(quad.as_ptr() as *const __m256i);
            lo = _mm256_min_epi16(lo, _mm256_sub_epi64(_mm256_or_si256(bits, sign), one));
            hi = _mm256_max_epi16(hi, _mm256_andnot_si256(sign, bits));
        }
        let (mut l, mut h) = ([0i16; 16], [0i16; 16]);
        _mm256_storeu_si256(l.as_mut_ptr() as *mut __m256i, lo);
        _mm256_storeu_si256(h.as_mut_ptr() as *mut __m256i, hi);
        let (mut lo, mut hi) = super::scan_portable(quads.remainder());
        for w in [3, 7, 11, 15] {
            lo = lo.min(l[w]);
            hi = hi.max(h[w]);
        }
        (lo, hi)
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{cascade_avx2, cascade_sse2, scan_avx2, scan_sse2};

/// The vector kernel `$k` for `$parts` parts, for `x` alone or for the
/// pair pass. x86 has 16 vector registers, and the grid constants and
/// per-value temporaries need half of them, so a kernel keeps at most 8
/// accumulators in registers: `max(1, 8 / parts)` chains, and half that
/// for the pair pass. More would spill accumulators to the stack, which
/// measured slower. One chain of a pair pass past 4 parts spills some
/// anyway.
#[cfg(target_arch = "x86_64")]
macro_rules! vector_kernel {
    ($k:ident, $parts:expr, $pair:expr) => {
        match ($pair, $parts) {
            (false, 2) => $k::<4, 2, false> as Kernel,
            (false, 3) => $k::<2, 3, false>,
            (false, 4) => $k::<2, 4, false>,
            (false, 5) => $k::<1, 5, false>,
            (false, 6) => $k::<1, 6, false>,
            (false, 7) => $k::<1, 7, false>,
            (false, _) => $k::<1, 8, false>,
            (true, 2) => $k::<2, 2, true>,
            (true, 3) => $k::<1, 3, true>,
            (true, 4) => $k::<1, 4, true>,
            (true, 5) => $k::<1, 5, true>,
            (true, 6) => $k::<1, 6, true>,
            (true, 7) => $k::<1, 7, true>,
            (true, _) => $k::<1, 8, true>,
        }
    };
}

/// The cascade kernel for `tier`, `parts` parts (2 to [`MAX_PARTS`]), and
/// `x` alone or the pair pass.
fn kernel(tier: SimdTier, parts: usize, pair: bool) -> Kernel {
    debug_assert!((2..=MAX_PARTS).contains(&parts));
    let portable = if pair {
        cascade_portable::<true> as Kernel
    } else {
        cascade_portable::<false>
    };
    match runnable(tier) {
        SimdTier::Scalar => portable,
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => vector_kernel!(cascade_sse2, parts, pair),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => vector_kernel!(cascade_avx2, parts, pair),
        #[cfg(not(target_arch = "x86_64"))]
        _ => portable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    /// `n` values with random signs and mantissas whose biased exponents
    /// lie in `[raw, raw + binades]`.
    fn spread_values(raw: u64, binades: u64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let e = raw + rng.next_u64() % (binades + 1);
                let mant = rng.next_u64() & ((1 << 52) - 1);
                let sign = (rng.next_u64() & 1) << 63;
                f64::from_bits(sign | (e << 52) | mant)
            })
            .collect()
    }

    #[test]
    fn tier_labels_round_trip() {
        for &tier in &[SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2] {
            assert_eq!(SimdTier::parse(tier.label()), Some(tier));
        }
        assert_eq!(SimdTier::parse("auto"), None);
        assert_eq!(SimdTier::parse("avx512"), None);
    }

    #[test]
    fn resolve_tier_accepts_auto_and_supported_forces() {
        let best = *supported_tiers().last().unwrap();
        assert_eq!(resolve_tier(None), Ok((best, "auto (REPRO_SIMD unset)")));
        assert_eq!(resolve_tier(Some("")).unwrap().0, best);
        assert_eq!(resolve_tier(Some("auto")).unwrap().0, best);
        for &tier in supported_tiers() {
            assert_eq!(
                resolve_tier(Some(tier.label())),
                Ok((tier, "forced by REPRO_SIMD"))
            );
        }
    }

    #[test]
    fn resolve_tier_rejects_garbage_without_panicking() {
        let err = resolve_tier(Some("bogus")).unwrap_err();
        assert_eq!(err, TierError::Unparsable("bogus".into()));
        assert!(err.to_string().contains("scalar|sse2|avx2|auto"), "{err}");
        // Case matters, like the old panic path.
        assert!(resolve_tier(Some("AVX2")).is_err());
    }

    #[test]
    fn resolve_tier_rejects_unsupported_force_with_tier_named() {
        // Scalar is always supported, so fabricate unsupportedness only
        // where a tier can actually be absent.
        for &tier in &[SimdTier::Sse2, SimdTier::Avx2] {
            if !tier_supported(tier) {
                let err = resolve_tier(Some(tier.label())).unwrap_err();
                assert_eq!(err, TierError::Unsupported(tier));
                assert!(err.to_string().contains("supported:"), "{err}");
            }
        }
    }

    #[test]
    fn try_active_tier_agrees_with_active_tier_in_clean_env() {
        // The test harness never sets an invalid REPRO_SIMD, so the cached
        // resolution must be Ok and the two accessors must agree.
        assert_eq!(try_active_tier(), Ok(active_tier()));
    }

    #[test]
    fn supported_tiers_start_at_scalar_and_contain_active() {
        let tiers = supported_tiers();
        assert_eq!(tiers.first(), Some(&SimdTier::Scalar));
        assert!(tiers.windows(2).all(|w| w[0] < w[1]), "ordered ascending");
        assert!(tiers.contains(&active_tier()));
        assert!(!dispatch_source().is_empty());
    }

    #[test]
    fn scan_and_plan_agree_across_tiers() {
        let mut blocks: Vec<Vec<f64>> = Vec::new();
        for (raw, binades, n) in [
            (1000u64, 10u64, 0usize),
            (1000, 10, 1),
            (1000, 10, 5),
            (1, 40, 64),
            (1023, 100, 127),
            (1900, 200, 31),
            (2040, 6, 33),
        ] {
            blocks.push(spread_values(raw, binades, n, raw + n as u64));
        }
        // Zeros, subnormals, a power of two as the minimum, non-finites and
        // huge values, each at an awkward position of a clean block.
        for (i, poison) in [
            0.0,
            -0.0,
            f64::from_bits(7),
            2f64.powi(-20),
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -f64::MAX,
        ]
        .into_iter()
        .enumerate()
        {
            let mut b = spread_values(1023, 20, 67, 99 + i as u64);
            b[[0usize, 1, 2, 32, 65, 66, 3, 64][i]] = poison;
            blocks.push(b);
        }
        blocks.push(vec![0.0, -0.0, 0.0]);
        blocks.push(vec![f64::from_bits(1), -f64::from_bits(3)]);
        for block in &blocks {
            let reference = (
                scan(SimdTier::Scalar, block),
                Cascade::plan(SimdTier::Scalar, block),
            );
            for &tier in supported_tiers() {
                let got = (scan(tier, block), Cascade::plan(tier, block));
                assert_eq!(
                    got,
                    reference,
                    "tier {tier} on a block of len {}",
                    block.len()
                );
            }
        }
    }

    #[test]
    fn plan_reads_the_exponent_extremes() {
        let plan = |block: &[f64]| Cascade::plan(SimdTier::Scalar, block);
        // pred(1.5) has its LSB at bit 1022, 1.5 its MSB at bit 1074.
        assert_eq!(plan(&[1.5]), Some(Cascade { a: 1022, parts: 2 }));
        // pred(1.0) lies one binade lower; zeros are ignored.
        assert_eq!(plan(&[0.0, 1.0, -0.0]), Some(Cascade { a: 1021, parts: 2 }));
        // Subnormals sit at bit 0.
        assert_eq!(plan(&[f64::from_bits(5)]), Some(Cascade { a: 0, parts: 2 }));
        assert_eq!(plan(&[-0.0, 0.0]), Some(Cascade { a: 0, parts: 2 }));
        // Span 53 + 31 binades = 84 = 2 * 42 bits; one binade more needs 3.
        assert_eq!(plan(&[1.5, 1.5 * 2f64.powi(31)]).unwrap().parts(), 2);
        assert_eq!(plan(&[1.5, 1.5 * 2f64.powi(32)]).unwrap().parts(), 3);
        // Past the cap, and non-finites, values are added one by one.
        let cap_span = 42 * MAX_PARTS as i32 - 53;
        assert_eq!(
            plan(&[1.5, 1.5 * 2f64.powi(cap_span)]).unwrap().parts(),
            MAX_PARTS
        );
        assert_eq!(plan(&[1.5, 1.5 * 2f64.powi(cap_span + 1)]), None);
        assert_eq!(plan(&[1.0, f64::NAN]), None);
        assert_eq!(plan(&[f64::NEG_INFINITY]), None);
        // Above about 2^981 the top grid constant would overflow.
        assert_eq!(plan(&[1.5 * 2f64.powi(980)]).unwrap().parts(), 2);
        assert_eq!(plan(&[1.5 * 2f64.powi(982)]), None);
        assert_eq!(plan(&[f64::MAX]), None);
    }

    #[test]
    fn cascade_parts_are_identical_across_tiers_and_lanes() {
        // Every part count, with tails below one vector group. Each tier
        // runs its own chain count and vector-lane width.
        for (raw, binades) in [
            (1000u64, 20u64),
            (1000, 60),
            (600, 100),
            (1, 150),
            (1023, 8),
        ] {
            for n in [1usize, 2, 3, 7, 63, 64, 65, 255, 1023, 1024] {
                let sub = spread_values(raw, binades, n, raw * 7 + n as u64);
                let cascade = Cascade::plan(SimdTier::Scalar, &sub).expect("within the cap");
                let mut c = [0.0f64; MAX_PARTS];
                for (l, c) in c.iter_mut().enumerate().take(cascade.parts).skip(1) {
                    let grid = u64::from(cascade.a + LEVEL_BITS * l as u32);
                    *c = f64::from_bits(((grid + 1) << 52) | (1 << 51));
                }
                let run = |tier, pair| {
                    let kernel = kernel(tier, cascade.parts, pair);
                    // SAFETY: `kernel` returns a kernel of a tier this CPU runs.
                    unsafe { kernel(&sub, &c, cascade.parts) }.map(|p| p.map(f64::to_bits))
                };
                let [x, abs] = run(SimdTier::Scalar, true).map(|p| p.map(f64::from_bits));
                // The parts sum to the block exactly, and the pair pass's
                // second set to its magnitudes.
                let sum = |values: &mut dyn Iterator<Item = f64>| {
                    let mut acc = crate::Superaccumulator::new();
                    values.for_each(|v| acc.add(v));
                    acc.checkpoint()
                };
                assert_eq!(sum(&mut x.into_iter()), sum(&mut sub.iter().copied()));
                assert_eq!(
                    sum(&mut abs.into_iter()),
                    sum(&mut sub.iter().map(|x| x.abs()))
                );
                let zeros = [0.0f64.to_bits(); MAX_PARTS];
                for &tier in supported_tiers() {
                    let label = format!("tier {tier} parts {} n {n}", cascade.parts);
                    let [px, pabs] = run(tier, true);
                    assert_eq!(
                        (px, pabs),
                        (x.map(f64::to_bits), abs.map(f64::to_bits)),
                        "{label}"
                    );
                    assert_eq!(run(tier, false), [px, zeros], "{label}");
                }
            }
        }
    }

    #[test]
    fn lane_counts_are_bitwise_equivalent() {
        // ±0 and subnormals among ~500-binade spans (blocks the plan
        // refuses), and narrow spans (blocks the cascade runs).
        let hostile = |seed: u64, n: usize| -> Vec<f64> {
            let mut rng = DetRng::seed_from_u64(seed);
            (0..n)
                .map(|i| match i % 9 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::from_bits(rng.next_u64() % 1024 + 1),
                    _ => {
                        let m = rng.next_f64() - 0.5;
                        m * 2f64.powi((rng.next_u64() % 500) as i32 - 250)
                    }
                })
                .collect()
        };
        for seed in [1u64, 2015] {
            for n in [0usize, 1, 5, 127, 1024, 4097, 10_000] {
                for values in [hostile(seed, n), spread_values(1000, 60, n, seed)] {
                    let reference = crate::Superaccumulator::from_values(values.iter().copied())
                        .to_f64()
                        .to_bits();
                    for &tier in supported_tiers() {
                        for lanes in [1usize, 2, 4, 8] {
                            // Contiguous lanes, each its own register,
                            // merged in lane order.
                            let mut acc = crate::Superaccumulator::new();
                            for chunk in values.chunks(n.div_ceil(lanes).max(1)) {
                                let mut lane = crate::Superaccumulator::new();
                                lane.add_slice_with_tier(chunk, tier);
                                acc.merge(&lane);
                            }
                            assert_eq!(
                                acc.to_f64().to_bits(),
                                reference,
                                "seed {seed} n {n} tier {tier} lanes {lanes}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tiers_this_cpu_lacks_run_the_portable_kernels() {
        let block = spread_values(1000, 60, 300, 11);
        let reference = Cascade::plan(SimdTier::Scalar, &block);
        for tier in [SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2] {
            let expect = if tier_supported(tier) {
                tier
            } else {
                SimdTier::Scalar
            };
            assert_eq!(runnable(tier), expect);
            assert_eq!(Cascade::plan(tier, &block), reference, "{tier}");
        }
    }
}

//! Dispatch-equivalence property tests: every SIMD tier this machine
//! supports, each with its own vector width and accumulator-chain count,
//! must leave the register **bit-identical** to scalar
//! [`Superaccumulator::add`] — on hostile data (subnormals, signed zeros,
//! non-finites, mixed exponents, adversarial cancellation) and at awkward
//! lengths (odd widths, short tails below one SIMD block, exact block
//! multiples).
//!
//! Blocks the cascade refuses are themselves a loop of `add`, so on those
//! blocks the reference is the code under test; `oracle_agreement.rs` in
//! `repro-hp` checks them against an independent exact sum.
//!
//! These are the tests the CI `simd` job runs once per `REPRO_SIMD` tier;
//! running them under one process here additionally cross-checks tiers
//! against each other directly through the explicit-tier entry points.

use proptest::prelude::*;
use repro_fp::rng::DetRng;
use repro_fp::simd::{self, Cascade, SimdTier};
use repro_fp::Superaccumulator;

/// Sum on an explicit tier, returning the full-precision readout (`to_dd`
/// exposes the sub-ulp residual, so a divergence anywhere in the top ~106
/// bits of the register is caught, not just in the rounded result).
fn sum_with(values: &[f64], tier: SimdTier) -> (u64, u64, u64) {
    let mut acc = Superaccumulator::new();
    acc.add_slice_with_tier(values, tier);
    let dd = acc.to_dd();
    (acc.to_f64().to_bits(), dd.hi.to_bits(), dd.lo.to_bits())
}

/// Scalar-tier per-element reference: the definitional semantics.
fn reference(values: &[f64]) -> (u64, u64, u64) {
    let mut acc = Superaccumulator::new();
    for &x in values {
        acc.add(x);
    }
    let dd = acc.to_dd();
    (acc.to_f64().to_bits(), dd.hi.to_bits(), dd.lo.to_bits())
}

fn assert_all_dispatches_match(values: &[f64], label: &str) {
    let expect = reference(values);
    for &tier in simd::supported_tiers() {
        let got = sum_with(values, tier);
        assert_eq!(
            got,
            expect,
            "{label}: tier {tier} diverged (n = {})",
            values.len()
        );
    }
}

/// Hostile mix: wide exponent spread, subnormals, signed zeros.
fn hostile() -> impl Strategy<Value = f64> {
    prop_oneof![
        12 => (any::<u64>(), -300i32..300).prop_map(|(m, e)| (m as i64 as f64) * (e as f64).exp2()),
        2 => any::<u64>().prop_map(|b| f64::from_bits(b % 4096)), // subnormals
        2 => any::<u64>().prop_map(|b| -f64::from_bits(b % 4096)),
        1 => Just(0.0),
        1 => Just(-0.0),
        2 => (-1022i32..1023).prop_map(|e| (e as f64).exp2()),
    ]
}

/// The register's exact state after scalar `add`s: the definitional
/// semantics, down to every digit and non-finite flag.
fn scalar_checkpoint(values: impl Iterator<Item = f64>) -> String {
    let mut acc = Superaccumulator::new();
    for x in values {
        acc.add(x);
    }
    acc.checkpoint()
}

/// `add_slice`, and both registers of the pair pass, on every supported
/// tier leave the scalar register states of `x` and `|x|`, byte for byte.
fn assert_checkpoints_match(values: &[f64], label: &str) {
    let expect = scalar_checkpoint(values.iter().copied());
    let expect_abs = scalar_checkpoint(values.iter().map(|x| x.abs()));
    for &tier in simd::supported_tiers() {
        let label = format!("{label}: tier {tier} (n = {})", values.len());
        let mut acc = Superaccumulator::new();
        acc.add_slice_with_tier(values, tier);
        assert_eq!(acc.checkpoint(), expect, "{label}");
        let (mut sum, mut abs) = (Superaccumulator::new(), Superaccumulator::new());
        sum.add_slice_pair_with_tier(&mut abs, values, tier);
        assert_eq!(sum.checkpoint(), expect, "{label}: pair pass, x");
        assert_eq!(abs.checkpoint(), expect_abs, "{label}: pair pass, |x|");
    }
}

/// `n` values with random signs and mantissas, biased exponents in
/// `[raw, raw + binades]`.
fn span_values(n: usize, raw: u64, binades: u64, rng: &mut DetRng) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let e = raw + rng.next_u64() % (binades + 1);
            let mant = rng.next_u64() & ((1 << 52) - 1);
            let sign = (rng.next_u64() & 1) << 63;
            f64::from_bits(sign | (e << 52) | mant)
        })
        .collect()
}

/// Blocks for the cascade: exponent spans of 1–260 binades anywhere in
/// the normal range, lengths around one and two blocks, with ±0,
/// subnormals, values near ±f64::MAX and non-finites mixed in.
fn cascade_blocks() -> impl Strategy<Value = Vec<f64>> {
    let len = prop_oneof![1 => 1usize..300, 2 => 1000usize..1050, 2 => 2030usize..2070];
    (len, 1u64..=260, any::<u64>(), 0usize..8, any::<u64>()).prop_map(
        |(n, binades, seed, special, pos)| {
            let mut rng = DetRng::seed_from_u64(seed);
            let raw = 1 + rng.next_u64() % (2046 - binades);
            let mut values = span_values(n, raw, binades, &mut rng);
            let x = [
                f64::from_bits(rng.next_u64() % 4096), // +0 or a subnormal
                -0.0,
                -f64::from_bits(rng.next_u64() % (1 << 52)),
                f64::MAX,
                -f64::MAX / 3.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ][special];
            // Roughly one block in three gets one special value.
            if pos % 3 == 0 {
                let i = (pos / 3) as usize % values.len();
                values[i] = x;
            }
            values
        },
    )
}

proptest! {
    /// The cascade and its fallback, for `x` alone and for the pair pass,
    /// leave the scalar register states on every tier, on blocks of every
    /// part count.
    #[test]
    fn add_slice_leaves_the_scalar_checkpoint(values in cascade_blocks()) {
        assert_checkpoints_match(&values, "cascade blocks");
    }

    /// The pair pass on the hostile mix (subnormals, signed zeros, spreads
    /// of 600 binades, which the cascade refuses for both registers).
    #[test]
    fn pair_pass_leaves_the_scalar_checkpoints(
        values in prop::collection::vec(hostile(), 0..800),
    ) {
        assert_checkpoints_match(&values, "hostile mix");
    }

    /// All tiers, each at its own vector and chain width, random lengths
    /// (including short tails under one SIMD block and under one staging
    /// chunk).
    #[test]
    fn tiers_and_lane_widths_are_bitwise_identical(
        values in prop::collection::vec(hostile(), 0..600),
    ) {
        assert_all_dispatches_match(&values, "hostile mix");
    }

    /// Adversarial cancellation: every value appears with its negation, in
    /// an interleave that keeps each pair inside one block. The
    /// exact total is zero; any tier that loses a bit anywhere misses it.
    #[test]
    fn cancellation_to_zero_on_every_tier(
        base in prop::collection::vec((1u64..(1 << 52), -200i32..200), 1..200),
    ) {
        let mut values = Vec::with_capacity(base.len() * 2);
        for &(m, e) in &base {
            let v = (m as f64) * (e as f64).exp2();
            values.push(v);
            values.push(-v);
        }
        assert_all_dispatches_match(&values, "cancellation");
        for &tier in simd::supported_tiers() {
            let mut acc = Superaccumulator::new();
            acc.add_slice_with_tier(&values, tier);
            prop_assert!(acc.is_zero(), "tier {} missed exact zero", tier);
        }
    }

    /// Non-finites poison every tier identically, wherever they sit.
    #[test]
    fn nonfinites_poison_all_tiers_identically(
        n in 0usize..300,
        pos in 0usize..300,
        which in 0usize..3,
    ) {
        let mut values: Vec<f64> = (0..n).map(|i| (i as f64 - 7.5) * 1.25).collect();
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which];
        values.insert(pos.min(values.len()), special);
        let expect_nan = special.is_nan();
        let expect = reference(&values);
        for &tier in simd::supported_tiers() {
            let mut acc = Superaccumulator::new();
            acc.add_slice_with_tier(&values, tier);
            if expect_nan {
                prop_assert!(acc.to_f64().is_nan(), "tier {tier}");
            } else {
                prop_assert_eq!(acc.to_f64().to_bits(), expect.0, "tier {}", tier);
            }
        }
    }
}

/// Deterministic sweep of the length edge cases around every internal
/// granularity: the 8-element SIMD group, the 64-element staging chunk, the
/// 1024-element deposit group, and the 2048-element plan block.
#[test]
fn block_boundary_widths_are_bitwise_identical() {
    let mut rng = repro_fp::rng::DetRng::seed_from_u64(2015);
    for n in [
        0usize, 1, 2, 3, 5, 7, 8, 9, 15, 17, 63, 64, 65, 127, 255, 1023, 1024, 1025, 2047, 2048,
        2049, 4095, 4096, 4097,
    ] {
        let values: Vec<f64> = (0..n)
            .map(|i| match i % 13 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from_bits(rng.next_u64() % 512 + 1),
                3 => -f64::from_bits(rng.next_u64() % 512 + 1),
                4 => (rng.next_f64() - 0.5) * 2f64.powi(900), // near-overflow
                _ => (rng.next_f64() - 0.5) * 2f64.powi((rng.next_u64() % 600) as i32 - 300),
            })
            .collect();
        assert_all_dispatches_match(&values, "boundary sweep");
    }
}

/// Narrow-span data (two-part cascades) at every tier: locally-similar
/// exponents are exactly the case the SSE2/AVX2 kernels accelerate, so pin
/// them hardest.
#[test]
fn extraction_fast_path_is_bitwise_identical() {
    let mut rng = repro_fp::rng::DetRng::seed_from_u64(7);
    for digit_exp in [-300i32, -40, 0, 40, 300] {
        for n in [1usize, 31, 256, 1000, 2048, 5000] {
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    let m = rng.next_f64() + 0.5; // [0.5, 1.5): same binade band
                    let s = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
                    s * m * 2f64.powi(digit_exp + (rng.next_u64() % 8) as i32)
                })
                .collect();
            assert_all_dispatches_match(&values, "fast path");
        }
    }
}

/// A slice fed in two unequal pieces, on every tier (each at its own chain
/// width), leaves the register one `add_slice` of the whole does: the block
/// cut moves with the split, the bits do not.
#[test]
fn chain_widths_compose_with_slicing() {
    let mut rng = repro_fp::rng::DetRng::seed_from_u64(99);
    let values: Vec<f64> = (0..10_000)
        .map(|_| (rng.next_f64() - 0.5) * 2f64.powi((rng.next_u64() % 200) as i32 - 100))
        .collect();
    let expect = reference(&values);
    for &tier in simd::supported_tiers() {
        for split in [1usize, 513, 2048, 9_999] {
            let mut acc = Superaccumulator::new();
            acc.add_slice_with_tier(&values[..split], tier);
            acc.add_slice_with_tier(&values[split..], tier);
            let dd = acc.to_dd();
            assert_eq!(
                (acc.to_f64().to_bits(), dd.hi.to_bits(), dd.lo.to_bits()),
                expect,
                "tier {tier} split {split}"
            );
        }
    }
}

/// A block whose values span exactly `span` bits: the smallest magnitude's
/// predecessor has its LSB `span` bits below the largest's MSB bound.
fn block_with_span(span: i32, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = DetRng::seed_from_u64(seed);
    // 1.5 * 2^e: pred has its LSB at bit e + 1022, the value its MSB
    // bound at e + 1075, so the extremes 1.5 * 2^e0 and 1.5 * 2^e1 span
    // e1 - e0 + 53 bits.
    let e0 = -200;
    let e1 = e0 + span - 53;
    let mut values = span_values(n, (e0 + 1024) as u64, (e1 - e0 - 2) as u64, &mut rng);
    values[n / 3] = -1.5 * 2f64.powi(e0);
    values[2 * n / 3] = 1.5 * 2f64.powi(e1);
    values
}

/// Spans at every level-count boundary (42·m bits takes m parts, 42·m + 1
/// takes m + 1) up to the cap, past which the block is added value by
/// value; `x` alone and the pair pass.
#[test]
fn part_count_boundaries_and_the_cap_are_bitwise_identical() {
    for m in 2..=simd::MAX_PARTS {
        for (span, parts) in [(42 * m, m), (42 * m + 1, m + 1)] {
            for n in [1500usize, 2048, 2200] {
                let values = block_with_span(span as i32, n, (span * n) as u64);
                let plan = Cascade::plan(SimdTier::Scalar, &values[..n.min(2048)]);
                let expect = (parts <= simd::MAX_PARTS).then_some(parts);
                assert_eq!(plan.map(Cascade::parts), expect, "span {span}");
                assert_checkpoints_match(&values, &format!("span {span}"));
            }
        }
    }
}

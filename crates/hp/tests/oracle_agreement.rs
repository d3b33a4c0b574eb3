//! The defining property of `repro-hp`: it must agree **bit-for-bit** with
//! the superaccumulator on reference sums, despite sharing no code with it.
//! Two independent exact-summation implementations agreeing on random data
//! is the strongest cheap evidence that both are correct.

use proptest::prelude::*;
use repro_hp::BigFloat;

fn wide() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => (-260.0f64..260.0).prop_map(|e| e.exp2()),
        8 => (-260.0f64..260.0).prop_map(|e| -e.exp2()),
        4 => -1e9f64..1e9,
        1 => Just(0.0),
    ]
}

proptest! {
    /// Reference sums agree with the superaccumulator, bitwise.
    #[test]
    fn sum_exact_matches_superaccumulator(values in prop::collection::vec(wide(), 0..80)) {
        let a = repro_hp::sum_exact(&values);
        let b = repro_fp::exact_sum(&values);
        prop_assert_eq!(a.to_bits(), b.to_bits(),
            "BigFloat {:e} vs superaccumulator {:e}", a, b);
    }

    /// Single-operation addition agrees with two_sum's rounded result.
    #[test]
    fn add_rounds_like_hardware(a in wide(), b in wide()) {
        prop_assume!((a + b).is_finite());
        let s = BigFloat::from_f64(a).add(&BigFloat::from_f64(b));
        // 64-bit BigFloat holds the exact 2-term sum when it fits in 64 bits;
        // compare against the exactly-summed reference instead of fl(a+b).
        let expected = repro_fp::exact_sum(&[a, b]);
        // The f64 view after (at most) one extra rounding can differ from the
        // correctly rounded sum only if the 64-bit intermediate was inexact.
        // For a two-term sum the exact result needs at most ~2100 bits, so
        // widen until exact:
        let s_wide = BigFloat::from_f64(a).with_precision(2304).add(&BigFloat::from_f64(b));
        prop_assert_eq!(s_wide.to_f64().to_bits(), expected.to_bits());
        // And the 64-bit result is within 1 ulp of it.
        let diff = (s.to_f64() - expected).abs();
        prop_assert!(diff <= repro_fp::ulp::ulp(expected), "64-bit add off by > 1 ulp");
    }

    /// f64 -> BigFloat -> f64 is the identity.
    #[test]
    fn round_trip_identity(x in wide()) {
        prop_assert_eq!(BigFloat::from_f64(x).to_f64().to_bits(), x.to_bits());
    }

    /// Value comparison agrees with f64 comparison on f64 inputs.
    #[test]
    fn cmp_agrees_with_f64(a in wide(), b in wide()) {
        let ord = BigFloat::from_f64(a).cmp_value(&BigFloat::from_f64(b));
        prop_assert_eq!(Some(ord), a.partial_cmp(&b));
    }

    /// Multiplication at 128 bits matches the exact product of two f64s
    /// (every f64 x f64 product fits in 106 bits).
    #[test]
    fn mul_is_exact_at_128_bits(a in wide(), b in wide()) {
        let p = BigFloat::from_f64(a).with_precision(128).mul(&BigFloat::from_f64(b));
        let (hi, lo) = repro_fp::two_prod(a, b);
        prop_assert_eq!(p.to_f64().to_bits(), repro_fp::exact_sum(&[hi, lo]).to_bits());
    }

    /// Negation and subtraction are consistent: a - b == a + (-b) and
    /// a - a == 0.
    #[test]
    fn sub_neg_consistency(a in wide(), b in wide()) {
        let ba = BigFloat::from_f64(a);
        let bb = BigFloat::from_f64(b);
        let d1 = ba.sub(&bb);
        let d2 = ba.add(&bb.neg());
        prop_assert_eq!(d1.cmp_value(&d2), std::cmp::Ordering::Equal);
        prop_assert!(ba.sub(&ba).is_zero());
    }
}

/// `len` mixed-sign values with random mantissas and biased exponents in
/// `lo..=hi`. Every 16th value is a signed zero; at `lo = 0`, the
/// subnormal exponent, the next one is always a subnormal.
fn spread(len: usize, lo: u64, hi: u64, rng: &mut repro_fp::rng::DetRng) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let sign = (rng.next_u64() & 1) << 63;
            let mantissa = rng.next_u64() % (1 << 52);
            let e = match i % 16 {
                0 => return f64::from_bits(sign),
                1 => lo,
                _ => lo + rng.next_u64() % (hi - lo + 1),
            };
            f64::from_bits(sign | (e << 52) | mantissa)
        })
        .collect()
}

/// Blocks the cascade refuses are a loop of scalar `add`, the very code
/// `repro-fp`'s dispatch tests take as their reference. So check them here
/// against the independent oracle, both registers of the pair pass: blocks
/// from the subnormals up to biased exponent 320, 450 and 2000 need 9, 12
/// and 49 parts, past `MAX_PARTS`. At n = 4500 one call mixes refused
/// blocks with a planned middle block.
#[test]
fn refused_blocks_match_the_oracle() {
    use repro_fp::simd::{Cascade, SimdTier};
    use repro_fp::{exact_abs_sum, exact_sum};
    let mut rng = repro_fp::rng::DetRng::seed_from_u64(2015);
    for top in [320u64, 450, 2000] {
        for n in [2048usize, 4500] {
            let mut values = spread(n, 0, top, &mut rng);
            if n > 4096 {
                // 30 binades and no subnormals: a two-part cascade.
                values.splice(2048..4096, spread(2048, 1000, 1030, &mut rng));
            }
            for (b, block) in values.chunks(2048).enumerate() {
                let parts = Cascade::plan(SimdTier::Scalar, block).map(Cascade::parts);
                let expect = (b == 1).then_some(2);
                assert_eq!(parts, expect, "top {top} n {n} block {b}");
            }
            let abs: Vec<f64> = values.iter().map(|x| x.abs()).collect();
            let oracle = |v: &[f64]| repro_hp::sum_exact(v).to_bits();
            let label = format!("top {top} n {n}");
            assert_eq!(exact_sum(&values).to_bits(), oracle(&values), "{label}");
            assert_eq!(exact_abs_sum(&values).to_bits(), oracle(&abs), "{label}");
        }
    }
}

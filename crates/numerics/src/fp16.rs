//! IEEE 754 binary16 ("half precision") codec, from scratch.
//!
//! Rust has no stable `f16`, and the paper's experiments hinge on the exact
//! 16-bit encodings that stream through the datapath — the toggle engine
//! counts bits in *these* words. The conversion implements the full IEEE
//! semantics:
//!
//! * round-to-nearest-even on narrowing (the paper: "round to nearest value"),
//! * gradual underflow to subnormals,
//! * overflow to ±infinity,
//! * NaN payload preservation (quietized).
//!
//! Layout: `s eeeee mmmmmmmmmm` — 1 sign bit, 5 exponent bits (bias 15),
//! 10 mantissa bits.

/// Exponent bias of binary16.
pub const F16_BIAS: i32 = 15;
/// Number of stored mantissa bits of binary16.
pub const F16_MANT_BITS: u32 = 10;
/// Largest finite binary16 value (65504.0).
pub const F16_MAX: f32 = 65504.0;
/// Smallest positive normal binary16 value (2⁻¹⁴).
pub const F16_MIN_POSITIVE: f32 = 6.103_515_6e-5;

/// Convert an `f32` to the nearest binary16 bit pattern
/// (round-to-nearest, ties-to-even).
///
/// ```
/// use wm_numerics::{f32_to_f16_bits, f16_bits_to_f32};
/// assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
/// assert_eq!(f32_to_f16_bits(-2.0), 0xC000);
/// assert_eq!(f16_bits_to_f32(f32_to_f16_bits(0.5)), 0.5);
/// ```
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp32 = ((bits >> 23) & 0xFF) as i32;
    let mant32 = bits & 0x007F_FFFF;

    if exp32 == 0xFF {
        // Infinity or NaN.
        return if mant32 == 0 {
            sign | 0x7C00
        } else {
            // Quiet NaN, preserving the top mantissa bits that fit.
            sign | 0x7C00 | 0x0200 | ((mant32 >> 13) as u16 & 0x01FF)
        };
    }

    // Unbiased exponent of the f32 value.
    let unbiased = exp32 - 127;
    if unbiased > 15 {
        // Overflows binary16 -> infinity.
        return sign | 0x7C00;
    }

    if unbiased >= -14 {
        // Normal range for binary16.
        let exp16 = (unbiased + F16_BIAS) as u32;
        // 13 mantissa bits are dropped; round to nearest even.
        let mant16 = mant32 >> 13;
        let round_bit = (mant32 >> 12) & 1;
        let sticky = mant32 & 0x0FFF;
        let mut out = ((exp16 << F16_MANT_BITS) | mant16) as u16;
        if round_bit == 1 && (sticky != 0 || (mant16 & 1) == 1) {
            out += 1; // may carry into the exponent: that is correct
                      // rounding up to the next binade or to infinity.
        }
        return sign | out;
    }

    // Subnormal range (or underflow to zero). The implicit leading 1 of
    // the f32 mantissa becomes explicit and is shifted right.
    if unbiased < -25 {
        // Too small even for the largest rounding: signed zero.
        return sign;
    }
    let full_mant = mant32 | 0x0080_0000; // make the implicit bit explicit
    let shift = (-14 - unbiased) as u32 + 13;
    let mant16 = full_mant >> shift;
    let round_bit = (full_mant >> (shift - 1)) & 1;
    let sticky = full_mant & ((1u32 << (shift - 1)) - 1);
    let mut out = mant16 as u16;
    if round_bit == 1 && (sticky != 0 || (mant16 & 1) == 1) {
        out += 1; // may round up into the smallest normal, also correct
    }
    sign | out
}

/// Convert a binary16 bit pattern to the exactly-representable `f32`.
///
/// Every binary16 value is exactly representable in binary32, so this
/// direction is lossless.
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = u32::from(bits >> 15) << 31;
    let exp16 = i32::from((bits >> F16_MANT_BITS) & 0x1F);
    let mant16 = u32::from(bits & 0x03FF);

    if exp16 == 0x1F {
        // Infinity or NaN.
        let mant32 = mant16 << 13;
        return f32::from_bits(sign | 0x7F80_0000 | mant32);
    }
    if exp16 == 0 {
        if mant16 == 0 {
            return f32::from_bits(sign); // signed zero
        }
        // Subnormal: value = mant16 * 2^-24. Normalize into f32: with h the
        // position of the highest set bit, value = 2^(h-24) * 1.frac, so the
        // f32 biased exponent is h + 103.
        let h = 31 - mant16.leading_zeros(); // 0..=9
        let exp32 = h + 103;
        let mant = (mant16 << (10 - h)) & 0x03FF; // drop the leading 1
        return f32::from_bits(sign | (exp32 << 23) | (mant << 13));
    }
    let exp32 = (exp16 - F16_BIAS + 127) as u32;
    f32::from_bits(sign | (exp32 << 23) | (mant16 << 13))
}

/// Round an `f32` to the nearest binary16-representable value, returned as
/// `f32` (the "numeric conversion" the paper applies to FP16 inputs).
///
/// Bit-identical to `f16_bits_to_f32(f32_to_f16_bits(value))`. A value
/// whose f32 exponent lands in binary16's normal range without reaching
/// its top binade (biased 113..=141) rounds to nearest-even directly on
/// its f32 bits, dropping the 13 mantissa bits binary16 lacks (a carry
/// into the exponent is the correct round-up and stays finite). Zeros,
/// subnormals, the overflow binade, infinities and NaNs take the codec.
#[inline]
pub fn round_f32_to_f16(value: f32) -> f32 {
    let bits = value.to_bits();
    let exp = (bits >> 23) & 0xFF;
    if exp.wrapping_sub(113) <= 141 - 113 {
        f32::from_bits((bits + 0x0FFF + ((bits >> 13) & 1)) & !0x1FFF)
    } else {
        f16_bits_to_f32(f32_to_f16_bits(value))
    }
}

/// Multiply two values in binary16 precision: convert to half, multiply in
/// f32, round the product back to half. For values already representable in
/// half this matches an IEEE binary16 fused-rounding multiply because the
/// f32 product of two halves is exact (11+11 significant bits < 24).
#[inline]
pub fn f16_mul(a: f32, b: f32) -> f32 {
    round_f32_to_f16(round_f32_to_f16(a) * round_f32_to_f16(b))
}

/// Add two values in binary16 precision. The f32 sum of two halves is not
/// always exact, but double rounding through f32 differs from direct
/// binary16 rounding only on ties at the 2⁻¹¹ boundary — negligible for the
/// power simulation and fully deterministic.
#[inline]
pub fn f16_add(a: f32, b: f32) -> f32 {
    round_f32_to_f16(round_f32_to_f16(a) + round_f32_to_f16(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_encodings() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
        assert_eq!(f32_to_f16_bits(-1.0), 0xBC00);
        assert_eq!(f32_to_f16_bits(2.0), 0x4000);
        assert_eq!(f32_to_f16_bits(0.5), 0x3800);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7BFF); // F16_MAX
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7C00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xFC00);
    }

    #[test]
    fn nan_maps_to_nan() {
        let bits = f32_to_f16_bits(f32::NAN);
        assert_eq!(bits & 0x7C00, 0x7C00);
        assert_ne!(bits & 0x03FF, 0);
        assert!(f16_bits_to_f32(bits).is_nan());
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(f32_to_f16_bits(65520.0), 0x7C00); // rounds up past F16_MAX
        assert_eq!(f32_to_f16_bits(1e9), 0x7C00);
        assert_eq!(f32_to_f16_bits(-1e9), 0xFC00);
    }

    #[test]
    fn underflow_to_zero_and_subnormals() {
        // Smallest positive subnormal is 2^-24.
        let tiny = 2.0_f32.powi(-24);
        assert_eq!(f32_to_f16_bits(tiny), 0x0001);
        assert_eq!(f16_bits_to_f32(0x0001), tiny);
        // Half of that rounds to zero (ties-to-even: 0.5 ulp to 0x0000).
        assert_eq!(f32_to_f16_bits(tiny / 2.0), 0x0000);
        // 0.75 of the smallest subnormal rounds up to it.
        assert_eq!(f32_to_f16_bits(tiny * 0.75), 0x0001);
        // Values below the rounding threshold vanish.
        assert_eq!(f32_to_f16_bits(1e-30), 0x0000);
        assert_eq!(f32_to_f16_bits(-1e-30), 0x8000);
    }

    #[test]
    fn round_to_nearest_even_on_ties() {
        // 1 + 2^-11 is exactly between 1.0 (0x3C00) and 1+2^-10 (0x3C01);
        // ties-to-even keeps the even mantissa 0x3C00.
        let tie = 1.0 + 2.0_f32.powi(-11);
        assert_eq!(f32_to_f16_bits(tie), 0x3C00);
        // 1 + 3*2^-11 is between 0x3C01 and 0x3C02; even is 0x3C02.
        let tie2 = 1.0 + 3.0 * 2.0_f32.powi(-11);
        assert_eq!(f32_to_f16_bits(tie2), 0x3C02);
        // Slightly above a tie rounds up.
        let above = 1.0 + 2.0_f32.powi(-11) + 2.0_f32.powi(-20);
        assert_eq!(f32_to_f16_bits(above), 0x3C01);
    }

    #[test]
    fn exhaustive_round_trip_all_16bit_patterns() {
        // Every binary16 value is exact in f32, so bits -> f32 -> bits must
        // be the identity for every non-NaN pattern (NaNs keep their class).
        for bits in 0..=u16::MAX {
            let x = f16_bits_to_f32(bits);
            if x.is_nan() {
                let back = f32_to_f16_bits(x);
                assert_eq!(back & 0x7C00, 0x7C00);
                assert_ne!(back & 0x03FF, 0);
            } else {
                assert_eq!(f32_to_f16_bits(x), bits, "pattern {bits:#06x}");
            }
        }
    }

    #[test]
    fn rounding_is_monotonic_on_a_grid() {
        let mut prev = f32::NEG_INFINITY;
        let mut x = -70000.0f32;
        while x <= 70000.0 {
            let r = round_f32_to_f16(x);
            assert!(r >= prev, "non-monotonic at {x}");
            prev = r;
            x += 173.137; // irregular stride to avoid hitting only exacts
        }
    }

    #[test]
    fn mul_and_add_stay_representable() {
        let a = round_f32_to_f16(std::f32::consts::PI);
        let b = round_f32_to_f16(-std::f32::consts::E);
        for v in [f16_mul(a, b), f16_add(a, b)] {
            assert_eq!(round_f32_to_f16(v), v, "result {v} not a half value");
        }
    }

    #[test]
    fn subnormal_decode_matches_scalbn() {
        // Decode every subnormal and compare against mant * 2^-24.
        for mant in 1u16..0x0400 {
            let x = f16_bits_to_f32(mant);
            let expect = mant as f32 * 2.0_f32.powi(-24);
            assert_eq!(x, expect, "subnormal {mant:#x}");
        }
    }

    #[test]
    fn min_positive_constant_is_correct() {
        assert_eq!(f16_bits_to_f32(0x0400), F16_MIN_POSITIVE);
        assert_eq!(f16_bits_to_f32(0x7BFF), F16_MAX);
    }
}

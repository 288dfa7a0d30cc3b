//! `Quantizer::quantize` and `encode` against the codec round trips they
//! shortcut.
//!
//! The quantizer takes shortcuts — an f32-domain round-to-nearest-even for
//! binary16 normals inside `round_f32_to_f16`, a clamp/truncate/fraction
//! rounding for INT8 — so these tests walk every edge those shortcuts
//! have: each binary16 binade boundary and rounding tie with its f32
//! neighbours, subnormals, the overflow threshold, infinities and NaNs,
//! and every INT8 half-way point. The reference is the scalar quantizer
//! the shortcuts replaced: the full binary16/bfloat16 codec round trip and
//! INT8's `round().clamp()`.

use wm_numerics::{
    bf16_bits_to_f32, f16_bits_to_f32, f32_to_bf16_bits, f32_to_f16_bits, DType, Quantizer,
};

/// The quantizer before its shortcuts: one codec round trip per value,
/// INT8 through the `round` library call.
fn reference_quantize(dtype: DType, v: f32) -> f32 {
    match dtype {
        DType::Fp32 => v,
        DType::Fp16 | DType::Fp16Tensor => f16_bits_to_f32(f32_to_f16_bits(v)),
        DType::Bf16 => bf16_bits_to_f32(f32_to_bf16_bits(v)),
        DType::Int8 => {
            let r = v.round().clamp(-128.0, 127.0);
            if r.is_nan() {
                0.0
            } else {
                r
            }
        }
    }
}

/// Assert `quantize` and `encode` equal the reference, bit for bit.
fn assert_matches_reference(dtype: DType, values: &[f32]) {
    let q = Quantizer::new(dtype);
    for &v in values {
        let want = reference_quantize(dtype, v);
        let got = q.quantize(v);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{dtype}: reference({v:e} = {:#010x}) is {want:e}, quantize gave {got:e}",
            v.to_bits()
        );
        if dtype == DType::Int8 {
            assert_eq!(
                q.encode(v),
                u64::from(want as i32 as i8 as u8),
                "encode({v:e})"
            );
        }
    }
}

/// `bits` and its f32 neighbours up to `reach` ulps away, both signs.
fn around(bits: u32, reach: u32, out: &mut Vec<f32>) {
    for d in 0..=reach {
        for b in [bits.wrapping_add(d), bits.wrapping_sub(d)] {
            out.push(f32::from_bits(b));
            out.push(f32::from_bits(b ^ 0x8000_0000));
        }
    }
}

/// Every f32 bit pattern at a prime stride, plus a pseudo-random sample.
fn sweep() -> Vec<f32> {
    let mut out: Vec<f32> = (0..=u32::MAX / 65_521)
        .map(|i| f32::from_bits(i * 65_521))
        .collect();
    let mut x = 0x9E37_79B9u32;
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        out.push(f32::from_bits(x));
    }
    out
}

#[test]
fn fp16_binade_edges_and_ties_round_like_the_codec() {
    let mut values = Vec::new();
    for h in 0..=0x7FFFu16 {
        // Each binary16 value (all binade edges among them) and the tie
        // half-way to the next one, with their f32 neighbours.
        let x = f16_bits_to_f32(h).to_bits();
        let next = f16_bits_to_f32(h + 1).to_bits();
        around(x, 2, &mut values);
        if h < 0x7C00 {
            around(x + (next - x) / 2, 2, &mut values);
        }
    }
    for v in [
        65504.0f32,
        65519.996,
        65520.0,
        65536.0,
        32768.0,
        f32::MAX,
        f32::MIN_POSITIVE,
        6.103_515_6e-5, // smallest binary16 normal
        5.960_464_5e-8, // smallest binary16 subnormal
        2.980_232_2e-8, // half of it: ties to zero
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7F80_0001), // signalling NaN
        f32::from_bits(0xFFC0_1234),
        0.0,
        -0.0,
    ] {
        around(v.to_bits(), 2, &mut values);
    }
    // Every f32 exponent, with mantissas at the rounding boundaries.
    for e in 0..=255u32 {
        for m in [
            0, 1, 0xFFF, 0x1000, 0x1001, 0x2000, 0x3000, 0x7F_E000, 0x7F_F000, 0x7F_FFFF,
        ] {
            around((e << 23) | m, 1, &mut values);
        }
    }
    for dtype in [DType::Fp16, DType::Fp16Tensor] {
        assert_matches_reference(dtype, &values);
    }
}

#[test]
fn int8_half_way_points_signed_zero_and_specials_round_like_round() {
    let mut values = Vec::new();
    for k in 0..=200u32 {
        let k = k as f32;
        for v in [k, k + 0.5, k + 0.25, k + 0.75] {
            around(v.to_bits(), 2, &mut values);
        }
    }
    for v in [
        -0.0f32,
        0.0,
        -0.5,
        -0.499_999_97,
        -0.25,
        -1e-30,
        -f32::from_bits(1),
        0.499_999_97,
        127.5,
        -128.5,
        -129.0,
        128.0,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7F80_0001),
        f32::from_bits(0xFF80_0001),
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e9,
        -1e9,
        f32::MAX,
        f32::MIN,
        8_388_608.0,  // 2^23: from here on every f32 is an integer
        16_777_216.0, // 2^24
    ] {
        around(v.to_bits(), 2, &mut values);
    }
    let q = Quantizer::new(DType::Int8);
    assert_eq!(q.quantize(-0.25).to_bits(), (-0.0f32).to_bits());
    assert_eq!(q.quantize(-f32::NAN).to_bits(), 0.0f32.to_bits());
    assert_matches_reference(DType::Int8, &values);
}

#[test]
fn every_dtype_matches_across_a_sweep_of_all_bit_patterns() {
    let values = sweep();
    for dtype in DType::EXTENDED {
        assert_matches_reference(dtype, &values);
    }
}

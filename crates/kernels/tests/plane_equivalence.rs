//! Equivalence of the encoded operand plane with the per-value codec.
//!
//! [`EncodedMatrix::encode`] builds its words and significand weights with
//! one per-dtype pass each, and [`bus_pass`] pairs the plane with itself
//! shifted by the lane count. These tests hold each to the plain
//! per-element definition it replaces: `Quantizer::encode` per value, the
//! per-element significand weight, and a per-lane modulo walk.

use wm_kernels::memory::{bus_pass, BusPass, BUS_BITS};
use wm_kernels::EncodedMatrix;
use wm_matrix::Matrix;
use wm_numerics::{DType, Quantizer};

/// Reference significand weight of one encoded element: `HW` of
/// implicit-1 | mantissa for normal floats, the mantissa alone for
/// subnormals, the whole byte for INT8.
fn significand_weight(bits: u32, dtype: DType) -> u8 {
    match dtype {
        DType::Int8 => (bits & 0xFF).count_ones() as u8,
        DType::Fp16 | DType::Fp16Tensor => {
            let mant = bits & 0x03FF;
            let exp = (bits >> 10) & 0x1F;
            let implicit = if exp != 0 { 1u32 << 10 } else { 0 };
            (mant | implicit).count_ones() as u8
        }
        DType::Bf16 => {
            let mant = bits & 0x007F;
            let exp = (bits >> 7) & 0xFF;
            let implicit = if exp != 0 { 1u32 << 7 } else { 0 };
            (mant | implicit).count_ones() as u8
        }
        DType::Fp32 => {
            let mant = bits & 0x007F_FFFF;
            let exp = (bits >> 23) & 0xFF;
            let implicit = if exp != 0 { 1u32 << 23 } else { 0 };
            (mant | implicit).count_ones() as u8
        }
    }
}

/// Reference bus pass: element `i` rides lane `i % lanes`, and each lane
/// charges the Hamming distance to its previous word.
fn lane_modulo_bus_pass(words: &[u32], dtype: DType) -> BusPass {
    let lanes = (BUS_BITS / dtype.bits()).max(1) as usize;
    let mut prev = vec![None::<u32>; lanes];
    let (mut toggles, mut weight) = (0u64, 0u64);
    for (i, &w) in words.iter().enumerate() {
        if let Some(p) = prev[i % lanes] {
            toggles += u64::from((p ^ w).count_ones());
        }
        prev[i % lanes] = Some(w);
        weight += u64::from(w.count_ones());
    }
    BusPass {
        toggles,
        words: words.len() as u64,
        weight,
    }
}

/// Encode `values` as a row vector and check every word against
/// `Quantizer::encode` and every significand weight against the
/// reference.
fn assert_plane_matches_codec(values: &[f32], dtype: DType) {
    let q = Quantizer::new(dtype);
    let e = EncodedMatrix::encode(&Matrix::from_vec(1, values.len(), values.to_vec()), dtype);
    for (c, &v) in values.iter().enumerate() {
        let word = e.bits_at(0, c);
        assert_eq!(
            u64::from(word),
            q.encode(v),
            "{dtype}: word of {v:?} ({:#010x})",
            v.to_bits()
        );
        assert_eq!(
            e.sig_weight_at(0, c),
            u32::from(significand_weight(word, dtype)),
            "{dtype}: significand weight of {word:#x}"
        );
    }
}

#[test]
fn every_16_bit_pattern_encodes_like_the_quantizer() {
    for dtype in [DType::Fp16, DType::Fp16Tensor, DType::Bf16] {
        let q = Quantizer::new(dtype);
        let values: Vec<f32> = (0..=u16::MAX).map(|b| q.decode(u64::from(b))).collect();
        assert_plane_matches_codec(&values, dtype);
    }
}

#[test]
fn every_int8_value_and_out_of_range_inputs_encode_like_the_quantizer() {
    let mut values: Vec<f32> = (-128..=127).map(|v| v as f32).collect();
    values.extend([
        -128.5,
        -129.0,
        127.5,
        128.0,
        1e9,
        -1e9,
        0.5,
        -0.5,
        -0.0,
        2.5,
        -2.5,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7FA0_0001),
        f32::MIN_POSITIVE / 2.0,
        f32::MAX,
        f32::MIN,
    ]);
    // Every eighth from -140 to 140 (halves round away from zero), the
    // neighbours of each rounding boundary, and arbitrary bit patterns.
    values.extend((-1120..=1120).map(|i| i as f32 / 8.0));
    for half in (-130..130).map(|i| i as f32 + 0.5) {
        values.extend([half.next_down(), half.next_up()]);
    }
    values.extend((0..20_000u32).map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9))));
    assert_plane_matches_codec(&values, DType::Int8);
}

#[test]
fn fp32_and_narrowing_edge_values_encode_like_the_quantizer() {
    let values = [
        0.0f32,
        -0.0,
        1.0,
        -2.5,
        f32::MIN_POSITIVE,
        f32::MIN_POSITIVE / 3.0,
        -f32::from_bits(1),
        f32::MAX,
        f32::MIN,
        65504.0,
        65520.0,
        1e-8,
        -6e-8,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0xFFC0_1234),
        f32::from_bits(0x7F80_0001),
    ];
    for dtype in DType::EXTENDED {
        assert_plane_matches_codec(&values, dtype);
    }
}

#[test]
fn bus_pass_matches_the_lane_modulo_walk() {
    // Lengths below one lane row, at it, and not a multiple of it, for
    // every dtype's lane count (16, 32 or 64 lanes). Matrices are never
    // empty, so one word is the shortest plane.
    for dtype in DType::EXTENDED {
        let lanes = (BUS_BITS / dtype.bits()) as usize;
        for len in [
            1,
            lanes - 1,
            lanes,
            lanes + 1,
            2 * lanes + 3,
            7 * lanes - 5,
            1000,
        ] {
            let values: Vec<f32> = (0..len)
                .map(|i| {
                    let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                    (x as f32 - 8_388_608.0) / 65_536.0
                })
                .collect();
            let e = EncodedMatrix::encode(&Matrix::from_vec(1, len, values), dtype);
            assert_eq!(
                bus_pass(&e),
                lane_modulo_bus_pass(e.words(), dtype),
                "{dtype}, {len} words"
            );
        }
    }
}

//! Per-dtype word passes: the encoding-level rewrite behind the
//! bit-similarity and bit-sparsity transforms.
//!
//! A pass maps every element `v` to `decode(f(encode(v)))` with the
//! dtype's codec — bit-identical to `Quantizer::decode(f(Quantizer::
//! encode(v)))` — as one loop per dtype instead of a dtype dispatch per
//! element. A run of equal values encodes once: the §IV.B transforms start
//! from a constant matrix, so their whole input encodes a single time.

use wm_matrix::Matrix;
use wm_numerics::{
    bf16_bits_to_f32, f16_bits_to_f32, f32_to_bf16_bits, f32_to_f16_bits, f32_to_i8, DType,
};

/// Rewrite each element's `dtype` encoding through `f` and decode the
/// result back, in row-major order (`f` may draw randomness).
pub(crate) fn rewrite_words(m: &mut Matrix, dtype: DType, f: impl FnMut(u64) -> u64) {
    let data = m.as_mut_slice();
    match dtype {
        DType::Fp32 => pass(
            data,
            |v| u64::from(v.to_bits()),
            |w| f32::from_bits(w as u32),
            f,
        ),
        DType::Fp16 | DType::Fp16Tensor => pass(
            data,
            |v| u64::from(f32_to_f16_bits(v)),
            |w| f16_bits_to_f32(w as u16),
            f,
        ),
        DType::Bf16 => pass(
            data,
            |v| u64::from(f32_to_bf16_bits(v)),
            |w| bf16_bits_to_f32(w as u16),
            f,
        ),
        DType::Int8 => pass(
            data,
            |v| u64::from(f32_to_i8(v) as u8),
            |w| f32::from(w as u8 as i8),
            f,
        ),
    }
}

#[inline(always)]
fn pass(
    data: &mut [f32],
    encode: impl Fn(f32) -> u64,
    decode: impl Fn(u64) -> f32,
    mut f: impl FnMut(u64) -> u64,
) {
    let Some(&first) = data.first() else {
        return;
    };
    let (mut key, mut word) = (first.to_bits(), encode(first));
    for v in data {
        if v.to_bits() != key {
            key = v.to_bits();
            word = encode(*v);
        }
        *v = decode(f(word));
    }
}

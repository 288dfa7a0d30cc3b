//! Pre-encoded matrices: the one operand plane every walk reads.
//!
//! Encoding a value (e.g. f32 → binary16 bits) costs more than anything a
//! walk does with the word, so a member-seed unit encodes each operand
//! exactly once and shares the [`EncodedMatrix`] plane between the
//! feature fold (`wm-predict`'s `FeatureAccumulator::add_encoded`), the
//! bus pass ([`crate::memory::bus_pass`]) and the sampled MAC loop. Per
//! element the plane holds:
//!
//! * the raw dtype encoding (the word the datapath latches), and
//! * the *significand weight*: `HW` of the multiplier's significand input
//!   (implicit-1 | mantissa for normal floats, the mantissa alone for
//!   subnormals, the full two's-complement word for INT8). This is the
//!   per-operand factor of the partial-product activity model.

use wm_matrix::Matrix;
use wm_numerics::{f32_to_bf16_bits, f32_to_f16_bits, f32_to_i8, DType};

/// A matrix's raw encodings plus per-element significand weights.
#[derive(Debug, Clone)]
pub struct EncodedMatrix {
    rows: usize,
    cols: usize,
    dtype: DType,
    bits: Vec<u32>,
    sig_weight: Vec<u8>,
}

/// Significand Hamming weight of a float word with `mant_bits` stored
/// mantissa bits and an `exp_mask` exponent field above them: the
/// implicit leading 1 joins the mantissa unless the exponent is zero.
#[inline(always)]
fn float_sig_weight(bits: u32, mant_bits: u32, exp_mask: u32) -> u8 {
    let mant = bits & ((1 << mant_bits) - 1);
    let implicit = u32::from((bits >> mant_bits) & exp_mask != 0) << mant_bits;
    (mant | implicit).count_ones() as u8
}

impl EncodedMatrix {
    /// Encode every element of `m` for `dtype`.
    ///
    /// The matrix is expected to already hold dtype-representable values
    /// (pattern generators quantize); encoding is nevertheless a full
    /// quantizing encode, so unquantized inputs round here. Each word is
    /// exactly `Quantizer::encode` of its value.
    // audit:allow(hot-path-alloc): the encoded plane is the product, one per operand
    pub fn encode(m: &Matrix, dtype: DType) -> Self {
        let src = m.as_slice();
        let bits: Vec<u32> = match dtype {
            DType::Fp32 => src.iter().map(|v| v.to_bits()).collect(),
            DType::Fp16 | DType::Fp16Tensor => {
                src.iter().map(|&v| u32::from(f32_to_f16_bits(v))).collect()
            }
            DType::Bf16 => src
                .iter()
                .map(|&v| u32::from(f32_to_bf16_bits(v)))
                .collect(),
            DType::Int8 => src.iter().map(|&v| u32::from(f32_to_i8(v) as u8)).collect(),
        };
        let sig_weight: Vec<u8> = match dtype {
            DType::Int8 => bits.iter().map(|b| b.count_ones() as u8).collect(),
            DType::Fp16 | DType::Fp16Tensor => bits
                .iter()
                .map(|&b| float_sig_weight(b, 10, 0x1F))
                .collect(),
            DType::Bf16 => bits.iter().map(|&b| float_sig_weight(b, 7, 0xFF)).collect(),
            DType::Fp32 => bits
                .iter()
                .map(|&b| float_sig_weight(b, 23, 0xFF))
                .collect(),
        };
        Self {
            rows: m.rows(),
            cols: m.cols(),
            dtype,
            bits,
            sig_weight,
        }
    }

    /// Rows of the encoded matrix.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the encoded matrix.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The encoded dtype.
    #[inline]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Raw encoding at `(row, col)`.
    #[inline(always)]
    pub fn bits_at(&self, row: usize, col: usize) -> u32 {
        self.bits[row * self.cols + col]
    }

    /// Significand weight at `(row, col)`.
    #[inline(always)]
    pub fn sig_weight_at(&self, row: usize, col: usize) -> u32 {
        u32::from(self.sig_weight[row * self.cols + col])
    }

    /// The whole encoding plane, row-major (memory-pass input).
    #[inline]
    pub fn words(&self) -> &[u32] {
        &self.bits
    }

    /// Mean Hamming weight of the raw encodings (Fig. 8 statistic).
    pub fn mean_hamming_weight(&self) -> f64 {
        let total: u64 = self.bits.iter().map(|b| u64::from(b.count_ones())).sum();
        total as f64 / self.bits.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_numerics::Quantizer;

    /// The significand weight the plane stores for the element whose
    /// encoding is `bits` (which must round-trip through decode/encode).
    fn weight_of(bits: u32, dtype: DType) -> u32 {
        let value = Quantizer::new(dtype).decode(u64::from(bits));
        let e = EncodedMatrix::encode(&Matrix::from_vec(1, 1, vec![value]), dtype);
        assert_eq!(
            e.bits_at(0, 0),
            bits,
            "{dtype} word {bits:#x} must round-trip"
        );
        e.sig_weight_at(0, 0)
    }

    #[test]
    fn encodings_match_quantizer() {
        let m = Matrix::from_vec(2, 2, vec![1.0, -2.5, 0.0, 210.0]);
        for dtype in DType::ALL {
            let q = Quantizer::new(dtype);
            let e = EncodedMatrix::encode(&m, dtype);
            for r in 0..2 {
                for c in 0..2 {
                    assert_eq!(
                        u64::from(e.bits_at(r, c)),
                        q.encode(m.get(r, c)),
                        "{dtype} at ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn significand_weight_fp16_normals() {
        // 1.0 in binary16 = 0x3C00: mantissa 0, implicit 1 -> weight 1.
        assert_eq!(weight_of(0x3C00, DType::Fp16), 1);
        // 1.5 = 0x3E00: mantissa 0x200, implicit 1 -> weight 2.
        assert_eq!(weight_of(0x3E00, DType::Fp16), 2);
        // Max mantissa: 0x3FF + implicit -> 11.
        assert_eq!(weight_of(0x3FFF & 0x7FFF, DType::Fp16), 11);
    }

    #[test]
    fn significand_weight_fp16_subnormals_have_no_implicit_bit() {
        // Subnormal 0x0001: mantissa weight 1, no implicit.
        assert_eq!(weight_of(0x0001, DType::Fp16), 1);
        assert_eq!(weight_of(0x0000, DType::Fp16), 0);
    }

    #[test]
    fn significand_weight_int8_is_word_weight() {
        assert_eq!(weight_of(0xFF, DType::Int8), 8);
        assert_eq!(weight_of(0x00, DType::Int8), 0);
        assert_eq!(weight_of(0x81, DType::Int8), 2);
    }

    #[test]
    fn significand_weight_fp32() {
        // 1.0f32 = 0x3F800000: mantissa 0 + implicit -> 1.
        assert_eq!(weight_of(1.0f32.to_bits(), DType::Fp32), 1);
        // 0.0 -> 0.
        assert_eq!(weight_of(0, DType::Fp32), 0);
    }

    #[test]
    fn zero_elements_have_zero_bits_and_weight() {
        let m = Matrix::zeros(3, 3);
        for dtype in DType::ALL {
            let e = EncodedMatrix::encode(&m, dtype);
            assert!(e.words().iter().all(|&w| w == 0), "{dtype}");
            assert_eq!(e.mean_hamming_weight(), 0.0);
        }
    }

    #[test]
    fn mean_hamming_weight_spot_check() {
        let m = Matrix::from_vec(1, 2, vec![-1.0, -1.0]); // INT8: 0xFF, 0xFF
        let e = EncodedMatrix::encode(&m, DType::Int8);
        assert_eq!(e.mean_hamming_weight(), 8.0);
    }
}

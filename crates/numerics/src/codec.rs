//! Per-dtype quantization, bit encoding, and dtype-faithful arithmetic.
//!
//! The experiment pipeline keeps every matrix as logical `f32` values (the
//! paper generates FP32 values once and converts), and this module is the
//! single place where those values meet a concrete datatype:
//!
//! * [`Quantizer::quantize`] — round a logical value to the nearest value
//!   representable in the dtype (the paper's "numeric conversion ... round
//!   to nearest value").
//! * [`Quantizer::encode`] — the raw bit pattern the hardware would hold,
//!   which is what the toggle engine counts.
//! * [`Quantizer::product`] / [`Accumulator`] — the multiply-accumulate
//!   semantics of each pipeline (SIMT FMA vs. tensor core), so the
//!   simulated GEMM produces numerically faithful outputs *and* faithful
//!   accumulator bit streams.

use crate::bf16::{bf16_bits_to_f32, f32_to_bf16_bits, round_f32_to_bf16};
use crate::dtype::DType;
use crate::fp16::{f16_bits_to_f32, f32_to_f16_bits, round_f32_to_f16};

/// The INT8 quantizer's integer for `value`: round half away from zero,
/// saturate to `[-128, 127]`, NaN to 0, without a `round` library call.
/// Clamping first keeps the value in `i32` range and its fractional part
/// exact in `f32`; a NaN survives the clamp, truncates to 0 and fails both
/// comparisons.
///
/// [`Quantizer::quantize`], [`Quantizer::encode`] and the encoded operand
/// plane all round INT8 through this one function, so they cannot drift
/// apart.
#[inline(always)]
pub fn f32_to_i8(value: f32) -> i8 {
    let v = value.clamp(-129.0, 128.0);
    let t = v as i32;
    let frac = v - t as f32;
    let r = t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5);
    r.clamp(-128, 127) as i8
}

/// Which accumulator a pipeline uses during the K-reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumKind {
    /// 32-bit float accumulation (FP32 SIMT, FP16 tensor-op).
    F32,
    /// 16-bit float accumulation (FP16 SIMT).
    F16,
    /// 32-bit integer accumulation (INT8).
    I32,
}

/// Quantize/encode/arithmetic bundle for one datatype.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    dtype: DType,
}

impl Quantizer {
    /// Create the quantizer for `dtype`.
    pub const fn new(dtype: DType) -> Self {
        Self { dtype }
    }

    /// The datatype this quantizer serves.
    #[inline]
    pub const fn dtype(self) -> DType {
        self.dtype
    }

    /// The accumulator kind of this dtype's pipeline.
    #[inline]
    pub const fn accum_kind(self) -> AccumKind {
        match self.dtype {
            DType::Fp32 | DType::Fp16Tensor | DType::Bf16 => AccumKind::F32,
            DType::Fp16 => AccumKind::F16,
            DType::Int8 => AccumKind::I32,
        }
    }

    /// Round a logical `f32` to the nearest representable value.
    ///
    /// INT8 rounds half-away-from-zero (matching C++ `lrintf` semantics
    /// under default rounding for the paper's value ranges), saturates to
    /// `[-128, 127]` and sends NaN to +0.0, all through [`f32_to_i8`].
    #[inline]
    pub fn quantize(self, value: f32) -> f32 {
        match self.dtype {
            DType::Fp32 => value,
            DType::Fp16 | DType::Fp16Tensor => round_f32_to_f16(value),
            DType::Bf16 => round_f32_to_bf16(value),
            DType::Int8 if value.is_nan() => 0.0,
            // A non-zero result already has the input's sign; `copysign`
            // keeps `round`'s −0.0 for inputs in (−0.5, −0].
            DType::Int8 => f32::from(f32_to_i8(value)).copysign(value),
        }
    }

    /// The raw bit pattern (within [`DType::bits`] low bits) of the
    /// quantized value — the word the datapath latches.
    #[inline]
    pub fn encode(self, value: f32) -> u64 {
        match self.dtype {
            DType::Fp32 => u64::from(value.to_bits()),
            DType::Fp16 | DType::Fp16Tensor => u64::from(f32_to_f16_bits(value)),
            DType::Bf16 => u64::from(f32_to_bf16_bits(value)),
            DType::Int8 => u64::from(f32_to_i8(value) as u8),
        }
    }

    /// Decode a raw bit pattern back to the logical `f32` value.
    #[inline]
    pub fn decode(self, bits: u64) -> f32 {
        match self.dtype {
            DType::Fp32 => f32::from_bits(bits as u32),
            DType::Fp16 | DType::Fp16Tensor => f16_bits_to_f32(bits as u16),
            DType::Bf16 => bf16_bits_to_f32(bits as u16),
            DType::Int8 => (bits as u8 as i8) as f32,
        }
    }

    /// The product of two (already quantized) operands as the pipeline
    /// computes it, before accumulation.
    ///
    /// * FP32 SIMT: binary32 multiply.
    /// * FP16 SIMT: binary16 multiply (the product of two halves is exact
    ///   in f32, then rounded to half).
    /// * FP16 tensor-op: the half product feeds the FP32 accumulator
    ///   un-rounded (tensor cores keep full product precision).
    /// * INT8: exact integer product.
    #[inline]
    pub fn product(self, a: f32, b: f32) -> f32 {
        match self.dtype {
            DType::Fp32 => a * b,
            DType::Fp16 => round_f32_to_f16(a * b),
            DType::Fp16Tensor => a * b, // exact: 11-bit x 11-bit fits in f32
            DType::Bf16 => a * b,       // exact: 8-bit x 8-bit significands
            DType::Int8 => a * b,       // exact: |a*b| <= 16384 < 2^24
        }
    }

    /// A fresh zeroed accumulator for this dtype's pipeline.
    #[inline]
    pub fn new_accumulator(self) -> Accumulator {
        match self.accum_kind() {
            AccumKind::F32 => Accumulator::F32(0.0),
            AccumKind::F16 => Accumulator::F16(0.0),
            AccumKind::I32 => Accumulator::I32(0),
        }
    }
}

/// A running K-reduction accumulator with dtype-faithful rounding, plus the
/// raw bit image the toggle engine charges for accumulator register writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Accumulator {
    /// binary32 accumulator (FP32 SIMT, FP16 tensor-op).
    F32(f32),
    /// binary16 accumulator stored as its exact f32 image (FP16 SIMT).
    F16(f32),
    /// 32-bit integer accumulator (INT8); wraps on overflow like hardware.
    I32(i32),
}

impl Accumulator {
    /// Add a pipeline product (from [`Quantizer::product`]) into the
    /// accumulator, applying the pipeline's rounding.
    #[inline]
    pub fn add_product(&mut self, product: f32) {
        match self {
            Accumulator::F32(acc) => *acc += product,
            Accumulator::F16(acc) => *acc = round_f32_to_f16(*acc + product),
            Accumulator::I32(acc) => *acc = acc.wrapping_add(product as i32),
        }
    }

    /// The logical value of the accumulator.
    #[inline]
    pub fn value(&self) -> f32 {
        match self {
            Accumulator::F32(acc) | Accumulator::F16(acc) => *acc,
            Accumulator::I32(acc) => *acc as f32,
        }
    }

    /// The raw register image, for toggle accounting. Widths differ by
    /// pipeline (32/16/32 bits) and the power model normalizes accordingly.
    #[inline]
    pub fn bits(&self) -> u64 {
        match self {
            Accumulator::F32(acc) => u64::from(acc.to_bits()),
            Accumulator::F16(acc) => u64::from(f32_to_f16_bits(*acc)),
            Accumulator::I32(acc) => u64::from(*acc as u32),
        }
    }

    /// Width in bits of the register image returned by [`Self::bits`].
    #[inline]
    pub fn bit_width(&self) -> u32 {
        match self {
            Accumulator::F32(_) | Accumulator::I32(_) => 32,
            Accumulator::F16(_) => 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_is_identity() {
        let q = Quantizer::new(DType::Fp32);
        for v in [0.0f32, -1.5, std::f32::consts::PI, 1e20, -1e-20] {
            assert_eq!(q.quantize(v), v);
            assert_eq!(q.decode(q.encode(v)), v);
        }
    }

    #[test]
    fn fp16_quantize_matches_codec() {
        let q = Quantizer::new(DType::Fp16);
        for v in [0.0f32, 1.0, -2.5, 1234.567, 65504.0, 1e-7] {
            assert_eq!(q.quantize(v), round_f32_to_f16(v));
            assert_eq!(q.decode(q.encode(v)), q.quantize(v));
            assert!(q.encode(v) <= u64::from(u16::MAX));
        }
    }

    #[test]
    fn fp16_tensor_shares_encoding_with_fp16() {
        let a = Quantizer::new(DType::Fp16);
        let b = Quantizer::new(DType::Fp16Tensor);
        for v in [0.37f32, -210.0, 5.5e4] {
            assert_eq!(a.encode(v), b.encode(v));
        }
    }

    #[test]
    fn int8_rounds_and_saturates() {
        let q = Quantizer::new(DType::Int8);
        assert_eq!(q.quantize(3.4), 3.0);
        assert_eq!(q.quantize(3.5), 4.0);
        assert_eq!(q.quantize(-3.5), -4.0);
        assert_eq!(q.quantize(200.0), 127.0);
        assert_eq!(q.quantize(-200.0), -128.0);
        assert_eq!(q.quantize(f32::NAN), 0.0);
    }

    #[test]
    fn int8_twos_complement_encoding() {
        let q = Quantizer::new(DType::Int8);
        assert_eq!(q.encode(0.0), 0x00);
        assert_eq!(q.encode(1.0), 0x01);
        assert_eq!(q.encode(-1.0), 0xFF);
        assert_eq!(q.encode(-128.0), 0x80);
        assert_eq!(q.encode(127.0), 0x7F);
        for v in [-128.0f32, -1.0, 0.0, 42.0, 127.0] {
            assert_eq!(q.decode(q.encode(v)), v);
        }
    }

    #[test]
    fn product_semantics_per_pipeline() {
        // FP16 SIMT rounds the product; tensor-op keeps it exact.
        let a = round_f32_to_f16(1.0009766); // 1 + 2^-10, exact half
        let b = round_f32_to_f16(1.0009766);
        let simt = Quantizer::new(DType::Fp16).product(a, b);
        let tensor = Quantizer::new(DType::Fp16Tensor).product(a, b);
        assert_eq!(tensor, a * b);
        assert_eq!(simt, round_f32_to_f16(a * b));
        assert_ne!(simt, tensor, "rounding must be observable here");
    }

    #[test]
    fn accumulator_kinds() {
        assert_eq!(Quantizer::new(DType::Fp32).accum_kind(), AccumKind::F32);
        assert_eq!(Quantizer::new(DType::Fp16).accum_kind(), AccumKind::F16);
        assert_eq!(
            Quantizer::new(DType::Fp16Tensor).accum_kind(),
            AccumKind::F32
        );
        assert_eq!(Quantizer::new(DType::Int8).accum_kind(), AccumKind::I32);
    }

    #[test]
    fn f16_accumulator_rounds_every_step() {
        let mut acc = Quantizer::new(DType::Fp16).new_accumulator();
        // 2048 + 1 in binary16: 1 is below half the ulp of 2048 (ulp = 2),
        // so the addition is absorbed.
        acc.add_product(2048.0);
        acc.add_product(0.5);
        assert_eq!(acc.value(), 2048.0);
        assert_eq!(acc.bit_width(), 16);
    }

    #[test]
    fn f32_accumulator_does_not_absorb() {
        let mut acc = Quantizer::new(DType::Fp16Tensor).new_accumulator();
        acc.add_product(2048.0);
        acc.add_product(0.5);
        assert_eq!(acc.value(), 2048.5);
        assert_eq!(acc.bit_width(), 32);
    }

    #[test]
    fn i32_accumulator_exact_and_wrapping() {
        let mut acc = Quantizer::new(DType::Int8).new_accumulator();
        acc.add_product(16384.0); // 128*128
        acc.add_product(-1.0);
        assert_eq!(acc.value(), 16383.0);
        assert_eq!(acc.bits(), 16383);
        // Wrapping instead of panicking on overflow.
        let mut acc = Accumulator::I32(i32::MAX);
        acc.add_product(1.0);
        assert_eq!(acc, Accumulator::I32(i32::MIN));
    }

    #[test]
    fn accumulator_bits_track_value() {
        let mut acc = Quantizer::new(DType::Fp32).new_accumulator();
        assert_eq!(acc.bits(), 0);
        acc.add_product(1.0);
        assert_eq!(acc.bits(), u64::from(1.0f32.to_bits()));
    }

    #[test]
    fn zero_encodes_to_zero_bits_everywhere() {
        // The zero-gating optimisation in the kernel relies on this.
        for dt in DType::ALL {
            assert_eq!(Quantizer::new(dt).encode(0.0), 0, "{dt}");
        }
    }
}

//! # wm-numerics — datatypes, codecs, and random value generation
//!
//! The paper sweeps four datatype setups — FP32, FP16, FP16 with tensor
//! cores (FP16-T), and INT8 — and stresses that *"all of the floating point
//! experiments use the same generated FP32 values, with numeric conversion
//! to their respective datatypes (round to nearest value)"*. This crate
//! provides exactly that machinery:
//!
//! * [`dtype`] — the [`DType`] enumeration and its physical parameters
//!   (width, mantissa/exponent split, accumulator type, tensor-core use).
//! * [`fp16`] — a full IEEE 754 binary16 codec (round-to-nearest-even,
//!   subnormals, infinities, NaNs) implemented from scratch; Rust has no
//!   stable `f16`, and the bit-exact encoding is what the toggle engine
//!   consumes.
//! * [`codec`] — the per-dtype [`codec::Quantizer`]: logical `f32` value →
//!   representable value in the dtype + raw bit encoding, plus the
//!   arithmetic used by the simulated kernel (dtype-faithful multiply /
//!   accumulate).
//! * [`gaussian`] — deterministic Gaussian sampling (polar Box–Muller on
//!   the workspace PRNG) with the paper's distribution parameters.
//!
//! All conversions are deterministic and allocation-free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bf16;
pub mod codec;
pub mod dtype;
pub mod fp16;
pub mod gaussian;

pub use bf16::{bf16_bits_to_f32, f32_to_bf16_bits};
pub use codec::{f32_to_i8, AccumKind, Quantizer};
pub use dtype::DType;
pub use fp16::{f16_bits_to_f32, f32_to_f16_bits};
pub use gaussian::Gaussian;

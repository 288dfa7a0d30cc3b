//! # wm-patterns — every input pattern from the paper's §IV
//!
//! The paper's experiments vary *only* the input data of a fixed-shape
//! GEMM. This crate generates those inputs:
//!
//! | Paper section | Generator |
//! |---|---|
//! | §IV.A value distribution | [`PatternKind::Gaussian`] (σ and μ sweeps), [`PatternKind::ValueSet`] |
//! | §IV.B bit similarity | [`PatternKind::ConstantRandom`] + [`PatternKind::BitFlips`], [`PatternKind::RandomLsbs`], [`PatternKind::RandomMsbs`] |
//! | §IV.C placement | [`PatternKind::SortedRows`], [`PatternKind::SortedCols`], [`PatternKind::SortedWithinRows`] (alignment = the GEMM-level B-transposition switch) |
//! | §IV.D sparsity | [`PatternKind::Sparse`], [`PatternKind::SortedThenSparse`], [`PatternKind::ZeroLsbs`], [`PatternKind::ZeroMsbs`] |
//!
//! Every generator:
//!
//! 1. draws logical FP32 values from a seeded Gaussian (the paper generates
//!    FP32 once and converts),
//! 2. applies its structural transform,
//! 3. **quantizes to the target dtype** — the matrix a kernel consumes holds
//!    exactly the values the hardware would see, so the toggle engine counts
//!    bits of the true encodings.
//!
//! Bit-level transforms (flips, LSB/MSB randomization and zeroing) operate
//! on the dtype's raw encodings via `wm-bits` surgery and decode back.
//!
//! ## Exactness contract
//!
//! [`PatternSpec::generate`] is a pure function of its spec, dtype, shape
//! and RNG state, fixed down to the bit: for every pattern kind and
//! parameter it returns the same matrix (`to_bits()` equal, NaN payloads
//! included) and leaves the [`wm_bits::Xoshiro256pp`] in the same end
//! state as the per-element reference — one polar `sample_f32` and one
//! scalar `Quantizer::quantize` per element, a per-element `BitSurgeon`
//! rewrite, `choose_indices`, and an index-select partial sort. Cached
//! answers, learned models and the paper-figure tests all depend on those
//! bits. The whole-matrix passes that do the work (a batched Gaussian
//! fill and quantize pass, per-dtype word passes, a plan-once Bernoulli
//! mask, a radix-sorted placement prefix, a `u32` partial Fisher–Yates)
//! therefore draw the same randomness in the same order.
//! `tests/reference_equivalence.rs` holds the per-element reference and
//! checks both outputs and RNG end states against it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bit_similarity;
pub mod distribution;
pub mod placement;
pub mod sparsity;
pub mod spec;
mod words;

pub use spec::{PatternKind, PatternSpec};

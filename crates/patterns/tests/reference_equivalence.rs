//! Exactness oracle for the batched generators.
//!
//! `PatternSpec::generate` fills, quantizes, rewrites bits, sorts and
//! sparsifies in whole-matrix passes. This file keeps a verbatim copy of
//! the per-element generators those passes replaced — the polar
//! `sample_f32` + scalar `quantize` per element, `choose_indices`, the
//! index-select partial sort and the per-element `BitSurgeon` rewrite with
//! its branchy Bernoulli fold — and asserts that both produce the same
//! matrix bits and leave the RNG in the same state, for every pattern
//! kind, dtype, shape and parameter edge.

use wm_bits::Xoshiro256pp;
use wm_matrix::Matrix;
use wm_numerics::{
    bf16_bits_to_f32, f16_bits_to_f32, f32_to_bf16_bits, f32_to_f16_bits, DType, Quantizer,
};
use wm_patterns::{PatternKind, PatternSpec};

/// The per-element generators as they were before the batched passes.
mod reference {
    use super::*;

    pub struct Gaussian {
        mean: f64,
        std: f64,
        spare: Option<f64>,
    }

    impl Gaussian {
        pub fn new(mean: f64, std: f64) -> Self {
            Self {
                mean,
                std,
                spare: None,
            }
        }

        fn sample(&mut self, rng: &mut Xoshiro256pp) -> f64 {
            if let Some(z) = self.spare.take() {
                return self.mean + self.std * z;
            }
            loop {
                let u = 2.0 * rng.next_f64() - 1.0;
                let v = 2.0 * rng.next_f64() - 1.0;
                let s = u * u + v * v;
                if s > 0.0 && s < 1.0 {
                    let factor = (-2.0 * s.ln() / s).sqrt();
                    self.spare = Some(v * factor);
                    return self.mean + self.std * (u * factor);
                }
            }
        }

        pub fn sample_f32(&mut self, rng: &mut Xoshiro256pp) -> f32 {
            self.sample(rng) as f32
        }
    }

    /// The scalar quantizer: a full codec round trip per value, INT8
    /// through the `round` library call.
    pub fn quantize(dtype: DType, value: f32) -> f32 {
        match dtype {
            DType::Fp32 => value,
            DType::Fp16 | DType::Fp16Tensor => f16_bits_to_f32(f32_to_f16_bits(value)),
            DType::Bf16 => bf16_bits_to_f32(f32_to_bf16_bits(value)),
            DType::Int8 => {
                let r = value.round().clamp(-128.0, 127.0);
                if r.is_nan() {
                    0.0
                } else {
                    r
                }
            }
        }
    }

    fn lsb_mask(k: u32, width: u32) -> u64 {
        let k = k.min(width);
        if k == 0 {
            0
        } else if k >= 64 {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    }

    fn msb_mask(k: u32, width: u32) -> u64 {
        let k = k.min(width);
        lsb_mask(width, width) & !lsb_mask(width - k, width)
    }

    fn bernoulli_mask(p: f64, rng: &mut Xoshiro256pp) -> u64 {
        let p = p.clamp(0.0, 1.0);
        let frac = (p * 65536.0).round() as u32;
        if frac == 0 {
            return 0;
        }
        if frac >= 65536 {
            return u64::MAX;
        }
        let mut mask = 0u64;
        for i in 0..16 {
            let bit = (frac >> i) & 1;
            let r = rng.next_u64();
            mask = if bit == 1 { r | mask } else { r & mask };
        }
        mask
    }

    /// The scalar encoder, INT8 through the scalar quantizer.
    fn encode(dtype: DType, value: f32) -> u64 {
        match dtype {
            DType::Fp32 => u64::from(value.to_bits()),
            DType::Fp16 | DType::Fp16Tensor => u64::from(f32_to_f16_bits(value)),
            DType::Bf16 => u64::from(f32_to_bf16_bits(value)),
            DType::Int8 => u64::from(quantize(dtype, value) as i32 as i8 as u8),
        }
    }

    fn rewrite_bits(m: &mut Matrix, dtype: DType, mut f: impl FnMut(u64, u32) -> u64) {
        let q = Quantizer::new(dtype);
        let width = dtype.bits();
        m.map_in_place(|v| q.decode(f(encode(dtype, v), width)));
    }

    fn choose_indices(rng: &mut Xoshiro256pp, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot choose {k} indices from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + rng.next_bounded(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    fn sort_lowest_fraction(data: &mut [f32], fraction: f64) {
        let n = data.len();
        let k = (fraction.clamp(0.0, 1.0) * n as f64).round() as usize;
        if k == 0 || n == 0 {
            return;
        }
        if k >= n {
            data.sort_unstable_by(f32::total_cmp);
            return;
        }
        let mut idx: Vec<u32> = (0..n as u32).collect();
        idx.select_nth_unstable_by(k - 1, |&i, &j| {
            data[i as usize]
                .total_cmp(&data[j as usize])
                .then(i.cmp(&j))
        });
        let mut chosen = vec![false; n];
        for &i in &idx[..k] {
            chosen[i as usize] = true;
        }
        let mut low: Vec<f32> = Vec::with_capacity(k);
        let mut rest: Vec<f32> = Vec::with_capacity(n - k);
        for (i, &v) in data.iter().enumerate() {
            if chosen[i] {
                low.push(v);
            } else {
                rest.push(v);
            }
        }
        low.sort_unstable_by(f32::total_cmp);
        data[..k].copy_from_slice(&low);
        data[k..].copy_from_slice(&rest);
    }

    fn gaussian_matrix(
        rows: usize,
        cols: usize,
        mean: f64,
        std: f64,
        dtype: DType,
        rng: &mut Xoshiro256pp,
    ) -> Matrix {
        let mut g = Gaussian::new(mean, std);
        Matrix::from_fn(rows, cols, |_, _| quantize(dtype, g.sample_f32(rng)))
    }

    fn constant_random_matrix(
        rows: usize,
        cols: usize,
        mean: f64,
        std: f64,
        dtype: DType,
        rng: &mut Xoshiro256pp,
    ) -> Matrix {
        let v = quantize(dtype, Gaussian::new(mean, std).sample_f32(rng));
        Matrix::filled(rows, cols, v)
    }

    fn apply_sparsity(m: &mut Matrix, sparsity: f64, rng: &mut Xoshiro256pp) {
        let n = m.len();
        let k = (sparsity * n as f64).round() as usize;
        let data = m.as_mut_slice();
        for idx in choose_indices(rng, n, k) {
            data[idx] = 0.0;
        }
    }

    pub fn generate(
        spec: &PatternSpec,
        dtype: DType,
        rows: usize,
        cols: usize,
        rng: &mut Xoshiro256pp,
    ) -> Matrix {
        let mean = spec.mean;
        let std = spec.sigma_for(dtype);
        let gaussian = |rng: &mut Xoshiro256pp| gaussian_matrix(rows, cols, mean, std, dtype, rng);
        let constant =
            |rng: &mut Xoshiro256pp| constant_random_matrix(rows, cols, mean, std, dtype, rng);
        match spec.kind {
            PatternKind::Gaussian => gaussian(rng),
            PatternKind::ValueSet { set_size } => {
                let mut g = Gaussian::new(mean, std);
                let set: Vec<f32> = (0..set_size)
                    .map(|_| quantize(dtype, g.sample_f32(rng)))
                    .collect();
                Matrix::from_fn(rows, cols, |_, _| set[rng.next_bounded(set.len())])
            }
            PatternKind::ConstantRandom => constant(rng),
            PatternKind::BitFlips { probability } => {
                let mut m = constant(rng);
                rewrite_bits(&mut m, dtype, |x, w| {
                    x ^ (bernoulli_mask(probability, rng) & lsb_mask(w, w))
                });
                m
            }
            PatternKind::RandomLsbs { count } => {
                let mut m = constant(rng);
                rewrite_bits(&mut m, dtype, |x, w| {
                    let mask = lsb_mask(count, w);
                    (x & !mask) | (rng.next_u64() & mask)
                });
                m
            }
            PatternKind::RandomMsbs { count } => {
                let mut m = constant(rng);
                rewrite_bits(&mut m, dtype, |x, w| {
                    let mask = msb_mask(count, w);
                    (x & !mask) | (rng.next_u64() & mask)
                });
                m
            }
            PatternKind::SortedRows { fraction } => {
                let mut m = gaussian(rng);
                sort_lowest_fraction(m.as_mut_slice(), fraction);
                m
            }
            PatternKind::SortedCols { fraction } => {
                let mut m = gaussian(rng);
                let mut t = m.transposed();
                sort_lowest_fraction(t.as_mut_slice(), fraction);
                m = t.transposed();
                m
            }
            PatternKind::SortedWithinRows { fraction } => {
                let mut m = gaussian(rng);
                for r in 0..m.rows() {
                    sort_lowest_fraction(m.row_mut(r), fraction);
                }
                m
            }
            PatternKind::Sparse { sparsity } => {
                let mut m = gaussian(rng);
                apply_sparsity(&mut m, sparsity, rng);
                m
            }
            PatternKind::SortedThenSparse { sparsity } => {
                let mut m = gaussian(rng);
                sort_lowest_fraction(m.as_mut_slice(), 1.0);
                apply_sparsity(&mut m, sparsity, rng);
                m
            }
            PatternKind::ZeroLsbs { count } => {
                let mut m = gaussian(rng);
                rewrite_bits(&mut m, dtype, |x, w| x & !lsb_mask(count, w));
                m
            }
            PatternKind::ZeroMsbs { count } => {
                let mut m = gaussian(rng);
                rewrite_bits(&mut m, dtype, |x, w| x & !msb_mask(count, w));
                m
            }
            PatternKind::Zeros => Matrix::zeros(rows, cols),
        }
    }
}

/// Every kind, with each parameter at its edges and in between.
fn kinds() -> Vec<PatternKind> {
    let mut kinds = vec![
        PatternKind::Gaussian,
        PatternKind::ConstantRandom,
        PatternKind::Zeros,
    ];
    for set_size in [1, 3, 64] {
        kinds.push(PatternKind::ValueSet { set_size });
    }
    for probability in [0.0, 1e-6, 0.3, 0.5, 1.0] {
        kinds.push(PatternKind::BitFlips { probability });
    }
    for count in [0, 3, 16, 40] {
        kinds.push(PatternKind::RandomLsbs { count });
        kinds.push(PatternKind::RandomMsbs { count });
    }
    for count in [0, 1, 4, 10, 32] {
        kinds.push(PatternKind::ZeroLsbs { count });
        kinds.push(PatternKind::ZeroMsbs { count });
    }
    for fraction in [0.0, 0.3, 0.5, 1.0] {
        kinds.push(PatternKind::SortedRows { fraction });
        kinds.push(PatternKind::SortedCols { fraction });
        kinds.push(PatternKind::SortedWithinRows { fraction });
    }
    for sparsity in [0.0, 0.3, 1.0] {
        kinds.push(PatternKind::Sparse { sparsity });
        kinds.push(PatternKind::SortedThenSparse { sparsity });
    }
    kinds
}

/// The base distributions: the paper default, σ = 0, σ = 1e5 (overflows
/// FP16 to ±inf and saturates INT8), and a mean override.
fn specs(kind: PatternKind) -> [PatternSpec; 4] {
    let spec = PatternSpec::new(kind);
    [
        spec,
        spec.with_std(0.0).with_mean(3.3),
        spec.with_std(1e5),
        spec.with_mean(-1000.0).with_std(7.0),
    ]
}

fn assert_equivalent(spec: &PatternSpec, dtype: DType, rows: usize, cols: usize, seed: u64) {
    let mut fast_rng = Xoshiro256pp::seed_from_u64(seed);
    let mut ref_rng = fast_rng;
    let fast = spec.generate(dtype, rows, cols, &mut fast_rng);
    let want = reference::generate(spec, dtype, rows, cols, &mut ref_rng);
    assert_eq!((fast.rows(), fast.cols()), (want.rows(), want.cols()));
    for (i, (x, y)) in fast.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{} {dtype} {rows}x{cols} seed {seed}: element {i} is {x} not {y}",
            spec.label()
        );
    }
    assert_eq!(
        fast_rng,
        ref_rng,
        "{} {dtype} {rows}x{cols} seed {seed}: RNG end state differs",
        spec.label()
    );
}

#[test]
fn small_shapes_match_the_per_element_generators() {
    let shapes = [(1, 1), (1, 7), (7, 13), (33, 31)];
    for kind in kinds() {
        for spec in specs(kind) {
            for dtype in DType::EXTENDED {
                for (i, &(rows, cols)) in shapes.iter().enumerate() {
                    assert_equivalent(&spec, dtype, rows, cols, 17 + i as u64);
                }
            }
        }
    }
}

#[test]
fn full_size_matrices_match_the_per_element_generators() {
    for kind in kinds() {
        for dtype in DType::EXTENDED {
            assert_equivalent(&PatternSpec::new(kind), dtype, 128, 128, 99);
        }
    }
    // The overflowing distribution at full size, on the families whose
    // passes see infinities and saturated INT8 values.
    for kind in [
        PatternKind::Gaussian,
        PatternKind::BitFlips { probability: 0.5 },
        PatternKind::ZeroLsbs { count: 3 },
        PatternKind::SortedRows { fraction: 0.5 },
        PatternKind::Sparse { sparsity: 0.3 },
    ] {
        for dtype in DType::EXTENDED {
            assert_equivalent(&PatternSpec::new(kind).with_std(1e5), dtype, 128, 128, 7);
        }
    }
}

#[test]
fn consecutive_draws_from_one_stream_stay_in_step() {
    // Operands come from one stream one after another; a generator that
    // drew one value too many or too few would shift every later matrix.
    for dtype in DType::EXTENDED {
        let mut fast_rng = Xoshiro256pp::seed_from_u64(5);
        let mut ref_rng = fast_rng;
        for kind in kinds() {
            let spec = PatternSpec::new(kind);
            let fast = spec.generate(dtype, 5, 9, &mut fast_rng);
            let want = reference::generate(&spec, dtype, 5, 9, &mut ref_rng);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&want), "{} {dtype}", spec.label());
            assert_eq!(fast_rng, ref_rng, "{} {dtype}", spec.label());
        }
    }
}

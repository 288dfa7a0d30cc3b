//! Throughput of the `wm-predict` single-pass feature extraction — the
//! operation the fleet runs per distinct request *instead of* simulating
//! the kernel, so its cost bounds how cheap learned admission can be.
//! `extract_*` encodes and folds pre-generated operands at three sizes;
//! `features_for_request_512` adds operand generation. The fold over
//! already-encoded planes alone is `engine/encode_fold_512_fp16`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wm_bits::Xoshiro256pp;
use wm_gpu::GemmDims;
use wm_kernels::KernelClass;
use wm_numerics::DType;
use wm_patterns::{PatternKind, PatternSpec};
use wm_predict::{extract_features, features_for_request};

fn bench(c: &mut Criterion) {
    let dtype = DType::Fp16Tensor;
    let mut g = wm_bench::configure(c, "predict_features");
    for dim in [256usize, 512, 1024] {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let spec = PatternSpec::new(PatternKind::Gaussian);
        let a = spec.generate(dtype, dim, dim, &mut rng.fork(0));
        let b = spec.generate(dtype, dim, dim, &mut rng.fork(1));
        g.bench_function(format!("extract_{dim}"), |bch| {
            bch.iter(|| {
                black_box(extract_features(
                    dtype,
                    KernelClass::Gemm,
                    GemmDims::square(dim),
                    &a,
                    &b,
                ))
            })
        });
    }
    // End-to-end per-request cost (operand generation + extraction),
    // the quantity the seed-0 units in the scheduler's unit store amortise.
    let req = wm_core::RunRequest::new(
        dtype,
        512,
        PatternSpec::new(PatternKind::Sparse { sparsity: 0.5 }),
    );
    g.bench_function("features_for_request_512", |bch| {
        bch.iter(|| black_box(features_for_request(&req)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

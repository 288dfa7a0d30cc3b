//! Micro-benchmarks of the simulation hot paths: operand generation for
//! each input family of the serving benchmark's mix, the sampled activity
//! walk at several lattice densities, operand encoding, the feature fold
//! over encoded planes, the memory bus pass, the power-model evaluation,
//! and one whole member-seed unit as the fleet's unit store computes it.
//!
//! These are throughput benches (how fast the *simulator* runs), used to
//! pick default sampling densities; the estimator-accuracy trade-off is
//! tested functionally in `wm-kernels`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wm_bits::Xoshiro256pp;
use wm_core::{member_seed_operands, simulate_member_activity_encoded, RunRequest};
use wm_gpu::spec::a100_pcie;
use wm_kernels::{memory, simulate, EncodedMatrix, GemmConfig, GemmInputs, Sampling};
use wm_numerics::DType;
use wm_patterns::{PatternKind, PatternSpec};
use wm_power::evaluate;
use wm_predict::FeatureAccumulator;

fn bench(c: &mut Criterion) {
    let dtype = DType::Fp16Tensor;
    let dim = 512;
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let spec = PatternSpec::new(PatternKind::Gaussian);
    let a = spec.generate(dtype, dim, dim, &mut rng.fork(0));
    let b = spec.generate(dtype, dim, dim, &mut rng.fork(1));
    let inputs = GemmInputs {
        a: &a,
        b_stored: &b,
        c: None,
    };

    let mut g = wm_bench::configure(c, "engine");
    // One 128x128 FP16-T operand per family: the generator's share of a
    // cold request, family by family.
    for (name, kind) in [
        ("gaussian", PatternKind::Gaussian),
        ("value_set", PatternKind::ValueSet { set_size: 32 }),
        ("bit_flips", PatternKind::BitFlips { probability: 0.2 }),
        ("zero_lsbs", PatternKind::ZeroLsbs { count: 3 }),
        ("sorted_rows", PatternKind::SortedRows { fraction: 0.5 }),
        ("sparse", PatternKind::Sparse { sparsity: 0.5 }),
    ] {
        let family = PatternSpec::new(kind);
        let mut stream = Xoshiro256pp::seed_from_u64(2);
        g.bench_function(format!("generate_128_fp16t_{name}"), |bch| {
            bch.iter(|| black_box(family.generate(dtype, 128, 128, &mut stream)))
        });
    }
    for lattice in [8usize, 16, 32] {
        g.bench_function(format!("simulate_{dim}_lattice_{lattice}"), |bch| {
            let cfg = GemmConfig::square(dim, dtype).with_sampling(Sampling::Lattice {
                rows: lattice,
                cols: lattice,
            });
            bch.iter(|| black_box(simulate(&inputs, &cfg)))
        });
    }
    g.bench_function("encode_512_fp16", |bch| {
        bch.iter(|| black_box(EncodedMatrix::encode(&a, dtype)))
    });
    g.bench_function("encode_fold_512_fp16", |bch| {
        bch.iter(|| {
            let mut acc = FeatureAccumulator::new(dtype);
            acc.add_encoded(&EncodedMatrix::encode(&a, dtype));
            acc.add_encoded(&EncodedMatrix::encode(&b, dtype));
            black_box(acc)
        })
    });
    // One seed-0 unit: generate, encode each operand once, fold the
    // feature chunk and simulate from the same planes.
    let req =
        RunRequest::new(dtype, dim, spec).with_sampling(Sampling::Lattice { rows: 4, cols: 4 });
    g.bench_function("unit_512_fp16", |bch| {
        bch.iter(|| {
            let (ua, ub) = member_seed_operands(&req, req.dims(), 0, 0);
            let (ea, eb) = (
                EncodedMatrix::encode(&ua, dtype),
                EncodedMatrix::encode(&ub, dtype),
            );
            let mut acc = FeatureAccumulator::new(dtype);
            acc.add_encoded(&ea);
            acc.add_encoded(&eb);
            let act = simulate_member_activity_encoded(&req, req.dims(), &ua, &ub, &ea, &eb);
            black_box((acc, act))
        })
    });
    let encoded = EncodedMatrix::encode(&a, dtype);
    g.bench_function("bus_pass_512", |bch| {
        bch.iter(|| black_box(memory::bus_pass(&encoded)))
    });
    let cfg = GemmConfig::square(dim, dtype);
    let act = simulate(&inputs, &cfg).activity;
    let gpu = a100_pcie();
    g.bench_function("power_evaluate", |bch| {
        bch.iter(|| black_box(evaluate(&gpu, &act)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

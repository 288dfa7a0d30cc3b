//! Macro-benchmark harness for the serving stack: open-loop load
//! generation, a swept cache-hit ratio, and a `BENCH_serving.json`
//! artifact read back out of the scheduler's own metrics registry.
//!
//! The paper's serving story is end-to-end: requests arrive, are priced
//! from input features, placed under a power budget, executed (or
//! replayed from cache), and every fresh run trains the predictor. This
//! harness drives that whole loop the way a load generator drives a real
//! service — open-loop Poisson arrivals (submission times are drawn up
//! front and never wait on completions, so queueing shows up in the tail
//! instead of being absorbed by the generator) over a mixed stream of
//! square, ragged, and grouped GEMM plus GEMV decode requests — and then
//! *refuses to keep its own books*: every number in the emitted artifact
//! (throughput, latency quantiles, joules, hit rate, budget witness)
//! comes from the `wm-obs` registry and scheduler counters, so the
//! benchmark doubles as an integration test of the observability path.
//!
//! Run via the thin CLI in `examples/serving_bench.rs`:
//!
//! ```text
//! cargo run --release --example serving_bench -- --smoke --out BENCH_serving.json
//! cargo run --release --example serving_bench -- --check BENCH_serving.json
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use wm_fleet::json::{obj, Json};
use wm_fleet::{Fleet, FleetJob, JobHandle, Scheduler};
use wm_gpu::GemmDims;
use wm_kernels::{KernelClass, Sampling};
use wm_numerics::DType;
use wm_obs::{LogHistogram, MetricValue, Registry, Tracer};
use wm_patterns::{PatternKind, PatternSpec};
use wm_serve::bench::{require_num, validate_open_loop, Rng};

/// Keys every `BENCH_serving.json` artifact must carry at top level.
/// [`validate`] enforces them; CI checks the emitted file against it.
pub const REQUIRED_KEYS: &[&str] = &[
    "bench",
    "smoke",
    "requests",
    "wall_s",
    "throughput_rps",
    "p50_us",
    "p95_us",
    "p99_us",
    "joules",
    "cache_hit_rate",
    "member_cache_hits",
    "member_residue_jobs",
    "peak_committed_w",
    "sweep",
];

/// Per-sweep-point keys [`validate`] enforces inside each `sweep` entry.
const POINT_KEYS: &[&str] = &[
    "target_hit_ratio",
    "requests",
    "wall_s",
    "throughput_rps",
    "p50_us",
    "p95_us",
    "p99_us",
    "joules",
    "cache_hit_rate",
    "member_cache_hits",
    "member_residue_jobs",
    "peak_committed_w",
    "trace_spans",
];

/// Benchmark shape: how much load, how fast, against what fleet.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Requests issued per sweep point (each point gets a fresh
    /// scheduler, so points are independent measurements).
    pub requests_per_point: usize,
    /// Open-loop arrival rate in requests per second.
    pub arrival_rate_rps: f64,
    /// Scheduler worker threads per point.
    pub workers: usize,
    /// Target cache-hit ratios to sweep (each in `[0, 1)`).
    pub hit_ratios: Vec<f64>,
    /// Seed for the deterministic request mix and arrival draws.
    pub seed: u64,
    /// Marks the artifact as a smoke run (small numbers, CI-sized).
    pub smoke: bool,
}

impl BenchConfig {
    /// CI-sized run: two sweep points, seconds of wall clock.
    pub fn smoke() -> Self {
        Self {
            requests_per_point: 40,
            arrival_rate_rps: 400.0,
            workers: 2,
            hit_ratios: vec![0.0, 0.5],
            seed: 0x5eed_beef,
            smoke: true,
        }
    }

    /// The full sweep reported in BENCH artifacts.
    pub fn full() -> Self {
        Self {
            requests_per_point: 160,
            arrival_rate_rps: 250.0,
            workers: 4,
            hit_ratios: vec![0.0, 0.25, 0.5, 0.75, 0.9],
            seed: 0x5eed_beef,
            smoke: false,
        }
    }
}

/// One request from the benchmark mix: square GEMM, ragged GEMM,
/// grouped GEMM, and GEMV decode shapes over a rotating pattern set.
fn mixed_request(rng: &mut Rng, unique_seed: u64) -> wm_core::RunRequest {
    let dtype = rng.pick(&[DType::Fp32, DType::Fp16Tensor, DType::Int8]);
    let kind = rng.pick(&[
        PatternKind::Gaussian,
        PatternKind::Zeros,
        PatternKind::Sparse { sparsity: 0.9 },
        PatternKind::ConstantRandom,
    ]);
    let axis = |rng: &mut Rng| rng.pick(&[32usize, 48, 64, 96]);
    let base = wm_core::RunRequest::new(dtype, 64, PatternSpec::new(kind))
        .with_seeds(1)
        .with_base_seed(unique_seed)
        .with_sampling(Sampling::Lattice { rows: 4, cols: 4 });
    match rng.next_u64() % 4 {
        // Square GEMM (the legacy n = m = k shape).
        0 => base.with_shape(GemmDims {
            n: 64,
            m: 64,
            k: 64,
        }),
        // Ragged GEMM.
        1 => base.with_shape(GemmDims {
            n: axis(rng),
            m: axis(rng),
            k: axis(rng),
        }),
        // GEMV decode row: n×1×k.
        2 => base.with_kernel(KernelClass::Gemv).with_shape(GemmDims {
            n: axis(rng),
            m: 1,
            k: axis(rng),
        }),
        // Grouped GEMM, priced and cached as a unit.
        _ => {
            let members = (0..2 + (rng.next_u64() % 2) as usize)
                .map(|_| GemmDims {
                    n: axis(rng),
                    m: axis(rng),
                    k: axis(rng),
                })
                .collect();
            base.with_group(members)
        }
    }
}

/// The deliberate member-overlap phase of a sweep point: two plain
/// singles warm member shapes, a group overlapping them executes only
/// its residue, and a second group spelled entirely from warmed members
/// executes nothing. All four share one `base_seed` — the member memo
/// includes it, and the rest of the mix gives every unique request its
/// own seed precisely so *only* this phase exercises member reuse.
fn overlap_requests(point_idx: u64) -> Vec<wm_core::RunRequest> {
    // High in the per-point seed space, far above the unique counter.
    let shared_seed = (point_idx << 32) | 0x00FF_0000;
    let a = GemmDims::square(48);
    let b = GemmDims {
        n: 64,
        m: 32,
        k: 96,
    };
    let c = GemmDims::square(96);
    let base = || {
        wm_core::RunRequest::new(
            DType::Fp16Tensor,
            64,
            PatternSpec::new(PatternKind::Gaussian),
        )
        .with_seeds(1)
        .with_base_seed(shared_seed)
        .with_sampling(Sampling::Lattice { rows: 4, cols: 4 })
    };
    vec![
        base().with_shape(a),
        base().with_shape(b),
        base().with_group(vec![a, b, c]),
        base().with_group(vec![b, a]),
    ]
}

/// Latency quantiles of the merged per-kernel histograms, straight from
/// the registry the workers recorded into.
fn latency_sketch(sched: &Scheduler) -> LogHistogram {
    let mut merged = LogHistogram::new();
    for kernel in ["gemm", "gemv"] {
        merged.merge(
            &sched
                .registry()
                .histogram("fleet_job_latency_us", &[("kernel", kernel)])
                .snapshot(),
        );
    }
    merged
}

/// Sum of a per-device gauge family (`device_energy_j` etc.) out of the
/// registry snapshot.
fn gauge_family_sum(sched: &Scheduler, name: &str) -> f64 {
    sched
        .registry()
        .snapshot()
        .iter()
        .filter(|m| m.name == name)
        .map(|m| match &m.value {
            MetricValue::Gauge(v) => *v,
            _ => 0.0,
        })
        .sum()
}

struct PointOutcome {
    artifact: Json,
    latency: LogHistogram,
    requests: u64,
    wall_s: f64,
    joules: f64,
    hits: u64,
    lookups: u64,
    member_hits: u64,
    member_residues: u64,
    operand_bytes: u64,
    activity_sims: u64,
    feature_bytes: u64,
    peak_committed_w: f64,
    trace_jsonl: Vec<String>,
}

/// Run one sweep point against a fresh scheduler.
fn run_point(cfg: &BenchConfig, target_hit_ratio: f64, point_idx: u64) -> PointOutcome {
    let sched = Scheduler::with_observability(
        Fleet::from_catalog(),
        cfg.workers,
        Arc::new(Registry::new()),
        Arc::new(Tracer::new(wm_fleet::DEFAULT_TRACE_CAPACITY)),
    );
    let mut rng = Rng(cfg.seed ^ (point_idx.wrapping_mul(0x9E37_79B9)));

    // Request plan: a bounded pool of repeatable requests supplies the
    // hit fraction; everything else is unique. Repeats of an in-flight
    // twin dedup-join instead of hitting, so the measured ratio is
    // reported alongside the target rather than asserted equal. Points
    // large enough to afford it open with the member-overlap phase
    // (singles warming group members), carved out of — not added to —
    // the request budget.
    let mut plan: Vec<wm_core::RunRequest> = if cfg.requests_per_point >= 8 {
        overlap_requests(point_idx)
    } else {
        Vec::new()
    };
    let mut pool: Vec<wm_core::RunRequest> = Vec::new();
    let mut unique = 0u64;
    plan.extend((plan.len()..cfg.requests_per_point).map(|_| {
        if !pool.is_empty() && rng.unit() < target_hit_ratio {
            pool[(rng.next_u64() % pool.len() as u64) as usize].clone()
        } else {
            unique += 1;
            let req = mixed_request(&mut rng, (point_idx << 32) | unique);
            if pool.len() < 8 {
                pool.push(req.clone());
            }
            req
        }
    }));

    // Open loop: absolute submission times drawn up front (exponential
    // interarrivals), never adjusted by completions.
    let mut at = 0.0f64;
    let arrivals: Vec<f64> = plan
        .iter()
        .map(|_| {
            at += rng.arrival_gap_s(cfg.arrival_rate_rps);
            at
        })
        .collect();

    let start = Instant::now();
    let handles: Vec<JobHandle> = plan
        .into_iter()
        .zip(arrivals)
        .map(|(req, due_s)| {
            let due = Duration::from_secs_f64(due_s);
            let now = start.elapsed();
            if due > now {
                std::thread::sleep(due - now);
            }
            sched.submit(FleetJob::new(req))
        })
        .collect();
    for h in handles {
        h.recv().expect("benchmark jobs are well-formed");
    }
    let wall_s = start.elapsed().as_secs_f64();

    // Read the point's numbers back out of the registry — the harness
    // keeps no counters of its own.
    sched.sync_metrics();
    let reg = sched.registry();
    let requests = reg.counter("fleet_jobs_completed_total", &[]).get();
    let hits = reg.counter("fleet_cache_hits_total", &[]).get();
    let misses = reg.counter("fleet_cache_misses_total", &[]).get();
    let member_hits = reg.counter("fleet_member_cache_hits_total", &[]).get();
    let member_residues = reg.counter("fleet_member_residue_jobs_total", &[]).get();
    let operand_bytes = reg.counter("fleet_operand_bytes_total", &[]).get();
    let activity_sims = reg.counter("fleet_activity_sims_total", &[]).get();
    let feature_bytes = reg.counter("fleet_feature_bytes_total", &[]).get();
    let joules = gauge_family_sum(&sched, "device_energy_j");
    let peak_committed_w = reg.gauge("fleet_peak_committed_w", &[]).get();
    let latency = latency_sketch(&sched);
    let lookups = hits + misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    let trace_jsonl: Vec<String> = sched
        .tracer()
        .drain()
        .iter()
        .map(|s| s.to_jsonl())
        .collect();

    let q = |q: f64| {
        if latency.observations() == 0 {
            0.0
        } else {
            latency.quantile(q)
        }
    };
    let artifact = obj(vec![
        ("target_hit_ratio", Json::Num(target_hit_ratio)),
        ("requests", Json::Num(requests as f64)),
        ("wall_s", Json::Num(wall_s)),
        ("throughput_rps", Json::Num(requests as f64 / wall_s)),
        ("p50_us", Json::Num(q(0.5))),
        ("p95_us", Json::Num(q(0.95))),
        ("p99_us", Json::Num(q(0.99))),
        ("joules", Json::Num(joules)),
        ("cache_hit_rate", Json::Num(hit_rate)),
        ("member_cache_hits", Json::Num(member_hits as f64)),
        ("member_residue_jobs", Json::Num(member_residues as f64)),
        ("operand_bytes", Json::Num(operand_bytes as f64)),
        ("activity_sims", Json::Num(activity_sims as f64)),
        ("feature_bytes", Json::Num(feature_bytes as f64)),
        ("peak_committed_w", Json::Num(peak_committed_w)),
        ("trace_spans", Json::Num(trace_jsonl.len() as f64)),
    ]);
    PointOutcome {
        artifact,
        latency,
        requests,
        wall_s,
        joules,
        hits,
        lookups,
        member_hits,
        member_residues,
        operand_bytes,
        activity_sims,
        feature_bytes,
        peak_committed_w,
        trace_jsonl,
    }
}

/// The benchmark run and its artifact. When `trace_out` is `Some`, every
/// point's drained span ring is returned as JSONL lines alongside the
/// artifact (the CLI writes them to the `--trace` path).
pub struct BenchRun {
    /// The `BENCH_serving.json` document.
    pub artifact: Json,
    /// One JSONL line per recorded span, across all sweep points.
    pub trace_jsonl: Vec<String>,
}

/// Execute the configured sweep and assemble the artifact.
pub fn run(cfg: &BenchConfig) -> BenchRun {
    assert!(
        !cfg.hit_ratios.is_empty() && cfg.requests_per_point > 0,
        "benchmark needs at least one sweep point and one request"
    );
    let mut points = Vec::new();
    let mut merged = LogHistogram::new();
    let (mut requests, mut hits, mut lookups) = (0u64, 0u64, 0u64);
    let (mut member_hits, mut member_residues) = (0u64, 0u64);
    let (mut operand_bytes, mut activity_sims, mut feature_bytes) = (0u64, 0u64, 0u64);
    let (mut wall_s, mut joules, mut peak_w) = (0.0f64, 0.0f64, 0.0f64);
    let mut trace_jsonl = Vec::new();
    for (i, &ratio) in cfg.hit_ratios.iter().enumerate() {
        let mut p = run_point(cfg, ratio, i as u64);
        merged.merge(&p.latency);
        requests += p.requests;
        hits += p.hits;
        lookups += p.lookups;
        member_hits += p.member_hits;
        member_residues += p.member_residues;
        operand_bytes += p.operand_bytes;
        activity_sims += p.activity_sims;
        feature_bytes += p.feature_bytes;
        wall_s += p.wall_s;
        joules += p.joules;
        peak_w = peak_w.max(p.peak_committed_w);
        trace_jsonl.append(&mut p.trace_jsonl);
        points.push(p.artifact);
    }
    let q = |q: f64| {
        if merged.observations() == 0 {
            0.0
        } else {
            merged.quantile(q)
        }
    };
    let artifact = obj(vec![
        ("bench", Json::Str("serving".to_string())),
        ("smoke", Json::Bool(cfg.smoke)),
        ("requests", Json::Num(requests as f64)),
        ("wall_s", Json::Num(wall_s)),
        ("throughput_rps", Json::Num(requests as f64 / wall_s)),
        ("p50_us", Json::Num(q(0.5))),
        ("p95_us", Json::Num(q(0.95))),
        ("p99_us", Json::Num(q(0.99))),
        ("joules", Json::Num(joules)),
        (
            "cache_hit_rate",
            Json::Num(if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            }),
        ),
        ("member_cache_hits", Json::Num(member_hits as f64)),
        ("member_residue_jobs", Json::Num(member_residues as f64)),
        ("operand_bytes", Json::Num(operand_bytes as f64)),
        ("activity_sims", Json::Num(activity_sims as f64)),
        ("feature_bytes", Json::Num(feature_bytes as f64)),
        ("peak_committed_w", Json::Num(peak_w)),
        ("sweep", Json::Arr(points)),
    ]);
    BenchRun {
        artifact,
        trace_jsonl,
    }
}

/// Validate a `BENCH_serving.json` document: the shared open-loop checks
/// ([`validate_open_loop`]), hit rate in range, positive joules, and the
/// top level consistent with its sweep points. CI runs this against the
/// freshly emitted artifact.
pub fn validate(v: &Json) -> Result<(), String> {
    let requests = validate_open_loop(v, "serving", REQUIRED_KEYS)?;
    let hit_rate = require_num(v, "cache_hit_rate")?;
    if !(0.0..=1.0).contains(&hit_rate) {
        return Err(format!("cache_hit_rate {hit_rate} outside [0, 1]"));
    }
    if require_num(v, "joules")? <= 0.0 {
        return Err("joules must be positive".to_string());
    }
    let Some(sweep) = v.get("sweep").and_then(Json::as_arr) else {
        return Err("\"sweep\" must be an array".to_string());
    };
    if sweep.is_empty() {
        return Err("\"sweep\" must hold at least one point".to_string());
    }
    let member_hits = require_num(v, "member_cache_hits")?;
    let member_residues = require_num(v, "member_residue_jobs")?;
    if member_hits < 0.0 || member_residues < 0.0 {
        return Err(format!(
            "member counters must be non-negative: hits {member_hits}, residues {member_residues}"
        ));
    }
    let mut point_requests = 0.0;
    let (mut point_member_hits, mut point_member_residues) = (0.0, 0.0);
    for (i, point) in sweep.iter().enumerate() {
        for &key in POINT_KEYS {
            if point.get(key).is_none() {
                return Err(format!("sweep[{i}] missing key {key:?}"));
            }
        }
        point_requests += require_num(point, "requests")?;
        point_member_hits += require_num(point, "member_cache_hits")?;
        point_member_residues += require_num(point, "member_residue_jobs")?;
    }
    if (point_requests - requests).abs() > 0.5 {
        return Err(format!(
            "sweep points account for {point_requests} requests, top level says {requests}"
        ));
    }
    // Each point runs a fresh scheduler, so the member counters sum
    // exactly like the request counts do.
    if (point_member_hits - member_hits).abs() > 0.5
        || (point_member_residues - member_residues).abs() > 0.5
    {
        return Err(format!(
            "member counters inconsistent with sweep points: \
             hits {member_hits} vs {point_member_hits}, \
             residues {member_residues} vs {point_member_residues}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_artifact_validates_and_is_internally_consistent() {
        let mut cfg = BenchConfig::smoke();
        // Keep the unit test faster than the CI smoke run.
        cfg.requests_per_point = 12;
        cfg.hit_ratios = vec![0.5];
        let run = run(&cfg);
        validate(&run.artifact).expect("artifact must validate");
        assert_eq!(
            run.artifact.get("requests"),
            Some(&Json::Num(12.0)),
            "{}",
            run.artifact
        );
        // The member-overlap phase guarantees member-level reuse: its
        // two groups are answered from (or joined with) the singles that
        // warmed their shapes.
        let num = |key: &str| {
            run.artifact
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing {key}: {}", run.artifact))
        };
        assert!(num("member_cache_hits") > 0.0, "{}", run.artifact);
        assert!(num("member_residue_jobs") > 0.0, "{}", run.artifact);
        // Fresh work is counted in machine-independent units.
        assert!(num("activity_sims") > 0.0, "{}", run.artifact);
        assert!(num("operand_bytes") > 0.0, "{}", run.artifact);
        assert!(num("feature_bytes") > 0.0, "{}", run.artifact);
        assert!(!run.trace_jsonl.is_empty(), "spans were recorded");
        for line in &run.trace_jsonl {
            assert!(wm_fleet::json::Json::parse(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn validate_rejects_broken_artifacts() {
        let ok = obj(vec![
            ("bench", Json::Str("serving".into())),
            ("smoke", Json::Bool(true)),
            ("requests", Json::Num(10.0)),
            ("wall_s", Json::Num(2.0)),
            ("throughput_rps", Json::Num(5.0)),
            ("p50_us", Json::Num(10.0)),
            ("p95_us", Json::Num(20.0)),
            ("p99_us", Json::Num(30.0)),
            ("joules", Json::Num(1.5)),
            ("cache_hit_rate", Json::Num(0.5)),
            ("member_cache_hits", Json::Num(3.0)),
            ("member_residue_jobs", Json::Num(4.0)),
            ("peak_committed_w", Json::Num(100.0)),
            (
                "sweep",
                Json::Arr(vec![obj(vec![
                    ("target_hit_ratio", Json::Num(0.5)),
                    ("requests", Json::Num(10.0)),
                    ("wall_s", Json::Num(2.0)),
                    ("throughput_rps", Json::Num(5.0)),
                    ("p50_us", Json::Num(10.0)),
                    ("p95_us", Json::Num(20.0)),
                    ("p99_us", Json::Num(30.0)),
                    ("joules", Json::Num(1.5)),
                    ("cache_hit_rate", Json::Num(0.5)),
                    ("member_cache_hits", Json::Num(3.0)),
                    ("member_residue_jobs", Json::Num(4.0)),
                    ("peak_committed_w", Json::Num(100.0)),
                    ("trace_spans", Json::Num(40.0)),
                ])]),
            ),
        ]);
        validate(&ok).expect("reference artifact is valid");

        let broken = |key: &str, value: Json| {
            let Json::Obj(fields) = ok.clone() else {
                unreachable!()
            };
            let patched: Vec<(String, Json)> = fields
                .into_iter()
                .map(|(k, v)| if k == key { (k, value.clone()) } else { (k, v) })
                .collect();
            Json::Obj(patched)
        };
        assert!(validate(&broken("throughput_rps", Json::Num(0.0))).is_err());
        assert!(
            validate(&broken("p95_us", Json::Num(5.0))).is_err(),
            "p50 > p95"
        );
        assert!(validate(&broken("cache_hit_rate", Json::Num(1.5))).is_err());
        assert!(
            validate(&broken("member_cache_hits", Json::Num(-1.0))).is_err(),
            "negative member counter"
        );
        assert!(
            validate(&broken("member_residue_jobs", Json::Num(99.0))).is_err(),
            "member counters inconsistent with sweep points"
        );
        assert!(
            validate(&broken("member_cache_hits", Json::Str("3".into()))).is_err(),
            "non-numeric member counter"
        );
        assert!(
            validate(&broken("requests", Json::Num(99.0))).is_err(),
            "sweep mismatch"
        );
        assert!(validate(&broken("sweep", Json::Arr(vec![]))).is_err());
        assert!(validate(&Json::Obj(vec![])).is_err());
    }
}

//! Seeded request generators for the three workloads.
//!
//! Every request is a [`Spec`]: the knobs of one `run` request. A spec
//! renders to the JSON request line the service sees ([`Spec::line`]) and
//! to the equivalent [`RunRequest`] the correctness oracle and the
//! direct layer calls use ([`Spec::request`]). The oracle compares the
//! service's answers with `PowerLab::run` on that request bit for bit, so
//! a mismatch between the two renderings cannot go unnoticed.
//!
//! The mix covers the paper's four input-variation families: value
//! distribution (`gaussian`, `value_set`), bit similarity (`bit_flips`,
//! `zero_lsbs`), placement (`sorted_rows`) and sparsity (`sparse`), over
//! FP32, FP16-T and INT8, as square, ragged, GEMV and 3-member grouped
//! requests with axes in 64..=192. Draws are stratified: each cycle of a
//! stream visits every (family, dtype, kind) combination once and spreads
//! its axes evenly over the range, so runs with different seeds carry the
//! same mix and differ only in order, exact axes and operand data.

use wm_core::RunRequest;
use wm_fleet::json::{obj, Json};
use wm_gpu::GemmDims;
use wm_kernels::{KernelClass, Sampling};
use wm_numerics::DType;
use wm_patterns::{PatternKind, PatternSpec};

/// Seeds averaged per request.
pub const SEEDS: u64 = 2;
/// Sampling-lattice edge of every request.
pub const LATTICE: usize = 4;
const AXIS_MIN: usize = 64;
const AXIS_MAX: usize = 192;
/// Members of a grouped request.
pub const GROUP_MEMBERS: usize = 3;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    fn axis(&mut self) -> usize {
        AXIS_MIN + self.below(AXIS_MAX - AXIS_MIN + 1)
    }
}

/// The SplitMix64 finalizer, also used to hash sample decisions.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Distinct `base_seed` values: a run's seed, a stream tag and an index
/// are packed below 2^53 so they survive the trip through a JSON number.
pub fn base_seed(run_seed: u64, stream: u64, index: u64) -> u64 {
    assert!(
        stream < 16 && index < (1 << 24),
        "base-seed space exhausted"
    );
    ((run_seed & 0xFF_FFFF) << 28) | (stream << 24) | index
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    Gaussian,
    ValueSet,
    BitFlips,
    ZeroLsbs,
    SortedRows,
    Sparse,
}

pub const FAMILIES: [Family; 6] = [
    Family::Gaussian,
    Family::ValueSet,
    Family::BitFlips,
    Family::ZeroLsbs,
    Family::SortedRows,
    Family::Sparse,
];

pub const DTYPES: [DType; 3] = [DType::Fp32, DType::Fp16Tensor, DType::Int8];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Square,
    Ragged,
    Gemv,
    Group,
}

pub const KINDS: [Kind; 4] = [Kind::Square, Kind::Ragged, Kind::Gemv, Kind::Group];

impl Family {
    /// The family's pattern with parameter choice `level` (0..4).
    fn pattern(self, level: usize) -> PatternKind {
        let level = level % 4;
        match self {
            Family::Gaussian => PatternKind::Gaussian,
            Family::ValueSet => PatternKind::ValueSet {
                set_size: [2, 8, 32, 256][level],
            },
            Family::BitFlips => PatternKind::BitFlips {
                probability: [0.01, 0.05, 0.2, 0.5][level],
            },
            Family::ZeroLsbs => PatternKind::ZeroLsbs {
                count: [1, 2, 3, 4][level],
            },
            Family::SortedRows => PatternKind::SortedRows {
                fraction: [0.25, 0.5, 0.75, 1.0][level],
            },
            Family::Sparse => PatternKind::Sparse {
                sparsity: [0.25, 0.5, 0.75, 0.9][level],
            },
        }
    }
}

/// The knobs of one `run` request.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub dtype: DType,
    pub pattern: PatternKind,
    pub kernel: KernelClass,
    /// Effective member shapes; one entry for a plain request.
    pub members: Vec<GemmDims>,
    /// Whether the request is spelled as a `group`.
    pub grouped: bool,
    /// Whether a plain GEMM is spelled with the square `dim` field.
    pub square: bool,
    pub base_seed: u64,
}

fn dims(n: usize, m: usize, k: usize) -> GemmDims {
    GemmDims { n, m, k }
}

fn shape_json(d: GemmDims) -> Json {
    obj(vec![
        ("n", Json::Num(d.n as f64)),
        ("m", Json::Num(d.m as f64)),
        ("k", Json::Num(d.k as f64)),
    ])
}

impl Spec {
    /// A spec of `kind` whose first member is `n x m x k` (square kinds
    /// use `n` for every axis; GEMV executes `n x 1 x k`); a group's other
    /// members come from `rest`.
    pub fn build(
        family: Family,
        level: usize,
        dtype: DType,
        kind: Kind,
        (n, m, k): (usize, usize, usize),
        rest: &[GemmDims],
        base_seed: u64,
    ) -> Self {
        let (kernel, members) = match kind {
            Kind::Square => (KernelClass::Gemm, vec![dims(n, n, n)]),
            Kind::Ragged => (KernelClass::Gemm, vec![dims(n, m, k)]),
            Kind::Gemv => (KernelClass::Gemv, vec![dims(n, 1, k)]),
            Kind::Group => {
                let mut all = vec![dims(n, m, k)];
                all.extend_from_slice(rest);
                (KernelClass::Gemm, all)
            }
        };
        Spec {
            dtype,
            pattern: family.pattern(level),
            kernel,
            members,
            grouped: kind == Kind::Group,
            square: kind == Kind::Square,
            base_seed,
        }
    }

    /// The request object, as a client would send it.
    pub fn json(&self, id: u64) -> Json {
        let mut fields = vec![
            ("id", Json::Num(id as f64)),
            ("op", Json::Str("run".into())),
            ("dtype", Json::Str(self.dtype.to_string())),
        ];
        if self.kernel == KernelClass::Gemv {
            fields.push(("kernel", Json::Str("gemv".into())));
        }
        fields.extend(pattern_fields(self.pattern));
        if self.grouped {
            fields.push((
                "group",
                Json::Arr(self.members.iter().copied().map(shape_json).collect()),
            ));
        } else {
            let d = self.members[0];
            if self.square {
                fields.push(("dim", Json::Num(d.n as f64)));
            } else {
                fields.push(("n", Json::Num(d.n as f64)));
                if self.kernel == KernelClass::Gemm {
                    fields.push(("m", Json::Num(d.m as f64)));
                }
                fields.push(("k", Json::Num(d.k as f64)));
            }
        }
        fields.extend([
            ("seeds", Json::Num(SEEDS as f64)),
            ("base_seed", Json::Num(self.base_seed as f64)),
            ("lattice", Json::Num(LATTICE as f64)),
        ]);
        obj(fields)
    }

    /// The request line (no trailing newline).
    pub fn line(&self, id: u64) -> String {
        self.json(id).to_string()
    }

    /// The library request the line asks for.
    pub fn request(&self) -> RunRequest {
        let spec = PatternSpec::new(self.pattern);
        let first = self.members[0];
        let req = RunRequest::new(self.dtype, first.n, spec).with_kernel(self.kernel);
        let req = if self.grouped {
            req.with_group(self.members.clone())
        } else {
            req.with_shape(first)
        };
        req.with_seeds(SEEDS)
            .with_base_seed(self.base_seed)
            .with_sampling(Sampling::Lattice {
                rows: LATTICE,
                cols: LATTICE,
            })
    }

    /// Operand megabytes one seed of `member` generates (A plus B, or
    /// GEMV's x vector), computed from tensor sizes at the dtype's width.
    pub fn operand_mb(&self, member: GemmDims) -> f64 {
        let b = match self.kernel {
            KernelClass::Gemm => member.m * member.k,
            KernelClass::Gemv => member.k,
        };
        ((member.n * member.k + b) * self.dtype.bytes()) as f64 / 1e6
    }
}

fn pattern_fields(p: PatternKind) -> Vec<(&'static str, Json)> {
    let (name, param): (&str, Option<(&str, f64)>) = match p {
        PatternKind::Gaussian => ("gaussian", None),
        PatternKind::ValueSet { set_size } => ("value_set", Some(("set_size", set_size as f64))),
        PatternKind::BitFlips { probability } => ("bit_flips", Some(("probability", probability))),
        PatternKind::ZeroLsbs { count } => ("zero_lsbs", Some(("count", count as f64))),
        PatternKind::SortedRows { fraction } => ("sorted_rows", Some(("fraction", fraction))),
        PatternKind::Sparse { sparsity } => ("sparse", Some(("sparsity", sparsity))),
        other => unreachable!("pattern {other:?} is outside the benchmark mix"),
    };
    let mut fields = vec![("pattern", Json::Str(name.into()))];
    if let Some((key, value)) = param {
        fields.push((key, Json::Num(value)));
    }
    fields
}

/// One cycle entry: a combination and the first member's axes.
type Slot = (Family, DType, Kind, (usize, usize, usize));

/// An endless stratified stream of distinct requests: every cycle visits
/// each (family, dtype, kind) combination of `kinds` once in a fresh
/// order, with each axis of the first member taken from an even spread
/// over 64..=192 in a fresh order.
#[derive(Debug, Clone)]
pub struct MixStream {
    rng: Rng,
    kinds: Vec<Kind>,
    cycle: Vec<Slot>,
    run_seed: u64,
    stream: u64,
    next_index: u64,
}

impl MixStream {
    /// `stream` (below 16) tags the base seeds, so streams of one run
    /// never share a request.
    pub fn new(run_seed: u64, stream: u64, kinds: &[Kind]) -> Self {
        MixStream {
            rng: Rng::new(mix(run_seed ^ (stream << 56)) ^ 0x5EED),
            kinds: kinds.to_vec(),
            cycle: Vec::new(),
            run_seed,
            stream,
            next_index: 0,
        }
    }

    fn refill(&mut self) {
        let mut combos = Vec::new();
        for &f in &FAMILIES {
            for &d in &DTYPES {
                for &k in &self.kinds {
                    combos.push((f, d, k));
                }
            }
        }
        let len = combos.len();
        let levels: Vec<usize> = (0..len)
            .map(|j| AXIS_MIN + j * (AXIS_MAX - AXIS_MIN) / (len - 1))
            .collect();
        let mut axes = [levels.clone(), levels.clone(), levels];
        for a in &mut axes {
            self.rng.shuffle(a);
        }
        self.rng.shuffle(&mut combos);
        self.cycle = combos
            .into_iter()
            .enumerate()
            .map(|(j, (f, d, k))| (f, d, k, (axes[0][j], axes[1][j], axes[2][j])))
            .rev()
            .collect();
    }

    /// The next request of the stream.
    pub fn next_spec(&mut self) -> Spec {
        if self.cycle.is_empty() {
            self.refill();
        }
        let (family, dtype, kind, axes) = self.cycle.pop().expect("refilled cycle");
        let level = self.rng.below(4);
        let rest: Vec<GemmDims> = if kind == Kind::Group {
            (1..GROUP_MEMBERS)
                .map(|_| dims(self.rng.axis(), self.rng.axis(), self.rng.axis()))
                .collect()
        } else {
            Vec::new()
        };
        let seed = base_seed(self.run_seed, self.stream, self.next_index);
        self.next_index += 1;
        Spec::build(family, level, dtype, kind, axes, &rest, seed)
    }

    /// A fresh single-member shape in 64..=192 (for groups built around
    /// a warmed member).
    pub fn fresh_shape(&mut self) -> GemmDims {
        dims(self.rng.axis(), self.rng.axis(), self.rng.axis())
    }

    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

/// A fixed design of `size` requests whose shapes and pattern parameters
/// depend only on the slot; the run seed picks the operand data through
/// the base seeds. Fixed shapes keep the pool's cost and energy the same
/// from seed to seed.
pub fn fixed_pool(run_seed: u64, stream: u64, size: usize, kinds: &[Kind]) -> Vec<Spec> {
    let span = AXIS_MAX - AXIS_MIN + 1;
    (0..size)
        .map(|i| {
            let family = FAMILIES[i % FAMILIES.len()];
            let dtype = DTYPES[(i / FAMILIES.len()) % DTYPES.len()];
            let kind = kinds[i % kinds.len()];
            let axis = |mul: usize, off: usize| AXIS_MIN + (i * mul + off) % span;
            let first = (axis(41, 0), axis(67, 11), axis(23, 37));
            let rest: Vec<GemmDims> = (1..GROUP_MEMBERS)
                .map(|j| {
                    dims(
                        axis(29 + j, 5 * j),
                        axis(53 + j, 7 * j),
                        axis(19 + j, 3 * j),
                    )
                })
                .collect();
            let level = (i / (FAMILIES.len() * DTYPES.len())) % 4;
            Spec::build(
                family,
                level,
                dtype,
                kind,
                first,
                &rest,
                base_seed(run_seed, stream, i as u64),
            )
        })
        .collect()
}

/// `sets` knob sets (dtype, pattern, base seed) from [`fixed_pool`], each
/// warmed as two plain GEMMs of different shapes: entries `2j` and
/// `2j + 1` share knobs, so a group built from both shapes plus a fresh
/// one finds two of its three members in the member store.
pub fn paired_pool(run_seed: u64, stream: u64, sets: usize) -> Vec<Spec> {
    let span = AXIS_MAX - AXIS_MIN + 1;
    fixed_pool(run_seed, stream, sets, &[Kind::Square, Kind::Ragged])
        .into_iter()
        .enumerate()
        .flat_map(|(j, first)| {
            let axis = |mul: usize, off: usize| AXIS_MIN + (j * mul + off) % span;
            let twin = Spec {
                members: vec![dims(axis(31, 17), axis(59, 3), axis(47, 29))],
                square: false,
                ..first.clone()
            };
            [first, twin]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_fleet::json::Json;

    #[test]
    fn streams_are_seed_determined_and_distinct() {
        let mut a = MixStream::new(7, 0, &KINDS);
        let mut b = MixStream::new(7, 0, &KINDS);
        let mut c = MixStream::new(7, 1, &KINDS);
        let xs: Vec<Spec> = (0..200).map(|_| a.next_spec()).collect();
        let ys: Vec<Spec> = (0..200).map(|_| b.next_spec()).collect();
        assert_eq!(xs, ys);
        let zs: Vec<Spec> = (0..200).map(|_| c.next_spec()).collect();
        assert!(xs.iter().all(|x| !zs.contains(x)));
    }

    #[test]
    fn a_cycle_covers_every_combination() {
        let mut s = MixStream::new(3, 0, &KINDS);
        let cycle: Vec<Spec> = (0..72).map(|_| s.next_spec()).collect();
        assert_eq!(cycle.iter().filter(|x| x.grouped).count(), 18);
        for d in DTYPES {
            assert_eq!(cycle.iter().filter(|x| x.dtype == d).count(), 24);
        }
        for x in &cycle {
            for m in &x.members {
                assert!((AXIS_MIN..=AXIS_MAX).contains(&m.n));
                assert!((AXIS_MIN..=AXIS_MAX).contains(&m.k));
            }
        }
    }

    #[test]
    fn paired_pool_twins_share_knobs_not_shapes() {
        let pool = paired_pool(5, 5, 16);
        assert_eq!(pool.len(), 32);
        for pair in pool.chunks(2) {
            assert_eq!(pair[0].base_seed, pair[1].base_seed);
            assert_eq!(pair[0].dtype, pair[1].dtype);
            assert_ne!(pair[0].members, pair[1].members);
        }
    }

    #[test]
    fn lines_parse_back_to_the_same_knobs() {
        let mut s = MixStream::new(11, 2, &KINDS);
        for _ in 0..72 {
            let spec = s.next_spec();
            let v = Json::parse(&spec.line(1)).expect("generated lines are valid JSON");
            assert_eq!(
                v.get("base_seed").and_then(Json::as_u64),
                Some(spec.base_seed)
            );
            assert_eq!(v.get("group").is_some(), spec.grouped);
        }
    }
}

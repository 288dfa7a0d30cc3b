//! The pattern description language (§V: power models whose inputs are
//! "different data patterns ... specified via a domain-specific language").
//!
//! A program is a pipeline of steps separated by `|>`:
//!
//! ```text
//! gaussian(mean=0, std=210) |> sort_rows(0.5) |> sparsify(0.3)
//! constant(42) |> flip_bits(0.25)
//! gaussian(std=25) |> zero_lsbs(4) |> shift_mean(64)
//! ```
//!
//! Steps:
//!
//! | step | effect |
//! |---|---|
//! | `gaussian(mean=M, std=S)` | Gaussian fill (both args optional) |
//! | `constant(V)` | constant fill |
//! | `value_set(N)` | uniform draws from N Gaussian values |
//! | `sort_rows(F)` / `sort_cols(F)` / `sort_within_rows(F)` | partial sorting |
//! | `sparsify(S)` | zero a random fraction S |
//! | `zero_lsbs(K)` / `zero_msbs(K)` | clear bit fields |
//! | `randomize_lsbs(K)` / `randomize_msbs(K)` | randomize bit fields |
//! | `flip_bits(P)` | flip each bit with probability P |
//! | `shift_mean(C)` | add the constant C to every element |
//!
//! [`PatternProgram::generate`] produces the matrix;
//! [`PatternProgram::estimate_power`] runs the full simulation pipeline
//! and returns predicted watts on any catalog GPU.

use wm_bits::Xoshiro256pp;
use wm_gpu::GpuSpec;
use wm_kernels::{simulate, GemmConfig, GemmInputs, Sampling};
use wm_matrix::Matrix;
use wm_numerics::{DType, Quantizer};
use wm_patterns::{bit_similarity, distribution, placement, sparsity};
use wm_power::{evaluate, PowerBreakdown};

/// One pipeline step.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Gaussian fill.
    Gaussian {
        /// Mean of the distribution.
        mean: f64,
        /// Standard deviation; `None` = the dtype's paper default.
        std: Option<f64>,
    },
    /// Constant fill.
    Constant(f64),
    /// Draws from a set of N Gaussian values.
    ValueSet(usize),
    /// Partial row-major sort.
    SortRows(f64),
    /// Partial column-major sort.
    SortCols(f64),
    /// Partial per-row sort.
    SortWithinRows(f64),
    /// Random zeroing.
    Sparsify(f64),
    /// Clear low bits.
    ZeroLsbs(u32),
    /// Clear high bits.
    ZeroMsbs(u32),
    /// Randomize low bits.
    RandomizeLsbs(u32),
    /// Randomize high bits.
    RandomizeMsbs(u32),
    /// Flip every bit with a probability.
    FlipBits(f64),
    /// Add a constant.
    ShiftMean(f64),
}

/// A parsed pattern program.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternProgram {
    steps: Vec<Step>,
    source: String,
}

/// Parse errors carry the offending fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pattern DSL error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        message: message.into(),
    })
}

/// Parse `name(args)` into name and raw args.
fn split_call(fragment: &str) -> Result<(&str, Vec<&str>), ParseError> {
    let fragment = fragment.trim();
    let Some(open) = fragment.find('(') else {
        // Bare step without arguments, e.g. `gaussian`.
        return Ok((fragment, Vec::new()));
    };
    if !fragment.ends_with(')') {
        return err(format!("missing closing paren in {fragment:?}"));
    }
    let name = &fragment[..open];
    let inner = &fragment[open + 1..fragment.len() - 1];
    let args = if inner.trim().is_empty() {
        Vec::new()
    } else {
        inner.split(',').map(str::trim).collect()
    };
    Ok((name.trim(), args))
}

fn parse_f64(s: &str) -> Result<f64, ParseError> {
    s.parse::<f64>().map_err(|_| ParseError {
        message: format!("expected a number, got {s:?}"),
    })
}

fn parse_step(fragment: &str) -> Result<Step, ParseError> {
    let (name, args) = split_call(fragment)?;
    let one = |args: &[&str]| -> Result<f64, ParseError> {
        if args.len() != 1 {
            return err(format!("{name} expects exactly one argument"));
        }
        parse_f64(args[0])
    };
    match name {
        "gaussian" => {
            let mut mean = 0.0;
            let mut std = None;
            for a in &args {
                match a.split_once('=') {
                    Some(("mean", v)) => mean = parse_f64(v.trim())?,
                    Some(("std", v)) => std = Some(parse_f64(v.trim())?),
                    _ => return err(format!("gaussian: unknown argument {a:?}")),
                }
            }
            Ok(Step::Gaussian { mean, std })
        }
        "constant" => Ok(Step::Constant(one(&args)?)),
        "value_set" => Ok(Step::ValueSet(one(&args)? as usize)),
        "sort_rows" => Ok(Step::SortRows(one(&args)?)),
        "sort_cols" => Ok(Step::SortCols(one(&args)?)),
        "sort_within_rows" => Ok(Step::SortWithinRows(one(&args)?)),
        "sparsify" => Ok(Step::Sparsify(one(&args)?)),
        "zero_lsbs" => Ok(Step::ZeroLsbs(one(&args)? as u32)),
        "zero_msbs" => Ok(Step::ZeroMsbs(one(&args)? as u32)),
        "randomize_lsbs" => Ok(Step::RandomizeLsbs(one(&args)? as u32)),
        "randomize_msbs" => Ok(Step::RandomizeMsbs(one(&args)? as u32)),
        "flip_bits" => Ok(Step::FlipBits(one(&args)?)),
        "shift_mean" => Ok(Step::ShiftMean(one(&args)?)),
        other => err(format!("unknown step {other:?}")),
    }
}

impl PatternProgram {
    /// Parse a pipeline, e.g. `gaussian(std=210) |> sort_rows(0.5)`.
    pub fn parse(source: &str) -> Result<Self, ParseError> {
        let steps: Result<Vec<Step>, ParseError> = source.split("|>").map(parse_step).collect();
        let steps = steps?;
        if steps.is_empty() {
            return err("empty program");
        }
        // The first step must be a fill.
        match steps[0] {
            Step::Gaussian { .. } | Step::Constant(_) | Step::ValueSet(_) => {}
            ref s => return err(format!("program must start with a fill step, got {s:?}")),
        }
        Ok(Self {
            steps,
            source: source.to_string(),
        })
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Generate a matrix by running the pipeline.
    // audit:allow(hot-path-alloc): generators build the operand matrices they return
    pub fn generate(
        &self,
        dtype: DType,
        rows: usize,
        cols: usize,
        rng: &mut Xoshiro256pp,
    ) -> Matrix {
        let q = Quantizer::new(dtype);
        let default_std = dtype.paper_sigma();
        let mut m = Matrix::zeros(rows, cols);
        for step in &self.steps {
            match *step {
                Step::Gaussian { mean, std } => distribution::fill_gaussian(
                    m.as_mut_slice(),
                    mean,
                    std.unwrap_or(default_std),
                    dtype,
                    rng,
                ),
                Step::Constant(v) => m.map_in_place(|_| q.quantize(v as f32)),
                Step::ValueSet(n) => {
                    let mut set = vec![0.0f32; n.max(1)];
                    distribution::fill_gaussian(&mut set, 0.0, default_std, dtype, rng);
                    m.map_in_place(|_| set[rng.next_bounded(set.len())]);
                }
                Step::SortRows(f) => placement::sort_into_rows(&mut m, f),
                Step::SortCols(f) => placement::sort_into_cols(&mut m, f),
                Step::SortWithinRows(f) => placement::sort_within_rows(&mut m, f),
                Step::Sparsify(s) => sparsity::apply_sparsity(&mut m, s.clamp(0.0, 1.0), rng),
                Step::ZeroLsbs(k) => sparsity::zero_lsbs(&mut m, dtype, k),
                Step::ZeroMsbs(k) => sparsity::zero_msbs(&mut m, dtype, k),
                Step::RandomizeLsbs(k) => bit_similarity::randomize_lsbs(&mut m, dtype, k, rng),
                Step::RandomizeMsbs(k) => bit_similarity::randomize_msbs(&mut m, dtype, k, rng),
                Step::FlipBits(p) => {
                    bit_similarity::flip_random_bits(&mut m, dtype, p.clamp(0.0, 1.0), rng)
                }
                Step::ShiftMean(c) => m.map_in_place(|v| q.quantize(v + c as f32)),
            }
        }
        m
    }

    /// Estimate the GEMM power of this pattern on `gpu`: generate operands
    /// (independent streams for A and B), simulate, evaluate.
    pub fn estimate_power(
        &self,
        dtype: DType,
        dim: usize,
        gpu: &GpuSpec,
        seed: u64,
    ) -> PowerBreakdown {
        let mut root = Xoshiro256pp::seed_from_u64(seed);
        let a = self.generate(dtype, dim, dim, &mut root.fork(0));
        let b = self.generate(dtype, dim, dim, &mut root.fork(1));
        let cfg =
            GemmConfig::square(dim, dtype).with_sampling(Sampling::Lattice { rows: 12, cols: 12 });
        let act = simulate(
            &GemmInputs {
                a: &a,
                b_stored: &b,
                c: None,
            },
            &cfg,
        )
        .activity;
        evaluate(gpu, &act)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_gpu::spec::a100_pcie;

    fn rng(seed: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(seed)
    }

    #[test]
    fn parse_round_trip() {
        let p =
            PatternProgram::parse("gaussian(mean=0, std=210) |> sort_rows(0.5) |> sparsify(0.3)")
                .unwrap();
        assert_eq!(p.steps().len(), 3);
        assert_eq!(
            p.steps()[0],
            Step::Gaussian {
                mean: 0.0,
                std: Some(210.0)
            }
        );
        assert_eq!(p.steps()[2], Step::Sparsify(0.3));
    }

    #[test]
    fn bare_gaussian_uses_dtype_default() {
        let p = PatternProgram::parse("gaussian").unwrap();
        let m = p.generate(DType::Int8, 32, 32, &mut rng(1));
        // sigma 25: values spread across the int8 range.
        let max = m.as_slice().iter().cloned().fold(f32::MIN, f32::max);
        assert!(max > 20.0, "max {max} suggests sigma was not ~25");
    }

    #[test]
    fn rejects_bad_programs() {
        assert!(PatternProgram::parse("").is_err());
        assert!(PatternProgram::parse("sort_rows(0.5)").is_err(), "no fill");
        assert!(PatternProgram::parse("gaussian |> warp(9)").is_err());
        assert!(PatternProgram::parse("gaussian |> sparsify(a)").is_err());
        assert!(PatternProgram::parse("gaussian |> sparsify(0.1").is_err());
        assert!(PatternProgram::parse("gaussian(sigma=3)").is_err());
    }

    #[test]
    fn pipeline_effects_compose() {
        let p =
            PatternProgram::parse("gaussian(std=210) |> sort_rows(1.0) |> sparsify(0.25)").unwrap();
        let m = p.generate(DType::Fp16, 32, 32, &mut rng(2));
        assert!((m.zero_fraction() - 0.25).abs() < 0.02);
    }

    #[test]
    fn constant_then_flip_matches_fig4_family() {
        let p = PatternProgram::parse("constant(100) |> flip_bits(0.0)").unwrap();
        let m = p.generate(DType::Int8, 8, 8, &mut rng(3));
        assert!(m.as_slice().iter().all(|&v| v == 100.0));
    }

    #[test]
    fn estimate_power_orders_patterns_correctly() {
        let gpu = a100_pcie();
        let random = PatternProgram::parse("gaussian(std=210)").unwrap();
        let sorted = PatternProgram::parse("gaussian(std=210) |> sort_rows(1.0)").unwrap();
        let pr = random.estimate_power(DType::Fp16Tensor, 256, &gpu, 7);
        let ps = sorted.estimate_power(DType::Fp16Tensor, 256, &gpu, 7);
        assert!(
            ps.total_w < pr.total_w,
            "sorted {} should undercut random {}",
            ps.total_w,
            pr.total_w
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let p = PatternProgram::parse("gaussian |> randomize_lsbs(4)").unwrap();
        let a = p.generate(DType::Fp16, 16, 16, &mut rng(9));
        let b = p.generate(DType::Fp16, 16, 16, &mut rng(9));
        assert_eq!(a, b);
    }

    #[test]
    fn shift_mean_moves_the_mean() {
        let p = PatternProgram::parse("gaussian(std=1) |> shift_mean(100)").unwrap();
        let m = p.generate(DType::Fp32, 32, 32, &mut rng(4));
        assert!((m.mean() - 100.0).abs() < 1.0);
    }
}

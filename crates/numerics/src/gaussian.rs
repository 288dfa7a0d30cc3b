//! Deterministic Gaussian sampling.
//!
//! The paper's value-distribution experiments (§IV.A) fill matrices with
//! Gaussian random variables of controlled mean and standard deviation
//! (σ = 210 for floating point, 25 for INT8, "appropriate parameters to
//! ensure that all values practically fall within each datatype's
//! representation range" — 210·4σ ≈ 840 stays far below the 65504 FP16
//! max, and 25·4σ ≈ 100 fits INT8).
//!
//! We use the Marsaglia polar method on the workspace PRNG: exact, fast,
//! and bit-deterministic for a fixed seed, which external distribution
//! crates do not guarantee across versions.
//!
//! **Exactness contract.** [`Gaussian::fill`] is the batched form of
//! repeated [`Gaussian::sample_f32`] calls and is bit-identical to them:
//! for any buffer length, pending spare and RNG state it writes the same
//! `f32` bits, leaves the [`Xoshiro256pp`] in the same end state, and
//! leaves the same spare variate pending. It draws the candidate pairs in
//! the same order (rejections included) and applies the same
//! `ln`/`sqrt`/division formula to each accepted pair; only the loop shape
//! differs (candidates are compacted branch-free, then transformed in a
//! separate pass).

use wm_bits::Xoshiro256pp;

/// Accepted polar pairs [`Gaussian::fill`] collects before transforming
/// them (a 4 KiB stack buffer).
const PAIR_BATCH: usize = 256;

/// A Gaussian (normal) distribution sampler with cached spare variate.
#[derive(Debug, Clone)]
pub struct Gaussian {
    mean: f64,
    std: f64,
    spare: Option<f64>,
}

impl Gaussian {
    /// Create a sampler with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or not finite (a zero σ is allowed and
    /// produces the constant `mean` — the paper's σ-sweep includes the
    /// degenerate limit).
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(
            std >= 0.0 && std.is_finite() && mean.is_finite(),
            "invalid Gaussian parameters: mean={mean}, std={std}"
        );
        Self {
            mean,
            std,
            spare: None,
        }
    }

    /// The standard normal N(0, 1).
    pub fn standard() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Distribution mean.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Distribution standard deviation.
    #[inline]
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Draw one variate.
    pub fn sample(&mut self, rng: &mut Xoshiro256pp) -> f64 {
        if let Some(z) = self.spare.take() {
            return self.mean + self.std * z;
        }
        // Marsaglia polar method: draw (u, v) uniform on the square until
        // inside the unit disc, then transform.
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

    /// Draw one variate as `f32` (the paper generates FP32 values).
    #[inline]
    pub fn sample_f32(&mut self, rng: &mut Xoshiro256pp) -> f32 {
        self.sample(rng) as f32
    }

    /// Fill a buffer with independent variates: bit-identical to calling
    /// [`Self::sample_f32`] once per slot, including the RNG end state and
    /// the spare left pending for an odd count.
    ///
    /// Accepted `(u, v)` pairs are collected 256 at a time: each candidate
    /// is written at the next free slot and the cursor advances by its
    /// acceptance bit, so the rejection test is data, not a mispredicted
    /// branch. A batch never draws more candidates than pairs it still
    /// needs, so no draw happens that the per-call loop would not make.
    /// The transform pass then runs the unchanged polar formula.
    pub fn fill(&mut self, rng: &mut Xoshiro256pp, out: &mut [f32]) {
        let mut out = out;
        if let Some(first) = out.first_mut() {
            if let Some(z) = self.spare.take() {
                *first = (self.mean + self.std * z) as f32;
                out = &mut out[1..];
            }
        }
        let mut pairs = [(0.0f64, 0.0f64); PAIR_BATCH];
        for chunk in out.chunks_mut(2 * PAIR_BATCH) {
            let need = chunk.len().div_ceil(2);
            let mut got = 0;
            while got < need {
                for _ in 0..need - got {
                    let u = 2.0 * rng.next_f64() - 1.0;
                    let v = 2.0 * rng.next_f64() - 1.0;
                    let s = u * u + v * v;
                    pairs[got] = (u, v);
                    got += usize::from((s > 0.0) & (s < 1.0));
                }
            }
            let mut slots = chunk.chunks_exact_mut(2);
            for (slot, &(u, v)) in slots.by_ref().zip(&pairs) {
                let s = u * u + v * v;
                let factor = (-2.0 * s.ln() / s).sqrt();
                slot[0] = (self.mean + self.std * (u * factor)) as f32;
                slot[1] = (self.mean + self.std * (v * factor)) as f32;
            }
            if let [last] = slots.into_remainder() {
                let (u, v) = pairs[need - 1];
                let s = u * u + v * v;
                let factor = (-2.0 * s.ln() / s).sqrt();
                *last = (self.mean + self.std * (u * factor)) as f32;
                self.spare = Some(v * factor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(mean: f64, std: f64, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut g = Gaussian::new(mean, std);
        let xs: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64;
        (m, var.sqrt())
    }

    #[test]
    fn standard_normal_moments() {
        let (m, s) = sample_stats(0.0, 1.0, 200_000, 1);
        assert!(m.abs() < 0.01, "mean {m}");
        assert!((s - 1.0).abs() < 0.01, "std {s}");
    }

    #[test]
    fn paper_distribution_moments() {
        let (m, s) = sample_stats(0.0, 210.0, 100_000, 2);
        assert!(m.abs() < 3.0, "mean {m}");
        assert!((s - 210.0).abs() < 3.0, "std {s}");
    }

    #[test]
    fn shifted_mean() {
        let (m, s) = sample_stats(1024.0, 1.0, 50_000, 3);
        assert!((m - 1024.0).abs() < 0.05, "mean {m}");
        assert!((s - 1.0).abs() < 0.05, "std {s}");
    }

    #[test]
    fn zero_sigma_is_constant() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut g = Gaussian::new(7.5, 0.0);
        for _ in 0..100 {
            assert_eq!(g.sample(&mut rng), 7.5);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut r1 = Xoshiro256pp::seed_from_u64(5);
        let mut r2 = Xoshiro256pp::seed_from_u64(5);
        let mut g1 = Gaussian::new(0.0, 210.0);
        let mut g2 = Gaussian::new(0.0, 210.0);
        for _ in 0..1000 {
            assert_eq!(g1.sample(&mut r1).to_bits(), g2.sample(&mut r2).to_bits());
        }
    }

    #[test]
    fn tail_mass_roughly_gaussian() {
        // ~31.7% of mass outside 1 sigma; 4.55% outside 2 sigma.
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut g = Gaussian::standard();
        let n = 100_000;
        let mut out1 = 0usize;
        let mut out2 = 0usize;
        for _ in 0..n {
            let x = g.sample(&mut rng).abs();
            if x > 1.0 {
                out1 += 1;
            }
            if x > 2.0 {
                out2 += 1;
            }
        }
        let p1 = out1 as f64 / n as f64;
        let p2 = out2 as f64 / n as f64;
        assert!((p1 - 0.3173).abs() < 0.01, "1-sigma tail {p1}");
        assert!((p2 - 0.0455).abs() < 0.005, "2-sigma tail {p2}");
    }

    #[test]
    fn fill_matches_individual_draws() {
        let mut r1 = Xoshiro256pp::seed_from_u64(7);
        let mut r2 = Xoshiro256pp::seed_from_u64(7);
        let mut g1 = Gaussian::new(3.0, 2.0);
        let mut g2 = Gaussian::new(3.0, 2.0);
        let mut buf = [0.0f32; 64];
        g1.fill(&mut r1, &mut buf);
        for &b in &buf {
            assert_eq!(b, g2.sample_f32(&mut r2));
        }
        // Every length around the batch size, odd and even, entered with
        // and without a pending spare, leaves the same bits, RNG state and
        // spare as the per-call loop.
        let lens = [0, 1, 2, 3, 63, 64, 65, 511, 512, 513, 1025, 4097];
        for &len in &lens {
            for pre in [0usize, 1, 2] {
                let mut r1 = Xoshiro256pp::seed_from_u64(len as u64 * 3 + pre as u64);
                let mut r2 = r1;
                let mut g1 = Gaussian::new(-1.5, 210.0);
                let mut g2 = g1.clone();
                for _ in 0..pre {
                    assert_eq!(g1.sample(&mut r1).to_bits(), g2.sample(&mut r2).to_bits());
                }
                let mut buf = vec![0.0f32; len];
                g1.fill(&mut r1, &mut buf);
                for (i, &b) in buf.iter().enumerate() {
                    let want = g2.sample_f32(&mut r2);
                    assert_eq!(b.to_bits(), want.to_bits(), "len {len} pre {pre} slot {i}");
                }
                assert_eq!(r1, r2, "RNG end state, len {len} pre {pre}");
                assert_eq!(
                    g1.spare.map(f64::to_bits),
                    g2.spare.map(f64::to_bits),
                    "spare, len {len} pre {pre}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid Gaussian")]
    fn negative_sigma_rejected() {
        Gaussian::new(0.0, -1.0);
    }
}

//! Bit-field surgery: the manipulations behind the paper's bit-similarity
//! (§IV.B) and bit-sparsity (§IV.D) experiments.
//!
//! All functions operate on the *raw bit encoding* of a value (the
//! `u8`/`u16`/`u32` word that a datatype codec produced), never on the
//! numeric value itself: the paper's experiments are explicitly about
//! physical bit patterns. Operations are width-aware so the same code
//! drives INT8 (8 bits), FP16 (16 bits), and FP32 (32 bits).
//!
//! Conventions:
//!
//! * "LSBs" are bit positions `0..k`.
//! * "MSBs" are bit positions `width-k..width`.
//! * `k >= width` means "all bits".

use crate::rng::Xoshiro256pp;

/// Mask with the lowest `k` bits of a `width`-bit word set.
#[inline(always)]
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

/// Mask with the highest `k` bits of a `width`-bit word set.
#[inline(always)]
fn msb_mask(k: u32, width: u32) -> u64 {
    let k = k.min(width);
    lsb_mask(width, width) & !lsb_mask(width - k, width)
}

/// Zero the lowest `k` bits of a `width`-bit encoding.
///
/// This is the paper's "sparsity in least significant bits" transform
/// (Fig. 6c): truncating mantissa precision reduces Hamming weight and the
/// switching activity of the multiplier array.
///
/// ```
/// assert_eq!(wm_bits::zero_lsbs(0xFFFF, 8, 16), 0xFF00);
/// assert_eq!(wm_bits::zero_lsbs(0xFFFF, 0, 16), 0xFFFF);
/// assert_eq!(wm_bits::zero_lsbs(0xFFFF, 99, 16), 0x0000);
/// ```
#[inline]
pub fn zero_lsbs(x: u64, k: u32, width: u32) -> u64 {
    x & !lsb_mask(k, width)
}

/// Zero the highest `k` bits of a `width`-bit encoding (Fig. 6d).
///
/// ```
/// assert_eq!(wm_bits::zero_msbs(0xFFFF, 8, 16), 0x00FF);
/// assert_eq!(wm_bits::zero_msbs(0xFF, 4, 8), 0x0F);
/// ```
#[inline]
pub fn zero_msbs(x: u64, k: u32, width: u32) -> u64 {
    x & !msb_mask(k, width)
}

/// Replace the lowest `k` bits with uniformly random bits (Fig. 4b).
#[inline]
pub fn randomize_lsbs(x: u64, k: u32, width: u32, rng: &mut Xoshiro256pp) -> u64 {
    let mask = lsb_mask(k, width);
    (x & !mask) | (rng.next_u64() & mask)
}

/// Replace the highest `k` bits (within `width`) with uniformly random bits
/// (Fig. 4c).
#[inline]
pub fn randomize_msbs(x: u64, k: u32, width: u32, rng: &mut Xoshiro256pp) -> u64 {
    let mask = msb_mask(k, width);
    (x & !mask) | (rng.next_u64() & mask)
}

/// A plan for 64-bit masks in which each bit is set independently with
/// probability `p`, to within 2⁻¹⁶ — the XOR mask of the paper's random
/// bit flips (Fig. 4a), computed once per probability and sampled per word.
///
/// Uses the classic dyadic-composition trick: `p` rounds to 16 fraction
/// bits `frac = 0.b₁…b₁₆`, and folding random words from the least
/// significant fraction bit upward — a set bit ORs the draw in
/// (`prob' = ½ + ½·prob`), a clear bit ANDs it (`prob' = ½·prob`) — yields
/// exactly that per-bit probability. A mask whose `frac` is 0 or reaches
/// 65536 is constant and draws nothing; any other takes exactly 16 draws,
/// whatever the word's width. The plan stores each step's choice as an
/// all-ones or all-zeros word, so the fold is branch-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BernoulliMask {
    /// `Some(mask)` when the mask is constant and needs no draws.
    constant: Option<u64>,
    /// Per fold step: all ones where the fraction bit is set.
    or_steps: [u64; 16],
}

impl BernoulliMask {
    /// Plan masks with per-bit probability `p` (clamped to `[0, 1]`).
    pub fn new(p: f64) -> Self {
        let p = p.clamp(0.0, 1.0);
        // 16 fraction bits of p, rounded to nearest.
        let frac = (p * 65536.0).round() as u32;
        let constant = match frac {
            0 => Some(0),
            f if f >= 65536 => Some(u64::MAX),
            _ => None,
        };
        let mut or_steps = [0u64; 16];
        for (i, step) in or_steps.iter_mut().enumerate() {
            *step = 0u64.wrapping_sub(u64::from((frac >> i) & 1));
        }
        Self { constant, or_steps }
    }

    /// Draw one mask: no draws for a constant mask, exactly 16 otherwise.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> u64 {
        if let Some(mask) = self.constant {
            return mask;
        }
        let mut mask = 0u64;
        for &or in &self.or_steps {
            let r = rng.next_u64();
            // or = !0: r | mask; or = 0: r & mask.
            mask = (r & mask) | (or & (r | mask));
        }
        mask
    }
}

/// Width-aware convenience wrapper bundling all surgery operations for one
/// datatype width, so pattern generators don't thread `width` through every
/// call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitSurgeon {
    width: u32,
}

impl BitSurgeon {
    /// Create a surgeon for `width`-bit encodings (8, 16 or 32).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 64.
    pub fn new(width: u32) -> Self {
        assert!(width > 0 && width <= 64, "unsupported bit width {width}");
        Self { width }
    }

    /// The configured word width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// See [`zero_lsbs`].
    #[inline]
    pub fn zero_lsbs(&self, x: u64, k: u32) -> u64 {
        zero_lsbs(x, k, self.width)
    }

    /// See [`zero_msbs`].
    #[inline]
    pub fn zero_msbs(&self, x: u64, k: u32) -> u64 {
        zero_msbs(x, k, self.width)
    }

    /// See [`randomize_lsbs`].
    #[inline]
    pub fn randomize_lsbs(&self, x: u64, k: u32, rng: &mut Xoshiro256pp) -> u64 {
        randomize_lsbs(x, k, self.width, rng)
    }

    /// See [`randomize_msbs`].
    #[inline]
    pub fn randomize_msbs(&self, x: u64, k: u32, rng: &mut Xoshiro256pp) -> u64 {
        randomize_msbs(x, k, self.width, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_partition_the_word() {
        for width in [8u32, 16, 32] {
            for k in 0..=width {
                assert_eq!(
                    lsb_mask(k, width) | msb_mask(width - k, width),
                    lsb_mask(width, width),
                    "k={k} width={width}"
                );
                assert_eq!(lsb_mask(k, width) & msb_mask(width - k, width), 0);
            }
        }
    }

    #[test]
    fn zeroing_is_idempotent() {
        let x = 0xDEAD_BEEFu64;
        for k in [0u32, 1, 7, 16, 31, 32] {
            assert_eq!(zero_lsbs(zero_lsbs(x, k, 32), k, 32), zero_lsbs(x, k, 32));
            assert_eq!(zero_msbs(zero_msbs(x, k, 32), k, 32), zero_msbs(x, k, 32));
        }
    }

    #[test]
    fn zeroing_only_touches_target_field() {
        let x = 0xFFFFu64;
        assert_eq!(zero_lsbs(x, 4, 16), 0xFFF0);
        assert_eq!(zero_msbs(x, 4, 16), 0x0FFF);
        // Bits above `width` are never granted by the mask helpers.
        assert_eq!(zero_msbs(0xFF_FFFF, 4, 16) & 0xFFFF, 0x0FFF);
    }

    #[test]
    fn full_width_zeroing_clears_word() {
        assert_eq!(zero_lsbs(0xABCD, 16, 16), 0);
        assert_eq!(zero_msbs(0xABCD, 16, 16), 0);
        assert_eq!(zero_lsbs(0xAB, 8, 8), 0);
    }

    #[test]
    fn randomize_lsbs_preserves_msbs() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let x = 0xA5A5u64;
        for k in 0..=16u32 {
            let y = randomize_lsbs(x, k, 16, &mut rng);
            assert_eq!(y >> k, x >> k, "high bits disturbed at k={k}");
            assert_eq!(y >> 16, 0, "bits above width appeared");
        }
    }

    #[test]
    fn randomize_msbs_preserves_lsbs() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let x = 0x5A5Au64;
        for k in 0..=16u32 {
            let y = randomize_msbs(x, k, 16, &mut rng);
            let keep = 16 - k;
            let mask = if keep == 0 { 0 } else { (1u64 << keep) - 1 };
            assert_eq!(y & mask, x & mask, "low bits disturbed at k={k}");
        }
    }

    #[test]
    fn bernoulli_mask_density_tracks_p() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        for &p in &[0.1, 0.25, 0.5, 0.9] {
            let trials = 2000;
            let ones: u64 = (0..trials)
                .map(|_| BernoulliMask::new(p).sample(&mut rng).count_ones() as u64)
                .sum();
            let density = ones as f64 / (trials as f64 * 64.0);
            assert!(
                (density - p).abs() < 0.01,
                "density {density} far from p={p}"
            );
        }
    }

    #[test]
    fn surgeon_matches_free_functions() {
        let mut r1 = Xoshiro256pp::seed_from_u64(5);
        let mut r2 = Xoshiro256pp::seed_from_u64(5);
        let s = BitSurgeon::new(16);
        let x = 0xBEEFu64;
        assert_eq!(s.zero_lsbs(x, 5), zero_lsbs(x, 5, 16));
        assert_eq!(s.zero_msbs(x, 5), zero_msbs(x, 5, 16));
        assert_eq!(
            s.randomize_lsbs(x, 5, &mut r1),
            randomize_lsbs(x, 5, 16, &mut r2)
        );
    }

    #[test]
    fn bernoulli_plan_matches_the_per_call_fold() {
        // The branchy per-call fold the plan replaced.
        fn fold(p: f64, rng: &mut Xoshiro256pp) -> u64 {
            let frac = (p.clamp(0.0, 1.0) * 65536.0).round() as u32;
            if frac == 0 {
                return 0;
            }
            if frac >= 65536 {
                return u64::MAX;
            }
            let mut mask = 0u64;
            for i in 0..16 {
                let r = rng.next_u64();
                mask = if (frac >> i) & 1 == 1 {
                    r | mask
                } else {
                    r & mask
                };
            }
            mask
        }
        for &p in &[
            0.0,
            1e-6,
            1.0 / 65536.0,
            0.01,
            0.25,
            0.5,
            0.7,
            1.0 - 1e-6,
            1.0,
        ] {
            let plan = BernoulliMask::new(p);
            let mut r1 = Xoshiro256pp::seed_from_u64(p.to_bits());
            let mut r2 = r1;
            for _ in 0..64 {
                assert_eq!(plan.sample(&mut r1), fold(p, &mut r2), "p={p}");
            }
            assert_eq!(r1, r2, "RNG end state at p={p}");
        }
        // Probabilities that round to 0 or 1 draw nothing.
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let before = rng;
        assert_eq!(BernoulliMask::new(1e-6).sample(&mut rng), 0);
        assert_eq!(BernoulliMask::new(1.0).sample(&mut rng), u64::MAX);
        assert_eq!(rng, before);
    }

    #[test]
    #[should_panic(expected = "unsupported bit width")]
    fn surgeon_rejects_zero_width() {
        BitSurgeon::new(0);
    }
}

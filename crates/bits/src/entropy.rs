//! Shannon entropy over symbol histograms.
//!
//! Entropy is the cheapest statistic known to track input-dependent
//! dynamic power: Bhalachandra et al. show FPU/GPU power rising with the
//! entropy level of the operand stream, and this reproduction's power
//! model agrees (high-entropy operands toggle more latch bits per MAC).
//! The power-prediction features in `wm-predict` are built on the
//! histogram counters here.
//!
//! Counters are exact integer histograms, so accumulation is associative:
//! two histograms built over disjoint chunks of a stream merge into
//! exactly the histogram of the whole stream, which is what makes the
//! prediction features bit-identical across worker counts.

/// Shannon entropy in bits/symbol of a histogram of symbol counts.
///
/// Zero-count bins contribute nothing; an empty histogram (all zeros) has
/// zero entropy. Bins are summed in index order, so the result is a pure
/// function of the counts — no floating-point order sensitivity across
/// identical histograms.
pub fn histogram_entropy(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total_f = total as f64;
    let mut h = 0.0;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / total_f;
            h -= p * p.log2();
        }
    }
    h
}

/// Exact byte histogram of a symbol stream — the accumulator behind
/// [`byte_entropy`]. Merging two histograms is exact (integer addition),
/// so chunked accumulation over a stream is bit-identical to a single
/// pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteHistogram {
    counts: [u64; 256],
}

impl Default for ByteHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl ByteHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { counts: [0; 256] }
    }

    /// Count every byte of `bytes`.
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.counts[usize::from(b)] += 1;
        }
    }

    /// Count the low `width_bytes` bytes of an encoded word (little-endian
    /// byte order; encodings occupy the low bits of the word).
    #[inline]
    pub fn add_word(&mut self, word: u64, width_bytes: usize) {
        debug_assert!(width_bytes <= 8);
        for i in 0..width_bytes {
            self.counts[usize::from((word >> (8 * i)) as u8)] += 1;
        }
    }

    /// Add per-byte counts gathered elsewhere (exact): bin `b` grows by
    /// `counts[b]`.
    pub fn add_counts(&mut self, counts: &[u64; 256]) {
        for (a, b) in self.counts.iter_mut().zip(counts) {
            *a += b;
        }
    }

    /// Fold another histogram in (exact).
    pub fn merge(&mut self, other: &ByteHistogram) {
        self.add_counts(&other.counts);
    }

    /// Total symbols counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Shannon entropy of the histogram, bits/byte in `[0, 8]`.
    pub fn entropy(&self) -> f64 {
        histogram_entropy(&self.counts)
    }

    /// The raw bin counts.
    pub fn counts(&self) -> &[u64; 256] {
        &self.counts
    }
}

/// Shannon entropy (bits/byte) of a byte stream, in `[0, 8]`.
pub fn byte_entropy(bytes: &[u8]) -> f64 {
    let mut h = ByteHistogram::new();
    h.add_bytes(bytes);
    h.entropy()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn constant_stream_has_zero_entropy() {
        assert_eq!(byte_entropy(&[0xAB; 1024]), 0.0);
        assert_eq!(byte_entropy(&[]), 0.0);
    }

    #[test]
    fn uniform_bytes_approach_eight_bits() {
        // Exactly uniform: every byte value once.
        let all: Vec<u8> = (0..=255).collect();
        assert!((byte_entropy(&all) - 8.0).abs() < 1e-12);
        // PRNG bytes: close to 8 bits.
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let bytes: Vec<u8> = (0..1 << 16).map(|_| rng.next_u64() as u8).collect();
        assert!(byte_entropy(&bytes) > 7.9);
    }

    #[test]
    fn two_symbol_stream_is_one_bit() {
        let bytes: Vec<u8> = (0..100).map(|i| if i % 2 == 0 { 0 } else { 255 }).collect();
        assert!((byte_entropy(&bytes) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chunked_histogram_merge_is_exact() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let bytes: Vec<u8> = (0..4097).map(|_| rng.next_u64() as u8).collect();
        let mut whole = ByteHistogram::new();
        whole.add_bytes(&bytes);
        let mut merged = ByteHistogram::new();
        for chunk in bytes.chunks(129) {
            let mut part = ByteHistogram::new();
            part.add_bytes(chunk);
            merged.merge(&part);
        }
        assert_eq!(whole, merged);
        assert_eq!(whole.entropy().to_bits(), merged.entropy().to_bits());
    }

    #[test]
    fn add_word_counts_low_bytes_only() {
        let mut h = ByteHistogram::new();
        h.add_word(0xAABB_CCDD, 2); // counts 0xDD and 0xCC only
        assert_eq!(h.total(), 2);
        assert_eq!(h.counts()[0xDD], 1);
        assert_eq!(h.counts()[0xCC], 1);
        assert_eq!(h.counts()[0xBB], 0);
    }

    #[test]
    fn histogram_entropy_of_skewed_counts() {
        // p = [1/2, 1/4, 1/4] -> H = 1.5 bits.
        assert!((histogram_entropy(&[2, 1, 1]) - 1.5).abs() < 1e-12);
        assert_eq!(histogram_entropy(&[0, 0, 0]), 0.0);
    }
}

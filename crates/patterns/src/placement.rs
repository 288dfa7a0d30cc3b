//! §IV.C placement transforms: partial sorting.
//!
//! The paper defines partial sorting as: *"Sorting n percent means that the
//! lowest n percent of values are sorted into the first n percent of
//! indices (row-wise)."* The remaining values keep their original relative
//! order in the remaining indices.
//!
//! Three layouts are studied:
//!
//! * **into rows** — indices counted in row-major order over the whole
//!   matrix ([`sort_into_rows`]);
//! * **into columns** — indices counted in column-major order
//!   ([`sort_into_cols`]);
//! * **within rows** — each row independently partially sorted
//!   ([`sort_within_rows`]).
//!
//! The paper's fourth variant, *sorted and aligned* (Fig. 5b), is not a
//! different matrix pattern: it is [`sort_into_rows`] on both operands with
//! the GEMM-level B-transposition enabled, so the kernel multiplies low
//! values with low values. That switch lives in the kernel configuration.

use wm_matrix::Matrix;

/// Sort the lowest `fraction` of `data`'s values into the leading
/// `fraction` of its indices (ascending); the remaining values keep their
/// original relative order in the tail.
///
/// `fraction` is clamped to `[0, 1]`. With `fraction == 1.0` the slice is
/// fully sorted ascending. Ties at the selection boundary are broken by
/// original index, so the function is fully deterministic.
pub fn sort_lowest_fraction(data: &mut [f32], fraction: f64) {
    PartialSorter::default().sort(data, fraction);
}

/// Partially sort a matrix in row-major index order (Fig. 5a/5b pattern).
pub fn sort_into_rows(m: &mut Matrix, fraction: f64) {
    sort_lowest_fraction(m.as_mut_slice(), fraction);
}

/// Partially sort a matrix in column-major index order (Fig. 5c pattern):
/// the lowest values fill the leading *columns*.
pub fn sort_into_cols(m: &mut Matrix, fraction: f64) {
    let mut t = m.transposed();
    sort_lowest_fraction(t.as_mut_slice(), fraction);
    *m = t.transposed();
}

/// Partially sort each row independently (Fig. 5d pattern).
pub fn sort_within_rows(m: &mut Matrix, fraction: f64) {
    let mut sorter = PartialSorter::default();
    for r in 0..m.rows() {
        sorter.sort(m.row_mut(r), fraction);
    }
}

/// Below this many keys a comparison sort of the `u32` keys beats the
/// radix sort's three 2048-bucket histograms (the crossover measured on
/// Gaussian FP32 keys on a 2-vCPU x86-64 host).
const RADIX_MIN: usize = 1024;

/// The `f32::total_cmp` order as an unsigned key: positives get the sign
/// bit set, negatives have every bit inverted. The map is a bijection, so
/// equal keys are equal bits and any sort of the keys is *the* sort.
#[inline(always)]
fn sort_key(v: f32) -> u32 {
    let b = v.to_bits();
    b ^ ((((b as i32) >> 31) as u32) | 0x8000_0000)
}

/// Inverse of [`sort_key`].
#[inline(always)]
fn from_key(k: u32) -> f32 {
    f32::from_bits(k ^ ((((!k as i32) >> 31) as u32) | 0x8000_0000))
}

/// Scratch buffers for partial sorts, reused across the rows of a matrix.
#[derive(Default)]
struct PartialSorter {
    /// The slice's keys in index order.
    keys: Vec<u32>,
    /// A copy for selection, then the unselected keys in index order.
    rest: Vec<u32>,
    /// The selected keys, then sorted.
    low: Vec<u32>,
    /// The radix sort's ping-pong buffer.
    scratch: Vec<u32>,
}

impl PartialSorter {
    /// [`sort_lowest_fraction`] on `data`.
    ///
    /// The `k` lowest `(value, index)` pairs are every key below the
    /// `k`-th smallest key `t` plus the first `k - below` keys equal to
    /// `t` in index order. One branch-free pass writes each key to both
    /// the low and the rest buffer and advances one cursor; the low keys
    /// are then sorted.
    fn sort(&mut self, data: &mut [f32], fraction: f64) {
        let n = data.len();
        let k = (fraction.clamp(0.0, 1.0) * n as f64).round() as usize;
        if k == 0 || n == 0 {
            return;
        }
        self.keys.clear();
        self.keys.extend(data.iter().map(|&v| sort_key(v)));
        if k >= n {
            radix_sort(&mut self.keys, &mut self.scratch);
            for (d, &key) in data.iter_mut().zip(&self.keys) {
                *d = from_key(key);
            }
            return;
        }
        self.rest.clear();
        self.rest.extend_from_slice(&self.keys);
        let t = *self.rest.select_nth_unstable(k - 1).1;
        let below = self.keys.iter().filter(|&&key| key < t).count();
        let mut ties = k - below;
        // One slot of slack each: a key is written before its cursor moves.
        self.rest.resize(n - k + 1, 0);
        self.low.clear();
        self.low.resize(k + 1, 0);
        let (mut lo, mut hi) = (0, 0);
        for &key in &self.keys {
            let eq = key == t;
            let take = (key < t) | (eq & (ties > 0));
            ties -= usize::from(eq & take);
            self.low[lo] = key;
            self.rest[hi] = key;
            lo += usize::from(take);
            hi += usize::from(!take);
        }
        self.low.truncate(k);
        radix_sort(&mut self.low, &mut self.scratch);
        let (head, tail) = data.split_at_mut(k);
        for (d, &key) in head.iter_mut().zip(&self.low) {
            *d = from_key(key);
        }
        for (d, &key) in tail.iter_mut().zip(&self.rest) {
            *d = from_key(key);
        }
    }
}

/// Sort `keys` ascending: LSD radix sort over three 11-bit digits (all
/// three histograms in one counting pass), skipping a digit every key
/// shares — FP16 and INT8 values leave the low digit zero. Short inputs
/// use a comparison sort.
fn radix_sort(keys: &mut [u32], scratch: &mut Vec<u32>) {
    const BITS: u32 = 11;
    const MASK: u32 = (1 << BITS) - 1;
    let n = keys.len();
    if n < RADIX_MIN {
        keys.sort_unstable();
        return;
    }
    let mut counts = [[0u32; 1 << BITS]; 3];
    for &key in keys.iter() {
        counts[0][(key & MASK) as usize] += 1;
        counts[1][((key >> BITS) & MASK) as usize] += 1;
        counts[2][(key >> (2 * BITS)) as usize] += 1;
    }
    scratch.clear();
    scratch.resize(n, 0);
    let (mut src, mut dst) = (keys, scratch.as_mut_slice());
    let mut moved = false;
    for (d, offsets) in counts.iter_mut().enumerate() {
        if offsets.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut sum = 0;
        for o in offsets.iter_mut() {
            let count = *o;
            *o = sum;
            sum += count;
        }
        let shift = BITS * d as u32;
        for &key in src.iter() {
            let b = ((key >> shift) & MASK) as usize;
            dst[offsets[b] as usize] = key;
            offsets[b] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        moved = !moved;
    }
    if moved {
        // The sorted keys sit in the scratch buffer.
        dst.copy_from_slice(src);
    }
}

/// Count of adjacent inversions (`data[i] > data[i+1]`) — a sortedness
/// measure used by tests and the optimizer's transform search.
pub fn adjacent_inversions(data: &[f32]) -> usize {
    data.windows(2).filter(|w| w[0] > w[1]).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_bits::Xoshiro256pp;
    use wm_numerics::Gaussian;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut g = Gaussian::new(0.0, 210.0);
        Matrix::from_fn(rows, cols, |_, _| g.sample_f32(&mut rng))
    }

    fn sorted_copy(values: &[f32]) -> Vec<f32> {
        let mut v = values.to_vec();
        v.sort_unstable_by(f32::total_cmp);
        v
    }

    #[test]
    fn zero_fraction_is_identity() {
        let base = random_matrix(8, 8, 1);
        let mut m = base.clone();
        sort_into_rows(&mut m, 0.0);
        assert_eq!(m, base);
        sort_into_cols(&mut m, 0.0);
        assert_eq!(m, base);
        sort_within_rows(&mut m, 0.0);
        assert_eq!(m, base);
    }

    #[test]
    fn full_fraction_sorts_completely() {
        let mut m = random_matrix(8, 8, 2);
        sort_into_rows(&mut m, 1.0);
        assert_eq!(adjacent_inversions(m.as_slice()), 0);
    }

    #[test]
    fn sorting_preserves_the_multiset() {
        let base = random_matrix(16, 16, 3);
        for fraction in [0.25, 0.5, 0.75, 1.0] {
            let mut m = base.clone();
            sort_into_rows(&mut m, fraction);
            assert_eq!(sorted_copy(m.as_slice()), sorted_copy(base.as_slice()));
        }
    }

    #[test]
    fn partial_sort_prefix_is_sorted_and_low() {
        let base = random_matrix(16, 16, 4);
        let mut m = base.clone();
        sort_into_rows(&mut m, 0.5);
        let n = m.len();
        let k = n / 2;
        let prefix = &m.as_slice()[..k];
        // Prefix ascending.
        assert_eq!(adjacent_inversions(prefix), 0);
        // Prefix is exactly the k lowest values of the original.
        assert_eq!(prefix.to_vec(), sorted_copy(base.as_slice())[..k].to_vec());
        // Tail preserves original relative order of the remaining values.
        let tail: Vec<f32> = m.as_slice()[k..].to_vec();
        let threshold = prefix[k - 1];
        let expected_tail: Vec<f32> = {
            // Values not selected, in original order. Reconstruct via the
            // same selection rule: k lowest with index tie-break.
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&i, &j| {
                base.as_slice()[i]
                    .total_cmp(&base.as_slice()[j])
                    .then(i.cmp(&j))
            });
            let chosen: std::collections::HashSet<usize> = idx[..k].iter().copied().collect();
            (0..n)
                .filter(|i| !chosen.contains(i))
                .map(|i| base.as_slice()[i])
                .collect()
        };
        assert_eq!(tail, expected_tail);
        assert!(tail.iter().all(|&v| v >= threshold));
    }

    #[test]
    fn column_sort_means_columns_ascend() {
        let mut m = random_matrix(8, 8, 5);
        sort_into_cols(&mut m, 1.0);
        // Column-major full sort: walking down column 0 then column 1 etc.
        // must be globally ascending.
        let mut prev = f32::NEG_INFINITY;
        for c in 0..m.cols() {
            for r in 0..m.rows() {
                assert!(m.get(r, c) >= prev);
                prev = m.get(r, c);
            }
        }
    }

    #[test]
    fn within_rows_sorts_rows_independently() {
        let base = random_matrix(8, 8, 6);
        let mut m = base.clone();
        sort_within_rows(&mut m, 1.0);
        for r in 0..m.rows() {
            assert_eq!(adjacent_inversions(m.row(r)), 0);
            assert_eq!(sorted_copy(m.row(r)), sorted_copy(base.row(r)));
        }
        // But the whole matrix is generally NOT globally sorted.
        assert!(adjacent_inversions(m.as_slice()) > 0);
    }

    #[test]
    fn inversions_decrease_monotonically_in_fraction() {
        let base = random_matrix(16, 16, 7);
        let mut last = usize::MAX;
        for fraction in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let mut m = base.clone();
            sort_into_rows(&mut m, fraction);
            let inv = adjacent_inversions(m.as_slice());
            assert!(
                inv <= last,
                "inversions rose from {last} to {inv} at fraction {fraction}"
            );
            last = inv;
        }
    }

    #[test]
    fn fraction_is_clamped() {
        let base = random_matrix(4, 4, 8);
        let mut m = base.clone();
        sort_into_rows(&mut m, -3.0);
        assert_eq!(m, base);
        sort_into_rows(&mut m, 7.0);
        assert_eq!(adjacent_inversions(m.as_slice()), 0);
    }

    #[test]
    fn tiny_slices_are_safe() {
        let mut empty: [f32; 0] = [];
        sort_lowest_fraction(&mut empty, 0.5);
        let mut one = [3.0f32];
        sort_lowest_fraction(&mut one, 1.0);
        assert_eq!(one, [3.0]);
    }
}

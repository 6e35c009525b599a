//! The harness's own arithmetic: order statistics, the quartile spread the
//! acceptance rule uses, and the seed derivation every input hangs off.

/// Median of `values` (mean of the two middle elements for even counts).
/// Panics on an empty slice: every caller reports a metric it measured.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 1]` of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    assert!(p > 0.0 && p <= 1.0, "percentile rank in (0, 1]");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples a percentile needs beyond it before the harness reports it.
pub const TAIL_SAMPLES: usize = 10;

/// The highest of `candidates` (ascending ranks in `(0, 1)`) that still has
/// at least [`TAIL_SAMPLES`] of the `n` samples beyond it, if any does.
pub fn highest_supported_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| n - (p * n as f64).ceil() as usize >= TAIL_SAMPLES)
        .max_by(f64::total_cmp)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them — the acceptance rule is stated in
/// those terms, so `noise` must compute the same numbers.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// FNV-1a over `bytes`, continuing from `state` ([`FNV_START`] to begin).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// The FNV-1a offset basis.
pub const FNV_START: u64 = 0xCBF2_9CE4_8422_2325;

/// SplitMix64: the harness's only randomness (read targets, update batches).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for the
    /// vertex counts used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The seed of one named stream: a pure function of the benchmark seed, a
/// label (input family or workload name) and an index (repetition). Nothing
/// else in the harness may pick a seed.
pub fn derive_seed(bench_seed: u64, label: &str, index: u64) -> u64 {
    let h = fnv1a(FNV_START, label.as_bytes());
    let mut s = SplitMix64::new(h ^ bench_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    s.next_u64();
    let mut s = SplitMix64::new(s.next_u64() ^ index);
    s.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let ranks = [0.5, 0.9, 0.95, 0.99];
        // 540 paced reads: 27 beyond p95, 5 beyond p99.
        assert_eq!(highest_supported_percentile(540, &ranks), Some(0.95));
        assert_eq!(highest_supported_percentile(1000, &ranks), Some(0.99));
        assert_eq!(highest_supported_percentile(200, &ranks), Some(0.95));
        assert_eq!(highest_supported_percentile(199, &ranks), Some(0.9));
        assert_eq!(highest_supported_percentile(20, &ranks), Some(0.5));
        assert_eq!(highest_supported_percentile(19, &ranks), None);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn seeds_are_pure_functions_of_seed_label_and_index() {
        let a = derive_seed(1, "rmat-seq", 0);
        assert_eq!(a, derive_seed(1, "rmat-seq", 0));
        let others = [
            derive_seed(2, "rmat-seq", 0),
            derive_seed(1, "rmat-epoch", 0),
            derive_seed(1, "rmat-seq", 1),
        ];
        for o in others {
            assert_ne!(a, o);
        }
    }

    #[test]
    fn below_stays_in_range_and_repeats_per_seed() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..1000 {
            let x = a.below(17);
            assert!(x < 17);
            assert_eq!(x, b.below(17));
        }
    }
}

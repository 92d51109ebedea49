//! Order statistics with the benchmark's reporting rules.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `q` in (0, 1]: the smallest sample with at
/// least `q * n` samples at or below it. Returned only when at least
/// [`MIN_BEYOND_TAIL`] samples lie beyond it, so a tail figure always
/// rests on ten or more observations. `+inf` samples (failed requests)
/// sort last and count as beyond any finite percentile.
pub fn tail_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND_TAIL {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// FNV-style hash over a sequence of 32-bit words: fast enough to
/// fingerprint a whole dataset grid, used only to compare two
/// in-process copies for equality.
pub fn hash_words(mut h: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    for w in words {
        h ^= u64::from(w);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: rank 190, ten samples (191..=200) beyond it.
        assert_eq!(tail_percentile(&xs, 0.95), Some(190.0));
        // 199 samples leave only nine beyond the 95th percentile.
        assert_eq!(tail_percentile(&xs[..199], 0.95), None);
        // p99 needs 1000.
        assert_eq!(tail_percentile(&xs, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many, 0.99), Some(990.0));
    }

    #[test]
    fn median_is_a_percentile_with_plenty_beyond() {
        let xs: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.5), Some(11.0));
        assert_eq!(tail_percentile(&xs[..19], 0.5), None);
    }

    #[test]
    fn failed_samples_sort_beyond_every_finite_latency() {
        let mut xs: Vec<f64> = (1..=190).map(f64::from).collect();
        xs.extend(std::iter::repeat_n(f64::INFINITY, 10));
        assert_eq!(tail_percentile(&xs, 0.95), Some(190.0));
        xs[0] = f64::INFINITY;
        assert_eq!(tail_percentile(&xs, 0.95), Some(f64::INFINITY));
    }

    #[test]
    fn hash_words_separates_order() {
        assert_ne!(hash_words(1, [1, 2]), hash_words(1, [2, 1]));
        assert_eq!(hash_words(1, [1, 2]), hash_words(1, [1, 2]));
    }
}

//! Order statistics for latency samples and run-to-run spreads.

/// Samples that must lie beyond a reported percentile. A percentile with
/// fewer samples above it is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `sorted`, reported only
/// when at least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Mean of the slowest `share` of `sorted` (the expected shortfall beyond
/// its `1 - share` quantile), reported only when at least [`MIN_BEYOND`]
/// samples fall in that tail. Unlike a single high percentile, it moves
/// smoothly when a run's slow samples come from two latency states (on a
/// host whose CPU speed switches every few seconds, which state a p95
/// lands in flips from run to run).
pub fn tail_mean(sorted: &[f64], share: f64) -> Option<f64> {
    let k = (sorted.len() as f64 * share).floor() as usize;
    if k < MIN_BEYOND {
        return None;
    }
    Some(mean(&sorted[sorted.len() - k..]))
}

/// Sort a sample in place (NaN-free input) and return it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let s = sorted(v.to_vec());
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so spreads read the same here as in
/// any tool that applies that definition.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 2 {
        return None;
    }
    let s = sorted(v.to_vec());
    let ld = s.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Mean of a sample (0 for an empty one).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), Some(990.0));
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        // Rank 990 of 999 leaves only 9 samples beyond it.
        assert_eq!(percentile(&s, 99.0), None);
        assert_eq!(percentile(&s, 95.0), Some(950.0));
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(10.0));
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_mean_needs_ten_samples_in_the_tail() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_mean(&s, 0.10), Some(95.5));
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_mean(&s, 0.10), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}

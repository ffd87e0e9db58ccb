//! Order statistics over timing samples.

/// The percentile ladder a tail may be reported at, highest first, as the
/// share of samples beyond each rung in parts per 10 000 (p99.99 … p75).
const TAIL_LADDER: [u64; 6] = [1, 10, 100, 500, 1_000, 2_500];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: u64 = 10;

/// The highest ladder percentile that still has at least ten of `n` samples
/// beyond it, or `None` when even p75 has fewer (report the median alone).
pub fn tail_percentile(n: usize) -> Option<f64> {
    let beyond = TAIL_LADDER.into_iter().find(|parts| n as u64 * parts >= MIN_BEYOND * 10_000)?;
    Some(100.0 - beyond as f64 / 100.0)
}

/// Sorts `samples` in place and returns them for [`percentile`] lookups.
pub fn sorted(samples: &mut [f64]) -> &[f64] {
    samples.sort_unstable_by(f64::total_cmp);
    samples
}

/// The `p`-th percentile (nearest rank, `p` in `[0, 100]`) of an ascending
/// slice; `0.0` for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The median of `samples` (mean of the two middle values for even counts);
/// `0.0` for none.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    let v = sorted(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method) — the spread rule the benchmark
/// contract applies to ten seeded runs. `None` for fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    let v = sorted(&mut v);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Cut point i of 4 on the (n + 1)-position scale, clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}

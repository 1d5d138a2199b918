//! Order statistics for latency samples and repeated runs.

/// Sorts `xs` ascending (NaN-free input).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    xs
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `q` (how many
/// observations support the tail estimate).
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// Median: middle sample, or the mean of the two middle samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile the way Python's
/// `statistics.quantiles(xs, n=4)` computes them (exclusive method), so
/// the spread printed here is the one the acceptance driver computes.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return [v, v, v];
    }
    let at = |i: usize| -> f64 {
        // position i*(n+1)/4 on a 1-based scale, clamped into the sample
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 20 samples: p95 is the 19th, one sample lies beyond it
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.95), 19.0);
        assert_eq!(beyond(20, 0.95), 1);
        assert_eq!(beyond(300, 0.95), 15);
        assert_eq!(beyond(0, 0.95), 0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let [q1, q2, q3] = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}

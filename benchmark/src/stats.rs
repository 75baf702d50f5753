//! Order statistics for latency samples.

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1) —
/// the same rule as Python's `statistics.quantiles(method="inclusive")`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The percentile ladder a tail is reported from, in per mille.
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest ladder percentile that still has at least ten samples
/// beyond it, for `n` samples; `None` below twenty samples, where even
/// the median has fewer than ten above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().find(|&&pm| n * (1000 - pm) >= 10_000).map(|&pm| pm as f64 / 10.0)
}

/// Tail percentile and tail value of a sample set, in the samples' own
/// unit. With too few samples the tail is the maximum and its
/// percentile is reported as 100.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    match tail_percentile(s.len()) {
        Some(p) => (p, quantile(&s, p / 100.0)),
        None => (100.0, s.last().copied().unwrap_or(0.0)),
    }
}

/// Interquartile range as a share of the median — the spread the
/// builder's contract measures over ten seeds. Quartiles follow
/// `statistics.quantiles(values, n=4)` (the exclusive method).
pub fn iqr_share(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: f64| {
        // Exclusive method: position k*(n+1)/4, 1-based, clamped.
        let pos = (k * (n + 1) as f64 / 4.0).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n);
        s[lo - 1] + (s[hi - 1] - s[lo - 1]) * (pos - lo as f64)
    };
    let med = quantile(&s, 0.5);
    if med == 0.0 {
        0.0
    } else {
        (at(3.0) - at(1.0)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_falls_back_to_max() {
        assert_eq!(tail(&[1.0, 5.0, 3.0]), (100.0, 5.0));
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, value) = tail(&many);
        assert_eq!(pct, 90.0);
        assert!((value - 90.1).abs() < 1e-9);
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}

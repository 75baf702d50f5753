//! Log-bucketed latency histogram.
//!
//! [`Histogram`] records `u64` samples (nanoseconds, by convention)
//! into fixed-size logarithmic buckets: values below 8 are exact, and
//! every power-of-two range above that is split into 8 linear
//! sub-buckets, bounding the relative quantile error at 12.5%. Of the
//! 496 buckets a histogram holds the contiguous range its samples have
//! fallen into — the timings of one stage or statement shape span a few
//! powers of two, a few dozen counters — plus four scalars: O(1)
//! record, mergeable, and small enough to sit inside every
//! statement-shape and pipeline-stage entry of every session's metrics
//! registry without a memory knob (all 496 would be 4 KB per entry: a
//! new stage name would cost every session that much).
//!
//! Quantiles are read back as the *upper bound* of the bucket holding
//! the requested rank (capped at the exact observed maximum), which is
//! the same contract Prometheus histograms expose.

/// log2 of the number of linear sub-buckets per power-of-two range.
const SUBBITS: u32 = 3;
/// Sub-buckets per power-of-two range.
const SUBCOUNT: u64 = 1 << SUBBITS;
/// Total buckets: 8 exact low buckets + 8 per group for msb 3..=63.
pub const NBUCKETS: usize = (SUBCOUNT as usize) * (64 - SUBBITS as usize + 1);

/// Mergeable histogram of `u64` samples, at most [`NBUCKETS`] counters.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Index of the bucket `counts[0]` counts.
    first: usize,
    /// Counts of the buckets `first..first + counts.len()`: the range
    /// samples have fallen into so far, both end buckets occupied (so
    /// equal contents are equal values, whatever order they came in).
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

/// Bucket index for a sample value.
fn bucket_index(v: u64) -> usize {
    if v < SUBCOUNT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = (v >> (msb - SUBBITS)) & (SUBCOUNT - 1);
    (((msb - SUBBITS) as u64 * SUBCOUNT) + SUBCOUNT + sub) as usize
}

/// Inclusive `[lower, upper]` value range covered by bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUBCOUNT {
        return (i, i);
    }
    let group = (i - SUBCOUNT) / SUBCOUNT; // == msb - SUBBITS
    let sub = (i - SUBCOUNT) % SUBCOUNT;
    let lower = (SUBCOUNT + sub) << group;
    let width = 1u64 << group;
    (lower, lower.saturating_add(width - 1))
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The counter of bucket `i`, the held range grown to include it.
    fn slot(&mut self, i: usize) -> &mut u64 {
        if self.counts.is_empty() {
            self.first = i;
        }
        if i < self.first {
            self.counts.splice(0..0, std::iter::repeat_n(0, self.first - i));
            self.first = i;
        }
        let at = i - self.first;
        if at >= self.counts.len() {
            self.counts.resize(at + 1, 0);
        }
        &mut self.counts[at]
    }

    /// `(bucket index, count)` over the held range, ascending.
    fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts.iter().enumerate().map(|(k, &c)| (self.first + k, c))
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        *self.slot(bucket_index(v)) += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (i, c) in other.buckets().filter(|&(_, c)| c > 0) {
            *self.slot(i) += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the sample of rank `ceil(q * count)`, capped at the
    /// exact maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.buckets() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Occupied buckets as `(upper_bound, count)` pairs in ascending
    /// bound order — the raw material for a Prometheus exposition
    /// (`_bucket{le=...}` series are the cumulative sums of these).
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets().filter(|&(_, c)| c > 0).map(|(i, c)| (bucket_bounds(i).1, c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Oracle: exact quantile over a sorted copy, using the same
    /// rank convention as `Histogram::quantile`.
    fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..8 {
            h.record(v);
        }
        assert_eq!((h.first, &h.counts), (0, &vec![1; 8]));
        assert_eq!(h.sum(), 28);
        assert_eq!(h.max(), 7);
    }

    #[test]
    fn only_the_occupied_range_is_held() {
        // Timings between 1 and 4 ms: 17 of the 496 counters.
        let mut up = Histogram::new();
        let samples = [1_000_000u64, 1_500_000, 2_200_000, 3_900_000, 4_000_000];
        samples.iter().for_each(|&v| up.record(v));
        assert_eq!(up.counts.len(), bucket_index(4_000_000) - bucket_index(1_000_000) + 1);
        assert_eq!(up.counts.len(), 17);
        // The same samples in another order, and merged from two halves,
        // are the same value: the range grows downward as well.
        let mut down = Histogram::new();
        samples.iter().rev().for_each(|&v| down.record(v));
        assert_eq!(up, down);
        let (mut low, mut high) = (Histogram::new(), Histogram::new());
        samples[..2].iter().for_each(|&v| low.record(v));
        samples[2..].iter().for_each(|&v| high.record(v));
        high.merge(&low);
        assert_eq!(high, up);
        // An outlier widens the range; merging an empty one does not.
        up.record(u64::MAX);
        assert_eq!(up.first + up.counts.len(), NBUCKETS);
        down.merge(&Histogram::new());
        assert_eq!(down.counts.len(), 17);
    }

    #[test]
    fn bucket_bounds_cover_the_u64_line_without_gaps() {
        // Consecutive buckets tile the line: each lower bound is the
        // previous upper bound + 1.
        let mut prev_upper: Option<u64> = None;
        for i in 0..NBUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi, "bucket {i}");
            if let Some(p) = prev_upper {
                if p < u64::MAX {
                    assert_eq!(lo, p + 1, "gap before bucket {i}");
                }
            } else {
                assert_eq!(lo, 0);
            }
            prev_upper = Some(hi);
        }
        assert_eq!(prev_upper, Some(u64::MAX));
    }

    #[test]
    fn relative_error_is_bounded() {
        // For any v >= 8 the bucket upper bound overestimates v by at
        // most 12.5%.
        for v in [8u64, 100, 1_000, 65_537, 1_000_000_007, u64::MAX / 3] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi);
            assert!((hi - lo) as f64 / lo as f64 <= 0.125 + 1e-12, "v={v} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1ms .. 1000ms in "microseconds"
        }
        let p50 = h.p50();
        let p99 = h.p99();
        // Within the 12.5% bucket error of the true values.
        assert!((p50 as f64 - 500_000.0).abs() / 500_000.0 <= 0.125, "p50={p50}");
        assert!((p99 as f64 - 990_000.0).abs() / 990_000.0 <= 0.125, "p99={p99}");
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.quantile(1.0), 1_000_000);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [3u64, 9, 1000, 77, 123_456] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 9, 999_999_999] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn nonzero_buckets_sum_to_count() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 50, 1_000_000] {
            h.record(v);
        }
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.iter().map(|(_, c)| c).sum::<u64>(), h.count());
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
    }

    proptest! {
        #[test]
        fn prop_bucket_bounds_contain_the_value(v in any::<u64>()) {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            prop_assert!(lo <= v && v <= hi, "v={} lo={} hi={}", v, lo, hi);
        }

        #[test]
        fn prop_quantile_lands_in_the_oracle_bucket(
            mut vs in proptest::collection::vec(0u64..2_000_000_000, 1..200),
            q in 0.0f64..1.0,
        ) {
            let mut h = Histogram::new();
            for &v in &vs {
                h.record(v);
            }
            vs.sort_unstable();
            let want = oracle_quantile(&vs, q);
            let got = h.quantile(q);
            // The histogram answers with the upper bound of the bucket
            // holding the oracle sample (possibly capped at max).
            let (lo, hi) = bucket_bounds(bucket_index(want));
            prop_assert!(
                got >= lo && got <= hi,
                "q={} want={} got={} bucket=[{},{}]", q, want, got, lo, hi
            );
        }

        #[test]
        fn prop_quantiles_are_monotone(
            vs in proptest::collection::vec(0u64..1_000_000_000, 1..100),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let mut h = Histogram::new();
            for &v in &vs {
                h.record(v);
            }
            let (lo_q, hi_q) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(h.quantile(lo_q) <= h.quantile(hi_q));
        }

        #[test]
        fn prop_merge_is_associative_and_matches_pooled(
            xs in proptest::collection::vec(0u64..1_000_000_000, 0..60),
            ys in proptest::collection::vec(0u64..1_000_000_000, 0..60),
            zs in proptest::collection::vec(0u64..1_000_000_000, 0..60),
        ) {
            let mk = |vals: &[u64]| {
                let mut h = Histogram::new();
                for &v in vals {
                    h.record(v);
                }
                h
            };
            let (x, y, z) = (mk(&xs), mk(&ys), mk(&zs));
            // (x + y) + z
            let mut left = x.clone();
            left.merge(&y);
            left.merge(&z);
            // x + (y + z)
            let mut yz = y.clone();
            yz.merge(&z);
            let mut right = x.clone();
            right.merge(&yz);
            prop_assert_eq!(&left, &right);
            // and both equal pooling the raw samples
            let mut pooled: Vec<u64> = Vec::new();
            pooled.extend(&xs);
            pooled.extend(&ys);
            pooled.extend(&zs);
            prop_assert_eq!(&left, &mk(&pooled));
        }
    }
}

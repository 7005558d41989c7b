//! Fixed-bucket log2 latency histogram with deterministic quantiles.

use std::fmt;
use std::time::Duration;

/// Number of buckets: one for zero plus one per power of two up to `u64::MAX`.
const BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram for latency-style `u64` samples
/// (conventionally nanoseconds).
///
/// Bucket `0` holds the value `0`; bucket `k > 0` holds values in
/// `[2^(k-1), 2^k)`. Quantiles report the bucket's inclusive upper bound,
/// clamped to the true recorded maximum, so they are deterministic for a
/// given sample multiset — no interpolation, no floating-point state.
///
/// The struct is `Copy` and fixed-size so it can sit inside snapshots and
/// reports without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `index`.
    fn bucket_upper(index: usize) -> u64 {
        match index {
            0 => 0,
            64.. => u64::MAX,
            _ => (1u64 << index) - 1,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Record a [`Duration`] sample in nanoseconds.
    #[inline]
    pub fn record_duration(&mut self, duration: Duration) {
        self.record(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Fold another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// The quantile `q` in `[0, 1]`: the upper bound of the first bucket at
    /// which the cumulative count reaches `ceil(q * count)`, clamped to the
    /// recorded maximum. Returns 0 for an empty histogram.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return Self::bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// Median: the upper bound of the bucket holding the middle sample,
    /// clamped to the recorded maximum (0 when empty).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub(crate) fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub(crate) fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Condense into the `Copy`-able summary embedded in control snapshots.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
            max: self.max,
        }
    }
}

/// Deterministic five-number condensation of a [`Histogram`], rendered as
/// durations (the samples are nanoseconds by convention).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Median, in nanoseconds.
    pub p50: u64,
    /// 90th percentile, in nanoseconds.
    pub p90: u64,
    /// 99th percentile, in nanoseconds.
    pub p99: u64,
    /// Largest sample, in nanoseconds.
    pub max: u64,
}

impl fmt::Display for HistogramSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={}", self.count)?;
        if self.count > 0 {
            write!(
                f,
                " p50={:?} p90={:?} p99={:?} max={:?}",
                Duration::from_nanos(self.p50),
                Duration::from_nanos(self.p90),
                Duration::from_nanos(self.p99),
                Duration::from_nanos(self.max),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
        assert_eq!(h.summary().to_string(), "n=0");
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds_clamped_to_max() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.summary().count, 100);
        assert_eq!(h.summary().max, 100);
        // Cumulative counts: 1 (≤1), 3 (≤3), 7 (≤7), 15 (≤15), 31 (≤31),
        // 63 (≤63), 100 (≤127 clamped to 100).
        assert_eq!(h.p50(), 63);
        assert_eq!(h.p90(), 100);
        assert_eq!(h.p99(), 100);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn zero_and_extreme_values_land_in_terminal_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.summary().count, 2);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.summary().max, u64::MAX);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[BUCKETS - 1], 1);
    }

    #[test]
    fn merge_is_equivalent_to_recording_both_sample_sets() {
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        let mut all = Histogram::new();
        for v in [3u64, 17, 900, 4096, 5, 0] {
            left.record(v);
            all.record(v);
        }
        for v in [250u64, 1, 1_000_000, 63] {
            right.record(v);
            all.record(v);
        }
        left.merge(&right);
        assert_eq!(left, all);
        assert_eq!(left.summary(), all.summary());
    }

    #[test]
    fn record_duration_uses_nanoseconds() {
        let mut h = Histogram::new();
        h.record_duration(Duration::from_micros(3));
        assert_eq!(h.summary().max, 3_000);
        assert_eq!(
            h.summary().to_string(),
            "n=1 p50=3µs p90=3µs p99=3µs max=3µs"
        );
    }

    #[test]
    fn quantiles_are_deterministic_under_permutation() {
        let samples = [9u64, 100, 3, 77, 2048, 511, 0, 15, 15, 15];
        let mut forward = Histogram::new();
        for &s in &samples {
            forward.record(s);
        }
        let mut backward = Histogram::new();
        for &s in samples.iter().rev() {
            backward.record(s);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.summary(), backward.summary());
    }
}

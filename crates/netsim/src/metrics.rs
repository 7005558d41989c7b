//! Throughput measurement: BGP updates handled per second.
//!
//! "We use the number of BGP update messages the DiCE-enabled router
//! handles per second as a measure of how much the performance is affected
//! while running exploration" (§4.1). The meter accumulates processed
//! counts and elapsed time, either wall-clock or virtual.

use std::time::Duration;

/// Accumulates a count of processed updates over measured time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThroughputMeter {
    updates: u64,
    elapsed: Duration,
}

impl ThroughputMeter {
    /// Records `updates` processed over `elapsed`.
    pub fn record(&mut self, updates: u64, elapsed: Duration) {
        self.updates += updates;
        self.elapsed += elapsed;
    }

    /// Folds another meter into this one, summing counts and elapsed time:
    /// the same as having recorded both meters' regions on this one.
    pub(crate) fn merge(&mut self, other: &ThroughputMeter) {
        self.updates += other.updates;
        self.elapsed += other.elapsed;
    }

    /// Updates per second; 0 when no time has been recorded.
    pub(crate) fn updates_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.updates as f64 / secs
        }
    }
}

/// The relative slowdown between a baseline and a loaded measurement,
/// reported as the percentage drop in updates/second (the paper reports an
/// 8% impact under full load).
pub fn slowdown_percent(baseline_ups: f64, loaded_ups: f64) -> f64 {
    if baseline_ups <= 0.0 {
        return 0.0;
    }
    ((baseline_ups - loaded_ups) / baseline_ups * 100.0).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded(updates: u64, secs: u64) -> ThroughputMeter {
        let mut meter = ThroughputMeter::default();
        meter.record(updates, Duration::from_secs(secs));
        meter
    }

    #[test]
    fn updates_per_second_arithmetic() {
        let mut meter = ThroughputMeter::default();
        assert_eq!(meter.updates_per_second(), 0.0);
        meter.record(151, Duration::from_secs(10));
        assert!((meter.updates_per_second() - 15.1).abs() < 1e-9);
        meter.record(149, Duration::from_secs(10));
        assert!((meter.updates_per_second() - 15.0).abs() < 1e-9);
        assert_eq!(meter, recorded(300, 20));
    }

    #[test]
    fn merge_folds_counts_and_elapsed_time() {
        let mut total = ThroughputMeter::default();
        total.merge(&recorded(100, 4));
        total.merge(&recorded(50, 6));
        assert_eq!(total, recorded(150, 10));
        assert!((total.updates_per_second() - 15.0).abs() < 1e-9);

        // Merging is equivalent to recording every region on one meter.
        let mut direct = ThroughputMeter::default();
        direct.record(100, Duration::from_secs(4));
        direct.record(50, Duration::from_secs(6));
        assert_eq!(total, direct);

        // Merging an empty meter is a no-op.
        total.merge(&ThroughputMeter::default());
        assert_eq!(total, direct);
    }

    #[test]
    fn slowdown_matches_paper_example() {
        // 15.1 updates/s without exploration, 13.9 with: ~8% impact.
        let s = slowdown_percent(15.1, 13.9);
        assert!((s - 7.947).abs() < 0.01);
        assert_eq!(slowdown_percent(0.0, 10.0), 0.0);
        assert_eq!(slowdown_percent(10.0, 12.0), 0.0);
    }
}

//! Process-level measurements and sample statistics.
//!
//! CPU time and memory come from `/proc/self/{stat,status}` so the crate
//! needs nothing beyond the standard library.

use std::time::Instant;

/// `USER_HZ`: the unit of the CPU fields of `/proc/self/stat`. Linux fixes
/// it at 100 for every architecture this repository builds on.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// Worker threads and core budget of every workload: at most two, so a run
/// on a larger machine measures the same configuration.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// User plus system CPU seconds of the whole process so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so utime (14) and stime (15) sit at 11, 12.
    let ticks = |i: usize| fields[i].parse::<f64>().expect("CPU field is a number");
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_SECOND
}

fn status_kib(key: &str) -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {key} line"))
}

/// Peak resident set size of the process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Current resident set size in bytes (`VmRSS`).
pub fn rss_bytes() -> f64 {
    status_kib("VmRSS:") * 1024.0
}

/// Wall and CPU clocks of one timed stretch.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// `(wall seconds, CPU seconds)` since `start`.
    pub fn stop(self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_seconds() - self.cpu)
    }
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The least of `values`; infinite when there are none.
pub fn least(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `pct` percent
/// of the samples at or below it.
pub fn percentile(samples: &[f64], pct: usize) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = (v.len() * pct).div_ceil(100).max(1);
    v[rank - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile.
pub fn samples_beyond(count: usize, pct: usize) -> usize {
    count - (count * pct).div_ceil(100).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=128).map(f64::from).collect();
        assert_eq!(median(&v), 64.5);
        assert_eq!(percentile(&v, 90), 116.0);
        assert_eq!(samples_beyond(128, 90), 12);
        assert_eq!(percentile(&[3.0], 90), 3.0);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.5);
        assert!(rss_bytes() > 0.0);
        assert!((1..=2).contains(&cores()));
    }
}

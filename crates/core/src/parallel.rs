//! Work-stealing fan-out of a session's observed inputs across
//! [`crate::DiceConfig::workers`] threads.
//!
//! A fleet round does not use it: it explores its nodes, and each node's
//! inputs, in order on the calling thread. A node round costs about what
//! spawning and joining a scoped thread does, so a per-round fan-out cost
//! more than it saved (see the `fleet` module).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Resolves a configured core count: `0` (the codebase-wide "all cores"
/// convention) becomes the machine's available parallelism, anything else
/// passes through.
pub(crate) fn resolve_cores(configured: usize) -> usize {
    match configured {
        0 => available_cores(),
        n => n,
    }
}

/// The machine's available parallelism, read once per process: asking the
/// OS costs tens of microseconds (it reads the cgroup quota and the
/// affinity mask).
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1)
    })
}

/// Maps `f` over every item, fanned out across `workers` threads.
///
/// Workers claim the next unprocessed index from a shared counter, so
/// uneven per-item costs balance across cores; result `i` still lands in
/// slot `i`, which keeps the output — and everything merged from it —
/// identical to the sequential map for every worker count.
pub(crate) fn fan_out<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, f) = (&next, &f);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("fan-out worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item was processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_preserves_input_order_for_every_worker_count() {
        let items: Vec<usize> = (0..37).collect();
        let expected: Vec<usize> = items.iter().map(|i| i * 2).collect();
        for workers in [0, 1, 2, 5, 64] {
            assert_eq!(
                fan_out(&items, workers, |i| i * 2),
                expected,
                "workers={workers}"
            );
        }
        let empty: Vec<usize> = Vec::new();
        assert!(fan_out(&empty, 4, |i| *i).is_empty());
    }
}

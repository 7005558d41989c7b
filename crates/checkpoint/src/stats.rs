//! Copy-on-write accounting for checkpoint forks (the §4.1
//! memory-overhead metric).

use std::fmt;

/// Copy-on-write accounting for structure-level forks (the paper's `fork`
/// model applied at data-structure granularity rather than page
/// granularity): of the `units_total` independently shareable units a fork
/// comprises — e.g. the RIB table of a router checkpoint — how many are
/// still physically shared with the process it was forked from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowForkStats {
    /// Independently shareable units in the fork.
    pub units_total: usize,
    /// Units still shared with the fork's parent.
    pub units_shared: usize,
}

impl CowForkStats {
    /// Builds stats from a `(shared, total)` pair as reported by a
    /// structure's sharing probe.
    pub fn from_sharing(shared: usize, total: usize) -> Self {
        CowForkStats {
            units_total: total,
            units_shared: shared.min(total),
        }
    }

    /// Units the fork has copied (diverged from the parent).
    pub fn units_copied(&self) -> usize {
        self.units_total - self.units_shared
    }

    /// Fraction of units still shared, in `[0, 1]`; `0.0` for an empty
    /// fork.
    pub fn shared_fraction(&self) -> f64 {
        if self.units_total == 0 {
            0.0
        } else {
            self.units_shared as f64 / self.units_total as f64
        }
    }

    /// Fraction of units copied, in `[0, 1]` — the analogue of the
    /// paper's fraction of unique pages.
    pub fn copied_fraction(&self) -> f64 {
        if self.units_total == 0 {
            0.0
        } else {
            self.units_copied() as f64 / self.units_total as f64
        }
    }
}

impl fmt::Display for CowForkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} units shared ({:.2}% copied)",
            self.units_shared,
            self.units_total,
            self.copied_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cow_fork_stats_fractions() {
        let s = CowForkStats::from_sharing(9, 10);
        assert_eq!(s.units_copied(), 1);
        assert!((s.shared_fraction() - 0.9).abs() < 1e-9);
        assert!((s.copied_fraction() - 0.1).abs() < 1e-9);
        assert!(s.to_string().contains("9/10 units shared"));
        // Clamped and empty cases.
        assert_eq!(CowForkStats::from_sharing(5, 3).units_shared, 3);
        assert_eq!(CowForkStats::default().shared_fraction(), 0.0);
        assert_eq!(CowForkStats::default().copied_fraction(), 0.0);
    }
}

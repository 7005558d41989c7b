//! Solver statistics, reported by the DiCE exploration engine.
//!
//! Counters fall into three groups:
//!
//! * **query outcomes** — how many queries were answered and how;
//! * **phase timers** — wall-clock time split by pipeline phase
//!   (preprocessing, interval propagation, enumeration/search), so batched
//!   sessions can show where a query's time went instead of lumping
//!   everything into one cumulative timer;
//! * **incremental-session counters** — pushes, pops and how much
//!   preprocessing/propagation work the assertion stack reused across
//!   queries ([`crate::incremental::IncrementalSolver`]).

use std::fmt;
use std::time::Duration;

/// Counters collected across solver queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total number of satisfiability queries.
    pub queries: u64,
    /// Queries answered `Sat`.
    pub sat: u64,
    /// Queries answered `Unsat`.
    pub unsat: u64,
    /// Queries answered `Unknown`.
    pub unknown: u64,
    /// Queries decided purely by preprocessing (constant contradiction or
    /// empty constraint set).
    pub decided_by_preprocess: u64,
    /// Queries decided by interval propagation.
    pub decided_by_propagation: u64,
    /// Queries decided by exhaustive enumeration.
    pub decided_by_enumeration: u64,
    /// Queries decided by local search.
    pub decided_by_search: u64,
    /// Total number of candidate models evaluated.
    pub candidates_evaluated: u64,
    /// Accumulated query wall-clock time in nanoseconds.
    pub total_time_ns: u64,
    /// Time spent in simplification/flattening passes, in nanoseconds.
    /// For incremental sessions this accrues at assertion time, outside
    /// `total_time_ns`.
    pub preprocess_time_ns: u64,
    /// Time spent in interval propagation, in nanoseconds.
    pub propagation_time_ns: u64,
    /// Time spent enumerating or searching for models, in nanoseconds.
    pub search_time_ns: u64,
    /// Number of simplification passes run (one per asserted term).
    pub preprocess_passes: u64,
    /// Queries answered through an incremental session (`check` calls).
    pub incremental_queries: u64,
    /// Frames pushed on incremental assertion stacks.
    pub(crate) session_pushes: u64,
    /// Frames popped from incremental assertion stacks.
    pub(crate) session_pops: u64,
    /// Constraints whose preprocessing and propagation results were reused
    /// from the assertion stack instead of being recomputed, summed over
    /// incremental queries.
    pub assertions_reused: u64,
    /// Constraints newly folded into interval domains by incremental
    /// queries.
    pub assertions_propagated: u64,
    /// Queries derived from *policy* branch sites (router-configuration
    /// filter arms) rather than message-field branches. Attributed by the
    /// exploration engine, which knows each candidate's provenance.
    pub policy_queries: u64,
    /// Of the constraint work reused from assertion stacks
    /// ([`SolverStats::assertions_reused`]), the share reused by
    /// policy-derived queries.
    pub policy_assertions_reused: u64,
}

impl SolverStats {
    /// Creates zeroed statistics.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Accumulates another statistics block into this one.
    pub fn merge(&mut self, other: &SolverStats) {
        self.queries += other.queries;
        self.sat += other.sat;
        self.unsat += other.unsat;
        self.unknown += other.unknown;
        self.decided_by_preprocess += other.decided_by_preprocess;
        self.decided_by_propagation += other.decided_by_propagation;
        self.decided_by_enumeration += other.decided_by_enumeration;
        self.decided_by_search += other.decided_by_search;
        self.candidates_evaluated += other.candidates_evaluated;
        self.total_time_ns += other.total_time_ns;
        self.preprocess_time_ns += other.preprocess_time_ns;
        self.propagation_time_ns += other.propagation_time_ns;
        self.search_time_ns += other.search_time_ns;
        self.preprocess_passes += other.preprocess_passes;
        self.incremental_queries += other.incremental_queries;
        self.session_pushes += other.session_pushes;
        self.session_pops += other.session_pops;
        self.assertions_reused += other.assertions_reused;
        self.assertions_propagated += other.assertions_propagated;
        self.policy_queries += other.policy_queries;
        self.policy_assertions_reused += other.policy_assertions_reused;
    }

    /// Records elapsed time for one query.
    pub(crate) fn record_time(&mut self, d: Duration) {
        self.total_time_ns += d.as_nanos() as u64;
    }

    /// Average time per query.
    pub(crate) fn mean_query_time(&self) -> Duration {
        match self.total_time_ns.checked_div(self.queries) {
            Some(mean) => Duration::from_nanos(mean),
            None => Duration::ZERO,
        }
    }

    /// Fraction of constraint work reused from an assertion stack across
    /// incremental queries, in `[0, 1]`. `0.0` when nothing was batched.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.assertions_reused + self.assertions_propagated;
        if total == 0 {
            return 0.0;
        }
        self.assertions_reused as f64 / total as f64
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "queries={} sat={} unsat={} unknown={} mean={:?}",
            self.queries,
            self.sat,
            self.unsat,
            self.unknown,
            self.mean_query_time()
        )?;
        let decided = self.decided_by_preprocess
            + self.decided_by_propagation
            + self.decided_by_enumeration
            + self.decided_by_search;
        if decided > 0 {
            write!(
                f,
                " decided pre/prop/enum/search={}/{}/{}/{}",
                self.decided_by_preprocess,
                self.decided_by_propagation,
                self.decided_by_enumeration,
                self.decided_by_search,
            )?;
        }
        if self.incremental_queries > 0 {
            write!(
                f,
                " incremental={} reuse={:.0}% (push/pop {}/{})",
                self.incremental_queries,
                self.reuse_rate() * 100.0,
                self.session_pushes,
                self.session_pops,
            )?;
        }
        if self.policy_queries > 0 {
            write!(
                f,
                " policy={} policy_reused={}",
                self.policy_queries, self.policy_assertions_reused,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = SolverStats {
            queries: 2,
            sat: 1,
            unsat: 1,
            ..Default::default()
        };
        let b = SolverStats {
            queries: 3,
            sat: 2,
            unknown: 1,
            incremental_queries: 3,
            assertions_reused: 5,
            assertions_propagated: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.queries, 5);
        assert_eq!(a.sat, 3);
        assert_eq!(a.unsat, 1);
        assert_eq!(a.unknown, 1);
        assert_eq!(a.incremental_queries, 3);
        assert_eq!(a.assertions_reused, 5);
    }

    #[test]
    fn mean_query_time() {
        let mut s = SolverStats::new();
        s.queries = 2;
        s.record_time(Duration::from_micros(10));
        s.record_time(Duration::from_micros(30));
        assert_eq!(s.mean_query_time(), Duration::from_micros(20));
    }

    #[test]
    fn policy_counters_merge_and_display_conditionally() {
        let mut a = SolverStats::new();
        // No policy queries: the display stays byte-identical to before.
        assert!(!a.to_string().contains("policy"));
        let b = SolverStats {
            policy_queries: 4,
            policy_assertions_reused: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.policy_queries, 4);
        assert_eq!(a.policy_assertions_reused, 7);
        let text = a.to_string();
        assert!(text.contains("policy=4"));
        assert!(text.contains("policy_reused=7"));
    }

    #[test]
    fn decided_phase_segment_renders_only_when_nonzero() {
        let zero = SolverStats::new();
        assert_eq!(
            zero.to_string(),
            "queries=0 sat=0 unsat=0 unknown=0 mean=0ns"
        );
        let s = SolverStats {
            queries: 5,
            sat: 4,
            unsat: 1,
            decided_by_propagation: 3,
            decided_by_search: 2,
            ..Default::default()
        };
        assert!(s
            .to_string()
            .contains("decided pre/prop/enum/search=0/3/0/2"));
    }

    #[test]
    fn reuse_rate_reflects_batching() {
        let mut s = SolverStats::new();
        assert_eq!(s.reuse_rate(), 0.0);
        s.assertions_reused = 3;
        s.assertions_propagated = 1;
        assert!((s.reuse_rate() - 0.75).abs() < 1e-9);
        s.incremental_queries = 2;
        let text = s.to_string();
        assert!(text.contains("incremental=2"));
        assert!(text.contains("reuse=75%"));
    }
}

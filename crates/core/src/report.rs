//! Exploration reports: what DiCE tells the operator.

use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

use dice_bgp::prefix::Ipv4Prefix;
use dice_solver::SolverStats;

use crate::checker::Fault;

/// The explored share of `2 * sites` filter-arm directions, in `[0, 1]`;
/// `1.0` when no policy site is registered.
pub(crate) fn policy_coverage(sites: usize, directions: usize) -> f64 {
    if sites == 0 {
        1.0
    } else {
        directions as f64 / (2 * sites) as f64
    }
}

/// Summary of one DiCE exploration round.
#[derive(Debug, Clone, Default)]
pub struct ExplorationReport {
    /// Observed inputs that seeded exploration.
    pub observed_inputs: usize,
    /// Observed inputs the per-round cap
    /// ([`crate::DiceConfig::max_observed_inputs`]) left unexplored: the
    /// round's observed inputs minus `observed_inputs`. Purely
    /// observational, like `elapsed`: it never reaches
    /// [`ExplorationReport::digest`].
    pub dropped_inputs: usize,
    /// Total program executions (seed + generated).
    pub runs: usize,
    /// Distinct execution paths covered.
    pub distinct_paths: usize,
    /// Exploratory inputs generated by negating branch predicates.
    pub generated_inputs: usize,
    /// Branch sites observed.
    pub branch_sites: usize,
    /// Branch sites covered in both directions.
    pub complete_sites: usize,
    /// Messages intercepted by the isolation layer across the round,
    /// announces and treat-as-withdraw revocations alike (the per-run
    /// sequences live on each [`crate::HandlerOutcome::intercepted`]).
    pub intercepted_messages: usize,
    /// Whether the live node state was verified unchanged by exploration.
    pub isolation_preserved: bool,
    /// Faults found, in discovery order: observed inputs in input order,
    /// each input's runs in execution order, checkers in registration
    /// order.
    pub faults: Vec<Fault>,
    /// Cumulative solver statistics (including incremental-session
    /// counters: batched queries, prefix reuse, push/pop volume).
    pub solver_stats: SolverStats,
    /// Worklist waves processed by the engine, summed over observed
    /// inputs.
    pub solver_waves: usize,
    /// Policy branch sites registered from filter ASTs — every `if` arm of
    /// every filter the explored handlers evaluated, whether or not the arm
    /// executed. Zero when no policies are configured.
    pub policy_sites: usize,
    /// Policy branch sites covered in both directions.
    pub policy_complete_sites: usize,
    /// Total policy (site, direction) pairs exercised, out of
    /// `2 * policy_sites`.
    pub policy_directions: usize,
    /// Wall-clock duration of the exploration.
    pub elapsed: Duration,
    /// Latency distribution of solver waves. Purely observational: like
    /// `elapsed`, wall-clock timings never reach
    /// [`ExplorationReport::digest`].
    pub wave_latency: dice_obs::Histogram,
}

impl ExplorationReport {
    /// Returns true if any fault was found.
    pub fn has_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    /// The distinct prefix ranges that can be leaked — "DiCE clearly states
    /// which prefix ranges can be leaked" (§4.2).
    pub fn leaked_prefixes(&self) -> Vec<Ipv4Prefix> {
        let set: BTreeSet<Ipv4Prefix> = self.faults.iter().map(Fault::leaked_prefix).collect();
        set.into_iter().collect()
    }

    /// Policy-branch coverage over *registered* filter arms, in `[0, 1]`:
    /// exercised (site, direction) pairs divided by `2 * policy_sites`.
    /// Unlike the branch-site counts, the denominator counts arms that never
    /// executed, so dead filter arms drag the number down.
    /// `1.0` when no policy sites are registered.
    pub fn policy_branch_coverage(&self) -> f64 {
        policy_coverage(self.policy_sites, self.policy_directions)
    }

    /// A canonical rendering of every deterministic field of the report —
    /// everything except wall-clock timings. Two rounds over the same state
    /// and inputs produce byte-identical digests regardless of worker
    /// counts or which orchestrator (single-node or fleet) ran them; the
    /// equivalence tests assert exactly that.
    pub fn digest(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let s = &self.solver_stats;
        write!(
            out,
            "observed={};runs={};paths={};generated={};sites={}/{};intercepted={};isolation={};waves={};queries={};sat={};unsat={};unknown={};incremental={};reused={}",
            self.observed_inputs,
            self.runs,
            self.distinct_paths,
            self.generated_inputs,
            self.complete_sites,
            self.branch_sites,
            self.intercepted_messages,
            self.isolation_preserved,
            self.solver_waves,
            s.queries,
            s.sat,
            s.unsat,
            s.unknown,
            s.incremental_queries,
            s.assertions_reused,
        )
        .expect("writing to a String cannot fail");
        // Policy counters only appear when policy sites were registered, so
        // policy-free rounds keep their pre-policy digests byte-identical.
        if self.policy_sites > 0 {
            write!(
                out,
                ";policy_dirs={}/{};policy_complete={};policy_queries={};policy_reused={}",
                self.policy_directions,
                2 * self.policy_sites,
                self.policy_complete_sites,
                s.policy_queries,
                s.policy_assertions_reused,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str(";faults=[");
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push('|');
            }
            write!(out, "{fault}").expect("writing to a String cannot fail");
        }
        out.push(']');
        out
    }
}

impl fmt::Display for ExplorationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DiCE exploration: {} observed input(s), {} run(s), {} distinct path(s), {} generated input(s)",
            self.observed_inputs, self.runs, self.distinct_paths, self.generated_inputs
        )?;
        writeln!(
            f,
            "  coverage: {}/{} branch sites complete; isolation preserved: {}; intercepted {} message(s)",
            self.complete_sites, self.branch_sites, self.isolation_preserved, self.intercepted_messages
        )?;
        if self.policy_sites > 0 {
            writeln!(
                f,
                "  policy: {:.0}% of filter-arm directions explored ({}/{}; {} arm(s) complete of {} registered)",
                self.policy_branch_coverage() * 100.0,
                self.policy_directions,
                2 * self.policy_sites,
                self.policy_complete_sites,
                self.policy_sites,
            )?;
        }
        writeln!(f, "  solver: {}", self.solver_stats)?;
        if self.solver_waves > 0 {
            writeln!(
                f,
                "  batching: {} wave(s); {} constraint(s) reused across sibling queries; time preprocess {:?} | propagate {:?} | search {:?}",
                self.solver_waves,
                self.solver_stats.assertions_reused,
                Duration::from_nanos(self.solver_stats.preprocess_time_ns),
                Duration::from_nanos(self.solver_stats.propagation_time_ns),
                Duration::from_nanos(self.solver_stats.search_time_ns),
            )?;
        }
        if self.faults.is_empty() {
            writeln!(f, "  no faults detected")?;
        } else {
            writeln!(f, "  {} fault(s) detected:", self.faults.len())?;
            for fault in &self.faults {
                writeln!(f, "    - {fault}")?;
            }
            let leaked: Vec<String> = self
                .leaked_prefixes()
                .iter()
                .map(|p| p.to_string())
                .collect();
            writeln!(f, "  leakable prefix ranges: {}", leaked.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::FaultKind;
    use dice_bgp::Asn;

    fn hijack(prefix: &str) -> Fault {
        Fault::new(
            "origin-hijack",
            FaultKind::PotentialHijack {
                announced: prefix.parse().expect("valid"),
                claimed_origin: Asn(17557),
                existing_prefix: "208.65.152.0/22".parse().expect("valid"),
                existing_origin: Asn(36561),
            },
        )
    }

    #[test]
    fn leaked_prefixes_are_deduplicated_and_sorted() {
        let report = ExplorationReport {
            faults: vec![
                hijack("208.65.153.0/24"),
                hijack("208.65.153.0/24"),
                hijack("208.65.152.0/24"),
            ],
            ..Default::default()
        };
        let leaked = report.leaked_prefixes();
        assert_eq!(leaked.len(), 2);
        assert!(report.has_faults());
    }

    #[test]
    fn display_mentions_faults_and_coverage() {
        let report = ExplorationReport {
            observed_inputs: 1,
            runs: 12,
            distinct_paths: 7,
            branch_sites: 4,
            complete_sites: 3,
            isolation_preserved: true,
            faults: vec![hijack("208.65.153.0/24")],
            ..Default::default()
        };
        let text = report.to_string();
        assert!(text.contains("12 run(s)"));
        assert!(text.contains("potential hijack"));
        assert!(text.contains("leakable prefix ranges"));
        assert!(
            !text.contains("batching:"),
            "no batching line without waves"
        );
        let batched = ExplorationReport {
            solver_waves: 3,
            ..ExplorationReport::default()
        };
        assert!(batched.to_string().contains("batching: 3 wave(s)"));
        assert!(text.contains("coverage: 3/4 branch sites complete"));
        let empty = ExplorationReport::default();
        assert!(empty.to_string().contains("no faults"));
    }

    #[test]
    fn digest_covers_deterministic_fields_and_ignores_timing() {
        let mut report = ExplorationReport {
            observed_inputs: 1,
            runs: 12,
            faults: vec![hijack("208.65.153.0/24")],
            ..Default::default()
        };
        let digest = report.digest();
        assert!(digest.contains("runs=12"));
        assert!(digest.contains("potential hijack"));
        // Wall-clock time never reaches the digest.
        report.elapsed = std::time::Duration::from_secs(1);
        assert_eq!(report.digest(), digest);
        // Neither does the count of inputs the cap left unexplored.
        report.dropped_inputs = 3;
        assert_eq!(report.digest(), digest);
        // Every counted field does.
        report.runs += 1;
        assert_ne!(report.digest(), digest);
    }

    #[test]
    fn policy_coverage_only_surfaces_when_sites_registered() {
        let plain = ExplorationReport {
            runs: 3,
            ..Default::default()
        };
        assert_eq!(plain.policy_branch_coverage(), 1.0);
        assert!(
            !plain.digest().contains("policy"),
            "policy-free digests stay byte-identical to the pre-policy format"
        );
        assert!(!plain.to_string().contains("policy:"));

        let policied = ExplorationReport {
            runs: 3,
            policy_sites: 4,
            policy_complete_sites: 1,
            policy_directions: 5,
            ..Default::default()
        };
        assert!((policied.policy_branch_coverage() - 0.625).abs() < 1e-9);
        let digest = policied.digest();
        assert!(digest.contains(";policy_dirs=5/8;policy_complete=1;"));
        let text = policied.to_string();
        assert!(text.contains("policy: 62% of filter-arm directions explored (5/8"));
        // Everything before and after the policy segment is unchanged.
        assert!(digest.starts_with(&plain.digest()[..plain.digest().find(";faults").unwrap()]));
        assert!(digest.ends_with(";faults=[]"));
    }
}

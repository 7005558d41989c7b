//! The exploration session: configuration plus a pluggable checker
//! registry, built once and reused across rounds.
//!
//! [`DiceBuilder`] composes a [`DiceSession`]:
//!
//! ```
//! use dice_core::{DiceBuilder, ForwardingLoopChecker};
//! use dice_symexec::EngineConfig;
//!
//! let session = DiceBuilder::new()
//!     .engine(EngineConfig::default().with_max_runs(64))
//!     .workers(2)
//!     .checker(Box::new(ForwardingLoopChecker::new()))
//!     .build();
//! assert_eq!(session.checker_names(), ["forwarding-loop"]);
//! ```
//!
//! The session owns its checkers as `Arc<dyn FaultChecker>`: they are
//! constructed exactly once at `build()` time and shared by reference
//! across the worker threads of every exploration round (the legacy
//! `Dice::run` path rebuilt its hardcoded checker each round). A session
//! with no registered checkers defaults to the paper's showcase
//! [`OriginHijackChecker`], configured from
//! [`DiceConfig::anycast_whitelist`].

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use dice_bgp::message::UpdateMessage;
use dice_bgp::route::PeerId;
use dice_router::policy::FilterSites;
use dice_router::BgpRouter;
use dice_solver::SolverStats;
use dice_symexec::{ConcolicEngine, Coverage, EngineConfig, InputValues};

use crate::checker::{Fault, FaultChecker, OriginHijackChecker};
use crate::checkpoint::RoundCheckpoint;
use crate::explorer::{CheckpointMode, DiceConfig};
use crate::handler::{HandlerOutcome, SymbolicUpdateHandler};
use crate::isolation::LiveStateFingerprint;
use crate::report::ExplorationReport;
use crate::symbolic_input::UpdateTemplate;

/// Builds a [`DiceSession`]: engine/worker configuration plus the fault
/// checker registry.
#[derive(Default)]
pub struct DiceBuilder {
    config: DiceConfig,
    checkers: Vec<Arc<dyn FaultChecker>>,
}

impl DiceBuilder {
    /// Starts from the default configuration and an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, config: DiceConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the concolic engine configuration.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.config.engine = engine;
        self
    }

    /// Sets the number of worker threads exploring observed inputs
    /// concurrently (0 = available parallelism, 1 = sequential).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the maximum number of observed inputs explored per round.
    pub fn max_observed_inputs(mut self, max: usize) -> Self {
        self.config.max_observed_inputs = max;
        self
    }

    /// Sets how handler state is materialized per observed input
    /// ([`CheckpointMode`]; shared copy-on-write round checkpoint by
    /// default). Reports are identical in every mode.
    pub fn checkpoint_mode(mut self, mode: CheckpointMode) -> Self {
        self.config.checkpoint = mode;
        self
    }

    /// Enables or disables the policy-oriented symbolic input fields
    /// (community slot, AS-path length). On by default; turning them off
    /// restores the message-field-only exploration surface, leaving filter
    /// arms gated on those attributes opaque to the solver.
    pub fn symbolic_policy_fields(mut self, enabled: bool) -> Self {
        self.config.symbolic_policy_fields = enabled;
        self
    }

    /// Sets the anycast whitelist applied by the default
    /// [`OriginHijackChecker`] (ignored once any checker is registered
    /// explicitly — configure explicit checkers directly).
    pub fn anycast_whitelist(mut self, prefixes: Vec<dice_bgp::Ipv4Prefix>) -> Self {
        self.config.anycast_whitelist = prefixes;
        self
    }

    /// Registers a fault checker. Checkers run against every explored
    /// outcome in registration order. Registering any checker replaces the
    /// default [`OriginHijackChecker`]; re-register it explicitly alongside
    /// others to keep hijack detection.
    pub fn checker(mut self, checker: Box<dyn FaultChecker>) -> Self {
        self.checkers.push(Arc::from(checker));
        self
    }

    /// Finalizes the session, constructing the checker registry once.
    pub fn build(self) -> DiceSession {
        let mut checkers = self.checkers;
        if checkers.is_empty() {
            checkers
                .push(Arc::new(OriginHijackChecker::new().with_anycast_whitelist(
                    self.config.anycast_whitelist.clone(),
                )));
        }
        DiceSession {
            config: self.config,
            checkers: checkers.into(),
        }
    }
}

impl fmt::Debug for DiceBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiceBuilder")
            .field("config", &self.config)
            .field(
                "checkers",
                &self.checkers.iter().map(|c| c.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Everything one observed input contributes to the round's report.
///
/// Produced per `(peer, update)` pair — possibly on a worker thread — and
/// merged into the [`ExplorationReport`] in input order, so the merged
/// report is byte-for-byte the one sequential exploration produces.
#[derive(Debug)]
struct InputOutcome {
    runs: usize,
    distinct_paths: usize,
    generated_inputs: usize,
    waves: usize,
    wave_latency: dice_obs::Histogram,
    solver_stats: SolverStats,
    coverage: Coverage,
    intercepted_messages: usize,
    faults: Vec<Fault>,
    /// Every run's application-level outcome, in execution order — the
    /// sequence the round-level checker pass ([`FaultChecker::check_round`])
    /// replays after per-input outcomes are merged in input order.
    outcomes: Vec<HandlerOutcome>,
}

/// A configured exploration session: engine settings plus the checker
/// registry, shared (cheaply, via `Arc`) across rounds and worker threads.
#[derive(Clone)]
pub struct DiceSession {
    config: DiceConfig,
    checkers: Arc<[Arc<dyn FaultChecker>]>,
}

impl Default for DiceSession {
    fn default() -> Self {
        DiceBuilder::new().build()
    }
}

impl fmt::Debug for DiceSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiceSession")
            .field("config", &self.config)
            .field("checkers", &self.checker_names())
            .finish()
    }
}

impl DiceSession {
    /// Starts building a session.
    pub fn builder() -> DiceBuilder {
        DiceBuilder::new()
    }

    /// The configuration in use.
    pub fn config(&self) -> &DiceConfig {
        &self.config
    }

    /// The registered checker names, in application order.
    pub fn checker_names(&self) -> Vec<&str> {
        self.checkers.iter().map(|c| c.name()).collect()
    }

    /// Returns a session sharing this session's checker registry but using
    /// `workers` exploration threads — how a fleet round keeps every node's
    /// inputs on the calling thread (`with_workers(1)`) without rebuilding
    /// checkers.
    pub fn with_workers(&self, workers: usize) -> DiceSession {
        let mut config = self.config.clone();
        config.workers = workers;
        DiceSession {
            config,
            checkers: Arc::clone(&self.checkers),
        }
    }

    /// Runs one exploration round over the live router, seeding from the
    /// given observed `(peer, update)` inputs.
    ///
    /// The live router is only read to take the checkpoint and to verify
    /// isolation afterwards; all execution happens over the round's shared
    /// copy-on-write snapshot ([`RoundCheckpoint`], captured exactly once
    /// per round and handed to every handler — or a deep clone per input
    /// under [`CheckpointMode::DeepClonePerInput`]). Observed inputs are
    /// independent of each other, so they are fanned out across
    /// [`DiceConfig::workers`] threads and their outcomes merged in input
    /// order — the report is identical to a sequential round and for every
    /// checkpoint mode.
    pub fn explore(
        &self,
        live: &BgpRouter,
        observed: &[(PeerId, UpdateMessage)],
    ) -> ExplorationReport {
        self.explore_collecting(live, observed).0
    }

    /// Like [`DiceSession::explore`], but also returns every explored
    /// outcome of the round, concatenated in input order (each input's runs
    /// in execution order) — the same sequence the round-level checker pass
    /// replays. Orchestrators stitch these into
    /// [`crate::checker::RoundOutcomes`] histories for the cross-round
    /// ([`FaultChecker::check_live`]) pass.
    pub fn explore_collecting(
        &self,
        live: &BgpRouter,
        observed: &[(PeerId, UpdateMessage)],
    ) -> (ExplorationReport, Vec<HandlerOutcome>) {
        let started = Instant::now();
        let fingerprint = LiveStateFingerprint::capture(live);
        // Checkpoint: a copy-on-write fork of the live node's state, taken
        // once for the whole round.
        let checkpoint = RoundCheckpoint::capture(live);

        let inputs = &observed[..observed.len().min(self.config.max_observed_inputs)];
        let mut report = ExplorationReport {
            observed_inputs: inputs.len(),
            ..Default::default()
        };

        // Each sending peer's import-filter site table, built once for the
        // round rather than once per input.
        let mut import_sites: Vec<(PeerId, Option<Arc<FilterSites>>)> = Vec::new();
        for (peer, _) in inputs {
            if import_sites.iter().all(|(known, _)| known != peer) {
                let sites = SymbolicUpdateHandler::import_sites_of(checkpoint.router(), *peer);
                import_sites.push((*peer, sites));
            }
        }

        // Work-stealing fan-out over inputs; outcomes land in input order,
        // so the merged report is identical to a sequential round.
        let workers = self.effective_workers(inputs.len());
        let outcomes: Vec<Option<InputOutcome>> =
            crate::parallel::fan_out(inputs, workers, |(peer, update)| {
                let sites = import_sites
                    .iter()
                    .find(|(known, _)| known == peer)
                    .and_then(|(_, sites)| sites.clone());
                self.explore_input(&checkpoint, *peer, update, sites)
            });

        let mut coverage = Coverage::new();
        let mut round_outcomes: Vec<HandlerOutcome> = Vec::new();
        for outcome in outcomes.into_iter().flatten() {
            report.runs += outcome.runs;
            report.distinct_paths += outcome.distinct_paths;
            report.generated_inputs += outcome.generated_inputs;
            report.solver_waves += outcome.waves;
            report.wave_latency.merge(&outcome.wave_latency);
            report.solver_stats.merge(&outcome.solver_stats);
            coverage.merge(&outcome.coverage);
            report.intercepted_messages += outcome.intercepted_messages;
            for fault in outcome.faults {
                if !report.faults.contains(&fault) {
                    report.faults.push(fault);
                }
            }
            round_outcomes.extend(outcome.outcomes);
        }

        // Round-level pass: sequence-aware checkers see the whole round's
        // outcomes, concatenated in input order (each input's runs already
        // in execution order) — deterministic for every worker count.
        for fault in self.check_round(&round_outcomes, checkpoint.router().rib()) {
            if !report.faults.contains(&fault) {
                report.faults.push(fault);
            }
        }

        report.branch_sites = coverage.site_count();
        report.complete_sites = coverage.complete_sites();
        report.policy_sites = coverage.policy_site_count();
        report.policy_complete_sites = coverage.policy_complete_sites();
        report.policy_directions = coverage.policy_directions_covered();
        report.isolation_preserved = fingerprint.matches(live);
        report.elapsed = started.elapsed();
        (report, round_outcomes)
    }

    /// Explores one observed input from the checkpointed state.
    ///
    /// Returns `None` for inputs that yield no symbolic template (pure
    /// withdrawals). Takes only shared references so input exploration can
    /// run on worker threads. Under the default [`CheckpointMode::CowRound`]
    /// the handler shares the round snapshot (a reference-count bump);
    /// under [`CheckpointMode::DeepClonePerInput`] it gets a full copy, the
    /// pre-copy-on-write reference path.
    fn explore_input(
        &self,
        checkpoint: &RoundCheckpoint,
        peer: PeerId,
        update: &UpdateMessage,
        import_sites: Option<Arc<FilterSites>>,
    ) -> Option<InputOutcome> {
        let template = UpdateTemplate::from_update(update)?
            .with_policy_fields(self.config.symbolic_policy_fields);
        let seed: InputValues = template.seed();
        let handler_checkpoint = match self.config.checkpoint {
            CheckpointMode::DeepClonePerInput => {
                RoundCheckpoint::from_router(checkpoint.router().deep_clone())
            }
            _ => checkpoint.clone(),
        };
        let mut handler = SymbolicUpdateHandler::with_import_sites(
            handler_checkpoint,
            peer,
            template,
            import_sites,
        );
        let engine = ConcolicEngine::with_config(self.config.engine);
        let mut exploration = engine.explore(&mut handler, &[seed]);

        let mut faults = Vec::new();
        for run in &exploration.runs {
            for fault in self.check_outcome(&run.output, checkpoint.router().rib()) {
                if !faults.contains(&fault) {
                    faults.push(fault);
                }
            }
        }

        Some(InputOutcome {
            runs: exploration.stats.runs,
            distinct_paths: exploration.distinct_paths(),
            generated_inputs: exploration.generated_inputs().len(),
            waves: exploration.stats.waves,
            wave_latency: exploration.wave_latency,
            solver_stats: exploration.solver_stats,
            coverage: std::mem::replace(&mut exploration.coverage, Coverage::new()),
            intercepted_messages: handler.interceptor().len(),
            faults,
            outcomes: exploration.into_outputs(),
        })
    }

    /// Applies every registered checker to one already-computed outcome, in
    /// registration order.
    pub fn check_outcome(&self, outcome: &HandlerOutcome, rib: &dice_router::Rib) -> Vec<Fault> {
        self.checkers
            .iter()
            .filter_map(|checker| checker.check(outcome, rib))
            .collect()
    }

    /// Applies every registered checker's round-level hook
    /// ([`FaultChecker::check_round`]) to a whole round's outcome sequence,
    /// in registration order. [`DiceSession::explore`] calls this once per
    /// round, after the per-outcome pass.
    pub fn check_round(&self, outcomes: &[HandlerOutcome], rib: &dice_router::Rib) -> Vec<Fault> {
        self.checkers
            .iter()
            .flat_map(|checker| checker.check_round(outcomes, rib))
            .collect()
    }

    /// Applies every registered checker's cross-round hook
    /// ([`FaultChecker::check_live`]) to a rolling history of per-round
    /// outcome windows, in registration order. Live orchestrators call this
    /// after each round with their bounded [`crate::checker::RoundOutcomes`]
    /// history; the
    /// default hook returns nothing, so sessions without temporal checkers
    /// pay nothing.
    pub fn check_live(&self, rounds: &[crate::checker::RoundOutcomes]) -> Vec<Fault> {
        self.checkers
            .iter()
            .flat_map(|checker| checker.check_live(rounds))
            .collect()
    }

    /// The worker count for a round over `input_count` inputs: the
    /// configured count, or available parallelism when the configuration
    /// says `0`, never more threads than inputs.
    pub(crate) fn effective_workers(&self, input_count: usize) -> usize {
        crate::parallel::resolve_cores(self.config.workers)
            .min(input_count)
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::ForwardingLoopChecker;
    use dice_bgp::attributes::RouteAttrs;
    use dice_bgp::AsPath;
    use dice_netsim::topology::{addr, figure2_topology, CustomerFilterMode};
    use std::net::Ipv4Addr;

    fn provider(mode: CustomerFilterMode) -> BgpRouter {
        let topo = figure2_topology(mode);
        let spec = &topo.nodes()[topo.node_by_name("Provider").expect("node").0];
        let mut router = BgpRouter::new(spec.config.clone());
        router.start();
        router
    }

    #[test]
    fn empty_builder_registers_the_default_hijack_checker() {
        let session = DiceBuilder::new().build();
        assert_eq!(session.checker_names(), ["origin-hijack"]);
        assert!(format!("{session:?}").contains("origin-hijack"));
        assert!(format!("{:?}", DiceBuilder::new()).contains("DiceBuilder"));
    }

    #[test]
    fn registered_checkers_replace_the_default() {
        let session = DiceBuilder::new()
            .checker(Box::new(ForwardingLoopChecker::new()))
            .checker(Box::new(OriginHijackChecker::new()))
            .build();
        assert_eq!(
            session.checker_names(),
            ["forwarding-loop", "origin-hijack"]
        );
    }

    #[test]
    fn builder_setters_reach_the_config() {
        let session = DiceBuilder::new()
            .engine(EngineConfig::default().with_max_runs(7))
            .workers(3)
            .max_observed_inputs(5)
            .anycast_whitelist(vec!["0.0.0.0/0".parse().expect("valid")])
            .build();
        assert_eq!(session.config().engine.max_runs, 7);
        assert_eq!(session.config().workers, 3);
        assert_eq!(session.config().max_observed_inputs, 5);
        assert_eq!(session.config().anycast_whitelist.len(), 1);
    }

    #[test]
    fn with_workers_shares_the_checker_registry() {
        let session = DiceBuilder::new().workers(1).build();
        let wide = session.with_workers(4);
        assert_eq!(wide.config().workers, 4);
        assert_eq!(session.config().workers, 1);
        assert!(Arc::ptr_eq(&session.checkers[0], &wide.checkers[0]));
    }

    #[test]
    fn route_oscillation_checker_fires_through_a_session_round() {
        // A customer import filter gated on *attributes only* (origin AS,
        // MED): every exploratory variant keeps the announced prefix, so
        // generated inputs alternate between acceptance (re-announce) and
        // rejection (revoke the installed route) of the very same prefix —
        // the node would flap it. Only the round-level sequence pass can
        // see that.
        let filter = dice_router::policy::parse_filter(
            r#"filter customer_in {
                if source_as = 17557 then accept;
                if med > 100 then accept;
                reject;
            }"#,
        )
        .expect("valid filter");
        let topo = dice_netsim::topology::figure2_topology_with_customer_filter(filter);
        let spec = &topo.nodes()[topo.node_by_name("Provider").expect("node").0];
        let mut router = BgpRouter::new(spec.config.clone());
        router.start();

        let customer = router.peer_by_address(addr::CUSTOMER).expect("peer");
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence([17557, 17557]);
        attrs.next_hop = Ipv4Addr::new(10, 0, 1, 1);
        let observed = UpdateMessage::announce(vec!["41.1.0.0/16".parse().expect("valid")], &attrs);
        router.handle_update(customer, &observed);
        assert!(router
            .rib()
            .best_route(&"41.1.0.0/16".parse().expect("valid"))
            .is_some());

        let session = DiceBuilder::new()
            .checker(Box::new(crate::checker::RouteOscillationChecker::new()))
            .build();
        let report = session.explore(&router, &[(customer, observed.clone())]);
        let fault = report
            .faults
            .iter()
            .find(|f| f.checker == "route-oscillation")
            .unwrap_or_else(|| panic!("oscillation must be flagged:\n{report}"));
        assert_eq!(fault.leaked_prefix().to_string(), "41.1.0.0/16");
        assert!(report.isolation_preserved);

        // Per-outcome checkers alone cannot: the same round through the
        // default (hijack-only) session stays clean.
        let hijack_only = DiceBuilder::new().build();
        let report = hijack_only.explore(&router, &[(customer, observed)]);
        assert!(report
            .faults
            .iter()
            .all(|f| f.checker != "route-oscillation"));
    }

    #[test]
    fn forwarding_loop_checker_fires_through_a_session_round() {
        // The customer announces a block covering the peering links
        // themselves (10.0.0.0/8): with no customer filtering the Provider
        // accepts it, and the route's next hop (10.0.1.1) resolves through
        // the route — the forwarding-loop scenario, invisible to the hijack
        // checker because no covered route is installed.
        let router = provider(CustomerFilterMode::Missing);
        let customer = router.peer_by_address(addr::CUSTOMER).expect("peer");
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence([17557, 17557]);
        attrs.next_hop = Ipv4Addr::new(10, 0, 1, 1);
        let observed = UpdateMessage::announce(vec!["10.0.0.0/8".parse().expect("valid")], &attrs);

        let session = DiceBuilder::new()
            .checker(Box::new(OriginHijackChecker::new()))
            .checker(Box::new(ForwardingLoopChecker::new()))
            .build();
        let report = session.explore(&router, &[(customer, observed.clone())]);
        assert!(report.has_faults(), "loop checker must fire:\n{report}");
        assert!(report.faults.iter().any(|f| f.checker == "forwarding-loop"));
        assert!(report.faults.iter().all(|f| f.checker != "origin-hijack"));

        // The same round through a hijack-only session stays clean: the
        // fault class genuinely needs the second checker.
        let hijack_only = DiceBuilder::new().build();
        let report = hijack_only.explore(&router, &[(customer, observed)]);
        assert!(!report.has_faults());
    }
}

//! The single-node DiCE exploration entry point: [`DiceBuilder`] →
//! [`DiceSession`].
//!
//! One exploration round ([`DiceSession::explore`]) implements §2.3 end to
//! end:
//!
//! 1. take a checkpoint of the live node (a copy-on-write fork — the live
//!    router object is never touched again);
//! 2. for each previously observed input (an UPDATE message), derive the
//!    symbolic input template and run the concolic engine from the
//!    checkpointed state, which records constraints, negates them one at a
//!    time and re-executes generated inputs;
//! 3. intercept every message the exploratory executions produce;
//! 4. apply the fault checkers to every explored outcome against the
//!    checkpointed node.
//!
//! [`DiceBuilder`] composes a session — its [`DiceConfig`] plus a pluggable
//! checker registry — once, and the session is reused across rounds:
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
//! assert_eq!(session.config().workers, 2);
//! ```
//!
//! The session owns its checkers as `Arc<dyn FaultChecker>`: they are
//! constructed exactly once at `build()` time and shared by reference
//! across the worker threads of every exploration round. A session with no
//! registered checkers defaults to the paper's showcase
//! [`OriginHijackChecker`].
//!
//! A node round is one function of the session, the live router, the
//! observed inputs and a worker count. [`DiceSession::explore`] runs it
//! over [`DiceConfig::workers`] threads; a fleet round
//! ([`crate::FleetExplorer`]) runs it once per node on the calling thread.

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
use crate::handler::{HandlerOutcome, SymbolicUpdateHandler};
use crate::isolation::LiveStateFingerprint;
use crate::report::ExplorationReport;
use crate::symbolic_input::UpdateTemplate;

/// A session's configuration, read-only once the session is built: set
/// it through [`DiceBuilder`], read it back with [`DiceSession::config`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DiceConfig {
    /// Concolic engine configuration: the run budget per observed input.
    ///
    /// The engine explores on the thread that calls it, a wave of
    /// negation candidates at a time. Parallelism sits above the engine:
    /// each round fans its observed inputs out across
    /// [`DiceConfig::workers`] threads.
    pub engine: EngineConfig,
    /// Maximum number of observed inputs explored per round.
    pub max_observed_inputs: usize,
    /// Worker threads exploring observed inputs concurrently.
    ///
    /// `0` (the default) uses the machine's available parallelism; `1`
    /// forces fully sequential exploration. Observed inputs are
    /// independent of each other, so the report is identical for every
    /// worker count — only the wall clock changes.
    pub workers: usize,
}

impl Default for DiceConfig {
    fn default() -> Self {
        DiceConfig {
            engine: EngineConfig::default().with_max_runs(64),
            max_observed_inputs: 16,
            workers: 0,
        }
    }
}

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

    /// Registers a fault checker. Checkers run against every explored
    /// outcome in registration order. Registering any checker replaces the
    /// default [`OriginHijackChecker`]; re-register it explicitly alongside
    /// others to keep hijack detection, or to configure it (for example
    /// [`OriginHijackChecker::with_anycast_whitelist`]).
    pub fn checker(mut self, checker: Box<dyn FaultChecker>) -> Self {
        self.checkers.push(Arc::from(checker));
        self
    }

    /// Finalizes the session, constructing the checker registry once.
    pub fn build(self) -> DiceSession {
        let mut checkers = self.checkers;
        if checkers.is_empty() {
            checkers.push(Arc::new(OriginHijackChecker::new()));
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
    /// Every run's application-level outcome, in execution order.
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
    /// The configuration in use.
    pub fn config(&self) -> &DiceConfig {
        &self.config
    }

    /// The registered checker names, in application order.
    pub fn checker_names(&self) -> Vec<&str> {
        self.checkers.iter().map(|c| c.name()).collect()
    }

    /// Runs one exploration round over the live router, seeding from the
    /// given observed `(peer, update)` inputs.
    ///
    /// The live router is only read to take the checkpoint and to verify
    /// isolation afterwards; all execution happens over the round's shared
    /// copy-on-write snapshot ([`RoundCheckpoint`], captured exactly once
    /// per round and handed to every handler). Observed inputs are
    /// independent of each other, so they are fanned out across
    /// [`DiceConfig::workers`] threads and their outcomes merged in input
    /// order — the report is identical to a sequential round.
    pub fn explore(
        &self,
        live: &BgpRouter,
        observed: &[(PeerId, UpdateMessage)],
    ) -> ExplorationReport {
        let explored = observed.len().min(self.config.max_observed_inputs);
        self.node_round(live, observed, self.effective_workers(explored))
            .0
    }

    /// The node round: [`DiceSession::explore`] over `workers` threads,
    /// also returning every explored outcome of the round, concatenated in
    /// input order (each input's runs in execution order) — what a live
    /// run stitches into [`crate::RoundOutcomes`] history entries for the
    /// cross-round ([`FaultChecker::live_fold`]) pass. The report is the
    /// same for every worker count.
    pub(crate) fn node_round(
        &self,
        live: &BgpRouter,
        observed: &[(PeerId, UpdateMessage)],
        workers: usize,
    ) -> (ExplorationReport, Vec<HandlerOutcome>) {
        let started = Instant::now();
        let fingerprint = LiveStateFingerprint::capture(live);
        // Checkpoint: a copy-on-write fork of the live node's state, taken
        // once for the whole round.
        let checkpoint = RoundCheckpoint::capture(live);

        let inputs = &observed[..observed.len().min(self.config.max_observed_inputs)];
        let mut report = ExplorationReport {
            observed_inputs: inputs.len(),
            dropped_inputs: observed.len() - inputs.len(),
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
    /// run on worker threads; the handler shares the round snapshot (a
    /// reference-count bump).
    fn explore_input(
        &self,
        checkpoint: &RoundCheckpoint,
        peer: PeerId,
        update: &UpdateMessage,
        import_sites: Option<Arc<FilterSites>>,
    ) -> Option<InputOutcome> {
        let template = UpdateTemplate::from_update(update)?;
        let seed: InputValues = template.seed();
        let mut handler = SymbolicUpdateHandler::with_import_sites(
            checkpoint.clone(),
            peer,
            template,
            import_sites,
        );
        let engine = ConcolicEngine::with_config(self.config.engine);
        let mut exploration = engine.explore(&mut handler, &[seed]);

        let mut faults = Vec::new();
        let mut intercepted_messages = 0;
        for run in &exploration.runs {
            intercepted_messages += run.output.intercepted.len();
            for fault in self.check_outcome(&run.output, checkpoint.router()) {
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
            intercepted_messages,
            faults,
            outcomes: exploration.into_outputs(),
        })
    }

    /// Applies every registered checker to one already-computed outcome,
    /// against the checkpointed node, in registration order.
    fn check_outcome(&self, outcome: &HandlerOutcome, node: &BgpRouter) -> Vec<Fault> {
        self.checkers
            .iter()
            .filter_map(|checker| checker.check(outcome, node))
            .collect()
    }

    /// The cross-round check of one history in one shot: every registered
    /// checker's [`crate::LiveFold`] ([`FaultChecker::live_fold`]) folds in
    /// every entry of `rounds`, in order, with none expired, and reports,
    /// in registration order. A live orchestrator runs the same folds
    /// round by round instead, keeping only the last 64 entries. Sessions
    /// without temporal checkers report nothing.
    pub fn check_live(&self, rounds: &[crate::checker::RoundOutcomes]) -> Vec<Fault> {
        self.live_window(rounds.len()).fold_round(rounds)
    }

    /// One fold per registered temporal checker, holding at most
    /// `capacity` history entries.
    pub(crate) fn live_window(&self, capacity: usize) -> crate::checker::LiveWindow {
        crate::checker::LiveWindow::new(
            self.checkers
                .iter()
                .filter_map(|checker| checker.live_fold()),
            capacity,
        )
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
    use dice_netsim::topology::{addr, asn, figure2_topology, CustomerFilterMode};
    use std::net::Ipv4Addr;

    fn provider(mode: CustomerFilterMode) -> BgpRouter {
        let topo = figure2_topology(mode);
        let spec = &topo.nodes()[topo.node_by_name("Provider").expect("node").0];
        let mut router = BgpRouter::new(spec.config.clone());
        router.start();
        router
    }

    /// Builds the Provider router with the victim /22 installed from the
    /// Internet peer, then returns it plus the customer's observed update.
    fn scenario(mode: CustomerFilterMode) -> (BgpRouter, PeerId, UpdateMessage) {
        let mut router = provider(mode);

        // The rest of the Internet announces YouTube's /22 (origin 36561).
        let internet = router.peer_by_address(addr::INTERNET).expect("peer");
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence([asn::INTERNET, 3356, asn::VICTIM]);
        attrs.next_hop = Ipv4Addr::new(10, 0, 2, 1);
        router.handle_update(
            internet,
            &UpdateMessage::announce(vec!["208.65.152.0/22".parse().expect("valid")], &attrs),
        );

        // The customer's routine announcement of its own block — the
        // observed input DiCE derives exploratory messages from.
        let customer = router.peer_by_address(addr::CUSTOMER).expect("peer");
        let mut cattrs = RouteAttrs::default();
        cattrs.as_path = AsPath::from_sequence([asn::CUSTOMER, asn::CUSTOMER]);
        cattrs.next_hop = Ipv4Addr::new(10, 0, 1, 1);
        let observed =
            UpdateMessage::announce(vec!["41.1.0.0/16".parse().expect("valid")], &cattrs);
        (router, customer, observed)
    }

    /// One round over a single observed update.
    fn explore_one(
        session: &DiceSession,
        router: &BgpRouter,
        peer: PeerId,
        update: &UpdateMessage,
    ) -> ExplorationReport {
        session.explore(router, &[(peer, update.clone())])
    }

    /// A round with several observed inputs of different shapes: the
    /// routine customer announcement, a second customer announcement for an
    /// unrelated block, an announcement from the Internet peer, and a pure
    /// withdrawal (which yields no template).
    fn multi_input_observed(
        router: &BgpRouter,
        customer: PeerId,
        observed: &UpdateMessage,
    ) -> Vec<(PeerId, UpdateMessage)> {
        let internet = router.peer_by_address(addr::INTERNET).expect("peer");
        let mut other_attrs = RouteAttrs::default();
        other_attrs.as_path = AsPath::from_sequence([asn::CUSTOMER]);
        other_attrs.next_hop = Ipv4Addr::new(10, 0, 1, 1);
        let other =
            UpdateMessage::announce(vec!["41.128.0.0/12".parse().expect("valid")], &other_attrs);
        let mut internet_attrs = RouteAttrs::default();
        internet_attrs.as_path = AsPath::from_sequence([asn::INTERNET, 6453, 4788]);
        internet_attrs.next_hop = Ipv4Addr::new(10, 0, 2, 1);
        let transit = UpdateMessage::announce(
            vec!["202.128.0.0/12".parse().expect("valid")],
            &internet_attrs,
        );
        let withdrawal = UpdateMessage::withdraw(vec!["41.1.0.0/16".parse().expect("valid")]);
        vec![
            (customer, observed.clone()),
            (customer, other),
            (internet, transit),
            (customer, withdrawal),
            (customer, observed.clone()),
        ]
    }

    fn assert_reports_equal(a: &ExplorationReport, b: &ExplorationReport, what: &str) {
        assert_eq!(a.runs, b.runs, "{what}: runs");
        assert_eq!(a.distinct_paths, b.distinct_paths, "{what}: distinct paths");
        assert_eq!(
            a.generated_inputs, b.generated_inputs,
            "{what}: generated inputs"
        );
        assert_eq!(a.branch_sites, b.branch_sites, "{what}: branch sites");
        assert_eq!(a.complete_sites, b.complete_sites, "{what}: complete sites");
        assert_eq!(
            a.intercepted_messages, b.intercepted_messages,
            "{what}: intercepted"
        );
        assert_eq!(a.faults, b.faults, "{what}: faults (content and order)");
        assert_eq!(
            a.solver_stats.queries, b.solver_stats.queries,
            "{what}: solver queries"
        );
        assert_eq!(a.digest(), b.digest(), "{what}: digest");
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
            .build();
        assert_eq!(session.config().engine.max_runs, 7);
        assert_eq!(session.config().workers, 3);
        assert_eq!(session.config().max_observed_inputs, 5);
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

    #[test]
    fn detects_route_leak_with_erroneous_filter() {
        let (router, customer, observed) = scenario(CustomerFilterMode::Erroneous);
        let report = explore_one(&DiceSession::default(), &router, customer, &observed);
        assert!(
            report.has_faults(),
            "erroneous filter must be flagged:\n{report}"
        );
        assert!(
            report.generated_inputs > 0,
            "faults come from generated exploratory inputs"
        );
        assert!(report.isolation_preserved);
        // The leaked range covers the victim prefix space.
        assert!(report
            .leaked_prefixes()
            .iter()
            .any(|p| p.overlaps(&"208.65.152.0/22".parse().expect("valid"))));
    }

    #[test]
    fn missing_filter_gives_no_configuration_branches() {
        // With no import filter at all there is no policy code for this
        // input to exercise: exploration runs the observed input once and
        // finds nothing to negate. Detection of the "fails to filter" case
        // therefore needs at least a partially correct filter, which is the
        // configuration the paper's §4.2 experiment uses.
        let (router, customer, observed) = scenario(CustomerFilterMode::Missing);
        let report = explore_one(&DiceSession::default(), &router, customer, &observed);
        assert_eq!(report.runs, 1, "only the seed execution");
        assert_eq!(report.branch_sites, 0);
        assert!(!report.has_faults());
        assert!(report.isolation_preserved);
    }

    #[test]
    fn correct_filter_produces_no_hijack_faults() {
        let (router, customer, observed) = scenario(CustomerFilterMode::Correct);
        let report = explore_one(&DiceSession::default(), &router, customer, &observed);
        assert!(
            !report.has_faults(),
            "correct origin-pinning filter must not be flagged:\n{report}"
        );
        assert!(
            report.branch_sites > 0,
            "the filter's branches were explored"
        );
        assert!(report.isolation_preserved);
    }

    #[test]
    fn exploration_does_not_touch_live_state() {
        let (router, customer, observed) = scenario(CustomerFilterMode::Missing);
        let before_prefixes = router.rib().prefix_count();
        let before_updates = router.stats().updates_processed;
        let report = explore_one(&DiceSession::default(), &router, customer, &observed);
        assert_eq!(router.rib().prefix_count(), before_prefixes);
        assert_eq!(router.stats().updates_processed, before_updates);
        assert!(report.isolation_preserved);
        assert!(
            report.intercepted_messages > 0,
            "exploratory messages were intercepted"
        );
    }

    #[test]
    fn anycast_whitelist_suppresses_reports() {
        let (router, customer, observed) = scenario(CustomerFilterMode::Erroneous);
        let whitelisted = OriginHijackChecker::new()
            .with_anycast_whitelist(vec!["0.0.0.0/0".parse().expect("valid")]);
        let session = DiceBuilder::new().checker(Box::new(whitelisted)).build();
        let report = explore_one(&session, &router, customer, &observed);
        assert!(
            !report.has_faults(),
            "whitelisting everything suppresses all reports"
        );
        // The same round through the default checker reports the leak.
        let report = explore_one(&DiceSession::default(), &router, customer, &observed);
        assert!(report.has_faults());
    }

    #[test]
    fn parallel_round_equals_sequential_round() {
        let (router, customer, observed) = scenario(CustomerFilterMode::Erroneous);
        let inputs = multi_input_observed(&router, customer, &observed);
        assert!(inputs.len() >= 4);

        let sequential = DiceBuilder::new()
            .workers(1)
            .build()
            .explore(&router, &inputs);
        let parallel = DiceBuilder::new()
            .workers(4)
            .build()
            .explore(&router, &inputs);

        assert_reports_equal(&sequential, &parallel, "workers=1 vs workers=4");
        assert!(
            sequential.has_faults(),
            "the erroneous filter is still flagged"
        );
        assert!(
            parallel.isolation_preserved,
            "concurrent exploration must not touch live state"
        );
        assert!(sequential.isolation_preserved);
    }

    #[test]
    fn multi_input_round_equals_merge_of_single_input_rounds() {
        let (router, customer, observed) = scenario(CustomerFilterMode::Erroneous);
        let inputs = multi_input_observed(&router, customer, &observed);
        let session = DiceSession::default();
        let combined = session.explore(&router, &inputs);

        let singles: Vec<ExplorationReport> = inputs
            .iter()
            .map(|(peer, update)| explore_one(&session, &router, *peer, update))
            .collect();

        assert_eq!(combined.runs, singles.iter().map(|r| r.runs).sum::<usize>());
        assert_eq!(
            combined.distinct_paths,
            singles.iter().map(|r| r.distinct_paths).sum::<usize>()
        );
        assert_eq!(
            combined.generated_inputs,
            singles.iter().map(|r| r.generated_inputs).sum::<usize>()
        );
        assert_eq!(
            combined.intercepted_messages,
            singles
                .iter()
                .map(|r| r.intercepted_messages)
                .sum::<usize>()
        );

        // The combined fault list is the input-order union of the per-input
        // fault lists (deduplicated, first sighting wins).
        let mut merged_faults: Vec<Fault> = Vec::new();
        for single in &singles {
            for fault in &single.faults {
                if !merged_faults.contains(fault) {
                    merged_faults.push(fault.clone());
                }
            }
        }
        assert_eq!(combined.faults, merged_faults);
        assert!(combined.isolation_preserved);
        assert!(singles.iter().all(|r| r.isolation_preserved));
    }

    #[test]
    fn a_fork_explores_like_an_independently_built_router() {
        // The copy-on-write fork is a pure cost optimisation. Fork a loaded
        // router, let the original keep writing, and explore the fork: the
        // report is byte-identical to exploring a router built from the
        // same updates, which shares nothing with the fork.
        let table: Vec<UpdateMessage> = (0..512u32)
            .map(|i| {
                let mut attrs = RouteAttrs::default();
                attrs.as_path = AsPath::from_sequence([asn::INTERNET, 100_000 + i]);
                attrs.next_hop = Ipv4Addr::new(10, 0, 2, 1);
                let prefix =
                    dice_bgp::prefix::Ipv4Prefix::new((60 << 24) | (i << 8), 24).expect("valid");
                UpdateMessage::announce(vec![prefix], &attrs)
            })
            .collect();
        let load = || {
            let (mut router, customer, observed) = scenario(CustomerFilterMode::Erroneous);
            let internet = router.peer_by_address(addr::INTERNET).expect("peer");
            for update in &table {
                router.handle_update(internet, update);
            }
            (router, internet, customer, observed)
        };

        let (mut live, internet, customer, observed) = load();
        let fork = live.clone();
        for update in table.iter().step_by(7) {
            live.handle_update(internet, &UpdateMessage::withdraw(update.nlri.clone()));
        }
        live.handle_update(customer, &observed);
        assert!(
            !fork.rib().shares_table_with(live.rib()),
            "the live writes copied the table"
        );

        let (rebuilt, ..) = load();
        assert!(!fork.rib().shares_table_with(rebuilt.rib()));

        let inputs = multi_input_observed(&fork, customer, &observed);
        for workers in [1, 4] {
            let session = DiceBuilder::new().workers(workers).build();
            let forked = session.explore(&fork, &inputs);
            let independent = session.explore(&rebuilt, &inputs);
            assert_reports_equal(&forked, &independent, &format!("workers={workers}"));
            assert!(forked.has_faults(), "the erroneous filter is still flagged");
            assert!(forked.isolation_preserved && independent.isolation_preserved);
        }
    }

    #[test]
    fn worker_count_is_bounded_by_inputs_and_never_zero() {
        let session = DiceBuilder::new().workers(8).build();
        assert_eq!(session.effective_workers(3), 3);
        assert_eq!(session.effective_workers(0), 1);
        assert!(DiceSession::default().effective_workers(1_000) >= 1);
        let sequential = DiceBuilder::new().workers(1).build();
        assert_eq!(sequential.effective_workers(64), 1);
    }

    #[test]
    fn the_input_cap_counts_what_it_drops() {
        // A benign customer /16 behind 16 Internet-peer updates: the
        // default cap of 16 explores the Internet's updates and leaves the
        // customer's unexplored, and the report says so.
        let (router, customer, observed) = scenario(CustomerFilterMode::Erroneous);
        let internet = router.peer_by_address(addr::INTERNET).expect("peer");
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence([asn::INTERNET, 15169]);
        attrs.next_hop = Ipv4Addr::new(10, 0, 2, 1);
        let mut inputs: Vec<(PeerId, UpdateMessage)> = (0..16u32)
            .map(|i| {
                let prefix =
                    dice_bgp::prefix::Ipv4Prefix::new((60 << 24) | (i << 16), 16).expect("valid");
                (internet, UpdateMessage::announce(vec![prefix], &attrs))
            })
            .collect();
        inputs.push((customer, observed));

        let session = DiceSession::default();
        let capped = session.explore(&router, &inputs);
        assert_eq!(capped.observed_inputs, 16);
        assert_eq!(capped.dropped_inputs, 1);
        // The count stays out of the digest: the round reads like one over
        // the 16 explored inputs alone, which drops nothing.
        let explored = session.explore(&router, &inputs[..16]);
        assert_eq!(explored.dropped_inputs, 0);
        assert_eq!(capped.digest(), explored.digest());
    }

    #[test]
    fn pure_withdrawals_are_skipped() {
        let (router, customer, _) = scenario(CustomerFilterMode::Missing);
        let withdrawal = UpdateMessage::withdraw(vec!["41.1.0.0/16".parse().expect("valid")]);
        let report = explore_one(&DiceSession::default(), &router, customer, &withdrawal);
        assert_eq!(report.runs, 0);
        assert!(!report.has_faults());
    }
}

//! The single-node DiCE exploration entry point.
//!
//! One exploration round implements §2.3 end to end:
//!
//! 1. take a checkpoint of the live node (a fork — the live router object
//!    is never touched again);
//! 2. for each previously observed input (an UPDATE message), derive the
//!    symbolic input template and run the concolic engine from the
//!    checkpointed state, which records constraints, negates them one at a
//!    time and re-executes generated inputs;
//! 3. intercept every message the exploratory executions produce;
//! 4. apply the fault checkers to every explored outcome against the
//!    checkpointed routing table.
//!
//! [`Dice`] is the legacy single-node wrapper kept for compatibility: it
//! owns a [`DiceSession`] built from a [`DiceConfig`] (with the default
//! [`crate::OriginHijackChecker`]) and delegates every round to
//! [`DiceSession::explore`] — reports are identical to driving the session
//! directly. New code should use [`crate::DiceBuilder`] (pluggable
//! checkers) and, for multi-node topologies, [`crate::FleetExplorer`].

use dice_bgp::message::UpdateMessage;
use dice_bgp::route::PeerId;
use dice_router::BgpRouter;
use dice_symexec::EngineConfig;

use crate::checker::Fault;
use crate::report::ExplorationReport;
use crate::session::{DiceBuilder, DiceSession};

/// How a round materializes the router state each handler executes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum CheckpointMode {
    /// One copy-on-write [`crate::RoundCheckpoint`] captured per round and
    /// shared by every handler (the default): per-input setup is a
    /// reference-count bump, and the capture itself shares every untouched
    /// RIB shard with the live router.
    #[default]
    CowRound,
    /// Deep-clone the full router once per observed input — the
    /// pre-copy-on-write reference path. Kept selectable so equivalence
    /// anchors (tests and the RIB bench) can assert byte-identical reports
    /// against it; reports are identical in both modes.
    DeepClonePerInput,
}

/// Configuration of a DiCE instance.
///
/// `#[non_exhaustive]`: construct via [`DiceConfig::default`] and the
/// `with_*` builder methods (or [`crate::DiceBuilder`]) so future fields
/// are not breaking changes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DiceConfig {
    /// Concolic engine configuration (path budget, strategy, solver).
    ///
    /// The engine default runs the batched worklist inner loop
    /// ([`EngineConfig::batch_size`]) on the thread that calls it.
    /// Parallelism has two levels, both above the engine: a fleet round
    /// fans nodes out, and each node's round fans its observed inputs out
    /// across [`DiceConfig::workers`] threads.
    pub engine: EngineConfig,
    /// Maximum number of observed inputs explored per round.
    pub max_observed_inputs: usize,
    /// Anycast prefixes excluded from hijack reports.
    pub anycast_whitelist: Vec<dice_bgp::Ipv4Prefix>,
    /// Worker threads exploring observed inputs concurrently.
    ///
    /// `0` (the default) uses the machine's available parallelism; `1`
    /// forces fully sequential exploration. Observed inputs are
    /// independent of each other, so the report is identical for every
    /// worker count — only the wall clock changes.
    pub workers: usize,
    /// How handler state is materialized per observed input (shared
    /// copy-on-write round checkpoint by default). Reports are identical
    /// in every mode — only allocation and copy costs change.
    pub checkpoint: CheckpointMode,
    /// Whether the policy-oriented symbolic input fields (community slot,
    /// AS-path length) are part of each template's exploration surface.
    /// On by default; turning it off restores the message-field-only
    /// surface, leaving filter arms gated on those attributes opaque.
    pub symbolic_policy_fields: bool,
}

impl Default for DiceConfig {
    fn default() -> Self {
        DiceConfig {
            engine: EngineConfig::default().with_max_runs(64),
            max_observed_inputs: 16,
            anycast_whitelist: Vec::new(),
            workers: 0,
            checkpoint: CheckpointMode::default(),
            symbolic_policy_fields: true,
        }
    }
}

impl DiceConfig {
    /// Sets the concolic engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the maximum number of observed inputs explored per round.
    pub fn with_max_observed_inputs(mut self, max: usize) -> Self {
        self.max_observed_inputs = max;
        self
    }

    /// Sets the anycast prefixes excluded from hijack reports.
    pub fn with_anycast_whitelist(mut self, prefixes: Vec<dice_bgp::Ipv4Prefix>) -> Self {
        self.anycast_whitelist = prefixes;
        self
    }

    /// Sets the worker thread count (0 = available parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets how handler state is materialized per observed input.
    pub fn with_checkpoint_mode(mut self, mode: CheckpointMode) -> Self {
        self.checkpoint = mode;
        self
    }

    /// Enables or disables the policy-oriented symbolic input fields.
    pub fn with_symbolic_policy_fields(mut self, enabled: bool) -> Self {
        self.symbolic_policy_fields = enabled;
        self
    }
}

/// The DiCE online-testing facility attached to one router.
///
/// A thin wrapper over [`DiceSession`] with the default checker registry;
/// kept so pre-session callers keep compiling. The session — and thus the
/// checker set — is built once at construction and shared across rounds
/// and worker threads.
#[derive(Debug, Clone, Default)]
pub struct Dice {
    session: DiceSession,
}

impl Dice {
    /// Creates a DiCE instance with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a DiCE instance with the given configuration.
    pub fn with_config(config: DiceConfig) -> Self {
        Dice {
            session: DiceBuilder::new().config(config).build(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DiceConfig {
        self.session.config()
    }

    /// The underlying exploration session.
    pub fn session(&self) -> &DiceSession {
        &self.session
    }

    /// Runs one exploration round over the live router, seeding from the
    /// given observed `(peer, update)` inputs. Equivalent to
    /// [`DiceSession::explore`] on [`Dice::session`].
    pub fn run(&self, live: &BgpRouter, observed: &[(PeerId, UpdateMessage)]) -> ExplorationReport {
        self.session.explore(live, observed)
    }

    /// Convenience wrapper: explore a single observed update.
    pub fn run_single(
        &self,
        live: &BgpRouter,
        peer: PeerId,
        update: &UpdateMessage,
    ) -> ExplorationReport {
        self.run(live, &[(peer, update.clone())])
    }

    /// Applies the session's checkers to one already-computed outcome
    /// (exposed for tests and custom orchestration); returns the first
    /// fault found, matching the legacy single-checker signature.
    pub fn check_outcome(
        &self,
        outcome: &crate::handler::HandlerOutcome,
        rib: &dice_router::Rib,
    ) -> Option<Fault> {
        self.session.check_outcome(outcome, rib).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::attributes::RouteAttrs;
    use dice_bgp::AsPath;
    use dice_netsim::topology::{addr, asn, figure2_topology, CustomerFilterMode};
    use std::net::Ipv4Addr;

    /// Builds the Provider router with the victim /22 installed from the
    /// Internet peer, then returns it plus the customer's observed update.
    fn scenario(mode: CustomerFilterMode) -> (BgpRouter, PeerId, UpdateMessage) {
        let topo = figure2_topology(mode);
        let spec = &topo.nodes()[topo.node_by_name("Provider").expect("node").0];
        let mut router = BgpRouter::new(spec.config.clone());
        router.start();

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

    #[test]
    fn detects_route_leak_with_erroneous_filter() {
        let (router, customer, observed) = scenario(CustomerFilterMode::Erroneous);
        let dice = Dice::new();
        let report = dice.run_single(&router, customer, &observed);
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
        let dice = Dice::new();
        let report = dice.run_single(&router, customer, &observed);
        assert_eq!(report.runs, 1, "only the seed execution");
        assert_eq!(report.branch_sites, 0);
        assert!(!report.has_faults());
        assert!(report.isolation_preserved);
    }

    #[test]
    fn correct_filter_produces_no_hijack_faults() {
        let (router, customer, observed) = scenario(CustomerFilterMode::Correct);
        let dice = Dice::new();
        let report = dice.run_single(&router, customer, &observed);
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
        let report = Dice::new().run_single(&router, customer, &observed);
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
        let (router, customer, observed) = scenario(CustomerFilterMode::Missing);
        let dice = Dice::with_config(
            DiceConfig::default().with_anycast_whitelist(vec!["0.0.0.0/0".parse().expect("valid")]),
        );
        let report = dice.run_single(&router, customer, &observed);
        assert!(
            !report.has_faults(),
            "whitelisting everything suppresses all reports"
        );
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
    fn parallel_round_equals_sequential_round() {
        let (router, customer, observed) = scenario(CustomerFilterMode::Erroneous);
        let inputs = multi_input_observed(&router, customer, &observed);
        assert!(inputs.len() >= 4);

        let sequential =
            Dice::with_config(DiceConfig::default().with_workers(1)).run(&router, &inputs);
        let parallel =
            Dice::with_config(DiceConfig::default().with_workers(4)).run(&router, &inputs);

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
    fn legacy_run_is_equivalent_to_a_default_session() {
        // `Dice::run` must stay a faithful wrapper: the same round driven
        // through the builder API produces an identical report.
        let (router, customer, observed) = scenario(CustomerFilterMode::Erroneous);
        let inputs = multi_input_observed(&router, customer, &observed);

        let legacy = Dice::new().run(&router, &inputs);
        let session = crate::DiceBuilder::new().build();
        let direct = session.explore(&router, &inputs);

        assert_reports_equal(&legacy, &direct, "Dice::run vs DiceSession::explore");
        assert!(legacy.has_faults());
    }

    #[test]
    fn multi_input_round_equals_merge_of_single_input_rounds() {
        let (router, customer, observed) = scenario(CustomerFilterMode::Erroneous);
        let inputs = multi_input_observed(&router, customer, &observed);
        let dice = Dice::new();
        let combined = dice.run(&router, &inputs);

        let singles: Vec<ExplorationReport> = inputs
            .iter()
            .map(|(peer, update)| dice.run_single(&router, *peer, update))
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
    fn batched_inner_loop_equals_sequential_inner_loop() {
        // PR-1's engine solved one candidate at a time from scratch
        // (batch_size = 0); the batched worklist engine must find the same
        // faults, runs and coverage on the Figure 2 scenario.
        let (router, customer, observed) = scenario(CustomerFilterMode::Erroneous);
        let inputs = multi_input_observed(&router, customer, &observed);

        let sequential = Dice::with_config(
            DiceConfig::default()
                .with_engine(EngineConfig::default().with_max_runs(64).with_batch_size(0)),
        )
        .run(&router, &inputs);
        let batched = Dice::new().run(&router, &inputs);

        assert_eq!(sequential.faults, batched.faults, "fault sets diverged");
        assert_eq!(sequential.runs, batched.runs);
        assert_eq!(sequential.distinct_paths, batched.distinct_paths);
        assert_eq!(sequential.generated_inputs, batched.generated_inputs);
        assert_eq!(sequential.branch_sites, batched.branch_sites);
        assert_eq!(sequential.complete_sites, batched.complete_sites);
        assert_eq!(
            sequential.intercepted_messages,
            batched.intercepted_messages
        );
        assert_eq!(sequential.solver_waves, 0);
        assert!(batched.solver_waves > 0, "batched engine processed waves");
        assert!(
            batched.solver_stats.incremental_queries > 0,
            "candidates were solved through incremental sessions"
        );
        assert!(batched.has_faults());
    }

    #[test]
    fn cow_round_checkpoint_equals_per_input_deep_cloning() {
        // The copy-on-write round checkpoint (one Arc-shared snapshot per
        // round) must be a pure cost optimisation: the same round under
        // the pre-change deep-clone-per-input path produces a byte-identical
        // report, for sequential and parallel rounds alike.
        let (router, customer, observed) = scenario(CustomerFilterMode::Erroneous);
        let inputs = multi_input_observed(&router, customer, &observed);

        let cow = Dice::new().run(&router, &inputs);
        let cloned = Dice::with_config(
            DiceConfig::default().with_checkpoint_mode(crate::CheckpointMode::DeepClonePerInput),
        )
        .run(&router, &inputs);
        assert_reports_equal(&cow, &cloned, "CowRound vs DeepClonePerInput");
        assert!(cow.has_faults(), "the erroneous filter is still flagged");
        assert!(cow.isolation_preserved && cloned.isolation_preserved);

        let cloned_sequential = Dice::with_config(
            DiceConfig::default()
                .with_workers(1)
                .with_checkpoint_mode(crate::CheckpointMode::DeepClonePerInput),
        )
        .run(&router, &inputs);
        assert_reports_equal(
            &cow,
            &cloned_sequential,
            "CowRound vs sequential deep clones",
        );
    }

    #[test]
    fn worker_count_is_bounded_by_inputs_and_never_zero() {
        let dice = Dice::with_config(DiceConfig::default().with_workers(8));
        assert_eq!(dice.session().effective_workers(3), 3);
        assert_eq!(dice.session().effective_workers(0), 1);
        let auto = Dice::new();
        assert!(auto.session().effective_workers(1_000) >= 1);
        let sequential = Dice::with_config(DiceConfig::default().with_workers(1));
        assert_eq!(sequential.session().effective_workers(64), 1);
    }

    #[test]
    fn pure_withdrawals_are_skipped() {
        let (router, customer, _) = scenario(CustomerFilterMode::Missing);
        let withdrawal = UpdateMessage::withdraw(vec!["41.1.0.0/16".parse().expect("valid")]);
        let report = Dice::new().run_single(&router, customer, &withdrawal);
        assert_eq!(report.runs, 0);
        assert!(!report.has_faults());
    }
}

//! # dice
//!
//! Umbrella crate for the DiCE reproduction ("Toward Online Testing of
//! Federated and Heterogeneous Distributed Systems", Canini et al., USENIX
//! ATC 2011): re-exports of every workspace crate plus a prelude used by
//! the examples and integration tests.
//!
//! See the repository's `README.md` for a crate map, the quickstart and
//! the verification commands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dice_bgp as bgp;
pub use dice_checkpoint as checkpoint;
pub use dice_core as core;
pub use dice_netsim as netsim;
pub use dice_obs as obs;
pub use dice_router as router;
pub use dice_solver as solver;
pub use dice_symexec as symexec;

/// Commonly used items across the DiCE stack.
pub mod prelude {
    pub use dice_bgp::attributes::RouteAttrs;
    pub use dice_bgp::message::{BgpMessage, UpdateMessage};
    pub use dice_bgp::prefix::Ipv4Prefix;
    pub use dice_bgp::route::{PeerId, Route};
    pub use dice_bgp::AsPath;
    pub use dice_core::{
        AsRelationship, BgpWedgieChecker, BlackholeChecker, ControlPlane, ControlSnapshot,
        CrossRoundFlapChecker, CustomerFilterMode, DiceBuilder, DiceConfig, DiceSession,
        ExplorationReport, Fault, FaultChecker, FaultKey, FaultKind, FaultPlanSearch,
        FaultScenario, FleetExplorer, FleetFault, FleetReport, ForwardingLoopChecker,
        IngestCounters, LiveFault, LiveFold, LiveOrchestrator, LiveReport, LiveRound,
        MoreSpecificHijackChecker, ObservedTimelines, OriginHijackChecker, ReproBundle,
        ReproReplay, RoundCheckpoint, RoundOutcomes, RouteLeakChecker, RouteOscillationChecker,
        SearchCounters, SearchReport, SearchSummary, SpecKindMask, UpdateTemplate,
        CONTROL_SCHEMA_VERSION,
    };
    pub use dice_netsim::topology::{
        addr, asn, figure2_topology, figure2_topology_with_customer_filter, NodeId, Topology,
    };
    pub use dice_netsim::{generate_trace, Replayer, Simulator, TraceGenConfig};
    pub use dice_netsim::{
        synthesize_wire_trace, IngestError, IngestStats, SharedIngestStats, WireRecord,
        WireReplayDriver, WireTrace,
    };
    pub use dice_netsim::{
        DeliveryError, FaultPlan, FaultSpec, FaultTrace, InjectedFault, InjectedFaultKind,
    };
    pub use dice_obs::{
        BufferedRecorder, Histogram, HistogramSummary, NoopSink, PrometheusText, SinkGuard,
        TraceSink,
    };
    pub use dice_router::{BgpRouter, NeighborConfig, RouterConfig};
    pub use dice_symexec::{ConcolicEngine, EngineConfig, ExecCtx, InputValues};
}

#[cfg(test)]
mod tests {
    /// Every item the prelude lists resolves, constructs, and has exactly
    /// one canonical path (the `use` below would be ambiguous otherwise).
    #[test]
    fn prelude_reexports_resolve_and_construct() {
        use crate::prelude::*;

        let _ = RouteAttrs::default();
        let _ = BgpMessage::Keepalive;
        let _ = UpdateMessage::withdraw(Vec::new());
        let prefix: Ipv4Prefix = "10.0.0.0/8".parse().expect("valid");
        let _ = Route::new(prefix, RouteAttrs::default(), PeerId(1), 1);
        let _ = AsPath::from_sequence([64_512]);
        let _ = CustomerFilterMode::Correct;
        let _ = ExplorationReport::default();
        let _: Option<Fault> = None;
        let _: Option<FaultKind> = None;
        let _ = OriginHijackChecker::new();
        let session: DiceSession = DiceBuilder::new()
            .checker(Box::new(ForwardingLoopChecker::new()))
            .build();
        let _: &DiceConfig = session.config();
        let fleet = FleetExplorer::new(session);
        let _: &DiceSession = fleet.session();
        let _: Option<FleetFault> = None;
        let _ = FleetReport::default();
        let _ = RouteOscillationChecker::new().with_min_transitions(3);
        let _ = RouteLeakChecker::new()
            .with_customer(17_557)
            .with_peer(1_299)
            .with_provider(3_491);
        let _: Option<AsRelationship> = None;
        let _ = MoreSpecificHijackChecker::new();
        let _ = BlackholeChecker::new();
        let _ = CrossRoundFlapChecker::new().with_min_transitions(2);
        let _ = BgpWedgieChecker::new().with_min_stable_rounds(2);
        let _: Option<RoundOutcomes> = None;
        let _: Option<Box<dyn LiveFold>> = CrossRoundFlapChecker::new().live_fold();
        let _: Option<FaultKey> = None;
        let plan = FaultPlan::new(7).with_spec(FaultSpec::LinkFlap {
            a: NodeId(0),
            b: NodeId(1),
            down_epoch: 1,
            up_epoch: 2,
        });
        assert!(!plan.is_empty());
        let _ = FaultTrace::default();
        let _: Option<InjectedFault> = None;
        let _: Option<InjectedFaultKind> = None;
        let _: Option<DeliveryError> = None;
        let live = LiveOrchestrator::default()
            .with_quiesce_steps(50)
            .with_max_rounds(2)
            .with_fault_plan(plan);
        let _: &FleetExplorer = live.explorer();
        let _: Option<LiveFault> = None;
        let _: Option<LiveRound> = None;
        let _ = LiveReport::default();
        let search = FaultPlanSearch::new(LiveOrchestrator::default())
            .with_seed(7)
            .with_budget(0)
            .with_max_specs(4)
            .with_epoch_horizon(3)
            .with_spec_kinds(SpecKindMask::only_partitions());
        let _: &LiveOrchestrator = search.orchestrator();
        let _ = SpecKindMask::all();
        let _: Option<Box<dyn FaultScenario>> = None;
        let _ = SearchReport::default();
        let _ = SearchSummary::default();
        let _ = SearchCounters::default();
        let _: Option<ReproBundle> = None;
        let _: Option<ReproReplay> = None;
        let _ = figure2_topology_with_customer_filter(dice_router::policy::FilterDef::accept_all(
            "customer_in",
        ));
        let _ = NodeId(0);
        let _ = Topology::new();
        fn assert_checker<T: FaultChecker>() {}
        assert_checker::<OriginHijackChecker>();
        let observed = UpdateMessage::announce(vec![prefix], &RouteAttrs::default());
        let _ = UpdateTemplate::from_update(&observed);
        let topo = figure2_topology(CustomerFilterMode::Correct);
        let _ = topo.node_by_name("Provider");
        let _ = (addr::CUSTOMER, asn::CUSTOMER);
        let config = TraceGenConfig::tiny();
        let trace = generate_trace(&config, asn::INTERNET, addr::INTERNET);
        let _ = Replayer::new(&trace, addr::INTERNET);
        let _ = Simulator::new(&topo);
        let spec = &topo.nodes()[0];
        let router = BgpRouter::new(spec.config.clone());
        let _: &RouterConfig = router.config();
        let _ = RoundCheckpoint::capture(&router).share_count();
        let _: Option<&NeighborConfig> = spec.config.neighbors.first();
        let _ = ConcolicEngine::with_config(EngineConfig::default());
        let _ = ExecCtx::new();
        let _ = InputValues::new().with("x", 1);

        let mut wire = WireTrace::new();
        wire.push_update(
            0,
            NodeId(0),
            addr::INTERNET,
            &UpdateMessage::withdraw(Vec::new()),
        );
        let _: Option<&WireRecord> = wire.records.first();
        let _ = WireTrace::from_bytes(&wire.to_bytes()).expect("round-trips");
        let _ = synthesize_wire_trace(&config, NodeId(0), asn::INTERNET, addr::INTERNET);
        let driver = WireReplayDriver::new(wire)
            .with_frames_per_epoch(4)
            .with_epoch_ms(250);
        let shared: SharedIngestStats = driver.stats();
        let _: IngestStats = shared.snapshot();
        let _ = IngestError::BadMagic;
        let plane = ControlPlane::new();
        plane.publish(ControlSnapshot::default());
        let snapshot = plane.sample();
        assert_eq!(snapshot.schema_version, CONTROL_SCHEMA_VERSION);
        let _ = IngestCounters::default();

        let mut histogram = Histogram::new();
        histogram.record(1);
        let _: HistogramSummary = histogram.summary();
        let _ = PrometheusText::new();
        fn assert_sink<T: TraceSink>() {}
        assert_sink::<NoopSink>();
        assert_sink::<BufferedRecorder>();
        let _: Option<SinkGuard> = None;
    }
}

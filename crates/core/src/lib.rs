//! # dice-core
//!
//! DiCE: online testing of federated and heterogeneous distributed systems
//! (Canini et al., USENIX ATC 2011), reproduced in Rust.
//!
//! DiCE continuously and automatically explores system behaviour to check
//! whether the system deviates from its desired behaviour. It does so by
//!
//! * taking a cheap, fork-style **checkpoint** of the live node
//!   ([`RoundCheckpoint`], a copy-on-write fork: the router's table is one
//!   `Arc` over `Arc`'d chunks of 128 prefixes, so a write after the fork
//!   copies one chunk, and `dice-checkpoint`'s `CowForkStats` counts
//!   whether the table is still shared),
//! * deriving **symbolic inputs** from previously observed UPDATE messages
//!   ([`UpdateTemplate`]) — only selected fields are symbolic, so generated
//!   messages are always syntactically valid,
//! * running the node's message handler under a **concolic engine**
//!   ([`SymbolicUpdateHandler`], `dice-symexec`) that records branch
//!   constraints — from code and from interpreted configuration — negates
//!   them one at a time and solves for inputs that take the other side,
//! * keeping exploration **isolated** from the deployed system: every
//!   message a run would send is intercepted into
//!   [`HandlerOutcome::intercepted`], and each round checks that the live
//!   router's visible state did not change, and
//! * applying **fault checkers** to every explored state; the showcase
//!   checker flags origin misconfiguration / route leaks
//!   ([`OriginHijackChecker`]), joined by an adversarial-scenario library:
//!   self-resolving forwarding loops ([`ForwardingLoopChecker`]),
//!   Gao-Rexford valley violations ([`RouteLeakChecker`]), more-specific
//!   prefix hijacks ([`MoreSpecificHijackChecker`]), blackholed next hops
//!   ([`BlackholeChecker`]) and cross-round route flaps
//!   ([`CrossRoundFlapChecker`], via [`FaultChecker::live_fold`]).
//!
//! One node round does all of that for one node: checkpoint, explore the
//! observed inputs, check. Three entry points are loops over it:
//!
//! * [`DiceBuilder`] → [`DiceSession`] — one node, explicit observed
//!   inputs, pluggable checker registry ([`FaultChecker`] is object-safe
//!   and `Send + Sync`). [`DiceSession::explore`] is one node round.
//! * [`FleetExplorer`] — the paper's federated setting: harvests each
//!   node's observed inputs from a simulated topology and runs the fleet
//!   round, one node round beside every node in turn, merging results into
//!   a [`FleetReport`] with fleet-wide fault deduplication.
//! * [`LiveOrchestrator`] — the paper's *continuous* operating mode:
//!   interleaves live simulation progress with fleet rounds, each over an
//!   incremental epoch window of newly observed inputs, and accumulates a
//!   [`LiveReport`] with cross-round fault deduplication.
//!   Cross-round checkers ([`CrossRoundFlapChecker`]) judge the observed
//!   windows continuous rounds record, and a deterministic [`FaultPlan`]
//!   ([`LiveOrchestrator::with_fault_plan`]) perturbs the network between
//!   epochs so exploration also covers the faulty-network behaviours a
//!   quiescent run can never exhibit.
//!
//! ## Example
//!
//! ```
//! use dice_core::{CustomerFilterMode, DiceBuilder};
//! use dice_bgp::attributes::RouteAttrs;
//! use dice_bgp::message::UpdateMessage;
//! use dice_bgp::AsPath;
//! use dice_netsim::topology::{addr, figure2_topology};
//! use dice_router::BgpRouter;
//!
//! // The Provider router of Figure 2, with partially correct (erroneous)
//! // customer route filtering.
//! let topo = figure2_topology(CustomerFilterMode::Erroneous);
//! let spec = &topo.nodes()[topo.node_by_name("Provider").unwrap().0];
//! let mut router = BgpRouter::new(spec.config.clone());
//! router.start();
//!
//! // An installed route for the victim prefix, learned from the Internet.
//! let internet = router.peer_by_address(addr::INTERNET).unwrap();
//! let mut attrs = RouteAttrs::default();
//! attrs.as_path = AsPath::from_sequence([1299, 3356, 36561]);
//! router.handle_update(internet, &UpdateMessage::announce(
//!     vec!["208.65.152.0/22".parse().unwrap()], &attrs));
//!
//! // DiCE explores inputs derived from a routine customer announcement and
//! // flags the potential hijack enabled by the missing filter.
//! let customer = router.peer_by_address(addr::CUSTOMER).unwrap();
//! let mut cattrs = RouteAttrs::default();
//! cattrs.as_path = AsPath::from_sequence([17557, 17557]);
//! let observed = UpdateMessage::announce(vec!["41.1.0.0/16".parse().unwrap()], &cattrs);
//! let session = DiceBuilder::new().build();
//! let report = session.explore(&router, &[(customer, observed)]);
//! assert!(report.has_faults());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod checkpoint;
mod control;
mod fault_search;
mod fleet;
mod handler;
mod isolation;
mod live;
mod parallel;
mod report;
mod session;
mod symbolic_input;

pub use checker::{
    AsRelationship, BgpWedgieChecker, BlackholeChecker, CrossRoundFlapChecker, Fault, FaultChecker,
    FaultKey, FaultKind, ForwardingLoopChecker, LiveFold, MoreSpecificHijackChecker,
    ObservedTimelines, OriginHijackChecker, RoundOutcomes, RouteLeakChecker,
};
pub use checkpoint::RoundCheckpoint;
pub use control::{
    ControlPlane, ControlSnapshot, IngestCounters, SearchCounters, CONTROL_SCHEMA_VERSION,
};
pub use fault_search::{
    fault_key, topology_fingerprint, FaultPlanSearch, FaultScenario, ReproBundle, ReproReplay,
    SearchReport, SpecKindMask,
};
pub use fleet::{
    dedup_fleet_faults, FleetExplorer, FleetFault, FleetReport, NodeReport, NodeWindow,
};
pub use handler::{HandlerOutcome, SymbolicUpdateHandler};
pub use live::{LiveFault, LiveOrchestrator, LiveReport, LiveRound, SearchSummary};
pub use report::ExplorationReport;
pub use session::{DiceBuilder, DiceConfig, DiceSession};
pub use symbolic_input::UpdateTemplate;

// Re-exported so examples and tests can select the misconfiguration mode
// and build fault plans without importing dice-netsim directly.
pub use dice_netsim::topology::CustomerFilterMode;
pub use dice_netsim::{FaultPlan, FaultSpec, FaultTrace};

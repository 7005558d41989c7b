//! Fleet-level exploration: one DiCE round beside every node of a
//! topology.
//!
//! The paper's headline setting is *federated* online testing — a DiCE
//! instance runs beside every node of a heterogeneous deployment, each
//! exploring from the inputs its node observed locally. [`FleetExplorer`]
//! reproduces that over the deterministic [`Simulator`]:
//!
//! 1. **harvest** — each node's observed inputs are taken from the
//!    simulation's delivery log ([`Simulator::observed_inputs`]): exactly
//!    the UPDATEs the node's local DiCE instance would have seen;
//! 2. **explore** — one exploration round runs per node, the nodes in
//!    order on the calling thread, each node's inputs on that thread too.
//!    Each node's round captures one copy-on-write
//!    [`crate::RoundCheckpoint`] and shares it across every observed input
//!    of that round;
//! 3. **merge** — per-node [`ExplorationReport`]s are collected in
//!    topology order into a [`FleetReport`], and faults are deduplicated
//!    fleet-wide by their typed key ([`Fault::fleet_key`]: the checker and
//!    what it found, compared by value, no string rendered) — the same
//!    leak observed from three vantage points is one fleet fault with
//!    three sightings.
//!
//! A round is a single-threaded function of the nodes' checkpoints and
//! windows. Fanning nodes out across threads cost more than it saved: a
//! node round is tens of microseconds of work, about what spawning and
//! joining one scoped thread costs, so the fan-out this module used to do
//! ran a Figure 2 round at 0.53× the speed of the sequential loop. The
//! place for parallelism is rounds running beside the live driver, not
//! nodes inside one round.
//!
//! Reports are deterministic: node order is window order, per-node
//! reports are worker-count-invariant, and dedup keeps first-sighting
//! order, so the same simulation state yields byte-identical
//! [`FleetReport::digest`]s.

use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use dice_bgp::message::UpdateMessage;
use dice_bgp::route::PeerId;
use dice_netsim::topology::NodeId;
use dice_netsim::Simulator;

use crate::checker::{Fault, FaultKey};
use crate::handler::HandlerOutcome;
use crate::report::ExplorationReport;
use crate::session::DiceSession;

/// One node's harvest window: the `(peer, update)` inputs its round
/// explores.
pub type NodeWindow = (NodeId, Vec<(PeerId, UpdateMessage)>);

/// One node's contribution to a fleet round.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// The node's id within the topology.
    pub node: NodeId,
    /// The node's human-readable name.
    pub name: String,
    /// The node's exploration report — identical to what a single-node
    /// round over the same router and inputs produces.
    pub report: ExplorationReport,
}

/// A fault after fleet-wide deduplication, with every sighting recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetFault {
    /// The fault, stamped with the first node that saw it.
    pub fault: Fault,
    /// Every node whose exploration found the fault, in sighting order.
    pub nodes: Vec<NodeId>,
}

/// The merged result of one fleet exploration round.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Per-node reports, in topology order.
    pub nodes: Vec<NodeReport>,
    /// Fleet-wide deduplicated faults, in first-sighting order.
    pub faults: Vec<FleetFault>,
    /// Number of faults the simulation's [`dice_netsim::FaultPlan`] had
    /// injected by the time this round ran (link flaps, session resets,
    /// message drops/duplicates/delays — delivery errors excluded). Zero
    /// for unperturbed simulations, and rendered in the digest and
    /// [`fmt::Display`] only when nonzero so quiescent-network reports stay
    /// byte-identical to pre-fault-injection builds.
    pub injected_faults: u64,
    /// Wall-clock duration of the whole fleet round.
    pub elapsed: Duration,
}

impl FleetReport {
    /// Returns true if any node found any fault.
    pub fn has_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    /// The report of one node, if it was explored.
    pub fn node(&self, node: NodeId) -> Option<&ExplorationReport> {
        self.nodes
            .iter()
            .find(|n| n.node == node)
            .map(|n| &n.report)
    }

    /// Total executions across the fleet.
    pub fn total_runs(&self) -> usize {
        self.nodes.iter().map(|n| n.report.runs).sum()
    }

    /// Fault sightings before deduplication (sum of per-node fault counts).
    pub fn total_sightings(&self) -> usize {
        self.nodes.iter().map(|n| n.report.faults.len()).sum()
    }

    /// Solver-wave latency distribution merged across every node's report
    /// ([`ExplorationReport::wave_latency`]). Purely observational — never
    /// part of [`FleetReport::digest`].
    pub fn wave_latency(&self) -> dice_obs::Histogram {
        let mut merged = dice_obs::Histogram::new();
        for n in &self.nodes {
            merged.merge(&n.report.wave_latency);
        }
        merged
    }

    /// Total policy branch sites registered across the fleet (filter arms,
    /// summed over nodes; an arm each of two nodes evaluates counts twice).
    pub fn total_policy_sites(&self) -> usize {
        self.nodes.iter().map(|n| n.report.policy_sites).sum()
    }

    /// Total policy (site, direction) pairs exercised across the fleet.
    pub fn total_policy_directions(&self) -> usize {
        self.nodes.iter().map(|n| n.report.policy_directions).sum()
    }

    /// Fleet-wide policy-branch coverage over registered filter arms, in
    /// `[0, 1]`; `1.0` when no node registered any policy site.
    pub fn policy_branch_coverage(&self) -> f64 {
        let sites = self.total_policy_sites();
        if sites == 0 {
            1.0
        } else {
            self.total_policy_directions() as f64 / (2 * sites) as f64
        }
    }

    /// A canonical rendering of every deterministic field — per-node
    /// digests plus the deduplicated fault list. Independent of worker
    /// counts.
    pub fn digest(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for n in &self.nodes {
            writeln!(out, "node{}:{}", n.node.0, n.report.digest())
                .expect("writing to a String cannot fail");
        }
        for f in &self.faults {
            let nodes: Vec<String> = f.nodes.iter().map(|n| n.0.to_string()).collect();
            writeln!(out, "fleet-fault:{} nodes=[{}]", f.fault, nodes.join(","))
                .expect("writing to a String cannot fail");
        }
        if self.injected_faults > 0 {
            writeln!(out, "injected-faults:{}", self.injected_faults)
                .expect("writing to a String cannot fail");
        }
        out
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DiCE fleet exploration: {} node(s), {} run(s), {} sighting(s) -> {} distinct fault(s) in {:?}",
            self.nodes.len(),
            self.total_runs(),
            self.total_sightings(),
            self.faults.len(),
            self.elapsed,
        )?;
        if self.total_policy_sites() > 0 {
            writeln!(
                f,
                "  policy: {:.0}% of filter-arm directions explored fleet-wide ({}/{})",
                self.policy_branch_coverage() * 100.0,
                self.total_policy_directions(),
                2 * self.total_policy_sites(),
            )?;
        }
        if self.injected_faults > 0 {
            writeln!(
                f,
                "  fault plan: {} fault(s) injected into the simulation",
                self.injected_faults,
            )?;
        }
        for n in &self.nodes {
            writeln!(
                f,
                "  [{}] {}: {} run(s), {} fault(s), isolation preserved: {}",
                n.node.0,
                n.name,
                n.report.runs,
                n.report.faults.len(),
                n.report.isolation_preserved,
            )?;
        }
        if self.faults.is_empty() {
            writeln!(f, "  no faults detected fleet-wide")?;
        } else {
            for fault in &self.faults {
                let nodes: Vec<String> = fault.nodes.iter().map(|n| n.0.to_string()).collect();
                writeln!(
                    f,
                    "  - {} (seen on node(s) {})",
                    fault.fault,
                    nodes.join(", ")
                )?;
            }
        }
        Ok(())
    }
}

/// Deduplicates per-node fault lists fleet-wide.
///
/// Keyed by [`Fault::fleet_key`] — the checker and what it found, compared
/// by value; node provenance never splits a key. The first sighting (in the given
/// report order) contributes the representative [`Fault`], stamped with its
/// node; later sightings only append to [`FleetFault::nodes`]. Every fault
/// present in any input report is represented in the output — nothing is
/// dropped, which `tests/properties.rs` asserts by property.
pub fn dedup_fleet_faults(reports: &[(NodeId, &ExplorationReport)]) -> Vec<FleetFault> {
    let mut out: Vec<FleetFault> = Vec::new();
    let mut index: HashMap<FaultKey, usize> = HashMap::new();
    for (node, report) in reports {
        for fault in &report.faults {
            match index.entry(fault.fleet_key()) {
                std::collections::hash_map::Entry::Occupied(slot) => {
                    let existing = &mut out[*slot.get()];
                    if !existing.nodes.contains(node) {
                        existing.nodes.push(*node);
                    }
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(out.len());
                    out.push(FleetFault {
                        fault: fault.clone().with_node(*node),
                        nodes: vec![*node],
                    });
                }
            }
        }
    }
    out
}

/// Runs one exploration round beside every node of a simulated topology.
#[derive(Debug, Clone)]
pub struct FleetExplorer {
    session: DiceSession,
}

impl Default for FleetExplorer {
    fn default() -> Self {
        FleetExplorer::new(DiceSession::default())
    }
}

impl FleetExplorer {
    /// Creates a fleet explorer running every node's round through the
    /// given session (shared checker registry, shared engine settings).
    pub fn new(session: DiceSession) -> Self {
        FleetExplorer { session }
    }

    /// Does nothing. It used to bound the threads a round's node fan-out
    /// spawned; a round now explores every node on the calling thread, so
    /// there is nothing left to bound.
    #[deprecated(note = "a fleet round runs on the calling thread; the budget bounds nothing")]
    pub fn with_core_budget(self, _cores: usize) -> Self {
        self
    }

    /// The session driving every node round.
    pub fn session(&self) -> &DiceSession {
        &self.session
    }

    /// Explores every node of the simulation, harvesting each node's
    /// observed inputs from the delivery log.
    pub fn explore(&self, sim: &Simulator) -> FleetReport {
        let nodes: Vec<NodeId> = (0..sim.len()).map(NodeId).collect();
        self.explore_nodes(sim, &nodes)
    }

    /// Explores the given nodes only (e.g. just the DiCE-enabled ones).
    /// Duplicate ids are explored once: the report has one entry per
    /// distinct node, in first-occurrence order.
    pub fn explore_nodes(&self, sim: &Simulator, nodes: &[NodeId]) -> FleetReport {
        let mut seen = std::collections::HashSet::new();
        let nodes: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|node| seen.insert(*node))
            .collect();

        // Harvest in one pass over the delivery log, grouping entries by
        // requested node (cloning only what an explored node observed).
        let mut harvest_span = dice_obs::span("core", "fleet.harvest");
        let mut by_node: HashMap<NodeId, Vec<_>> = HashMap::new();
        for entry in sim.observed_log() {
            if seen.contains(&entry.node) {
                by_node
                    .entry(entry.node)
                    .or_default()
                    .push((entry.peer, entry.update.clone()));
            }
        }
        let harvested: Vec<_> = nodes
            .iter()
            .map(|&node| (node, by_node.remove(&node).unwrap_or_default()))
            .collect();
        harvest_span.set_detail(harvested.iter().map(|(_, w)| w.len() as u64).sum());
        drop(harvest_span);
        self.explore_window_slice(sim, &harvested).0
    }

    /// Runs one round over explicit per-node input windows — the
    /// continuous-orchestration entry point: [`crate::LiveOrchestrator`]
    /// harvests an incremental epoch window per node
    /// ([`Simulator::observed_inputs_in`]) and hands it here, so each round
    /// explores only what arrived since the previous one.
    ///
    /// Duplicate node ids collapse to their first occurrence. Nodes are
    /// explored in window order on the calling thread; for identical
    /// windows the report digest is byte-identical to
    /// [`FleetExplorer::explore_nodes`].
    pub fn explore_windows(&self, sim: &Simulator, windows: Vec<NodeWindow>) -> FleetReport {
        self.explore_window_slice(sim, &windows).0
    }

    /// Like [`FleetExplorer::explore_windows`], but also returns every
    /// node's explored outcome sequence (in window order, each node's
    /// outcomes concatenated in input order) — what a live orchestrator
    /// stitches into [`crate::checker::RoundOutcomes`] for the cross-round
    /// ([`crate::FaultChecker::live_fold`]) pass.
    pub fn explore_windows_collecting(
        &self,
        sim: &Simulator,
        windows: Vec<NodeWindow>,
    ) -> (FleetReport, Vec<(NodeId, Vec<HandlerOutcome>)>) {
        self.explore_window_slice(sim, &windows)
    }

    /// [`FleetExplorer::explore_windows_collecting`] over borrowed windows,
    /// so a caller that keeps its windows afterwards copies none of them.
    /// Returns one outcome entry per distinct node, in window order.
    pub(crate) fn explore_window_slice(
        &self,
        sim: &Simulator,
        windows: &[NodeWindow],
    ) -> (FleetReport, Vec<(NodeId, Vec<HandlerOutcome>)>) {
        let started = Instant::now();
        let mut seen = std::collections::HashSet::new();
        let windows: Vec<&NodeWindow> = windows
            .iter()
            .filter(|(node, _)| seen.insert(*node))
            .collect();

        let session = self.session.with_workers(1);
        let mut explore_span = dice_obs::span("core", "fleet.explore");
        explore_span.set_detail(windows.len() as u64);
        let mut node_reports: Vec<NodeReport> = Vec::with_capacity(windows.len());
        let mut node_outcomes: Vec<(NodeId, Vec<HandlerOutcome>)> =
            Vec::with_capacity(windows.len());
        for (node, observed) in windows {
            let (report, outcomes) = session.explore_collecting(sim.router(*node), observed);
            node_reports.push(NodeReport {
                node: *node,
                name: sim.name(*node).to_string(),
                report,
            });
            node_outcomes.push((*node, outcomes));
        }
        drop(explore_span);
        let keyed: Vec<(NodeId, &ExplorationReport)> =
            node_reports.iter().map(|n| (n.node, &n.report)).collect();
        let faults = dedup_fleet_faults(&keyed);

        let report = FleetReport {
            nodes: node_reports,
            faults,
            injected_faults: sim.injected_fault_count() as u64,
            elapsed: started.elapsed(),
        };
        (report, node_outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{ForwardingLoopChecker, OriginHijackChecker};
    use crate::session::{DiceBuilder, DiceSession};
    use dice_bgp::attributes::RouteAttrs;
    use dice_bgp::message::{BgpMessage, UpdateMessage};
    use dice_bgp::AsPath;
    use dice_netsim::topology::{addr, asn, figure2_topology, CustomerFilterMode};
    use std::net::Ipv4Addr;

    fn announcement(prefix: &str, path: &[u32], next_hop: Ipv4Addr) -> BgpMessage {
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence(path.iter().copied());
        attrs.next_hop = next_hop;
        BgpMessage::Update(UpdateMessage::announce(
            vec![prefix.parse().expect("valid")],
            &attrs,
        ))
    }

    /// The Figure 2 simulation after live traffic: the Internet announces
    /// the victim /22 (installed everywhere), then the customer makes its
    /// routine announcement — both recorded in the observation log.
    fn simulated_figure2(mode: CustomerFilterMode) -> Simulator {
        let topo = figure2_topology(mode);
        let provider = topo.node_by_name("Provider").expect("node");
        let mut sim = Simulator::new(&topo);
        sim.inject(
            provider,
            addr::INTERNET,
            announcement(
                "208.65.152.0/22",
                &[asn::INTERNET, 3356, asn::VICTIM],
                addr::INTERNET,
            ),
        );
        sim.run_to_quiescence(100);
        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement(
                "41.1.0.0/16",
                &[asn::CUSTOMER, asn::CUSTOMER],
                addr::CUSTOMER,
            ),
        );
        sim.run_to_quiescence(100);
        sim
    }

    #[test]
    fn single_node_fleet_run_is_byte_identical_to_a_session_round() {
        let sim = simulated_figure2(CustomerFilterMode::Erroneous);
        let topo = figure2_topology(CustomerFilterMode::Erroneous);
        let provider = topo.node_by_name("Provider").expect("node");

        let fleet = FleetExplorer::default().explore_nodes(&sim, &[provider]);
        let direct =
            DiceSession::default().explore(sim.router(provider), &sim.observed_inputs(provider));

        assert_eq!(fleet.nodes.len(), 1);
        assert_eq!(
            fleet.nodes[0].report.digest(),
            direct.digest(),
            "fleet single-node report must be byte-identical to DiceSession::explore"
        );
        assert!(direct.has_faults(), "the erroneous filter is flagged");
        assert_eq!(fleet.faults.len(), direct.faults.len());
        assert_eq!(fleet.faults[0].nodes, vec![provider]);
        assert_eq!(fleet.faults[0].fault.node, Some(provider));
    }

    #[test]
    fn fleet_round_explores_every_node() {
        let sim = simulated_figure2(CustomerFilterMode::Erroneous);
        let session = DiceBuilder::new()
            .checker(Box::new(OriginHijackChecker::new()))
            .checker(Box::new(ForwardingLoopChecker::new()))
            .build();
        let report = FleetExplorer::new(session).explore(&sim);

        assert_eq!(report.nodes.len(), 3, "all Figure 2 nodes explored");
        assert!(report.has_faults(), "the provider leak is found");
        assert!(report.total_runs() > 0);
        assert!(report.nodes.iter().all(|n| n.report.isolation_preserved));
        // The customer node observed nothing (no one announces to it in
        // this scenario beyond re-advertisements it originated).
        let text = report.to_string();
        assert!(text.contains("Provider"));
        assert!(text.contains("fault(s)"));
    }

    #[test]
    fn a_fleet_round_on_forks_matches_an_independently_built_fleet() {
        // Every node is explored on a copy-on-write fork of its live router.
        // The round leaves the live routers as they were, and its digest
        // equals the digest of a round over a fleet built from the same
        // traffic, which shares no table storage with the first.
        let sim = simulated_figure2(CustomerFilterMode::Erroneous);
        let rebuilt = simulated_figure2(CustomerFilterMode::Erroneous);
        for n in 0..sim.len() {
            let (shared, _) = sim
                .router(NodeId(n))
                .rib()
                .cow_shard_sharing(rebuilt.router(NodeId(n)).rib());
            assert_eq!(shared, 0, "node {n} shares storage with the rebuilt fleet");
        }

        let explorer = FleetExplorer::default();
        let first = explorer.explore(&sim);
        let again = explorer.explore(&sim);
        let independent = explorer.explore(&rebuilt);
        assert_eq!(first.digest(), again.digest(), "a round changed live state");
        assert_eq!(
            first.digest(),
            independent.digest(),
            "forking must not change any fleet result"
        );
        assert!(first.has_faults());
        assert!(first.nodes.iter().all(|n| n.report.isolation_preserved));
    }

    #[test]
    fn fleet_dedup_merges_sightings_of_the_same_fault() {
        // The erroneous filter leak is detected from the provider's
        // exploration; inject the same observed input at two vantage nodes
        // sharing a config by exploring the provider twice under different
        // ids via dedup_fleet_faults directly.
        let sim = simulated_figure2(CustomerFilterMode::Erroneous);
        let topo = figure2_topology(CustomerFilterMode::Erroneous);
        let provider = topo.node_by_name("Provider").expect("node");
        let report =
            DiceSession::default().explore(sim.router(provider), &sim.observed_inputs(provider));
        assert!(report.has_faults());

        let merged = dedup_fleet_faults(&[(NodeId(0), &report), (NodeId(2), &report)]);
        assert_eq!(merged.len(), report.faults.len(), "same faults, deduped");
        for fault in &merged {
            assert_eq!(fault.nodes, vec![NodeId(0), NodeId(2)]);
            assert_eq!(fault.fault.node, Some(NodeId(0)), "first sighting wins");
        }
        // No sighting is ever dropped.
        let merged_keys: Vec<_> = merged.iter().map(|f| f.fault.fleet_key()).collect();
        for fault in &report.faults {
            assert!(merged_keys.contains(&fault.fleet_key()));
        }
    }

    #[test]
    fn explore_windows_on_full_windows_matches_explore_nodes() {
        let sim = simulated_figure2(CustomerFilterMode::Erroneous);
        let nodes: Vec<NodeId> = (0..sim.len()).map(NodeId).collect();
        let explorer = FleetExplorer::default();

        let via_nodes = explorer.explore_nodes(&sim, &nodes);
        let head = sim.observed_cursor();
        let windows: Vec<_> = nodes
            .iter()
            .map(|&n| (n, sim.observed_inputs_in(n, 0, head)))
            .collect();
        let via_windows = explorer.explore_windows(&sim, windows.clone());
        assert_eq!(via_windows.digest(), via_nodes.digest());

        // Duplicate window entries collapse to the first occurrence, and
        // the collecting path returns one outcome entry per distinct node.
        let mut duplicated = windows;
        let extra = duplicated[0].clone();
        duplicated.push(extra);
        let (report, outcomes) = explorer.explore_windows_collecting(&sim, duplicated);
        assert_eq!(report.digest(), via_nodes.digest());
        let outcome_nodes: Vec<NodeId> = outcomes.iter().map(|(n, _)| *n).collect();
        assert_eq!(outcome_nodes, nodes);
        // An empty window set yields an empty report.
        let empty = explorer.explore_windows(&sim, Vec::new());
        assert!(empty.nodes.is_empty());
        assert!(!empty.has_faults());
    }

    #[test]
    fn duplicate_node_ids_are_explored_once() {
        let sim = simulated_figure2(CustomerFilterMode::Erroneous);
        let topo = figure2_topology(CustomerFilterMode::Erroneous);
        let provider = topo.node_by_name("Provider").expect("node");

        let once = FleetExplorer::default().explore_nodes(&sim, &[provider]);
        let duplicated = FleetExplorer::default().explore_nodes(&sim, &[provider, provider]);
        assert_eq!(duplicated.nodes.len(), 1, "duplicates collapse");
        assert_eq!(duplicated.digest(), once.digest());
    }

    #[test]
    fn correct_fleet_stays_clean() {
        let sim = simulated_figure2(CustomerFilterMode::Correct);
        let report = FleetExplorer::default().explore(&sim);
        assert!(!report.has_faults(), "{report}");
        assert!(report.to_string().contains("no faults detected fleet-wide"));
        assert_eq!(report.total_sightings(), 0);
        assert!(report.node(NodeId(99)).is_none());
    }
}

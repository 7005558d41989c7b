//! Continuous online exploration against a *running* simulation.
//!
//! The paper's operating mode is not one harvested round over a frozen
//! snapshot: "DiCE continuously and automatically explores the system
//! behavior" alongside production execution. [`LiveOrchestrator`]
//! reproduces that over the deterministic [`Simulator`]:
//!
//! 1. **drive** — a caller-supplied driver injects the next stretch of
//!    live traffic (or reports that none is coming) and the simulator runs
//!    to quiescence;
//! 2. **window** — the delivery log is epoch-tagged
//!    ([`dice_netsim::ObservedInput::seq`]), so the round harvests exactly
//!    the inputs that arrived since the previous round
//!    ([`Simulator::observed_inputs_in`]) — no global wipe, no node ever
//!    loses another node's pending observations. The window is taken out
//!    of the log ([`Simulator::take_observed_in`]) instead of copied,
//!    since step 6 drops it anyway;
//! 3. **explore** — one fleet round runs over the window, every node in
//!    turn on the calling thread: the same function
//!    [`crate::FleetExplorer`] runs over a whole harvest;
//! 4. **check across rounds** — each node's window and outcomes become one
//!    history entry ([`crate::RoundOutcomes`]), reduced once into the
//!    window's [`crate::ObservedTimelines`] and folded into every temporal
//!    checker's [`crate::LiveFold`]; the entry itself is then dropped. The
//!    folds judge the last 64 entries: after each round the oldest beyond
//!    that expire, so the pass costs what the round observed, not what the
//!    window holds;
//! 5. **accumulate** — every round's [`FleetReport`] and the faults the
//!    folds show land in a [`LiveReport`], deduplicated *across rounds* by
//!    their typed key ([`Fault::fleet_key`], compared by value) in the same
//!    fault ledger fleet dedup uses: the same leak re-detected every round
//!    is one live fault with every sighting round recorded;
//! 6. **compact** — once the round's window is harvested, the delivery log
//!    below the cursor is dropped ([`Simulator::trim_observed_below`]),
//!    bounding a long live session's memory by the unharvested tail. A
//!    caller that wants to explore the same traffic again drives a second
//!    simulator through the same script: exploration never writes live
//!    state, so the two end in the same state.
//!
//! Memory stays bounded on a run of any length: the log by the
//! unharvested tail, the temporal folds by what the last 64 entries
//! observed.
//!
//! A deterministic [`FaultPlan`] ([`LiveOrchestrator::with_fault_plan`])
//! rides on the loop, perturbing the network between epochs — link flaps,
//! session resets, seeded message drop/duplicate/reorder — with every
//! injected event recorded in the simulator's [`dice_netsim::FaultTrace`],
//! so a faulty run replays byte-for-byte from `(plan, seed)`. The temporal
//! folds of step 4 are what catch the faults such a plan provokes — route
//! flaps, wedged convergence — that no single round's window can show.
//!
//! Each round's state is a fresh copy-on-write [`crate::RoundCheckpoint`]
//! per node, captured by the round's [`DiceSession`] once the simulator
//! has quiesced and dropped before the report is returned; within the
//! round every explored input shares it instead of deep-cloning the
//! router. That is the only fork there is: none is alive while the driver
//! or the simulator writes, so no live write ever copies a RIB. The
//! control snapshot's "cow tables n/m shared" line — how many of the
//! nodes' tables a fork held across each window *would* still share — is
//! computed from each RIB's write generation
//! ([`dice_router::Rib::generation`]) instead of from a held fork.
//!
//! Because each round checkpoints the node state *as it was when the round
//! ran*, continuous rounds see behaviour that a single end-of-run harvest
//! cannot: a route that was installed during the run but withdrawn before
//! the end can only be hijacked in a mid-run checkpoint (see the mid-run
//! hijack end-to-end test in `tests/live_orchestrator.rs`).
//!
//! Reports stay deterministic: a single-round run over a quiesced
//! simulator is byte-identical (per [`FleetReport::digest`]) to
//! [`crate::FleetExplorer::explore`] over the same state.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use dice_checkpoint::CowForkStats;
use dice_netsim::topology::NodeId;
use dice_netsim::{FaultPlan, SharedIngestStats, Simulator};
use dice_solver::SolverStats;

use crate::checker::{Fault, FaultKey, RoundOutcomes, LIVE_WINDOW};
use crate::control::{ControlPlane, ControlSnapshot, IngestCounters};
use crate::fleet::{fleet_round, FleetReport};
use crate::report::policy_coverage;
use crate::session::DiceSession;

/// One executed exploration round of a live run.
#[derive(Debug, Clone)]
pub struct LiveRound {
    /// Executed-round index (0-based; epochs that observed nothing do not
    /// consume an index).
    pub index: usize,
    /// The harvested epoch window `[from, to)` in delivery-log sequence
    /// numbers ([`dice_netsim::ObservedInput::seq`]).
    pub window: (u64, u64),
    /// The round's fleet report over exactly that window.
    pub report: FleetReport,
}

/// A fault after cross-round deduplication, with every sighting recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveFault {
    /// The fault, as first sighted (node provenance of the first sighting).
    pub fault: Fault,
    /// Every node whose exploration found the fault, in sighting order.
    pub nodes: Vec<NodeId>,
    /// Every executed round that re-detected the fault, in round order.
    pub rounds: Vec<usize>,
}

/// Faults keyed by [`Fault::fleet_key`], in first-sighting order, each with
/// the nodes and rounds that saw it: the one merge behind fleet dedup
/// ([`crate::dedup_fleet_faults`]) and a live run's cross-round fault list.
#[derive(Debug, Default)]
pub(crate) struct FaultLedger {
    index: HashMap<FaultKey, usize>,
    faults: Vec<LiveFault>,
}

impl FaultLedger {
    /// Records that `nodes` saw `fault` in `round`. A new key is appended,
    /// its fault stamped with the first of `nodes`; a known key gains the
    /// nodes it lacks, in order, and the round once.
    pub(crate) fn record(&mut self, fault: &Fault, nodes: &[NodeId], round: usize) {
        match self.index.entry(fault.fleet_key()) {
            Entry::Occupied(slot) => {
                let known = &mut self.faults[*slot.get()];
                for node in nodes {
                    if !known.nodes.contains(node) {
                        known.nodes.push(*node);
                    }
                }
                if known.rounds.last() != Some(&round) {
                    known.rounds.push(round);
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(self.faults.len());
                let fault = match nodes.first() {
                    Some(&first) => fault.clone().with_node(first),
                    None => fault.clone(),
                };
                self.faults.push(LiveFault {
                    fault,
                    nodes: nodes.to_vec(),
                    rounds: vec![round],
                });
            }
        }
    }

    /// The number of distinct keys recorded.
    pub(crate) fn len(&self) -> usize {
        self.faults.len()
    }

    /// The recorded faults, in first-sighting order.
    pub(crate) fn into_faults(self) -> Vec<LiveFault> {
        self.faults
    }
}

/// The accumulated result of a continuous exploration run.
#[derive(Debug, Clone, Default)]
pub struct LiveReport {
    /// Executed rounds, in execution order.
    pub rounds: Vec<LiveRound>,
    /// Faults deduplicated across nodes *and* rounds by their typed key
    /// ([`Fault::fleet_key`]), in first-sighting order.
    pub faults: Vec<LiveFault>,
    /// Total number of faults the run's [`FaultPlan`] injected into the
    /// simulation (link flaps, session resets, message perturbations;
    /// structural delivery errors excluded). Zero without a plan, and
    /// rendered in the digest and [`fmt::Display`] only when nonzero so
    /// unperturbed runs stay byte-identical to pre-fault-injection builds.
    pub injected_faults: u64,
    /// Counters of the fault-plan search that produced this report, when
    /// it came out of a [`FaultPlanSearch`](crate::FaultPlanSearch) rather
    /// than a single run. `None` (and absent from the digest and
    /// [`fmt::Display`]) for plain runs, so no-search digests stay
    /// byte-identical to pre-search builds.
    pub search: Option<SearchSummary>,
    /// Wall-clock duration of the whole run (driving, simulating and
    /// exploring).
    pub elapsed: Duration,
}

/// Aggregate counters of a fault-plan search, attached to the
/// [`LiveReport`] a [`FaultPlanSearch`](crate::FaultPlanSearch) returns
/// and exported through the [`crate::ControlSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchSummary {
    /// Candidate plans evaluated (the empty-plan baseline and shrinker
    /// probe runs excluded).
    pub plans_tried: u64,
    /// Plans that surfaced a never-seen fleet key, checker class, or
    /// fault-trace event shape.
    pub novel_plans: u64,
    /// Distinct minimized, replayable counterexamples emitted.
    pub minimized_repros: u64,
    /// Faults injected across every candidate run, summed.
    pub injected_total: u64,
}

impl LiveReport {
    /// Returns true if any round found any fault.
    pub fn has_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Total executions across all rounds and nodes.
    pub fn total_runs(&self) -> usize {
        self.rounds.iter().map(|r| r.report.total_runs()).sum()
    }

    /// Observed inputs the per-round cap left unexplored, summed over rounds
    /// and nodes ([`FleetReport::total_dropped_inputs`]; never part of
    /// [`LiveReport::digest`]).
    pub fn total_dropped_inputs(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.report.total_dropped_inputs())
            .sum()
    }

    /// Fault sightings before any deduplication (sum over rounds of
    /// per-node fault counts).
    pub fn total_sightings(&self) -> usize {
        self.rounds.iter().map(|r| r.report.total_sightings()).sum()
    }

    /// Total policy branch sites registered across all rounds and nodes.
    fn total_policy_sites(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.report.total_policy_sites())
            .sum()
    }

    /// Total policy (site, direction) pairs exercised across all rounds.
    fn total_policy_directions(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.report.total_policy_directions())
            .sum()
    }

    /// Run-wide policy-branch coverage over registered filter arms, in
    /// `[0, 1]`; `1.0` when no round registered any policy site.
    fn policy_branch_coverage(&self) -> f64 {
        policy_coverage(self.total_policy_sites(), self.total_policy_directions())
    }

    /// A canonical rendering of every deterministic field: each round's
    /// window and [`FleetReport::digest`], then the cross-round fault list
    /// with full provenance. Independent of wall-clock time and worker
    /// counts — byte-identical across reruns of the same deterministic
    /// scenario.
    pub fn digest(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for round in &self.rounds {
            writeln!(
                out,
                "round{} window=[{},{}):",
                round.index, round.window.0, round.window.1
            )
            .expect("writing to a String cannot fail");
            out.push_str(&round.report.digest());
        }
        for f in &self.faults {
            let nodes: Vec<String> = f.nodes.iter().map(|n| n.0.to_string()).collect();
            let rounds: Vec<String> = f.rounds.iter().map(|r| r.to_string()).collect();
            writeln!(
                out,
                "live-fault:{} nodes=[{}] rounds=[{}]",
                f.fault,
                nodes.join(","),
                rounds.join(",")
            )
            .expect("writing to a String cannot fail");
        }
        if self.injected_faults > 0 {
            writeln!(out, "injected-faults:{}", self.injected_faults)
                .expect("writing to a String cannot fail");
        }
        if let Some(search) = &self.search {
            writeln!(
                out,
                "search:plans={} novel={} repros={} injected={}",
                search.plans_tried,
                search.novel_plans,
                search.minimized_repros,
                search.injected_total
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// What every [`ControlSnapshot`] reports of a run's executed rounds,
/// accumulated by [`LiveOrchestrator::run`] as the rounds execute so that
/// publishing one does not walk all the rounds before it.
#[derive(Debug, Default)]
struct RunTotals {
    runs: usize,
    dropped_inputs: usize,
    policy_sites: usize,
    policy_directions: usize,
    /// Solver counters merged over every node round.
    solver: SolverStats,
    /// Wall-clock latency of the last round, and its sum over all rounds.
    last_latency: Duration,
    latency_total: Duration,
    round_latency: dice_obs::Histogram,
    wave_latency: dice_obs::Histogram,
    /// The table-level CoW sharing a fork held across each epoch window
    /// would show, counted when the window closes.
    cow: CowForkStats,
}

impl RunTotals {
    /// Adds one executed round: its fleet report and its wall-clock
    /// latency.
    fn add_round(&mut self, fleet: &FleetReport, latency: Duration) {
        for node in &fleet.nodes {
            self.solver.merge(&node.report.solver_stats);
        }
        self.wave_latency.merge(&fleet.wave_latency());
        self.runs += fleet.total_runs();
        self.dropped_inputs += fleet.total_dropped_inputs();
        self.policy_sites += fleet.total_policy_sites();
        self.policy_directions += fleet.total_policy_directions();
        self.last_latency = latency;
        self.latency_total += latency;
        self.round_latency.record_duration(latency);
    }
}

impl fmt::Display for LiveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DiCE live exploration: {} round(s), {} run(s), {} sighting(s) -> {} distinct fault(s) in {:?}",
            self.rounds.len(),
            self.total_runs(),
            self.total_sightings(),
            self.faults.len(),
            self.elapsed,
        )?;
        if self.total_policy_sites() > 0 {
            writeln!(
                f,
                "  policy: {:.0}% of filter-arm directions explored across rounds ({}/{})",
                self.policy_branch_coverage() * 100.0,
                self.total_policy_directions(),
                2 * self.total_policy_sites(),
            )?;
        }
        if self.injected_faults > 0 {
            writeln!(
                f,
                "  fault plan: {} fault(s) injected across the run",
                self.injected_faults,
            )?;
        }
        if let Some(search) = &self.search {
            writeln!(
                f,
                "  fault search: {} plan(s) tried, {} novel, {} minimized repro(s)",
                search.plans_tried, search.novel_plans, search.minimized_repros,
            )?;
        }
        for round in &self.rounds {
            writeln!(
                f,
                "  round {} over window [{}, {}): {} run(s), {} sighting(s)",
                round.index,
                round.window.0,
                round.window.1,
                round.report.total_runs(),
                round.report.total_sightings(),
            )?;
        }
        if self.faults.is_empty() {
            writeln!(f, "  no faults detected across any round")?;
        } else {
            for fault in &self.faults {
                let nodes: Vec<String> = fault.nodes.iter().map(|n| n.0.to_string()).collect();
                let rounds: Vec<String> = fault.rounds.iter().map(|r| r.to_string()).collect();
                writeln!(
                    f,
                    "  - {} (node(s) {}; round(s) {})",
                    fault.fault,
                    nodes.join(", "),
                    rounds.join(", ")
                )?;
            }
        }
        Ok(())
    }
}

/// Interleaves live simulation progress with continuous exploration
/// rounds.
///
/// Construct from a [`DiceSession`] (shared checker registry and engine
/// settings, like [`crate::FleetExplorer`]), then [`LiveOrchestrator::run`] with a
/// traffic driver. The driver is called once per epoch to push the next
/// stretch of live traffic into the simulator and returns whether more may
/// come; after each epoch the simulator runs to quiescence and the newly
/// observed window is explored.
#[derive(Debug, Clone)]
pub struct LiveOrchestrator {
    session: DiceSession,
    quiesce_steps: u64,
    max_rounds: usize,
    fault_plan: Option<FaultPlan>,
    control: ControlPlane,
    ingest_stats: Option<SharedIngestStats>,
}

impl Default for LiveOrchestrator {
    fn default() -> Self {
        LiveOrchestrator::new(DiceSession::default())
    }
}

impl LiveOrchestrator {
    /// Creates an orchestrator running every round through the given
    /// session.
    pub fn new(session: DiceSession) -> Self {
        LiveOrchestrator {
            session,
            quiesce_steps: 100,
            max_rounds: 64,
            fault_plan: None,
            control: ControlPlane::new(),
            ingest_stats: None,
        }
    }

    /// Does nothing. It used to bound the threads each round's node
    /// fan-out spawned; a round now explores every node on the calling
    /// thread, so there is nothing left to bound.
    #[deprecated(note = "a live round runs on the calling thread; the budget bounds nothing")]
    pub fn with_core_budget(self, _cores: usize) -> Self {
        self
    }

    /// Sets how many simulator steps each epoch may take to quiesce before
    /// its round harvests (default 100).
    pub fn with_quiesce_steps(mut self, steps: u64) -> Self {
        self.quiesce_steps = steps;
        self
    }

    /// Caps the number of driver epochs — and therefore executed rounds —
    /// of one [`LiveOrchestrator::run`] call (default 64; clamped to at
    /// least 1). The safety valve against drivers that never report
    /// completion.
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds.max(1);
        self
    }

    /// Installs a deterministic [`FaultPlan`] driven alongside the run: the
    /// plan is installed into the simulator when [`LiveOrchestrator::run`]
    /// starts (resetting the fault runtime and reseeding its RNG from the
    /// plan's seed), and the plan's epoch-scheduled faults — link flaps,
    /// session resets — are applied at the start of every driver epoch,
    /// *before* the driver injects that epoch's traffic. An empty plan
    /// injects nothing and leaves every report digest byte-identical to a
    /// run without a plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches the shared counters of a wire-ingest driver
    /// ([`dice_netsim::WireReplayDriver::stats`]) so decode/error counts
    /// and decode throughput report through every published
    /// [`ControlSnapshot`].
    pub fn with_ingest_stats(mut self, stats: SharedIngestStats) -> Self {
        self.ingest_stats = Some(stats);
        self
    }

    /// The control plane this orchestrator publishes to: a clone-cheap,
    /// `Arc`-shared handle. [`crate::ControlPlane::sample`] it from any
    /// thread mid-run; [`LiveOrchestrator::run`] publishes a fresh
    /// [`ControlSnapshot`] after every executed round and once more when
    /// the run ends.
    pub fn control_plane(&self) -> ControlPlane {
        self.control.clone()
    }

    /// Runs continuous exploration against the simulation.
    ///
    /// Per epoch: `drive(sim, epoch)` injects the next stretch of live
    /// traffic (returning `false` once no more will come), the simulator
    /// runs to quiescence, and the epoch window — everything observed
    /// since the previous round, including inputs already in the log
    /// before this call for the first round — is explored as one fleet
    /// round over every node. Epochs whose window is empty execute no
    /// round. The loop ends when the driver reports completion or
    /// [`LiveOrchestrator::with_max_rounds`] is reached.
    ///
    /// With a driver that immediately returns `false` over an already
    /// quiesced simulator this degenerates to exactly one round over the
    /// full log — byte-identical, per [`FleetReport::digest`], to
    /// [`crate::FleetExplorer::explore`] on the same state (the equivalence
    /// anchor asserted in `tests/live_orchestrator.rs`).
    pub fn run<F>(&self, sim: &mut Simulator, mut drive: F) -> LiveReport
    where
        F: FnMut(&mut Simulator, usize) -> bool,
    {
        let started = Instant::now();
        if let Some(plan) = &self.fault_plan {
            sim.install_fault_plan(plan.clone());
        }
        let nodes: Vec<NodeId> = (0..sim.len()).map(NodeId).collect();
        let mut report = LiveReport::default();
        let mut ledger = FaultLedger::default();
        let mut cursor = 0u64;
        let mut temporal = self.session.live_window(LIVE_WINDOW);
        let mut totals = RunTotals::default();
        // Each node's table generation when the current window opened.
        let mut generations: Vec<u64> = nodes
            .iter()
            .map(|&node| sim.router(node).rib().generation())
            .collect();

        for epoch in 0..self.max_rounds.max(1) {
            let epoch_started = Instant::now();
            // Scheduled faults fire first, so the driver's epoch traffic
            // lands on the perturbed network. A no-op without a plan.
            sim.apply_epoch_faults(epoch as u64);
            let more = drive(sim, epoch);
            sim.run_to_quiescence(self.quiesce_steps);
            let head = sim.observed_cursor();
            if head > cursor {
                let mut harvest_span = dice_obs::span("core", "live.harvest");
                // The log below `head` is trimmed once the round is done,
                // so the window is taken out of it, not copied.
                let windows: Vec<_> = nodes
                    .iter()
                    .copied()
                    .zip(sim.take_observed_in(cursor, head))
                    .collect();
                harvest_span.set_detail(windows.iter().map(|(_, w)| w.len() as u64).sum());
                drop(harvest_span);
                let (fleet, outcomes) = fleet_round(&self.session, sim, &windows);
                let round_index = report.rounds.len();
                for sighting in &fleet.faults {
                    ledger.record(&sighting.fault, &sighting.nodes, round_index);
                }

                // Each node that saw anything adds one history entry, folded
                // into the temporal checkers and then dropped. The nodes
                // are distinct, so the round returned one outcome entry per
                // window, in window order.
                let entries: Vec<RoundOutcomes> = windows
                    .into_iter()
                    .zip(outcomes)
                    .filter(|((_, observed), (_, outcomes))| {
                        !observed.is_empty() || !outcomes.is_empty()
                    })
                    .map(|((node, observed), (_, outcomes))| RoundOutcomes {
                        round: round_index,
                        node,
                        observed,
                        outcomes,
                    })
                    .collect();
                let mut check_span = dice_obs::span("core", "live.check");
                let found = temporal.fold_round(&entries);
                check_span.set_detail(temporal.held_entries() as u64);
                drop(check_span);
                // The folds show every fault the window still holds, every
                // round; the ledger records a known key's round once.
                for fault in &found {
                    ledger.record(fault, fault.node.as_slice(), round_index);
                }

                report.rounds.push(LiveRound {
                    index: round_index,
                    window: (cursor, head),
                    report: fleet,
                });
                cursor = head;
                // Every cursor of this run has passed `cursor`, so the log
                // below it can never be harvested again: drop it.
                sim.trim_observed_below(cursor);

                // The window closes: a table whose generation has not
                // moved since it opened is one a fork held across it would
                // still share. The same reading opens the next window.
                for (opened, &node) in generations.iter_mut().zip(&nodes) {
                    let closed = sim.router(node).rib().generation();
                    totals.cow.units_total += 1;
                    totals.cow.units_shared += usize::from(*opened == closed);
                    *opened = closed;
                }
                totals.add_round(&report.rounds[round_index].report, epoch_started.elapsed());
                self.control
                    .publish(self.snapshot(&report, ledger.len(), &totals, sim, cursor));
            }
            if !more {
                break;
            }
        }

        report.injected_faults = sim.injected_fault_count() as u64;
        report.elapsed = started.elapsed();
        self.control
            .publish(self.snapshot(&report, ledger.len(), &totals, sim, cursor));
        report.faults = ledger.into_faults();
        report
    }

    /// Builds the [`ControlSnapshot`] published after each executed round
    /// (and once more at run end) from the in-progress report, its count of
    /// distinct faults, the run's totals and the simulator.
    fn snapshot(
        &self,
        report: &LiveReport,
        distinct_faults: usize,
        totals: &RunTotals,
        sim: &Simulator,
        watermark: u64,
    ) -> ControlSnapshot {
        let rounds = report.rounds.len();
        ControlSnapshot {
            rounds,
            total_runs: totals.runs,
            dropped_inputs: totals.dropped_inputs as u64,
            distinct_faults,
            injected_faults: sim.injected_fault_count() as u64,
            fault_trace_events: sim.fault_trace().len() as u64,
            fault_trace_fingerprint: sim.fault_trace().fingerprint(),
            last_round_latency: totals.last_latency,
            mean_round_latency: ControlSnapshot::mean_latency(totals.latency_total, rounds),
            round_latency: totals.round_latency.summary(),
            wave_latency: totals.wave_latency.summary(),
            solver_queries: totals.solver.queries,
            solver_incremental_queries: totals.solver.incremental_queries,
            solver_reuse_rate: totals.solver.reuse_rate(),
            policy_coverage: policy_coverage(totals.policy_sites, totals.policy_directions),
            cow: totals.cow,
            compaction_watermark: watermark,
            delivered: sim.stats().delivered,
            ingest: self
                .ingest_stats
                .as_ref()
                .map(|stats| stats.read(|stats| IngestCounters::from(stats)))
                .unwrap_or_default(),
            ..ControlSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::DiceBuilder;
    use crate::FleetExplorer;
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

    fn inject_victim_table(sim: &mut Simulator, provider: NodeId) {
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
    }

    fn inject_customer_block(sim: &mut Simulator, provider: NodeId, block: &str) {
        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement(block, &[asn::CUSTOMER, asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);
    }

    #[test]
    fn single_round_run_is_byte_identical_to_a_fleet_exploration() {
        let topo = figure2_topology(CustomerFilterMode::Erroneous);
        let provider = topo.node_by_name("Provider").expect("node");
        let mut sim = Simulator::new(&topo);
        inject_victim_table(&mut sim, provider);
        inject_customer_block(&mut sim, provider, "41.1.0.0/16");

        let session = DiceSession::default();
        let fleet = FleetExplorer::new(session.clone()).explore(&sim);
        let live = LiveOrchestrator::new(session).run(&mut sim, |_, _| false);

        assert_eq!(live.rounds.len(), 1, "one round over the full log");
        assert_eq!(
            live.rounds[0].report.digest(),
            fleet.digest(),
            "the quiesced single-round path must match FleetExplorer exactly"
        );
        assert_eq!(live.rounds[0].window.0, 0);
        assert_eq!(live.rounds[0].window.1, sim.observed_cursor());
        assert!(live.has_faults());
        assert_eq!(live.faults.len(), fleet.faults.len());
        assert_eq!(live.total_runs(), fleet.total_runs());
    }

    #[test]
    fn inputs_the_cap_drops_are_counted_per_round_and_in_the_snapshot() {
        let topo = figure2_topology(CustomerFilterMode::Erroneous);
        let provider = topo.node_by_name("Provider").expect("node");
        let mut sim = Simulator::new(&topo);
        inject_victim_table(&mut sim, provider);

        let orchestrator = LiveOrchestrator::new(DiceBuilder::new().max_observed_inputs(1).build());
        let plane = orchestrator.control_plane();
        let live = orchestrator.run(&mut sim, |sim, epoch| {
            inject_customer_block(sim, provider, "41.1.0.0/16");
            inject_customer_block(sim, provider, "41.64.0.0/12");
            epoch == 0
        });

        assert_eq!(live.rounds.len(), 2);
        // Per round, what each node explored plus what its cap dropped is
        // the whole window.
        for round in &live.rounds {
            let explored: usize = round
                .report
                .nodes
                .iter()
                .map(|n| n.report.observed_inputs)
                .sum();
            assert_eq!(
                explored + round.report.total_dropped_inputs(),
                (round.window.1 - round.window.0) as usize,
                "round {}",
                round.index
            );
        }
        assert!(live.total_dropped_inputs() > 0);
        assert_eq!(
            plane.sample().dropped_inputs,
            live.total_dropped_inputs() as u64
        );
    }

    /// The round pass of one round: its fleet-deduplicated faults.
    fn round_pass(ledger: &mut FaultLedger, sightings: &[crate::FleetFault], round: usize) {
        for sighting in sightings {
            ledger.record(&sighting.fault, &sighting.nodes, round);
        }
    }

    /// The temporal pass of one round: what the folds show.
    fn temporal_pass(ledger: &mut FaultLedger, found: &[Fault], round: usize) {
        for fault in found {
            ledger.record(fault, fault.node.as_slice(), round);
        }
    }

    #[test]
    fn the_fault_ledger_records_each_round_once_per_key() {
        use crate::FaultKind;
        let prefix: dice_bgp::prefix::Ipv4Prefix = "41.1.0.0/16".parse().expect("valid");
        let flap = |node: usize, transitions: usize| {
            Fault::new(
                "cross-round-flap",
                FaultKind::CrossRoundFlap {
                    announced: prefix,
                    transitions,
                },
            )
            .with_node(NodeId(node))
        };
        let hijack = crate::FleetFault {
            fault: Fault::new(
                "origin-hijack",
                FaultKind::PotentialHijack {
                    announced: prefix,
                    claimed_origin: dice_bgp::Asn(64_512),
                    existing_prefix: prefix,
                    existing_origin: dice_bgp::Asn(17_557),
                },
            )
            .with_node(NodeId(1)),
            nodes: vec![NodeId(1), NodeId(2)],
        };

        let mut ledger = FaultLedger::default();
        // Round 0: the round pass sees the hijack on nodes 1 and 2; the
        // folds show one flap key on nodes 2 and then 0.
        round_pass(&mut ledger, std::slice::from_ref(&hijack), 0);
        temporal_pass(&mut ledger, &[flap(2, 2), flap(0, 3)], 0);
        assert_eq!(ledger.len(), 2);
        let faults = &ledger.faults;
        assert_eq!(faults[1].fault, flap(2, 2), "the first sighting is kept");
        assert_eq!(faults[1].nodes, vec![NodeId(2), NodeId(0)]);
        assert_eq!(faults[1].rounds, vec![0], "one round, recorded once");

        // Round 1: the hijack again, now also on node 0, and the flap.
        let again = crate::FleetFault {
            nodes: vec![NodeId(2), NodeId(0)],
            ..hijack
        };
        round_pass(&mut ledger, &[again], 1);
        temporal_pass(&mut ledger, &[flap(0, 4)], 1);
        let faults = ledger.into_faults();
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].fault.node, Some(NodeId(1)));
        assert_eq!(faults[0].nodes, vec![NodeId(1), NodeId(2), NodeId(0)]);
        assert_eq!(faults[0].rounds, vec![0, 1]);
        assert_eq!(faults[1].nodes, vec![NodeId(2), NodeId(0)]);
        assert_eq!(faults[1].rounds, vec![0, 1]);
    }

    #[test]
    fn rounds_harvest_disjoint_incremental_windows() {
        let topo = figure2_topology(CustomerFilterMode::Erroneous);
        let provider = topo.node_by_name("Provider").expect("node");
        let mut sim = Simulator::new(&topo);
        inject_victim_table(&mut sim, provider);

        let blocks = ["41.1.0.0/16", "41.64.0.0/12", "41.128.0.0/12"];
        let live = LiveOrchestrator::default().run(&mut sim, |sim, epoch| {
            if let Some(block) = blocks.get(epoch) {
                inject_customer_block(sim, provider, block);
            }
            epoch + 1 < blocks.len()
        });

        assert_eq!(live.rounds.len(), blocks.len());
        // Windows tile the log: contiguous, ascending, starting at 0.
        assert_eq!(live.rounds[0].window.0, 0);
        for pair in live.rounds.windows(2) {
            assert_eq!(pair[0].window.1, pair[1].window.0);
            assert!(pair[1].window.1 > pair[1].window.0);
        }
        assert_eq!(
            live.rounds.last().expect("rounds ran").window.1,
            sim.observed_cursor()
        );
        // Every round explores exactly its window, not the whole history:
        // the per-node observed inputs sum to the window's size (every log
        // entry belongs to exactly one node).
        for round in &live.rounds {
            let window_inputs: usize = round
                .report
                .nodes
                .iter()
                .map(|n| n.report.observed_inputs)
                .sum();
            let window_len = (round.window.1 - round.window.0) as usize;
            assert_eq!(window_inputs, window_len, "round {}", round.index);
        }
        assert!(live.to_string().contains("round 2"));
    }

    #[test]
    fn the_same_fault_redetected_every_round_dedups_across_rounds() {
        let topo = figure2_topology(CustomerFilterMode::Erroneous);
        let provider = topo.node_by_name("Provider").expect("node");
        let mut sim = Simulator::new(&topo);
        inject_victim_table(&mut sim, provider);

        // The customer re-announces the same block every epoch: each round
        // re-detects the same leak.
        let live = LiveOrchestrator::default().run(&mut sim, |sim, epoch| {
            inject_customer_block(sim, provider, "41.1.0.0/16");
            epoch < 1
        });
        assert_eq!(live.rounds.len(), 2);
        assert!(live.has_faults());
        let per_round: usize = live.rounds.iter().map(|r| r.report.faults.len()).sum();
        assert!(
            per_round > live.faults.len(),
            "cross-round dedup collapsed re-detections ({per_round} sightings -> {} faults)",
            live.faults.len()
        );
        // Every fault carries the rounds that saw it, in order.
        assert!(live.faults.iter().any(|f| f.rounds == vec![0, 1]));
        for fault in &live.faults {
            assert!(!fault.rounds.is_empty());
            assert!(fault.rounds.windows(2).all(|w| w[0] < w[1]));
        }
        // The digest is stable across identical reruns.
        let mut sim2 = Simulator::new(&topo);
        inject_victim_table(&mut sim2, provider);
        let rerun = LiveOrchestrator::default().run(&mut sim2, |sim, epoch| {
            inject_customer_block(sim, provider, "41.1.0.0/16");
            epoch < 1
        });
        assert_eq!(rerun.digest(), live.digest());
    }

    #[test]
    fn log_compaction_drops_harvested_windows_without_changing_reports() {
        let topo = figure2_topology(CustomerFilterMode::Erroneous);
        let provider = topo.node_by_name("Provider").expect("node");
        let blocks = ["41.1.0.0/16", "41.64.0.0/12"];
        let drive = |sim: &mut Simulator, epoch: usize| {
            if let Some(block) = blocks.get(epoch) {
                inject_customer_block(sim, provider, block);
            }
            epoch + 1 < blocks.len()
        };

        // The log is trimmed up to the cursor after each round — a fully
        // harvested run leaves an empty log.
        let mut compacted_sim = Simulator::new(&topo);
        inject_victim_table(&mut compacted_sim, provider);
        let compacted = LiveOrchestrator::default().run(&mut compacted_sim, drive);
        assert!(
            compacted_sim.observed_log().is_empty(),
            "every window was harvested, so compaction empties the log"
        );
        assert_eq!(compacted_sim.observed_cursor(), {
            let last = compacted.rounds.last().expect("rounds ran");
            last.window.1
        });
        assert!(compacted.has_faults());
    }

    /// What a [`Probe`]'s fold saw: every entry pushed (outcomes left
    /// out), and after every round the entries pushed so far, the faults
    /// reported and the summaries held.
    #[derive(Default)]
    struct ProbeLog {
        entries: Vec<RoundOutcomes>,
        rounds: Vec<(usize, Vec<Fault>, usize)>,
    }

    /// A temporal checker that records what its inner checker's fold sees
    /// and reports.
    struct Probe<C> {
        inner: C,
        log: std::sync::Arc<std::sync::Mutex<ProbeLog>>,
    }

    impl<C: crate::FaultChecker> crate::FaultChecker for Probe<C> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn check(
            &self,
            _outcome: &crate::HandlerOutcome,
            _node: &dice_router::BgpRouter,
        ) -> Option<Fault> {
            None
        }

        fn live_fold(&self) -> Option<Box<dyn crate::LiveFold>> {
            Some(Box::new(ProbeFold {
                inner: self.inner.live_fold()?,
                log: std::sync::Arc::clone(&self.log),
            }))
        }
    }

    struct ProbeFold {
        inner: Box<dyn crate::LiveFold>,
        log: std::sync::Arc<std::sync::Mutex<ProbeLog>>,
    }

    impl crate::LiveFold for ProbeFold {
        fn push(&mut self, entry: &RoundOutcomes, timelines: &crate::ObservedTimelines) {
            let entry_seen = RoundOutcomes {
                outcomes: Vec::new(),
                ..entry.clone()
            };
            self.log.lock().expect("no panics").entries.push(entry_seen);
            self.inner.push(entry, timelines);
        }

        fn expire(&mut self, timelines: &crate::ObservedTimelines) {
            self.inner.expire(timelines);
        }

        fn faults(&self, timelines: &crate::ObservedTimelines, out: &mut Vec<Fault>) {
            let mut faults = Vec::new();
            self.inner.faults(timelines, &mut faults);
            let mut log = self.log.lock().expect("no panics");
            let pushed = log.entries.len();
            log.rounds
                .push((pushed, faults.clone(), timelines.held_summaries()));
            out.extend(faults);
        }
    }

    /// Distinct prefixes an entry's observed window names: the summaries a
    /// fold holds for it.
    fn summaries_of(entry: &RoundOutcomes) -> usize {
        let prefixes: std::collections::BTreeSet<_> = entry
            .observed
            .iter()
            .flat_map(|(_, update)| update.withdrawn.iter().chain(&update.nlri))
            .collect();
        prefixes.len()
    }

    #[test]
    fn a_thousand_round_run_keeps_the_temporal_folds_bounded() {
        let topo = figure2_topology(CustomerFilterMode::Correct);
        let provider = topo.node_by_name("Provider").expect("node");
        let mut sim = Simulator::new(&topo);
        let logs: [std::sync::Arc<std::sync::Mutex<ProbeLog>>; 2] = Default::default();
        let session = DiceBuilder::new()
            .engine(dice_symexec::EngineConfig::default().with_max_runs(1))
            .checker(Box::new(Probe {
                inner: crate::CrossRoundFlapChecker::new(),
                log: std::sync::Arc::clone(&logs[0]),
            }))
            .checker(Box::new(Probe {
                inner: crate::BgpWedgieChecker::new(),
                log: std::sync::Arc::clone(&logs[1]),
            }))
            .build();
        // A looping driver: four customer blocks announced in turn, then
        // withdrawn in turn, forever. Every round observes the same amount,
        // so once the window is full its size must not move.
        let rounds = 1_000;
        let live =
            LiveOrchestrator::new(session)
                .with_max_rounds(rounds)
                .run(&mut sim, |sim, epoch| {
                    let block = format!("41.{}.0.0/16", epoch % 4);
                    if epoch / 4 % 2 == 0 {
                        inject_customer_block(sim, provider, &block);
                    } else {
                        sim.inject(
                            provider,
                            addr::CUSTOMER,
                            BgpMessage::Update(UpdateMessage::withdraw(vec![block
                                .parse()
                                .expect("valid")])),
                        );
                        sim.run_to_quiescence(100);
                    }
                    true
                });
        assert_eq!(live.rounds.len(), rounds);
        assert!(live.has_faults(), "the blocks flap");

        let oneshot = [
            DiceBuilder::new()
                .checker(Box::new(crate::CrossRoundFlapChecker::new()))
                .build(),
            DiceBuilder::new()
                .checker(Box::new(crate::BgpWedgieChecker::new()))
                .build(),
        ];
        for (log, oneshot) in logs.iter().zip(&oneshot) {
            let log = log.lock().expect("no panics");
            assert_eq!(log.rounds.len(), rounds);
            let held_at = |round: usize| {
                let (pushed, _, _) = log.rounds[round];
                &log.entries[pushed.saturating_sub(LIVE_WINDOW)..pushed]
            };
            // The fold holds exactly the summaries of the last 64 entries.
            for (round, (_, _, held)) in log.rounds.iter().enumerate() {
                let expected: usize = held_at(round).iter().map(summaries_of).sum();
                assert_eq!(*held, expected, "round {round}");
            }
            assert!(log.entries.len() > 2 * LIVE_WINDOW, "the window drained");
            let full = log.rounds[64].2;
            assert!(
                log.rounds[64..].iter().all(|&(_, _, held)| held == full),
                "the fold's size stays flat once the window is full"
            );
            // Round 502 sits in a withdrawal phase, so wedgies fire there.
            for round in [63, 64, 65, 500, 502] {
                assert_eq!(
                    log.rounds[round].1,
                    oneshot.check_live(held_at(round)),
                    "round {round}"
                );
            }
        }
    }

    #[test]
    fn quiet_epochs_execute_no_round_and_max_rounds_caps_the_run() {
        let topo = figure2_topology(CustomerFilterMode::Correct);
        let mut sim = Simulator::new(&topo);

        // No traffic at all: no rounds, no faults, empty digest.
        let idle = LiveOrchestrator::default().run(&mut sim, |_, _| true);
        assert!(idle.rounds.is_empty());
        assert!(!idle.has_faults());
        assert_eq!(idle.total_runs(), 0);
        assert_eq!(idle.digest(), "");
        assert!(idle.to_string().contains("no faults detected"));

        // A driver that never stops is cut off at max_rounds epochs.
        let provider = topo.node_by_name("Provider").expect("node");
        let mut epochs = 0usize;
        let capped = LiveOrchestrator::default()
            .with_max_rounds(3)
            .run(&mut sim, |sim, _| {
                epochs += 1;
                inject_customer_block(sim, provider, "41.1.0.0/16");
                true
            });
        assert_eq!(epochs, 3);
        assert_eq!(capped.rounds.len(), 3);
    }
}

//! Coverage-guided search over the fault-plan space, with automatic
//! counterexample shrinking.
//!
//! Since the fault layer landed, [`crate::LiveOrchestrator::with_fault_plan`]
//! could only *replay* one hand-written [`FaultPlan`] — the adversarial
//! dimension was frozen at whatever an operator already imagined. This
//! module turns the plan space itself into a searched exploration surface,
//! the same move the policy layer made for filter branches:
//!
//! 1. [`FaultPlanSearch`] generates and mutates plans from a seeded RNG
//!    (add / remove / retarget / reschedule specs, splice two plans,
//!    reseed the probabilistic draws) and runs each candidate through a
//!    fresh scenario simulator under the configured orchestrator.
//! 2. Every run is scored for *novelty* — never-seen fault keys
//!    ([`Fault::fleet_key`]), checker classes, or fault-trace event shapes
//!    (an event's class and endpoints) — and novel plans enter the mutation
//!    pool, biasing the search toward productive regions. Keys and shapes
//!    are compared by value; the string form of a key ([`fault_key`]) is
//!    rendered only where it is read: the baseline key set, the repro
//!    order and the [`ReproBundle`]s.
//! 3. When a plan surfaces a fault the empty-plan control run does not,
//!    the plan is delta-debugged down to a **1-minimal** trigger (no
//!    single spec can be removed without losing the fault) and emitted as
//!    a replayable [`ReproBundle`]: plan, seed, topology fingerprint and
//!    expected digests. [`ReproBundle::replay`] re-runs it byte-identically
//!    — every repro is deterministic from `(plan, seed)` alone.
//!
//! The established invariants hold throughout: a zero-search run and the
//! empty-plan baseline are byte-identical to a plain orchestrator run, and
//! the search's counters surface only in appended fields — the
//! [`crate::LiveReport`] search line renders only when a search actually
//! ran, and the [`crate::ControlSnapshot`] search counters read zero
//! without one.

use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dice_netsim::topology::NodeId;
use dice_netsim::{DeliveryError, FaultPlan, FaultSpec, InjectedFaultKind, Simulator};

use crate::checker::{Fault, FaultKey};
use crate::control::SearchCounters;
use crate::live::{LiveOrchestrator, LiveReport, SearchSummary};

/// A repeatable live-exploration scenario the search can re-run at will:
/// how to build a fresh simulator in its starting state, and how to drive
/// traffic through it epoch by epoch.
///
/// Both methods must be deterministic — the search runs the scenario once
/// per candidate plan and compares digests across runs, so any
/// nondeterminism would be indistinguishable from an injected fault.
pub trait FaultScenario: Send + Sync {
    /// Builds a fresh simulator positioned at the scenario's starting
    /// state. Called once per candidate run; two calls must produce
    /// byte-identical simulators.
    fn build(&self) -> Simulator;

    /// Drives one epoch of traffic, returning `false` to end the run
    /// (mirroring the driver contract of
    /// [`crate::LiveOrchestrator::run`]). The epochs a plan's specs name
    /// refer to this clock.
    fn drive(&self, sim: &mut Simulator, epoch: usize) -> bool;
}

/// A stable, human-readable fingerprint of a simulator's topology: node
/// count plus each node's name and router id. Recorded in every
/// [`ReproBundle`] so a repro replayed against the wrong scenario fails
/// loudly instead of silently diverging.
pub fn topology_fingerprint(sim: &Simulator) -> String {
    let mut out = format!("nodes={}", sim.len());
    for i in 0..sim.len() {
        let node = NodeId(i);
        let _ = write!(
            out,
            " node{}={}@{}",
            i,
            sim.name(node),
            sim.router(node).router_id()
        );
    }
    out
}

/// The flat string form of [`Fault::fleet_key`] (`checker|prefix|kind`):
/// how a [`ReproBundle`] and a [`SearchReport`] name a discovered fault.
pub fn fault_key(fault: &Fault) -> String {
    fault.fleet_key().to_string()
}

/// A fault-trace event's *shape*: its class and endpoints, without the
/// payload that varies run to run (epochs, counts, delays). Equal exactly
/// when the first two whitespace-separated tokens of the events'
/// renderings are.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum EventShape {
    /// A link or session event, or a message crossing a link: the class
    /// and the two endpoints.
    Link(&'static str, NodeId, NodeId),
    /// A partition or heal: the class and the node set.
    Nodes(&'static str, Vec<NodeId>),
    /// A delivery error: the node it names, `None` for an unknown source
    /// address.
    DeliveryError(Option<NodeId>),
}

impl EventShape {
    fn of(kind: &InjectedFaultKind) -> Self {
        match kind {
            InjectedFaultKind::LinkDown { a, b, .. } => EventShape::Link("link-down", *a, *b),
            InjectedFaultKind::LinkUp { a, b, .. } => EventShape::Link("link-up", *a, *b),
            InjectedFaultKind::SessionReset { a, b, .. } => {
                EventShape::Link("session-reset", *a, *b)
            }
            InjectedFaultKind::PartitionSevered { nodes, .. } => {
                EventShape::Nodes("partition-severed", nodes.clone())
            }
            InjectedFaultKind::PartitionHealed { nodes, .. } => {
                EventShape::Nodes("partition-healed", nodes.clone())
            }
            InjectedFaultKind::MessageDropped { from, to, .. } => {
                EventShape::Link("msg-dropped", *from, *to)
            }
            InjectedFaultKind::MessageDuplicated { from, to } => {
                EventShape::Link("msg-duplicated", *from, *to)
            }
            InjectedFaultKind::MessageDelayed { from, to, .. } => {
                EventShape::Link("msg-delayed", *from, *to)
            }
            InjectedFaultKind::DeliveryError(DeliveryError::UnknownSourceAddress { .. }) => {
                EventShape::DeliveryError(None)
            }
            InjectedFaultKind::DeliveryError(
                DeliveryError::UnknownPeer { node, .. }
                | DeliveryError::UnresolvedPeerAddress { node, .. }
                | DeliveryError::NoReturnPeer { to_node: node, .. },
            ) => EventShape::DeliveryError(Some(*node)),
        }
    }
}

/// The first two whitespace-separated tokens of an event's rendering:
/// the oracle [`EventShape::of`] is tested against.
#[cfg(test)]
fn rendered_shape(kind: &InjectedFaultKind) -> String {
    let line = kind.to_string();
    let shape: Vec<&str> = line.split_whitespace().take(2).collect();
    shape.join(" ")
}

/// Which [`FaultSpec`] kinds the generator and mutator may produce.
/// Narrowing the mask focuses the search: a partitions-only search
/// explores only multi-link failures, for example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecKindMask {
    /// Allow [`FaultSpec::LinkFlap`].
    pub link_flaps: bool,
    /// Allow [`FaultSpec::SessionReset`].
    pub session_resets: bool,
    /// Allow the probabilistic message faults
    /// ([`FaultSpec::MessageDrop`] / [`FaultSpec::MessageDuplicate`] /
    /// [`FaultSpec::MessageReorder`]).
    pub message_faults: bool,
    /// Allow [`FaultSpec::Partition`] / [`FaultSpec::Heal`] pairs.
    pub partitions: bool,
}

impl Default for SpecKindMask {
    fn default() -> Self {
        SpecKindMask {
            link_flaps: true,
            session_resets: true,
            message_faults: true,
            partitions: true,
        }
    }
}

impl SpecKindMask {
    /// Every spec kind enabled.
    pub fn all() -> Self {
        Self::default()
    }

    /// Only partition/heal specs: the multi-link failure surface.
    pub fn only_partitions() -> Self {
        SpecKindMask {
            link_flaps: false,
            session_resets: false,
            message_faults: false,
            partitions: true,
        }
    }

    fn enabled_tags(&self) -> Vec<u8> {
        let mut tags = Vec::new();
        if self.link_flaps {
            tags.push(0);
        }
        if self.session_resets {
            tags.push(1);
        }
        if self.message_faults {
            tags.extend([2, 3, 4]);
        }
        if self.partitions {
            tags.push(5);
        }
        tags
    }
}

/// A minimized, replayable counterexample: the smallest plan the shrinker
/// found that still triggers a fault the empty-plan control run does not,
/// plus everything needed to re-run it byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproBundle {
    /// The 1-minimal triggering plan (its seed is part of the replay
    /// contract).
    pub plan: FaultPlan,
    /// Fingerprint of the scenario topology the repro was minimized
    /// against ([`topology_fingerprint`]).
    pub topology_fingerprint: String,
    /// The triggered fault, as sighted in the minimized run.
    pub fault: Fault,
    /// The fault's search key ([`fault_key`]).
    pub fault_key: String,
    /// Expected [`dice_netsim::FaultTrace::digest`] of the minimized run.
    pub expected_trace_digest: String,
    /// Expected [`dice_netsim::FaultTrace::fingerprint`] of the minimized
    /// run.
    pub expected_trace_fingerprint: u64,
    /// Expected [`crate::LiveReport::digest`] of the minimized run.
    pub expected_live_digest: String,
}

/// What replaying a [`ReproBundle`] produced, for byte-identity checks.
#[derive(Debug, Clone)]
pub struct ReproReplay {
    /// The replayed run's fault-trace digest.
    pub trace_digest: String,
    /// The replayed run's live-report digest.
    pub live_digest: String,
    /// True when the bundled fault key fired again.
    pub triggered: bool,
    /// The replayed run's full report.
    pub report: LiveReport,
}

impl ReproBundle {
    /// The RNG seed of the minimized plan — with the plan itself, the
    /// complete determinism anchor.
    pub fn seed(&self) -> u64 {
        self.plan.seed()
    }

    /// Re-runs the bundled plan against a fresh scenario simulator under
    /// `orchestrator` (use the same configuration the search ran with) and
    /// returns the digests for comparison via [`ReproBundle::matches`].
    pub fn replay(
        &self,
        orchestrator: &LiveOrchestrator,
        scenario: &dyn FaultScenario,
    ) -> ReproReplay {
        let mut sim = scenario.build();
        let runner = orchestrator.clone().with_fault_plan(self.plan.clone());
        let report = runner.run(&mut sim, |sim, epoch| scenario.drive(sim, epoch));
        let triggered = report
            .faults
            .iter()
            .any(|f| fault_key(&f.fault) == self.fault_key);
        ReproReplay {
            trace_digest: sim.fault_trace().digest(),
            live_digest: report.digest(),
            triggered,
            report,
        }
    }

    /// True when a replay reproduced the bundle byte-identically: same
    /// fault-trace digest, same live digest, fault triggered again.
    pub fn matches(&self, replay: &ReproReplay) -> bool {
        replay.triggered
            && replay.trace_digest == self.expected_trace_digest
            && replay.live_digest == self.expected_live_digest
    }
}

/// What one search produced: counters, per-plan injection counts, and the
/// minimized repros.
#[derive(Debug, Clone, Default)]
pub struct SearchReport {
    /// Candidate plans evaluated (baseline and shrinker probes excluded).
    pub plans_tried: usize,
    /// Candidates that surfaced never-seen coverage.
    pub novel_plans: usize,
    /// Extra runs the shrinker spent minimizing counterexamples.
    pub shrink_runs: usize,
    /// Faults injected by each candidate plan, in evaluation order.
    pub injected_per_plan: Vec<u64>,
    /// Minimized, replayable counterexamples, deduplicated by fault key,
    /// in discovery order.
    pub repros: Vec<ReproBundle>,
    /// Fleet keys the empty-plan control run already reports (a candidate
    /// fault only becomes a counterexample if its key is *not* here).
    pub baseline_fault_keys: BTreeSet<String>,
    /// The empty-plan control run's live digest — must equal a plain
    /// orchestrator run's digest byte-for-byte.
    pub baseline_live_digest: String,
    /// The empty-plan control run's report with the search counters
    /// attached ([`SearchSummary`]).
    pub report: LiveReport,
    /// Wall-clock duration of the whole search.
    pub elapsed: Duration,
}

impl SearchReport {
    /// The counters the report carries, in the form the control plane and
    /// [`crate::LiveReport`] export.
    pub(crate) fn summary(&self) -> SearchSummary {
        SearchSummary {
            plans_tried: self.plans_tried as u64,
            novel_plans: self.novel_plans as u64,
            minimized_repros: self.repros.len() as u64,
            injected_total: self.injected_per_plan.iter().sum(),
        }
    }

    /// A canonical rendering of every deterministic field: the counters,
    /// per-plan injection counts, and one line per minimized repro.
    /// Byte-identical across reruns of the same seeded search.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "search plans={} novel={} repros={} shrink-runs={}",
            self.plans_tried,
            self.novel_plans,
            self.repros.len(),
            self.shrink_runs
        );
        let injected: Vec<String> = self
            .injected_per_plan
            .iter()
            .map(|n| n.to_string())
            .collect();
        let _ = writeln!(out, "injected-per-plan=[{}]", injected.join(","));
        let _ = writeln!(out, "baseline-faults={}", self.baseline_fault_keys.len());
        for repro in &self.repros {
            let _ = writeln!(
                out,
                "repro key={} specs={} seed={} trace-fingerprint={:016x}",
                repro.fault_key,
                repro.plan.specs().len(),
                repro.seed(),
                repro.expected_trace_fingerprint
            );
        }
        out
    }
}

/// What one candidate run surfaced, reduced to the coverage signals the
/// search scores on.
struct PlanProbe {
    /// The key of every fault the run reported, each once.
    keys: Vec<FaultKey>,
    shapes: HashSet<EventShape>,
    injected: u64,
    trace_fingerprint: u64,
    /// The run's report. Its digest is rendered only for the baseline and
    /// for a minimized plan's final run, the two places that read it.
    report: LiveReport,
}

/// Most specs a candidate plan may carry.
const MAX_SPECS: usize = 6;

/// The coverage-guided explorer over [`FaultPlan`] space.
///
/// Deterministic end to end: the generator and mutator draw from one RNG
/// seeded with [`FaultPlanSearch::with_seed`], every candidate run is
/// itself deterministic from `(plan, seed)`, and the result is a
/// [`SearchReport`] whose digest is byte-identical across reruns.
#[derive(Debug, Clone)]
pub struct FaultPlanSearch {
    orchestrator: LiveOrchestrator,
    seed: u64,
    budget: usize,
    epoch_horizon: u64,
    kinds: SpecKindMask,
}

impl FaultPlanSearch {
    /// Creates a search driving candidate runs through `orchestrator`
    /// (its checkers, budgets and control plane apply to every run).
    pub fn new(orchestrator: LiveOrchestrator) -> Self {
        FaultPlanSearch {
            orchestrator,
            seed: 0xD1CE,
            budget: 16,
            epoch_horizon: 4,
            kinds: SpecKindMask::default(),
        }
    }

    /// Seeds the generator/mutator RNG (default `0xD1CE`).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets how many candidate plans to evaluate (default 16). Zero means
    /// baseline only.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the largest epoch generated specs may name (default 4). Align
    /// it with the scenario's driver horizon so scheduled faults actually
    /// fire.
    pub fn with_epoch_horizon(mut self, horizon: u64) -> Self {
        self.epoch_horizon = horizon.max(1);
        self
    }

    /// Restricts which spec kinds the generator and mutator may produce.
    pub fn with_spec_kinds(mut self, kinds: SpecKindMask) -> Self {
        self.kinds = kinds;
        self
    }

    /// The orchestrator candidate runs execute under.
    pub fn orchestrator(&self) -> &LiveOrchestrator {
        &self.orchestrator
    }

    /// Runs the search: empty-plan baseline, then `budget` candidates with
    /// novelty-biased mutation, shrinking every fault the baseline does
    /// not report into a [`ReproBundle`]. Publishes the final
    /// [`crate::ControlSnapshot`] (with search counters) through the
    /// orchestrator's control plane.
    pub fn run(&self, scenario: &dyn FaultScenario) -> SearchReport {
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.seed);

        let probe_sim = scenario.build();
        let fingerprint = topology_fingerprint(&probe_sim);
        let node_count = probe_sim.len();
        drop(probe_sim);

        let (baseline, _) = self.run_plan(scenario, &FaultPlan::default());
        let baseline_keys: HashSet<FaultKey> = baseline.keys.iter().cloned().collect();
        let mut seen_keys = baseline_keys.clone();
        let mut seen_checkers: HashSet<String> = baseline
            .keys
            .iter()
            .map(|key| key.checker().to_owned())
            .collect();
        let mut seen_shapes = baseline.shapes.clone();

        let mut report = SearchReport {
            baseline_fault_keys: baseline.keys.iter().map(FaultKey::to_string).collect(),
            baseline_live_digest: baseline.report.digest(),
            ..SearchReport::default()
        };

        // Fault plans need at least two nodes to name a link and one
        // enabled spec kind; a degenerate scenario or mask degrades to the
        // baseline run.
        let budget = if node_count >= 2 && !self.kinds.enabled_tags().is_empty() {
            self.budget
        } else {
            0
        };
        let mut pool: Vec<FaultPlan> = Vec::new();
        let mut repro_keys: HashSet<FaultKey> = HashSet::new();

        for _ in 0..budget {
            let plan = if pool.is_empty() || rng.gen_bool(0.35) {
                self.fresh_plan(&mut rng, node_count)
            } else {
                let base = pool[rng.gen_range(0..pool.len())].clone();
                self.mutate(base, &pool, &mut rng, node_count)
            };
            let (probe, _) = self.run_plan(scenario, &plan);
            report.plans_tried += 1;
            report.injected_per_plan.push(probe.injected);

            let novel = probe.keys.iter().any(|key| !seen_keys.contains(key))
                || probe
                    .keys
                    .iter()
                    .any(|key| !seen_checkers.contains(key.checker()))
                || probe
                    .shapes
                    .iter()
                    .any(|shape| !seen_shapes.contains(shape));
            if novel {
                report.novel_plans += 1;
                pool.push(plan.clone());
            }
            for key in &probe.keys {
                if !seen_checkers.contains(key.checker()) {
                    seen_checkers.insert(key.checker().to_owned());
                }
                if !seen_keys.contains(key) {
                    seen_keys.insert(key.clone());
                }
            }
            seen_shapes.extend(probe.shapes);

            // Repros come out in the string order of their keys.
            let mut fresh_faults: Vec<(String, &FaultKey)> = probe
                .keys
                .iter()
                .filter(|key| !baseline_keys.contains(*key) && !repro_keys.contains(*key))
                .map(|key| (key.to_string(), key))
                .collect();
            fresh_faults.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            for (rendered, key) in fresh_faults {
                let minimized = self.minimize(scenario, &plan, key, &mut report.shrink_runs);
                let (final_probe, final_sim) = self.run_plan(scenario, &minimized);
                let Some(fault) = final_probe
                    .report
                    .faults
                    .iter()
                    .find(|f| f.fault.fleet_key() == *key)
                    .map(|f| f.fault.clone())
                else {
                    // The minimization invariant guarantees the key fires;
                    // a miss here would mean the scenario is
                    // nondeterministic, which the caller contract forbids.
                    continue;
                };
                repro_keys.insert(key.clone());
                report.repros.push(ReproBundle {
                    plan: minimized,
                    topology_fingerprint: fingerprint.clone(),
                    fault,
                    fault_key: rendered,
                    expected_trace_digest: final_sim.fault_trace().digest(),
                    expected_trace_fingerprint: final_probe.trace_fingerprint,
                    expected_live_digest: final_probe.report.digest(),
                });
            }
        }

        let mut live = baseline.report;
        live.search = Some(SearchSummary {
            plans_tried: report.plans_tried as u64,
            novel_plans: report.novel_plans as u64,
            minimized_repros: report.repros.len() as u64,
            injected_total: report.injected_per_plan.iter().sum(),
        });
        report.report = live;
        report.elapsed = started.elapsed();

        let plane = self.orchestrator.control_plane();
        let mut snapshot = (*plane.sample()).clone();
        snapshot.search = SearchCounters::from(&report.summary());
        plane.publish(snapshot);

        report
    }

    /// Replays a repro under this search's orchestrator configuration.
    pub fn replay(&self, scenario: &dyn FaultScenario, repro: &ReproBundle) -> ReproReplay {
        repro.replay(&self.orchestrator, scenario)
    }

    /// Runs `plan` over a fresh scenario simulator and probes the run. The
    /// simulator comes back too, for the one caller that reads its trace.
    fn run_plan(&self, scenario: &dyn FaultScenario, plan: &FaultPlan) -> (PlanProbe, Simulator) {
        let mut sim = scenario.build();
        let runner = self.orchestrator.clone().with_fault_plan(plan.clone());
        let report = runner.run(&mut sim, |sim, epoch| scenario.drive(sim, epoch));
        // The live report already deduplicated its faults by key.
        let keys = report.faults.iter().map(|f| f.fault.fleet_key()).collect();
        let shapes = sim
            .fault_trace()
            .events()
            .iter()
            .map(|event| EventShape::of(&event.kind))
            .collect();
        let probe = PlanProbe {
            keys,
            shapes,
            injected: report.injected_faults,
            trace_fingerprint: sim.fault_trace().fingerprint(),
            report,
        };
        (probe, sim)
    }

    /// Greedy delta debugging to a 1-minimal plan: repeatedly try dropping
    /// each single spec, keeping any removal after which `key` still
    /// fires, until a full pass removes nothing. A single-spec plan is
    /// 1-minimal by the empty-plan invariant (the empty plan is the
    /// baseline, which does not report `key`).
    fn minimize(
        &self,
        scenario: &dyn FaultScenario,
        plan: &FaultPlan,
        key: &FaultKey,
        shrink_runs: &mut usize,
    ) -> FaultPlan {
        let mut current = plan.clone();
        loop {
            let mut progressed = false;
            let mut index = 0;
            while index < current.specs().len() && current.specs().len() > 1 {
                let mut specs = current.specs().to_vec();
                specs.remove(index);
                let candidate = rebuild_plan(current.seed(), specs);
                *shrink_runs += 1;
                if self.run_plan(scenario, &candidate).0.keys.contains(key) {
                    current = candidate;
                    progressed = true;
                } else {
                    index += 1;
                }
            }
            if !progressed {
                return current;
            }
        }
    }

    fn fresh_plan(&self, rng: &mut StdRng, nodes: usize) -> FaultPlan {
        let seed = rng.gen_range(0..u64::MAX);
        let target = rng.gen_range(1..=MAX_SPECS.min(3));
        let mut specs = Vec::new();
        while specs.len() < target {
            specs.extend(self.random_specs(rng, nodes));
        }
        specs.truncate(MAX_SPECS);
        rebuild_plan(seed, specs)
    }

    fn mutate(
        &self,
        base: FaultPlan,
        pool: &[FaultPlan],
        rng: &mut StdRng,
        nodes: usize,
    ) -> FaultPlan {
        let mut seed = base.seed();
        let mut specs = base.specs().to_vec();
        match rng.gen_range(0..6u8) {
            // Add one (or a paired) random spec.
            0 => specs.extend(self.random_specs(rng, nodes)),
            // Remove one spec.
            1 => {
                if !specs.is_empty() {
                    let index = rng.gen_range(0..specs.len());
                    specs.remove(index);
                }
            }
            // Retarget one spec onto different nodes, keeping its timing.
            2 => {
                if !specs.is_empty() {
                    let index = rng.gen_range(0..specs.len());
                    specs[index] = retarget_spec(specs[index].clone(), rng, nodes);
                }
            }
            // Reschedule one spec's epochs, keeping its target.
            3 => {
                if !specs.is_empty() {
                    let index = rng.gen_range(0..specs.len());
                    specs[index] = self.reschedule_spec(specs[index].clone(), rng);
                }
            }
            // Splice: this plan's prefix, another plan's suffix.
            4 => {
                let other: Vec<FaultSpec> = if pool.is_empty() {
                    self.random_specs(rng, nodes)
                } else {
                    pool[rng.gen_range(0..pool.len())].specs().to_vec()
                };
                let cut = rng.gen_range(0..=specs.len());
                let other_cut = rng.gen_range(0..=other.len());
                specs.truncate(cut);
                specs.extend(other.into_iter().skip(other_cut));
            }
            // Reseed the probabilistic draws.
            _ => seed = rng.gen_range(0..u64::MAX),
        }
        specs.truncate(MAX_SPECS);
        if specs.is_empty() {
            specs = self.random_specs(rng, nodes);
            specs.truncate(MAX_SPECS);
        }
        rebuild_plan(seed, specs)
    }

    /// One random spec — or a spec *pair* for partitions, which usually
    /// generate with a matching heal so the post-heal divergence window
    /// the wedgie checker watches actually opens.
    fn random_specs(&self, rng: &mut StdRng, nodes: usize) -> Vec<FaultSpec> {
        let tags = self.kinds.enabled_tags();
        let horizon = self.epoch_horizon;
        match tags[rng.gen_range(0..tags.len())] {
            0 => {
                let (a, b) = random_pair(rng, nodes);
                let down_epoch = rng.gen_range(0..horizon);
                let up_epoch = rng.gen_range(down_epoch + 1..=horizon);
                vec![FaultSpec::LinkFlap {
                    a,
                    b,
                    down_epoch,
                    up_epoch,
                }]
            }
            1 => {
                let (a, b) = random_pair(rng, nodes);
                vec![FaultSpec::SessionReset {
                    a,
                    b,
                    epoch: rng.gen_range(0..=horizon),
                }]
            }
            2 => {
                let (a, b) = random_pair(rng, nodes);
                vec![FaultSpec::MessageDrop {
                    a,
                    b,
                    probability: random_probability(rng),
                }]
            }
            3 => {
                let (a, b) = random_pair(rng, nodes);
                vec![FaultSpec::MessageDuplicate {
                    a,
                    b,
                    probability: random_probability(rng),
                }]
            }
            4 => {
                let (a, b) = random_pair(rng, nodes);
                vec![FaultSpec::MessageReorder {
                    a,
                    b,
                    probability: random_probability(rng),
                    max_extra_ticks: rng.gen_range(1..=4),
                }]
            }
            _ => {
                let node = NodeId(rng.gen_range(0..nodes));
                let cut = rng.gen_range(0..horizon);
                let mut specs = vec![FaultSpec::Partition {
                    nodes: vec![node],
                    epoch: cut,
                }];
                if rng.gen_bool(0.7) {
                    specs.push(FaultSpec::Heal {
                        nodes: vec![node],
                        epoch: rng.gen_range(cut + 1..=horizon),
                    });
                }
                specs
            }
        }
    }

    fn reschedule_spec(&self, spec: FaultSpec, rng: &mut StdRng) -> FaultSpec {
        let horizon = self.epoch_horizon;
        match spec {
            FaultSpec::LinkFlap { a, b, .. } => {
                let down_epoch = rng.gen_range(0..horizon);
                let up_epoch = rng.gen_range(down_epoch + 1..=horizon);
                FaultSpec::LinkFlap {
                    a,
                    b,
                    down_epoch,
                    up_epoch,
                }
            }
            FaultSpec::SessionReset { a, b, .. } => FaultSpec::SessionReset {
                a,
                b,
                epoch: rng.gen_range(0..=horizon),
            },
            FaultSpec::Partition { nodes, .. } => FaultSpec::Partition {
                nodes,
                epoch: rng.gen_range(0..horizon),
            },
            FaultSpec::Heal { nodes, .. } => FaultSpec::Heal {
                nodes,
                epoch: rng.gen_range(1..=horizon),
            },
            // The probabilistic specs carry no schedule.
            other => other,
        }
    }
}

/// Rebuilds a plan from a seed and spec list (plans are append-only by
/// construction).
fn rebuild_plan(seed: u64, specs: Vec<FaultSpec>) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for spec in specs {
        plan = plan.with_spec(spec);
    }
    plan
}

/// Two distinct node ids, uniformly drawn. Requires `nodes >= 2`.
fn random_pair(rng: &mut StdRng, nodes: usize) -> (NodeId, NodeId) {
    let a = rng.gen_range(0..nodes);
    let mut b = rng.gen_range(0..nodes - 1);
    if b >= a {
        b += 1;
    }
    (NodeId(a), NodeId(b))
}

/// A probability in `[0, 1]` quantized to percent, keeping generated plans
/// readable and the RNG stream compact.
fn random_probability(rng: &mut StdRng) -> f64 {
    f64::from(rng.gen_range(0u32..=100)) / 100.0
}

/// Retargets a spec onto freshly drawn nodes, keeping kind and timing.
fn retarget_spec(spec: FaultSpec, rng: &mut StdRng, nodes: usize) -> FaultSpec {
    match spec {
        FaultSpec::LinkFlap {
            down_epoch,
            up_epoch,
            ..
        } => {
            let (a, b) = random_pair(rng, nodes);
            FaultSpec::LinkFlap {
                a,
                b,
                down_epoch,
                up_epoch,
            }
        }
        FaultSpec::SessionReset { epoch, .. } => {
            let (a, b) = random_pair(rng, nodes);
            FaultSpec::SessionReset { a, b, epoch }
        }
        FaultSpec::MessageDrop { probability, .. } => {
            let (a, b) = random_pair(rng, nodes);
            FaultSpec::MessageDrop { a, b, probability }
        }
        FaultSpec::MessageDuplicate { probability, .. } => {
            let (a, b) = random_pair(rng, nodes);
            FaultSpec::MessageDuplicate { a, b, probability }
        }
        FaultSpec::MessageReorder {
            probability,
            max_extra_ticks,
            ..
        } => {
            let (a, b) = random_pair(rng, nodes);
            FaultSpec::MessageReorder {
                a,
                b,
                probability,
                max_extra_ticks,
            }
        }
        FaultSpec::Partition { epoch, .. } => FaultSpec::Partition {
            nodes: vec![NodeId(rng.gen_range(0..nodes))],
            epoch,
        },
        FaultSpec::Heal { epoch, .. } => FaultSpec::Heal {
            nodes: vec![NodeId(rng.gen_range(0..nodes))],
            epoch,
        },
        other => other,
    }
}

impl fmt::Display for SearchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DiCE fault-plan search: {} plan(s) tried, {} novel, {} minimized repro(s) in {:?}",
            self.plans_tried,
            self.novel_plans,
            self.repros.len(),
            self.elapsed,
        )?;
        for repro in &self.repros {
            writeln!(
                f,
                "  repro [{} spec(s), seed {}]: {}",
                repro.plan.specs().len(),
                repro.seed(),
                repro.fault,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::DiceBuilder;
    use dice_bgp::attributes::RouteAttrs;
    use dice_bgp::message::{BgpMessage, UpdateMessage};
    use dice_bgp::AsPath;
    use dice_netsim::topology::{addr, figure2_topology, CustomerFilterMode};
    use dice_symexec::EngineConfig;
    use std::net::Ipv4Addr;

    #[test]
    fn event_shapes_are_equal_exactly_when_their_rendered_tokens_are() {
        let nodes = [NodeId(0), NodeId(1), NodeId(12)];
        let mut events = Vec::new();
        for &a in &nodes {
            for &b in &nodes {
                events.extend([
                    InjectedFaultKind::LinkDown { a, b, epoch: 1 },
                    InjectedFaultKind::LinkUp { a, b, epoch: 2 },
                    InjectedFaultKind::SessionReset {
                        a,
                        b,
                        epoch: 1,
                        withdrawn_routes: 3,
                    },
                    InjectedFaultKind::PartitionSevered {
                        nodes: vec![a, b],
                        epoch: 1,
                        links: 2,
                    },
                    InjectedFaultKind::PartitionHealed {
                        nodes: vec![a],
                        epoch: 2,
                        links: 1,
                    },
                    InjectedFaultKind::MessageDropped {
                        from: a,
                        to: b,
                        link_down: a == b,
                    },
                    InjectedFaultKind::MessageDuplicated { from: a, to: b },
                    InjectedFaultKind::MessageDelayed {
                        from: a,
                        to: b,
                        extra_ticks: 2,
                    },
                    InjectedFaultKind::DeliveryError(DeliveryError::UnknownPeer {
                        node: a,
                        peer: dice_bgp::route::PeerId(7),
                    }),
                    InjectedFaultKind::DeliveryError(DeliveryError::UnresolvedPeerAddress {
                        node: b,
                        peer: dice_bgp::route::PeerId(1),
                        address: Ipv4Addr::new(192, 0, 2, 1),
                    }),
                    InjectedFaultKind::DeliveryError(DeliveryError::NoReturnPeer {
                        node: a,
                        to_node: b,
                        sender: Ipv4Addr::new(192, 0, 2, 2),
                    }),
                    InjectedFaultKind::DeliveryError(DeliveryError::UnknownSourceAddress {
                        node: a,
                        address: Ipv4Addr::new(192, 0, 2, 3),
                    }),
                ]);
            }
        }
        for first in &events {
            for second in &events {
                assert_eq!(
                    EventShape::of(first) == EventShape::of(second),
                    rendered_shape(first) == rendered_shape(second),
                    "{first} vs {second}"
                );
            }
        }
    }

    /// The Figure 2 topology with the filter *missing* (no checker fires on
    /// a quiescent run), driven by two customer announcement epochs.
    struct Figure2Scenario;

    impl FaultScenario for Figure2Scenario {
        fn build(&self) -> Simulator {
            Simulator::new(&figure2_topology(CustomerFilterMode::Missing))
        }

        fn drive(&self, sim: &mut Simulator, epoch: usize) -> bool {
            let provider = (0..sim.len())
                .map(NodeId)
                .find(|n| sim.name(*n) == "Provider")
                .expect("figure 2 has a Provider");
            let blocks = ["41.1.0.0/16", "41.64.0.0/12"];
            if let Some(block) = blocks.get(epoch) {
                let mut attrs = RouteAttrs::default();
                attrs.as_path = AsPath::from_sequence([17557, 17557]);
                attrs.next_hop = std::net::Ipv4Addr::new(10, 0, 1, 1);
                sim.inject(
                    provider,
                    addr::CUSTOMER,
                    BgpMessage::Update(UpdateMessage::announce(
                        vec![block.parse().expect("valid")],
                        &attrs,
                    )),
                );
            }
            epoch + 1 < blocks.len()
        }
    }

    fn small_orchestrator() -> LiveOrchestrator {
        let session = DiceBuilder::new()
            .engine(EngineConfig::default().with_max_runs(2))
            .build();
        LiveOrchestrator::new(session)
    }

    #[test]
    fn generated_plans_respect_the_spec_kind_mask() {
        let search = FaultPlanSearch::new(small_orchestrator())
            .with_spec_kinds(SpecKindMask::only_partitions());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..16 {
            let plan = search.fresh_plan(&mut rng, 3);
            assert!(!plan.specs().is_empty());
            for spec in plan.specs() {
                assert!(
                    matches!(spec, FaultSpec::Partition { .. } | FaultSpec::Heal { .. }),
                    "partitions-only mask produced {spec:?}"
                );
            }
        }
    }

    #[test]
    fn random_pairs_are_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..64 {
            let (a, b) = random_pair(&mut rng, 3);
            assert_ne!(a, b);
            assert!(a.0 < 3 && b.0 < 3);
        }
    }

    #[test]
    fn mutation_keeps_plans_nonempty_and_within_the_spec_budget() {
        let search = FaultPlanSearch::new(small_orchestrator());
        let mut rng = StdRng::seed_from_u64(13);
        let mut plan = search.fresh_plan(&mut rng, 3);
        let pool = vec![search.fresh_plan(&mut rng, 3)];
        for _ in 0..48 {
            plan = search.mutate(plan, &pool, &mut rng, 3);
            assert!(!plan.specs().is_empty(), "mutation emptied the plan");
            assert!(
                plan.specs().len() <= MAX_SPECS,
                "mutation blew the spec budget"
            );
        }
    }

    #[test]
    fn a_seeded_search_is_deterministic_and_baseline_matches_a_plain_run() {
        let scenario = Figure2Scenario;
        let run = |seed: u64| {
            FaultPlanSearch::new(small_orchestrator())
                .with_seed(seed)
                .with_budget(3)
                .with_epoch_horizon(2)
                .run(&scenario)
        };
        let first = run(42);
        let second = run(42);
        assert_eq!(first.digest(), second.digest(), "seeded search must replay");
        assert_eq!(first.plans_tried, 3);
        assert_eq!(
            first.report.search,
            Some(first.summary()),
            "the baseline report must carry the search counters"
        );

        let mut sim = scenario.build();
        let plain = small_orchestrator().run(&mut sim, |sim, e| scenario.drive(sim, e));
        assert_eq!(
            first.baseline_live_digest,
            plain.digest(),
            "the empty-plan baseline must be byte-identical to a plain run"
        );
        assert!(plain.search.is_none(), "plain runs carry no search summary");
    }

    #[test]
    fn a_zero_budget_search_publishes_zeroed_counters() {
        let orchestrator = small_orchestrator();
        let plane = orchestrator.control_plane();
        let report = FaultPlanSearch::new(orchestrator)
            .with_budget(0)
            .run(&Figure2Scenario);
        assert_eq!(report.plans_tried, 0);
        assert!(report.repros.is_empty());
        let snapshot = plane.sample();
        assert_eq!(snapshot.search.plans, 0);
        assert_eq!(snapshot.search.novel, 0);
        assert_eq!(snapshot.search.repros, 0);
    }

    #[test]
    fn a_mask_that_enables_nothing_degrades_to_the_baseline_run() {
        let nothing = SpecKindMask {
            link_flaps: false,
            session_resets: false,
            message_faults: false,
            partitions: false,
        };
        let report = FaultPlanSearch::new(small_orchestrator())
            .with_budget(1)
            .with_spec_kinds(nothing)
            .run(&Figure2Scenario);
        assert_eq!(report.plans_tried, 0);

        let mut sim = Figure2Scenario.build();
        let plain = small_orchestrator().run(&mut sim, |sim, e| Figure2Scenario.drive(sim, e));
        assert_eq!(report.baseline_live_digest, plain.digest());
    }

    /// A scenario wired so that partitioning the Customer mid-run wedges
    /// the Internet node: the customer block is announced at epoch 0 (and
    /// reaches the Internet), and later epochs carry unrelated
    /// Internet-side traffic so the fleet round clock keeps ticking after
    /// any fault. Severing the Customer makes the Provider flush the
    /// customer-learned route and send an *observed* withdrawal over the
    /// intact Provider–Internet session — which then never heals back.
    struct WedgieScenario;

    impl FaultScenario for WedgieScenario {
        fn build(&self) -> Simulator {
            Simulator::new(&figure2_topology(CustomerFilterMode::Missing))
        }

        fn drive(&self, sim: &mut Simulator, epoch: usize) -> bool {
            let provider = (0..sim.len())
                .map(NodeId)
                .find(|n| sim.name(*n) == "Provider")
                .expect("figure 2 has a Provider");
            let mut attrs = RouteAttrs::default();
            if epoch == 0 {
                attrs.as_path = AsPath::from_sequence([17557, 17557]);
                attrs.next_hop = std::net::Ipv4Addr::new(10, 0, 1, 1);
                sim.inject(
                    provider,
                    addr::CUSTOMER,
                    BgpMessage::Update(UpdateMessage::announce(
                        vec!["41.1.0.0/16".parse().expect("valid")],
                        &attrs,
                    )),
                );
            } else {
                attrs.as_path = AsPath::from_sequence([1299, 3356]);
                attrs.next_hop = std::net::Ipv4Addr::new(10, 0, 2, 1);
                let block = format!("198.51.{}.0/24", 99 + epoch);
                sim.inject(
                    provider,
                    addr::INTERNET,
                    BgpMessage::Update(UpdateMessage::announce(
                        vec![block.parse().expect("valid")],
                        &attrs,
                    )),
                );
            }
            epoch < 3
        }
    }

    fn wedgie_search(seed: u64, budget: usize) -> FaultPlanSearch {
        let session = DiceBuilder::new()
            .engine(EngineConfig::default().with_max_runs(2))
            .checker(Box::new(crate::checker::BgpWedgieChecker::new()))
            .build();
        let orchestrator = LiveOrchestrator::new(session);
        FaultPlanSearch::new(orchestrator)
            .with_seed(seed)
            .with_budget(budget)
            .with_epoch_horizon(3)
            .with_spec_kinds(SpecKindMask::only_partitions())
    }

    #[test]
    fn repro_bundles_replay_byte_identically() {
        let search = wedgie_search(1, 8);
        let report = search.run(&WedgieScenario);
        assert!(
            !report.repros.is_empty(),
            "the wedgie scenario search found nothing to shrink:\n{}",
            report.digest()
        );
        for repro in &report.repros {
            assert_eq!(repro.fault.checker, "bgp-wedgie");
            let replay = search.replay(&WedgieScenario, repro);
            assert!(
                replay.triggered,
                "replay must re-trigger {}",
                repro.fault_key
            );
            assert!(
                repro.matches(&replay),
                "replay diverged for {}:\n expected trace {:?}\n observed trace {:?}",
                repro.fault_key,
                repro.expected_trace_digest,
                replay.trace_digest
            );
        }
    }
}

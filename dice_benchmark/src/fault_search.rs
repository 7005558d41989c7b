//! `fault_search`: coverage-guided search over fault plans on a tiny table.
//!
//! `Simulator::step`, fault application, the temporal checkers and the
//! search and shrink loop dominate; the solver and the wire codec are idle.
//! The table stays at 50 prefixes on purpose: repros multiply per prefix,
//! and at 500 prefixes shrinking swamps the search.

use std::sync::Mutex;
use std::time::Instant;

use dice_bgp::message::{BgpMessage, UpdateMessage};
use dice_core::{
    BgpWedgieChecker, CrossRoundFlapChecker, DiceBuilder, FaultPlanSearch, FaultScenario,
    LiveOrchestrator, SearchReport, SpecKindMask,
};
use dice_netsim::topology::{addr, figure2_topology, CustomerFilterMode};
use dice_netsim::{FaultPlan, Simulator};
use dice_symexec::EngineConfig;

use crate::measure::{self, timed, Stopwatch};
use crate::scenario::{self, PROVIDER, QUIESCE_STEPS};
use crate::{probes, spans, Config, Measured, Outcome, Pass};

const TABLE_PREFIXES: usize = 50;
const EPOCHS: usize = 8;
const UPDATES_PER_EPOCH: usize = 4;

/// The library's spans recorded on the benchmark's thread inside
/// `FaultPlanSearch::run`, harvested as children of the search span.
const HARVESTED: &[&str] = &[
    "sim.step",
    "sim.apply_epoch_faults",
    "fleet.explore",
    "live.harvest",
    "live.check",
];

struct Sizes {
    searches: usize,
    plans_per_search: usize,
    control_replays: usize,
    setups: usize,
}

/// A search leaves the scenario as it was, so every set-up serves two
/// passes: more repeats for each run to find a quiet moment in.
const PASSES_PER_SETUP: usize = 2;

impl Sizes {
    fn new(config: &Config) -> Self {
        if config.quick {
            Sizes {
                searches: 1,
                plans_per_search: 16,
                control_replays: 10,
                setups: 2,
            }
        } else {
            Sizes {
                searches: config.scaled(1),
                plans_per_search: 128,
                control_replays: 100,
                setups: 4,
            }
        }
    }
}

/// The benchmark's scenario: the Provider has no customer filter, `build`
/// preloads the table, and `drive` feeds four trace updates per epoch.
struct Scenario {
    table: Vec<UpdateMessage>,
    updates: Vec<UpdateMessage>,
    /// The instant of every `build` call: candidate runs start there.
    builds: Mutex<Vec<Instant>>,
}

impl FaultScenario for Scenario {
    fn build(&self) -> Simulator {
        self.builds
            .lock()
            .expect("no build panics")
            .push(Instant::now());
        let _span = spans::scope("netsim.sim.build");
        let mut sim = Simulator::new(&figure2_topology(CustomerFilterMode::Missing));
        for update in &self.table {
            sim.inject(PROVIDER, addr::INTERNET, BgpMessage::Update(update.clone()));
        }
        scenario::quiesce(&mut sim);
        sim
    }

    fn drive(&self, sim: &mut Simulator, epoch: usize) -> bool {
        let _span = spans::scope("netsim.ingest.drive");
        let from = epoch * UPDATES_PER_EPOCH;
        for update in &self.updates[from..from + UPDATES_PER_EPOCH] {
            sim.inject(PROVIDER, addr::INTERNET, BgpMessage::Update(update.clone()));
        }
        epoch + 1 < EPOCHS
    }
}

impl Scenario {
    fn take_builds(&self) -> Vec<Instant> {
        std::mem::take(&mut *self.builds.lock().expect("no build panics"))
    }
}

fn orchestrator() -> LiveOrchestrator {
    let session = DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(4))
        .workers(measure::cores())
        .checker(Box::new(BgpWedgieChecker::new()))
        .checker(Box::new(CrossRoundFlapChecker::new()))
        .build();
    LiveOrchestrator::new(session)
        .with_core_budget(measure::cores())
        .with_quiesce_steps(QUIESCE_STEPS)
        .with_max_rounds(EPOCHS)
}

fn search(sizes: &Sizes, seed: u64) -> FaultPlanSearch {
    FaultPlanSearch::new(orchestrator())
        .with_seed(seed)
        .with_budget(sizes.plans_per_search)
        .with_epoch_horizon(EPOCHS as u64)
        .with_spec_kinds(SpecKindMask::all())
}

/// One run of the scenario under the empty plan: the unit a search step is
/// compared with. Returns the live digest.
fn control_replay(scenario: &Scenario) -> String {
    let mut sim = scenario.build();
    orchestrator()
        .with_fault_plan(FaultPlan::default())
        .run(&mut sim, |sim, epoch| scenario.drive(sim, epoch))
        .digest()
}

/// What set-up produces: the scenario, and the control run every search's
/// baseline must reproduce.
struct Prepared {
    scenario: Scenario,
    control_digest: String,
    /// Wall seconds of one control replay.
    replay_s: f64,
}

fn setup(sizes: &Sizes, seed: u64) -> Prepared {
    let trace = {
        let _span = spans::scope("netsim.trace.generate");
        scenario::internet_trace(TABLE_PREFIXES, EPOCHS * UPDATES_PER_EPOCH, seed)
    };
    let scenario = Scenario {
        table: trace.table,
        updates: trace.updates.into_iter().map(|e| e.update).collect(),
        builds: Mutex::new(Vec::new()),
    };
    let control_digest = control_replay(&scenario);
    let ((), replays_s) = timed(|| {
        for _ in 1..sizes.control_replays {
            assert_eq!(
                control_replay(&scenario),
                control_digest,
                "the control run is not deterministic"
            );
        }
    });
    scenario.take_builds();
    Prepared {
        scenario,
        control_digest,
        replay_s: replays_s / (sizes.control_replays - 1) as f64,
    }
}

/// What one pass leaves behind: the searches' digests and their counters
/// summed. The reports themselves are dropped with the pass, so the
/// resident set does not grow with what earlier passes found.
#[derive(Default)]
struct Searched {
    /// One hash per search, of `SearchReport::digest()`.
    digests: String,
    control_digest: String,
    replay_s: f64,
    /// Scenario runs: candidates, shrink probes and repro replays.
    runs: u64,
    plans: usize,
    novel_plans: usize,
    shrink_runs: usize,
    repros: usize,
    injected: u64,
}

impl Searched {
    fn add(&mut self, report: &SearchReport) {
        if !self.digests.is_empty() {
            self.digests.push(' ');
        }
        self.digests += &format!("{:016x}", scenario::fnv1a(&report.digest()));
        self.plans += report.plans_tried;
        self.novel_plans += report.novel_plans;
        self.shrink_runs += report.shrink_runs;
        self.repros += report.repros.len();
        self.injected += report.injected_per_plan.iter().sum::<u64>();
    }
}

/// The timed stretch: one search per seed, every emitted repro replayed.
fn pass(
    sizes: &Sizes,
    prepared: &Prepared,
    seed: u64,
    measured: &mut Measured,
) -> (Pass, Searched) {
    let scenario = &prepared.scenario;
    let mut searched = Searched::default();
    let (mut unfaithful, mut unclean) = (0u64, 0u64);
    let root = spans::scope(spans::ROOT);
    let watch = Stopwatch::start();
    for index in 0..sizes.searches {
        spans::set_round(index);
        let search = search(sizes, seed + 1 + index as u64);
        let report = {
            let _span = spans::scope("core.fault_search.run");
            search.run(scenario)
        };
        for repro in &report.repros {
            let _span = spans::scope("core.fault_search.replay");
            if !repro.matches(&search.replay(scenario, repro)) {
                unfaithful += 1;
            }
        }
        if report.baseline_live_digest != prepared.control_digest {
            unclean += 1;
        }
        searched.add(&report);
    }
    let ended = Instant::now();
    let (wall_s, cpu_s) = watch.stop();
    drop(root);

    let mut builds = scenario.take_builds();
    builds.push(ended);
    let round_ms: Vec<f64> = builds
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    // `run` builds the scenario once more than it runs it, to fingerprint
    // the topology; every other build is a candidate, shrink or replay run.
    searched.runs = (round_ms.len() - sizes.searches) as u64;
    measured.work_units = searched.runs;
    measured.attempted += searched.runs;
    measured.failed += unfaithful + unclean;
    measured.check(unfaithful == 0, || {
        format!(
            "{unfaithful} of {} repro replay(s) not byte-identical",
            searched.repros
        )
    });
    measured.check(unclean == 0, || {
        format!("{unclean} search baseline(s) differ from the control run")
    });
    let timing = Pass {
        wall_s,
        // The seed moves the runs a pass needs by a fifth either way, so
        // CPU time is given per thousand runs.
        cpu_s: cpu_s * 1e3 / searched.runs as f64,
        round_ms,
    };
    searched.control_digest = prepared.control_digest.clone();
    searched.replay_s = prepared.replay_s;
    (timing, searched)
}

pub fn run(config: &Config) -> Outcome {
    let sizes = Sizes::new(config);
    let mut layers = Vec::new();
    if config.trace {
        layers.extend(probes::layers(TABLE_PREFIXES, config.seed));
    }

    let mut measured = Measured::new("run");
    let mut traced = config.trace.then(|| Measured::new("run"));
    let setup = || setup(&sizes, config.seed);
    let (mut searched, mut searched_traced) = (Vec::new(), Vec::new());
    for _ in 0..sizes.setups {
        searched.extend(measured.run_setup(PASSES_PER_SETUP, setup, |prepared, m| {
            pass(&sizes, prepared, config.seed, m)
        }));
        if let Some(traced) = &mut traced {
            let _recording = spans::record();
            let _harvest = spans::Harvest::install(HARVESTED);
            searched_traced.extend(traced.run_setup(PASSES_PER_SETUP, setup, |prepared, m| {
                pass(&sizes, prepared, config.seed, m)
            }));
        }
    }

    let first = &searched[0];
    let all = || searched.iter().chain(&searched_traced);
    measured.check(all().all(|s| s.digests == first.digests), || {
        "passes disagree on the search digests".to_string()
    });
    let observed = vec![
        ("search_digests", first.digests.clone()),
        ("plans", first.plans.to_string()),
        ("repros", first.repros.to_string()),
        ("candidate_runs", first.runs.to_string()),
        (
            "control_digest",
            format!("{:016x}", scenario::fnv1a(&first.control_digest)),
        ),
    ];

    if let Some(traced) = &traced {
        let quietest = traced.quietest_pass();
        let totals = spans::timed_totals(quietest);
        let total = |name: &str| totals.get(name).copied().unwrap_or_default();
        let (runs, repros) = (first.runs as f64, first.repros as f64);
        let replay_s = measure::least(searched.iter().map(|s| s.replay_s));
        layers.extend([
            (
                "netsim.trace.generate_s",
                spans::untimed_totals()["netsim.trace.generate"].total_s / sizes.setups as f64,
            ),
            ("netsim.sim.build_s", total("netsim.sim.build").total_s),
            (
                "netsim.ingest.drive_s",
                total("netsim.ingest.drive").total_s,
            ),
            (
                "netsim.ingest.frames",
                (total("netsim.ingest.drive").count as usize * UPDATES_PER_EPOCH) as f64,
            ),
            ("netsim.sim.quiesce_s", total("sim.step").total_s),
            ("netsim.sim.steps", total("sim.step").count as f64),
            ("netsim.sim.harvest_s", total("live.harvest").total_s),
            ("netsim.faults.injected", first.injected as f64),
            ("core.explore_s", total("fleet.explore").total_s),
            ("core.check_live_s", total("live.check").total_s),
            ("core.rounds", total("fleet.explore").count as f64),
            ("core.fault_search.plans", first.plans as f64),
            ("core.fault_search.candidate_runs", runs),
            (
                "core.fault_search.novel_ratio",
                first.novel_plans as f64 / first.plans as f64,
            ),
            ("core.fault_search.repros", repros),
            (
                "core.fault_search.shrink_run_share",
                first.shrink_runs as f64 / runs,
            ),
            (
                "core.fault_search.search_vs_replay_ratio",
                total("core.fault_search.run").total_s / (replay_s * (runs - repros)),
            ),
        ]);
    }

    Outcome {
        measured,
        traced,
        layers,
        observed,
    }
}

//! `live_replay`: exploration beside a loaded router (the paper's E3/E4).
//!
//! Set-up preloads a 20,000-prefix table over the wire path. The timed
//! stretch replays the incremental updates, 40 frames per epoch, through
//! `LiveOrchestrator::run`, and injects a scripted Customer leak at eight
//! fixed epochs. Every layer runs, and this is the one workload where the
//! live router writes after a fork: the first write to a RIB shard copies
//! it, and each round releases the previous round's forks.

use std::collections::HashMap;
use std::time::Instant;

use dice_bgp::message::BgpMessage;
use dice_bgp::prefix::Ipv4Prefix;
use dice_checkpoint::CowForkStats;
use dice_core::{
    DiceBuilder, DiceSession, FaultKind, FleetExplorer, LiveOrchestrator, LiveReport,
    RoundCheckpoint, RoundOutcomes,
};
use dice_netsim::topology::{addr, figure2_topology, CustomerFilterMode, NodeId};
use dice_netsim::{Simulator, WireReplayDriver, WireTrace};
use dice_symexec::EngineConfig;

use crate::measure::{self, timed, Stopwatch};
use crate::scenario::{self, ExploreTotals, PROVIDER, QUIESCE_STEPS};
use crate::{probes, spans, Config, Measured, Outcome, Pass};

const FRAMES_PER_EPOCH: usize = 40;
const SCRIPTED_LEAKS: usize = 8;
/// `LiveOrchestrator`'s default bound on the cross-round history.
const LIVE_HISTORY: usize = 64;

struct Sizes {
    prefixes: usize,
    rounds: usize,
    passes: usize,
}

impl Sizes {
    fn new(config: &Config) -> Self {
        if config.quick {
            Sizes {
                prefixes: 2_000,
                rounds: 2 * SCRIPTED_LEAKS,
                passes: 2,
            }
        } else {
            Sizes {
                prefixes: 20_000,
                rounds: config.scaled(40).max(2 * SCRIPTED_LEAKS),
                passes: 4,
            }
        }
    }

    /// The epoch of scripted leak `k`: evenly spread, never the first.
    fn leak_epoch(&self, k: usize) -> usize {
        (2 * k + 1) * self.rounds / (2 * SCRIPTED_LEAKS)
    }

    /// Scripted leak `k` announces its own /16 of the customer's block,
    /// originated by its own AS behind the customer.
    fn leak(&self, epoch: usize) -> Option<(Ipv4Prefix, u32)> {
        let k = (0..SCRIPTED_LEAKS).find(|&k| self.leak_epoch(k) == epoch)?;
        let block = Ipv4Prefix::new((41 << 24) | ((k as u32 + 1) << 16), 16).expect("a /16");
        Some((block, leak_origin(k)))
    }
}

fn leak_origin(k: usize) -> u32 {
    64_600 + k as u32
}

/// What set-up produces: a simulator holding the preloaded table, and the
/// update frames still to replay.
struct Live {
    sim: Simulator,
    frames: WireTrace,
}

impl Live {
    /// Hands out the simulator and a driver over the update frames. A pass
    /// changes the simulator for good, so each state serves one pass.
    fn start(&mut self) -> (&mut Simulator, WireReplayDriver) {
        let frames = std::mem::take(&mut self.frames);
        assert!(!frames.is_empty(), "a set-up serves one pass");
        let driver = WireReplayDriver::new(frames).with_frames_per_epoch(FRAMES_PER_EPOCH);
        (&mut self.sim, driver)
    }
}

fn node_fingerprints(sim: &Simulator) -> Vec<u64> {
    (0..sim.len())
        .map(|i| scenario::loc_rib_fingerprint(sim.router(NodeId(i)).rib()))
        .collect()
}

fn parse(bytes: &[u8]) -> WireTrace {
    let _span = spans::scope("netsim.ingest.parse");
    WireTrace::from_bytes(bytes).expect("a serialized trace parses")
}

fn setup(sizes: &Sizes, seed: u64) -> Live {
    let topology = figure2_topology(CustomerFilterMode::Erroneous);
    let updates = sizes.rounds * FRAMES_PER_EPOCH;
    let trace = {
        let _span = spans::scope("netsim.trace.generate");
        scenario::internet_trace(sizes.prefixes, updates, seed)
    };
    let victim = scenario::victim_announcement();
    let preload = || std::iter::once(&victim).chain(trace.table.iter());

    // The wire path: frames, bytes, parse, decode, inject.
    let preload_frames = parse(&scenario::frame_for_provider(preload()).to_bytes());
    let mut sim = {
        let _span = spans::scope("netsim.sim.build");
        Simulator::new(&topology)
    };
    WireReplayDriver::new(preload_frames).drive(&mut sim, 0);
    scenario::quiesce(&mut sim);

    // The same table over the in-memory path must leave the same state.
    let mut twin = Simulator::new(&topology);
    for update in preload() {
        twin.inject(PROVIDER, addr::INTERNET, BgpMessage::Update(update.clone()));
    }
    scenario::quiesce(&mut twin);
    assert_eq!(
        node_fingerprints(&sim),
        node_fingerprints(&twin),
        "wire and in-memory preloads leave different Loc-RIBs"
    );
    assert!(
        sim.observed_log() == twin.observed_log(),
        "wire and in-memory preloads leave different observed logs"
    );
    drop(twin);

    // Live rounds explore only what arrives from here on.
    sim.trim_observed_below(sim.observed_cursor());
    let updates = trace.updates.iter().map(|e| &e.update);
    let frames = parse(&scenario::frame_for_provider(updates).to_bytes());
    Live { sim, frames }
}

fn session() -> DiceSession {
    DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(8))
        .workers(measure::cores())
        .build()
}

/// The driver's side of one epoch: the scripted leak, if this is its epoch,
/// ahead of the epoch's frames so the per-round input cap cannot hide it.
fn drive_epoch(
    sizes: &Sizes,
    driver: &mut WireReplayDriver,
    sim: &mut Simulator,
    epoch: usize,
) -> bool {
    if let Some((block, origin)) = sizes.leak(epoch) {
        let leak = scenario::customer_announcement(block, origin);
        sim.inject(PROVIDER, addr::CUSTOMER, BgpMessage::Update(leak));
    }
    driver.drive(sim, epoch)
}

/// What one product pass leaves behind: the report, and the instant of
/// every driver call plus the end of the run.
struct Product {
    report: LiveReport,
    marks: Vec<Instant>,
}

fn round_ms(marks: &[Instant]) -> Vec<f64> {
    marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect()
}

/// The product path, untraced: `LiveOrchestrator::run` with the replay
/// driver as its traffic source.
fn product_pass(sizes: &Sizes, live: &mut Live, measured: &mut Measured) -> (Pass, Product) {
    let (sim, mut driver) = live.start();
    let orchestrator = LiveOrchestrator::new(session())
        .with_core_budget(measure::cores())
        .with_quiesce_steps(QUIESCE_STEPS)
        .with_max_rounds(sizes.rounds)
        .with_ingest_stats(driver.stats());

    let mut marks = Vec::with_capacity(sizes.rounds + 1);
    let watch = Stopwatch::start();
    let report = orchestrator.run(sim, |sim, epoch| {
        marks.push(Instant::now());
        drive_epoch(sizes, &mut driver, sim, epoch)
    });
    marks.push(Instant::now());
    let (wall_s, cpu_s) = watch.stop();

    assert_eq!(sim.pending(), 0, "the quiesce budget truncated an epoch");
    let ingest = driver.stats().snapshot();
    measured.work_units = ingest.injected_updates;
    measured.attempted += ingest.frames + SCRIPTED_LEAKS as u64;
    measured.failed += ingest.decode_errors + ingest.reencode_mismatches;
    measured.check(driver.remaining() == 0, || {
        format!("{} frame(s) never replayed", driver.remaining())
    });
    measured.check(report.rounds.len() == sizes.rounds, || {
        format!(
            "{} round(s) ran, expected {}",
            report.rounds.len(),
            sizes.rounds
        )
    });
    for k in 0..SCRIPTED_LEAKS {
        if !leak_rounds(&report, k).contains(&sizes.leak_epoch(k)) {
            measured.failed += 1;
            measured
                .mismatches
                .push(format!("scripted leak {k} not detected in its own round"));
        }
    }
    let timing = Pass {
        wall_s,
        cpu_s,
        round_ms: round_ms(&marks),
    };
    (timing, Product { report, marks })
}

/// The rounds that sighted scripted leak `k`: a hijack of the victim's
/// block claimed by the leak's own origin AS.
fn leak_rounds(report: &LiveReport, k: usize) -> Vec<usize> {
    report
        .faults
        .iter()
        .filter(|f| {
            matches!(&f.fault.kind, FaultKind::PotentialHijack { claimed_origin, .. }
                if claimed_origin.value() == leak_origin(k))
        })
        .flat_map(|f| f.rounds.iter().copied())
        .collect()
}

/// The same frames with no orchestrator and no fork: drive, quiesce, trim.
fn replay_only(sizes: &Sizes, mut live: Live) -> f64 {
    let (sim, mut driver) = live.start();
    let ((), wall_s) = timed(|| {
        let mut epoch = 0;
        loop {
            let more = drive_epoch(sizes, &mut driver, sim, epoch);
            scenario::quiesce(sim);
            sim.trim_observed_below(sim.observed_cursor());
            epoch += 1;
            if !more {
                break;
            }
        }
    });
    wall_s
}

/// What the hand-rolled loop counts beside its spans.
#[derive(Default)]
struct Counts {
    frames: u64,
    bytes_in: u64,
    decode_errors: u64,
    steps: u64,
    delivered: u64,
    rounds: u64,
    harvested: u64,
    explore: ExploreTotals,
    cow: CowForkStats,
}

/// `LiveOrchestrator::run`'s round loop, rebuilt from public calls with a
/// span around each, so every layer is timed from outside. Each round's
/// fleet digest and window must equal the product run's.
fn traced_pass(
    sizes: &Sizes,
    live: &mut Live,
    product: &LiveReport,
    measured: &mut Measured,
) -> (Pass, Counts) {
    let (sim, mut driver) = live.start();
    let session = session();
    let explorer = FleetExplorer::new(session.clone()).with_core_budget(measure::cores());
    let nodes: Vec<NodeId> = (0..sim.len()).map(NodeId).collect();
    let mut history: Vec<RoundOutcomes> = Vec::new();
    let mut cursor = 0u64;
    let mut counts = Counts::default();
    let delivered_before = sim.stats().delivered;

    let mut marks = Vec::with_capacity(sizes.rounds + 1);
    let root = spans::scope(spans::ROOT);
    let watch = Stopwatch::start();
    let mut forks: Vec<RoundCheckpoint> = {
        let _span = spans::scope("checkpoint.capture");
        nodes
            .iter()
            .map(|&node| RoundCheckpoint::capture(sim.router(node)))
            .collect()
    };
    for epoch in 0..sizes.rounds {
        spans::set_round(epoch);
        sim.apply_epoch_faults(epoch as u64);
        marks.push(Instant::now());
        let more = {
            let _span = spans::scope("netsim.ingest.drive");
            drive_epoch(sizes, &mut driver, sim, epoch)
        };
        {
            let _span = spans::scope("netsim.sim.quiesce");
            counts.steps += scenario::quiesce(sim);
        }
        let head = sim.observed_cursor();
        if head > cursor {
            let windows: Vec<_> = {
                let _span = spans::scope("netsim.sim.harvest");
                nodes
                    .iter()
                    .map(|&node| (node, sim.observed_inputs_in(node, cursor, head)))
                    .collect()
            };
            counts.harvested += windows.iter().map(|(_, w)| w.len() as u64).sum::<u64>();
            let (fleet, outcomes) = {
                let _span = spans::scope("core.explore");
                explorer.explore_windows_collecting(sim, windows.clone())
            };
            let round = counts.rounds as usize;
            let same = product
                .rounds
                .get(round)
                .is_some_and(|p| p.window == (cursor, head) && p.report.digest() == fleet.digest());
            if !same {
                measured.mismatches.push(format!(
                    "round {round}: the hand-rolled loop and LiveOrchestrator::run disagree"
                ));
            }
            for node in &fleet.nodes {
                counts.explore.add(&node.report);
            }

            let by_node: HashMap<NodeId, Vec<_>> = windows.into_iter().collect();
            for (node, outcomes) in outcomes {
                let observed = by_node.get(&node).cloned().unwrap_or_default();
                if observed.is_empty() && outcomes.is_empty() {
                    continue;
                }
                history.push(RoundOutcomes {
                    round,
                    node,
                    observed,
                    outcomes,
                });
            }
            if history.len() > LIVE_HISTORY {
                history.drain(..history.len() - LIVE_HISTORY);
            }
            {
                let _span = spans::scope("core.check_live");
                session.check_live(&history);
            }
            counts.rounds += 1;
            cursor = head;
            {
                let _span = spans::scope("netsim.sim.trim");
                sim.trim_observed_below(cursor);
            }
            for (fork, &node) in forks.iter_mut().zip(&nodes) {
                let probe = {
                    let _span = spans::scope("checkpoint.cow_stats");
                    fork.cow_stats_vs(sim.router(node))
                };
                counts.cow.units_total += probe.units_total;
                counts.cow.units_shared += probe.units_shared;
                let fresh = {
                    let _span = spans::scope("checkpoint.capture");
                    RoundCheckpoint::capture(sim.router(node))
                };
                let stale = std::mem::replace(fork, fresh);
                let _span = spans::scope("checkpoint.release");
                drop(stale);
            }
        }
        if !more {
            break;
        }
    }
    marks.push(Instant::now());
    let (wall_s, cpu_s) = watch.stop();
    drop(root);

    if counts.rounds as usize != product.rounds.len() {
        measured.mismatches.push(format!(
            "the hand-rolled loop ran {} round(s), LiveOrchestrator::run {}",
            counts.rounds,
            product.rounds.len()
        ));
    }
    let ingest = driver.stats().snapshot();
    counts.frames = ingest.frames;
    counts.bytes_in = ingest.bytes_consumed;
    counts.decode_errors = ingest.decode_errors;
    counts.delivered = sim.stats().delivered - delivered_before;
    let timing = Pass {
        wall_s,
        cpu_s,
        round_ms: round_ms(&marks),
    };
    (timing, counts)
}

pub fn run(config: &Config) -> Outcome {
    let sizes = Sizes::new(config);
    let setup = || setup(&sizes, config.seed);
    let mut layers = Vec::new();
    if config.trace {
        layers.extend(probes::layers(sizes.prefixes, config.seed));
    }

    let mut measured = Measured::new("update");
    let mut traced = config.trace.then(|| Measured::new("update"));
    let (mut products, mut counts): (Vec<Product>, Vec<Counts>) = (Vec::new(), Vec::new());
    let mut replay_only_s = Vec::new();
    for _ in 0..sizes.passes {
        products.extend(measured.run_setup(1, setup, |live, m| product_pass(&sizes, live, m)));
        if let Some(traced) = &mut traced {
            replay_only_s.push(replay_only(&sizes, setup()));
            let _recording = spans::record();
            counts.extend(traced.run_setup(1, setup, |live, m| {
                traced_pass(&sizes, live, &products[0].report, m)
            }));
        }
    }

    let report = &products[0].report;
    let digest = report.digest();
    measured.check(products.iter().all(|p| p.report.digest() == digest), || {
        "passes disagree on the live digest".to_string()
    });
    let sightings: Vec<String> = (0..SCRIPTED_LEAKS)
        .map(|k| format!("{:?}", leak_rounds(report, k)))
        .collect();
    let observed = vec![
        ("live_digest", format!("{:016x}", scenario::fnv1a(&digest))),
        ("rounds", report.rounds.len().to_string()),
        ("total_runs", report.total_runs().to_string()),
        ("faults", report.faults.len().to_string()),
        ("leak_rounds", sightings.join(" ")),
    ];

    if let Some(traced) = &traced {
        let replay_only_s = measure::least(replay_only_s);
        let quietest = traced.quietest_pass();
        let counts = &counts[quietest];
        let timed = spans::timed_totals(quietest);
        let untimed = spans::untimed_totals();
        let total = |name: &str| timed.get(name).map_or(0.0, |t| t.total_s);
        let untimed_total =
            |name: &str| untimed.get(name).map_or(0.0, |t| t.total_s) / sizes.passes as f64;
        let rows = [
            ("netsim.ingest.drive_s", total("netsim.ingest.drive")),
            ("netsim.sim.quiesce_s", total("netsim.sim.quiesce")),
            ("netsim.sim.harvest_s", total("netsim.sim.harvest")),
            ("core.check_live_s", total("core.check_live")),
            ("checkpoint.capture_s", total("checkpoint.capture")),
            ("checkpoint.release_s", total("checkpoint.release")),
        ];
        let explore_s = total("core.explore");
        let rows_s: f64 = rows.iter().map(|(_, s)| s).sum::<f64>() + explore_s;
        let marks = &products[measured.quietest_pass()].marks;
        let detect_ms: Vec<f64> = (0..SCRIPTED_LEAKS)
            .filter_map(|k| {
                let sent = sizes.leak_epoch(k);
                let seen = leak_rounds(report, k).into_iter().find(|&r| r >= sent)?;
                Some((marks[seen + 1] - marks[sent]).as_secs_f64() * 1e3)
            })
            .collect();
        layers.extend(rows);
        layers.extend(counts.explore.layers(explore_s));
        layers.extend([
            ("bgp.wire.bytes_in", counts.bytes_in as f64),
            ("bgp.wire.decode_errors", counts.decode_errors as f64),
            (
                "netsim.trace.generate_s",
                untimed_total("netsim.trace.generate"),
            ),
            (
                "netsim.ingest.parse_s",
                untimed_total("netsim.ingest.parse"),
            ),
            ("netsim.sim.build_s", untimed_total("netsim.sim.build")),
            ("netsim.ingest.frames", counts.frames as f64),
            ("netsim.sim.steps", counts.steps as f64),
            ("netsim.sim.delivered", counts.delivered as f64),
            ("netsim.replay_only_s", replay_only_s),
            (
                "core.live.overhead_ratio",
                measured.quiet_pass_s() / replay_only_s,
            ),
            ("checkpoint.cow.shared_ratio", counts.cow.shared_fraction()),
            (
                "checkpoint.cow.units_copied",
                counts.cow.units_copied() as f64,
            ),
            ("core.rounds", counts.rounds as f64),
            ("core.faults", report.faults.len() as f64),
            ("core.inputs_harvested", counts.harvested as f64),
            (
                "core.inputs_explored_ratio",
                counts.explore.inputs as f64 / counts.harvested.max(1) as f64,
            ),
            (
                "core.detect_latency_p50_ms",
                if detect_ms.is_empty() {
                    0.0
                } else {
                    measure::median(&detect_ms)
                },
            ),
            ("core.live.other_s", traced.passes[quietest].wall_s - rows_s),
        ]);
    }

    Outcome {
        measured,
        traced,
        layers,
        observed,
    }
}

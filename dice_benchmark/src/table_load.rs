//! `table_load`: the paper's E1. The 319,355-prefix table arrives as wire
//! bytes and is replayed, batch by batch, into a fresh simulator.
//!
//! `dice_bgp::wire` and the `dice_router` RIB write path do nearly all the
//! work; nothing forks, explores or solves. This workload also carries the
//! memory number.

use dice_bgp::prefix::Ipv4Prefix;
use dice_netsim::topology::{figure2_topology, CustomerFilterMode};
use dice_netsim::{Simulator, WireReplayDriver, WireTrace, PAPER_TABLE_SIZE};

use crate::measure::{timed, Stopwatch};
use crate::scenario::{self, CUSTOMER, PROVIDER};
use crate::{probes, spans, Config, Measured, Outcome, Pass};

struct Sizes {
    prefixes: usize,
    frames_per_batch: usize,
    passes: usize,
}

impl Sizes {
    fn new(config: &Config) -> Self {
        if config.quick {
            Sizes {
                prefixes: 10_000,
                frames_per_batch: 250,
                passes: 2,
            }
        } else {
            // A pass is the whole table, so `--seconds` scales the passes.
            Sizes {
                prefixes: PAPER_TABLE_SIZE,
                frames_per_batch: 2_500,
                passes: config.scaled(4).max(2),
            }
        }
    }
}

/// What set-up produces: the serialized trace and, for the output check,
/// the prefixes it announces.
struct Table {
    bytes: Vec<u8>,
    prefixes: Vec<Ipv4Prefix>,
}

fn setup(sizes: &Sizes, seed: u64) -> Table {
    let trace = {
        let _span = spans::scope("netsim.trace.generate");
        scenario::internet_trace(sizes.prefixes, 1, seed)
    };
    let wire = scenario::frame_for_provider(trace.table.iter());
    let bytes = wire.to_bytes();
    let parsed = WireTrace::from_bytes(&bytes).expect("a serialized trace parses");
    assert_eq!(parsed, wire, "the trace survives serialization");
    Table {
        bytes,
        prefixes: trace.table.iter().map(|u| u.nlri[0]).collect(),
    }
}

/// The deterministic outputs of one pass; every pass must produce the same.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Signature {
    provider_prefixes: usize,
    customer_prefixes: usize,
    provider_loc_rib: u64,
    frames: u64,
    bytes_in: u64,
    decode_errors: u64,
    delivered: u64,
    steps: u64,
    observed: u64,
}

/// One pass: parse the bytes, then drive every batch into a fresh
/// simulator. Only the batch loop is timed; parsing before it and dropping
/// the simulator after it are not.
fn pass(sizes: &Sizes, table: &Table, measured: &mut Measured) -> (Pass, Signature) {
    let trace = {
        let _span = spans::scope("netsim.ingest.parse");
        WireTrace::from_bytes(&table.bytes).expect("a serialized trace parses")
    };
    let mut sim = {
        let _span = spans::scope("netsim.sim.build");
        Simulator::new(&figure2_topology(CustomerFilterMode::Erroneous))
    };
    let mut driver = WireReplayDriver::new(trace).with_frames_per_epoch(sizes.frames_per_batch);

    let mut round_ms = Vec::new();
    let mut steps = 0;
    let root = spans::scope(spans::ROOT);
    let watch = Stopwatch::start();
    let mut more = true;
    while more {
        spans::set_round(round_ms.len());
        let ((), round_s) = timed(|| {
            {
                let _span = spans::scope("netsim.ingest.drive");
                more = driver.drive(&mut sim, round_ms.len());
            }
            let _span = spans::scope("netsim.sim.quiesce");
            steps += scenario::quiesce(&mut sim);
        });
        round_ms.push(round_s * 1e3);
    }
    let (wall_s, cpu_s) = watch.stop();
    drop(root);

    let ingest = driver.stats().snapshot();
    let provider = sim.router(PROVIDER).rib();
    let missing = table
        .prefixes
        .iter()
        .filter(|prefix| provider.best_route(prefix).is_none())
        .count() as u64;
    measured.work_units = ingest.frames;
    measured.attempted += ingest.frames;
    measured.failed += ingest.decode_errors + ingest.reencode_mismatches + missing;
    let signature = Signature {
        provider_prefixes: provider.prefix_count(),
        customer_prefixes: sim.router(CUSTOMER).rib().prefix_count(),
        provider_loc_rib: scenario::loc_rib_fingerprint(provider),
        frames: ingest.frames,
        bytes_in: ingest.bytes_consumed,
        decode_errors: ingest.decode_errors,
        delivered: sim.stats().delivered,
        steps,
        observed: sim.observed_cursor(),
    };
    let timing = Pass {
        wall_s,
        cpu_s,
        round_ms,
    };
    (timing, signature)
}

pub fn run(config: &Config) -> Outcome {
    let sizes = Sizes::new(config);
    let mut layers = Vec::new();
    if config.trace {
        layers.extend(probes::layers(sizes.prefixes, config.seed));
    }

    let mut measured = Measured::new("update");
    let mut traced = config.trace.then(|| Measured::new("update"));
    let setup = || setup(&sizes, config.seed);
    let mut signatures = Vec::new();
    for _ in 0..sizes.passes {
        signatures.extend(measured.run_setup(1, setup, |table, m| pass(&sizes, table, m)));
        if let Some(traced) = &mut traced {
            let _recording = spans::record();
            signatures.extend(traced.run_setup(1, setup, |table, m| pass(&sizes, table, m)));
        }
    }
    let signature = signatures[0].clone();
    measured.check(signatures.iter().all(|s| *s == signature), || {
        format!("passes disagree: {signatures:?}")
    });
    let observed = vec![
        ("provider_prefixes", signature.provider_prefixes.to_string()),
        ("customer_prefixes", signature.customer_prefixes.to_string()),
        (
            "provider_loc_rib",
            format!("{:016x}", signature.provider_loc_rib),
        ),
        ("delivered", signature.delivered.to_string()),
        ("steps", signature.steps.to_string()),
    ];

    if let Some(traced) = &traced {
        let timed = spans::timed_totals(traced.quietest_pass());
        let untimed = spans::untimed_totals();
        let total = |name: &str| timed.get(name).map_or(0.0, |t| t.total_s);
        // Every traced set-up and pass records each of these once.
        let untimed_total =
            |name: &str| untimed.get(name).map_or(0.0, |t| t.total_s) / sizes.passes as f64;
        layers.extend([
            ("bgp.wire.bytes_in", signature.bytes_in as f64),
            ("bgp.wire.decode_errors", signature.decode_errors as f64),
            (
                "netsim.trace.generate_s",
                untimed_total("netsim.trace.generate"),
            ),
            (
                "netsim.ingest.parse_s",
                untimed_total("netsim.ingest.parse"),
            ),
            ("netsim.sim.build_s", untimed_total("netsim.sim.build")),
            ("netsim.ingest.drive_s", total("netsim.ingest.drive")),
            ("netsim.ingest.frames", signature.frames as f64),
            ("netsim.sim.quiesce_s", total("netsim.sim.quiesce")),
            ("netsim.sim.steps", signature.steps as f64),
            ("netsim.sim.delivered", signature.delivered as f64),
        ]);
    }

    Outcome {
        measured,
        traced,
        layers,
        observed,
    }
}

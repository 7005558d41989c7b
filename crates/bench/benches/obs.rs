//! Observability overhead benchmark: the cost of a traced exploration
//! round relative to the identical untraced run, plus the per-call cost of
//! a disabled span — the no-op path every hot loop pays when no sink is
//! installed. Asserts in-bench that the live report digest is
//! byte-identical across absent, no-op and recording sinks.
//!
//! Set `DICE_BENCH_OBS_JSON=<path>` to write the comparison as a JSON
//! baseline artifact (CI uploads `BENCH_obs.json` next to the other
//! `BENCH_*.json` baselines).

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use dice_bgp::attributes::RouteAttrs;
use dice_bgp::message::{BgpMessage, UpdateMessage};
use dice_bgp::AsPath;
use dice_core::{DiceBuilder, DiceSession, LiveOrchestrator, LiveReport, OriginHijackChecker};
use dice_netsim::topology::{addr, asn, figure2_topology, CustomerFilterMode};
use dice_netsim::Simulator;
use dice_obs::{BufferedRecorder, NoopSink, SinkGuard, TraceSink};
use dice_symexec::EngineConfig;

const EPOCH_BLOCKS: [&str; 3] = ["41.1.0.0/16", "41.64.0.0/12", "41.128.0.0/12"];

fn announcement(prefix: &str, path: &[u32], next_hop: std::net::Ipv4Addr) -> BgpMessage {
    let mut attrs = RouteAttrs::default();
    attrs.as_path = AsPath::from_sequence(path.iter().copied());
    attrs.next_hop = next_hop;
    BgpMessage::Update(UpdateMessage::announce(
        vec![prefix.parse().expect("valid prefix")],
        &attrs,
    ))
}

fn session() -> DiceSession {
    DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(32))
        .checker(Box::new(OriginHijackChecker::new()))
        .build()
}

/// One continuous exploration run over the Figure 2 scenario: an epoch of
/// customer traffic per round. The sink installed (or not) by the caller
/// is the only variable.
fn live_run() -> LiveReport {
    let topo = figure2_topology(CustomerFilterMode::Erroneous);
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
    let orchestrator = LiveOrchestrator::new(session());
    orchestrator.run(&mut sim, |sim, epoch| {
        if let Some(block) = EPOCH_BLOCKS.get(epoch) {
            sim.inject(
                provider,
                addr::CUSTOMER,
                announcement(block, &[asn::CUSTOMER, asn::CUSTOMER], addr::CUSTOMER),
            );
        }
        epoch + 1 < EPOCH_BLOCKS.len()
    })
}

fn bench_obs(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs");
    group.sample_size(10);

    group.bench_function("figure2_rounds_tracing_absent", |b| {
        b.iter(|| std::hint::black_box(live_run().total_runs()))
    });

    group.bench_function("figure2_rounds_tracing_noop", |b| {
        let _guard = SinkGuard::install(Arc::new(NoopSink));
        b.iter(|| std::hint::black_box(live_run().total_runs()))
    });

    group.bench_function("figure2_rounds_tracing_recorded", |b| {
        let recorder = Arc::new(BufferedRecorder::new());
        let _guard = SinkGuard::install(recorder.clone());
        b.iter(|| {
            let runs = live_run().total_runs();
            recorder.drain();
            std::hint::black_box(runs)
        })
    });

    // The per-call price of a disabled span: one relaxed atomic load.
    group.bench_function("disabled_span_per_call", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                let mut span = dice_obs::span("bench", "obs.disabled");
                span.set_detail(1);
                std::hint::black_box(&span);
            }
        })
    });

    group.finish();

    // Direct readout + JSON baseline, plus the tentpole guarantee measured
    // in-bench: the digest is byte-identical across absent, no-op and
    // recording sinks.
    let reps: u32 = std::env::var("DICE_BENCH_SAMPLE_SIZE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let time = |sink: Option<Arc<dyn TraceSink>>| -> (Duration, LiveReport) {
        let _guard = sink.map(SinkGuard::install);
        let mut best = Duration::MAX;
        let mut last = LiveReport::default();
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            last = live_run();
            best = best.min(start.elapsed());
        }
        (best, last)
    };
    let (absent_time, absent) = time(None);
    let (noop_time, noop) = time(Some(Arc::new(NoopSink)));
    let recorder = Arc::new(BufferedRecorder::new());
    let (recorded_time, recorded) = time(Some(recorder.clone()));
    let events = recorder.drain().len();

    assert_eq!(
        absent.digest(),
        noop.digest(),
        "a no-op sink must leave the live digest byte-identical"
    );
    assert_eq!(
        absent.digest(),
        recorded.digest(),
        "a recording sink must leave the live digest byte-identical"
    );
    assert!(events > 0, "the recorder captured the traced runs");

    let noop_overhead = noop_time.as_secs_f64() / absent_time.as_secs_f64().max(f64::EPSILON);
    let recorded_overhead =
        recorded_time.as_secs_f64() / absent_time.as_secs_f64().max(f64::EPSILON);
    println!(
        "\nobservability ({} rounds, {} events recorded over {} rep(s)): \
         absent {:?}, no-op {:?} ({noop_overhead:.2}x), recorded {:?} ({recorded_overhead:.2}x)",
        absent.rounds.len(),
        events,
        reps,
        absent_time,
        noop_time,
        recorded_time,
    );

    if let Ok(path) = std::env::var("DICE_BENCH_OBS_JSON") {
        let json = format!(
            "{{\n  \"bench\": \"obs_figure2_rounds\",\n  \"rounds\": {},\n  \
             \"total_runs\": {},\n  \"events_recorded\": {},\n  \"absent_ns\": {},\n  \
             \"noop_ns\": {},\n  \"recorded_ns\": {},\n  \
             \"noop_overhead\": {noop_overhead:.4},\n  \
             \"recorded_overhead\": {recorded_overhead:.4}\n}}\n",
            absent.rounds.len(),
            absent.total_runs(),
            events,
            absent_time.as_nanos(),
            noop_time.as_nanos(),
            recorded_time.as_nanos(),
        );
        std::fs::write(&path, json).expect("write bench baseline");
        println!("wrote perf baseline to {path}");
    }
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);

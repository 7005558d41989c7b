//! Wire-ingestion benchmark: delivering a synthetic trace through the
//! full wire path (`WireTrace` bytes → `dice_bgp::wire::decode` →
//! re-encode identity check → injection) vs handing the same messages to
//! the simulator as in-memory structs, with the equivalence assertion
//! that guards the replay driver — both paths must leave the simulator
//! with a byte-identical observed log.
//!
//! Set `DICE_BENCH_INGEST_JSON=<path>` to write the comparison as a JSON
//! baseline artifact (CI uploads `BENCH_ingest.json` next to the other
//! bench artifacts).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use dice_bgp::message::BgpMessage;
use dice_netsim::topology::{addr, asn, figure2_topology, CustomerFilterMode, NodeId};
use dice_netsim::{
    generate_trace, synthesize_wire_trace, IngestStats, Simulator, TraceGenConfig,
    WireReplayDriver, WireTrace,
};

const QUIESCE_STEPS: u64 = 200_000;

fn trace_config() -> TraceGenConfig {
    TraceGenConfig {
        prefix_count: 600,
        update_count: 300,
        ..Default::default()
    }
}

fn fresh_sim() -> (Simulator, NodeId) {
    let topo = figure2_topology(CustomerFilterMode::Correct);
    let provider = topo.node_by_name("Provider").expect("node");
    (Simulator::new(&topo), provider)
}

/// The wire path: parse the serialized trace, decode every frame through
/// the codec (with the re-encode identity check) and inject the results.
fn wire_delivery(bytes: &[u8]) -> (Simulator, IngestStats) {
    let trace = WireTrace::from_bytes(bytes).expect("trace parses");
    let (mut sim, _) = fresh_sim();
    let mut driver = WireReplayDriver::new(trace);
    let stats = driver.stats();
    while driver.drive(&mut sim, 0) {}
    sim.run_to_quiescence(QUIESCE_STEPS);
    (sim, stats.snapshot())
}

/// The in-memory path: the same messages as ready-made structs.
fn in_memory_delivery(messages: &[BgpMessage], node: NodeId) -> Simulator {
    let (mut sim, _) = fresh_sim();
    for message in messages {
        sim.inject(node, addr::INTERNET, message.clone());
    }
    sim.run_to_quiescence(QUIESCE_STEPS);
    sim
}

fn bench_ingest(c: &mut Criterion) {
    let config = trace_config();
    let (_, provider) = fresh_sim();
    let wire = synthesize_wire_trace(&config, provider, asn::INTERNET, addr::INTERNET);
    let frames = wire.len();
    let bytes = wire.to_bytes();
    let struct_trace = generate_trace(&config, asn::INTERNET, addr::INTERNET);
    let messages: Vec<BgpMessage> = struct_trace
        .table
        .iter()
        .chain(struct_trace.updates.iter().map(|e| &e.update))
        .cloned()
        .map(BgpMessage::Update)
        .collect();
    assert_eq!(messages.len(), frames, "both paths carry the same updates");

    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);

    group.bench_function("wire_replay_900_updates", |b| {
        b.iter(|| std::hint::black_box(wire_delivery(&bytes).0.observed_cursor()))
    });

    group.bench_function("in_memory_900_updates", |b| {
        b.iter(|| std::hint::black_box(in_memory_delivery(&messages, provider).observed_cursor()))
    });

    group.finish();

    // Direct readout + JSON baseline, plus the guarantee that guards the
    // driver: both delivery paths leave an identical observed log.
    let reps: u32 = std::env::var("DICE_BENCH_SAMPLE_SIZE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let mut wire_time = Duration::MAX;
    let mut mem_time = Duration::MAX;
    let mut wire_sim = None;
    let mut ingest = IngestStats::default();
    let mut mem_sim = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let (sim, stats) = wire_delivery(&bytes);
        wire_time = wire_time.min(start.elapsed());
        wire_sim = Some(sim);
        ingest = stats;
        let start = Instant::now();
        mem_sim = Some(in_memory_delivery(&messages, provider));
        mem_time = mem_time.min(start.elapsed());
    }
    let wire_sim = wire_sim.expect("at least one rep");
    let mem_sim = mem_sim.expect("at least one rep");
    assert_eq!(
        format!("{:?}", wire_sim.observed_log()),
        format!("{:?}", mem_sim.observed_log()),
        "wire-fed delivery must be byte-identical to in-memory delivery"
    );
    assert_eq!(ingest.frames as usize, frames);
    assert_eq!(ingest.decoded as usize, frames);
    assert_eq!(ingest.decode_errors, 0);
    assert_eq!(ingest.reencode_mismatches, 0);

    let overhead_percent =
        (wire_time.as_secs_f64() / mem_time.as_secs_f64().max(f64::EPSILON) - 1.0) * 100.0;
    let decode_rate = ingest.updates_per_second();
    println!(
        "\ningest ({frames} frames, {} bytes on the wire): wire {wire_time:?}, in-memory \
         {mem_time:?}, overhead {overhead_percent:.1}%, decode rate {decode_rate:.0} updates/s",
        bytes.len(),
    );

    if let Ok(path) = std::env::var("DICE_BENCH_INGEST_JSON") {
        let json = format!(
            "{{\n  \"bench\": \"ingest_wire_vs_in_memory\",\n  \"frames\": {frames},\n  \
             \"trace_bytes\": {},\n  \"wire_ns\": {},\n  \"in_memory_ns\": {},\n  \
             \"overhead_percent\": {overhead_percent:.4},\n  \
             \"decode_updates_per_sec\": {decode_rate:.1}\n}}\n",
            bytes.len(),
            wire_time.as_nanos(),
            mem_time.as_nanos(),
        );
        std::fs::write(&path, json).expect("write bench baseline");
        println!("wrote perf baseline to {path}");
    }
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);

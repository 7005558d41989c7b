//! Wire-level replay driving a live exploration run, observed through the
//! control plane.
//!
//! Everything the simulator sees on this path starts as raw bytes: a
//! synthetic `WireTrace` (framed, timestamped, peer-tagged BGP messages)
//! is serialized, parsed back, and replayed by a `WireReplayDriver` that
//! decodes every frame through the real RFC 4271 codec
//! (`dice_bgp::wire::decode`), checks the encode→decode→encode byte
//! identity, and injects the results — no hand-built `UpdateMessage` ever
//! reaches the simulator. The `LiveOrchestrator` publishes a versioned
//! `ControlSnapshot` after every round; the example samples it the way an
//! operational sidecar would and prints the final status surface.
//!
//! Run with `cargo run --release --example wire_replay`.

use dice::prelude::*;

fn main() {
    // 1. A synthetic wire trace for the Provider's Internet session: a
    //    table dump of 48 prefixes followed by 24 incremental updates,
    //    every message encoded to RFC 4271 frames. Serializing and
    //    re-parsing proves the replay consumes only bytes.
    let topo = figure2_topology(CustomerFilterMode::Correct);
    let provider = topo.node_by_name("Provider").expect("Figure 2 node");
    let config = TraceGenConfig {
        prefix_count: 48,
        update_count: 24,
        ..Default::default()
    };
    let trace = synthesize_wire_trace(&config, provider, asn::INTERNET, addr::INTERNET);
    let bytes = trace.to_bytes();
    let trace = WireTrace::from_bytes(&bytes).expect("serialized trace parses");
    println!(
        "synthesized {} frames ({} bytes on the wire, {} ms of traffic)",
        trace.len(),
        bytes.len(),
        trace.duration_ms(),
    );

    // 2. The driver delivers 24 frames per exploration epoch, strictly
    //    through the codec; its ingest counters feed the control plane.
    let mut driver = WireReplayDriver::new(trace).with_frames_per_epoch(24);
    let session = DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(4))
        .build();
    let orchestrator = LiveOrchestrator::new(session).with_ingest_stats(driver.stats());
    let plane = orchestrator.control_plane();

    // 3. Run: the orchestrator interleaves replay epochs with exploration
    //    rounds and publishes a fresh snapshot after each round.
    let mut sim = Simulator::new(&topo);
    let report = orchestrator.run(&mut sim, |sim, epoch| driver.drive(sim, epoch));
    println!("\n{report}");

    // 4. The final control snapshot — the versioned status surface a
    //    monitoring sidecar samples mid-run without stopping anything.
    let snapshot = plane.sample();
    println!("{snapshot}");

    assert_eq!(snapshot.schema_version, CONTROL_SCHEMA_VERSION);
    assert_eq!(snapshot.rounds, report.rounds.len());
    assert_eq!(snapshot.ingest.frames, 72);
    assert_eq!(snapshot.ingest.decoded, 72);
    assert_eq!(snapshot.ingest.decode_errors, 0);
    assert_eq!(snapshot.ingest.reencode_mismatches, 0);
    assert!(snapshot.ingest.updates_per_second > 0.0);
    assert!(snapshot.delivered > 0);
    assert!(
        sim.router(provider).rib().prefix_count() > 0,
        "the wire-fed table dump populated the provider's RIB"
    );
    println!(
        "\nreplayed {} frames into {} exploration round(s); the provider's RIB holds {} prefixes",
        snapshot.ingest.frames,
        snapshot.rounds,
        sim.router(provider).rib().prefix_count(),
    );
}

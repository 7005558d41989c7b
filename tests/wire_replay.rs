//! End-to-end wire-level replay: a live exploration run fed *entirely*
//! from serialized `WireTrace` bytes through `dice_bgp::wire::decode` —
//! no in-memory `UpdateMessage` ever reaches the simulator on that path —
//! must be byte-identical (per `LiveReport::digest`) to the same updates
//! delivered as structs, and the control plane must be observable mid-run.

use std::net::Ipv4Addr;
use std::sync::Arc;

use dice::prelude::*;

/// The figure-2 Erroneous scenario as one message per epoch: the victim's
/// table entry from the Internet, then two customer announcements the
/// erroneous filter admits.
fn scenario() -> Vec<(Ipv4Addr, BgpMessage)> {
    let announcement = |prefix: &str, path: &[u32], next_hop: Ipv4Addr| {
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence(path.iter().copied());
        attrs.next_hop = next_hop;
        BgpMessage::Update(UpdateMessage::announce(
            vec![prefix.parse().expect("valid")],
            &attrs,
        ))
    };
    vec![
        (
            addr::INTERNET,
            announcement(
                "208.65.152.0/22",
                &[asn::INTERNET, 3356, asn::VICTIM],
                addr::INTERNET,
            ),
        ),
        (
            addr::CUSTOMER,
            announcement(
                "41.1.0.0/16",
                &[asn::CUSTOMER, asn::CUSTOMER],
                addr::CUSTOMER,
            ),
        ),
        (
            addr::CUSTOMER,
            announcement(
                "41.64.0.0/12",
                &[asn::CUSTOMER, asn::CUSTOMER],
                addr::CUSTOMER,
            ),
        ),
    ]
}

fn session() -> DiceSession {
    DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(8))
        .build()
}

#[test]
fn wire_fed_live_run_matches_in_memory_delivery_and_reports_status() {
    let topo = figure2_topology(CustomerFilterMode::Erroneous);
    let provider = topo.node_by_name("Provider").expect("node");
    let messages = scenario();

    // The wire path: every message encoded into a trace, the trace
    // serialized and re-parsed from raw bytes, then replayed one frame per
    // epoch strictly through the codec.
    let mut trace = WireTrace::new();
    for (epoch, (peer, msg)) in messages.iter().enumerate() {
        trace.push_message(epoch as u64 * 1000, provider, *peer, msg);
    }
    let trace = WireTrace::from_bytes(&trace.to_bytes()).expect("serialized trace parses");
    let mut driver = WireReplayDriver::new(trace).with_frames_per_epoch(1);

    let mut wire_sim = Simulator::new(&topo);
    let orchestrator = LiveOrchestrator::new(session()).with_ingest_stats(driver.stats());
    let plane = orchestrator.control_plane();
    assert_eq!(
        *plane.sample(),
        ControlSnapshot::default(),
        "before the run the plane holds the default snapshot"
    );
    let mut mid_run: Option<Arc<ControlSnapshot>> = None;
    let wire_report = orchestrator.run(&mut wire_sim, |sim, epoch| {
        if epoch == 2 {
            // Two rounds have completed; sample the way a sidecar would.
            mid_run = Some(plane.sample());
        }
        driver.drive(sim, epoch)
    });

    // The in-memory path: the same messages as structs, same epochs.
    let mut mem_sim = Simulator::new(&topo);
    let mem_report = LiveOrchestrator::new(session()).run(&mut mem_sim, |sim, epoch| {
        if let Some((peer, msg)) = messages.get(epoch) {
            sim.inject(provider, *peer, msg.clone());
        }
        epoch + 1 < messages.len()
    });

    assert_eq!(
        wire_report.digest(),
        mem_report.digest(),
        "wire-fed exploration must be byte-identical to in-memory delivery"
    );
    assert_eq!(wire_report.rounds.len(), 3);
    assert!(wire_report.has_faults());

    // The mid-run sample: nonzero ingest counters, round latencies and
    // solver stats under the stable schema version.
    let mid = mid_run.expect("driver sampled at epoch 2");
    assert_eq!(mid.schema_version, CONTROL_SCHEMA_VERSION);
    assert_eq!(mid.rounds, 2);
    assert_eq!(mid.ingest.frames, 2);
    assert_eq!(mid.ingest.decoded, 2);
    assert_eq!(mid.ingest.injected_updates, 2);
    assert_eq!(mid.ingest.decode_errors, 0);
    assert_eq!(mid.ingest.reencode_mismatches, 0);
    assert!(mid.ingest.bytes_consumed > 0);
    assert!(mid.ingest.updates_per_second > 0.0);
    assert!(mid.last_round_latency > std::time::Duration::ZERO);
    assert!(mid.mean_round_latency > std::time::Duration::ZERO);
    assert!(mid.solver_queries > 0);
    assert!(mid.solver_incremental_queries > 0);
    assert!(mid.solver_reuse_rate > 0.0);
    assert!(mid.delivered > 0);
    assert!(mid.compaction_watermark > 0);
    assert!(mid.cow.units_total > 0);

    // The final snapshot covers the whole run and renders stably.
    let last = plane.sample();
    assert_eq!(last.rounds, 3);
    assert_eq!(last.total_runs, wire_report.total_runs());
    assert_eq!(last.distinct_faults, wire_report.faults.len());
    assert_eq!(last.ingest.frames, 3);
    assert_eq!(last.compaction_watermark, wire_sim.observed_cursor());
    assert!(last.render().starts_with("control-snapshot v5\n"));
    assert!(last.render().contains("ingest frames=3 decoded=3"));
}

#[test]
fn corrupted_frames_surface_as_events_and_do_not_abort_the_run() {
    let topo = figure2_topology(CustomerFilterMode::Erroneous);
    let provider = topo.node_by_name("Provider").expect("node");
    let messages = scenario();

    let mut trace = WireTrace::new();
    for (epoch, (peer, msg)) in messages.iter().enumerate() {
        trace.push_message(epoch as u64 * 1000, provider, *peer, msg);
    }
    // Flip a marker byte of the middle frame: a decode error, not a panic.
    trace.records[1].bytes[5] = 0;

    let mut driver = WireReplayDriver::new(trace).with_frames_per_epoch(1);
    let stats = driver.stats();
    let mut sim = Simulator::new(&topo);
    let orchestrator = LiveOrchestrator::new(session()).with_ingest_stats(stats.clone());
    let plane = orchestrator.control_plane();
    let report = orchestrator.run(&mut sim, |sim, epoch| driver.drive(sim, epoch));

    let ingest = stats.snapshot();
    assert_eq!(ingest.frames, 3);
    assert_eq!(ingest.decoded, 2);
    assert_eq!(ingest.decode_errors, 1);
    assert_eq!(ingest.events.len(), 1);
    assert!(
        ingest.events[0].to_string().contains("decode failed"),
        "the event names the failure: {}",
        ingest.events[0]
    );

    let snapshot = plane.sample();
    assert_eq!(snapshot.ingest.decode_errors, 1);
    assert_eq!(snapshot.ingest.decoded, 2);
    // The two intact frames still drove exploration rounds.
    assert_eq!(report.rounds.len(), 2);
    assert!(report.has_faults());
}

#[test]
fn synthesized_trace_drives_a_live_run_from_bytes_alone() {
    let topo = figure2_topology(CustomerFilterMode::Correct);
    let provider = topo.node_by_name("Provider").expect("node");
    let config = TraceGenConfig {
        prefix_count: 24,
        update_count: 12,
        ..Default::default()
    };
    let trace = synthesize_wire_trace(&config, provider, asn::INTERNET, addr::INTERNET);
    assert_eq!(trace.len(), 36);
    let trace = WireTrace::from_bytes(&trace.to_bytes()).expect("parses");

    let mut driver = WireReplayDriver::new(trace).with_frames_per_epoch(12);
    let mut sim = Simulator::new(&topo);
    let orchestrator = LiveOrchestrator::new(session()).with_ingest_stats(driver.stats());
    let plane = orchestrator.control_plane();
    let report = orchestrator.run(&mut sim, |sim, epoch| driver.drive(sim, epoch));

    assert_eq!(report.rounds.len(), 3);
    let snapshot = plane.sample();
    assert_eq!(snapshot.ingest.frames, 36);
    assert_eq!(snapshot.ingest.decoded, 36);
    assert_eq!(snapshot.ingest.decode_errors, 0);
    assert_eq!(snapshot.ingest.reencode_mismatches, 0);
    assert!(snapshot.ingest.updates_per_second > 0.0);
    assert!(sim.router(provider).rib().prefix_count() > 0);
}

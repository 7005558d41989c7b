//! Structured tracing and the control snapshot over a live exploration run.
//!
//! Installs the buffered trace recorder, drives a wire-fed continuous
//! exploration (`WireReplayDriver` → `LiveOrchestrator`), and then exports
//! the captured spans as Chrome Trace Event JSONL (load it at
//! <https://ui.perfetto.dev> or `chrome://tracing`) and prints the control
//! snapshot's rendered form. Tracing is out-of-band by construction — the run's
//! report digest is byte-identical with and without the recorder, which
//! the example asserts at the end.
//!
//! Run with `cargo run --release --example observability`.

use std::sync::Arc;

use dice::obs::{chrome_trace_jsonl, validate_chrome_trace_jsonl};
use dice::prelude::*;

/// One wire-fed live run over the Figure 2 topology: 32 table-dump
/// prefixes plus 16 incremental updates, replayed 16 frames per epoch.
fn traced_run() -> (LiveReport, ControlSnapshot) {
    let topo = figure2_topology(CustomerFilterMode::Erroneous);
    let provider = topo.node_by_name("Provider").expect("Figure 2 node");
    let config = TraceGenConfig {
        prefix_count: 32,
        update_count: 16,
        ..Default::default()
    };
    let trace = synthesize_wire_trace(&config, provider, asn::INTERNET, addr::INTERNET);
    let mut driver = WireReplayDriver::new(trace).with_frames_per_epoch(16);
    let session = DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(8))
        .build();
    let orchestrator = LiveOrchestrator::new(session).with_ingest_stats(driver.stats());
    let plane = orchestrator.control_plane();
    let mut sim = Simulator::new(&topo);
    let report = orchestrator.run(&mut sim, |sim, epoch| driver.drive(sim, epoch));
    let snapshot = (*plane.sample()).clone();
    (report, snapshot)
}

fn main() {
    // 1. Trace a full run through the buffered recorder: per-thread
    //    buffers, one global sequence counter, drained once at the end.
    let recorder = Arc::new(BufferedRecorder::new());
    let (report, snapshot) = {
        let _guard = SinkGuard::install(recorder.clone());
        traced_run()
    };
    let events = recorder.drain();
    println!(
        "traced {} round(s), {} run(s): {} span/event record(s) captured",
        report.rounds.len(),
        report.total_runs(),
        events.len(),
    );

    // 2. Chrome Trace Event JSONL — one object per line, Perfetto-loadable.
    //    The serde-free validator round-trips every line.
    let jsonl = chrome_trace_jsonl(&events);
    let parsed = validate_chrome_trace_jsonl(&jsonl).expect("exported trace validates");
    assert_eq!(parsed.len(), events.len());
    println!(
        "\n--- chrome trace (first 3 of {} lines; load the full file in ui.perfetto.dev) ---",
        events.len()
    );
    for line in jsonl.lines().take(3) {
        println!("{line}");
    }

    // 3. The control snapshot's rendered form: counters, gauges and the
    //    round, wave and decode latency distributions.
    println!("\n--- control snapshot ---");
    print!("{}", snapshot.render());

    // 4. The out-of-band invariant: tracing never changes a result. Rerun
    //    untraced and compare digests byte for byte.
    let (untraced, _) = traced_run();
    assert_eq!(
        report.digest(),
        untraced.digest(),
        "tracing must be out-of-band"
    );
    println!("\ntraced and untraced report digests are byte-identical");
}

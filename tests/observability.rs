//! End-to-end observability: a live run traced through the buffered
//! recorder produces a loadable Chrome trace, publishes latency summaries
//! on the control plane, and —
//! the out-of-band invariant — reports byte-identical to an untraced run.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};

use dice::obs::{chrome_trace_jsonl, validate_chrome_trace_jsonl};
use dice::prelude::*;

/// The trace sink is process-global: every test here holds this lock, so a
/// recorder never sees events from a run another test started.
fn sink_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The customer's announcement of `block`, as the Provider receives it.
fn customer_announcement(block: &str) -> BgpMessage {
    let mut attrs = RouteAttrs::default();
    attrs.as_path = AsPath::from_sequence([17557, 17557]);
    attrs.next_hop = std::net::Ipv4Addr::new(10, 0, 1, 1);
    BgpMessage::Update(UpdateMessage::announce(
        vec![block.parse().expect("valid")],
        &attrs,
    ))
}

/// Drives two epochs of customer announcements through a Figure 2 live
/// orchestration and returns the report plus the final control snapshot.
fn live_run() -> (LiveReport, ControlSnapshot) {
    let topo = figure2_topology(CustomerFilterMode::Erroneous);
    let provider = topo.node_by_name("Provider").expect("node");
    let mut sim = Simulator::new(&topo);
    let session = DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(4))
        .build();
    let orchestrator = LiveOrchestrator::new(session);
    let control = orchestrator.control_plane();
    let blocks = ["41.1.0.0/16", "41.64.0.0/12"];
    let report = orchestrator.run(&mut sim, |sim, epoch| {
        if let Some(block) = blocks.get(epoch) {
            sim.inject(provider, addr::CUSTOMER, customer_announcement(block));
        }
        epoch + 1 < blocks.len()
    });
    let snapshot = (*control.sample()).clone();
    (report, snapshot)
}

#[test]
fn traced_live_run_exports_chrome_without_touching_reports() {
    let _serial = sink_lock();
    let (baseline, _) = live_run();

    let recorder = Arc::new(BufferedRecorder::new());
    let (traced, snapshot) = {
        let _guard = SinkGuard::install(recorder.clone());
        live_run()
    };

    // Tentpole invariant: tracing never reaches a report.
    assert_eq!(baseline.digest(), traced.digest());

    // The recorder saw the whole stack: per-round orchestration phases,
    // simulator steps and solver queries.
    let events = recorder.drain();
    assert!(!events.is_empty());
    let scope_seen = |scope: &str| events.iter().any(|e| e.scope == scope);
    assert!(scope_seen("core"), "orchestration phases traced");
    assert!(scope_seen("netsim"), "simulator steps traced");
    assert!(scope_seen("solver"), "solver queries traced");
    assert!(scope_seen("symexec"), "solver waves traced");
    assert!(
        events.iter().any(|e| e.name == "live.harvest"),
        "harvest phase traced"
    );
    assert!(
        events.iter().any(|e| e.name == "live.check"),
        "temporal check phase traced"
    );

    // The Chrome export round-trips through the serde-free validator with
    // nothing lost.
    let jsonl = chrome_trace_jsonl(&events);
    let parsed = validate_chrome_trace_jsonl(&jsonl).expect("exported trace validates");
    assert_eq!(parsed.len(), events.len());

    // The control plane published the latency summaries.
    assert_eq!(snapshot.schema_version, CONTROL_SCHEMA_VERSION);
    assert_eq!(snapshot.round_latency.count, snapshot.rounds as u64);
    assert!(snapshot.round_latency.max >= snapshot.round_latency.p50);
    let render = snapshot.render();
    assert!(render.starts_with("control-snapshot v5\n"));
    assert!(render.contains("round-latency n="));
    assert!(render.contains("wave-latency n="));
    assert!(render.contains("decode-latency n="));
}

#[test]
fn untraced_snapshot_still_carries_latency_summaries() {
    // No sink installed at all: summaries come from the report path, not
    // the trace path, so they are populated either way.
    let _serial = sink_lock();
    let (report, snapshot) = live_run();
    assert!(report.rounds.len() >= 2);
    assert_eq!(snapshot.round_latency.count, report.rounds.len() as u64);
    assert!(snapshot.mean_round_latency > std::time::Duration::ZERO);
}

/// The threads that recorded engine work: every `symexec.wave` and
/// `solver.check` event's `tid`.
fn exploring_threads(events: &[dice::obs::TraceEvent]) -> BTreeSet<u64> {
    let tids = |name: &str| -> BTreeSet<u64> {
        let of_name = events.iter().filter(|e| e.name == name);
        of_name.map(|e| e.tid).collect()
    };
    let (waves, checks) = (tids("symexec.wave"), tids("solver.check"));
    assert!(!waves.is_empty(), "the round ran waves");
    assert!(!checks.is_empty(), "the round ran solver queries");
    &waves | &checks
}

/// Runs `round` with `recorder` installed and returns the engine threads it
/// recorded together with the id of the thread that called it.
fn explore_traced(recorder: &Arc<BufferedRecorder>, round: impl FnOnce()) -> (BTreeSet<u64>, u64) {
    let events = {
        let _guard = SinkGuard::install(recorder.clone());
        dice::obs::event("test", "caller", 0);
        round();
        recorder.drain()
    };
    let caller = events
        .iter()
        .find(|e| e.name == "caller")
        .expect("the caller's marker was recorded")
        .tid;
    (exploring_threads(&events), caller)
}

#[test]
fn fleet_and_live_rounds_explore_on_the_calling_thread() {
    let _serial = sink_lock();
    // Three announcements from the customer: the Provider observes a
    // three-input window, and its neighbours observe what it re-advertises.
    let topo = figure2_topology(CustomerFilterMode::Erroneous);
    let provider = topo.node_by_name("Provider").expect("node");
    let drive = |sim: &mut Simulator| {
        for block in ["41.1.0.0/16", "41.64.0.0/12", "41.128.0.0/12"] {
            sim.inject(provider, addr::CUSTOMER, customer_announcement(block));
            sim.run_to_quiescence(100);
        }
    };
    let mut sim = Simulator::new(&topo);
    drive(&mut sim);
    let window = sim.observed_inputs(provider);
    assert!(window.len() >= 3, "a multi-input window");
    let observing_nodes = (0..sim.len())
        .filter(|&n| !sim.observed_inputs(NodeId(n)).is_empty())
        .count();
    assert!(
        observing_nodes >= 2,
        "a round with several nodes to explore"
    );

    let recorder = Arc::new(BufferedRecorder::new());
    // One session worker: the engine solves and executes every wave of
    // every input on the thread that called `explore`.
    let sequential = DiceBuilder::new().workers(1).build();
    let (threads, caller) = explore_traced(&recorder, || {
        sequential.explore(sim.router(provider), &window);
    });
    assert_eq!(threads, BTreeSet::from([caller]));

    // A fleet round and a live round stay on the calling thread even when
    // the session would fan a lone round's inputs out across four workers.
    let wide = DiceBuilder::new().workers(4).build();
    let (threads, caller) = explore_traced(&recorder, || {
        FleetExplorer::new(wide.clone()).explore(&sim);
    });
    assert_eq!(threads, BTreeSet::from([caller]), "fleet round");

    let mut live_sim = Simulator::new(&topo);
    let (threads, caller) = explore_traced(&recorder, || {
        LiveOrchestrator::new(wide).run(&mut live_sim, |sim, _| {
            drive(sim);
            false
        });
    });
    assert_eq!(threads, BTreeSet::from([caller]), "live round");
}

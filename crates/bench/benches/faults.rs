//! Fault-injection benchmark: exploration-round cost with a deterministic
//! fault plan driving the simulation vs the identical unperturbed run,
//! plus the equivalence assertion that guards the layer — an *empty* plan
//! leaves the live report digest byte-identical to no plan at all.
//!
//! Set `DICE_BENCH_FAULTS_JSON=<path>` to write the comparison as a JSON
//! baseline artifact (CI uploads `BENCH_faults.json` next to the other
//! `BENCH_*.json` baselines).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use dice_bgp::attributes::RouteAttrs;
use dice_bgp::message::{BgpMessage, UpdateMessage};
use dice_bgp::AsPath;
use dice_core::{
    CrossRoundFlapChecker, DiceBuilder, DiceSession, LiveOrchestrator, LiveReport,
    OriginHijackChecker,
};
use dice_netsim::topology::{addr, asn, figure2_topology, CustomerFilterMode, NodeId};
use dice_netsim::{FaultPlan, FaultSpec, Simulator};
use dice_symexec::EngineConfig;

const EPOCH_BLOCKS: [&str; 4] = [
    "41.1.0.0/16",
    "41.64.0.0/12",
    "41.128.0.0/12",
    "41.192.0.0/12",
];

fn announcement(prefix: &str, path: &[u32], next_hop: std::net::Ipv4Addr) -> BgpMessage {
    let mut attrs = RouteAttrs::default();
    attrs.as_path = AsPath::from_sequence(path.iter().copied());
    attrs.next_hop = next_hop;
    BgpMessage::Update(UpdateMessage::announce(
        vec![prefix.parse().expect("valid prefix")],
        &attrs,
    ))
}

fn fresh_sim() -> (Simulator, NodeId, NodeId, NodeId) {
    let topo = figure2_topology(CustomerFilterMode::Erroneous);
    let customer = topo.node_by_name("Customer").expect("node");
    let provider = topo.node_by_name("Provider").expect("node");
    let internet = topo.node_by_name("RestOfInternet").expect("node");
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
    (sim, customer, provider, internet)
}

fn session() -> DiceSession {
    DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(64))
        .checker(Box::new(OriginHijackChecker::new()))
        .checker(Box::new(CrossRoundFlapChecker::new()))
        .build()
}

/// The adversarial plan the "enabled" side drives: a session reset between
/// Provider and Customer at epoch 1, a Provider↔Internet link flap across
/// epoch 2, and seeded message duplication on the customer link.
fn plan(customer: NodeId, provider: NodeId, internet: NodeId) -> FaultPlan {
    FaultPlan::new(0x5EED)
        .with_spec(FaultSpec::SessionReset {
            a: provider,
            b: customer,
            epoch: 1,
        })
        .with_spec(FaultSpec::LinkFlap {
            a: provider,
            b: internet,
            down_epoch: 2,
            up_epoch: 3,
        })
        .with_spec(FaultSpec::MessageDuplicate {
            a: customer,
            b: provider,
            probability: 0.5,
        })
}

/// One continuous run: an epoch of customer traffic per round, with or
/// without the fault plan perturbing the network between epochs.
fn live_run(fault_plan: Option<FaultPlan>) -> LiveReport {
    let (mut sim, _, provider, _) = fresh_sim();
    let mut orchestrator = LiveOrchestrator::new(session());
    if let Some(plan) = fault_plan {
        orchestrator = orchestrator.with_fault_plan(plan);
    }
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

fn bench_faults(c: &mut Criterion) {
    let (_, customer, provider, internet) = fresh_sim();
    let adversarial = plan(customer, provider, internet);

    let mut group = c.benchmark_group("faults");
    group.sample_size(10);

    group.bench_function("figure2_rounds_injection_disabled", |b| {
        b.iter(|| std::hint::black_box(live_run(None).total_runs()))
    });

    group.bench_function("figure2_rounds_injection_enabled", |b| {
        let plan = adversarial.clone();
        b.iter(|| std::hint::black_box(live_run(Some(plan.clone())).total_runs()))
    });

    group.finish();

    // Direct readout + JSON baseline, plus the two guarantees that guard
    // the fault layer: empty-plan byte-identity and faulty-run replay.
    let reps: u32 = std::env::var("DICE_BENCH_SAMPLE_SIZE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let time = |plan: Option<FaultPlan>| -> (Duration, LiveReport) {
        let mut best = Duration::MAX;
        let mut last = LiveReport::default();
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            last = live_run(plan.clone());
            best = best.min(start.elapsed());
        }
        (best, last)
    };
    let (clean_time, clean) = time(None);
    let (faulty_time, faulty) = time(Some(adversarial.clone()));

    let (empty_time, empty) = time(Some(FaultPlan::new(0x5EED)));
    assert_eq!(
        empty.digest(),
        clean.digest(),
        "an empty plan must leave the live digest byte-identical"
    );
    let (_, replay) = time(Some(adversarial));
    assert_eq!(
        replay.digest(),
        faulty.digest(),
        "faulty runs must replay byte for byte from (plan, seed)"
    );
    assert!(faulty.injected_faults > 0, "the plan actually injected");
    assert_eq!(clean.injected_faults, 0);

    let overhead = faulty_time.as_secs_f64() / clean_time.as_secs_f64().max(f64::EPSILON);
    println!(
        "\nfault injection ({} rounds clean / {} faulty, {} injected fault(s)): \
         disabled {:?}, empty plan {:?}, enabled {:?}, overhead {:.2}x",
        clean.rounds.len(),
        faulty.rounds.len(),
        faulty.injected_faults,
        clean_time,
        empty_time,
        faulty_time,
        overhead,
    );

    if let Ok(path) = std::env::var("DICE_BENCH_FAULTS_JSON") {
        let json = format!(
            "{{\n  \"bench\": \"faults_figure2_rounds\",\n  \"clean_rounds\": {},\n  \
             \"faulty_rounds\": {},\n  \"injected_faults\": {},\n  \"clean_runs\": {},\n  \
             \"faulty_runs\": {},\n  \"disabled_ns\": {},\n  \"empty_plan_ns\": {},\n  \
             \"enabled_ns\": {},\n  \"overhead\": {overhead:.4}\n}}\n",
            clean.rounds.len(),
            faulty.rounds.len(),
            faulty.injected_faults,
            clean.total_runs(),
            faulty.total_runs(),
            clean_time.as_nanos(),
            empty_time.as_nanos(),
            faulty_time.as_nanos(),
        );
        std::fs::write(&path, json).expect("write bench baseline");
        println!("wrote perf baseline to {path}");
    }
}

criterion_group!(benches, bench_faults);
criterion_main!(benches);

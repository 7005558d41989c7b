//! Fault-plan search benchmark: plans searched per second over the wedgie
//! scenario, the cost of one fixed-plan replay vs one search step, and the
//! invariant assertions that guard the search — the empty-plan baseline is
//! byte-identical to a plain run, and a seeded search replays its digest.
//!
//! Set `DICE_BENCH_FAULT_SEARCH_JSON=<path>` to write the readout as a
//! JSON baseline artifact (CI uploads `BENCH_fault_search.json` next to
//! the other `BENCH_*.json` baselines).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use dice_bgp::attributes::RouteAttrs;
use dice_bgp::message::{BgpMessage, UpdateMessage};
use dice_bgp::AsPath;
use dice_core::{
    BgpWedgieChecker, DiceBuilder, FaultPlanSearch, FaultScenario, LiveOrchestrator, SearchReport,
    SpecKindMask,
};
use dice_netsim::topology::{addr, asn, figure2_topology, CustomerFilterMode, NodeId};
use dice_netsim::{FaultPlan, FaultSpec, Simulator};
use dice_symexec::EngineConfig;

/// The healed-partition wedgie scenario of the fault-search test suite:
/// customer block at epoch 0, then steady Internet-side traffic so the
/// fleet round clock keeps ticking after any injected fault.
struct WedgieScenario;

impl FaultScenario for WedgieScenario {
    fn build(&self) -> Simulator {
        Simulator::new(&figure2_topology(CustomerFilterMode::Missing))
    }

    fn drive(&self, sim: &mut Simulator, epoch: usize) -> bool {
        let provider = NodeId(1);
        let mut attrs = RouteAttrs::default();
        if epoch == 0 {
            attrs.as_path = AsPath::from_sequence([asn::CUSTOMER, asn::CUSTOMER]);
            attrs.next_hop = addr::CUSTOMER;
            sim.inject(
                provider,
                addr::CUSTOMER,
                BgpMessage::Update(UpdateMessage::announce(
                    vec!["41.1.0.0/16".parse().expect("valid")],
                    &attrs,
                )),
            );
        } else {
            attrs.as_path = AsPath::from_sequence([asn::INTERNET, 3356]);
            attrs.next_hop = addr::INTERNET;
            let block = format!("198.51.{}.0/24", 99 + epoch);
            sim.inject(
                provider,
                addr::INTERNET,
                BgpMessage::Update(UpdateMessage::announce(
                    vec![block.parse().expect("valid")],
                    &attrs,
                )),
            );
        }
        epoch < 3
    }
}

fn orchestrator() -> LiveOrchestrator {
    let session = DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(4))
        .checker(Box::new(BgpWedgieChecker::new()))
        .build();
    LiveOrchestrator::new(session)
}

fn search(budget: usize) -> FaultPlanSearch {
    FaultPlanSearch::new(orchestrator())
        .with_seed(1)
        .with_budget(budget)
        .with_epoch_horizon(3)
        .with_spec_kinds(SpecKindMask::only_partitions())
}

/// One fixed-plan orchestrator run: the unit of work a search step adds
/// its generation/scoring overhead on top of.
fn fixed_plan_run(plan: FaultPlan) -> u64 {
    let mut sim = WedgieScenario.build();
    orchestrator()
        .with_fault_plan(plan)
        .run(&mut sim, |sim, epoch| WedgieScenario.drive(sim, epoch))
        .injected_faults
}

fn bench_fault_search(c: &mut Criterion) {
    let wedgie_plan = FaultPlan::new(1).with_spec(FaultSpec::Partition {
        nodes: vec![NodeId(0)],
        epoch: 1,
    });

    let mut group = c.benchmark_group("fault_search");
    group.sample_size(10);

    group.bench_function("fixed_plan_replay", |b| {
        let plan = wedgie_plan.clone();
        b.iter(|| std::hint::black_box(fixed_plan_run(plan.clone())))
    });

    group.bench_function("search_step", |b| {
        // Budget 1 = baseline + one generated candidate: the marginal
        // cost of searching over replaying.
        b.iter(|| std::hint::black_box(search(1).run(&WedgieScenario).plans_tried))
    });

    group.bench_function("search_budget_8", |b| {
        b.iter(|| std::hint::black_box(search(8).run(&WedgieScenario).repros.len()))
    });

    group.finish();

    // Direct readout + JSON baseline, guarded by the search invariants.
    let reps: u32 = std::env::var("DICE_BENCH_SAMPLE_SIZE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let time_search = |budget: usize| -> (Duration, SearchReport) {
        let mut best = Duration::MAX;
        let mut last = SearchReport::default();
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            last = search(budget).run(&WedgieScenario);
            best = best.min(start.elapsed());
        }
        (best, last)
    };

    let replay_time = {
        let mut best = Duration::MAX;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            std::hint::black_box(fixed_plan_run(wedgie_plan.clone()));
            best = best.min(start.elapsed());
        }
        best
    };
    let (search_time, report) = time_search(8);
    let (_, rerun) = time_search(8);

    assert_eq!(
        report.digest(),
        rerun.digest(),
        "a seeded search must replay its digest byte for byte"
    );
    let mut sim = WedgieScenario.build();
    let plain = orchestrator()
        .run(&mut sim, |sim, epoch| WedgieScenario.drive(sim, epoch))
        .digest();
    assert_eq!(
        report.baseline_live_digest, plain,
        "the empty-plan baseline must be byte-identical to a plain run"
    );
    assert!(
        !report.repros.is_empty(),
        "the seeded search must discover the wedgie"
    );

    // plans/sec counts the baseline plus every candidate and shrink run —
    // each is one full orchestrator run.
    let total_runs = 1 + report.plans_tried + report.shrink_runs + report.repros.len();
    let plans_per_sec = total_runs as f64 / search_time.as_secs_f64().max(f64::EPSILON);
    let overhead = search_time.as_secs_f64()
        / (replay_time.as_secs_f64() * total_runs as f64).max(f64::EPSILON);
    println!(
        "\nfault-plan search (budget 8): {} run(s) in {:?} ({:.0} plans/s), \
         {} novel, {} repro(s), replay unit {:?}, overhead {:.2}x",
        total_runs,
        search_time,
        plans_per_sec,
        report.novel_plans,
        report.repros.len(),
        replay_time,
        overhead,
    );

    if let Ok(path) = std::env::var("DICE_BENCH_FAULT_SEARCH_JSON") {
        let json = format!(
            "{{\n  \"bench\": \"fault_search_wedgie\",\n  \"plans_tried\": {},\n  \
             \"novel_plans\": {},\n  \"shrink_runs\": {},\n  \"repros\": {},\n  \
             \"total_runs\": {},\n  \"search_ns\": {},\n  \"replay_unit_ns\": {},\n  \
             \"plans_per_sec\": {plans_per_sec:.1},\n  \"overhead\": {overhead:.4}\n}}\n",
            report.plans_tried,
            report.novel_plans,
            report.shrink_runs,
            report.repros.len(),
            total_runs,
            search_time.as_nanos(),
            replay_time.as_nanos(),
        );
        std::fs::write(&path, json).expect("write bench baseline");
        println!("wrote perf baseline to {path}");
    }
}

criterion_group!(benches, bench_fault_search);
criterion_main!(benches);

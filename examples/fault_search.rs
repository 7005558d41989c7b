//! Coverage-guided fault-plan search with automatic counterexample
//! shrinking.
//!
//! The Figure 2 topology is configured with the customer filter *missing*
//! — a quiescent run is fault-free. The example drives the scenario of the
//! fault-search test suite: the Customer announces its block at epoch 0,
//! later epochs carry unrelated Internet-side traffic, and the search
//! (restricted to partition/heal specs) explores the plan space until it
//! discovers that severing the Customer wedges the Internet node — the
//! Provider's withdrawal is never followed by a re-announcement, a BGP
//! wedgie. The triggering plan is then delta-debugged to a 1-minimal
//! repro and replayed byte-identically from its `(plan, seed)` bundle.
//!
//! Run with `cargo run --release --example fault_search`.

use dice::prelude::*;

/// The healed-partition wedgie scenario: customer block at epoch 0, then
/// steady Internet-side traffic so the fleet round clock keeps ticking
/// after any injected fault.
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

fn main() {
    let session = DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(4))
        .checker(Box::new(BgpWedgieChecker::new()))
        .build();
    let orchestrator = LiveOrchestrator::new(session);
    let plane = orchestrator.control_plane();

    let search = FaultPlanSearch::new(orchestrator)
        .with_seed(1)
        .with_budget(8)
        .with_epoch_horizon(3)
        .with_spec_kinds(SpecKindMask::only_partitions());

    let report = search.run(&WedgieScenario);
    // Sample now: each orchestrator run (including replays below)
    // republishes to the shared control plane, and only the search's own
    // publish carries the counters.
    let snapshot = plane.sample();
    print!("{report}");
    assert!(
        report.baseline_fault_keys.is_empty(),
        "the empty-plan control run must stay clean"
    );
    assert!(
        !report.repros.is_empty(),
        "expected the search to discover the wedgie"
    );

    for repro in &report.repros {
        println!("\nminimized plan (seed {}):", repro.seed());
        for spec in repro.plan.specs() {
            println!("  {spec:?}");
        }
        println!("fault: {}", repro.fault);

        let replay = search.replay(&WedgieScenario, repro);
        assert!(
            repro.matches(&replay),
            "replay must be byte-identical to the bundled digests"
        );
        println!(
            "replay: byte-identical ({} fault(s) injected)",
            replay.report.injected_faults
        );
    }

    println!(
        "\ncontrol snapshot v{}: search plans={} novel={} repros={}",
        snapshot.schema_version,
        snapshot.search.plans,
        snapshot.search.novel,
        snapshot.search.repros
    );
    assert_eq!(snapshot.search.repros, report.repros.len() as u64);
}

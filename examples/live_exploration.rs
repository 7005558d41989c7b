//! Continuous ("live") exploration: DiCE running *alongside* a simulation
//! that keeps making progress.
//!
//! This is the paper's actual operating mode — not one harvested round
//! over a frozen snapshot, but exploration rounds interleaved with live
//! execution. The example drives three epochs of traffic through the
//! Figure 2 wiring; after each epoch the `LiveOrchestrator` harvests the
//! *incremental window* of newly observed UPDATEs per node (the delivery
//! log is epoch-tagged, nothing is ever wiped) and runs one fleet round
//! over it. Faults are deduplicated across rounds: a leak re-detected
//! every round reports once, with every sighting round listed.
//!
//! The scenario also shows why continuous rounds matter: the customer
//! announces its block (installed at the provider), a mid-run round
//! explores *while it is installed* and catches that an exploratory
//! variant claiming another origin would hijack it, and then the customer
//! withdraws it — after which a single end-of-run round can no longer see
//! the fault.
//!
//! Run with `cargo run --release --example live_exploration`.

use dice::prelude::*;
use dice::router::policy::parse_filter;

fn main() {
    // 1. The Figure 2 wiring, with an attribute-gated customer import
    //    filter on the Provider: the customer's routes are accepted when
    //    the origin AS matches (or a MED escape hatch fires) and rejected
    //    otherwise — so exploratory variants of one observed announcement
    //    keep the prefix, and the MED escape hatch accepts any origin.
    let filter = parse_filter(
        r#"filter customer_in {
            if source_as = 17557 then accept;
            if med > 100 then accept;
            reject;
        }"#,
    )
    .expect("valid filter");
    let topo = figure2_topology_with_customer_filter(filter);
    let provider = topo.node_by_name("Provider").expect("Figure 2 node");
    let mut sim = Simulator::new(&topo);

    // 2. The session shared by every round: the showcase hijack checker,
    //    judging each explored route against the round's checkpoint.
    let session = || {
        DiceBuilder::new()
            .checker(Box::new(OriginHijackChecker::new()))
            .build()
    };

    // 3. Drive the simulation and explore continuously. The driver is
    //    called once per epoch to inject the next stretch of live traffic;
    //    the orchestrator quiesces the simulator, harvests the new window
    //    and runs one round over every node.
    let mid_run_prefix: Ipv4Prefix = "41.1.0.0/16".parse().expect("valid");
    let script = |sim: &mut Simulator, epoch: usize| {
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence([asn::CUSTOMER, asn::CUSTOMER]);
        attrs.next_hop = addr::CUSTOMER;
        match epoch {
            // Epoch 0: the customer announces its block; the provider
            // accepts and installs it.
            0 => {
                sim.inject(
                    provider,
                    addr::CUSTOMER,
                    BgpMessage::Update(UpdateMessage::announce(vec![mid_run_prefix], &attrs)),
                );
                true
            }
            // Epoch 1: routine re-announcement of a second block.
            1 => {
                sim.inject(
                    provider,
                    addr::CUSTOMER,
                    BgpMessage::Update(UpdateMessage::announce(
                        vec!["41.2.0.0/16".parse().expect("valid")],
                        &attrs,
                    )),
                );
                true
            }
            // Epoch 2: the customer withdraws the first block — from now
            // on no checkpoint holds it, so no later round could catch
            // its hijack. Returning false ends the run.
            _ => {
                sim.inject(
                    provider,
                    addr::CUSTOMER,
                    BgpMessage::Update(UpdateMessage::withdraw(vec![mid_run_prefix])),
                );
                false
            }
        }
    };
    let orchestrator = LiveOrchestrator::new(session()).with_max_rounds(8);
    let report = orchestrator.run(&mut sim, script);

    println!("{report}");
    for round in &report.rounds {
        println!(
            "round {} harvested the epoch window [{}, {}) -> {} run(s)",
            round.index,
            round.window.0,
            round.window.1,
            round.report.total_runs(),
        );
    }

    // 4. The mid-run round caught the temporal fault...
    let hijack = report
        .faults
        .iter()
        .find(|f| f.fault.leaked_prefix() == mid_run_prefix)
        .expect("the mid-run round catches the hijack");
    assert_eq!(hijack.fault.checker, "origin-hijack");
    assert_eq!(hijack.rounds, vec![0]);
    println!(
        "\ncaught while installed: {} (round(s) {:?})",
        hijack.fault, hijack.rounds
    );

    // ...which a single end-of-run harvest provably misses: the same
    // session over the same final state checkpoints a table the withdrawn
    // route is long gone from, so nothing is hijacked on that prefix. (The
    // second block is still installed and still flags — the *temporal*
    // fault is exactly the one the single round loses.) The live run
    // dropped each harvested window from its log, so the one-shot round
    // runs on a twin simulator driven through the same script without
    // exploration; exploration never writes live state, so the twin ends
    // where the live simulator did.
    let mut twin = Simulator::new(&topo);
    for epoch in 0.. {
        let more = script(&mut twin, epoch);
        twin.run_to_quiescence(100);
        if !more {
            break;
        }
    }
    let one_shot = FleetExplorer::new(session()).explore(&twin);
    assert!(one_shot.has_faults());
    assert!(one_shot
        .faults
        .iter()
        .all(|f| f.fault.leaked_prefix() != mid_run_prefix));
    println!(
        "a single end-of-run round over the same state misses the {mid_run_prefix} hijack — continuous rounds were required"
    );
    assert!(report.rounds.iter().all(|r| r
        .report
        .nodes
        .iter()
        .all(|n| n.report.isolation_preserved)));
}

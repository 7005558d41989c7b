//! Fleet-level exploration: DiCE beside every node of the Figure 2
//! topology.
//!
//! The paper's federated setting — a DiCE instance runs next to each node
//! of the deployment, exploring from the inputs *that node* observed. This
//! example simulates live traffic over the three-router Figure 2 testbed,
//! harvests each node's observed UPDATEs from the simulation's delivery
//! log, builds a session with two pluggable checkers through
//! `DiceBuilder`, and runs one exploration round per node, in turn, on the
//! calling thread. Faults are deduplicated fleet-wide: the
//! same leak seen from several vantage points reports once, with every
//! sighting listed.
//!
//! Run with `cargo run --release --example fleet_exploration`.

use dice::prelude::*;

fn main() {
    // 1. The Figure 2 topology with the erroneous (partially correct)
    //    customer import filter on the Provider.
    let topo = figure2_topology(CustomerFilterMode::Erroneous);
    let provider = topo.node_by_name("Provider").expect("Figure 2 node");
    let mut sim = Simulator::new(&topo);

    // 2. Live traffic. The rest of the Internet announces the victim's
    //    /22; later the customer makes a routine announcement of its own
    //    block. The simulator records every delivered UPDATE per node —
    //    the observation log DiCE harvests.
    let mut attrs = RouteAttrs::default();
    attrs.as_path = AsPath::from_sequence([asn::INTERNET, 3356, asn::VICTIM]);
    attrs.next_hop = addr::INTERNET;
    sim.inject(
        provider,
        addr::INTERNET,
        BgpMessage::Update(UpdateMessage::announce(
            vec!["208.65.152.0/22".parse().expect("valid prefix")],
            &attrs,
        )),
    );
    sim.run_to_quiescence(100);

    let mut cattrs = RouteAttrs::default();
    cattrs.as_path = AsPath::from_sequence([asn::CUSTOMER, asn::CUSTOMER]);
    cattrs.next_hop = addr::CUSTOMER;
    sim.inject(
        provider,
        addr::CUSTOMER,
        BgpMessage::Update(UpdateMessage::announce(
            vec!["41.1.0.0/16".parse().expect("valid prefix")],
            &cattrs,
        )),
    );
    sim.run_to_quiescence(100);

    for node in 0..sim.len() {
        let node = NodeId(node);
        println!(
            "node {} ({}) observed {} UPDATE(s)",
            node.0,
            sim.name(node),
            sim.observed_inputs(node).len()
        );
    }

    // 3. Build the exploration session: engine budget and a
    //    checker registry — the origin-hijack checker of §4.2 plus the
    //    forwarding-loop checker, both applied to every explored outcome.
    let session = DiceBuilder::new()
        .engine(dice::symexec::EngineConfig::default().with_max_runs(64))
        .checker(Box::new(OriginHijackChecker::new()))
        .checker(Box::new(ForwardingLoopChecker::new()))
        .build();

    // 4. One exploration round beside every node, each from a copy-on-write
    //    checkpoint of that node's router.
    let report = FleetExplorer::new(session).explore(&sim);
    println!("\n{report}");

    // 5. The provider's misconfiguration is detected fleet-wide before any
    //    hijack happens, and no node's live state was touched.
    assert!(report.has_faults(), "the erroneous filter must be detected");
    assert!(
        report.faults.iter().any(|f| f.nodes.contains(&provider)),
        "the fault is attributed to the Provider's exploration"
    );
    assert!(report.nodes.iter().all(|n| n.report.isolation_preserved));
    println!(
        "fleet exploration complete: {} sighting(s) merged into {} distinct fault(s)",
        report.total_sightings(),
        report.faults.len()
    );
}

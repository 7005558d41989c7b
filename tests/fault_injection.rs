//! End-to-end tests for deterministic fault injection as an exploration
//! dimension.
//!
//! The claim under test is the tentpole one: exploration under an injected
//! [`FaultPlan`] finds faults that quiescent-network exploration is
//! *structurally unable* to find. The scenario is a BGP session reset
//! between the Provider and its Customer scheduled mid-run: the reset
//! withdraws the customer block fleet-wide, the next live epoch re-announces
//! it, and the [`CrossRoundFlapChecker`] — running through the
//! [`LiveOrchestrator`]'s cross-round [`FaultChecker::live_fold`] pass —
//! stitches the announce→withdraw→announce timeline no single round can
//! see. The identical run without the plan never observes the withdraw, so
//! the same checker provably stays silent.

use dice::prelude::*;
use std::net::Ipv4Addr;

fn announcement(prefix: &str, path: &[u32], next_hop: Ipv4Addr) -> BgpMessage {
    let mut attrs = RouteAttrs::default();
    attrs.as_path = AsPath::from_sequence(path.iter().copied());
    attrs.next_hop = next_hop;
    BgpMessage::Update(UpdateMessage::announce(
        vec![prefix.parse().expect("valid")],
        &attrs,
    ))
}

/// Runs the flap scenario: the customer announces its block at epoch 0,
/// epoch 1 carries no live traffic, and epoch 2 re-announces the same
/// block. With the session-reset plan, epoch 1 starts by resetting the
/// Provider↔Customer session, which withdraws the block everywhere.
fn run_flap_scenario(plan: Option<FaultPlan>) -> LiveReport {
    let topo = figure2_topology(CustomerFilterMode::Correct);
    let provider = topo.node_by_name("Provider").expect("node");
    let mut sim = Simulator::new(&topo);

    let session = DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(8))
        .checker(Box::new(CrossRoundFlapChecker::new()))
        .build();
    let mut orchestrator = LiveOrchestrator::new(session);
    if let Some(plan) = plan {
        orchestrator = orchestrator.with_fault_plan(plan);
    }
    orchestrator.run(&mut sim, |sim, epoch| {
        if epoch != 1 {
            sim.inject(
                provider,
                addr::CUSTOMER,
                announcement(
                    "41.1.0.0/16",
                    &[asn::CUSTOMER, asn::CUSTOMER],
                    addr::CUSTOMER,
                ),
            );
        }
        epoch < 2
    })
}

fn reset_plan() -> FaultPlan {
    let topo = figure2_topology(CustomerFilterMode::Correct);
    let provider = topo.node_by_name("Provider").expect("node");
    let customer = topo.node_by_name("Customer").expect("node");
    FaultPlan::new(7).with_spec(FaultSpec::SessionReset {
        a: provider,
        b: customer,
        epoch: 1,
    })
}

#[test]
fn injected_session_reset_surfaces_a_flap_the_quiescent_run_provably_misses() {
    // With the plan: the reset's withdraw makes epoch 1 a real round, so
    // the Internet node's timeline reads announce, withdraw, announce —
    // two direction changes, and the temporal pass fires.
    let faulty = run_flap_scenario(Some(reset_plan()));
    let flap = faulty
        .faults
        .iter()
        .find(|f| f.fault.checker == "cross-round-flap")
        .unwrap_or_else(|| panic!("cross-round flap must be flagged:\n{faulty}"));
    assert_eq!(flap.fault.leaked_prefix().to_string(), "41.1.0.0/16");
    let topo = figure2_topology(CustomerFilterMode::Correct);
    let internet = topo.node_by_name("RestOfInternet").expect("node");
    assert_eq!(
        flap.nodes,
        vec![internet],
        "the flap is seen at the vantage"
    );
    assert_eq!(faulty.rounds.len(), 3, "the withdraw epoch became a round");
    assert!(faulty.injected_faults >= 1, "the reset was recorded");
    assert!(faulty.digest().contains("live-fault:cross-round flap"));
    assert!(faulty.digest().contains("injected-faults:"));
    assert!(faulty.to_string().contains("fault plan:"));

    // Identical run, no plan: epoch 1 observes nothing, no round executes,
    // every timeline is monotone — the same checker cannot fire. The gap
    // is structural, not a tuning artifact.
    let quiescent = run_flap_scenario(None);
    assert_eq!(quiescent.rounds.len(), 2, "the quiet epoch runs no round");
    assert!(
        !quiescent.has_faults(),
        "quiescent exploration cannot see the flap:\n{quiescent}"
    );
    assert_eq!(quiescent.injected_faults, 0);
    assert!(!quiescent.digest().contains("injected-faults"));
}

#[test]
fn an_empty_fault_plan_is_byte_identical_to_no_plan_at_all() {
    // The equivalence anchor: installing an empty plan (seed and all)
    // must not perturb a single byte of the live report digest.
    let without = run_flap_scenario(None);
    let with_empty = run_flap_scenario(Some(FaultPlan::default()));
    assert_eq!(with_empty.digest(), without.digest());
    let with_seeded_empty = run_flap_scenario(Some(FaultPlan::new(0xDEAD_BEEF)));
    assert_eq!(with_seeded_empty.digest(), without.digest());
}

#[test]
fn faulty_runs_replay_byte_for_byte_from_plan_and_seed() {
    let first = run_flap_scenario(Some(reset_plan()));
    let second = run_flap_scenario(Some(reset_plan()));
    assert_eq!(first.digest(), second.digest());
    assert_eq!(first.injected_faults, second.injected_faults);
}

#[test]
fn link_flap_plan_loses_epoch_traffic_and_is_counted_in_round_reports() {
    // A link flap between Provider and the Internet spanning epoch 1: the
    // announcement injected during the outage never reaches the Internet
    // node, and the round's FleetReport carries the injected-fault count.
    // Customer filtering is Missing so the provider re-advertises any
    // block — the epoch-1 update genuinely heads for the downed link.
    let topo = figure2_topology(CustomerFilterMode::Missing);
    let provider = topo.node_by_name("Provider").expect("node");
    let internet = topo.node_by_name("RestOfInternet").expect("node");
    let plan = FaultPlan::new(3).with_spec(FaultSpec::LinkFlap {
        a: provider,
        b: internet,
        down_epoch: 1,
        up_epoch: 2,
    });

    let mut sim = Simulator::new(&topo);
    let session = DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(8))
        .build();
    let live = LiveOrchestrator::new(session)
        .with_fault_plan(plan)
        .run(&mut sim, |sim, epoch| {
            let block = if epoch == 0 {
                "41.1.0.0/16"
            } else {
                "41.64.0.0/12"
            };
            sim.inject(
                provider,
                addr::CUSTOMER,
                announcement(block, &[asn::CUSTOMER, asn::CUSTOMER], addr::CUSTOMER),
            );
            epoch < 1
        });

    // Epoch 1's re-advertisement toward the Internet was dropped on the
    // downed link: the Internet node observed only the epoch-0 block.
    let internet_observed: Vec<_> = live
        .rounds
        .iter()
        .flat_map(|r| r.report.nodes.iter())
        .filter(|n| n.node == internet)
        .map(|n| n.report.observed_inputs)
        .collect();
    assert_eq!(internet_observed, vec![1, 0], "the outage ate the update");
    assert!(live.injected_faults >= 2, "link-down, link-up and the drop");
    let last = live.rounds.last().expect("rounds ran");
    assert!(last.report.injected_faults >= 2);
    assert!(last.report.digest().contains("injected-faults:"));
    assert!(last.report.to_string().contains("fault plan:"));
}

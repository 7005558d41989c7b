//! One control matrix for the shipped fault checkers.
//!
//! All seven checkers are registered together and explore the Figure 2
//! network fleet-wide through a live run, so the per-event checkers judge
//! every round and the cross-round checkers every observed window. DiCE
//! is meant to be left switched on beside a live router:
//!
//! * *negative rows* — correctly configured networks — must report
//!   nothing, and the Erroneous filter exactly its one hijack;
//! * *positive rows* give each checker one scenario where it fires, and
//!   pin the exact fault set, so a checker that over-fires fails here as
//!   much as one that stays silent.
//!
//! Fault sets must not depend on the worker count: CI also runs this file
//! on one core.

use dice::prelude::*;
use dice::router::policy::parse_filter;
use std::net::Ipv4Addr;

/// Every shipped checker, `RouteLeakChecker` classified from the
/// Provider's seat as `examples/route_leak_detection.rs` does.
fn all_checkers() -> DiceSession {
    DiceBuilder::new()
        .checker(Box::new(OriginHijackChecker::new()))
        .checker(Box::new(ForwardingLoopChecker::new()))
        .checker(Box::new(
            RouteLeakChecker::new()
                .with_customer(asn::CUSTOMER)
                .with_peer(asn::INTERNET),
        ))
        .checker(Box::new(MoreSpecificHijackChecker::new()))
        .checker(Box::new(BlackholeChecker::new()))
        .checker(Box::new(CrossRoundFlapChecker::new()))
        .checker(Box::new(BgpWedgieChecker::new()))
        .build()
}

fn announcement(prefix: &str, path: &[u32], next_hop: Ipv4Addr) -> BgpMessage {
    let mut attrs = RouteAttrs::default();
    attrs.as_path = AsPath::from_sequence(path.iter().copied());
    attrs.next_hop = next_hop;
    BgpMessage::Update(UpdateMessage::announce(
        vec![prefix.parse().expect("valid")],
        &attrs,
    ))
}

/// The victim's /22, as the rest of the Internet announces it.
fn victim() -> (Ipv4Addr, BgpMessage) {
    (
        addr::INTERNET,
        announcement(
            "208.65.152.0/22",
            &[asn::INTERNET, 3356, asn::VICTIM],
            addr::INTERNET,
        ),
    )
}

/// A customer announcement of `prefix` along `path`, via `next_hop`.
fn customer(prefix: &str, path: &[u32], next_hop: Ipv4Addr) -> (Ipv4Addr, BgpMessage) {
    (addr::CUSTOMER, announcement(prefix, path, next_hop))
}

/// The customer's routine announcement of its own block.
fn routine() -> (Ipv4Addr, BgpMessage) {
    customer(
        "41.1.0.0/16",
        &[asn::CUSTOMER, asn::CUSTOMER],
        addr::CUSTOMER,
    )
}

/// A live run of all seven checkers over `topology`: each epoch injects
/// its messages at the Provider, then one fleet round explores the window.
/// Returns every fault as `rendering nodes=[..] rounds=[..]`.
fn run(topology: &Topology, epochs: &[Vec<(Ipv4Addr, BgpMessage)>]) -> Vec<String> {
    let provider = topology.node_by_name("Provider").expect("node");
    let mut sim = Simulator::new(topology);
    let live = LiveOrchestrator::new(all_checkers()).run(&mut sim, |sim, epoch| {
        for (peer, msg) in &epochs[epoch] {
            sim.inject(provider, *peer, msg.clone());
        }
        epoch + 1 < epochs.len()
    });
    assert_eq!(live.rounds.len(), epochs.len());
    rendered(&live)
}

fn rendered(live: &LiveReport) -> Vec<String> {
    live.faults
        .iter()
        .map(|f| {
            let nodes: Vec<usize> = f.nodes.iter().map(|n| n.0).collect();
            format!("{} nodes={nodes:?} rounds={:?}", f.fault, f.rounds)
        })
        .collect()
}

/// The control script: the victim's /22, then the customer's routine /16.
fn control(topology: &Topology) -> Vec<String> {
    run(topology, &[vec![victim()], vec![routine()]])
}

fn probe_filter(net_arm: &str) -> Topology {
    let filter = parse_filter(&format!(
        "filter customer_in {{
            if community ~ (17557, 666) then reject;
            if {net_arm} then accept;
            reject;
        }}"
    ))
    .expect("valid filter");
    figure2_topology_with_customer_filter(filter)
}

#[test]
fn a_correct_filter_is_silent() {
    let faults = control(&figure2_topology(CustomerFilterMode::Correct));
    assert!(faults.is_empty(), "{faults:#?}");
}

#[test]
fn the_probe_filters_are_silent() {
    for net_arm in [
        "net ~ [ 41.0.0.0/12{12,24} ]",
        "net ~ [ 41.0.0.0/12{12,24} ] && med < 1000",
        "net ~ [ 41.0.0.0/12{12,24} ] && path_len < 10",
    ] {
        let faults = control(&probe_filter(net_arm));
        assert!(faults.is_empty(), "{net_arm}: {faults:#?}");
    }
}

/// A missing filter is not found yet: with no filter, no branch reads the
/// prefix, so nothing is negated.
#[test]
fn a_missing_filter_is_silent() {
    let faults = control(&figure2_topology(CustomerFilterMode::Missing));
    assert!(faults.is_empty(), "{faults:#?}");
}

#[test]
fn an_erroneous_filter_reports_exactly_its_hijack() {
    let faults = control(&figure2_topology(CustomerFilterMode::Erroneous));
    assert_eq!(
        faults,
        ["potential hijack: 208.65.152.0/22 claimed by AS17557 would override 208.65.152.0/22 originated by AS36561 [origin-hijack @ node 1] nodes=[1] rounds=[1]"]
    );
}

#[test]
fn a_self_covering_announcement_is_a_forwarding_loop() {
    let faults = run(
        &figure2_topology(CustomerFilterMode::Missing),
        &[vec![customer(
            "10.0.0.0/8",
            &[asn::CUSTOMER, asn::CUSTOMER],
            addr::CUSTOMER,
        )]],
    );
    // The Provider resolves 10.0.1.1 through the /8, and so does the
    // Internet side, where the Provider re-advertises it via 10.0.0.2.
    assert_eq!(
        faults,
        [
            "forwarding loop: 10.0.0.0/8 covers its own next hop 10.0.1.1 [forwarding-loop @ node 1] nodes=[1] rounds=[0]",
            "forwarding loop: 10.0.0.0/8 covers its own next hop 10.0.0.2 [forwarding-loop @ node 2] nodes=[2] rounds=[0]",
        ]
    );
}

#[test]
fn a_customer_route_through_the_peer_is_a_route_leak() {
    let faults = run(
        &figure2_topology(CustomerFilterMode::Missing),
        &[vec![customer(
            "41.5.0.0/16",
            &[asn::CUSTOMER, asn::INTERNET, 64_500],
            addr::CUSTOMER,
        )]],
    );
    assert_eq!(
        faults,
        ["route leak: 41.5.0.0/16 learned from customer AS17557 transited peer/provider AS1299 (valley-free violation) [route-leak @ node 1] nodes=[1] rounds=[0]"]
    );
}

/// A stale filter entry admits more-specifics of the victim's block: the
/// customer re-announces the /22 itself under the victim's own origin,
/// which the filter rejects, but an explored /23 or /24 is accepted and
/// would divert the victim's traffic through the customer.
#[test]
fn a_spoofed_origin_more_specific_is_a_more_specific_hijack() {
    let filter = parse_filter(
        r#"filter customer_in {
            if net ~ [ 41.0.0.0/12{12,24} ] then accept;
            if net ~ [ 208.65.152.0/22{23,24} ] then accept;
            reject;
        }"#,
    )
    .expect("valid filter");
    let faults = run(
        &figure2_topology_with_customer_filter(filter),
        &[
            vec![victim()],
            vec![customer(
                "208.65.152.0/22",
                &[asn::CUSTOMER, asn::VICTIM],
                addr::CUSTOMER,
            )],
        ],
    );
    assert_eq!(
        faults,
        ["more-specific hijack: 208.65.152.0/23 spoofs origin AS36561 of installed 208.65.152.0/22 via a different neighbor [more-specific-hijack @ node 1] nodes=[1] rounds=[1]"]
    );
}

#[test]
fn a_third_party_next_hop_is_a_blackhole() {
    let faults = run(
        &figure2_topology(CustomerFilterMode::Correct),
        &[
            vec![victim()],
            vec![customer(
                "41.1.0.0/16",
                &[asn::CUSTOMER, asn::CUSTOMER],
                Ipv4Addr::new(192, 0, 2, 1),
            )],
        ],
    );
    // Only the Provider holds the third-party next hop: it re-advertises
    // the route via its own address, which the Internet side peers with.
    assert_eq!(
        faults,
        ["blackhole: 41.1.0.0/16 has unresolvable next hop 192.0.2.1 [blackhole @ node 1] nodes=[1] rounds=[1]"]
    );
}

/// One Internet-side block per epoch, so every epoch executes a round and
/// the fleet round clock keeps ticking.
fn internet_block(epoch: usize) -> (Ipv4Addr, BgpMessage) {
    let block = format!("198.{}.{}.0/24", 51 + epoch / 200, epoch % 200);
    (
        addr::INTERNET,
        announcement(&block, &[asn::INTERNET, 3356], addr::INTERNET),
    )
}

/// The 40-round partition script of the long live-run golden test: the
/// Customer announces two blocks, a partition cuts it off at epoch 2 and
/// heals at epoch 4, and only 41.1.0.0/16 is re-announced (epoch 10).
#[test]
fn a_partition_that_heals_flaps_one_block_and_wedges_the_other() {
    let plan = FaultPlan::new(11)
        .with_spec(FaultSpec::Partition {
            nodes: vec![NodeId(0)],
            epoch: 2,
        })
        .with_spec(FaultSpec::Heal {
            nodes: vec![NodeId(0)],
            epoch: 4,
        });
    let topology = figure2_topology(CustomerFilterMode::Missing);
    let provider = topology.node_by_name("Provider").expect("node");
    let mut sim = Simulator::new(&topology);
    let live = LiveOrchestrator::new(all_checkers())
        .with_fault_plan(plan)
        .with_max_rounds(40)
        .run(&mut sim, |sim, epoch| {
            let mut inject = |(peer, msg): (Ipv4Addr, BgpMessage)| sim.inject(provider, peer, msg);
            if epoch == 0 || epoch == 10 {
                inject(routine());
            }
            if epoch == 0 {
                inject(customer(
                    "100.64.0.0/16",
                    &[asn::CUSTOMER, asn::CUSTOMER],
                    addr::CUSTOMER,
                ));
            }
            inject(internet_block(epoch));
            true
        });
    assert_eq!(live.rounds.len(), 40);
    // The Internet side sees 41.1 withdrawn by the partition and stay
    // gone (a wedgie) until its re-announcement makes it flap; 100.64
    // stays wedged. Both stop being re-sighted once their first
    // announcement leaves the 64-entry window (round 31).
    let rounds =
        |range: std::ops::RangeInclusive<usize>| format!("{:?}", range.collect::<Vec<_>>());
    assert_eq!(
        rendered(&live),
        [
            format!("bgp wedgie: 41.1.0.0/16 withdrawn after a fault and never re-announced in steady state [bgp-wedgie @ node 2] nodes=[2] rounds={}", rounds(3..=9)),
            format!("bgp wedgie: 100.64.0.0/16 withdrawn after a fault and never re-announced in steady state [bgp-wedgie @ node 2] nodes=[2] rounds={}", rounds(3..=31)),
            format!("cross-round flap: 41.1.0.0/16 alternates between announce and withdraw across live rounds [cross-round-flap @ node 2] nodes=[2] rounds={}", rounds(10..=31)),
        ]
    );
}

//! End-to-end integration tests spanning every crate: the Figure 2
//! topology, live simulation, DiCE exploration, fault detection and
//! isolation.

use dice::prelude::*;

/// Builds the Provider router with the victim /22 installed and returns it
/// together with the customer peer id and the observed customer update.
fn provider_scenario(mode: CustomerFilterMode) -> (BgpRouter, PeerId, UpdateMessage) {
    let topo = figure2_topology(mode);
    let provider = topo.node_by_name("Provider").expect("node");
    let mut router = BgpRouter::new(topo.nodes()[provider.0].config.clone());
    router.start();

    let internet = router.peer_by_address(addr::INTERNET).expect("peer");
    let mut attrs = RouteAttrs::default();
    attrs.as_path = AsPath::from_sequence([asn::INTERNET, 3356, asn::VICTIM]);
    router.handle_update(
        internet,
        &UpdateMessage::announce(vec!["208.65.152.0/22".parse().expect("valid")], &attrs),
    );

    let customer = router.peer_by_address(addr::CUSTOMER).expect("peer");
    let mut cattrs = RouteAttrs::default();
    cattrs.as_path = AsPath::from_sequence([asn::CUSTOMER, asn::CUSTOMER]);
    let observed = UpdateMessage::announce(vec!["41.1.0.0/16".parse().expect("valid")], &cattrs);
    (router, customer, observed)
}

#[test]
fn dice_detects_leak_that_the_live_network_would_suffer() {
    // Live network check: with the erroneous filter the hijack spreads.
    let topo = figure2_topology(CustomerFilterMode::Erroneous);
    let mut sim = Simulator::new(&topo);
    let provider = topo.node_by_name("Provider").expect("node");
    let internet_node = topo.node_by_name("RestOfInternet").expect("node");
    let mut cattrs = RouteAttrs::default();
    cattrs.as_path = AsPath::from_sequence([asn::CUSTOMER]);
    sim.inject(
        provider,
        addr::CUSTOMER,
        BgpMessage::Update(UpdateMessage::announce(
            vec!["208.65.153.0/24".parse().expect("valid")],
            &cattrs,
        )),
    );
    sim.run_to_quiescence(100);
    assert!(
        sim.router(internet_node)
            .rib()
            .best_route(&"208.65.153.0/24".parse().expect("valid"))
            .is_some(),
        "the erroneous filter lets the hijack reach the rest of the Internet"
    );

    // DiCE check: exploration of a *benign* observed update predicts the
    // same class of leak before it happens.
    let (router, customer, observed) = provider_scenario(CustomerFilterMode::Erroneous);
    let report = DiceSession::default().explore(&router, &[(customer, observed)]);
    assert!(report.has_faults());
    assert!(report
        .leaked_prefixes()
        .iter()
        .any(|p| p.overlaps(&"208.65.152.0/22".parse().expect("valid"))));
}

#[test]
fn correct_configuration_passes_online_testing() {
    let (router, customer, observed) = provider_scenario(CustomerFilterMode::Correct);
    let report = DiceSession::default().explore(&router, &[(customer, observed)]);
    assert!(!report.has_faults());
    assert!(
        report.branch_sites > 0,
        "the correct filter's branches were still explored"
    );
    assert!(
        report.runs > 1,
        "exploratory inputs beyond the seed were executed"
    );
}

#[test]
fn exploration_is_isolated_from_the_live_router() {
    let (router, customer, observed) = provider_scenario(CustomerFilterMode::Erroneous);
    let rib_before = router.rib().prefix_count();
    let routes_before = router.rib().route_count();
    let stats_before = *router.stats();

    let report = DiceSession::default().explore(&router, &[(customer, observed)]);

    assert!(report.isolation_preserved);
    assert_eq!(router.rib().prefix_count(), rib_before);
    assert_eq!(router.rib().route_count(), routes_before);
    assert_eq!(*router.stats(), stats_before);
    assert!(
        report.intercepted_messages > 0,
        "exploratory messages were captured, not sent"
    );
}

#[test]
fn checkpoint_of_loaded_router_shares_memory_with_live_process() {
    // §4.1 asks how much of the node a checkpoint duplicates. Here the
    // checkpoint is a copy-on-write fork of the router: the live router's
    // first write copies the RIB's one unit (its counters and chunk
    // directory), and each write copies only the 128-prefix chunk it lands
    // in, so the two still share every chunk neither side has written
    // (`rib.rs`'s `first_write_after_a_fork_copies_one_chunk` counts the
    // chunks).
    let (mut router, _, _) = provider_scenario(CustomerFilterMode::Erroneous);
    let trace = generate_trace(
        &TraceGenConfig {
            prefix_count: 3_000,
            update_count: 200,
            ..Default::default()
        },
        asn::INTERNET,
        addr::INTERNET,
    );
    Replayer::new(&trace, addr::INTERNET).load_table(&mut router);

    let checkpoint = RoundCheckpoint::capture(&router);
    let stats = checkpoint.cow_stats_vs(&router);
    assert_eq!(stats.shared_fraction(), 1.0, "a fresh fork copies nothing");

    // Live processing of the incremental trace copies only what it writes.
    let before = checkpoint.rib().prefix_count();
    let peer = router.peer_by_address(addr::INTERNET).expect("peer");
    for event in &trace.updates {
        router.handle_update(peer, &event.update);
    }
    let stats = checkpoint.cow_stats_vs(&router);
    assert_eq!(
        (stats.units_copied(), stats.units_total),
        (1, 1),
        "the replay wrote to the table: {stats}"
    );
    assert_eq!(
        checkpoint.rib().prefix_count(),
        before,
        "the fork is frozen"
    );
}

#[test]
fn full_table_load_and_replay_keep_router_consistent() {
    let (mut router, _, _) = provider_scenario(CustomerFilterMode::Correct);
    let trace = generate_trace(
        &TraceGenConfig {
            prefix_count: 2_000,
            update_count: 500,
            withdrawal_percent: 20,
            ..Default::default()
        },
        asn::INTERNET,
        addr::INTERNET,
    );
    let replayer = Replayer::new(&trace, addr::INTERNET);
    let load = replayer.load_table(&mut router);
    assert_eq!(load.rib_prefixes, router.rib().prefix_count());
    let replay = replayer.replay_updates(&mut router, |_| {});
    assert_eq!(replay.updates_fed, 500);
    // Every Loc-RIB entry still has a best route and a consistent origin.
    for (prefix, route) in router.rib().loc_rib() {
        assert_eq!(route.prefix, prefix);
        assert!(route.origin_as().is_some());
    }
}

#[test]
fn dice_report_is_reproducible_for_the_same_inputs() {
    let (router, customer, observed) = provider_scenario(CustomerFilterMode::Erroneous);
    let session = DiceSession::default();
    let inputs = [(customer, observed)];
    let a = session.explore(&router, &inputs);
    let b = session.explore(&router, &inputs);
    assert_eq!(a.runs, b.runs);
    assert_eq!(a.distinct_paths, b.distinct_paths);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.leaked_prefixes(), b.leaked_prefixes());
}

/// The federated setting end to end through the umbrella crate: live
/// simulation over Figure 2, per-node input harvesting, one exploration
/// round beside every node through a two-checker session, fleet-wide
/// deduplication — with the single-node path asserted byte-identical to
/// a plain `DiceSession::explore`.
#[test]
fn fleet_exploration_detects_the_leak_from_harvested_inputs() {
    let topo = figure2_topology(CustomerFilterMode::Erroneous);
    let provider = topo.node_by_name("Provider").expect("node");
    let mut sim = Simulator::new(&topo);

    // Live traffic: the Internet announces the victim prefix, then the
    // customer makes its routine announcement.
    let mut attrs = RouteAttrs::default();
    attrs.as_path = AsPath::from_sequence([asn::INTERNET, 3356, 36561]);
    attrs.next_hop = addr::INTERNET;
    sim.inject(
        provider,
        addr::INTERNET,
        BgpMessage::Update(UpdateMessage::announce(
            vec!["208.65.152.0/22".parse().expect("valid")],
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
            vec!["41.1.0.0/16".parse().expect("valid")],
            &cattrs,
        )),
    );
    sim.run_to_quiescence(100);

    let session = DiceBuilder::new()
        .checker(Box::new(OriginHijackChecker::new()))
        .checker(Box::new(ForwardingLoopChecker::new()))
        .build();
    assert_eq!(
        session.checker_names(),
        ["origin-hijack", "forwarding-loop"]
    );
    let fleet = FleetExplorer::new(session).explore(&sim);

    assert_eq!(fleet.nodes.len(), 3, "every Figure 2 node explored");
    assert!(
        fleet.has_faults(),
        "the provider leak is detected:\n{fleet}"
    );
    assert!(fleet
        .faults
        .iter()
        .any(|f| f.fault.checker == "origin-hijack" && f.nodes.contains(&provider)));
    assert!(fleet.nodes.iter().all(|n| n.report.isolation_preserved));

    // The single-node fleet path is byte-identical to a plain session
    // round over the same harvested inputs.
    let (single, _) = FleetExplorer::default()
        .explore_windows_collecting(&sim, vec![(provider, sim.observed_inputs(provider))]);
    let direct =
        DiceSession::default().explore(sim.router(provider), &sim.observed_inputs(provider));
    assert_eq!(single.nodes[0].report.digest(), direct.digest());
}

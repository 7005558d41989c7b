//! End-to-end tests of continuous ("live") exploration: the
//! `LiveOrchestrator` interleaving simulation progress with exploration
//! rounds, its equivalence anchor against `FleetExplorer`, and the faults
//! only continuous rounds can catch — a hijack of a route that was
//! installed only mid-run.

use dice::bgp::Asn;
use dice::prelude::*;
use dice::router::policy::parse_filter;
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

fn hijack_session() -> DiceSession {
    DiceBuilder::new()
        .checker(Box::new(OriginHijackChecker::new()))
        .build()
}

/// The acceptance anchor: a single-round live run over a quiesced
/// simulator is byte-identical (per report digest) to `FleetExplorer`
/// over the same inputs — the orchestrator adds scheduling, never
/// different results.
#[test]
fn single_round_live_run_matches_fleet_exploration_byte_for_byte() {
    let topo = figure2_topology(CustomerFilterMode::Erroneous);
    let provider = topo.node_by_name("Provider").expect("node");
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
    sim.inject(
        provider,
        addr::CUSTOMER,
        announcement(
            "41.1.0.0/16",
            &[asn::CUSTOMER, asn::CUSTOMER],
            addr::CUSTOMER,
        ),
    );
    sim.run_to_quiescence(100);

    let session = hijack_session();
    let fleet = FleetExplorer::new(session.clone()).explore(&sim);
    let live = LiveOrchestrator::new(session).run(&mut sim, |_, _| false);

    assert_eq!(live.rounds.len(), 1);
    assert_eq!(live.rounds[0].report.digest(), fleet.digest());
    assert!(live.has_faults(), "the provider leak is detected:\n{live}");
    assert_eq!(live.faults.len(), fleet.faults.len());
    for (lf, ff) in live.faults.iter().zip(&fleet.faults) {
        assert_eq!(lf.fault, ff.fault);
        assert_eq!(lf.nodes, ff.nodes);
        assert_eq!(lf.rounds, vec![0]);
    }
}

/// The temporal-fault acceptance test: live traffic installs a route,
/// exploration runs a round *while it is installed*, then the route is
/// withdrawn. The mid-run round checkpoints a table holding the customer's
/// route, so an exploratory variant claiming another origin for the same
/// prefix is a hijack of it; a single harvested round over the final
/// state — where the route is long gone — has nothing to hijack.
#[test]
fn a_mid_run_round_flags_a_hijack_of_a_route_installed_only_mid_run() {
    // A customer import filter gated on attributes only: exploratory
    // variants keep the announced prefix, and the MED escape hatch accepts
    // them under any origin AS.
    let filter = parse_filter(
        r#"filter customer_in {
            if source_as = 17557 then accept;
            if med > 100 then accept;
            reject;
        }"#,
    )
    .expect("valid filter");
    let topo = figure2_topology_with_customer_filter(filter);
    let provider = topo.node_by_name("Provider").expect("node");
    let mut sim = Simulator::new(&topo);

    let mid_run_prefix: Ipv4Prefix = "41.1.0.0/16".parse().expect("valid");
    let script = |sim: &mut Simulator, epoch: usize| {
        match epoch {
            // Epoch 0: the customer announces its block; the filter
            // accepts it and the provider installs it.
            0 => {
                sim.inject(
                    provider,
                    addr::CUSTOMER,
                    announcement(
                        "41.1.0.0/16",
                        &[asn::CUSTOMER, asn::CUSTOMER],
                        addr::CUSTOMER,
                    ),
                );
                true
            }
            // Epoch 1: the customer withdraws it again — by the end of the
            // run the provider's table no longer holds the route.
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
    let live = LiveOrchestrator::new(hijack_session()).run(&mut sim, script);

    // The route is gone from the live table...
    assert!(sim
        .router(provider)
        .rib()
        .best_route(&mid_run_prefix)
        .is_none());
    // ...but the round that ran while it was installed flagged the hijack.
    assert_eq!(live.faults.len(), 1, "exactly the mid-run hijack:\n{live}");
    let hijack = &live.faults[0];
    assert_eq!(
        hijack.fault.kind,
        FaultKind::PotentialHijack {
            announced: mid_run_prefix,
            claimed_origin: Asn(17_558),
            existing_prefix: mid_run_prefix,
            existing_origin: Asn(asn::CUSTOMER),
        }
    );
    assert_eq!(hijack.rounds, vec![0], "caught by the mid-run round");
    assert_eq!(hijack.nodes, vec![provider]);

    // A single harvested round over the same final state explores the
    // same observed inputs but checkpoints a table without the route: no
    // installed route covers the prefix, so nothing is hijacked. The live
    // run compacted its log, so the round runs on a twin driven through
    // the same script without exploration; exploration never writes live
    // state, so the twin ends where the live simulator did.
    let mut twin = Simulator::new(&topo);
    for epoch in 0.. {
        let more = script(&mut twin, epoch);
        twin.run_to_quiescence(100);
        if !more {
            break;
        }
    }
    for node in (0..sim.len()).map(NodeId) {
        let table = |sim: &Simulator| -> Vec<_> {
            sim.router(node)
                .rib()
                .loc_rib()
                .map(|(p, r)| (p, r.clone()))
                .collect()
        };
        assert_eq!(table(&twin), table(&sim), "the twin ends in the live state");
    }
    let one_shot = FleetExplorer::new(hijack_session()).explore(&twin);
    assert!(
        one_shot.faults.is_empty(),
        "a single end-of-run round cannot see the temporal fault:\n{one_shot}"
    );
    // Not because nothing was explored: the announcement is still in the
    // twin's log and still harvested.
    assert!(one_shot.node(provider).expect("provider explored").runs > 0);

    // The live run's digest is stable across identical reruns.
    let mut sim2 = Simulator::new(&topo);
    let rerun = LiveOrchestrator::new(hijack_session()).run(&mut sim2, script);
    assert_eq!(rerun.digest(), live.digest());
}

/// One scripted live run for the copy-on-write tests: customer and
/// upstream traffic (so some windows write some nodes' tables and leave
/// others alone), a re-announcement, an effective and a no-op withdrawal,
/// and a quiet epoch that executes no round and so leaves its window open.
fn scripted_epoch(sim: &mut Simulator, provider: NodeId, epoch: usize) -> bool {
    let customer =
        |prefix: &str| announcement(prefix, &[asn::CUSTOMER, asn::CUSTOMER], addr::CUSTOMER);
    let withdraw = |prefix: &str| {
        BgpMessage::Update(UpdateMessage::withdraw(vec![prefix
            .parse()
            .expect("valid")]))
    };
    match epoch {
        0 => {
            sim.inject(
                provider,
                addr::INTERNET,
                announcement(
                    "208.65.152.0/22",
                    &[asn::INTERNET, 3356, asn::VICTIM],
                    addr::INTERNET,
                ),
            );
            sim.inject(provider, addr::CUSTOMER, customer("41.1.0.0/16"));
        }
        1 => sim.inject(provider, addr::CUSTOMER, customer("41.64.0.0/12")),
        2 => {}
        3 => sim.inject(provider, addr::CUSTOMER, customer("41.1.0.0/16")),
        4 => sim.inject(provider, addr::CUSTOMER, withdraw("41.64.0.0/12")),
        5 => sim.inject(provider, addr::CUSTOMER, withdraw("41.99.0.0/16")),
        _ => sim.inject(provider, addr::CUSTOMER, customer("200.1.0.0/16")),
    }
    epoch < 6
}

/// The structural regression test for "a fork outlives a write": whenever
/// the driver is about to write, no node's RIB is shared with any clone
/// of it — whatever exploration forked has been released.
#[test]
fn no_fork_is_alive_when_the_driver_writes() {
    let topo = figure2_topology(CustomerFilterMode::Erroneous);
    let provider = topo.node_by_name("Provider").expect("node");
    let mut sim = Simulator::new(&topo);
    let shared_tables = |sim: &Simulator| -> Vec<bool> {
        (0..sim.len())
            .map(|n| sim.router(NodeId(n)).rib().has_a_fork())
            .collect()
    };

    let mut epochs = 0;
    let live = LiveOrchestrator::new(hijack_session()).run(&mut sim, |sim, epoch| {
        assert!(
            !shared_tables(sim).contains(&true),
            "epoch {epoch}: a fork is alive across drive: {:?}",
            shared_tables(sim)
        );
        epochs += 1;
        scripted_epoch(sim, provider, epoch)
    });
    assert_eq!(epochs, 7);
    assert_eq!(live.rounds.len(), 6, "the quiet epoch runs no round");
    assert!(live.has_faults());
    assert!(!shared_tables(&sim).contains(&true));

    // The probe does see a fork when there is one.
    let held = RoundCheckpoint::capture(sim.router(provider));
    let rib = sim.router(provider).rib();
    assert!(rib.has_a_fork());
    drop(held);
}

/// The cow line of the control snapshot is computed from table write
/// generations, with no fork held. This runs the same scripted epochs a
/// second time with the test itself holding a checkpoint per node across
/// every window, the way the orchestrator used to, and sums
/// `cow_stats_vs` at each window close: the counts must be equal, and
/// holding forks must not change what exploration reports.
#[test]
fn generation_counted_cow_sharing_equals_what_held_forks_report() {
    let topo = figure2_topology(CustomerFilterMode::Erroneous);
    let provider = topo.node_by_name("Provider").expect("node");

    let mut sim = Simulator::new(&topo);
    let orchestrator = LiveOrchestrator::new(hijack_session());
    let plane = orchestrator.control_plane();
    let report = orchestrator.run(&mut sim, |sim, epoch| scripted_epoch(sim, provider, epoch));
    let counted = plane.sample().cow;

    let mut held_sim = Simulator::new(&topo);
    let held = LiveOrchestrator::new(hijack_session());
    let held_plane = held.control_plane();
    let capture = |sim: &Simulator| -> Vec<RoundCheckpoint> {
        (0..sim.len())
            .map(|n| RoundCheckpoint::capture(sim.router(NodeId(n))))
            .collect()
    };
    let mut forks = capture(&held_sim);
    let (mut units_total, mut units_shared) = (0usize, 0usize);
    let mut windows_closed = 0usize;
    // A window closes when a round has executed; the probe forks are then
    // compared against the live routers and re-captured for the next one.
    let mut close_window = |sim: &Simulator, rounds: usize| {
        if rounds == windows_closed {
            return;
        }
        windows_closed = rounds;
        for (n, fork) in forks.iter().enumerate() {
            let stats = fork.cow_stats_vs(sim.router(NodeId(n)));
            units_total += stats.units_total;
            units_shared += stats.units_shared;
        }
        forks = capture(sim);
    };
    let held_report = held.run(&mut held_sim, |sim, epoch| {
        close_window(sim, held_plane.sample().rounds);
        scripted_epoch(sim, provider, epoch)
    });
    close_window(&held_sim, held_plane.sample().rounds);

    assert_eq!(held_report.digest(), report.digest());
    assert_eq!(held_report.rounds.len(), 6);
    assert_eq!(windows_closed, 6);
    assert_eq!(
        (counted.units_total, counted.units_shared),
        (units_total, units_shared),
        "generation-counted sharing must equal the held-fork sums"
    );
    assert_eq!(held_plane.sample().cow, counted);
    // One unit per node: its table.
    assert_eq!(units_total, 6 * sim.len());
    assert!(
        0 < units_shared && units_shared < units_total,
        "the script must leave some tables shared and copy others: {units_shared}/{units_total}"
    );
}

//! Generate a synthetic RouteViews-like trace, load the full table into the
//! Provider router and measure updates/second with and without DiCE
//! exploration sharing the core (the §4.1 CPU experiment, example-sized).
//!
//! Run with `cargo run --example trace_replay [prefix_count]`.

use std::time::Instant;

use dice::prelude::*;
use dice_netsim::slowdown_percent;

fn main() {
    let prefix_count: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);

    let config = TraceGenConfig {
        prefix_count,
        update_count: 1_000,
        ..Default::default()
    };
    println!(
        "generating synthetic trace: {} prefixes, {} updates...",
        config.prefix_count, config.update_count
    );
    let trace = generate_trace(&config, asn::INTERNET, addr::INTERNET);

    let build_router = || {
        let topo = figure2_topology(CustomerFilterMode::Erroneous);
        let provider = topo.node_by_name("Provider").expect("node");
        let mut r = BgpRouter::new(topo.nodes()[provider.0].config.clone());
        r.start();
        r
    };

    // Baseline: replay without exploration.
    let mut router = build_router();
    let replayer = Replayer::new(&trace, addr::INTERNET);
    let load = replayer.load_table(&mut router);
    println!(
        "table loaded: {} prefixes at {:.0} updates/s",
        load.rib_prefixes, load.updates_per_second
    );
    let baseline = replayer.replay_updates(&mut router, |_| {});
    println!(
        "baseline update replay: {:.0} updates/s",
        baseline.updates_per_second
    );

    // With exploration: every 200 updates, DiCE explores beside the live
    // router. Each round forks the router as it stands and releases the
    // fork before the next update, so it explores the current table and
    // the live router never copies a chunk on behalf of a held fork.
    let mut router = build_router();
    let replayer = Replayer::new(&trace, addr::INTERNET);
    replayer.load_table(&mut router);
    let internet = router.peer_by_address(addr::INTERNET).expect("peer");
    let customer = router.peer_by_address(addr::CUSTOMER).expect("peer");
    let mut cattrs = RouteAttrs::default();
    cattrs.as_path = AsPath::from_sequence([asn::CUSTOMER, asn::CUSTOMER]);
    let observed = [(
        customer,
        UpdateMessage::announce(vec!["41.1.0.0/16".parse().expect("valid")], &cattrs),
    )];
    let session = DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(8))
        .build();
    let started = Instant::now();
    for (fed, event) in trace.updates.iter().enumerate() {
        router.handle_update(internet, &event.update);
        if (fed + 1) % 200 == 0 {
            let _ = session.explore(&router, &observed);
        }
    }
    let loaded = trace.updates.len() as f64 / started.elapsed().as_secs_f64().max(f64::EPSILON);
    println!("update replay with exploration: {loaded:.0} updates/s");
    println!(
        "performance impact: {:.1}% (paper reports ~8% under full load, negligible in the realistic scenario)",
        slowdown_percent(baseline.updates_per_second, loaded)
    );
}

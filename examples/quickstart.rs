//! Quickstart: attach DiCE to a BGP router and detect a route leak enabled
//! by a misconfigured customer import filter.
//!
//! Run with `cargo run --example quickstart`.

use dice::prelude::*;

fn main() {
    // 1. Build the DiCE-enabled Provider router from the paper's Figure 2
    //    topology, with a partially correct customer import filter.
    let topo = figure2_topology(CustomerFilterMode::Erroneous);
    let provider = topo
        .node_by_name("Provider")
        .expect("Figure 2 has a Provider");
    let mut router = BgpRouter::new(topo.nodes()[provider.0].config.clone());
    router.start();

    // 2. Live operation: the rest of the Internet announces the victim's
    //    prefix (YouTube's 208.65.152.0/22, originated by AS 36561).
    let internet = router
        .peer_by_address(addr::INTERNET)
        .expect("Internet peer");
    let mut attrs = RouteAttrs::default();
    attrs.as_path = AsPath::from_sequence([asn::INTERNET, 3356, asn::VICTIM]);
    router.handle_update(
        internet,
        &UpdateMessage::announce(
            vec!["208.65.152.0/22".parse().expect("valid prefix")],
            &attrs,
        ),
    );
    println!(
        "live router has {} prefix(es) installed",
        router.rib().prefix_count()
    );

    // 3. The customer sends a routine announcement of its own block; DiCE
    //    uses it as the observed input to derive exploratory messages.
    let customer = router
        .peer_by_address(addr::CUSTOMER)
        .expect("Customer peer");
    let mut cattrs = RouteAttrs::default();
    cattrs.as_path = AsPath::from_sequence([asn::CUSTOMER, asn::CUSTOMER]);
    let observed =
        UpdateMessage::announce(vec!["41.1.0.0/16".parse().expect("valid prefix")], &cattrs);

    // 4. Build an exploration session and run one DiCE round: checkpoint,
    //    concolic exploration of the UPDATE handler and the configured
    //    filters, fault checking. The builder owns the checker registry;
    //    with none registered it defaults to the origin-hijack checker.
    let session = DiceBuilder::new().build();
    let report = session.explore(&router, &[(customer, observed.clone())]);
    println!("{report}");

    // 5. The erroneous filter lets the customer announce the victim's
    //    prefix: DiCE reports the leakable range before any hijack happens.
    assert!(report.has_faults(), "the misconfiguration must be detected");
    assert!(
        report.isolation_preserved,
        "the live router is never touched"
    );
    println!(
        "quickstart complete: DiCE found {} potential fault(s)",
        report.faults.len()
    );
}

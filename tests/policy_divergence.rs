//! End-to-end divergence test for policy-AST symbolic branches: a buggy
//! import filter leaks a more-specific of the victim's prefix *only when a
//! specific community is attached*. No concrete trace ever carries that
//! community, so the leak is reachable only through a solver-synthesized
//! announcement — exactly the class of fault the policy-aware exploration
//! surface exists to find. The control arm runs the same round with the
//! seed run alone, the concrete execution of the observed message, and
//! must come back clean.

use dice::prelude::*;
use dice::router::policy::{encode_community, parse_filter, FilterDef};

/// The buggy customer filter: the first arm is the customer's legitimate
/// allocation; the second is a stale "emergency" exception that accepts
/// more-specifics of the victim's 208.65.152.0/22 whenever the operator
/// community 3491:666 is attached. The exception was never cleaned up, and
/// nothing in live traffic ever carries 3491:666.
fn buggy_filter() -> FilterDef {
    parse_filter(
        r#"filter customer_in {
            if net ~ [ 41.0.0.0/12{12,24} ] then accept;
            if community ~ (3491, 666) && net ~ [ 208.65.152.0/22{22,25} ] then accept;
            reject;
        }"#,
    )
    .expect("valid filter")
}

/// The Provider with the buggy filter, the victim /22 installed from the
/// Internet, and a benign observed customer announcement with no
/// communities attached.
fn scenario() -> (BgpRouter, PeerId, UpdateMessage) {
    let topo = figure2_topology_with_customer_filter(buggy_filter());
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
    assert!(
        observed.route_attrs().communities.is_empty(),
        "the observed trace must not carry the gating community"
    );
    (router, customer, observed)
}

#[test]
fn solver_synthesized_community_exposes_the_gated_leak() {
    let (router, customer, observed) = scenario();
    let victim: Ipv4Prefix = "208.65.152.0/22".parse().expect("valid");

    let session = DiceBuilder::new().build();
    let report = session.explore(&router, &[(customer, observed.clone())]);
    assert!(
        report.has_faults(),
        "the community-gated leak must be found by synthesizing 3491:{}:\n{report}",
        encode_community(3491, 666) & 0xffff,
    );
    assert!(
        report.leaked_prefixes().iter().any(|p| p.overlaps(&victim)),
        "the fault names the victim's range:\n{report}"
    );

    // The policy surface is visible in the report: both filter arms are
    // registered (executed or not), coverage is over registered arms, and
    // the digest/display grow the policy segment.
    assert!(
        report.policy_sites >= 2,
        "both `if` arms registered as policy sites:\n{report}"
    );
    assert!(report.policy_branch_coverage() > 0.0);
    assert!(report.digest().contains(";policy_dirs="));
    assert!(report.to_string().contains("policy:"));
    assert!(
        report.solver_stats.policy_queries > 0,
        "negating the community arm is attributed as a policy query:\n{report}"
    );
    assert!(report.isolation_preserved);

    // Control: the same round with the seed run alone. The observed
    // message carries no community, so without a solver-synthesized input
    // nothing reaches the leak and the round comes back clean.
    let seed_only = DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(1))
        .build();
    let seed_report = seed_only.explore(&router, &[(customer, observed)]);
    assert!(
        !seed_report.has_faults(),
        "the observed message alone does not leak:\n{seed_report}"
    );
}

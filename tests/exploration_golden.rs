//! Golden digests of the exploration hot path.
//!
//! `dice_benchmark/` pins every workload's outputs, but it is a workspace of
//! its own that `cargo test` never compiles: a hot-path change that shifts
//! `TermId` numbering, RNG consumption or branch order would pass tier-1 and
//! fail only there. These tests pin the same things inside tier-1, at small
//! sizes: the sixteen-arm `customer_in` filter of the `explore_heavy`
//! workload (its source text is copied here; the test does not depend on
//! `dice_benchmark`), one short `LiveOrchestrator` script and one seeded
//! `FaultPlanSearch`.
//!
//! **Every constant below was generated on the parent commit (PR 23,
//! `41720b7`) before any other file of the PR that added this test was
//! touched**, and the PR left them as they were. To regenerate after a
//! change that is *meant* to alter exploration outputs, run with
//! `GOLDEN_PRINT=1 cargo test --test exploration_golden -- --nocapture`
//! and copy the printed values — and regenerate
//! `dice_benchmark/src/reference.rs` in the same change.

use dice::core::{RoundCheckpoint, SymbolicUpdateHandler};
use dice::prelude::*;
use dice::router::policy::parse_filter;

/// The `explore_heavy` workload's customer import filter, verbatim.
const CUSTOMER_IN: &str = r#"
    filter customer_in {
        if net ~ [ 41.0.0.0/12{12,24} ] && source_as = 17557 then {
            local_pref = 200;
            accept;
        }
        if community ~ (3491, 666) && net ~ [ 208.65.152.0/22{22,25} ] then accept;
        if path_len > 12 then reject;
        if med > 500 then {
            if community ~ (3491, 100) then {
                local_pref = 80;
                accept;
            }
            reject;
        }
        if source_as = 64512 || source_as = 64513 then reject;
        if neighbor_as != 17557 then reject;
        if net ~ [ 41.16.0.0/12{16,24} ] && (med < 50 || path_len <= 3) then accept;
        if community ~ (3491, 200) then {
            if net.len > 24 then reject;
            prepend 2;
            accept;
        }
        if net ~ [ 196.0.0.0/8{16,24}, 197.0.0.0/8{16,24} ] && source_as >= 36864 && source_as <= 37887 then accept;
        if origin = 2 && path_len > 6 then reject;
        if local_pref > 300 then reject;
        if net.len < 8 then reject;
        if community ~ (17557, 1) || community ~ (17557, 2) then {
            med = 10;
            accept;
        }
        if net ~ [ 208.65.152.0/22{22,24} ] then accept;
        reject;
    }
"#;

/// FNV-1a over a rendering, as `dice_benchmark` commits its digests.
fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Prints `name = value` when regenerating, asserts otherwise.
fn pin<T: PartialEq + std::fmt::Debug>(name: &str, actual: T, expected: T) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("golden {name} = {actual:?}");
    } else {
        assert_eq!(actual, expected, "golden value `{name}` moved");
    }
}

fn victim_announcement() -> UpdateMessage {
    let mut attrs = RouteAttrs::default();
    attrs.as_path = AsPath::from_sequence([asn::INTERNET, 3356, asn::VICTIM]);
    attrs.next_hop = addr::INTERNET;
    UpdateMessage::announce(vec!["208.65.152.0/22".parse().expect("valid")], &attrs)
}

fn customer_announcement(prefix: Ipv4Prefix, path: &[u32], med: Option<u32>) -> UpdateMessage {
    let mut attrs = RouteAttrs::default();
    attrs.as_path = AsPath::from_sequence(path.iter().copied());
    attrs.next_hop = addr::CUSTOMER;
    attrs.med = med;
    UpdateMessage::announce(vec![prefix], &attrs)
}

/// The Provider behind the sixteen-arm filter with a 400-prefix table, and
/// the first sixteen inputs of the workload's announcement pool.
fn heavy_scenario() -> (BgpRouter, Vec<(PeerId, UpdateMessage)>) {
    let filter = parse_filter(CUSTOMER_IN).expect("the filter parses");
    assert_eq!(filter.branch_count(), 16);
    let topology = figure2_topology_with_customer_filter(filter);
    let provider = topology.node_by_name("Provider").expect("node");
    let mut router = BgpRouter::new(topology.nodes()[provider.0].config.clone());
    router.start();
    let internet = router.peer_by_address(addr::INTERNET).expect("peer");
    router.handle_update(internet, &victim_announcement());
    let trace = generate_trace(
        &TraceGenConfig {
            prefix_count: 400,
            update_count: 1,
            seed: 0xD1CE,
            ..TraceGenConfig::paper_scale()
        },
        asn::INTERNET,
        addr::INTERNET,
    );
    Replayer::new(&trace, addr::INTERNET).load_table(&mut router);

    let customer = router.peer_by_address(addr::CUSTOMER).expect("peer");
    let pool = (0..16u32)
        .map(|i| {
            let prefix = Ipv4Prefix::new((41 << 24) | ((i % 32) << 16) | ((i / 32 % 4) << 14), 18)
                .expect("an /18");
            let origin = 17_557 + i / 4 % 8;
            let update = customer_announcement(
                prefix,
                &[asn::CUSTOMER, asn::CUSTOMER, origin],
                Some(40 * (i % 20)),
            );
            (customer, update)
        })
        .collect();
    (router, pool)
}

#[test]
fn sixteen_arm_filter_round_is_pinned_for_one_and_two_workers() {
    let (router, pool) = heavy_scenario();
    for workers in [1, 2] {
        let session = DiceBuilder::new()
            .workers(workers)
            .max_observed_inputs(16)
            .build();
        let report = session.explore(&router, &pool);
        let what = |field: &str| format!("heavy.workers{workers}.{field}");
        pin(
            &what("digest"),
            fnv1a(&report.digest()),
            0x2575_bc1f_1b97_9a63,
        );
        pin(&what("runs"), report.runs, 444usize);
        pin(&what("queries"), report.solver_stats.queries, 428u64);
        pin(
            &what("candidates_evaluated"),
            report.solver_stats.candidates_evaluated,
            13_578u64,
        );
        pin(&what("faults"), report.faults.len(), 3usize);
        assert!(report.isolation_preserved);
    }
}

/// The inputs the engine derives, per observed input exactly as
/// `DiceSession::explore` drives it: every generated assignment rendered,
/// sorted, hashed. A model that differs in one field of one run moves this
/// even when every counter above stays put.
#[test]
fn sixteen_arm_filter_generated_inputs_are_pinned() {
    let (router, pool) = heavy_scenario();
    let engine_config = DiceBuilder::new().build().config().engine;
    let checkpoint = RoundCheckpoint::capture(&router);
    let mut rendered: Vec<String> = Vec::new();
    let mut distinct_paths = 0usize;
    for (peer, update) in &pool {
        let template = UpdateTemplate::from_update(update).expect("announces a prefix");
        let seed = template.seed();
        let mut handler = SymbolicUpdateHandler::new(checkpoint.clone(), *peer, template);
        let exploration = ConcolicEngine::with_config(engine_config).explore(&mut handler, &[seed]);
        distinct_paths += exploration.distinct_paths();
        rendered.extend(
            exploration
                .generated_inputs()
                .into_iter()
                .map(|input| input.to_string()),
        );
    }
    rendered.sort();
    pin("heavy.generated.count", rendered.len(), 428usize);
    pin("heavy.generated.distinct_paths", distinct_paths, 256usize);
    pin(
        "heavy.generated.sorted_fnv",
        fnv1a(&rendered.join("\n")),
        0xa9de_4304_cbc5_cb4bu64,
    );
    pin(
        "heavy.generated.first",
        rendered.first().cloned().unwrap_or_default(),
        "{attr.community=0, attr.local_pref=100, attr.med=0, attr.origin=0, attr.path_len=12, \
         attr.source_as=17558, nlri.addr=687865856, nlri.len=19}"
            .to_string(),
    );
}

#[test]
fn short_live_script_is_pinned() {
    let filter = parse_filter(CUSTOMER_IN).expect("the filter parses");
    let topology = figure2_topology_with_customer_filter(filter);
    let provider = topology.node_by_name("Provider").expect("node");
    let mut sim = Simulator::new(&topology);
    sim.inject(
        provider,
        addr::INTERNET,
        BgpMessage::Update(victim_announcement()),
    );
    sim.run_to_quiescence(100);

    let session = DiceBuilder::new()
        .checker(Box::new(OriginHijackChecker::new()))
        .checker(Box::new(RouteOscillationChecker::new()))
        .build();
    let live = LiveOrchestrator::new(session).run(&mut sim, |sim, epoch| {
        // Three epochs, two customer announcements each, on both sides
        // of the filter's MED and origin-AS thresholds.
        for k in 0..2u32 {
            let i = epoch as u32 * 2 + k;
            let prefix = Ipv4Prefix::new((41 << 24) | (i << 16), 18).expect("an /18");
            let update = customer_announcement(
                prefix,
                &[asn::CUSTOMER, asn::CUSTOMER, 17_557 + i % 3],
                Some(300 * i),
            );
            sim.inject(provider, addr::CUSTOMER, BgpMessage::Update(update));
        }
        epoch < 2
    });
    pin(
        "live.digest",
        fnv1a(&live.digest()),
        0xfe3c_cbeb_abdc_9d54u64,
    );
    pin("live.rounds", live.rounds.len(), 3usize);
    pin("live.total_runs", live.total_runs(), 170usize);
    pin("live.faults", live.faults.len(), 4usize);
}

/// A flapping-customer scenario under the sixteen-arm filter, searched from
/// one seed.
struct HeavyFilterScenario;

impl FaultScenario for HeavyFilterScenario {
    fn build(&self) -> Simulator {
        let filter = parse_filter(CUSTOMER_IN).expect("the filter parses");
        Simulator::new(&figure2_topology_with_customer_filter(filter))
    }

    fn drive(&self, sim: &mut Simulator, epoch: usize) -> bool {
        let provider = NodeId(1);
        if epoch == 0 {
            let update = customer_announcement(
                "41.1.0.0/16".parse().expect("valid"),
                &[asn::CUSTOMER, asn::CUSTOMER],
                None,
            );
            sim.inject(provider, addr::CUSTOMER, BgpMessage::Update(update));
        } else {
            let mut attrs = RouteAttrs::default();
            attrs.as_path = AsPath::from_sequence([asn::INTERNET, 3356]);
            attrs.next_hop = addr::INTERNET;
            let block: Ipv4Prefix = format!("198.51.{}.0/24", 99 + epoch)
                .parse()
                .expect("valid");
            let update = UpdateMessage::announce(vec![block], &attrs);
            sim.inject(provider, addr::INTERNET, BgpMessage::Update(update));
        }
        epoch < 3
    }
}

#[test]
fn seeded_fault_plan_search_is_pinned() {
    let session = DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(12))
        .checker(Box::new(BgpWedgieChecker::new()))
        .checker(Box::new(OriginHijackChecker::new()))
        .build();
    let search = FaultPlanSearch::new(LiveOrchestrator::new(session))
        .with_seed(7)
        .with_budget(6)
        .with_epoch_horizon(3);
    let report = search.run(&HeavyFilterScenario);
    pin(
        "search.digest",
        fnv1a(&report.digest()),
        0xd7a1_7e6e_0530_b7f8u64,
    );
    pin(
        "search.live_digest",
        fnv1a(&report.report.digest()),
        0x8851_9a7f_7c1f_259cu64,
    );
    pin("search.plans", report.plans_tried, 6usize);
    pin("search.repros", report.repros.len(), 1usize);
    pin("search.baseline_runs", report.report.total_runs(), 19usize);
}

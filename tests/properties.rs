//! Property-based tests over the core data structures and invariants,
//! spanning the protocol codec, the routing substrate, the concolic engine
//! and copy-on-write forks of the routing table.

use std::sync::Arc;

use proptest::prelude::*;

use dice::prelude::*;
use dice_bgp::attributes::{Aggregator, Community, Origin};
use dice_bgp::{wire, Asn};
use dice_router::policy::{
    eval_filter, eval_filter_at, parse_filter, CmpOp, Expr, Field, FilterDef, FilterSites,
    PrefixPattern, RouteView, Stmt,
};
use dice_router::PrefixMap;
use dice_solver::{IncrementalSolver, TermArena};
use dice_symexec::{ExecCtx, SiteId};

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(addr, len).expect("len <= 32"))
}

fn arb_attrs() -> impl Strategy<Value = RouteAttrs> {
    (
        prop::collection::vec(1u32..1_000_000, 1..6),
        0u8..=2,
        prop::option::of(any::<u32>()),
        prop::option::of(any::<u32>()),
        prop::collection::vec((any::<u16>(), any::<u16>()), 0..4),
    )
        .prop_map(|(path, origin, med, local_pref, communities)| {
            let mut attrs = RouteAttrs::default();
            attrs.as_path = AsPath::from_sequence(path);
            attrs.origin = Origin::from_code(origin).expect("0..=2");
            attrs.med = med;
            attrs.local_pref = local_pref;
            attrs.next_hop = std::net::Ipv4Addr::new(192, 0, 2, 1);
            attrs.communities = communities
                .into_iter()
                .map(|(a, b)| Community::new(a, b))
                .collect();
            attrs
        })
}

fn arb_pattern() -> impl Strategy<Value = PrefixPattern> {
    (any::<u32>(), 0u8..=32, 0u8..=32, 0u8..=32).prop_map(|(addr, len, a, b)| {
        let prefix = Ipv4Prefix::new(addr, len).expect("len <= 32");
        PrefixPattern::with_range(prefix, a.min(b), a.max(b))
    })
}

fn arb_policy_expr() -> impl Strategy<Value = Expr> {
    let field = prop_oneof![
        Just(Field::SourceAs),
        Just(Field::NeighborAs),
        Just(Field::PathLen),
        Just(Field::Med),
        Just(Field::LocalPref),
        Just(Field::OriginCode),
        Just(Field::PrefixLen),
    ];
    let op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    let leaf = prop_oneof![
        prop::collection::vec(arb_pattern(), 1..3).prop_map(Expr::NetMatch),
        (field, op, any::<u32>()).prop_map(|(field, op, value)| Expr::FieldCmp {
            field,
            op,
            value: value as u64,
        }),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Expr::CommunityMatch(a, b)),
        Just(Expr::True),
        Just(Expr::False),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
        ]
    })
}

fn arb_policy_stmt() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        Just(Stmt::Accept),
        Just(Stmt::Reject),
        (0u64..1000).prop_map(Stmt::SetLocalPref),
        (0u64..1000).prop_map(Stmt::SetMed),
        (0u64..4).prop_map(Stmt::Prepend),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Stmt::AddCommunity(a, b)),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        (
            arb_policy_expr(),
            prop::collection::vec(inner.clone(), 0..3),
            prop::collection::vec(inner, 0..2),
        )
            .prop_map(|(cond, then_branch, else_branch)| Stmt::If {
                id: 0,
                cond,
                then_branch,
                else_branch,
            })
    })
}

/// An arbitrary filter whose arm IDs carry the canonical pre-order
/// numbering ([`FilterDef::assign_arm_ids`]), as the parser would assign.
fn arb_policy_filter() -> impl Strategy<Value = FilterDef> {
    prop::collection::vec(arb_policy_stmt(), 1..4).prop_map(|body| {
        let mut filter = FilterDef {
            name: "f".into(),
            body,
        };
        filter.assign_arm_ids();
        filter
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Prefix parsing and display round-trip.
    #[test]
    fn prefix_display_parse_roundtrip(prefix in arb_prefix()) {
        let text = prefix.to_string();
        let parsed: Ipv4Prefix = text.parse().expect("display output parses");
        prop_assert_eq!(parsed, prefix);
    }

    /// UPDATE messages survive a wire encode/decode round-trip.
    #[test]
    fn update_wire_roundtrip(
        nlri in prop::collection::vec(arb_prefix(), 0..8),
        withdrawn in prop::collection::vec(arb_prefix(), 0..8),
        attrs in arb_attrs(),
    ) {
        let update = UpdateMessage {
            withdrawn,
            attrs: (!nlri.is_empty()).then(|| Arc::new(attrs)),
            nlri,
        };
        let bytes = wire::encode(&BgpMessage::Update(update.clone()));
        let (decoded, used) = wire::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, BgpMessage::Update(update));
    }

    /// Wire-trace round-trip: random valid updates → encode → serialize
    /// the trace → parse → decode each frame → re-encode, every stage byte
    /// identical. This is the contract `WireReplayDriver` enforces per
    /// frame at ingest time.
    #[test]
    fn wire_trace_roundtrips_byte_identically(
        msgs in prop::collection::vec(
            (
                any::<u64>(),
                prop::collection::vec(arb_prefix(), 0..6),
                prop::collection::vec(arb_prefix(), 0..6),
                arb_attrs(),
            ),
            1..12,
        ),
    ) {
        let mut trace = WireTrace::new();
        for (at_ms, nlri, withdrawn, attrs) in &msgs {
            let update = UpdateMessage {
                withdrawn: withdrawn.clone(),
                attrs: (!nlri.is_empty()).then(|| Arc::new(attrs.clone())),
                nlri: nlri.clone(),
            };
            trace.push_update(*at_ms, NodeId(1), addr::CUSTOMER, &update);
        }
        let bytes = trace.to_bytes();
        let parsed = WireTrace::from_bytes(&bytes).expect("serialized trace parses");
        prop_assert_eq!(&parsed, &trace);
        prop_assert_eq!(parsed.to_bytes(), bytes);
        for record in &parsed.records {
            let (msg, used) = wire::decode(&record.bytes).expect("frame decodes");
            prop_assert_eq!(used, record.bytes.len());
            prop_assert_eq!(wire::encode(&msg).to_vec(), record.bytes.clone());
        }
    }

    /// Any model the solver returns actually satisfies the constraints it
    /// was asked to satisfy.
    #[test]
    fn solver_models_satisfy_their_constraints(lo in 0u32..5000, span in 1u32..5000, exclude in any::<u32>()) {
        let hi = lo.saturating_add(span);
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 32);
        let xv = arena.var(x);
        let lo_t = arena.int_const(lo as u64, 32);
        let hi_t = arena.int_const(hi as u64, 32);
        let ex_t = arena.int_const(exclude as u64, 32);
        let c1 = arena.uge(xv, lo_t);
        let c2 = arena.ule(xv, hi_t);
        let c3 = arena.ne(xv, ex_t);
        let constraints = [c1, c2, c3];
        let mut session = IncrementalSolver::new();
        session.assert_all(&mut arena, &constraints);
        let verdict = session.check(&arena, None);
        // The range always contains at least two values, so excluding one
        // still leaves a model.
        let model = verdict.model().expect("satisfiable by construction");
        prop_assert!(model.satisfies_all(&arena, &constraints));
    }

    /// The filter interpreter gives the same verdict on concrete views and
    /// on symbolic views carrying the same concrete values.
    #[test]
    fn filter_concrete_and_symbolic_evaluation_agree(
        prefix in arb_prefix(),
        source_as in 1u32..100_000,
        med in 0u32..500,
    ) {
        let filter = parse_filter(
            r#"filter f {
                if net ~ [ 41.0.0.0/12{12,24}, 208.65.152.0/22{22,24} ] && source_as = 17557 then accept;
                if med > 100 then reject;
                if net.len > 24 then reject;
                accept;
            }"#,
        ).expect("parses");

        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence([3491, source_as]);
        attrs.med = Some(med);
        let route = Route::new(prefix, attrs, PeerId(1), 1);

        let mut concrete_ctx = ExecCtx::new();
        let concrete = eval_filter(&filter, &RouteView::concrete(&route), &mut concrete_ctx);

        let mut sym_ctx = ExecCtx::new();
        let view = RouteView {
            prefix_addr: sym_ctx.symbolic_u32("nlri.addr", prefix.addr()),
            prefix_len: sym_ctx.symbolic_u8("nlri.len", prefix.len()),
            source_as: sym_ctx.symbolic_u32("attr.source_as", source_as),
            med: sym_ctx.symbolic_u32("attr.med", med),
            ..RouteView::concrete(&route)
        };
        let symbolic = eval_filter(&filter, &view, &mut sym_ctx);

        prop_assert_eq!(concrete.verdict, symbolic.verdict);
        prop_assert_eq!(concrete.local_pref, symbolic.local_pref);
        // Concrete evaluation records nothing; symbolic evaluation records
        // constraints satisfied by its own concrete values.
        prop_assert!(concrete_ctx.branches().is_empty());
        let constraints = sym_ctx.path_constraints();
        let model = sym_ctx.concrete_model().clone();
        prop_assert!(model.satisfies_all(sym_ctx.arena(), &constraints));
    }

    /// Printing a filter AST and re-parsing it preserves the structure
    /// *and the arm IDs*: a policy branch site is the same addressable
    /// exploration site whether the filter came from text or from a
    /// hand-built (then canonically renumbered) AST.
    #[test]
    fn policy_ast_display_parse_roundtrip_preserves_site_ids(filter in arb_policy_filter()) {
        let reparsed = parse_filter(&filter.to_string()).expect("display output re-parses");
        prop_assert_eq!(&reparsed, &filter);
        prop_assert_eq!(reparsed.sites(), filter.sites());
    }

    /// A filter's site table — labels formatted and hashed once — holds
    /// for every arm exactly the site its label hashes to, and a symbolic
    /// evaluation at the table declares and records the same sites as one
    /// that builds its own.
    #[test]
    fn policy_site_table_matches_arm_labels(
        filter in arb_policy_filter(),
        prefix in arb_prefix(),
        attrs in arb_attrs(),
    ) {
        let sites = FilterSites::of(&filter);
        for (arm, label) in filter.sites() {
            let site = SiteId::from_label(&label);
            prop_assert_eq!(sites.site_of(arm), Some(site));
            prop_assert_eq!(sites.info().label(site), Some(label.as_str()));
        }
        prop_assert_eq!(sites.info().policy_sites().len(), filter.branch_count());

        let route = Route::new(prefix, attrs, PeerId(1), 1);
        let symbolic_view = |ctx: &mut ExecCtx| RouteView {
            prefix_addr: ctx.symbolic_u32("nlri.addr", route.prefix.addr()),
            prefix_len: ctx.symbolic_u8("nlri.len", route.prefix.len()),
            ..RouteView::concrete(&route)
        };
        let mut at_table = ExecCtx::new();
        let view = symbolic_view(&mut at_table);
        let outcome = eval_filter_at(&filter, &sites, &view, &mut at_table);
        let mut one_off = ExecCtx::new();
        let view = symbolic_view(&mut one_off);
        prop_assert_eq!(eval_filter(&filter, &view, &mut one_off), outcome);
        prop_assert_eq!(at_table.branches(), one_off.branches());
        prop_assert_eq!(at_table.site_info(), one_off.site_info());
    }

    /// Concrete and symbolic evaluation of the same filter over the same
    /// route values take identical arm traces — same arms, same
    /// directions, in the same order — and the same verdict. Symbolic
    /// evaluation additionally registers every arm as a policy site;
    /// concrete evaluation registers nothing.
    #[test]
    fn policy_arm_traces_agree_between_concrete_and_symbolic(
        filter in arb_policy_filter(),
        prefix in arb_prefix(),
        attrs in arb_attrs(),
    ) {
        let route = Route::new(prefix, attrs, PeerId(1), 1);
        let mut concrete_ctx = ExecCtx::new();
        let concrete = eval_filter(&filter, &RouteView::concrete(&route), &mut concrete_ctx);

        let mut sym_ctx = ExecCtx::new();
        let base = RouteView::concrete(&route);
        let view = RouteView {
            prefix_addr: sym_ctx.symbolic_u32("nlri.addr", base.prefix_addr.value()),
            prefix_len: sym_ctx.symbolic_u8("nlri.len", base.prefix_len.value()),
            source_as: sym_ctx.symbolic_u32("attr.source_as", base.source_as.value()),
            med: sym_ctx.symbolic_u32("attr.med", base.med.value()),
            path_len: sym_ctx.symbolic_u32("attr.path_len", base.path_len.value()),
            community_slot: sym_ctx.symbolic_u32("attr.community", 0),
            ..base
        };
        let symbolic = eval_filter(&filter, &view, &mut sym_ctx);

        prop_assert_eq!(concrete.verdict, symbolic.verdict);
        let concrete_arms: Vec<(u32, bool)> =
            concrete.trace.iter().map(|t| (t.arm, t.taken)).collect();
        let symbolic_arms: Vec<(u32, bool)> =
            symbolic.trace.iter().map(|t| (t.arm, t.taken)).collect();
        prop_assert_eq!(concrete_arms, symbolic_arms);
        // Concrete traces never carry constraints; concrete contexts never
        // record branches or register sites.
        prop_assert!(concrete.trace.iter().all(|t| t.constraint.is_none()));
        prop_assert!(concrete_ctx.branches().is_empty());
        prop_assert!(concrete_ctx.policy_sites().is_empty());
        prop_assert_eq!(sym_ctx.policy_sites().len(), filter.branch_count());
    }

    /// Generated exploratory UPDATE messages are always syntactically valid
    /// regardless of the assignment (paper §3.2).
    #[test]
    fn generated_updates_are_wire_valid(addr in any::<u64>(), len in any::<u64>(), origin in any::<u64>(), asn in any::<u64>()) {
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence([17557, 17557]);
        let observed = UpdateMessage::announce(vec!["41.1.0.0/16".parse().expect("valid")], &attrs);
        let template = UpdateTemplate::from_update(&observed).expect("announcement");
        let values = dice_symexec::InputValues::new()
            .with("nlri.addr", addr)
            .with("nlri.len", len)
            .with("attr.origin", origin)
            .with("attr.source_as", asn);
        let update = template.build_update(&values);
        let bytes = wire::encode(&BgpMessage::Update(update.clone()));
        let (decoded, _) = wire::decode(&bytes).expect("generated message is valid");
        prop_assert_eq!(decoded, BgpMessage::Update(update));
    }

    /// Degenerate trace shapes — an empty or near-empty table, no updates,
    /// all or no withdrawals, an empty AS pool — never panic the generator,
    /// give the sizes asked for (an empty table has nothing to update) and
    /// repeat exactly for a seed.
    #[test]
    fn degenerate_trace_configs_generate_deterministically(
        prefix_count in 0usize..4,
        update_count in 0usize..6,
        as_count in 0u32..3,
        all_withdrawals in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let config = TraceGenConfig {
            prefix_count,
            update_count,
            as_count,
            withdrawal_percent: if all_withdrawals { 100 } else { 0 },
            seed,
            ..TraceGenConfig::default()
        };
        let next_hop = std::net::Ipv4Addr::new(10, 0, 2, 1);
        let trace = generate_trace(&config, 1299, next_hop);
        prop_assert_eq!(trace.table_size(), prefix_count);
        prop_assert_eq!(trace.update_count(), if prefix_count == 0 { 0 } else { update_count });
        for event in &trace.updates {
            prop_assert_eq!(event.update.withdrawn.is_empty(), !all_withdrawals);
        }
        let again = generate_trace(&config, 1299, next_hop);
        prop_assert_eq!(again.table, trace.table);
        prop_assert_eq!(again.updates, trace.updates);
    }

    /// Windowed (epoch) harvesting partitions the delivery log losslessly:
    /// for any live traffic and any ascending sequence of harvest cursors,
    /// concatenating the per-window harvests reproduces the one-shot
    /// `observed_inputs` harvest — per node, in delivery order, nothing
    /// dropped, nothing duplicated. This is the invariant continuous
    /// orchestration (`LiveOrchestrator`) rests on. The traffic mixes
    /// single-prefix announcements with two-prefix ones and withdrawals,
    /// so entries the log keeps whole are windowed too.
    #[test]
    fn windowed_harvest_partitions_the_delivery_log(
        traffic in prop::collection::vec((0u32..16, any::<bool>(), 0u8..3), 1..10),
        raw_cuts in prop::collection::vec(any::<u64>(), 0..8),
    ) {
        let topo = figure2_topology(CustomerFilterMode::Missing);
        let provider = topo.node_by_name("Provider").expect("node");
        let mut sim = Simulator::new(&topo);
        for (octet, from_customer, shape) in traffic {
            let (from, origin) = if from_customer {
                (addr::CUSTOMER, asn::CUSTOMER)
            } else {
                (addr::INTERNET, asn::INTERNET)
            };
            let mut attrs = RouteAttrs::default();
            attrs.as_path = AsPath::from_sequence([origin, origin]);
            attrs.next_hop = from;
            let prefix = |octet: u32| {
                Ipv4Prefix::new((41 << 24) | (octet << 16), 16).expect("len <= 32")
            };
            let update = match shape {
                0 => UpdateMessage::announce(vec![prefix(octet)], &attrs),
                1 => UpdateMessage::announce(vec![prefix(octet), prefix(octet + 16)], &attrs),
                _ => UpdateMessage::withdraw(vec![prefix(octet)]),
            };
            sim.inject(provider, from, BgpMessage::Update(update));
            sim.run_to_quiescence(100);
        }

        // Arbitrary ascending cut points spanning the whole log.
        let head = sim.observed_cursor();
        let mut cuts: Vec<u64> = raw_cuts.into_iter().map(|c| c % (head + 1)).collect();
        cuts.push(0);
        cuts.push(head);
        cuts.sort_unstable();
        cuts.dedup();

        for node in 0..sim.len() {
            let node = NodeId(node);
            let mut windowed = Vec::new();
            for pair in cuts.windows(2) {
                windowed.extend(sim.observed_inputs_in(node, pair[0], pair[1]));
            }
            prop_assert_eq!(windowed, sim.observed_inputs(node), "node {}", node.0);
        }
    }

    /// The log stores each UPDATE in whichever form is smallest, and every
    /// harvest rebuilds it: whatever the shape — one or several announced
    /// prefixes, pure or mixed withdrawals, no attribute block — the
    /// Provider's `observed_inputs`, its windowed `observed_inputs_in` and
    /// the windows `take_observed_in` moves out all return exactly the
    /// `(peer, update)` pairs its router was handed, in delivery order.
    /// The other nodes' harvests (the Provider's re-advertisements and
    /// withdrawals) agree across the three as well.
    #[test]
    fn every_update_shape_is_harvested_as_it_was_delivered(
        messages in prop::collection::vec(
            (0u8..5, prop::collection::vec(0u32..16, 2..4), any::<bool>(), arb_attrs()),
            1..12,
        ),
        raw_cuts in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let topo = figure2_topology(CustomerFilterMode::Missing);
        let provider = topo.node_by_name("Provider").expect("node");
        let mut sim = Simulator::new(&topo);
        let mut handed = Vec::new();
        for (shape, octets, from_customer, attrs) in messages {
            let from = if from_customer { addr::CUSTOMER } else { addr::INTERNET };
            let prefixes: Vec<Ipv4Prefix> = octets
                .iter()
                .map(|o| Ipv4Prefix::new((41 << 24) | (o << 16), 16).expect("len <= 32"))
                .collect();
            let update = match shape {
                0 => UpdateMessage::announce(vec![prefixes[0]], &attrs),
                1 => UpdateMessage::announce(prefixes, &attrs),
                2 => UpdateMessage::withdraw(prefixes),
                3 => UpdateMessage {
                    withdrawn: vec![prefixes[0]],
                    ..UpdateMessage::announce(prefixes[1..].to_vec(), &attrs)
                },
                _ => UpdateMessage {
                    withdrawn: Vec::new(),
                    attrs: None,
                    nlri: prefixes,
                },
            };
            let peer = sim.router(provider).peer_by_address(from).expect("peer");
            handed.push((peer, update.clone()));
            sim.inject(provider, from, BgpMessage::Update(update));
            sim.run_to_quiescence(100);
        }

        let head = sim.observed_cursor();
        let mut cuts: Vec<u64> = raw_cuts.into_iter().map(|c| c % (head + 1)).collect();
        cuts.push(0);
        cuts.push(head);
        cuts.sort_unstable();
        cuts.dedup();

        let whole: Vec<_> = (0..sim.len()).map(|n| sim.observed_inputs(NodeId(n))).collect();
        prop_assert_eq!(&whole[provider.0], &handed);
        for (node, expected) in whole.iter().enumerate() {
            let mut windowed = Vec::new();
            for pair in cuts.windows(2) {
                windowed.extend(sim.observed_inputs_in(NodeId(node), pair[0], pair[1]));
            }
            prop_assert_eq!(&windowed, expected, "node {}", node);
        }
        let mut taken = vec![Vec::new(); sim.len()];
        for pair in cuts.windows(2) {
            for (node, window) in sim.take_observed_in(pair[0], pair[1]).into_iter().enumerate() {
                taken[node].extend(window);
            }
        }
        prop_assert_eq!(taken, whole);
        prop_assert!(sim.observed_log().is_empty());
    }

    /// Fleet-wide fault deduplication is lossless: every fault present in
    /// any per-node report is represented in the merged list (same fleet
    /// key), every representative carries provenance, and no two merged
    /// entries share a key.
    #[test]
    fn fleet_dedup_never_drops_a_fault(
        per_node in prop::collection::vec(
            prop::collection::vec((0u32..8, 0u32..4, 0u32..3, 0u8..2), 0..6),
            1..5,
        ),
    ) {
        use dice::core::{dedup_fleet_faults, FaultKind};

        // Synthesize per-node reports from small tuples so collisions
        // within and across nodes are common.
        let reports: Vec<ExplorationReport> = per_node
            .iter()
            .map(|faults| ExplorationReport {
                faults: faults
                    .iter()
                    .map(|&(block, origin, existing, checker)| {
                        let announced =
                            Ipv4Prefix::new(block << 24, 24).expect("len <= 32");
                        let kind = FaultKind::PotentialHijack {
                            announced,
                            claimed_origin: Asn(64_512 + origin),
                            existing_prefix: announced,
                            existing_origin: Asn(65_000 + existing),
                        };
                        Fault::new(if checker == 0 { "origin-hijack" } else { "other" }, kind)
                    })
                    .collect(),
                ..Default::default()
            })
            .collect();
        let keyed: Vec<(NodeId, &ExplorationReport)> = reports
            .iter()
            .enumerate()
            .map(|(i, r)| (NodeId(i), r))
            .collect();

        let merged = dedup_fleet_faults(&keyed);
        let merged_keys: Vec<_> = merged.iter().map(|f| f.fault.fleet_key()).collect();

        // Lossless: every sighting is represented, with its node recorded.
        for (node, report) in &keyed {
            for fault in &report.faults {
                let idx = merged_keys
                    .iter()
                    .position(|k| *k == fault.fleet_key());
                let Some(idx) = idx else {
                    panic!("fault {fault} dropped by fleet dedup");
                };
                prop_assert!(merged[idx].nodes.contains(node));
            }
        }
        // Deduplicated: keys are unique and provenance is first-sighting.
        for (i, key) in merged_keys.iter().enumerate() {
            prop_assert_eq!(merged_keys.iter().position(|k| k == key), Some(i));
            prop_assert_eq!(merged[i].fault.node, merged[i].nodes.first().copied());
        }
    }
}

proptest! {
    // The default configuration, so `PROPTEST_CASES` reaches these three:
    // CI re-runs them at 2048 cases.
    #![proptest_config(ProptestConfig::default())]

    /// `PrefixMap` against a `BTreeMap` plus linear scans, checked after
    /// every step of a random sequence of `insert` / `get_or_insert_with` /
    /// `get_mut` / `remove` / `clone`. The sequence grows the map and then
    /// shrinks it, over a small address pool, so chunks split, merge and
    /// empty; a clone taken on the way must keep reading what the model
    /// read at that moment however the original is written afterwards.
    #[test]
    fn prefix_map_matches_a_btree_model(
        // (operation, prefix selector, length, value)
        ops in prop::collection::vec((0u32..100, any::<u32>(), 0u8..=32, any::<u32>()), 1000..1200),
    ) {
        use std::collections::BTreeMap;

        type Model = BTreeMap<(u32, u8), u32>;
        type Entries = Vec<(Ipv4Prefix, u32)>;
        // 512 addresses that nest under one another at every length.
        let pool_addr = |sel: u32| (sel % 16) << 28 | (sel / 16 % 8) << 13 | (sel / 128 % 4) << 3;
        let prefix_of = |&(addr, len): &(u32, u8)| Ipv4Prefix::must(addr, len);
        let entries_of = |model: &Model| -> Entries {
            let mut entries: Vec<_> = model.iter().map(|(k, v)| (prefix_of(k), *v)).collect();
            entries.sort_by(|a, b| canonical_cmp(a.0, b.0));
            entries
        };
        // The most specific model entry that `covers` accepts.
        let scan = |model: &Model, covers: &dyn Fn(&Ipv4Prefix) -> bool| {
            model
                .iter()
                .map(|(k, v)| (prefix_of(k), *v))
                .filter(|(p, _)| covers(p))
                .max_by_key(|(p, _)| p.len())
        };
        let read = |found: Option<(Ipv4Prefix, &u32)>| found.map(|(p, v)| (p, *v));

        let mut map: PrefixMap<u32> = PrefixMap::new();
        let mut model = Model::new();
        let mut forks: Vec<(PrefixMap<u32>, Entries)> = Vec::new();
        let mut most = 0;

        for (step, &(op, sel, len, value)) in ops.iter().enumerate() {
            let fresh = Ipv4Prefix::new(pool_addr(sel), len).expect("len <= 32");
            // A prefix the map holds, so that removals and updates hit.
            let held = model.keys().nth(sel as usize % model.len().max(1)).map(prefix_of);
            // Cumulative shares of insert, get_or_insert_with, get_mut,
            // clone and a removal that mostly misses; the rest removes a
            // held prefix, the top of the range a run of neighbours.
            let growing = step < ops.len() * 2 / 3;
            let [insert, get_or_insert, get_mut, fork, miss] =
                if growing { [60, 80, 86, 89, 91] } else { [6, 10, 16, 19, 22] };
            let mut touched = fresh;
            if op < insert {
                prop_assert_eq!(map.insert(fresh, value), model.insert((fresh.addr(), fresh.len()), value));
            } else if op < get_or_insert {
                let absent = !model.contains_key(&(fresh.addr(), fresh.len()));
                let (slot, inserted) = map.get_or_insert_with(fresh, || value);
                prop_assert_eq!(inserted, absent);
                let expected = model.entry((fresh.addr(), fresh.len())).or_insert(value);
                prop_assert_eq!(*slot, *expected);
                *slot = slot.wrapping_add(1);
                *expected = expected.wrapping_add(1);
            } else if op < get_mut {
                touched = if value % 4 == 0 { fresh } else { held.unwrap_or(fresh) };
                let expected = model.get_mut(&(touched.addr(), touched.len()));
                let slot = map.get_mut(&touched);
                prop_assert_eq!(slot.as_deref(), expected.as_deref());
                if let (Some(slot), Some(expected)) = (slot, expected) {
                    *slot = value;
                    *expected = value;
                }
            } else if op < fork {
                forks.push((map.clone(), entries_of(&model)));
            } else if op < miss {
                prop_assert_eq!(map.remove(&fresh), model.remove(&(fresh.addr(), fresh.len())));
            } else if let Some(first) = held {
                touched = first;
                let run = if op >= 97 && !growing { 1 + value as usize % 48 } else { 1 };
                let doomed: Vec<(u32, u8)> =
                    model.range((first.addr(), first.len())..).take(run).map(|(k, _)| *k).collect();
                for key in &doomed {
                    prop_assert_eq!(map.remove(&prefix_of(key)), model.remove(key));
                }
            }
            most = most.max(map.len());
            let probes = if touched == fresh { vec![fresh] } else { vec![touched, fresh] };

            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            let listed: Entries = map.iter().map(|(p, v)| (p, *v)).collect();
            prop_assert_eq!(&listed, &entries_of(&model), "iteration order at step {}", step);
            for probe in probes {
                prop_assert_eq!(map.get(&probe), model.get(&(probe.addr(), probe.len())));
                prop_assert_eq!(
                    read(map.longest_covering(&probe)),
                    scan(&model, &|p| p.contains(&probe))
                );
                prop_assert_eq!(
                    read(map.closest_ancestor(&probe)),
                    scan(&model, &|p| p.contains(&probe) && *p != probe)
                );
            }
            let ip = pool_addr(value) | value >> 29;
            prop_assert_eq!(read(map.longest_match_ip(ip)), scan(&model, &|p| p.contains_ip(ip)));
        }
        // Enough to split chunks, whatever was drawn.
        prop_assert!(most > 200, "the map only grew to {} entries", most);

        // Fork isolation: every clone still reads what the model read when
        // it was taken.
        for (fork, then) in &forks {
            let listed: Entries = fork.iter().map(|(p, v)| (p, *v)).collect();
            prop_assert_eq!(&listed, then);
            for (prefix, value) in then {
                prop_assert_eq!(fork.get(prefix), Some(value));
            }
        }
    }

    /// The RIB against a naive model: a `BTreeMap` from prefix to its
    /// candidates (one per peer), with the best picked by
    /// `decision::best_of` and covers found by linear scans. For any
    /// interleaving of announcements and withdrawals, every operation's
    /// `RibChange`, the counters, the Loc-RIB contents *in canonical
    /// order* and the longest-prefix-match answers agree with the model.
    /// A clone taken mid-sequence keeps reading what the model read at
    /// that moment while the original is written.
    #[test]
    fn rib_matches_a_naive_model(
        ops in prop::collection::vec(
            // (announce?, prefix selector, length selector, peer, path tail)
            (any::<bool>(), any::<u32>(), 0u8..=32, 1u32..5, 1u32..50),
            1..80,
        ),
        fork_sel in any::<u32>(),
        probe_ips in prop::collection::vec(any::<u32>(), 1..8),
    ) {
        use std::collections::BTreeMap;

        use dice_router::decision::best_of;
        use dice_router::{Rib, RibChange};

        type Model = BTreeMap<(u32, u8), Vec<Route>>;
        type LocRib = Vec<(Ipv4Prefix, Route)>;
        let best = |candidates: &[Route]| best_of(candidates).cloned();
        let loc_rib_of = |model: &Model| -> LocRib {
            let mut loc: LocRib = model
                .iter()
                .filter_map(|(&(addr, len), c)| Some((Ipv4Prefix::must(addr, len), best(c)?)))
                .collect();
            loc.sort_by(|a, b| canonical_cmp(a.0, b.0));
            loc
        };
        // The model's best route among the prefixes `covers` accepts,
        // most specific first.
        let scan = |model: &Model, covers: &dyn Fn(&Ipv4Prefix) -> bool| {
            model
                .iter()
                .map(|(&(addr, len), c)| (Ipv4Prefix::must(addr, len), c))
                .filter(|(p, _)| covers(p))
                .max_by_key(|(p, _)| p.len())
                .and_then(|(_, c)| best(c))
        };
        let read = |found: Option<&Route>| found.cloned();

        // A small prefix pool (coarse address grid) so withdrawals and
        // re-announcements frequently hit existing entries.
        let materialize = |sel: u32, len: u8| {
            Ipv4Prefix::new((sel % 64) << 26 | (sel % 7) << 13, len).expect("len <= 32")
        };
        let fork_step = fork_sel as usize % ops.len();
        let mut rib = Rib::new();
        let mut model = Model::new();
        let mut fork: Option<(Rib, LocRib, usize, usize)> = None;

        for (step, &(announce, sel, len, peer, tail)) in ops.iter().enumerate() {
            if step == fork_step {
                fork = Some((
                    rib.clone(),
                    loc_rib_of(&model),
                    rib.prefix_count(),
                    rib.route_count(),
                ));
            }
            let prefix = materialize(sel, len);
            let key = (prefix.addr(), prefix.len());
            let old_best = model.get(&key).and_then(|c| best(c));
            let change = if announce {
                let mut attrs = RouteAttrs::default();
                attrs.as_path = AsPath::from_sequence([1299, 100_000 + tail]);
                attrs.next_hop = std::net::Ipv4Addr::new(10, 0, 2, 1);
                let route = Route::new(prefix, attrs, PeerId(peer), peer);
                let candidates = model.entry(key).or_default();
                candidates.retain(|r| r.learned_from != route.learned_from);
                candidates.push(route.clone());
                candidates.sort_by_key(|r| r.learned_from);
                rib.announce(route)
            } else {
                if let Some(candidates) = model.get_mut(&key) {
                    candidates.retain(|r| r.learned_from != PeerId(peer));
                    if candidates.is_empty() {
                        model.remove(&key);
                    }
                }
                rib.withdraw(&prefix, PeerId(peer))
            };
            let new_best = model.get(&key).and_then(|c| best(c));
            let expected = match (old_best, new_best) {
                (old, Some(new)) if old.as_ref() != Some(&new) => RibChange::Updated(new),
                (Some(_), None) => RibChange::Removed(prefix),
                _ => RibChange::Unchanged,
            };
            prop_assert_eq!(&change, &expected, "step {}", step);
            prop_assert_eq!(change.is_change(), expected != RibChange::Unchanged);

            prop_assert_eq!(rib.prefix_count(), model.len());
            prop_assert_eq!(rib.route_count(), model.values().map(Vec::len).sum::<usize>());
            let candidates: Vec<Route> = rib.candidates(&prefix).cloned().collect();
            prop_assert_eq!(&candidates, model.get(&key).unwrap_or(&Vec::new()));
        }

        let loc: LocRib = rib.loc_rib().map(|(p, r)| (p, r.clone())).collect();
        prop_assert_eq!(&loc, &loc_rib_of(&model), "canonical order");
        for &ip in &probe_ips {
            prop_assert_eq!(read(rib.lookup_ip(ip)), scan(&model, &|p| p.contains_ip(ip)));
            let probe = Ipv4Prefix::new(ip, 26).expect("len <= 32");
            prop_assert_eq!(
                read(rib.best_covering_route(&probe)),
                scan(&model, &|p| p.contains(&probe))
            );
            prop_assert_eq!(
                read(rib.best_route(&probe)),
                model.get(&(probe.addr(), probe.len())).and_then(|c| best(c))
            );
        }

        // The clone reads the table it was taken from.
        let (fork, then, prefixes, routes) = fork.expect("fork_step < ops.len()");
        let listed: LocRib = fork.loc_rib().map(|(p, r)| (p, r.clone())).collect();
        prop_assert_eq!(&listed, &then);
        prop_assert_eq!((fork.prefix_count(), fork.route_count()), (prefixes, routes));
        for (prefix, route) in &then {
            prop_assert_eq!(fork.best_route(prefix), Some(route));
        }
    }

    /// RFC 4271 §5 leaves attribute order free: any permutation of a valid
    /// UPDATE's attribute block decodes to the same message, which encodes
    /// to the canonical (ascending type order) frame, and the replay
    /// driver counts a permuted frame as one re-encode mismatch.
    #[test]
    fn attribute_order_is_free_on_decode_and_canonical_on_encode(
        nlri in prop::collection::vec(arb_prefix(), 1..4),
        withdrawn in prop::collection::vec(arb_prefix(), 0..3),
        attrs in arb_attrs(),
        atomic_aggregate in any::<bool>(),
        aggregator in prop::option::of((any::<u32>(), any::<u32>())),
        // One sort key per attribute: sorting by them is a permutation.
        keys in prop::collection::vec(any::<u8>(), 8..9),
    ) {
        let mut attrs = attrs;
        attrs.atomic_aggregate = atomic_aggregate;
        attrs.aggregator = aggregator.map(|(asn, router_id)| Aggregator {
            asn: Asn(asn),
            router_id,
        });
        let update = UpdateMessage { withdrawn, attrs: Some(Arc::new(attrs)), nlri };
        let canonical = wire::encode(&BgpMessage::Update(update.clone())).to_vec();
        let permuted = permute_attributes(&canonical, &keys);

        let (decoded, used) = wire::decode(&permuted).expect("a permuted block decodes");
        prop_assert_eq!(used, permuted.len());
        prop_assert_eq!(&decoded, &BgpMessage::Update(update));
        prop_assert_eq!(wire::encode(&decoded).to_vec(), canonical.clone());

        let topo = figure2_topology(CustomerFilterMode::Missing);
        let mut trace = WireTrace::new();
        trace.records.push(WireRecord {
            at_ms: 0,
            node: topo.node_by_name("Provider").expect("node"),
            peer: addr::INTERNET,
            bytes: permuted.clone(),
        });
        let mut driver = WireReplayDriver::new(trace);
        driver.drive(&mut Simulator::new(&topo), 0);
        let stats = driver.stats().snapshot();
        prop_assert_eq!(stats.decode_errors, 0);
        prop_assert_eq!(stats.reencode_mismatches, u64::from(permuted != canonical));
    }
}

/// `frame` (an encoded UPDATE) with its attributes reordered by `keys`:
/// the attribute holding the smallest key comes first, ties keep their
/// order.
fn permute_attributes(frame: &[u8], keys: &[u8]) -> Vec<u8> {
    let be16 = |at: usize| u16::from_be_bytes([frame[at], frame[at + 1]]) as usize;
    let withdrawn_end = wire::HEADER_LEN + 2 + be16(wire::HEADER_LEN);
    let block_start = withdrawn_end + 2;
    let block_end = block_start + be16(withdrawn_end);
    let mut block = &frame[block_start..block_end];
    let mut attributes = Vec::new();
    while !block.is_empty() {
        // Flags, code, then a one- or two-octet length (extended flag 0x10).
        let (header, len) = if block[0] & 0x10 != 0 {
            (4, u16::from_be_bytes([block[2], block[3]]) as usize)
        } else {
            (3, block[2] as usize)
        };
        let (attribute, rest) = block.split_at(header + len);
        attributes.push(attribute);
        block = rest;
    }
    let mut order: Vec<usize> = (0..attributes.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    let mut permuted = frame[..block_start].to_vec();
    for i in order {
        permuted.extend_from_slice(attributes[i]);
    }
    permuted.extend_from_slice(&frame[block_end..]);
    permuted
}

/// The canonical table order: lexicographic over prefix bit strings, with
/// a prefix sorting before anything it covers. The models above sort by
/// it; `PrefixMap` and `Rib::loc_rib` must iterate in it.
fn canonical_cmp(a: Ipv4Prefix, b: Ipv4Prefix) -> std::cmp::Ordering {
    let common = a.len().min(b.len());
    let mask = if common == 0 {
        0
    } else {
        u32::MAX << (32 - common)
    };
    (a.addr() & mask)
        .cmp(&(b.addr() & mask))
        .then(a.len().cmp(&b.len()))
}

/// Deterministic fault-injection properties: a [`FaultPlan`] is a pure
/// function of its specs and seed. Fewer cases than the blocks above —
/// each case drives full simulations (and live exploration rounds).
fn faulty_figure2_run(plan: FaultPlan) -> (String, String, dice_netsim::SimStats) {
    let topo = figure2_topology(CustomerFilterMode::Missing);
    let provider = topo.node_by_name("Provider").expect("node");
    let mut sim = Simulator::new(&topo).with_fault_plan(plan);
    let blocks = ["41.1.0.0/16", "41.64.0.0/12", "198.51.100.0/24"];
    for (epoch, block) in blocks.iter().enumerate() {
        sim.apply_epoch_faults(epoch as u64);
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence([17557, 17557]);
        attrs.next_hop = std::net::Ipv4Addr::new(10, 0, 1, 1);
        sim.inject(
            provider,
            addr::CUSTOMER,
            BgpMessage::Update(UpdateMessage::announce(
                vec![block.parse().expect("valid")],
                &attrs,
            )),
        );
        sim.run_to_quiescence(100);
    }
    (
        format!("{:?}", sim.observed_log()),
        sim.fault_trace().digest(),
        sim.stats(),
    )
}

fn live_digest_under(plan: Option<FaultPlan>) -> String {
    let topo = figure2_topology(CustomerFilterMode::Missing);
    let provider = topo.node_by_name("Provider").expect("node");
    let mut sim = Simulator::new(&topo);
    let session = DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(4))
        .build();
    let mut orchestrator = LiveOrchestrator::new(session);
    if let Some(plan) = plan {
        orchestrator = orchestrator.with_fault_plan(plan);
    }
    let blocks = ["41.1.0.0/16", "41.64.0.0/12"];
    orchestrator
        .run(&mut sim, |sim, epoch| {
            if let Some(block) = blocks.get(epoch) {
                let mut attrs = RouteAttrs::default();
                attrs.as_path = AsPath::from_sequence([17557, 17557]);
                attrs.next_hop = std::net::Ipv4Addr::new(10, 0, 1, 1);
                sim.inject(
                    provider,
                    addr::CUSTOMER,
                    BgpMessage::Update(UpdateMessage::announce(
                        vec![block.parse().expect("valid")],
                        &attrs,
                    )),
                );
            }
            epoch + 1 < blocks.len()
        })
        .digest()
}

fn arb_message_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0u32..=100, 0u32..=100, 0u32..=100, 1u64..4).prop_map(
        |(seed, p_drop, p_dup, p_reorder, ticks)| {
            let (p_drop, p_dup, p_reorder) = (
                f64::from(p_drop) / 100.0,
                f64::from(p_dup) / 100.0,
                f64::from(p_reorder) / 100.0,
            );
            let a = NodeId(1); // Provider
            let b = NodeId(2); // RestOfInternet
            FaultPlan::new(seed)
                .with_spec(FaultSpec::MessageDrop {
                    a,
                    b,
                    probability: p_drop,
                })
                .with_spec(FaultSpec::MessageDuplicate {
                    a,
                    b,
                    probability: p_dup,
                })
                .with_spec(FaultSpec::MessageReorder {
                    a,
                    b,
                    probability: p_reorder,
                    max_extra_ticks: ticks,
                })
        },
    )
}

fn arb_partition_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0usize..3, 0u64..2, prop::option::of(2u64..4)).prop_map(
        |(seed, node, cut_epoch, heal_epoch)| {
            let mut plan = FaultPlan::new(seed).with_spec(FaultSpec::Partition {
                nodes: vec![NodeId(node)],
                epoch: cut_epoch,
            });
            if let Some(epoch) = heal_epoch {
                plan = plan.with_spec(FaultSpec::Heal {
                    nodes: vec![NodeId(node)],
                    epoch,
                });
            }
            plan
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Replay contract: the same plan (specs + seed) over the same driver
    /// sequence reproduces the delivery log, the fault trace and the
    /// simulation counters byte for byte.
    #[test]
    fn fault_replay_is_byte_identical_for_same_plan_and_seed(plan in arb_message_plan()) {
        let first = faulty_figure2_run(plan.clone());
        let second = faulty_figure2_run(plan);
        prop_assert_eq!(first.0, second.0, "delivery logs diverged");
        prop_assert_eq!(first.1, second.1, "fault traces diverged");
        prop_assert_eq!(first.2, second.2, "stats diverged");
    }

    /// An empty plan — whatever its seed — injects nothing: the simulator
    /// log and the live exploration digest are byte-identical to a run
    /// with no plan installed at all.
    #[test]
    fn empty_fault_plan_leaves_every_digest_unchanged(seed in any::<u64>()) {
        let baseline = faulty_figure2_run(FaultPlan::default());
        let seeded = faulty_figure2_run(FaultPlan::new(seed));
        prop_assert_eq!(baseline.0, seeded.0);
        prop_assert_eq!(&seeded.1, "", "an empty plan records nothing");
        prop_assert_eq!(baseline.2, seeded.2);
    }

    /// The live orchestration path upholds both contracts end to end:
    /// same plan, same digest; empty plan, unperturbed digest.
    #[test]
    fn live_digests_are_replayable_and_fault_free_without_a_plan(plan in arb_message_plan(), seed in any::<u64>()) {
        prop_assert_eq!(
            live_digest_under(Some(plan.clone())),
            live_digest_under(Some(plan)),
            "faulty live runs must replay byte for byte"
        );
        prop_assert_eq!(
            live_digest_under(Some(FaultPlan::new(seed))),
            live_digest_under(None),
            "an empty plan must not change live exploration"
        );
    }

    /// Partition/heal specs uphold the same replay contract as the
    /// single-link specs: the multi-link sever (and its per-link session
    /// resets) is deterministic from the plan alone.
    #[test]
    fn partition_plans_replay_byte_identically(plan in arb_partition_plan()) {
        let first = faulty_figure2_run(plan.clone());
        let second = faulty_figure2_run(plan.clone());
        prop_assert_eq!(first.0, second.0, "delivery logs diverged");
        prop_assert_eq!(first.1, second.1, "fault traces diverged");
        prop_assert_eq!(first.2, second.2, "stats diverged");
        prop_assert_eq!(
            live_digest_under(Some(plan.clone())),
            live_digest_under(Some(plan)),
            "partitioned live runs must replay byte for byte"
        );
    }
}

/// One fleet round over a perturbed Figure 2 simulation: the fleet digest
/// plus each node's exploration digest, for the out-of-band tracing
/// property below.
fn fleet_digests_under(plan: FaultPlan) -> (String, Vec<String>) {
    let topo = figure2_topology(CustomerFilterMode::Missing);
    let provider = topo.node_by_name("Provider").expect("node");
    let mut sim = Simulator::new(&topo).with_fault_plan(plan);
    for (epoch, block) in ["41.1.0.0/16", "41.64.0.0/12"].iter().enumerate() {
        sim.apply_epoch_faults(epoch as u64);
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence([17557, 17557]);
        attrs.next_hop = std::net::Ipv4Addr::new(10, 0, 1, 1);
        sim.inject(
            provider,
            addr::CUSTOMER,
            BgpMessage::Update(UpdateMessage::announce(
                vec![block.parse().expect("valid")],
                &attrs,
            )),
        );
        sim.run_to_quiescence(100);
    }
    let session = DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(4))
        .build();
    let fleet = FleetExplorer::new(session).explore(&sim);
    let nodes = fleet.nodes.iter().map(|n| n.report.digest()).collect();
    (fleet.digest(), nodes)
}

/// Overwrites a few bytes of a well-formed encoding and optionally cuts it
/// short: damage that gets past the framing checks and into the field
/// decoders far more often than uniformly random bytes do.
fn corrupt(mut bytes: Vec<u8>, edits: &[(usize, u8)], cut: Option<usize>) -> Vec<u8> {
    for &(at, value) in edits {
        if !bytes.is_empty() {
            let at = at % bytes.len();
            bytes[at] = value;
        }
    }
    if let Some(cut) = cut {
        bytes.truncate(cut % (bytes.len() + 1));
    }
    bytes
}

fn arb_damage() -> impl Strategy<Value = (Vec<(usize, u8)>, Option<usize>)> {
    (
        prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        prop::option::of(any::<usize>()),
    )
}

/// Hostile BGP frames: arbitrary bytes, arbitrary bodies under a header
/// whose marker and length are right, and valid UPDATEs with damage.
fn arb_hostile_frame() -> impl Strategy<Value = Vec<u8>> {
    let raw = prop::collection::vec(any::<u8>(), 0..64);
    let framed = (any::<u8>(), prop::collection::vec(any::<u8>(), 0..64)).prop_map(
        |(message_type, body)| {
            let mut frame = vec![0xff; 16];
            frame.extend_from_slice(&((wire::HEADER_LEN + body.len()) as u16).to_be_bytes());
            frame.push(message_type % 6);
            frame.extend_from_slice(&body);
            frame
        },
    );
    let damaged = (
        prop::collection::vec(arb_prefix(), 0..4),
        prop::collection::vec(arb_prefix(), 0..4),
        arb_attrs(),
        arb_damage(),
    )
        .prop_map(|(nlri, withdrawn, attrs, (edits, cut))| {
            let update = UpdateMessage {
                withdrawn,
                attrs: Some(Arc::new(attrs)),
                nlri,
            };
            let bytes = wire::encode(&BgpMessage::Update(update)).to_vec();
            corrupt(bytes, &edits, cut)
        });
    prop_oneof![raw, framed, damaged]
}

/// Hostile serialized wire traces: arbitrary bytes, arbitrary bytes after
/// a good magic and version, and valid traces with damage.
fn arb_hostile_trace_bytes() -> impl Strategy<Value = Vec<u8>> {
    let raw = prop::collection::vec(any::<u8>(), 0..64);
    let headed = prop::collection::vec(any::<u8>(), 0..64).prop_map(|tail| {
        let mut bytes = WireTrace::new().to_bytes()[..10].to_vec();
        bytes.extend_from_slice(&tail);
        bytes
    });
    let damaged = (
        prop::collection::vec(
            (any::<u64>(), prop::collection::vec(any::<u8>(), 0..24)),
            0..4,
        ),
        arb_damage(),
    )
        .prop_map(|(records, (edits, cut))| {
            let mut trace = WireTrace::new();
            for (at_ms, bytes) in records {
                trace.push_raw(at_ms, NodeId(1), addr::CUSTOMER, bytes);
            }
            corrupt(trace.to_bytes(), &edits, cut)
        });
    prop_oneof![raw, headed, damaged]
}

/// Hostile filter sources: arbitrary (lossily decoded) bytes, random
/// sequences of the language's own tokens, printed filters with damage, and
/// deep nesting.
fn arb_hostile_filter_source() -> impl Strategy<Value = String> {
    const VOCABULARY: [&str; 40] = [
        "filter",
        "f",
        "{",
        "}",
        "[",
        "]",
        "(",
        ")",
        ",",
        ";",
        "/",
        "~",
        "=",
        "!=",
        "<",
        "<=",
        ">",
        ">=",
        "!",
        "&&",
        "||",
        "+",
        "if",
        "then",
        "else",
        "accept",
        "reject",
        "net",
        "net.len",
        "med",
        "local_pref",
        "community",
        "add",
        "prepend",
        "true",
        "10.0.0.0",
        "24",
        "300",
        "99999999999999999999",
        "é",
    ];
    let raw = prop::collection::vec(any::<u8>(), 0..64)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned());
    let soup = prop::collection::vec(0usize..VOCABULARY.len(), 0..24).prop_map(|words| {
        let words: Vec<&str> = words.into_iter().map(|w| VOCABULARY[w]).collect();
        words.join(" ")
    });
    // Printable replacements: a changed digit or operator still lexes, so
    // the damage reaches the parser.
    let damaged = (arb_policy_filter(), arb_damage()).prop_map(|(filter, (edits, cut))| {
        let edits: Vec<(usize, u8)> = edits
            .into_iter()
            .map(|(at, b)| (at, b' ' + b % 95))
            .collect();
        let bytes = corrupt(filter.to_string().into_bytes(), &edits, cut);
        String::from_utf8_lossy(&bytes).into_owned()
    });
    // Nesting from well under the parser's limit to far over it, of every
    // kind it counts — parentheses, negations, operator chains, `if`s —
    // closed properly, so that whatever is shallow enough parses.
    let nested = (prop::collection::vec(0u8..4, 0..160), 0usize..100).prop_map(|(layers, ifs)| {
        let mut open = String::new();
        let mut close = String::new();
        for layer in layers {
            let (before, after) = match layer {
                0 => ("(", ")"),
                1 => ("!", ""),
                2 => ("(true && ", ")"),
                _ => ("med = 1 || ", ""),
            };
            open.push_str(before);
            close.insert_str(0, after);
        }
        format!(
            "filter f {{ {}if {open}true{close} then accept;{} }}",
            "if true then { ".repeat(ifs),
            " }".repeat(ifs),
        )
    });
    prop_oneof![raw, soup, damaged, nested]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// No byte string panics the BGP decoder or makes it claim more bytes
    /// than it was given, and whatever it accepts is a fixed point of
    /// `decode ∘ encode`.
    #[test]
    fn wire_decode_survives_hostile_bytes(bytes in arb_hostile_frame()) {
        if let Ok((msg, used)) = wire::decode(&bytes) {
            prop_assert!(used <= bytes.len());
            let canonical = wire::encode(&msg);
            let (again, used_again) = wire::decode(&canonical).expect("own encoding decodes");
            prop_assert_eq!(used_again, canonical.len());
            prop_assert_eq!(wire::encode(&again), canonical);
            prop_assert_eq!(again, msg);
        }
    }

    /// No byte string panics the wire-trace parser, and whatever it
    /// accepts re-serializes to bytes that parse back to the same trace.
    #[test]
    fn wire_trace_parser_survives_hostile_bytes(bytes in arb_hostile_trace_bytes()) {
        if let Ok(trace) = WireTrace::from_bytes(&bytes) {
            let canonical = trace.to_bytes();
            prop_assert!(canonical.len() <= bytes.len());
            let again = WireTrace::from_bytes(&canonical).expect("own serialization parses");
            prop_assert_eq!(again.to_bytes(), canonical);
            prop_assert_eq!(again, trace);
        }
    }

    /// No string panics the policy lexer or parser, and whatever parses
    /// prints to source that parses back to the same filter.
    #[test]
    fn policy_parser_survives_hostile_source(source in arb_hostile_filter_source()) {
        if let Ok(filter) = parse_filter(&source) {
            let printed = filter.to_string();
            let again = parse_filter(&printed).expect("printed filter parses");
            prop_assert_eq!(again.to_string(), printed);
            prop_assert_eq!(again, filter);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Tracing is out-of-band by construction: for any fault plan, every
    /// report digest — exploration, fleet and live — is byte-identical
    /// whether no sink is installed, the no-op sink is installed, or the
    /// buffered recorder is capturing every span. The recorder itself
    /// observes a non-empty, sequence-ordered event stream, proving the
    /// instrumentation actually fired while changing nothing.
    #[test]
    fn report_digests_are_identical_under_any_trace_sink(plan in arb_message_plan()) {

        let baseline_live = live_digest_under(Some(plan.clone()));
        let (baseline_fleet, baseline_nodes) = fleet_digests_under(plan.clone());

        let noop_live = {
            let _guard = SinkGuard::install(Arc::new(NoopSink));
            live_digest_under(Some(plan.clone()))
        };
        prop_assert_eq!(&baseline_live, &noop_live, "no-op sink changed a live digest");

        let recorder = Arc::new(BufferedRecorder::new());
        let (recorded_live, recorded_fleet, recorded_nodes) = {
            let _guard = SinkGuard::install(recorder.clone());
            let live = live_digest_under(Some(plan.clone()));
            let (fleet, nodes) = fleet_digests_under(plan);
            (live, fleet, nodes)
        };
        prop_assert_eq!(&baseline_live, &recorded_live, "recorder changed a live digest");
        prop_assert_eq!(&baseline_fleet, &recorded_fleet, "recorder changed a fleet digest");
        prop_assert_eq!(
            &baseline_nodes,
            &recorded_nodes,
            "recorder changed a node exploration digest"
        );

        let events = recorder.drain();
        prop_assert!(!events.is_empty(), "the live run emits spans");
        prop_assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}

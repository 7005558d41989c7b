//! End-to-end: coverage-guided fault-plan search discovers a BGP wedgie.
//!
//! The scenario is the Figure 2 topology with a *correctly missing* filter
//! (no checker fires on a quiescent run): the Customer announces its block
//! at epoch 0, and later epochs carry unrelated Internet-side traffic so
//! the fleet round clock keeps ticking. Partitioning the Customer makes
//! the Provider flush the customer-learned route and send an *observed*
//! withdrawal to the Internet — which then stays withdrawn forever: a
//! wedgie. The search, restricted to partition/heal specs and starting
//! from the empty plan, must discover this, shrink the triggering plan to
//! a 1-minimal repro, and replay it byte-identically.

use dice::prelude::*;

/// The healed-partition scenario described in the module docs.
struct WedgieScenario;

impl FaultScenario for WedgieScenario {
    fn build(&self) -> Simulator {
        Simulator::new(&figure2_topology(CustomerFilterMode::Missing))
    }

    fn drive(&self, sim: &mut Simulator, epoch: usize) -> bool {
        let provider = NodeId(1);
        let mut attrs = RouteAttrs::default();
        if epoch == 0 {
            attrs.as_path = AsPath::from_sequence([asn::CUSTOMER, asn::CUSTOMER]);
            attrs.next_hop = addr::CUSTOMER;
            sim.inject(
                provider,
                addr::CUSTOMER,
                BgpMessage::Update(UpdateMessage::announce(
                    vec!["41.1.0.0/16".parse().expect("valid")],
                    &attrs,
                )),
            );
        } else {
            attrs.as_path = AsPath::from_sequence([asn::INTERNET, 3356]);
            attrs.next_hop = addr::INTERNET;
            let block = format!("198.51.{}.0/24", 99 + epoch);
            sim.inject(
                provider,
                addr::INTERNET,
                BgpMessage::Update(UpdateMessage::announce(
                    vec![block.parse().expect("valid")],
                    &attrs,
                )),
            );
        }
        epoch < 3
    }
}

fn wedgie_orchestrator() -> LiveOrchestrator {
    let session = DiceBuilder::new()
        .engine(EngineConfig::default().with_max_runs(2))
        .checker(Box::new(BgpWedgieChecker::new()))
        .build();
    LiveOrchestrator::new(session)
}

fn wedgie_search() -> FaultPlanSearch {
    FaultPlanSearch::new(wedgie_orchestrator())
        .with_seed(1)
        .with_budget(8)
        .with_epoch_horizon(3)
        .with_spec_kinds(SpecKindMask::only_partitions())
}

/// Re-runs `plan` through a fresh orchestrator over the scenario and
/// returns the fleet keys of every reported fault.
fn fault_keys_under(plan: FaultPlan) -> Vec<String> {
    let mut sim = WedgieScenario.build();
    let report = wedgie_orchestrator()
        .with_fault_plan(plan)
        .run(&mut sim, |sim, epoch| WedgieScenario.drive(sim, epoch));
    report
        .faults
        .iter()
        .map(|f| dice::core::fault_key(&f.fault))
        .collect()
}

#[test]
fn search_discovers_a_wedgie_the_empty_plan_control_never_shows() {
    let report = wedgie_search().run(&WedgieScenario);

    // The empty-plan control run is clean: the wedgie exists only in the
    // perturbed executions the search synthesized.
    assert!(
        report.baseline_fault_keys.is_empty(),
        "quiescent Figure 2 with the filter missing must be fault-free, got {:?}",
        report.baseline_fault_keys
    );
    assert!(
        !report.repros.is_empty(),
        "the search found no wedgie:\n{}",
        report.digest()
    );
    let repro = &report.repros[0];
    assert_eq!(repro.fault.checker, "bgp-wedgie");
    assert!(repro.fault_key.starts_with("bgp-wedgie|41.1.0.0/16|"));
    // Partitions-only mask: the minimized trigger is a partition spec,
    // not a bare session reset.
    assert!(repro
        .plan
        .specs()
        .iter()
        .all(|s| matches!(s, FaultSpec::Partition { .. } | FaultSpec::Heal { .. })));

    // The report's search counters flow into the baseline LiveReport.
    let summary = report.report.search.expect("search summary attached");
    assert_eq!(summary.plans_tried, 8);
    assert_eq!(summary.minimized_repros, report.repros.len() as u64);
    assert!(report.report.digest().contains("search:plans=8"));
}

#[test]
fn minimized_repros_are_one_minimal() {
    let report = wedgie_search().run(&WedgieScenario);
    assert!(!report.repros.is_empty(), "{}", report.digest());

    for repro in &report.repros {
        // The minimized plan itself still triggers.
        assert!(
            fault_keys_under(repro.plan.clone()).contains(&repro.fault_key),
            "minimized plan no longer triggers {}",
            repro.fault_key
        );
        // Removing any single spec loses the fault. (For a 1-spec plan
        // the reduced plan is empty — exactly the clean control run.)
        for index in 0..repro.plan.specs().len() {
            let mut reduced = FaultPlan::new(repro.plan.seed());
            for (i, spec) in repro.plan.specs().iter().enumerate() {
                if i != index {
                    reduced = reduced.with_spec(spec.clone());
                }
            }
            assert!(
                !fault_keys_under(reduced).contains(&repro.fault_key),
                "spec {index} of {} specs is removable: not 1-minimal",
                repro.plan.specs().len()
            );
        }
    }
}

#[test]
fn repro_bundles_replay_to_byte_identical_digests() {
    let search = wedgie_search();
    let report = search.run(&WedgieScenario);
    assert!(!report.repros.is_empty(), "{}", report.digest());

    for repro in &report.repros {
        let first = search.replay(&WedgieScenario, repro);
        let second = repro.replay(search.orchestrator(), &WedgieScenario);
        assert!(repro.matches(&first), "first replay diverged");
        assert_eq!(first.trace_digest, second.trace_digest);
        assert_eq!(first.live_digest, second.live_digest);
        assert_eq!(first.trace_digest, repro.expected_trace_digest);
        assert_eq!(first.live_digest, repro.expected_live_digest);
        assert!(!repro.topology_fingerprint.is_empty());
        assert_eq!(
            repro.topology_fingerprint,
            dice::core::topology_fingerprint(&WedgieScenario.build())
        );
    }
}

#[test]
fn a_search_is_deterministic_end_to_end() {
    let first = wedgie_search().run(&WedgieScenario);
    let second = wedgie_search().run(&WedgieScenario);
    assert_eq!(first.digest(), second.digest());
    assert_eq!(first.repros.len(), second.repros.len());
    for (a, b) in first.repros.iter().zip(&second.repros) {
        assert_eq!(a.plan.specs(), b.plan.specs());
        assert_eq!(a.expected_trace_digest, b.expected_trace_digest);
        assert_eq!(a.expected_live_digest, b.expected_live_digest);
        assert_eq!(a.expected_trace_fingerprint, b.expected_trace_fingerprint);
    }
}

#[test]
fn runs_without_search_render_no_search_fields() {
    // A plain orchestrator run must be byte-identical to what it was
    // before the search existed: no search line in the live digest, zeroed
    // search counters in the snapshot, every other field line intact.
    let orchestrator = wedgie_orchestrator();
    let plane = orchestrator.control_plane();
    let mut sim = WedgieScenario.build();
    let report = orchestrator.run(&mut sim, |sim, epoch| WedgieScenario.drive(sim, epoch));

    assert!(report.search.is_none());
    assert!(!report.digest().contains("search:"));
    assert!(!report.to_string().contains("fault search"));

    let snapshot = plane.sample();
    let rendered = snapshot.render();
    assert!(rendered.contains("search plans=0 novel=0 repros=0"));
    assert!(rendered.starts_with("control-snapshot v5\n"));
    // The counters line still leads the render, byte-for-byte.
    assert!(rendered.contains(&format!(
        "rounds={} runs={} faults={} injected={} delivered={} watermark={}\n",
        snapshot.rounds,
        snapshot.total_runs,
        snapshot.distinct_faults,
        snapshot.injected_faults,
        snapshot.delivered,
        snapshot.compaction_watermark,
    )));

    // After a search over the same control plane, only the appended
    // counters change.
    let search_report = FaultPlanSearch::new(orchestrator)
        .with_seed(1)
        .with_budget(2)
        .with_epoch_horizon(3)
        .with_spec_kinds(SpecKindMask::only_partitions())
        .run(&WedgieScenario);
    let after = plane.sample();
    assert_eq!(after.search.plans, search_report.plans_tried as u64);
    assert_eq!(after.search.novel, search_report.novel_plans as u64);
}

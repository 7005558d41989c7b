//! `explore_heavy`: concolic exploration of a many-armed import filter
//! against a router holding 100,000 prefixes. Every round explores another
//! window of a pool of customer announcements.
//!
//! `dice_symexec`, `dice_solver` and the checkers dominate. The wire codec,
//! the simulator and RIB writes do nothing, and the RIB is only read, and
//! only through the round's fork: a checkpoint that made exploration cost
//! grow with the table would show here at once.

use dice_bgp::message::UpdateMessage;
use dice_bgp::prefix::Ipv4Prefix;
use dice_bgp::route::PeerId;
use dice_core::{DiceBuilder, DiceSession};
use dice_netsim::topology::{addr, figure2_topology_with_customer_filter};
use dice_netsim::Replayer;
use dice_router::policy::parse_filter;
use dice_router::BgpRouter;

use crate::measure::{self, timed, Stopwatch};
use crate::scenario::{self, ExploreTotals, PROVIDER};
use crate::{probes, spans, Config, Measured, Outcome, Pass};

/// Announcements one round explores: round `r` takes the pool's inputs
/// `r .. r + INPUTS_PER_ROUND`, so no two rounds do the same work.
const INPUTS_PER_ROUND: usize = 16;

/// The Provider's customer import filter: sixteen arms over every field
/// the policy language can test, with nesting and `||`.
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

struct Sizes {
    prefixes: usize,
    rounds: usize,
    setups: usize,
}

/// Exploring leaves the router as it was, so every set-up serves three
/// passes: more repeats for each round to find a quiet moment in.
const PASSES_PER_SETUP: usize = 3;

impl Sizes {
    fn new(config: &Config) -> Self {
        if config.quick {
            Sizes {
                prefixes: 5_000,
                rounds: 6,
                setups: 2,
            }
        } else {
            Sizes {
                prefixes: 100_000,
                rounds: config.scaled(100),
                setups: 4,
            }
        }
    }
}

/// What set-up produces: the loaded Provider, the session, and the pool of
/// customer announcements the rounds explore from.
struct Loaded {
    router: BgpRouter,
    session: DiceSession,
    pool: Vec<(PeerId, UpdateMessage)>,
}

fn setup(sizes: &Sizes, seed: u64) -> Loaded {
    let trace = {
        let _span = spans::scope("netsim.trace.generate");
        scenario::internet_trace(sizes.prefixes, 1, seed)
    };
    let filter = parse_filter(CUSTOMER_IN).expect("the benchmark's filter parses");
    assert!(filter.branch_count() >= 14);
    let topology = figure2_topology_with_customer_filter(filter);
    let mut router = BgpRouter::new(topology.nodes()[PROVIDER.0].config.clone());
    router.start();
    let internet = router
        .peer_by_address(addr::INTERNET)
        .expect("the Provider peers with the Internet");
    router.handle_update(internet, &scenario::victim_announcement());
    let loaded = Replayer::new(&trace, addr::INTERNET).load_table(&mut router);
    assert_eq!(loaded.updates_fed as usize, sizes.prefixes);
    assert!(
        trace
            .table
            .iter()
            .all(|u| router.rib().best_route(&u.nlri[0]).is_some()),
        "a table prefix is missing from the Provider's Loc-RIB"
    );

    let customer = router
        .peer_by_address(addr::CUSTOMER)
        .expect("the Provider peers with the Customer");
    let pool = (0..(sizes.rounds + INPUTS_PER_ROUND - 1) as u32)
        .map(|i| {
            // Routine announcements across the customer's two /12s: one
            // origin AS per four inputs, and MEDs on both sides of the
            // filter's thresholds.
            let prefix = Ipv4Prefix::new((41 << 24) | ((i % 32) << 16) | ((i / 32 % 4) << 14), 18)
                .expect("an /18");
            let origin = 17_557 + i / 4 % 8;
            let mut attrs = scenario::customer_announcement(prefix, origin).route_attrs();
            attrs.med = Some(40 * (i % 20));
            (customer, UpdateMessage::announce(vec![prefix], &attrs))
        })
        .collect();
    let session = DiceBuilder::new()
        .workers(measure::cores())
        .max_observed_inputs(INPUTS_PER_ROUND)
        .build();
    Loaded {
        router,
        session,
        pool,
    }
}

/// What one pass leaves behind: a hash of every round's report digest, and
/// the exploration counters summed over the rounds.
struct Explored {
    digests: Vec<u64>,
    totals: ExploreTotals,
    faults: usize,
}

/// The timed stretch: one `DiceSession::explore` call per round.
fn pass(sizes: &Sizes, loaded: &Loaded, measured: &mut Measured) -> (Pass, Explored) {
    let mut explored = Explored {
        digests: Vec::with_capacity(sizes.rounds),
        totals: ExploreTotals::default(),
        faults: 0,
    };
    let mut round_ms = Vec::with_capacity(sizes.rounds);
    let mut isolated = true;
    let root = spans::scope(spans::ROOT);
    let watch = Stopwatch::start();
    for round in 0..sizes.rounds {
        spans::set_round(round);
        let inputs = &loaded.pool[round..round + INPUTS_PER_ROUND];
        let (report, round_s) = timed(|| {
            let _span = spans::scope("core.explore");
            loaded.session.explore(&loaded.router, inputs)
        });
        round_ms.push(round_s * 1e3);
        explored.totals.add(&report);
        explored.digests.push(scenario::fnv1a(&report.digest()));
        explored.faults += report.faults.len();
        isolated &= report.isolation_preserved;
    }
    let (wall_s, cpu_s) = watch.stop();
    drop(root);

    let solver = &explored.totals.solver;
    measured.work_units = explored.totals.runs;
    measured.attempted += solver.queries;
    measured.failed += solver.unknown;
    measured.check(isolated, || {
        "exploration changed the live router".to_string()
    });
    measured.check(explored.faults > 0, || {
        "exploration found no fault behind the filter".to_string()
    });
    let timing = Pass {
        wall_s,
        cpu_s,
        round_ms,
    };
    (timing, explored)
}

pub fn run(config: &Config) -> Outcome {
    let sizes = Sizes::new(config);
    let mut layers = Vec::new();
    if config.trace {
        layers.extend(probes::layers(sizes.prefixes, config.seed));
    }

    let mut measured = Measured::new("run");
    let mut traced = config.trace.then(|| Measured::new("run"));
    let setup = || setup(&sizes, config.seed);
    let (mut explored, mut explored_traced) = (Vec::new(), Vec::new());
    for _ in 0..sizes.setups {
        explored.extend(
            measured.run_setup(PASSES_PER_SETUP, setup, |loaded, m| pass(&sizes, loaded, m)),
        );
        if let Some(traced) = &mut traced {
            let _recording = spans::record();
            explored_traced.extend(
                traced.run_setup(PASSES_PER_SETUP, setup, |loaded, m| pass(&sizes, loaded, m)),
            );
        }
    }

    // A round whose report differs from the first pass's counts as failed.
    let first = &explored[0];
    let differing: usize = explored
        .iter()
        .chain(&explored_traced)
        .map(|e| {
            let pairs = e.digests.iter().zip(&first.digests);
            pairs.filter(|(a, b)| a != b).count()
        })
        .sum();
    measured.failed += differing as u64;
    measured.check(differing == 0, || {
        format!("{differing} round(s) differ from the first pass's")
    });
    let all_rounds: String = first.digests.iter().map(|d| format!("{d:016x}")).collect();
    let observed = vec![
        (
            "report_digest",
            format!("{:016x}", scenario::fnv1a(&all_rounds)),
        ),
        ("runs_per_pass", first.totals.runs.to_string()),
        ("queries_per_pass", first.totals.solver.queries.to_string()),
        ("faults_per_pass", first.faults.to_string()),
    ];

    if let Some(traced) = &traced {
        let quietest = traced.quietest_pass();
        let span_totals = spans::timed_totals(quietest);
        let totals = &explored_traced[quietest].totals;
        layers.extend(totals.layers(span_totals["core.explore"].total_s));
        layers.extend([
            (
                "netsim.trace.generate_s",
                spans::untimed_totals()["netsim.trace.generate"].total_s / sizes.setups as f64,
            ),
            ("core.rounds", sizes.rounds as f64),
            ("core.faults", first.faults as f64),
            ("core.inputs_harvested", totals.inputs as f64),
            ("core.inputs_explored_ratio", 1.0),
        ]);
    }

    Outcome {
        measured,
        traced,
        layers,
        observed,
    }
}

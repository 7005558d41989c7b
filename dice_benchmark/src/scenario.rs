//! Pieces of the Figure 2 scenario shared by the workloads.

use dice_bgp::attributes::RouteAttrs;
use dice_bgp::message::UpdateMessage;
use dice_bgp::prefix::Ipv4Prefix;
use dice_bgp::AsPath;
use dice_netsim::topology::{addr, asn, NodeId};
use dice_netsim::{generate_trace, BgpTrace, Simulator, TraceGenConfig, WireTrace};
use dice_router::Rib;

/// The DiCE-enabled Provider: `figure2_topology` always adds it second.
pub const PROVIDER: NodeId = NodeId(1);
pub const CUSTOMER: NodeId = NodeId(0);

/// Enough simulator ticks that no epoch of any workload is cut short; the
/// workloads assert the queue is empty afterwards.
pub const QUIESCE_STEPS: u64 = 1_000_000;

/// The synthetic table and update trace the Internet peer announces. The
/// seed reaches the library here and in `FaultPlanSearch::with_seed` only.
pub fn internet_trace(prefixes: usize, updates: usize, seed: u64) -> BgpTrace {
    assert!(
        prefixes > 0,
        "generate_trace panics on an empty table (see README, known bugs)"
    );
    let config = TraceGenConfig {
        prefix_count: prefixes,
        update_count: updates,
        seed,
        ..TraceGenConfig::paper_scale()
    };
    generate_trace(&config, asn::INTERNET, addr::INTERNET)
}

/// YouTube's 208.65.152.0/22 as the Internet announces it: the route a
/// customer leak would hijack.
pub fn victim_announcement() -> UpdateMessage {
    let mut attrs = RouteAttrs::default();
    attrs.as_path = AsPath::from_sequence([asn::INTERNET, 3356, asn::VICTIM]);
    attrs.next_hop = addr::INTERNET;
    UpdateMessage::announce(
        vec!["208.65.152.0/22".parse().expect("valid prefix")],
        &attrs,
    )
}

/// A Customer announcement of `prefix`, originated by `origin_as` behind
/// the customer.
pub fn customer_announcement(prefix: Ipv4Prefix, origin_as: u32) -> UpdateMessage {
    let mut attrs = RouteAttrs::default();
    attrs.as_path = AsPath::from_sequence([asn::CUSTOMER, asn::CUSTOMER, origin_as]);
    attrs.next_hop = addr::CUSTOMER;
    UpdateMessage::announce(vec![prefix], &attrs)
}

/// Frames `updates` as the Provider receives them from the Internet peer.
pub fn frame_for_provider<'a>(updates: impl Iterator<Item = &'a UpdateMessage>) -> WireTrace {
    let mut wire = WireTrace::new();
    for update in updates {
        wire.push_update(0, PROVIDER, addr::INTERNET, update);
    }
    wire
}

/// Runs the simulator until nothing is in flight and returns the steps
/// taken.
pub fn quiesce(sim: &mut Simulator) -> u64 {
    let steps = sim.run_to_quiescence(QUIESCE_STEPS);
    assert_eq!(sim.pending(), 0, "the quiesce budget truncated an epoch");
    steps
}

/// FNV-1a over a rendering; digests are committed as these 64-bit hashes.
pub fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A fingerprint of a Loc-RIB: every prefix with its best route's AS path,
/// in the RIB's own iteration order.
pub fn loc_rib_fingerprint(rib: &Rib) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |value: u64| {
        hash ^= value;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (prefix, route) in rib.loc_rib() {
        mix(u64::from(prefix.addr()) << 8 | u64::from(prefix.len()));
        for asn in route.attrs.as_path.flatten() {
            mix(u64::from(asn.value()));
        }
    }
    hash
}

/// Exploration counters summed over `ExplorationReport`s, and the
/// per-layer metrics they give.
#[derive(Default)]
pub struct ExploreTotals {
    pub runs: u64,
    pub inputs: u64,
    pub solver: dice_solver::SolverStats,
    pub waves: dice_obs::Histogram,
    pub policy_sites: u64,
    pub policy_directions: u64,
}

impl ExploreTotals {
    pub fn add(&mut self, report: &dice_core::ExplorationReport) {
        self.runs += report.runs as u64;
        self.inputs += report.observed_inputs as u64;
        self.solver.merge(&report.solver_stats);
        self.waves.merge(&report.wave_latency);
        self.policy_sites += report.policy_sites as u64;
        self.policy_directions += report.policy_directions as u64;
    }

    /// `explore_s` is the wall time of the calls the reports came from;
    /// solver time is summed over the exploration worker threads.
    pub fn layers(&self, explore_s: f64) -> Vec<(&'static str, f64)> {
        let solver_s = self.solver.total_time_ns as f64 / 1e9;
        let coverage = if self.policy_sites == 0 {
            0.0
        } else {
            self.policy_directions as f64 / (2 * self.policy_sites) as f64
        };
        vec![
            ("symexec.runs", self.runs as f64),
            (
                "symexec.runs_per_input",
                self.runs as f64 / self.inputs.max(1) as f64,
            ),
            ("symexec.wave_p50_us", self.waves.p50() as f64 / 1e3),
            ("symexec.engine_s", explore_s - solver_s),
            ("symexec.policy_coverage", coverage),
            ("solver.queries", self.solver.queries as f64),
            ("solver.time_s", solver_s),
            ("solver.unknown", self.solver.unknown as f64),
            ("solver.reuse_ratio", self.solver.reuse_rate()),
            ("core.explore_s", explore_s),
        ]
    }
}

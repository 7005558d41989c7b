//! Trace replay against a router, with throughput measurement.

use std::net::Ipv4Addr;
use std::time::Instant;

use dice_bgp::route::PeerId;
use dice_router::BgpRouter;

use crate::metrics::ThroughputMeter;
use crate::trace::BgpTrace;

/// The result of a replay phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayStats {
    /// UPDATE messages fed to the router.
    pub updates_fed: u64,
    /// Prefixes present in the router's RIB after the phase.
    pub rib_prefixes: usize,
    /// Wall-clock updates/second achieved during the phase.
    pub updates_per_second: f64,
}

/// Replays a trace (table dump and/or incremental updates) into one router
/// as if its peer at `peer_address` were sending the messages.
#[derive(Debug)]
pub struct Replayer<'a> {
    trace: &'a BgpTrace,
    peer_address: Ipv4Addr,
}

impl<'a> Replayer<'a> {
    /// Creates a replayer for the trace, impersonating the given peer.
    pub fn new(trace: &'a BgpTrace, peer_address: Ipv4Addr) -> Self {
        Replayer {
            trace,
            peer_address,
        }
    }

    fn peer(&self, router: &BgpRouter) -> Option<PeerId> {
        router.peer_by_address(self.peer_address)
    }

    /// Feeds the table dump into the router as fast as possible ("loading
    /// the routing table"). Returns the achieved throughput.
    pub fn load_table(&self, router: &mut BgpRouter) -> ReplayStats {
        let Some(peer) = self.peer(router) else {
            return ReplayStats::default();
        };
        let mut meter = ThroughputMeter::default();
        let started = Instant::now();
        let mut fed = 0u64;
        for update in &self.trace.table {
            router.handle_update(peer, update);
            fed += 1;
        }
        meter.record(fed, started.elapsed());
        ReplayStats {
            updates_fed: fed,
            rib_prefixes: router.rib().prefix_count(),
            updates_per_second: meter.updates_per_second(),
        }
    }

    /// Feeds the incremental updates as fast as possible. `interleave` is
    /// called after every message with the number of updates fed so far —
    /// the CPU-overhead experiment uses it to run exploration work on the
    /// same core.
    pub fn replay_updates<F>(&self, router: &mut BgpRouter, mut interleave: F) -> ReplayStats
    where
        F: FnMut(u64),
    {
        let Some(peer) = self.peer(router) else {
            return ReplayStats::default();
        };
        let mut meter = ThroughputMeter::default();
        let started = Instant::now();
        let mut fed = 0u64;
        for event in &self.trace.updates {
            router.handle_update(peer, &event.update);
            fed += 1;
            interleave(fed);
        }
        meter.record(fed, started.elapsed());
        ReplayStats {
            updates_fed: fed,
            rib_prefixes: router.rib().prefix_count(),
            updates_per_second: meter.updates_per_second(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{addr, figure2_topology, CustomerFilterMode};
    use crate::trace::{generate_trace, TraceGenConfig};
    use dice_router::BgpRouter;

    fn provider_router() -> BgpRouter {
        let topo = figure2_topology(CustomerFilterMode::Correct);
        let provider = topo.node_by_name("Provider").expect("node");
        let mut r = BgpRouter::new(topo.nodes()[provider.0].config.clone());
        r.start();
        r
    }

    #[test]
    fn table_load_fills_the_rib() {
        let cfg = TraceGenConfig {
            prefix_count: 1_000,
            update_count: 0,
            ..Default::default()
        };
        let trace = generate_trace(&cfg, 1299, addr::INTERNET);
        let mut router = provider_router();
        let stats = Replayer::new(&trace, addr::INTERNET).load_table(&mut router);
        assert_eq!(stats.updates_fed, 1_000);
        assert_eq!(stats.rib_prefixes, 1_000);
        assert!(stats.updates_per_second > 0.0);
    }

    #[test]
    fn incremental_replay_applies_withdrawals() {
        let cfg = TraceGenConfig {
            prefix_count: 300,
            update_count: 300,
            withdrawal_percent: 50,
            ..Default::default()
        };
        let trace = generate_trace(&cfg, 1299, addr::INTERNET);
        let mut router = provider_router();
        let replayer = Replayer::new(&trace, addr::INTERNET);
        replayer.load_table(&mut router);
        let before = router.rib().prefix_count();
        let mut calls = 0u64;
        let stats = replayer.replay_updates(&mut router, |_| calls += 1);
        assert_eq!(stats.updates_fed, 300);
        assert_eq!(calls, 300);
        assert!(stats.rib_prefixes <= before);
        assert!(stats.rib_prefixes > 0);
    }

    #[test]
    fn unknown_peer_address_yields_empty_stats() {
        let cfg = TraceGenConfig::tiny();
        let trace = generate_trace(&cfg, 1299, addr::INTERNET);
        let mut router = provider_router();
        let stats = Replayer::new(&trace, Ipv4Addr::new(192, 0, 2, 77)).load_table(&mut router);
        assert_eq!(stats.updates_fed, 0);
        assert_eq!(stats.rib_prefixes, 0);
    }
}

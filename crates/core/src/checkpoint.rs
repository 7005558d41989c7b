//! The copy-on-write round checkpoint: one immutable router snapshot
//! shared by every exploration of a round.
//!
//! The paper takes checkpoints "by simply using the `fork` system call"
//! (§3.2): forks share every memory page with the live process until one
//! side writes. [`RoundCheckpoint`] is that model applied at the
//! orchestration layer. Capturing one is a [`BgpRouter`] clone — itself a
//! copy-on-write fork, because the RIB and each chunk of its prefix map sit
//! behind `Arc`s ([`Rib`] docs) — wrapped in an `Arc` so every
//! [`crate::SymbolicUpdateHandler`] of the
//! round shares the *same* snapshot instead of copying the router per
//! observed input. A fork explores exactly like a router rebuilt from the
//! same updates, which shares nothing with it (asserted by test).
//!
//! Lifecycle: [`crate::DiceSession::explore`] captures one checkpoint per
//! round and drops it when the round's report is merged. In continuous
//! operation ([`crate::LiveOrchestrator`]) the session is the only holder:
//! it captures after the epoch's traffic has quiesced and releases before
//! the next epoch's driver runs, so no round ever explores stale state and
//! the live router never writes to a table a checkpoint still shares —
//! the copy [`RoundCheckpoint::cow_stats_vs`] measures is paid only by a
//! caller that keeps a checkpoint of its own across live writes.

use std::sync::Arc;

use dice_checkpoint::CowForkStats;
use dice_router::{BgpRouter, Rib};

/// An `Arc`-shared immutable snapshot of a router, taken once per
/// exploration round and handed to every handler in that round.
///
/// Cloning a `RoundCheckpoint` is one reference-count bump; the underlying
/// router state is shared copy-on-write with the live router it was
/// captured from.
#[derive(Debug, Clone)]
pub struct RoundCheckpoint {
    router: Arc<BgpRouter>,
}

impl RoundCheckpoint {
    /// Captures a checkpoint of the live router (the fork operation): a
    /// copy-on-write clone whose RIB stays shared with `live` until
    /// either side writes.
    pub fn capture(live: &BgpRouter) -> Self {
        RoundCheckpoint {
            router: Arc::new(live.clone()),
        }
    }

    /// The checkpointed router state.
    pub(crate) fn router(&self) -> &BgpRouter {
        &self.router
    }

    /// The checkpointed routing table.
    pub fn rib(&self) -> &Rib {
        self.router.rib()
    }

    /// How many handles (captures plus handler clones) currently share
    /// this snapshot.
    pub fn share_count(&self) -> usize {
        Arc::strong_count(&self.router)
    }

    /// Copy-on-write accounting against the live router this checkpoint
    /// was captured from: whether the RIB, the one unit, is still
    /// physically shared. Right after [`RoundCheckpoint::capture`] it is;
    /// the first live write copies it (the table's counters and chunk
    /// directory, and the one chunk written: the rest of the chunks stay
    /// shared, the analogue of the paper's 3.45% unique pages).
    pub fn cow_stats_vs(&self, live: &BgpRouter) -> CowForkStats {
        let shared = self.router.rib().shares_table_with(live.rib());
        CowForkStats::from_sharing(usize::from(shared), 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::attributes::RouteAttrs;
    use dice_bgp::message::UpdateMessage;
    use dice_bgp::AsPath;
    use dice_netsim::topology::{addr, figure2_topology, CustomerFilterMode};
    use std::net::Ipv4Addr;

    fn provider() -> BgpRouter {
        let topo = figure2_topology(CustomerFilterMode::Correct);
        let spec = &topo.nodes()[topo.node_by_name("Provider").expect("node").0];
        let mut router = BgpRouter::new(spec.config.clone());
        router.start();
        router
    }

    fn announce(router: &mut BgpRouter, prefix: &str, tail: u32) {
        let peer = router.peer_by_address(addr::INTERNET).expect("peer");
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence([1299, tail]);
        attrs.next_hop = Ipv4Addr::new(10, 0, 2, 1);
        router.handle_update(
            peer,
            &UpdateMessage::announce(vec![prefix.parse().expect("valid")], &attrs),
        );
    }

    #[test]
    fn capture_shares_everything_until_the_live_router_writes() {
        let mut live = provider();
        for i in 0..32u32 {
            announce(
                &mut live,
                &format!("{}.{}.0.0/16", 20 + i % 8, i),
                100_000 + i,
            );
        }
        let checkpoint = RoundCheckpoint::capture(&live);
        let stats = checkpoint.cow_stats_vs(&live);
        assert_eq!(stats.units_copied(), 0, "a fresh capture copies nothing");
        assert!(stats.shared_fraction() >= 1.0 - 1e-9);

        // The live router keeps processing; its first write copies the one
        // unit, and the checkpoint's view stays frozen.
        let before = checkpoint.rib().prefix_count();
        announce(&mut live, "198.51.100.0/24", 7);
        let stats = checkpoint.cow_stats_vs(&live);
        assert_eq!(
            (stats.units_copied(), stats.units_total),
            (1, 1),
            "a single update copies the table"
        );
        assert_eq!(checkpoint.rib().prefix_count(), before);
        assert_eq!(live.rib().prefix_count(), before + 1);
    }

    #[test]
    fn clones_share_the_snapshot() {
        let live = provider();
        let checkpoint = RoundCheckpoint::capture(&live);
        assert_eq!(checkpoint.share_count(), 1);
        let handles: Vec<RoundCheckpoint> = (0..4).map(|_| checkpoint.clone()).collect();
        assert_eq!(checkpoint.share_count(), 5, "one Arc, five handles");
        drop(handles);
        assert_eq!(checkpoint.share_count(), 1);
        assert_eq!(checkpoint.router().local_as(), live.local_as());
    }
}

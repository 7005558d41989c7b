//! Isolation of exploration from the deployed system.
//!
//! "We want the exploratory execution over a node checkpoint to work
//! alongside the running system. Therefore, DiCE intercepts the messages
//! generated during exploration" (§2.3). Every message an exploratory
//! execution would have sent is recorded in its
//! [`crate::HandlerOutcome::intercepted`] and never reaches a live peer;
//! the live router object is never touched, which a round checks with a
//! [`LiveStateFingerprint`] taken before and after it.

use dice_router::BgpRouter;

/// A fingerprint of the externally visible state of the live router, taken
/// before exploration and compared afterwards to assert that exploration
/// ran in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LiveStateFingerprint {
    /// Prefixes in the Loc-RIB.
    rib_prefixes: usize,
    /// Candidate routes across all peers.
    rib_routes: usize,
    /// UPDATE messages the live router has processed.
    updates_processed: u64,
    /// Messages the live router has queued for sending.
    messages_sent: u64,
}

impl LiveStateFingerprint {
    /// Captures the fingerprint of a router.
    pub(crate) fn capture(router: &BgpRouter) -> Self {
        LiveStateFingerprint {
            rib_prefixes: router.rib().prefix_count(),
            rib_routes: router.rib().route_count(),
            updates_processed: router.stats().updates_processed,
            messages_sent: router.stats().messages_sent,
        }
    }

    /// Returns true if the router's externally visible state is unchanged.
    pub(crate) fn matches(&self, router: &BgpRouter) -> bool {
        *self == Self::capture(router)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::attributes::RouteAttrs;
    use dice_bgp::message::UpdateMessage;
    use dice_router::{NeighborConfig, RouterConfig};
    use std::net::Ipv4Addr;

    #[test]
    fn fingerprint_detects_live_state_changes() {
        let config =
            RouterConfig::new(Ipv4Addr::new(10, 0, 0, 1), 65001).with_neighbor(NeighborConfig {
                address: Ipv4Addr::new(10, 0, 0, 2),
                remote_as: 65002,
                import_filter: None,
                export_filter: None,
            });
        let mut router = dice_router::BgpRouter::new(config);
        router.start();
        let fp = LiveStateFingerprint::capture(&router);
        assert!(fp.matches(&router));
        // Processing an update changes the fingerprint.
        let attrs = RouteAttrs::originated(65002, Ipv4Addr::new(10, 0, 0, 2));
        let update =
            UpdateMessage::announce(vec!["203.0.113.0/24".parse().expect("valid")], &attrs);
        let peer = router
            .peer_by_address(Ipv4Addr::new(10, 0, 0, 2))
            .expect("peer");
        router.handle_update(peer, &update);
        assert!(!fp.matches(&router));
    }
}

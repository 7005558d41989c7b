//! Peer state: configuration, session FSM and per-peer counters.

use std::net::Ipv4Addr;

use dice_bgp::fsm::{SessionFsm, SessionState};
use dice_bgp::route::PeerId;

use crate::config::NeighborConfig;

/// Per-peer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerStats {
    /// UPDATE messages received from the peer.
    pub updates_in: u64,
    /// UPDATE messages sent to the peer.
    pub updates_out: u64,
    /// Routes accepted from the peer after import filtering.
    pub routes_accepted: u64,
    /// Routes rejected by the import filter.
    pub routes_rejected: u64,
    /// Prefixes withdrawn by the peer.
    pub withdrawals: u64,
}

/// One configured BGP peer.
#[derive(Debug, Clone)]
pub struct Peer {
    /// Stable identifier used in the RIB.
    pub id: PeerId,
    /// The peer's address.
    pub address: Ipv4Addr,
    /// The peer's AS number.
    pub remote_as: u32,
    /// The peer's router id (learned from its OPEN; defaults to the
    /// address until then).
    pub router_id: u32,
    /// Import filter name.
    pub import_filter: Option<String>,
    /// Export filter name.
    pub export_filter: Option<String>,
    /// Session state machine.
    pub session: SessionFsm,
    /// Counters.
    pub stats: PeerStats,
}

impl Peer {
    /// Creates a peer from configuration, in the `Idle` state.
    pub(crate) fn from_config(id: PeerId, config: &NeighborConfig) -> Self {
        Peer {
            id,
            address: config.address,
            remote_as: config.remote_as,
            router_id: u32::from(config.address),
            import_filter: config.import_filter.clone(),
            export_filter: config.export_filter.clone(),
            session: SessionFsm::new(),
            stats: PeerStats::default(),
        }
    }

    /// Returns true if the session is established.
    pub fn is_established(&self) -> bool {
        self.session.is_established()
    }

    /// Current session state.
    pub fn state(&self) -> SessionState {
        self.session.state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> NeighborConfig {
        NeighborConfig {
            address: Ipv4Addr::new(10, 0, 1, 1),
            remote_as: 17557,
            import_filter: Some("customer_in".into()),
            export_filter: None,
        }
    }

    #[test]
    fn peer_starts_idle() {
        let peer = Peer::from_config(PeerId(1), &config());
        assert_eq!(peer.state(), SessionState::Idle);
        assert!(!peer.is_established());
        assert_eq!(peer.remote_as, 17557);
        assert_eq!(peer.import_filter.as_deref(), Some("customer_in"));
        assert_eq!(peer.stats, PeerStats::default());
    }

    #[test]
    fn session_can_be_established() {
        let mut peer = Peer::from_config(PeerId(1), &config());
        peer.session.establish();
        assert!(peer.is_established());
    }
}

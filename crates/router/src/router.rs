//! The BGP routing daemon: message handling, import/export policy and
//! route propagation. This is the BIRD analog that DiCE instruments.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::Arc;

use dice_bgp::attributes::{Community, RouteAttrs};
use dice_bgp::fsm::SessionEvent;
use dice_bgp::message::{BgpMessage, KeepaliveMessage, OpenMessage, UpdateMessage};
use dice_bgp::prefix::Ipv4Prefix;
use dice_bgp::route::{PeerId, Route};
use dice_bgp::Asn;

use dice_symexec::ExecCtx;

use crate::config::RouterConfig;
use crate::peer::Peer;
use crate::policy::{eval_filter, FilterOutcome, RouteView};
use crate::rib::{Rib, RibChange};

/// Router-wide counters; `updates_processed` is the metric the paper's
/// CPU-overhead experiment reports (updates handled per second).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// UPDATE messages processed.
    pub updates_processed: u64,
    /// Prefix announcements processed (one UPDATE may carry several).
    pub prefixes_announced: u64,
    /// Prefix withdrawals processed.
    pub prefixes_withdrawn: u64,
    /// Routes accepted by import policy.
    pub routes_accepted: u64,
    /// Routes rejected by import policy.
    pub routes_rejected: u64,
    /// Messages queued for transmission to peers.
    pub messages_sent: u64,
}

/// A message addressed to a specific peer.
pub type Outgoing = (PeerId, BgpMessage);

/// What tearing a session down produced: the flushed-route count and the
/// withdrawal UPDATEs to propagate to the remaining established peers.
#[derive(Debug, Default)]
pub struct SessionResetOutcome {
    /// Prefixes whose candidate learned from the reset peer was withdrawn
    /// from the RIB.
    pub withdrawn_routes: usize,
    /// Withdrawals for best-route changes, addressed to the other peers.
    pub outgoing: Vec<Outgoing>,
}

/// The BGP router.
///
/// # Examples
///
/// ```
/// use dice_router::{BgpRouter, RouterConfig, NeighborConfig};
/// use dice_router::policy::FilterDef;
/// use std::net::Ipv4Addr;
///
/// let config = RouterConfig::new(Ipv4Addr::new(10, 0, 0, 1), 65001)
///     .with_filter(FilterDef::accept_all("all"))
///     .with_neighbor(NeighborConfig {
///         address: Ipv4Addr::new(10, 0, 0, 2),
///         remote_as: 65002,
///         import_filter: Some("all".into()),
///         export_filter: Some("all".into()),
///     });
/// let mut router = BgpRouter::new(config);
/// router.start();
/// assert!(router.peers().all(|p| p.is_established()));
/// ```
#[derive(Debug, Clone)]
pub struct BgpRouter {
    /// Read-only once built, so a fork shares it.
    config: Arc<RouterConfig>,
    peers: BTreeMap<PeerId, Peer>,
    by_address: HashMap<Ipv4Addr, PeerId>,
    rib: Rib,
    stats: RouterStats,
}

impl BgpRouter {
    /// Creates a router from its configuration. Peers start in the `Idle`
    /// state; call [`BgpRouter::start`] (or feed session events) to bring
    /// sessions up. Static routes are installed immediately.
    pub fn new(config: RouterConfig) -> Self {
        let mut peers = BTreeMap::new();
        let mut by_address = HashMap::new();
        for (i, n) in config.neighbors.iter().enumerate() {
            let id = PeerId(i as u32 + 1);
            peers.insert(id, Peer::from_config(id, n));
            by_address.insert(n.address, id);
        }
        let mut router = BgpRouter {
            config: Arc::new(config),
            peers,
            by_address,
            rib: Rib::new(),
            stats: RouterStats::default(),
        };
        for sr in router.config.static_routes.clone() {
            let attrs = RouteAttrs {
                next_hop: sr.next_hop,
                ..Default::default()
            };
            router.rib.announce(Route::local(sr.prefix, attrs));
        }
        router
    }

    /// The router identifier.
    pub fn router_id(&self) -> Ipv4Addr {
        self.config.router_id
    }

    /// The local AS number.
    pub fn local_as(&self) -> u32 {
        self.config.local_as
    }

    /// The configuration the router was built from.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Read access to the routing table.
    pub fn rib(&self) -> &Rib {
        &self.rib
    }

    /// Router-wide counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Resets the counters (used between measurement windows).
    #[cfg(test)]
    pub(crate) fn reset_stats(&mut self) {
        self.stats = RouterStats::default();
        for p in self.peers.values_mut() {
            p.stats = Default::default();
        }
    }

    /// Iterates over the peers.
    pub fn peers(&self) -> impl Iterator<Item = &Peer> {
        self.peers.values()
    }

    /// Looks up a peer by id.
    pub fn peer(&self, id: PeerId) -> Option<&Peer> {
        self.peers.get(&id)
    }

    /// Looks up a peer id by address.
    pub fn peer_by_address(&self, address: Ipv4Addr) -> Option<PeerId> {
        self.by_address.get(&address).copied()
    }

    /// Brings every configured session to `Established` (the simulator's
    /// shortcut for the OPEN/KEEPALIVE handshake).
    pub fn start(&mut self) {
        for p in self.peers.values_mut() {
            p.session.establish();
        }
    }

    /// Handles one incoming message from a peer, returning the messages to
    /// send in response. This is the "message handler" the paper asks the
    /// programmer to identify for DiCE (§2.3).
    pub fn handle_message(&mut self, from: PeerId, msg: &BgpMessage) -> Vec<Outgoing> {
        let mut out = Vec::new();
        self.handle_message_into(from, msg, &mut out);
        out
    }

    /// [`BgpRouter::handle_message`], appending the messages to send to
    /// `out` instead of returning them: a caller that handles message after
    /// message lends one buffer to all of them. What `out` held before is
    /// left as it was.
    pub fn handle_message_into(&mut self, from: PeerId, msg: &BgpMessage, out: &mut Vec<Outgoing>) {
        let Some(peer) = self.peers.get_mut(&from) else {
            return;
        };
        match msg {
            BgpMessage::Open(open) => {
                peer.router_id = open.bgp_identifier;
                // Receiving an OPEN implies the transport came up; drive the
                // FSM through the passive-open sequence.
                peer.session.handle(SessionEvent::ManualStart);
                peer.session.handle(SessionEvent::TransportConnected);
                peer.session.handle(SessionEvent::OpenReceived);
                out.push((
                    from,
                    BgpMessage::Open(OpenMessage::new(
                        self.config.local_as,
                        90,
                        u32::from(self.config.router_id),
                    )),
                ));
                out.push((from, BgpMessage::Keepalive(KeepaliveMessage)));
                self.stats.messages_sent += 2;
            }
            BgpMessage::Keepalive(_) => {
                peer.session.handle(SessionEvent::KeepaliveReceived);
            }
            BgpMessage::Notification(_) => {
                peer.session.handle(SessionEvent::NotificationReceived);
            }
            BgpMessage::Update(update) => {
                peer.session.handle(SessionEvent::UpdateReceived);
                self.handle_update_into(from, update, out);
            }
        }
    }

    /// Handles an UPDATE message: withdrawals, import filtering, RIB
    /// insertion and propagation to the other peers.
    pub fn handle_update(&mut self, from: PeerId, update: &UpdateMessage) -> Vec<Outgoing> {
        let mut out = Vec::new();
        self.handle_update_into(from, update, &mut out);
        out
    }

    /// [`BgpRouter::handle_update`], appending the messages to send to
    /// `out` instead of returning them; `messages_sent` counts only what
    /// this call appended.
    pub fn handle_update_into(
        &mut self,
        from: PeerId,
        update: &UpdateMessage,
        out: &mut Vec<Outgoing>,
    ) {
        let start = out.len();
        self.stats.updates_processed += 1;
        if let Some(p) = self.peers.get_mut(&from) {
            p.stats.updates_in += 1;
        }

        for prefix in &update.withdrawn {
            self.stats.prefixes_withdrawn += 1;
            if let Some(p) = self.peers.get_mut(&from) {
                p.stats.withdrawals += 1;
            }
            let change = self.rib.withdraw(prefix, from);
            self.propagate(change, Some(from), out);
        }

        if update.nlri.is_empty() {
            self.stats.messages_sent += (out.len() - start) as u64;
            return;
        }

        // Every route this UPDATE installs shares its attribute set.
        let attrs = update.attrs.clone().unwrap_or_default();
        // eBGP loop detection: a path containing the local AS is dropped.
        if attrs.as_path.contains(Asn(self.config.local_as)) {
            self.stats.routes_rejected += update.nlri.len() as u64;
            self.stats.messages_sent += (out.len() - start) as u64;
            return;
        }
        let peer_router_id = self.peers.get(&from).map(|p| p.router_id).unwrap_or(0);

        for prefix in &update.nlri {
            self.stats.prefixes_announced += 1;
            let route = Route::new(*prefix, Arc::clone(&attrs), from, peer_router_id);
            match self.apply_import(from, route) {
                Some(imported) => {
                    self.stats.routes_accepted += 1;
                    if let Some(p) = self.peers.get_mut(&from) {
                        p.stats.routes_accepted += 1;
                    }
                    let change = self.rib.announce(imported);
                    self.propagate(change, Some(from), out);
                }
                None => {
                    self.stats.routes_rejected += 1;
                    if let Some(p) = self.peers.get_mut(&from) {
                        p.stats.routes_rejected += 1;
                    }
                }
            }
        }
        self.stats.messages_sent += (out.len() - start) as u64;
    }

    /// Applies the import policy of `from` to a candidate route, returning
    /// the (possibly modified) route if it is accepted.
    pub(crate) fn apply_import(&self, from: PeerId, route: Route) -> Option<Route> {
        let peer = self.peers.get(&from)?;
        let Some(filter_name) = &peer.import_filter else {
            return Some(route);
        };
        let Some(filter) = self.config.filter(filter_name) else {
            // Referencing a missing filter rejects everything (fail closed).
            return None;
        };
        let mut ctx = ExecCtx::new();
        let outcome = eval_filter(filter, &RouteView::concrete(&route), &mut ctx);
        Self::apply_outcome(route, &outcome)
    }

    /// Applies a filter outcome's attribute modifications to a route. The
    /// route's attribute set is copied only when the outcome changes it;
    /// otherwise it stays shared with the UPDATE it arrived with.
    pub(crate) fn apply_outcome(mut route: Route, outcome: &FilterOutcome) -> Option<Route> {
        if !outcome.is_accept() {
            return None;
        }
        let local_pref = outcome.local_pref.or(route.attrs.local_pref);
        let med = outcome.med.or(route.attrs.med);
        if local_pref != route.attrs.local_pref
            || med != route.attrs.med
            || !outcome.added_communities.is_empty()
        {
            let attrs = Arc::make_mut(&mut route.attrs);
            attrs.local_pref = local_pref;
            attrs.med = med;
            attrs.communities.extend(
                outcome
                    .added_communities
                    .iter()
                    .map(|&(a, b)| Community::new(a, b)),
            );
        }
        Some(route)
    }

    /// Originates a prefix locally and returns the announcements to send.
    #[cfg(test)]
    pub(crate) fn originate(&mut self, prefix: Ipv4Prefix, next_hop: Ipv4Addr) -> Vec<Outgoing> {
        let attrs = RouteAttrs {
            next_hop,
            ..Default::default()
        };
        let change = self.rib.announce(Route::local(prefix, attrs));
        let mut out = Vec::new();
        self.propagate(change, None, &mut out);
        self.stats.messages_sent += out.len() as u64;
        out
    }

    /// Tears the session to `peer` down with RFC 4271 table semantics: the
    /// FSM drops out of `Established`, every RIB candidate learned from the
    /// peer is withdrawn, and best-route changes propagate as withdrawal
    /// UPDATEs to the remaining established peers. The session stays down
    /// until [`BgpRouter::reestablish_session`] (or a fresh OPEN) brings it
    /// back; withdrawn routes do not return by themselves.
    pub fn reset_session(&mut self, peer: PeerId) -> SessionResetOutcome {
        let Some(p) = self.peers.get_mut(&peer) else {
            return SessionResetOutcome::default();
        };
        p.session.handle(SessionEvent::TransportFailed);
        let prefixes: Vec<Ipv4Prefix> = self
            .rib
            .loc_rib()
            .map(|(prefix, _)| prefix)
            .filter(|prefix| self.rib.candidates(prefix).any(|r| r.learned_from == peer))
            .collect();
        let mut outgoing = Vec::new();
        for prefix in &prefixes {
            self.stats.prefixes_withdrawn += 1;
            let change = self.rib.withdraw(prefix, peer);
            self.propagate(change, Some(peer), &mut outgoing);
        }
        self.stats.messages_sent += outgoing.len() as u64;
        SessionResetOutcome {
            withdrawn_routes: prefixes.len(),
            outgoing,
        }
    }

    /// Brings the session to `peer` back to `Established` (the simulator's
    /// shortcut for the reconnect handshake after a reset).
    pub fn reestablish_session(&mut self, peer: PeerId) {
        if let Some(p) = self.peers.get_mut(&peer) {
            p.session.establish();
        }
    }

    /// Builds the UPDATE sent to `to` for a best-route change, applying the
    /// export filter. Returns `None` when the export policy rejects the
    /// route or the peer is not established.
    pub(crate) fn export_route(&self, to: &Peer, route: &Route) -> Option<UpdateMessage> {
        if !to.is_established() {
            return None;
        }
        let outcome = match &to.export_filter {
            None => FilterOutcome::accepted(),
            Some(name) => {
                let filter = self.config.filter(name)?;
                let mut ctx = ExecCtx::new();
                eval_filter(filter, &RouteView::concrete(route), &mut ctx)
            }
        };
        if !outcome.is_accept() {
            return None;
        }
        // eBGP export: prepend the local AS (plus any extra prepends), reset
        // the next hop to ourselves and strip LOCAL_PREF. This is the hop's
        // one new attribute set; the receiving router's route shares it.
        let mut attrs = RouteAttrs::clone(&route.attrs);
        attrs.as_path = attrs
            .as_path
            .prepend(Asn(self.config.local_as), 1 + outcome.prepend as usize);
        attrs.next_hop = self.config.router_id;
        attrs.local_pref = None;
        if let Some(med) = outcome.med {
            attrs.med = Some(med);
        }
        for (a, b) in &outcome.added_communities {
            attrs.communities.push(Community::new(*a, *b));
        }
        Some(UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(Arc::new(attrs)),
            nlri: vec![route.prefix],
        })
    }

    /// Turns a Loc-RIB change into the UPDATEs sent to the other peers,
    /// appended to `out`.
    fn propagate(
        &mut self,
        change: RibChange,
        learned_from: Option<PeerId>,
        out: &mut Vec<Outgoing>,
    ) {
        let start = out.len();
        match change {
            RibChange::Unchanged => {}
            RibChange::Updated(route) => {
                for peer in self.peers.values() {
                    if Some(peer.id) == learned_from || !peer.is_established() {
                        continue;
                    }
                    if let Some(update) = self.export_route(peer, &route) {
                        out.push((peer.id, BgpMessage::Update(update)));
                    }
                }
            }
            RibChange::Removed(prefix) => {
                for (id, peer) in &self.peers {
                    if Some(*id) != learned_from && peer.is_established() {
                        out.push((
                            *id,
                            BgpMessage::Update(UpdateMessage::withdraw(vec![prefix])),
                        ));
                    }
                }
            }
        }
        for (id, _) in &out[start..] {
            if let Some(p) = self.peers.get_mut(id) {
                p.stats.updates_out += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NeighborConfig;
    use crate::policy::parse_filter;
    use dice_bgp::AsPath;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().expect("valid prefix")
    }

    /// A Provider router (AS 3491) with a customer (AS 17557) and a transit
    /// peer (AS 1299) — the Figure 2 topology seen from the middle.
    fn provider() -> BgpRouter {
        let customer_filter = parse_filter(
            r#"filter customer_in {
                if net ~ [ 208.65.152.0/22{22,24} ] then accept;
                reject;
            }"#,
        )
        .expect("parses");
        let config = RouterConfig::new(Ipv4Addr::new(10, 0, 0, 2), 3491)
            .with_filter(customer_filter)
            .with_filter(crate::policy::FilterDef::accept_all("all"))
            .with_neighbor(NeighborConfig {
                address: Ipv4Addr::new(10, 0, 1, 1),
                remote_as: 17557,
                import_filter: Some("customer_in".into()),
                export_filter: Some("all".into()),
            })
            .with_neighbor(NeighborConfig {
                address: Ipv4Addr::new(10, 0, 2, 1),
                remote_as: 1299,
                import_filter: Some("all".into()),
                export_filter: Some("all".into()),
            });
        let mut r = BgpRouter::new(config);
        r.start();
        r
    }

    fn update(prefix: &str, path: &[u32]) -> UpdateMessage {
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence(path.iter().copied());
        attrs.next_hop = Ipv4Addr::new(10, 0, 1, 1);
        UpdateMessage::announce(vec![p(prefix)], &attrs)
    }

    #[test]
    fn accepted_route_is_installed_and_propagated() {
        let mut r = provider();
        let customer = r.peer_by_address(Ipv4Addr::new(10, 0, 1, 1)).expect("peer");
        let out = r.handle_update(customer, &update("208.65.152.0/22", &[17557, 36561]));
        assert_eq!(r.rib().prefix_count(), 1);
        assert_eq!(r.stats().routes_accepted, 1);
        // Propagated to the transit peer only (not back to the customer).
        assert_eq!(out.len(), 1);
        let (to, msg) = &out[0];
        assert_eq!(
            *to,
            r.peer_by_address(Ipv4Addr::new(10, 0, 2, 1)).expect("peer")
        );
        let exported = msg.as_update().expect("update");
        let attrs = exported.route_attrs();
        // The local AS was prepended and LOCAL_PREF stripped.
        assert_eq!(attrs.as_path.neighbor_as().map(|a| a.value()), Some(3491));
        assert_eq!(attrs.local_pref, None);
        assert_eq!(attrs.next_hop, Ipv4Addr::new(10, 0, 0, 2));
    }

    #[test]
    fn filtered_route_is_rejected() {
        let mut r = provider();
        let customer = r.peer_by_address(Ipv4Addr::new(10, 0, 1, 1)).expect("peer");
        // The customer leaks a prefix outside its allocation (the YouTube
        // /24 belongs to AS 36561's 208.65.152.0/22 but an unrelated /16
        // must be rejected by the prefix filter).
        let out = r.handle_update(customer, &update("8.8.0.0/16", &[17557]));
        assert!(out.is_empty());
        assert_eq!(r.rib().prefix_count(), 0);
        assert_eq!(r.stats().routes_rejected, 1);
    }

    #[test]
    fn transit_routes_bypass_customer_filter() {
        let mut r = provider();
        let transit = r.peer_by_address(Ipv4Addr::new(10, 0, 2, 1)).expect("peer");
        let out = r.handle_update(transit, &update("8.8.0.0/16", &[1299, 15169]));
        assert_eq!(r.rib().prefix_count(), 1);
        // Propagated to the customer.
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn withdrawal_removes_route_and_propagates() {
        let mut r = provider();
        let customer = r.peer_by_address(Ipv4Addr::new(10, 0, 1, 1)).expect("peer");
        r.handle_update(customer, &update("208.65.152.0/22", &[17557, 36561]));
        let out = r.handle_update(
            customer,
            &UpdateMessage::withdraw(vec![p("208.65.152.0/22")]),
        );
        assert_eq!(r.rib().prefix_count(), 0);
        assert_eq!(out.len(), 1);
        let (_, msg) = &out[0];
        assert_eq!(
            msg.as_update().expect("update").withdrawn,
            vec![p("208.65.152.0/22")]
        );
        assert_eq!(r.stats().prefixes_withdrawn, 1);
    }

    #[test]
    fn as_path_loop_is_dropped() {
        let mut r = provider();
        let transit = r.peer_by_address(Ipv4Addr::new(10, 0, 2, 1)).expect("peer");
        let out = r.handle_update(transit, &update("9.9.9.0/24", &[1299, 3491, 100]));
        assert!(out.is_empty());
        assert_eq!(r.rib().prefix_count(), 0);
        assert_eq!(r.stats().routes_rejected, 1);
    }

    #[test]
    fn open_handshake_establishes_session() {
        let config =
            RouterConfig::new(Ipv4Addr::new(10, 0, 0, 1), 65001).with_neighbor(NeighborConfig {
                address: Ipv4Addr::new(10, 0, 0, 9),
                remote_as: 65009,
                import_filter: None,
                export_filter: None,
            });
        let mut r = BgpRouter::new(config);
        let peer = r.peer_by_address(Ipv4Addr::new(10, 0, 0, 9)).expect("peer");
        let replies = r.handle_message(
            peer,
            &BgpMessage::Open(OpenMessage::new(65009, 90, 0x0a000009)),
        );
        assert_eq!(replies.len(), 2);
        let _ = r.handle_message(peer, &BgpMessage::Keepalive(KeepaliveMessage));
        assert!(r.peer(peer).expect("peer").is_established());
        // The learned router id is used for decision tie-breaks.
        assert_eq!(r.peer(peer).expect("peer").router_id, 0x0a000009);
    }

    #[test]
    fn static_routes_are_installed_and_originated() {
        let config = RouterConfig::new(Ipv4Addr::new(10, 0, 0, 1), 65001)
            .with_neighbor(NeighborConfig {
                address: Ipv4Addr::new(10, 0, 0, 9),
                remote_as: 65009,
                import_filter: None,
                export_filter: None,
            })
            .with_static_route(p("203.0.113.0/24"), Ipv4Addr::new(10, 0, 0, 1));
        let mut r = BgpRouter::new(config);
        assert_eq!(r.rib().prefix_count(), 1);
        r.start();
        let out = r.originate(p("198.51.100.0/24"), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(out.len(), 1);
        assert_eq!(r.rib().prefix_count(), 2);
        let exported = out[0].1.as_update().expect("update").route_attrs();
        assert_eq!(exported.as_path.flatten(), vec![Asn(65001)]);
    }

    #[test]
    fn updates_to_unestablished_peers_are_suppressed() {
        let mut r = provider();
        // Tear the transit session down; announcements should go nowhere.
        let transit = r.peer_by_address(Ipv4Addr::new(10, 0, 2, 1)).expect("peer");
        r.peers
            .get_mut(&transit)
            .expect("peer")
            .session
            .handle(SessionEvent::NotificationReceived);
        let customer = r.peer_by_address(Ipv4Addr::new(10, 0, 1, 1)).expect("peer");
        let out = r.handle_update(customer, &update("208.65.152.0/22", &[17557, 36561]));
        assert!(out.is_empty());
        assert_eq!(r.rib().prefix_count(), 1);
    }

    #[test]
    fn missing_filter_reference_fails_closed() {
        let config =
            RouterConfig::new(Ipv4Addr::new(10, 0, 0, 1), 65001).with_neighbor(NeighborConfig {
                address: Ipv4Addr::new(10, 0, 0, 9),
                remote_as: 65009,
                import_filter: Some("nonexistent".into()),
                export_filter: None,
            });
        let mut r = BgpRouter::new(config);
        r.start();
        let peer = r.peer_by_address(Ipv4Addr::new(10, 0, 0, 9)).expect("peer");
        let out = r.handle_update(peer, &update("10.0.0.0/8", &[65009]));
        assert!(out.is_empty());
        assert_eq!(r.rib().prefix_count(), 0);
        assert_eq!(r.stats().routes_rejected, 1);
    }

    #[test]
    fn clone_is_a_cow_fork_and_a_rebuilt_router_shares_nothing() {
        let mut live = provider();
        let customer = live
            .peer_by_address(Ipv4Addr::new(10, 0, 1, 1))
            .expect("peer");
        live.handle_update(customer, &update("208.65.152.0/22", &[17557, 36561]));

        // A checkpoint clone shares the RIB...
        let checkpoint = live.clone();
        assert!(checkpoint.rib().shares_table_with(live.rib()));
        // ...until a live write copies it, which never leaks into the
        // checkpoint.
        live.handle_update(customer, &update("208.65.154.0/24", &[17557, 36561]));
        assert_eq!(live.rib().prefix_count(), 2);
        assert_eq!(checkpoint.rib().prefix_count(), 1);
        assert!(!checkpoint.rib().shares_table_with(live.rib()));

        // A router fed the same updates holds the same table and shares
        // none of it.
        let mut rebuilt = provider();
        for prefix in ["208.65.152.0/22", "208.65.154.0/24"] {
            rebuilt.handle_update(customer, &update(prefix, &[17557, 36561]));
        }
        assert!(!rebuilt.rib().shares_table_with(live.rib()));
        assert_eq!(rebuilt.rib().prefix_count(), live.rib().prefix_count());
    }

    #[test]
    fn handling_into_a_lent_buffer_appends_what_handling_returns() {
        use dice_bgp::error::{ErrorCode, NotificationData};
        use dice_bgp::message::NotificationMessage;

        // The Provider with the victim /22 learned from its customer, so a
        // withdrawal has something to withdraw.
        let mut base = provider();
        let customer = base
            .peer_by_address(Ipv4Addr::new(10, 0, 1, 1))
            .expect("peer");
        let transit = base
            .peer_by_address(Ipv4Addr::new(10, 0, 2, 1))
            .expect("peer");
        base.handle_update(customer, &update("208.65.152.0/22", &[17557, 36561]));

        let notification = BgpMessage::Notification(NotificationMessage {
            error: NotificationData {
                code: ErrorCode::Cease,
                subcode: 2,
                data: Vec::new(),
            },
        });
        let cases = [
            (
                "open",
                transit,
                BgpMessage::Open(OpenMessage::new(1299, 90, 0x0a00_0201)),
            ),
            (
                "keepalive",
                transit,
                BgpMessage::Keepalive(KeepaliveMessage),
            ),
            ("notification", transit, notification),
            (
                "announce",
                transit,
                BgpMessage::Update(update("8.8.0.0/16", &[1299, 15169])),
            ),
            (
                "withdraw",
                customer,
                BgpMessage::Update(UpdateMessage::withdraw(vec![p("208.65.152.0/22")])),
            ),
            (
                "as-loop",
                transit,
                BgpMessage::Update(update("9.9.9.0/24", &[1299, 3491, 100])),
            ),
        ];
        for (name, from, message) in cases {
            let mut returned_by = base.clone();
            let returned = returned_by.handle_message(from, &message);

            let mut lent_to = base.clone();
            let held: Vec<Outgoing> = vec![
                (customer, BgpMessage::Keepalive(KeepaliveMessage)),
                (transit, BgpMessage::Keepalive(KeepaliveMessage)),
            ];
            let mut out = held.clone();
            lent_to.handle_message_into(from, &message, &mut out);

            assert_eq!(
                out[..held.len()],
                held[..],
                "{name}: held entries untouched"
            );
            assert_eq!(out[held.len()..], returned[..], "{name}: the same messages");
            assert_eq!(lent_to.stats(), returned_by.stats(), "{name}: router stats");
            assert_eq!(
                lent_to.stats().messages_sent - base.stats().messages_sent,
                returned.len() as u64,
                "{name}: only what the call appended is counted as sent"
            );
            for (a, b) in lent_to.peers().zip(returned_by.peers()) {
                assert_eq!(a.stats, b.stats, "{name}: peer {:?} stats", a.id);
                assert_eq!(
                    a.session.state(),
                    b.session.state(),
                    "{name}: peer {:?}",
                    a.id
                );
            }
        }
    }

    #[test]
    fn stats_reset() {
        let mut r = provider();
        let customer = r.peer_by_address(Ipv4Addr::new(10, 0, 1, 1)).expect("peer");
        r.handle_update(customer, &update("208.65.152.0/22", &[17557, 36561]));
        assert!(r.stats().updates_processed > 0);
        r.reset_stats();
        assert_eq!(r.stats().updates_processed, 0);
    }
}

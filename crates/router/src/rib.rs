//! Routing information bases: Adj-RIB-In, Loc-RIB and Adj-RIB-Out.
//!
//! The RIB is the node state that DiCE checkpoints and that the hijack
//! checker inspects ("a route already in the routing table prior to
//! starting exploration", paper §4.2).
//!
//! # Copy-on-write
//!
//! The table is one [`PrefixMap`] behind one [`Arc`], and the map keeps
//! its entries in chunks of 128 prefixes, each behind an `Arc` of its own.
//! `Rib::clone` is one reference-count bump (the fork/checkpoint
//! operation). The first write after a fork copies the table's counters
//! and the map's chunk directory ([`Arc::make_mut`]; one reference-count
//! bump per chunk), and the map then copies the one chunk the write lands
//! in, so a live router and its exploration checkpoints share every chunk
//! neither side has written.
//!
//! The map's key order is the canonical table order, so [`Rib::loc_rib`]
//! is a plain walk of it, and every digest built by walking the table
//! depends on that order alone.

use std::sync::Arc;

use dice_bgp::prefix::Ipv4Prefix;
use dice_bgp::route::{PeerId, Route};

use crate::decision::best_of;
use crate::trie::PrefixMap;

/// The effect of applying an announcement or withdrawal to the Loc-RIB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RibChange {
    /// The best route for the prefix changed to the contained route.
    Updated(Route),
    /// The prefix no longer has any route.
    Removed(Ipv4Prefix),
    /// The best route did not change.
    Unchanged,
}

impl RibChange {
    /// Returns true if the Loc-RIB was modified.
    pub fn is_change(&self) -> bool {
        !matches!(self, RibChange::Unchanged)
    }
}

/// The candidate routes of one prefix, at most one per peer, sorted by the
/// peer they were learned from.
///
/// Almost every prefix of a full table has exactly one candidate, so the
/// set is a plain vector whose first allocation holds exactly one route;
/// only contested prefixes grow it. A [`Route`] is three words (prefix,
/// shared attribute set, peer and router id), so that allocation is 24
/// bytes: the attribute set itself is the one the route's UPDATE arrived
/// with, not a copy.
#[derive(Debug, Clone, Default)]
struct Candidates(Vec<Route>);

impl Candidates {
    fn position(&self, peer: PeerId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&peer, |r| r.learned_from)
    }

    fn get(&self, peer: PeerId) -> Option<&Route> {
        self.position(peer).ok().map(|i| &self.0[i])
    }

    /// Inserts the route, or replaces the one already held from its peer
    /// and returns that.
    fn insert(&mut self, route: Route) -> Option<Route> {
        match self.position(route.learned_from) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i], route)),
            Err(i) => {
                if self.0.is_empty() {
                    // `Vec` would start at four slots; a table is mostly
                    // single-candidate prefixes.
                    self.0.reserve_exact(1);
                }
                self.0.insert(i, route);
                None
            }
        }
    }

    fn remove(&mut self, peer: PeerId) -> Option<Route> {
        self.position(peer).ok().map(|i| self.0.remove(i))
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The candidates in peer order.
    fn iter(&self) -> std::slice::Iter<'_, Route> {
        self.0.iter()
    }
}

/// The per-prefix candidate set plus the selected best route.
///
/// The map stores entries inline, 128 to a chunk, and the first write to a
/// chunk after a fork moves all of them, so this stays a vector header and
/// a peer id. Copying a chunk copies each entry's candidate vector, 24
/// bytes a route, and bumps each route's attribute-set reference count; no
/// attribute set is copied.
#[derive(Debug, Clone, Default)]
struct PrefixEntry {
    candidates: Candidates,
    /// The peer the best route was learned from, if any.
    best: Option<PeerId>,
}

impl PrefixEntry {
    /// The selected (Loc-RIB) route.
    fn best_route(&self) -> Option<&Route> {
        self.candidates.get(self.best?)
    }

    fn reselect(&mut self) {
        self.best = best_of(self.candidates.iter()).map(|r| r.learned_from);
    }
}

/// The routing table proper: a map of every prefix to its entry, plus the
/// table's counters. It sits behind one [`Arc`] in [`Rib`], so it is the
/// unit a fork shares and the first write after a fork copies (its
/// counters and the map's chunk directory; the map copies the one chunk
/// the write lands in).
#[derive(Debug, Clone, Default)]
struct RibTable {
    map: PrefixMap<PrefixEntry>,
    /// Number of prefixes with at least one candidate.
    prefixes: usize,
    /// Total number of candidate routes.
    candidates: usize,
    /// Write generation: bumped by every write that would copy this table
    /// were a fork holding it ([`Rib::generation`]).
    generation: u64,
}

impl RibTable {
    /// Inserts or replaces the route learned from `route.learned_from`,
    /// re-runs the decision process and reports the Loc-RIB change.
    ///
    /// This is the hot path of UPDATE processing (and of every concolic
    /// re-execution), so it searches the map once and allocates nothing
    /// beyond map and candidate-set growth; reselection scans the
    /// candidates without materializing them.
    fn announce(&mut self, route: Route) -> RibChange {
        self.generation += 1;
        let peer = route.learned_from;
        let (entry, inserted) = self
            .map
            .get_or_insert_with(route.prefix, PrefixEntry::default);
        if inserted {
            self.prefixes += 1;
        }
        let old_best_peer = entry.best;
        let replaced = entry.candidates.insert(route);
        if replaced.is_none() {
            self.candidates += 1;
        }
        entry.reselect();
        let new_best = entry.best_route();
        match (old_best_peer, new_best) {
            // An announce never empties a candidate set.
            (_, None) => RibChange::Unchanged,
            // Same best peer: the Loc-RIB view changed only if this
            // announce replaced that peer's route with a different one.
            (Some(old), Some(new)) if old == new.learned_from => {
                if old != peer || replaced.as_ref() == Some(new) {
                    RibChange::Unchanged
                } else {
                    RibChange::Updated(new.clone())
                }
            }
            (_, Some(new)) => RibChange::Updated(new.clone()),
        }
    }

    /// Removes the route learned from `peer` for `prefix`, if any.
    fn withdraw(&mut self, prefix: &Ipv4Prefix, peer: PeerId) -> RibChange {
        let Some(entry) = self.map.get_mut(prefix) else {
            return RibChange::Unchanged;
        };
        let old_best_peer = entry.best;
        if entry.candidates.remove(peer).is_none() {
            return RibChange::Unchanged;
        }
        self.generation += 1;
        self.candidates -= 1;
        if entry.candidates.is_empty() {
            self.map.remove(prefix);
            self.prefixes -= 1;
            return match old_best_peer {
                Some(_) => RibChange::Removed(*prefix),
                None => RibChange::Unchanged,
            };
        }
        if old_best_peer != Some(peer) {
            // Removing a non-best candidate cannot change the winner.
            return RibChange::Unchanged;
        }
        entry.reselect();
        match entry.best_route() {
            Some(new) => RibChange::Updated(new.clone()),
            None => RibChange::Removed(*prefix),
        }
    }
}

/// The router's routing table.
///
/// One prefix map (see the module docs) maps each prefix to its candidate
/// set (the Adj-RIBs-In merged per prefix) and the selected best route
/// (the Loc-RIB view). `Clone` is the copy-on-write fork: the table is
/// shared until written.
#[derive(Debug, Clone, Default)]
pub struct Rib {
    table: Arc<RibTable>,
}

impl Rib {
    /// Creates an empty RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of prefixes with at least one route.
    pub fn prefix_count(&self) -> usize {
        self.table.prefixes
    }

    /// Total number of candidate routes across all peers.
    pub fn route_count(&self) -> usize {
        self.table.candidates
    }

    /// Inserts or replaces the route learned from `route.learned_from` for
    /// `route.prefix`, re-runs the decision process and reports the change.
    pub fn announce(&mut self, route: Route) -> RibChange {
        Arc::make_mut(&mut self.table).announce(route)
    }

    /// Removes the route learned from `peer` for `prefix`, if any.
    pub fn withdraw(&mut self, prefix: &Ipv4Prefix, peer: PeerId) -> RibChange {
        // Uniquely owned table (the steady state of a live router whose
        // checkpoints have been released): mutate in place, one search.
        if let Some(table) = Arc::get_mut(&mut self.table) {
            return table.withdraw(prefix, peer);
        }
        // The table is shared with a fork: pay the copy-on-write clone
        // only when the withdrawal will actually change something.
        let held = self
            .table
            .map
            .get(prefix)
            .is_some_and(|e| e.candidates.get(peer).is_some());
        if !held {
            return RibChange::Unchanged;
        }
        Arc::make_mut(&mut self.table).withdraw(prefix, peer)
    }

    /// Copy-on-write accounting against another fork of the same table:
    /// whether the two still physically share the table, which holds until
    /// either side writes.
    pub fn shares_table_with(&self, other: &Rib) -> bool {
        Arc::ptr_eq(&self.table, &other.table)
    }

    /// The table's write generation.
    ///
    /// It moves with every write that would have copied the table had a
    /// fork been holding it: each announce, and each withdrawal that
    /// removes a candidate. Two equal readings therefore mean a fork held
    /// between them would still share the table, without holding one.
    pub fn generation(&self) -> u64 {
        self.table.generation
    }

    /// Whether some clone of this table currently shares it, i.e. whether
    /// the next write has to copy. False while no fork is alive.
    pub fn has_a_fork(&self) -> bool {
        Arc::strong_count(&self.table) > 1
    }

    /// The best (Loc-RIB) route for a prefix, if any.
    pub fn best_route(&self, prefix: &Ipv4Prefix) -> Option<&Route> {
        self.table.map.get(prefix)?.best_route()
    }

    /// All candidate routes for a prefix, in peer order.
    ///
    /// Returns a lazy iterator (empty for unknown prefixes) — the decision
    /// process and checkpoint serializer walk candidate sets on every
    /// operation, so no per-call `Vec` is built.
    pub fn candidates(&self, prefix: &Ipv4Prefix) -> impl Iterator<Item = &Route> {
        self.table
            .map
            .get(prefix)
            .into_iter()
            .flat_map(|entry| entry.candidates.iter())
    }

    /// The best route whose prefix covers the given prefix (most specific).
    /// This is the route an exploratory announcement for `prefix` would
    /// compete with, used by the origin-hijack checker.
    pub fn best_covering_route(&self, prefix: &Ipv4Prefix) -> Option<&Route> {
        self.table.map.longest_covering(prefix)?.1.best_route()
    }

    /// Longest-prefix-match forwarding lookup for an IP address.
    pub fn lookup_ip(&self, ip: u32) -> Option<&Route> {
        self.table.map.longest_match_ip(ip)?.1.best_route()
    }

    /// Iterates over all `(prefix, best route)` pairs (the Loc-RIB view),
    /// lazily and in the map's canonical prefix order.
    pub fn loc_rib(&self) -> impl Iterator<Item = (Ipv4Prefix, &Route)> {
        self.table
            .map
            .iter()
            .filter_map(|(p, entry)| entry.best_route().map(|r| (p, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::attributes::RouteAttrs;
    use dice_bgp::AsPath;
    use std::net::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().expect("valid prefix")
    }

    fn route(prefix: &str, peer: u32, path: &[u32]) -> Route {
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence(path.iter().copied());
        attrs.next_hop = Ipv4Addr::new(10, 0, 0, peer as u8);
        Route::new(p(prefix), attrs, PeerId(peer), peer)
    }

    #[test]
    fn announce_installs_best_route() {
        let mut rib = Rib::new();
        let change = rib.announce(route("203.0.113.0/24", 1, &[100, 200]));
        assert!(matches!(change, RibChange::Updated(_)));
        assert_eq!(rib.prefix_count(), 1);
        assert_eq!(rib.route_count(), 1);
        assert_eq!(
            rib.best_route(&p("203.0.113.0/24")).map(|r| r.learned_from),
            Some(PeerId(1))
        );
    }

    #[test]
    fn better_route_replaces_best() {
        let mut rib = Rib::new();
        rib.announce(route("203.0.113.0/24", 1, &[100, 200, 300]));
        let change = rib.announce(route("203.0.113.0/24", 2, &[400]));
        match change {
            RibChange::Updated(r) => assert_eq!(r.learned_from, PeerId(2)),
            other => panic!("expected update, got {other:?}"),
        }
        assert_eq!(rib.route_count(), 2);
        // A worse route from peer 3 leaves the best unchanged.
        let change = rib.announce(route("203.0.113.0/24", 3, &[1, 2, 3, 4]));
        assert_eq!(change, RibChange::Unchanged);
    }

    #[test]
    fn withdraw_falls_back_to_next_best() {
        let mut rib = Rib::new();
        rib.announce(route("203.0.113.0/24", 1, &[100, 200, 300]));
        rib.announce(route("203.0.113.0/24", 2, &[400]));
        let change = rib.withdraw(&p("203.0.113.0/24"), PeerId(2));
        match change {
            RibChange::Updated(r) => assert_eq!(r.learned_from, PeerId(1)),
            other => panic!("expected fallback, got {other:?}"),
        }
        let change = rib.withdraw(&p("203.0.113.0/24"), PeerId(1));
        assert_eq!(change, RibChange::Removed(p("203.0.113.0/24")));
        assert_eq!(rib.prefix_count(), 0);
        assert_eq!(rib.route_count(), 0);
    }

    #[test]
    fn withdraw_of_unknown_route_is_noop() {
        let mut rib = Rib::new();
        assert_eq!(
            rib.withdraw(&p("10.0.0.0/8"), PeerId(1)),
            RibChange::Unchanged
        );
        rib.announce(route("10.0.0.0/8", 1, &[100]));
        assert_eq!(
            rib.withdraw(&p("10.0.0.0/8"), PeerId(9)),
            RibChange::Unchanged
        );
    }

    #[test]
    fn same_route_twice_is_unchanged_but_replaces() {
        let mut rib = Rib::new();
        let r = route("10.0.0.0/8", 1, &[100]);
        rib.announce(r.clone());
        assert_eq!(rib.announce(r), RibChange::Unchanged);
        assert_eq!(rib.route_count(), 1);
    }

    #[test]
    fn covering_route_lookup_for_hijack_check() {
        // The YouTube scenario: the /22 is installed; a bogus /24 is more
        // specific, and the checker must find the /22 it would override.
        let mut rib = Rib::new();
        rib.announce(route("208.65.152.0/22", 1, &[3356, 36561]));
        let covering = rib
            .best_covering_route(&p("208.65.153.0/24"))
            .expect("covered");
        assert_eq!(covering.prefix, p("208.65.152.0/22"));
        assert_eq!(covering.origin_as().map(|a| a.value()), Some(36561));
        assert!(rib.best_covering_route(&p("1.2.3.0/24")).is_none());
    }

    #[test]
    fn forwarding_lookup_uses_longest_match() {
        let mut rib = Rib::new();
        rib.announce(route("0.0.0.0/0", 1, &[100]));
        rib.announce(route("10.0.0.0/8", 2, &[200]));
        let r = rib
            .lookup_ip(u32::from_be_bytes([10, 1, 1, 1]))
            .expect("route");
        assert_eq!(r.learned_from, PeerId(2));
        let r = rib
            .lookup_ip(u32::from_be_bytes([8, 8, 8, 8]))
            .expect("route");
        assert_eq!(r.learned_from, PeerId(1));
    }

    #[test]
    fn loc_rib_lists_only_best_routes() {
        let mut rib = Rib::new();
        rib.announce(route("10.0.0.0/8", 1, &[100, 200]));
        rib.announce(route("10.0.0.0/8", 2, &[300]));
        rib.announce(route("192.168.0.0/16", 1, &[100]));
        assert_eq!(rib.loc_rib().count(), 2);
        let (_, ten) = rib
            .loc_rib()
            .find(|(q, _)| *q == p("10.0.0.0/8"))
            .expect("present");
        assert_eq!(ten.learned_from, PeerId(2));
    }

    #[test]
    fn candidates_iterates_per_peer_routes() {
        let mut rib = Rib::new();
        rib.announce(route("10.0.0.0/8", 1, &[100, 200]));
        rib.announce(route("10.0.0.0/8", 2, &[300]));
        let peers: Vec<PeerId> = rib
            .candidates(&p("10.0.0.0/8"))
            .map(|r| r.learned_from)
            .collect();
        assert_eq!(peers, vec![PeerId(1), PeerId(2)]);
        assert_eq!(rib.candidates(&p("1.2.3.0/24")).count(), 0);
    }

    #[test]
    fn candidates_stay_in_peer_order_whatever_the_announce_order() {
        let prefix = p("10.0.0.0/8");
        let mut rib = Rib::new();
        // Peer 2 has the shortest path, then 1, then 3.
        rib.announce(route("10.0.0.0/8", 3, &[100, 200, 300]));
        rib.announce(route("10.0.0.0/8", 1, &[100, 200]));
        rib.announce(route("10.0.0.0/8", 2, &[100]));
        let peers =
            |rib: &Rib| -> Vec<u32> { rib.candidates(&prefix).map(|r| r.learned_from.0).collect() };
        assert_eq!(peers(&rib), [1, 2, 3]);
        assert_eq!(rib.route_count(), 3);
        assert_eq!(
            rib.best_route(&prefix).map(|r| r.learned_from),
            Some(PeerId(2))
        );
        // A re-announcement replaces in place.
        rib.announce(route("10.0.0.0/8", 3, &[100, 200, 300, 400]));
        assert_eq!(peers(&rib), [1, 2, 3]);
        assert_eq!(rib.route_count(), 3);

        // Withdrawing the best reselects among the rest, still in order.
        match rib.withdraw(&prefix, PeerId(2)) {
            RibChange::Updated(r) => assert_eq!(r.learned_from, PeerId(1)),
            other => panic!("expected fallback to peer 1, got {other:?}"),
        }
        assert_eq!(peers(&rib), [1, 3]);
        match rib.withdraw(&prefix, PeerId(1)) {
            RibChange::Updated(r) => assert_eq!(r.learned_from, PeerId(3)),
            other => panic!("expected fallback to peer 3, got {other:?}"),
        }
        assert_eq!(rib.withdraw(&prefix, PeerId(3)), RibChange::Removed(prefix));
        assert_eq!((rib.prefix_count(), rib.route_count()), (0, 0));
    }

    #[test]
    fn prefix_entry_stays_small_enough_to_sit_in_every_trie_node() {
        assert!(std::mem::size_of::<PrefixEntry>() <= 32);
    }

    #[test]
    fn generations_move_with_effective_writes_only() {
        let mut rib = Rib::new();
        let start = rib.generation();

        rib.announce(route("10.0.0.0/8", 1, &[100]));
        let one = rib.generation();
        assert_ne!(one, start);
        rib.announce(route("0.0.0.0/0", 1, &[100]));
        let two = rib.generation();
        assert_ne!(two, one);
        // An identical re-announcement still writes.
        rib.announce(route("10.0.0.0/8", 1, &[100]));
        assert_ne!(rib.generation(), two);

        // No-op withdrawals move nothing, through an owned table...
        let before = rib.generation();
        rib.withdraw(&p("10.0.0.0/8"), PeerId(9));
        rib.withdraw(&p("11.0.0.0/8"), PeerId(1));
        assert_eq!(rib.generation(), before);
        // ...and through one a fork holds, which they must not copy either.
        assert!(!rib.has_a_fork());
        let fork = rib.clone();
        assert!(rib.has_a_fork());
        rib.withdraw(&p("10.0.0.0/8"), PeerId(9));
        rib.withdraw(&p("11.0.0.0/8"), PeerId(1));
        assert_eq!(rib.generation(), before);
        assert!(fork.shares_table_with(&rib));

        // An effective withdrawal moves the generation, and copies the
        // table the fork holds.
        rib.withdraw(&p("10.0.0.0/8"), PeerId(1));
        assert_ne!(rib.generation(), before);
        assert_eq!(fork.generation(), before);
        assert!(!fork.shares_table_with(&rib));
        assert!(!rib.has_a_fork());
        assert!(!fork.has_a_fork());
    }

    #[test]
    fn reannouncement_from_best_peer_reports_attribute_changes() {
        let mut rib = Rib::new();
        rib.announce(route("10.0.0.0/8", 1, &[100, 200]));
        // Identical re-announcement: unchanged.
        assert_eq!(
            rib.announce(route("10.0.0.0/8", 1, &[100, 200])),
            RibChange::Unchanged
        );
        // Same (best) peer, different attributes: the Loc-RIB view changed
        // even though the winning peer did not.
        match rib.announce(route("10.0.0.0/8", 1, &[100, 200, 300])) {
            RibChange::Updated(r) => assert_eq!(r.attrs.as_path.length(), 3),
            other => panic!("expected update, got {other:?}"),
        }
    }

    /// A route mix with short prefixes (/0../3), deep /32s, nested covers
    /// and contested prefixes.
    fn mixed_routes() -> Vec<Route> {
        vec![
            route("0.0.0.0/0", 1, &[100]),
            route("128.0.0.0/1", 2, &[200]),
            route("64.0.0.0/3", 1, &[100, 200]),
            route("10.0.0.0/8", 1, &[100]),
            route("10.0.0.0/8", 2, &[300, 400]),
            route("10.1.0.0/16", 3, &[500]),
            route("192.168.0.0/16", 1, &[100]),
            route("192.168.1.1/32", 2, &[200]),
            route("208.65.152.0/22", 1, &[3356, 36561]),
            route("208.65.153.0/24", 2, &[17557]),
            route("223.255.255.0/24", 3, &[999]),
        ]
    }

    #[test]
    fn clone_is_a_cow_fork_and_a_rebuilt_table_shares_nothing() {
        let mut live = Rib::new();
        for r in mixed_routes() {
            live.announce(r);
        }
        let fork = live.clone();
        assert!(
            fork.shares_table_with(&live),
            "an untouched fork shares the table"
        );

        // Writing one prefix copies the table.
        live.announce(route("203.0.113.0/24", 1, &[100]));
        assert!(!fork.shares_table_with(&live), "copied on write");
        // The fork is unaffected by the live write.
        assert!(fork.best_route(&p("203.0.113.0/24")).is_none());
        assert!(live.best_route(&p("203.0.113.0/24")).is_some());

        // A no-op withdrawal must not break sharing.
        let mut fork2 = live.clone();
        assert_eq!(
            fork2.withdraw(&p("1.2.3.0/24"), PeerId(9)),
            RibChange::Unchanged
        );
        assert_eq!(
            fork2.withdraw(&p("10.0.0.0/8"), PeerId(9)),
            RibChange::Unchanged,
            "unknown peer on a known prefix is also a no-op"
        );
        assert!(
            fork2.shares_table_with(&live),
            "no-op withdrawals copy nothing"
        );

        // Sharing is physical, not logical: the same routes announced into
        // a new table share nothing with it.
        let mut rebuilt = Rib::new();
        for r in mixed_routes() {
            rebuilt.announce(r);
        }
        rebuilt.announce(route("203.0.113.0/24", 1, &[100]));
        assert!(!rebuilt.shares_table_with(&live));
        let a: Vec<_> = rebuilt.loc_rib().map(|(p, _)| p).collect();
        let b: Vec<_> = live.loc_rib().map(|(p, _)| p).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn first_write_after_a_fork_copies_one_chunk() {
        let mut live = Rib::new();
        for i in 0..10_000u32 {
            // 5,000 prefixes under 10/8 and 5,000 under 200/8.
            let high = if i % 2 == 0 { 10 } else { 200 };
            let prefix = Ipv4Prefix::must((high << 24) | (i << 8), 24);
            live.announce(Route::new(prefix, RouteAttrs::default(), PeerId(1), 1));
        }
        let fork = live.clone();
        let before: Vec<(Ipv4Prefix, Route)> =
            fork.loc_rib().map(|(p, r)| (p, r.clone())).collect();
        assert_eq!(before.len(), 10_000);
        let chunks_shared = |live: &Rib| live.table.map.chunks_shared_with(&fork.table.map);
        assert_eq!(chunks_shared(&live).0, chunks_shared(&live).1);

        // Withdrawing what the table does not hold copies nothing, neither
        // the table nor a chunk of it.
        assert_eq!(
            live.withdraw(&p("200.0.0.128/25"), PeerId(1)),
            RibChange::Unchanged
        );
        assert_eq!(
            live.withdraw(&p("200.0.1.0/24"), PeerId(9)),
            RibChange::Unchanged
        );
        assert!(fork.shares_table_with(&live));

        // A second candidate for a prefix the table holds.
        live.announce(route("10.0.2.0/24", 2, &[100]));
        assert!(!fork.shares_table_with(&live), "the table copied");
        let (shared, total) = chunks_shared(&live);
        assert!(total > 60, "10,000 prefixes fill {total} chunks");
        assert_eq!(shared, total - 1, "all chunks but the written one shared");
        let after: Vec<(Ipv4Prefix, Route)> = fork.loc_rib().map(|(p, r)| (p, r.clone())).collect();
        assert_eq!(after, before, "the fork reads the table it was taken from");
        assert_eq!(live.route_count(), 10_001);

        // 100 writes spread over every chunk of the 10/8 half copy those
        // chunks only: the 200/8 half stays shared with the fork.
        for i in (0..10_000u32).step_by(100) {
            let prefix = Ipv4Prefix::must((10 << 24) | (i << 8), 24);
            live.announce(Route::new(prefix, RouteAttrs::default(), PeerId(3), 3));
        }
        let (shared, total) = chunks_shared(&live);
        assert!(shared < total / 2, "{shared}/{total} chunks shared");
        assert!(shared * 4 >= total, "{shared}/{total} chunks shared");
        assert_eq!(fork.loc_rib().count(), 10_000);
    }
}

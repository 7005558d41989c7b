//! The BGP decision process (RFC 4271 §9.1.2), as implemented by BIRD.
//!
//! Given the candidate routes for a prefix (one per peer in the Adj-RIB-In
//! that survived import filtering), the decision process picks the single
//! best route installed in the Loc-RIB and advertised onward.

use std::cmp::Ordering;

use dice_bgp::route::Route;

/// The reason one route was preferred over another, for operator-facing
/// explanations and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DecisionReason {
    /// Higher LOCAL_PREF wins.
    LocalPref,
    /// Shorter AS path wins.
    AsPathLength,
    /// Lower ORIGIN (IGP < EGP < incomplete) wins.
    Origin,
    /// Lower MED wins (compared only between routes from the same
    /// neighboring AS).
    Med,
    /// Locally-originated routes beat learned routes.
    LocalOrigination,
    /// Lower peer router id wins (final tie breaker).
    RouterId,
    /// The routes compare equal on every criterion.
    Equal,
}

/// Compares two candidate routes; `Ordering::Greater` means `a` is better.
pub(crate) fn compare(a: &Route, b: &Route) -> (Ordering, DecisionReason) {
    // 1. Highest LOCAL_PREF.
    let lp = a
        .attrs
        .effective_local_pref()
        .cmp(&b.attrs.effective_local_pref());
    if lp != Ordering::Equal {
        return (lp, DecisionReason::LocalPref);
    }
    // 2. Locally-originated routes are preferred.
    let local = (!a.is_learned()).cmp(&!b.is_learned());
    if local != Ordering::Equal {
        return (local, DecisionReason::LocalOrigination);
    }
    // 3. Shortest AS path.
    let len = b.attrs.as_path.length().cmp(&a.attrs.as_path.length());
    if len != Ordering::Equal {
        return (len, DecisionReason::AsPathLength);
    }
    // 4. Lowest ORIGIN code.
    let origin = b.attrs.origin.code().cmp(&a.attrs.origin.code());
    if origin != Ordering::Equal {
        return (origin, DecisionReason::Origin);
    }
    // 5. Lowest MED, but only when the neighbor AS matches.
    if a.attrs.as_path.neighbor_as().is_some()
        && a.attrs.as_path.neighbor_as() == b.attrs.as_path.neighbor_as()
    {
        let med = b.attrs.effective_med().cmp(&a.attrs.effective_med());
        if med != Ordering::Equal {
            return (med, DecisionReason::Med);
        }
    }
    // 6. Lowest peer router id.
    let rid = b.peer_router_id.cmp(&a.peer_router_id);
    if rid != Ordering::Equal {
        return (rid, DecisionReason::RouterId);
    }
    (Ordering::Equal, DecisionReason::Equal)
}

/// Returns true if `candidate` is strictly better than `current`.
#[cfg(test)]
fn is_better(candidate: &Route, current: &Route) -> bool {
    compare(candidate, current).0 == Ordering::Greater
}

/// Selects the best route among candidates, returning its index: the
/// indexed reference [`best_of`] is tested against.
#[cfg(test)]
fn select_best(candidates: &[Route]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, r) in candidates.iter().enumerate() {
        match best {
            None => best = Some(i),
            Some(b) => {
                if compare(r, &candidates[b]).0 == Ordering::Greater {
                    best = Some(i);
                }
            }
        }
    }
    best
}

/// Selects the best route from an iterator of borrowed candidates without
/// materializing them (ties keep the earliest candidate). This is the
/// allocation-free path the RIB decision process runs on every
/// announce/withdraw.
pub fn best_of<'a, I>(candidates: I) -> Option<&'a Route>
where
    I: IntoIterator<Item = &'a Route>,
{
    let mut best: Option<&'a Route> = None;
    for r in candidates {
        match best {
            None => best = Some(r),
            Some(b) => {
                if compare(r, b).0 == Ordering::Greater {
                    best = Some(r);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::attributes::{Origin, RouteAttrs};
    use dice_bgp::prefix::Ipv4Prefix;
    use dice_bgp::route::PeerId;
    use dice_bgp::AsPath;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn prefix() -> Ipv4Prefix {
        "203.0.113.0/24".parse().expect("valid")
    }

    fn route(peer: u32, path: &[u32]) -> Route {
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence(path.iter().copied());
        attrs.next_hop = Ipv4Addr::new(10, 0, 0, peer as u8);
        Route::new(prefix(), attrs, PeerId(peer), peer)
    }

    #[test]
    fn local_pref_dominates() {
        let mut a = route(1, &[100, 200, 300]);
        Arc::make_mut(&mut a.attrs).local_pref = Some(200);
        let b = route(2, &[400]);
        let (ord, reason) = compare(&a, &b);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(reason, DecisionReason::LocalPref);
        assert!(is_better(&a, &b));
    }

    #[test]
    fn shorter_as_path_wins() {
        let a = route(1, &[100]);
        let b = route(2, &[200, 300]);
        let (ord, reason) = compare(&a, &b);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(reason, DecisionReason::AsPathLength);
    }

    #[test]
    fn origin_breaks_path_length_ties() {
        let mut a = route(1, &[100]);
        Arc::make_mut(&mut a.attrs).origin = Origin::Igp;
        let mut b = route(2, &[200]);
        Arc::make_mut(&mut b.attrs).origin = Origin::Incomplete;
        let (ord, reason) = compare(&a, &b);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(reason, DecisionReason::Origin);
    }

    #[test]
    fn med_only_compared_within_same_neighbor_as() {
        // Same neighbor AS: lower MED wins.
        let mut a = route(1, &[100, 300]);
        Arc::make_mut(&mut a.attrs).med = Some(10);
        let mut b = route(2, &[100, 400]);
        Arc::make_mut(&mut b.attrs).med = Some(50);
        let (ord, reason) = compare(&a, &b);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(reason, DecisionReason::Med);

        // Different neighbor AS: MED is skipped, router id decides.
        let mut c = route(1, &[100, 300]);
        Arc::make_mut(&mut c.attrs).med = Some(500);
        let mut d = route(2, &[200, 400]);
        Arc::make_mut(&mut d.attrs).med = Some(1);
        let (_, reason) = compare(&c, &d);
        assert_eq!(reason, DecisionReason::RouterId);
    }

    #[test]
    fn locally_originated_beats_learned() {
        let learned = route(1, &[100]);
        let local = Route::local(prefix(), RouteAttrs::default());
        let (ord, reason) = compare(&local, &learned);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(reason, DecisionReason::LocalOrigination);
    }

    #[test]
    fn router_id_is_final_tiebreak() {
        let a = route(1, &[100, 200]);
        let b = route(2, &[300, 400]);
        let (ord, reason) = compare(&a, &b);
        assert_eq!(reason, DecisionReason::RouterId);
        assert_eq!(ord, Ordering::Greater); // Lower router id (1) wins.
        let (ord2, reason2) = compare(&a, &a.clone());
        assert_eq!(ord2, Ordering::Equal);
        assert_eq!(reason2, DecisionReason::Equal);
    }

    #[test]
    fn select_best_scans_all_candidates() {
        let mut best = route(3, &[100]);
        Arc::make_mut(&mut best.attrs).local_pref = Some(300);
        let candidates = vec![route(1, &[100, 200]), route(2, &[100]), best.clone()];
        assert_eq!(select_best(&candidates), Some(2));
        assert_eq!(select_best(&[]), None);
    }

    #[test]
    fn best_of_agrees_with_select_best() {
        let mut preferred = route(3, &[100]);
        Arc::make_mut(&mut preferred.attrs).local_pref = Some(300);
        let candidates = vec![route(1, &[100, 200]), route(2, &[100]), preferred];
        let by_index = select_best(&candidates).map(|i| &candidates[i]);
        assert_eq!(best_of(candidates.iter()), by_index);
        assert_eq!(best_of(std::iter::empty()), None);
        // Ties keep the earliest candidate in both selectors.
        let tied = vec![route(1, &[100]), route(1, &[200])];
        assert_eq!(
            best_of(tied.iter()).map(|r| r.peer_router_id),
            select_best(&tied).map(|i| tied[i].peer_router_id)
        );
    }
}

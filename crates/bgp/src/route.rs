//! Routes: a prefix bound to path attributes and provenance.
//!
//! A [`Route`] holds its attributes behind an [`Arc`]: every route an
//! UPDATE installs shares the attribute set the UPDATE arrived with, and
//! a policy that edits a route copies the set first
//! ([`Arc::make_mut`]).

use std::fmt;
use std::sync::Arc;

use crate::asn::Asn;
use crate::attributes::RouteAttrs;
use crate::prefix::Ipv4Prefix;

/// Identifier of the peer a route was learned from.
///
/// `PeerId(0)` is reserved for locally-originated routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u32);

impl PeerId {
    /// The local router itself (static / originated routes).
    pub(crate) const LOCAL: PeerId = PeerId(0);

    /// Returns true for locally-originated routes.
    pub(crate) fn is_local(self) -> bool {
        self == PeerId::LOCAL
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_local() {
            write!(f, "local")
        } else {
            write!(f, "peer{}", self.0)
        }
    }
}

/// A route: one prefix with its attributes and the peer it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The destination prefix.
    pub prefix: Ipv4Prefix,
    /// Path attributes, shared with the UPDATE that carried them and with
    /// every other route installed from it. Compared by content.
    pub attrs: Arc<RouteAttrs>,
    /// The peer the route was learned from.
    pub learned_from: PeerId,
    /// Router id of the advertising router (decision-process tie breaker).
    pub peer_router_id: u32,
}

impl Route {
    /// Creates a route; `attrs` is an owned set or one to share.
    pub fn new(
        prefix: Ipv4Prefix,
        attrs: impl Into<Arc<RouteAttrs>>,
        learned_from: PeerId,
        peer_router_id: u32,
    ) -> Self {
        Route {
            prefix,
            attrs: attrs.into(),
            learned_from,
            peer_router_id,
        }
    }

    /// Creates a locally-originated route.
    pub fn local(prefix: Ipv4Prefix, attrs: RouteAttrs) -> Self {
        Route {
            prefix,
            attrs: Arc::new(attrs),
            learned_from: PeerId::LOCAL,
            peer_router_id: 0,
        }
    }

    /// The origin AS of the route (the AS that injected it into BGP).
    pub fn origin_as(&self) -> Option<Asn> {
        self.attrs.origin_as()
    }

    /// Returns true if the route was learned from an external peer.
    pub fn is_learned(&self) -> bool {
        !self.learned_from.is_local()
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} via {} path [{}] lp={} med={}",
            self.prefix,
            self.attrs.next_hop,
            self.attrs.as_path,
            self.attrs.effective_local_pref(),
            self.attrs.effective_med()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn peer_id_local_sentinel() {
        assert!(PeerId::LOCAL.is_local());
        assert!(!PeerId(3).is_local());
        assert_eq!(PeerId::LOCAL.to_string(), "local");
        assert_eq!(PeerId(3).to_string(), "peer3");
    }

    #[test]
    fn a_route_is_three_words() {
        assert_eq!(std::mem::size_of::<Route>(), 24);
    }

    #[test]
    fn route_accessors() {
        let attrs = RouteAttrs::originated(36561, Ipv4Addr::new(192, 0, 2, 1));
        let prefix: Ipv4Prefix = "208.65.152.0/22".parse().expect("valid");
        let r = Route::new(prefix, attrs.clone(), PeerId(2), 0x0a000002);
        assert_eq!(r.origin_as(), Some(Asn(36561)));
        assert!(r.is_learned());
        let local = Route::local(prefix, attrs);
        assert!(!local.is_learned());
    }

    #[test]
    fn display_contains_prefix_and_path() {
        let attrs = RouteAttrs::originated(65001, Ipv4Addr::new(10, 0, 0, 1));
        let prefix: Ipv4Prefix = "10.1.0.0/16".parse().expect("valid");
        let r = Route::local(prefix, attrs);
        let s = r.to_string();
        assert!(s.contains("10.1.0.0/16"));
        assert!(s.contains("65001"));
    }
}

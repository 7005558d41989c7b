//! Router configuration: identity, neighbors, filters and static routes.
//!
//! A configuration is built with [`RouterConfig::new`] and the `with_*`
//! builders; its filters come from [`crate::policy::parse_filter`].

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use dice_bgp::prefix::Ipv4Prefix;

use crate::policy::FilterDef;

/// Configuration of one BGP neighbor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborConfig {
    /// The neighbor's address.
    pub address: Ipv4Addr,
    /// The neighbor's AS number.
    pub remote_as: u32,
    /// Name of the import filter, if any (`None` accepts everything).
    pub import_filter: Option<String>,
    /// Name of the export filter, if any (`None` exports everything).
    pub export_filter: Option<String>,
}

/// A statically configured (locally originated) route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticRoute {
    /// The originated prefix.
    pub prefix: Ipv4Prefix,
    /// Next hop advertised for the prefix.
    pub next_hop: Ipv4Addr,
}

/// Complete router configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// The router identifier.
    pub router_id: Ipv4Addr,
    /// The local AS number.
    pub local_as: u32,
    /// Neighbors in declaration order.
    pub neighbors: Vec<NeighborConfig>,
    /// Named filters.
    pub filters: BTreeMap<String, FilterDef>,
    /// Locally originated routes.
    pub static_routes: Vec<StaticRoute>,
}

impl RouterConfig {
    /// Creates a minimal configuration with no neighbors or filters.
    pub fn new(router_id: Ipv4Addr, local_as: u32) -> Self {
        RouterConfig {
            router_id,
            local_as,
            neighbors: Vec::new(),
            filters: BTreeMap::new(),
            static_routes: Vec::new(),
        }
    }

    /// Adds a neighbor; builder style.
    pub fn with_neighbor(mut self, n: NeighborConfig) -> Self {
        self.neighbors.push(n);
        self
    }

    /// Adds a filter; builder style.
    pub fn with_filter(mut self, f: FilterDef) -> Self {
        self.filters.insert(f.name.clone(), f);
        self
    }

    /// Adds a static route; builder style.
    pub fn with_static_route(mut self, prefix: Ipv4Prefix, next_hop: Ipv4Addr) -> Self {
        self.static_routes.push(StaticRoute { prefix, next_hop });
        self
    }

    /// Looks up a filter by name.
    pub fn filter(&self, name: &str) -> Option<&FilterDef> {
        self.filters.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BgpRouter;
    use dice_bgp::attributes::RouteAttrs;
    use dice_bgp::message::UpdateMessage;
    use dice_bgp::AsPath;

    #[test]
    fn neighbor_without_filters_accepts_everything() {
        let address = Ipv4Addr::new(10, 0, 0, 2);
        let config =
            RouterConfig::new(Ipv4Addr::new(10, 0, 0, 1), 65001).with_neighbor(NeighborConfig {
                address,
                remote_as: 65002,
                import_filter: None,
                export_filter: None,
            });
        let mut router = BgpRouter::new(config);
        router.start();
        let peer = router.peer_by_address(address).expect("peer");
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence([65002, 64512]);
        for prefix in ["10.0.0.0/8", "208.65.153.0/24", "0.0.0.0/0"] {
            let update = UpdateMessage::announce(vec![prefix.parse().expect("valid")], &attrs);
            router.handle_update(peer, &update);
        }
        assert_eq!(router.rib().prefix_count(), 3);
    }
}

//! Topology descriptions, including the paper's Figure 2 testbed.

use dice_router::policy::parse_filter;
use dice_router::{NeighborConfig, RouterConfig};

/// Index of a node within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// One node of a topology: a name plus its router configuration.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Human-readable name ("Provider", "Customer", ...).
    pub name: String,
    /// The node's router configuration.
    pub config: RouterConfig,
}

/// A topology: a set of nodes whose neighbor configurations reference each
/// other by router id / address.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its id.
    pub(crate) fn add_node(&mut self, name: impl Into<String>, config: RouterConfig) -> NodeId {
        self.nodes.push(NodeSpec {
            name: name.into(),
            config,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// The nodes in insertion order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }
}

/// The ASes of the Figure 2 topology.
pub mod asn {
    /// The customer AS (Pakistan Telecom in the motivating incident).
    pub const CUSTOMER: u32 = 17557;
    /// The provider AS running DiCE (PCCW in the incident).
    pub(crate) const PROVIDER: u32 = 3491;
    /// The aggregate "rest of the Internet" AS.
    pub const INTERNET: u32 = 1299;
    /// The legitimate origin of the victim prefix (YouTube).
    pub const VICTIM: u32 = 36561;
}

/// Router ids (also used as link addresses) of the Figure 2 nodes.
pub mod addr {
    use std::net::Ipv4Addr;

    /// The customer router.
    pub const CUSTOMER: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 1);
    /// The provider (DiCE-enabled) router.
    pub(crate) const PROVIDER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    /// The "rest of the Internet" router.
    pub const INTERNET: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 1);
}

/// How the Provider's customer import filter is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CustomerFilterMode {
    /// Best practice: only the customer's allocated prefixes are accepted.
    Correct,
    /// The filter admits the customer's block but fails to pin the origin
    /// AS — the "erroneous filter" case of §4.2.
    Erroneous,
    /// No customer filtering at all — the PCCW misconfiguration that let
    /// the YouTube hijack spread.
    Missing,
}

/// Builds the three-router topology of Figure 2: a Customer and the "rest
/// of the Internet" both peer with the Provider, whose router is the
/// DiCE-enabled node. `mode` selects how (mis)configured the Provider's
/// customer route filtering is.
pub fn figure2_topology(mode: CustomerFilterMode) -> Topology {
    // Provider (AS 3491): customer-provider link + transit to the Internet.
    let customer_in = match mode {
        CustomerFilterMode::Correct => parse_filter(
            r#"filter customer_in {
                if net ~ [ 41.0.0.0/12{12,24} ] && source_as = 17557 then accept;
                reject;
            }"#,
        )
        .expect("valid filter"),
        CustomerFilterMode::Erroneous => parse_filter(
            // "Partially correct route filtering" (§4.2): the customer's own
            // block is filtered correctly, but a stale entry for a block the
            // customer no longer holds (the victim's 208.65.152.0/22) was
            // left in place and the origin AS is never pinned, so the
            // customer can announce the victim's prefix and more-specifics
            // of it.
            r#"filter customer_in {
                if net ~ [ 41.0.0.0/12{12,24} ] then accept;
                if net ~ [ 208.65.152.0/22{22,24} ] then accept;
                reject;
            }"#,
        )
        .expect("valid filter"),
        CustomerFilterMode::Missing => dice_router::policy::FilterDef::accept_all("customer_in"),
    };
    figure2_topology_with_customer_filter(customer_in)
}

/// The Figure 2 wiring with an arbitrary Provider customer import filter
/// (referenced by the filter's own name). This is the hook scenario tests
/// use to install bespoke policies — e.g. an attribute-gated filter whose
/// exploratory variants keep the announced prefix under another origin,
/// the setup in which a mid-run live round flags a hijack of a route that
/// is installed only mid-run.
pub fn figure2_topology_with_customer_filter(
    customer_in: dice_router::policy::FilterDef,
) -> Topology {
    let mut topo = Topology::new();

    // Customer (AS 17557): originates its own allocation, no import filters.
    let customer_cfg = RouterConfig::new(addr::CUSTOMER, asn::CUSTOMER)
        .with_filter(dice_router::policy::FilterDef::accept_all("all"))
        .with_neighbor(NeighborConfig {
            address: addr::PROVIDER,
            remote_as: asn::PROVIDER,
            import_filter: Some("all".into()),
            export_filter: Some("all".into()),
        })
        .with_static_route("41.0.0.0/12".parse().expect("valid"), addr::CUSTOMER);
    topo.add_node("Customer", customer_cfg);

    let customer_in_name = customer_in.name.clone();
    let provider_cfg = RouterConfig::new(addr::PROVIDER, asn::PROVIDER)
        .with_filter(customer_in)
        .with_filter(dice_router::policy::FilterDef::accept_all("transit_in"))
        .with_filter(dice_router::policy::FilterDef::accept_all("announce_all"))
        .with_neighbor(NeighborConfig {
            address: addr::CUSTOMER,
            remote_as: asn::CUSTOMER,
            import_filter: Some(customer_in_name),
            export_filter: Some("announce_all".into()),
        })
        .with_neighbor(NeighborConfig {
            address: addr::INTERNET,
            remote_as: asn::INTERNET,
            import_filter: Some("transit_in".into()),
            export_filter: Some("announce_all".into()),
        });
    topo.add_node("Provider", provider_cfg);

    // Rest of the Internet (AS 1299): a single router standing in for the
    // full table source; it replays the RouteViews-like trace.
    let internet_cfg = RouterConfig::new(addr::INTERNET, asn::INTERNET)
        .with_filter(dice_router::policy::FilterDef::accept_all("all"))
        .with_neighbor(NeighborConfig {
            address: addr::PROVIDER,
            remote_as: asn::PROVIDER,
            import_filter: Some("all".into()),
            export_filter: Some("all".into()),
        });
    topo.add_node("RestOfInternet", internet_cfg);

    topo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_has_three_nodes_with_expected_roles() {
        let topo = figure2_topology(CustomerFilterMode::Correct);
        assert_eq!(topo.nodes().len(), 3);
        let provider = topo.node_by_name("Provider").expect("provider");
        let spec = &topo.nodes()[provider.0];
        assert_eq!(spec.config.local_as, asn::PROVIDER);
        assert_eq!(spec.config.neighbors.len(), 2);
        assert!(topo.node_by_name("Customer").is_some());
        assert!(topo.node_by_name("RestOfInternet").is_some());
        assert!(topo.node_by_name("nonexistent").is_none());
        assert_eq!(spec.config.router_id, addr::PROVIDER);
    }

    #[test]
    fn filter_modes_change_the_customer_filter() {
        for (mode, branches) in [
            (CustomerFilterMode::Correct, 1),
            (CustomerFilterMode::Erroneous, 2),
            (CustomerFilterMode::Missing, 0),
        ] {
            let topo = figure2_topology(mode);
            let provider = topo.node_by_name("Provider").expect("provider");
            let filter = topo.nodes()[provider.0]
                .config
                .filter("customer_in")
                .expect("filter present");
            assert_eq!(filter.branch_count(), branches, "mode {mode:?}");
        }
    }

    #[test]
    fn configs_validate() {
        for mode in [
            CustomerFilterMode::Correct,
            CustomerFilterMode::Erroneous,
            CustomerFilterMode::Missing,
        ] {
            for node in figure2_topology(mode).nodes() {
                for neighbor in &node.config.neighbors {
                    let filters = [&neighbor.import_filter, &neighbor.export_filter];
                    for name in filters.into_iter().flatten() {
                        assert!(
                            node.config.filter(name).is_some(),
                            "{} names filter `{name}`, which it defines",
                            node.name
                        );
                    }
                }
            }
        }
    }
}

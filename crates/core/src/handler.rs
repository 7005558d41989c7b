//! The symbolic UPDATE handler: the program DiCE explores.
//!
//! Each execution processes one (generated) UPDATE over a clone of the node
//! checkpoint: the import filter of the originating peer is interpreted
//! over symbolic route fields (recording constraints), the acceptance
//! decision is taken, and any messages the node would emit are intercepted
//! rather than sent (§2.3: "DiCE intercepts the messages generated during
//! exploration"): each run records them in
//! [`HandlerOutcome::intercepted`], and nothing reaches a live peer.

use std::sync::Arc;

use dice_bgp::message::UpdateMessage;
use dice_bgp::prefix::Ipv4Prefix;
use dice_bgp::route::PeerId;
use dice_router::policy::{eval_filter_at, FilterSites};
use dice_router::{BgpRouter, FilterOutcome};
use dice_symexec::{ExecCtx, InputValues, SymbolicProgram};

use crate::checkpoint::RoundCheckpoint;
use crate::symbolic_input::UpdateTemplate;

/// The application-level outcome of one exploratory execution.
#[derive(Debug, Clone)]
pub struct HandlerOutcome {
    /// The prefix announced by the exploratory message.
    pub prefix: Ipv4Prefix,
    /// The origin AS carried by the exploratory message.
    pub origin_as: u32,
    /// Whether the import policy accepted the route.
    pub accepted: bool,
    /// The BGP next hop carried by the exploratory message.
    pub next_hop: std::net::Ipv4Addr,
    /// The flattened AS path carried by the exploratory message, neighbor
    /// AS first, origin AS last. Relationship-aware checkers (e.g. the
    /// Gao-Rexford [`crate::RouteLeakChecker`]) classify each hop.
    pub as_path: Vec<u32>,
    /// The messages this execution would have emitted, in emission order —
    /// all intercepted, never sent.
    pub intercepted: Vec<(PeerId, UpdateMessage)>,
}

/// The symbolic UPDATE handler explored by the concolic engine.
///
/// The handler only *reads* the checkpointed router (filters, peers, the
/// routing table), so every handler of a round shares one
/// [`RoundCheckpoint`] by reference count instead of deep-cloning the
/// router per observed input.
#[derive(Debug)]
pub struct SymbolicUpdateHandler {
    checkpoint: RoundCheckpoint,
    peer: PeerId,
    template: UpdateTemplate,
    /// The branch sites of the peer's import filter, labelled and hashed
    /// once for all the handler's runs — once per round, when the round
    /// hands them in (`None` when the peer has no import filter, or names
    /// one the configuration lacks).
    import_sites: Option<Arc<FilterSites>>,
}

impl SymbolicUpdateHandler {
    /// Creates a handler over a shared round checkpoint, exploring inputs
    /// derived from an update observed from `peer`. A standalone handler
    /// takes [`RoundCheckpoint::capture`] of the router.
    pub fn new(checkpoint: RoundCheckpoint, peer: PeerId, template: UpdateTemplate) -> Self {
        let import_sites = Self::import_sites_of(checkpoint.router(), peer);
        Self::with_import_sites(checkpoint, peer, template, import_sites)
    }

    /// The branch-site table of `peer`'s import filter on `router`, or
    /// `None` when the peer has no import filter or names one the
    /// configuration lacks.
    pub(crate) fn import_sites_of(router: &BgpRouter, peer: PeerId) -> Option<Arc<FilterSites>> {
        router
            .peer(peer)
            .and_then(|p| p.import_filter.as_deref())
            .and_then(|name| router.config().filter(name))
            .map(|filter| Arc::new(FilterSites::of(filter)))
    }

    /// [`SymbolicUpdateHandler::new`] with the site table already built
    /// ([`SymbolicUpdateHandler::import_sites_of`]), so a round exploring
    /// many inputs from one peer builds it once.
    pub(crate) fn with_import_sites(
        checkpoint: RoundCheckpoint,
        peer: PeerId,
        template: UpdateTemplate,
        import_sites: Option<Arc<FilterSites>>,
    ) -> Self {
        SymbolicUpdateHandler {
            checkpoint,
            peer,
            template,
            import_sites,
        }
    }
}

impl SymbolicProgram for SymbolicUpdateHandler {
    type Output = HandlerOutcome;

    fn run(&mut self, ctx: &mut ExecCtx, input: &InputValues) -> HandlerOutcome {
        // Materialize the concrete message described by this input and the
        // symbolic view the filter interpreter sees.
        let (prefix, attrs) = self.template.materialize(input);
        let view = self.template.symbolic_view(ctx, input);

        // Everything below only reads the shared snapshot.
        let router = self.checkpoint.router();

        // Run the peer's import policy over the symbolic view. A peer
        // without an import filter accepts everything; a reference to a
        // missing filter fails closed, mirroring the live router.
        let import_filter = router
            .peer(self.peer)
            .and_then(|p| p.import_filter.as_deref());
        let filter_outcome = match import_filter {
            None => FilterOutcome::accepted(),
            Some(name) => match (router.config().filter(name), self.import_sites.as_deref()) {
                (Some(filter), Some(sites)) => eval_filter_at(filter, sites, &view, ctx),
                _ => FilterOutcome::rejected(),
            },
        };
        let accepted = filter_outcome.is_accept();

        // If accepted, the node would re-advertise to its other established
        // peers; if rejected while the checkpointed table holds a best
        // route for the very same prefix learned from the same peer, the
        // node would instead revoke it (treat-as-withdraw). Either way the
        // exploratory messages are intercepted, never sent — and recorded
        // in emission order.
        let exploratory = if accepted {
            Some(UpdateMessage::announce(vec![prefix], &attrs))
        } else {
            match router.rib().best_route(&prefix) {
                Some(existing) if existing.learned_from == self.peer => {
                    Some(UpdateMessage::withdraw(vec![prefix]))
                }
                _ => None,
            }
        };
        let mut intercepted = Vec::new();
        if let Some(exploratory) = exploratory {
            for p in router.peers() {
                if p.id != self.peer && p.is_established() {
                    intercepted.push((p.id, exploratory.clone()));
                }
            }
        }

        HandlerOutcome {
            prefix,
            origin_as: attrs.origin_as().map(|a| a.value()).unwrap_or(0),
            accepted,
            next_hop: attrs.next_hop,
            as_path: attrs
                .as_path
                .segments()
                .flat_map(|(_, asns)| asns)
                .map(|a| a.value())
                .collect(),
            intercepted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::attributes::RouteAttrs;
    use dice_bgp::message::UpdateMessage;
    use dice_bgp::AsPath;
    use dice_netsim::topology::{addr, figure2_topology, CustomerFilterMode};
    use dice_symexec::{ConcolicEngine, EngineConfig};
    use std::net::Ipv4Addr;

    fn provider(mode: CustomerFilterMode) -> BgpRouter {
        let topo = figure2_topology(mode);
        let provider = topo.node_by_name("Provider").expect("node");
        let mut r = BgpRouter::new(topo.nodes()[provider.0].config.clone());
        r.start();
        r
    }

    fn observed_update() -> UpdateMessage {
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence([17557, 17557]);
        attrs.next_hop = Ipv4Addr::new(10, 0, 1, 1);
        UpdateMessage::announce(vec!["41.1.0.0/16".parse().expect("valid")], &attrs)
    }

    #[test]
    fn handler_runs_and_intercepts_messages() {
        let router = provider(CustomerFilterMode::Missing);
        let peer = router.peer_by_address(addr::CUSTOMER).expect("peer");
        let template = UpdateTemplate::from_update(&observed_update()).expect("template");
        let mut handler =
            SymbolicUpdateHandler::new(RoundCheckpoint::capture(&router), peer, template);
        let mut ctx = ExecCtx::new();
        let seed = handler.template.seed();
        let outcome = handler.run(&mut ctx, &seed);
        assert!(outcome.accepted, "missing filter accepts everything");
        // The message toward the transit peer was intercepted, not sent.
        assert_eq!(outcome.intercepted.len(), 1);
        assert_eq!(outcome.intercepted[0].1.nlri, vec![outcome.prefix]);
        assert!(outcome.intercepted[0].1.withdrawn.is_empty());
    }

    #[test]
    fn rejection_of_an_installed_route_emits_a_withdraw() {
        // The provider installed the customer's block; an exploratory
        // variant the (correct) filter rejects would revoke that route, so
        // the handler intercepts a withdraw for the same prefix.
        let mut router = provider(CustomerFilterMode::Correct);
        let peer = router.peer_by_address(addr::CUSTOMER).expect("peer");
        router.handle_update(peer, &observed_update());
        assert!(router
            .rib()
            .best_route(&"41.1.0.0/16".parse().expect("valid"))
            .is_some());

        let template = UpdateTemplate::from_update(&observed_update()).expect("template");
        let mut handler =
            SymbolicUpdateHandler::new(RoundCheckpoint::capture(&router), peer, template);
        let mut ctx = ExecCtx::new();
        // Same prefix, wrong origin AS: the correct filter rejects it.
        let rejected = handler
            .template
            .seed()
            .with(crate::symbolic_input::fields::SOURCE_AS, 64_999);
        let outcome = handler.run(&mut ctx, &rejected);
        assert!(!outcome.accepted);
        assert_eq!(outcome.intercepted.len(), 1);
        let (_, update) = &outcome.intercepted[0];
        assert!(update.nlri.is_empty());
        assert_eq!(update.withdrawn, vec![outcome.prefix]);

        // A rejected prefix the checkpoint never installed from this peer
        // revokes nothing.
        let mut ctx = ExecCtx::new();
        let foreign = handler
            .template
            .seed()
            .with(
                crate::symbolic_input::fields::NLRI_ADDR,
                u32::from_be_bytes([198, 51, 100, 0]) as u64,
            )
            .with(crate::symbolic_input::fields::NLRI_LEN, 24)
            .with(crate::symbolic_input::fields::SOURCE_AS, 64_999);
        let outcome = handler.run(&mut ctx, &foreign);
        assert!(!outcome.accepted);
        assert_eq!(outcome.intercepted.len(), 0);
    }

    #[test]
    fn correct_filter_records_branches_and_rejects_foreign_origin() {
        let router = provider(CustomerFilterMode::Correct);
        let peer = router.peer_by_address(addr::CUSTOMER).expect("peer");
        let template = UpdateTemplate::from_update(&observed_update()).expect("template");
        let mut handler =
            SymbolicUpdateHandler::new(RoundCheckpoint::capture(&router), peer, template);
        let mut ctx = ExecCtx::new();
        let seed = handler.template.seed();
        let outcome = handler.run(&mut ctx, &seed);
        // Observed announcement: 41.1.0.0/16 with origin 17557 → accepted.
        assert!(outcome.accepted);
        assert!(!ctx.branches().is_empty(), "filter branches were recorded");
    }

    #[test]
    fn exploration_discovers_both_filter_outcomes() {
        let router = provider(CustomerFilterMode::Correct);
        let peer = router.peer_by_address(addr::CUSTOMER).expect("peer");
        let template = UpdateTemplate::from_update(&observed_update()).expect("template");
        let seed = template.seed();
        let mut handler =
            SymbolicUpdateHandler::new(RoundCheckpoint::capture(&router), peer, template);
        let engine = ConcolicEngine::with_config(EngineConfig::default().with_max_runs(32));
        let exploration = engine.explore(&mut handler, &[seed]);
        let accepted = exploration.outputs().filter(|o| o.accepted).count();
        let rejected = exploration.outputs().filter(|o| !o.accepted).count();
        assert!(accepted > 0, "some explored inputs pass the filter");
        assert!(rejected > 0, "some explored inputs are rejected");
    }
}

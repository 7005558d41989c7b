//! Fault checkers: predicates over exploratory outcomes and the
//! checkpointed node state.
//!
//! Checkers implement [`FaultChecker`], an object-safe `Send + Sync` trait,
//! and are registered on a [`crate::DiceSession`] through
//! [`crate::DiceBuilder::checker`]; the session applies every registered
//! checker to every explored outcome, against the checkpointed node.
//!
//! The shipped corpus spans two tiers, mirroring the cheap-per-event vs.
//! windowed-pattern split of production detection pipelines. The runs of
//! one round are alternative executions from one checkpoint, not a
//! timeline, so only what was *observed* across live rounds is judged as
//! a sequence.
//!
//! Per-event ([`FaultChecker::check`]):
//!
//! * [`OriginHijackChecker`] — the showcase checker of §4.2: "for each
//!   exploratory message, we check whether the announced route is accepted,
//!   and in this case we detect a potential hijack if that route overrides
//!   the origin AS of a route already in the routing table prior to
//!   starting exploration." Prefixes that are hijackable by nature (IP
//!   anycast) can be whitelisted to suppress false positives.
//! * [`ForwardingLoopChecker`] — flags accepted exploratory announcements
//!   whose NLRI covers their own BGP next hop with no more-specific
//!   installed route to resolve it: installing such a route makes next-hop
//!   resolution recurse through the route itself, a forwarding loop.
//! * [`RouteLeakChecker`] — Gao-Rexford valley-free violations: an accepted
//!   route learned from a *customer* whose AS path transited a *peer* or
//!   *provider* has already gone down-and-up the economic hierarchy once —
//!   the classic route leak, caught even when the origin is legitimate.
//! * [`MoreSpecificHijackChecker`] — strictly-more-specific announcements
//!   that spoof the installed covering route's origin but arrive through a
//!   different neighbor: the sub-prefix hijack shape that evades
//!   origin-only checks.
//! * [`BlackholeChecker`] — accepted routes whose next hop resolves through
//!   neither the checkpointed table nor one of the node's own peer
//!   addresses: installing them silently discards traffic.
//!
//! Cross-round ([`FaultChecker::live_fold`]):
//!
//! * [`CrossRoundFlapChecker`] — stitches the per-round observed windows a
//!   live orchestrator produces ([`RoundOutcomes`]) into one
//!   announce/withdraw timeline per `(node, prefix)` and flags flaps
//!   *slower than one epoch window* — each individual round sees at most
//!   one direction, so no per-event checker can fire.
//! * [`BgpWedgieChecker`] — flags BGP wedgies: a prefix a node held in its
//!   pre-fault steady state is withdrawn (typically when a partition's
//!   session resets flush it) and never re-announced even though later
//!   rounds keep flowing — the network re-stabilized in a *different*
//!   stable state than the one it started in.
//!
//! A cross-round checker judges the last [`LIVE_WINDOW`] node windows of a
//! live run without keeping them. The window reduces each new node window
//! once into per-`(node, prefix)` timeline summaries
//! ([`ObservedTimelines`]) and expires the oldest window's summaries when
//! it is full; each checker's [`LiveFold`] keeps only the index of the
//! timelines it reports. A round costs what it observed rather than what
//! the window holds. [`FaultChecker::check_live`] runs the same fold over
//! a slice in one shot.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::net::Ipv4Addr;
use std::ops::Bound;

use dice_bgp::message::UpdateMessage;
use dice_bgp::prefix::Ipv4Prefix;
use dice_bgp::route::PeerId;
use dice_bgp::Asn;
use dice_netsim::topology::NodeId;
use dice_router::BgpRouter;

use crate::handler::HandlerOutcome;

/// A fault detected during exploration.
///
/// Construct through [`Fault::new`]; the struct is `#[non_exhaustive]` so
/// future provenance fields are not breaking changes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct Fault {
    /// Name of the checker that reported the fault.
    pub checker: String,
    /// The topology node whose exploration found the fault. `None` for
    /// single-node runs outside a fleet context.
    pub node: Option<NodeId>,
    /// What was detected.
    pub kind: FaultKind,
}

/// The kind of misbehaviour a checker detected.
///
/// `#[non_exhaustive]`: new checkers add variants without breaking
/// downstream matches.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultKind {
    /// An exploratory announcement would override the origin AS of an
    /// installed route: a potential prefix hijack / route leak.
    PotentialHijack {
        /// The prefix the exploratory message announced.
        announced: Ipv4Prefix,
        /// The origin AS the exploratory message claimed.
        claimed_origin: Asn,
        /// The already-installed prefix that covers the announcement.
        existing_prefix: Ipv4Prefix,
        /// The trusted origin AS of the installed route.
        existing_origin: Asn,
    },
    /// An accepted announcement covers its own BGP next hop with no
    /// more-specific installed route: next-hop resolution would recurse
    /// through the announced route itself.
    ForwardingLoop {
        /// The prefix the exploratory message announced.
        announced: Ipv4Prefix,
        /// The next hop that would resolve through the announcement.
        next_hop: Ipv4Addr,
    },
    /// A Gao-Rexford valley-free violation: a route learned from a
    /// customer AS transited a peer or provider AS, so it has already
    /// descended the economic hierarchy once and is now climbing back up —
    /// a route leak even when every origin is legitimate.
    RouteLeak {
        /// The prefix the exploratory message announced.
        announced: Ipv4Prefix,
        /// The customer neighbor the route was learned from.
        customer_as: Asn,
        /// The peer/provider AS the path transited — the valley.
        via_as: Asn,
    },
    /// A strictly-more-specific announcement that spoofs the installed
    /// covering route's origin AS but arrives through a different
    /// neighbor: longest-prefix match diverts the covered traffic while
    /// origin-based checks see nothing wrong.
    MoreSpecificHijack {
        /// The more-specific prefix the exploratory message announced.
        announced: Ipv4Prefix,
        /// The installed covering prefix whose traffic would divert.
        existing_prefix: Ipv4Prefix,
        /// The (spoofed) origin AS both routes claim.
        origin: Asn,
    },
    /// An accepted route whose BGP next hop has no forwarding path: the
    /// checkpointed table cannot resolve it and it is not the address of
    /// one of the node's peers, so installing the route silently discards
    /// the covered traffic.
    Blackhole {
        /// The prefix the exploratory message announced.
        announced: Ipv4Prefix,
        /// The unresolvable next hop.
        next_hop: Ipv4Addr,
    },
    /// Across *live rounds* a node observed the same prefix alternately
    /// announced and withdrawn: a flap slower than one epoch window,
    /// invisible to any single round's checkers.
    CrossRoundFlap {
        /// The flapping prefix.
        announced: Ipv4Prefix,
        /// Direction changes across the stitched round timeline.
        /// Deliberately excluded from the [`fmt::Display`] rendering and
        /// from the fleet/cross-round dedup key ([`Fault::fleet_key`]), so
        /// the key stays stable as later rounds extend the timeline.
        transitions: usize,
    },
    /// A BGP wedgie: after a fault (typically a partition that healed) a
    /// node's steady-state routing differs from its pre-fault steady state
    /// — a prefix it held was withdrawn and never re-announced even though
    /// the network is quiescent again.
    BgpWedgie {
        /// The prefix stuck withdrawn.
        announced: Ipv4Prefix,
        /// Rounds the node stayed quiescent after the withdrawal without
        /// the prefix coming back. Excluded from the [`fmt::Display`]
        /// rendering and the dedup key so the key stays stable as rounds
        /// accumulate.
        stuck_rounds: usize,
    },
}

impl Fault {
    /// Creates a fault reported by the named checker, with no node
    /// provenance.
    pub fn new(checker: impl Into<String>, kind: FaultKind) -> Self {
        Fault {
            checker: checker.into(),
            node: None,
            kind,
        }
    }

    /// Stamps the topology node whose exploration found the fault.
    pub(crate) fn with_node(mut self, node: NodeId) -> Self {
        self.node = Some(node);
        self
    }

    /// The prefix range the fault is about.
    pub fn leaked_prefix(&self) -> Ipv4Prefix {
        self.kind.announced()
    }

    /// The fleet-wide deduplication key: the checker and what it found,
    /// without node provenance and without the counts that grow as later
    /// rounds see more of the same misbehaviour. Two sightings of one
    /// misbehaviour on different nodes, or in different rounds, share a
    /// key.
    pub fn fleet_key(&self) -> FaultKey {
        let mut kind = self.kind.clone();
        match &mut kind {
            FaultKind::CrossRoundFlap { transitions, .. } => *transitions = 0,
            FaultKind::BgpWedgie { stuck_rounds, .. } => *stuck_rounds = 0,
            _ => {}
        }
        FaultKey {
            checker: self.checker.clone(),
            kind,
        }
    }
}

impl FaultKind {
    /// The prefix the misbehaviour is about.
    fn announced(&self) -> Ipv4Prefix {
        match self {
            FaultKind::PotentialHijack { announced, .. } => *announced,
            FaultKind::ForwardingLoop { announced, .. } => *announced,
            FaultKind::RouteLeak { announced, .. } => *announced,
            FaultKind::MoreSpecificHijack { announced, .. } => *announced,
            FaultKind::Blackhole { announced, .. } => *announced,
            FaultKind::CrossRoundFlap { announced, .. } => *announced,
            FaultKind::BgpWedgie { announced, .. } => *announced,
        }
    }
}

/// The fleet-wide deduplication key of a [`Fault`] ([`Fault::fleet_key`]):
/// its checker and its [`FaultKind`] with the count fields zeroed.
///
/// Two keys are equal exactly when their renderings are, so fleet, live
/// and search dedup compare keys by value and render one only where a
/// string is read ([`crate::fault_key`]). The rendering is
/// `checker|prefix|kind`, the kind as [`FaultKind`]'s `Display`, which
/// leaves the counts out.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FaultKey {
    checker: String,
    kind: FaultKind,
}

impl FaultKey {
    /// The name of the checker that reported the fault.
    pub(crate) fn checker(&self) -> &str {
        &self.checker
    }
}

impl fmt::Display for FaultKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}|{}|{}",
            self.checker,
            self.kind.announced(),
            self.kind
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::PotentialHijack {
                announced,
                claimed_origin,
                existing_prefix,
                existing_origin,
            } => {
                write!(
                    f,
                    "potential hijack: {announced} claimed by {claimed_origin} would override {existing_prefix} originated by {existing_origin}"
                )
            }
            FaultKind::ForwardingLoop {
                announced,
                next_hop,
            } => {
                write!(
                    f,
                    "forwarding loop: {announced} covers its own next hop {next_hop}"
                )
            }
            FaultKind::RouteLeak {
                announced,
                customer_as,
                via_as,
            } => {
                write!(
                    f,
                    "route leak: {announced} learned from customer {customer_as} transited peer/provider {via_as} (valley-free violation)"
                )
            }
            FaultKind::MoreSpecificHijack {
                announced,
                existing_prefix,
                origin,
            } => {
                write!(
                    f,
                    "more-specific hijack: {announced} spoofs origin {origin} of installed {existing_prefix} via a different neighbor"
                )
            }
            FaultKind::Blackhole {
                announced,
                next_hop,
            } => {
                write!(
                    f,
                    "blackhole: {announced} has unresolvable next hop {next_hop}"
                )
            }
            FaultKind::CrossRoundFlap { announced, .. } => {
                // The transition count is intentionally not rendered: the
                // rendering names the dedup key, and the same flapping
                // prefix must collapse across rounds that saw different
                // counts.
                write!(
                    f,
                    "cross-round flap: {announced} alternates between announce and withdraw across live rounds"
                )
            }
            FaultKind::BgpWedgie { announced, .. } => {
                // The stuck-round count stays out of the rendering (like the
                // flap transition counts) so the dedup key is round-stable.
                write!(
                    f,
                    "bgp wedgie: {announced} withdrawn after a fault and never re-announced in steady state"
                )
            }
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        match self.node {
            Some(node) => write!(f, " [{} @ node {}]", self.checker, node.0),
            None => write!(f, " [{}]", self.checker),
        }
    }
}

/// One live round's worth of material for cross-round (temporal) checkers:
/// what a node *observed* on the wire during the round's epoch window, and
/// what exploration *derived* from it. A live run's history is a sequence
/// of these entries, one per node that saw anything, round by round.
///
/// The observed window matters independently of the outcomes: pure
/// withdrawals carry no explorable input (no outcomes are produced for
/// them), and leaf nodes may intercept nothing — yet their observed
/// timelines are exactly where slow flaps show up.
#[derive(Debug, Clone)]
pub struct RoundOutcomes {
    /// The live round index the material came from.
    pub round: usize,
    /// The node whose window this is.
    pub node: NodeId,
    /// The `(peer, update)` pairs the node observed during the round's
    /// epoch window, in delivery order.
    pub observed: Vec<(PeerId, UpdateMessage)>,
    /// The exploratory outcomes the round produced for this node, in
    /// execution order.
    pub outcomes: Vec<HandlerOutcome>,
}

/// A checker applied to every exploratory outcome.
///
/// The trait is object-safe and `Send + Sync`: sessions hold checkers as
/// `Arc<dyn FaultChecker>` built once and shared across exploration worker
/// threads.
pub trait FaultChecker: Send + Sync {
    /// Short name used in reports and fleet-wide deduplication keys.
    fn name(&self) -> &str;

    /// Inspects one outcome against the node as checkpointed before
    /// exploration started: its routing table, peers and configuration.
    fn check(&self, outcome: &HandlerOutcome, node: &BgpRouter) -> Option<Fault>;

    /// A fresh cross-round fold: the temporal tier above
    /// [`FaultChecker::check`], which sees *multiple live rounds*.
    ///
    /// The default returns `None`: per-event checkers need not care.
    /// Cross-round checkers such as [`CrossRoundFlapChecker`] return a
    /// [`LiveFold`] that stitches per-round observed windows and catches
    /// misbehaviour slower than one epoch window. A live orchestrator
    /// makes one per run and folds every executed round into it.
    fn live_fold(&self) -> Option<Box<dyn LiveFold>> {
        None
    }

    /// What this checker's [`LiveFold`] reports after folding in every
    /// entry of `rounds`, in order, with none expired: the cross-round
    /// check of one history in one shot. Empty for checkers without a
    /// fold.
    fn check_live(&self, rounds: &[RoundOutcomes]) -> Vec<Fault> {
        LiveWindow::new(self.live_fold(), rounds.len()).fold_round(rounds)
    }
}

/// How many history entries ([`RoundOutcomes`]) a live run's cross-round
/// checkers judge: after each round, the oldest beyond this many expire.
pub(crate) const LIVE_WINDOW: usize = 64;

/// One cross-round checker's state over a live run's history, folded one
/// entry ([`RoundOutcomes`]) at a time ([`FaultChecker::live_fold`]).
///
/// After each round a live orchestrator pushes the round's entries,
/// expires the oldest until at most 64 are held, and reads
/// the faults the held entries show. Every entry is reduced once into the
/// window's [`ObservedTimelines`], which every fold is handed after the
/// change; a fold keeps only what its checker judges, so a round costs
/// what it observed rather than what the window holds.
pub trait LiveFold: Send {
    /// Folds the next history entry in; `timelines` already holds it.
    fn push(&mut self, entry: &RoundOutcomes, timelines: &ObservedTimelines);

    /// Forgets the oldest held entry; `timelines` no longer holds it.
    fn expire(&mut self, timelines: &ObservedTimelines);

    /// Appends every fault the held entries show, in the checker's report
    /// order.
    fn faults(&self, timelines: &ObservedTimelines, out: &mut Vec<Fault>);
}

/// Every registered cross-round checker's [`LiveFold`] over one live run,
/// and the observed timelines they share: at most `capacity` history
/// entries are held at a time.
pub(crate) struct LiveWindow {
    folds: Vec<Box<dyn LiveFold>>,
    timelines: ObservedTimelines,
    capacity: usize,
}

impl LiveWindow {
    /// A window over `folds`, in the registration order of their checkers.
    pub(crate) fn new(folds: impl IntoIterator<Item = Box<dyn LiveFold>>, capacity: usize) -> Self {
        LiveWindow {
            folds: folds.into_iter().collect(),
            timelines: ObservedTimelines::default(),
            capacity,
        }
    }

    /// Folds one round's entries in, expires the oldest beyond the
    /// capacity, and returns every fault the held entries show, checker by
    /// checker in registration order. Without folds nothing is kept.
    pub(crate) fn fold_round<'a>(
        &mut self,
        entries: impl IntoIterator<Item = &'a RoundOutcomes>,
    ) -> Vec<Fault> {
        let mut faults = Vec::new();
        if self.folds.is_empty() {
            return faults;
        }
        for entry in entries {
            self.timelines.push(entry);
            for fold in &mut self.folds {
                fold.push(entry, &self.timelines);
            }
        }
        while self.held_entries() > self.capacity {
            self.timelines.expire();
            for fold in &mut self.folds {
                fold.expire(&self.timelines);
            }
        }
        for fold in &self.folds {
            fold.faults(&self.timelines, &mut faults);
        }
        faults
    }

    /// History entries currently held.
    pub(crate) fn held_entries(&self) -> usize {
        self.timelines.entries.len()
    }
}

/// The origin-misconfiguration (prefix hijack / route leak) checker.
#[derive(Debug, Clone, Default)]
pub struct OriginHijackChecker {
    anycast_whitelist: Vec<Ipv4Prefix>,
}

impl OriginHijackChecker {
    /// Creates a checker with an empty whitelist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds prefixes that are legitimately multi-origin (IP anycast); any
    /// exploratory announcement falling inside them is not reported.
    pub fn with_anycast_whitelist(mut self, prefixes: Vec<Ipv4Prefix>) -> Self {
        self.anycast_whitelist = prefixes;
        self
    }

    fn whitelisted(&self, prefix: &Ipv4Prefix) -> bool {
        self.anycast_whitelist.iter().any(|w| w.contains(prefix))
    }
}

impl FaultChecker for OriginHijackChecker {
    fn name(&self) -> &str {
        "origin-hijack"
    }

    fn check(&self, outcome: &HandlerOutcome, node: &BgpRouter) -> Option<Fault> {
        if !outcome.accepted {
            return None;
        }
        if self.whitelisted(&outcome.prefix) {
            return None;
        }
        // The route the announcement would compete with: the most specific
        // installed route covering the announced prefix. (Existing routes
        // are assumed trustworthy, as in the paper.)
        let existing = node.rib().best_covering_route(&outcome.prefix)?;
        let existing_origin = existing.origin_as()?;
        if existing_origin.value() == outcome.origin_as {
            return None;
        }
        Some(Fault::new(
            self.name(),
            FaultKind::PotentialHijack {
                announced: outcome.prefix,
                claimed_origin: Asn(outcome.origin_as),
                existing_prefix: existing.prefix,
                existing_origin,
            },
        ))
    }
}

/// Flags accepted announcements whose prefix covers their own next hop.
///
/// Installing such a route makes the next hop resolve through the route
/// itself unless a more-specific installed route still covers it — the
/// recursive-resolution loop that self-referential static or leaked routes
/// cause in practice.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForwardingLoopChecker;

impl ForwardingLoopChecker {
    /// Creates the checker.
    pub fn new() -> Self {
        Self
    }
}

impl FaultChecker for ForwardingLoopChecker {
    fn name(&self) -> &str {
        "forwarding-loop"
    }

    fn check(&self, outcome: &HandlerOutcome, node: &BgpRouter) -> Option<Fault> {
        if !outcome.accepted {
            return None;
        }
        let next_hop = u32::from(outcome.next_hop);
        if next_hop == 0 || !outcome.prefix.contains_ip(next_hop) {
            return None;
        }
        // Only a *strictly* more specific installed route keeps next-hop
        // resolution off the announced route: an equal-length route is the
        // very prefix the announcement competes to replace, so it cannot be
        // relied on to resolve the next hop.
        if let Some(existing) = node.rib().lookup_ip(next_hop) {
            if existing.prefix.len() > outcome.prefix.len() {
                return None;
            }
        }
        Some(Fault::new(
            self.name(),
            FaultKind::ForwardingLoop {
                announced: outcome.prefix,
                next_hop: outcome.next_hop,
            },
        ))
    }
}

/// The economic role of a neighbor AS in the Gao-Rexford model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsRelationship {
    /// The AS pays us for transit: routes learned from it may go anywhere.
    Customer,
    /// Settlement-free peering: routes exchanged only between customer
    /// cones.
    Peer,
    /// We pay the AS for transit.
    Provider,
}

/// The Gao-Rexford valley-free route-leak checker.
///
/// Configure the AS-relationship map with the builder methods, then: an
/// *accepted* exploratory route whose neighbor AS (first hop of
/// [`HandlerOutcome::as_path`]) is classified [`AsRelationship::Customer`]
/// must not have transited any AS classified [`AsRelationship::Peer`] or
/// [`AsRelationship::Provider`] further along the path. Such a route has
/// already descended the economic hierarchy and is climbing back up — a
/// valley — which is the route-leak shape regardless of whether every
/// origin on the path is legitimate (this is what distinguishes it from
/// [`OriginHijackChecker`], which needs an installed competing route).
///
/// Unclassified ASes are ignored: the checker only reasons about
/// relationships it was told about, so a partial map yields false
/// negatives, never false positives.
#[derive(Debug, Clone, Default)]
pub struct RouteLeakChecker {
    relationships: BTreeMap<u32, AsRelationship>,
}

impl RouteLeakChecker {
    /// Creates a checker with an empty relationship map (reports nothing
    /// until relationships are configured).
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies `asn` with the given relationship.
    pub(crate) fn with_relationship(mut self, asn: u32, relationship: AsRelationship) -> Self {
        self.relationships.insert(asn, relationship);
        self
    }

    /// Classifies `asn` as a customer.
    pub fn with_customer(self, asn: u32) -> Self {
        self.with_relationship(asn, AsRelationship::Customer)
    }

    /// Classifies `asn` as a settlement-free peer.
    pub fn with_peer(self, asn: u32) -> Self {
        self.with_relationship(asn, AsRelationship::Peer)
    }

    /// Classifies `asn` as a provider.
    pub fn with_provider(self, asn: u32) -> Self {
        self.with_relationship(asn, AsRelationship::Provider)
    }
}

impl FaultChecker for RouteLeakChecker {
    fn name(&self) -> &str {
        "route-leak"
    }

    fn check(&self, outcome: &HandlerOutcome, _node: &BgpRouter) -> Option<Fault> {
        if !outcome.accepted {
            return None;
        }
        let neighbor = *outcome.as_path.first()?;
        if self.relationships.get(&neighbor) != Some(&AsRelationship::Customer) {
            return None;
        }
        let via = outcome.as_path[1..].iter().find(|asn| {
            matches!(
                self.relationships.get(asn),
                Some(AsRelationship::Peer | AsRelationship::Provider)
            )
        })?;
        Some(Fault::new(
            self.name(),
            FaultKind::RouteLeak {
                announced: outcome.prefix,
                customer_as: Asn(neighbor),
                via_as: Asn(*via),
            },
        ))
    }
}

/// Flags strictly-more-specific announcements that spoof the installed
/// covering route's origin but arrive through a different neighbor.
///
/// [`OriginHijackChecker`] only fires when the claimed origin *differs*
/// from the installed one — so an attacker who forges the victim's AS at
/// the end of the path slips through while longest-prefix match still
/// diverts all the covered traffic toward them. This checker closes that
/// gap: the announcement must be strictly more specific than the best
/// installed covering route, claim the *same* origin, and reach the node
/// through a different neighbor AS than the installed route did.
#[derive(Debug, Clone, Default)]
pub struct MoreSpecificHijackChecker {
    anycast_whitelist: Vec<Ipv4Prefix>,
}

impl MoreSpecificHijackChecker {
    /// Creates a checker with an empty whitelist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds prefixes that legitimately de-aggregate via multiple
    /// adjacencies (traffic engineering, anycast); announcements inside
    /// them are not reported.
    pub fn with_anycast_whitelist(mut self, prefixes: Vec<Ipv4Prefix>) -> Self {
        self.anycast_whitelist = prefixes;
        self
    }
}

impl FaultChecker for MoreSpecificHijackChecker {
    fn name(&self) -> &str {
        "more-specific-hijack"
    }

    fn check(&self, outcome: &HandlerOutcome, node: &BgpRouter) -> Option<Fault> {
        if !outcome.accepted {
            return None;
        }
        if self
            .anycast_whitelist
            .iter()
            .any(|w| w.contains(&outcome.prefix))
        {
            return None;
        }
        let existing = node.rib().best_covering_route(&outcome.prefix)?;
        if outcome.prefix.len() <= existing.prefix.len() {
            return None;
        }
        let existing_origin = existing.origin_as()?;
        // A *different* claimed origin is OriginHijackChecker's case; this
        // checker owns the spoofed-origin shape.
        if existing_origin.value() != outcome.origin_as {
            return None;
        }
        let announced_neighbor = *outcome.as_path.first()?;
        let existing_neighbor = existing.attrs.as_path.neighbor_as()?;
        if announced_neighbor == existing_neighbor.value() {
            // Same adjacency as the installed route: legitimate
            // de-aggregation by the same origin.
            return None;
        }
        Some(Fault::new(
            self.name(),
            FaultKind::MoreSpecificHijack {
                announced: outcome.prefix,
                existing_prefix: existing.prefix,
                origin: existing_origin,
            },
        ))
    }
}

/// Flags accepted routes whose next hop has no forwarding path.
///
/// A next hop is resolvable if the checkpointed table covers it or it is
/// the address of one of the node's own peers, which is directly
/// connected. An accepted route failing both silently discards the
/// covered traffic once installed: the blackhole a session reset leaves
/// behind when the route that used to resolve the next hop was withdrawn.
/// Announcements covering their *own* next hop are left to
/// [`ForwardingLoopChecker`], which owns that shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlackholeChecker;

impl BlackholeChecker {
    /// Creates the checker.
    pub fn new() -> Self {
        Self
    }
}

impl FaultChecker for BlackholeChecker {
    fn name(&self) -> &str {
        "blackhole"
    }

    fn check(&self, outcome: &HandlerOutcome, node: &BgpRouter) -> Option<Fault> {
        if !outcome.accepted {
            return None;
        }
        let next_hop = u32::from(outcome.next_hop);
        if next_hop == 0 {
            return None;
        }
        if outcome.prefix.contains_ip(next_hop) {
            // Self-covering next hop: ForwardingLoopChecker's case.
            return None;
        }
        if node.peers().any(|peer| peer.address == outcome.next_hop) {
            return None;
        }
        if node.rib().lookup_ip(next_hop).is_some() {
            return None;
        }
        Some(Fault::new(
            self.name(),
            FaultKind::Blackhole {
                announced: outcome.prefix,
                next_hop: outcome.next_hop,
            },
        ))
    }
}

/// Detects flaps slower than one epoch window by stitching per-round
/// observed timelines across live rounds.
///
/// For each round and node, the checker reduces the node's observed window
/// to at most one direction per prefix (the *last* announce or withdraw of
/// that prefix in the window — BGP's implicit-replacement semantics), then
/// concatenates those per-round summaries into one timeline per
/// `(node, prefix)` and counts direction changes. A prefix announced in
/// round 0, withdrawn in round 1 and announced again in round 2 flips
/// twice — yet every individual round saw a single direction, so
/// [`FaultChecker::check`] is structurally unable to catch it. Only its
/// [`LiveFold`] ([`FaultChecker::live_fold`]) fires.
#[derive(Debug, Clone, Copy)]
pub struct CrossRoundFlapChecker {
    min_transitions: usize,
}

impl Default for CrossRoundFlapChecker {
    fn default() -> Self {
        CrossRoundFlapChecker { min_transitions: 2 }
    }
}

impl CrossRoundFlapChecker {
    /// Creates the checker with the default threshold of two transitions
    /// (one full announce→withdraw→announce cycle).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets how many cross-round direction changes a `(node, prefix)`
    /// timeline needs before it is reported (clamped to at least 1).
    pub fn with_min_transitions(mut self, transitions: usize) -> Self {
        self.min_transitions = transitions.max(1);
        self
    }
}

impl FaultChecker for CrossRoundFlapChecker {
    fn name(&self) -> &str {
        "cross-round-flap"
    }

    fn check(&self, _outcome: &HandlerOutcome, _node: &BgpRouter) -> Option<Fault> {
        None
    }

    fn live_fold(&self) -> Option<Box<dyn LiveFold>> {
        Some(Box::new(FlapFold {
            checker: *self,
            flapping: BTreeSet::new(),
        }))
    }
}

/// A `(node, prefix)` timeline: whose it is.
type TimelineKey = (usize, Ipv4Prefix);

/// One held entry's last word on one prefix: the direction the node's
/// observed window left it in.
#[derive(Debug, Clone, Copy)]
struct Summary {
    prefix: Ipv4Prefix,
    /// The entry's live round index.
    round: usize,
    announced: bool,
    /// Position of the same timeline's next summary, once there is one.
    next: Option<usize>,
}

/// Where one `(node, prefix)` timeline's held summaries are, and how many
/// times its direction changes between them.
#[derive(Debug, Clone, Copy)]
struct Timeline {
    /// Position of the oldest held summary.
    first: usize,
    /// Position of the newest.
    last: usize,
    transitions: usize,
}

/// A held history entry: what an expiry must take back out.
#[derive(Debug, Clone, Copy)]
struct HeldEntry {
    node: usize,
    round: usize,
    /// How many summaries it added, one per timeline it extended.
    summaries: usize,
}

/// The observed timelines of a live window's held history entries: one
/// announce/withdraw timeline per `(node, prefix)`, shared by every
/// [`LiveFold`] of the window.
///
/// Each entry's window reduces to at most one direction per prefix: the
/// last announce or withdraw of it in the window, with withdrawals before
/// NLRI within one UPDATE (the implicit-replacement order of RFC 4271
/// §3.1). A push appends those summaries and links each to the previous
/// summary of its `(node, prefix)` timeline; an expiry takes the oldest
/// entry's summaries back off the front. Both remember the timelines
/// they touched, so a checker's fold keeps its own index of the
/// timelines that fire.
#[derive(Debug, Default)]
pub struct ObservedTimelines {
    entries: VecDeque<HeldEntry>,
    /// Every held entry's summaries, in history order. Positions count
    /// from the first summary the window ever held; `base` is the front's.
    summaries: VecDeque<Summary>,
    base: usize,
    timelines: BTreeMap<TimelineKey, Timeline>,
    /// Held entries per round: the fleet-wide round clock.
    rounds: BTreeMap<usize, usize>,
    /// The timelines the last push or expiry touched, as they are now
    /// (`None` once one holds nothing).
    touched: Vec<(TimelineKey, Option<Timeline>)>,
    /// One entry's `(prefix, announced)` sightings, reused across pushes.
    scratch: Vec<(Ipv4Prefix, bool)>,
}

impl ObservedTimelines {
    /// How many per-entry summaries the window holds: what its memory
    /// grows with, bounded by what [`LIVE_WINDOW`] entries observed.
    #[cfg(test)]
    pub(crate) fn held_summaries(&self) -> usize {
        self.summaries.len()
    }

    fn at(&self, position: usize) -> &Summary {
        &self.summaries[position - self.base]
    }

    /// Folds one entry in.
    fn push(&mut self, entry: &RoundOutcomes) {
        let node = entry.node.0;
        self.touched.clear();
        self.scratch.clear();
        for (_, update) in &entry.observed {
            self.scratch
                .extend(update.withdrawn.iter().map(|p| (*p, false)));
            self.scratch.extend(update.nlri.iter().map(|p| (*p, true)));
        }
        // Stable, so a prefix's sightings keep their wire order and the
        // last of each run is the window's last word.
        self.scratch.sort_by_key(|&(prefix, _)| prefix);
        self.scratch.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        self.summaries.reserve(self.scratch.len());
        for &(prefix, announced) in &self.scratch {
            let position = self.base + self.summaries.len();
            self.summaries.push_back(Summary {
                prefix,
                round: entry.round,
                announced,
                next: None,
            });
            let timeline = match self.timelines.entry((node, prefix)) {
                Entry::Occupied(mut slot) => {
                    let timeline = slot.get_mut();
                    let before = &mut self.summaries[timeline.last - self.base];
                    before.next = Some(position);
                    timeline.transitions += usize::from(before.announced != announced);
                    timeline.last = position;
                    *timeline
                }
                Entry::Vacant(slot) => *slot.insert(Timeline {
                    first: position,
                    last: position,
                    transitions: 0,
                }),
            };
            self.touched.push(((node, prefix), Some(timeline)));
        }
        *self.rounds.entry(entry.round).or_default() += 1;
        self.entries.push_back(HeldEntry {
            node,
            round: entry.round,
            summaries: self.scratch.len(),
        });
    }

    /// Takes the oldest entry back out; nothing when none is held.
    fn expire(&mut self) {
        self.touched.clear();
        let Some(entry) = self.entries.pop_front() else {
            return;
        };
        if let Some(count) = self.rounds.get_mut(&entry.round) {
            *count -= 1;
            if *count == 0 {
                self.rounds.remove(&entry.round);
            }
        }
        for _ in 0..entry.summaries {
            let dropped = self
                .summaries
                .pop_front()
                .expect("an entry's summaries are held while it is");
            self.base += 1;
            // The oldest entry's summary is the front of its timeline.
            let key = (entry.node, dropped.prefix);
            let timeline = match dropped.next {
                Some(next) => {
                    let changes = self.at(next).announced != dropped.announced;
                    let timeline = self
                        .timelines
                        .get_mut(&key)
                        .expect("a held summary's timeline is held");
                    timeline.first = next;
                    timeline.transitions -= usize::from(changes);
                    Some(*timeline)
                }
                None => {
                    self.timelines.remove(&key);
                    None
                }
            };
            self.touched.push((key, timeline));
        }
    }

    /// The timelines the last push or expiry extended or shortened, as
    /// they are now.
    fn touched(&self) -> &[(TimelineKey, Option<Timeline>)] {
        &self.touched
    }

    /// Direction changes along a timeline; `None` when it holds nothing.
    fn transitions(&self, key: &TimelineKey) -> Option<usize> {
        self.timelines.get(key).map(|t| t.transitions)
    }

    /// The round a timeline was withdrawn in, when it ends withdrawn and
    /// an earlier round of it was an announcement.
    fn withdrawn_at(&self, timeline: &Timeline) -> Option<usize> {
        let last = self.at(timeline.last);
        if last.announced {
            return None;
        }
        let mut position = timeline.first;
        while position != timeline.last {
            let summary = self.at(position);
            if summary.announced && summary.round < last.round {
                return Some(last.round);
            }
            position = summary
                .next
                .expect("a timeline links up to its last summary");
        }
        None
    }

    /// Distinct held rounds after `round`: how long the fleet kept running
    /// since then. Quiet nodes hold no entry, so any node's activity
    /// proves time passed.
    fn rounds_after(&self, round: usize) -> usize {
        self.rounds
            .range((Bound::Excluded(round), Bound::Unbounded))
            .count()
    }
}

/// [`CrossRoundFlapChecker`]'s fold: the timelines with enough direction
/// changes to report.
struct FlapFold {
    checker: CrossRoundFlapChecker,
    flapping: BTreeSet<TimelineKey>,
}

impl LiveFold for FlapFold {
    fn push(&mut self, _entry: &RoundOutcomes, timelines: &ObservedTimelines) {
        for (key, timeline) in timelines.touched() {
            if timeline.is_some_and(|t| t.transitions >= self.checker.min_transitions) {
                self.flapping.insert(*key);
            }
        }
    }

    fn expire(&mut self, timelines: &ObservedTimelines) {
        for (key, timeline) in timelines.touched() {
            if timeline.is_none_or(|t| t.transitions < self.checker.min_transitions) {
                self.flapping.remove(key);
            }
        }
    }

    fn faults(&self, timelines: &ObservedTimelines, out: &mut Vec<Fault>) {
        out.extend(self.flapping.iter().map(|key| {
            Fault::new(
                self.checker.name(),
                FaultKind::CrossRoundFlap {
                    announced: key.1,
                    transitions: timelines.transitions(key).unwrap_or_default(),
                },
            )
            .with_node(NodeId(key.0))
        }));
    }
}

/// Detects BGP wedgies — policy-dependent stable-state divergence — from
/// the observed timelines across live rounds.
///
/// Using the same per-round reduction as [`CrossRoundFlapChecker`] (at most
/// one direction per `(node, prefix)` per round, RFC 4271
/// implicit-replacement order), the checker flags a `(node, prefix)` whose
/// timeline ends in a withdrawal that followed an earlier announcement and
/// then *stayed* withdrawn while at least `min_stable_rounds` later rounds
/// flowed elsewhere in the fleet: the network re-stabilized, but in a
/// different stable state than the pre-fault one. A single round cannot see
/// this (the withdrawal alone is legitimate), and a flap checker cannot
/// either — the defining feature of a wedgie is that the route *never*
/// comes back, i.e. exactly one transition. Run the same scenario under an
/// empty fault plan as the control: the wedgie surface is the differential
/// against that clean run, which is how
/// [`FaultPlanSearch`](crate::fault_search::FaultPlanSearch) uses it.
#[derive(Debug, Clone, Copy)]
pub struct BgpWedgieChecker {
    min_stable_rounds: usize,
}

impl Default for BgpWedgieChecker {
    fn default() -> Self {
        BgpWedgieChecker {
            min_stable_rounds: 1,
        }
    }
}

impl BgpWedgieChecker {
    /// Creates the checker with the default stability threshold of one
    /// round after the withdrawal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets how many rounds must elapse after the final withdrawal, with
    /// the prefix never re-announced, before the divergence counts as a
    /// stable state rather than a transient (clamped to at least 1).
    pub fn with_min_stable_rounds(mut self, rounds: usize) -> Self {
        self.min_stable_rounds = rounds.max(1);
        self
    }
}

impl FaultChecker for BgpWedgieChecker {
    fn name(&self) -> &str {
        "bgp-wedgie"
    }

    fn check(&self, _outcome: &HandlerOutcome, _node: &BgpRouter) -> Option<Fault> {
        None
    }

    fn live_fold(&self) -> Option<Box<dyn LiveFold>> {
        Some(Box::new(WedgieFold {
            checker: *self,
            withdrawn: BTreeMap::new(),
        }))
    }
}

/// [`BgpWedgieChecker`]'s fold: the timelines that end in a withdrawal
/// after an earlier announcement, with the withdrawal's round. Whether one
/// of those has stayed withdrawn long enough depends on the rounds held
/// since, so it is judged when the faults are read.
struct WedgieFold {
    checker: BgpWedgieChecker,
    withdrawn: BTreeMap<TimelineKey, usize>,
}

impl WedgieFold {
    fn reindex_touched(&mut self, timelines: &ObservedTimelines) {
        for (key, timeline) in timelines.touched() {
            match timeline.and_then(|t| timelines.withdrawn_at(&t)) {
                Some(round) => self.withdrawn.insert(*key, round),
                None => self.withdrawn.remove(key),
            };
        }
    }
}

impl LiveFold for WedgieFold {
    fn push(&mut self, _entry: &RoundOutcomes, timelines: &ObservedTimelines) {
        self.reindex_touched(timelines);
    }

    fn expire(&mut self, timelines: &ObservedTimelines) {
        self.reindex_touched(timelines);
    }

    fn faults(&self, timelines: &ObservedTimelines, out: &mut Vec<Fault>) {
        for (key, &withdrawn_at) in &self.withdrawn {
            let stuck_rounds = timelines.rounds_after(withdrawn_at);
            if stuck_rounds >= self.checker.min_stable_rounds {
                out.push(
                    Fault::new(
                        self.checker.name(),
                        FaultKind::BgpWedgie {
                            announced: key.1,
                            stuck_rounds,
                        },
                    )
                    .with_node(NodeId(key.0)),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::attributes::RouteAttrs;
    use dice_bgp::message::UpdateMessage;
    use dice_bgp::route::PeerId;
    use dice_bgp::AsPath;
    use dice_router::{NeighborConfig, RouterConfig};
    use std::net::Ipv4Addr;

    /// A node with no peers and an empty table.
    fn bare_router() -> BgpRouter {
        BgpRouter::new(RouterConfig::new(Ipv4Addr::new(10, 0, 0, 1), 3491))
    }

    /// A node with one unfiltered peer at 10.0.2.1 (AS 1299), session up.
    fn router_with_peer() -> BgpRouter {
        let mut router = BgpRouter::new(
            RouterConfig::new(Ipv4Addr::new(10, 0, 0, 1), 3491).with_neighbor(NeighborConfig {
                address: Ipv4Addr::new(10, 0, 2, 1),
                remote_as: 1299,
                import_filter: None,
                export_filter: None,
            }),
        );
        router.start();
        router
    }

    /// Installs `prefix` with `path` as sent by the node's peer.
    fn install(router: &mut BgpRouter, prefix: &str, path: &[u32]) {
        let peer = router.peers().next().expect("a peer");
        let (id, address) = (peer.id, peer.address);
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence(path.iter().copied());
        attrs.next_hop = address;
        let update = UpdateMessage::announce(vec![prefix.parse().expect("valid")], &attrs);
        router.handle_update(id, &update);
        assert!(router
            .rib()
            .best_route(&prefix.parse().expect("valid"))
            .is_some());
    }

    /// The node holding YouTube's /22, learned via neighbor 1299.
    fn router_with_youtube() -> BgpRouter {
        let mut router = router_with_peer();
        install(&mut router, "208.65.152.0/22", &[1299, 3356, 36561]);
        router
    }

    fn outcome(prefix: &str, origin_as: u32, accepted: bool) -> HandlerOutcome {
        HandlerOutcome {
            prefix: prefix.parse().expect("valid"),
            origin_as,
            accepted,
            next_hop: Ipv4Addr::new(10, 0, 1, 1),
            as_path: vec![origin_as],
            intercepted: Vec::new(),
        }
    }

    /// An accepted outcome carrying an explicit AS path (neighbor first,
    /// origin last).
    fn outcome_with_path(prefix: &str, path: &[u32]) -> HandlerOutcome {
        let mut o = outcome(prefix, path.last().copied().unwrap_or(0), true);
        o.as_path = path.to_vec();
        o
    }

    #[test]
    fn detects_the_youtube_hijack() {
        let node = router_with_youtube();
        let checker = OriginHijackChecker::new();
        // Pakistan Telecom (17557) announces the more-specific /24.
        let fault = checker
            .check(&outcome("208.65.153.0/24", 17557, true), &node)
            .expect("hijack detected");
        match &fault.kind {
            FaultKind::PotentialHijack {
                claimed_origin,
                existing_origin,
                existing_prefix,
                ..
            } => {
                assert_eq!(*claimed_origin, Asn(17557));
                assert_eq!(*existing_origin, Asn(36561));
                assert_eq!(existing_prefix.to_string(), "208.65.152.0/22");
            }
            other => panic!("unexpected fault kind {other:?}"),
        }
        assert_eq!(fault.leaked_prefix().to_string(), "208.65.153.0/24");
        assert_eq!(fault.checker, "origin-hijack");
        assert_eq!(fault.node, None);
        assert!(fault.to_string().contains("17557"));
        assert!(fault.to_string().contains("origin-hijack"));
        assert_eq!(checker.name(), "origin-hijack");
    }

    #[test]
    fn node_provenance_is_stamped_and_displayed() {
        let node = router_with_youtube();
        let fault = OriginHijackChecker::new()
            .check(&outcome("208.65.153.0/24", 17557, true), &node)
            .expect("hijack detected")
            .with_node(NodeId(1));
        assert_eq!(fault.node, Some(NodeId(1)));
        assert!(fault.to_string().contains("node 1"));
        // The fleet key ignores provenance: the same misbehaviour seen on
        // two nodes deduplicates.
        let unstamped = OriginHijackChecker::new()
            .check(&outcome("208.65.153.0/24", 17557, true), &node)
            .expect("hijack detected");
        assert_eq!(fault.fleet_key(), unstamped.fleet_key());
        assert_ne!(fault, unstamped, "provenance still distinguishes values");
    }

    #[test]
    fn rejected_routes_are_not_faults() {
        let node = router_with_youtube();
        let checker = OriginHijackChecker::new();
        assert!(checker
            .check(&outcome("208.65.153.0/24", 17557, false), &node)
            .is_none());
    }

    #[test]
    fn same_origin_is_not_a_fault() {
        let node = router_with_youtube();
        let checker = OriginHijackChecker::new();
        assert!(checker
            .check(&outcome("208.65.153.0/24", 36561, true), &node)
            .is_none());
    }

    #[test]
    fn uncovered_prefixes_are_not_faults() {
        let node = router_with_youtube();
        let checker = OriginHijackChecker::new();
        assert!(checker
            .check(&outcome("1.2.3.0/24", 17557, true), &node)
            .is_none());
    }

    #[test]
    fn anycast_whitelist_suppresses_false_positives() {
        let node = router_with_youtube();
        let checker = OriginHijackChecker::new()
            .with_anycast_whitelist(vec!["208.65.152.0/22".parse().expect("valid")]);
        assert!(checker
            .check(&outcome("208.65.153.0/24", 17557, true), &node)
            .is_none());
    }

    #[test]
    fn checkers_are_object_safe_and_shareable() {
        let checkers: Vec<std::sync::Arc<dyn FaultChecker>> = vec![
            std::sync::Arc::new(OriginHijackChecker::new()),
            std::sync::Arc::new(ForwardingLoopChecker::new()),
            std::sync::Arc::new(BlackholeChecker::new()),
        ];
        let names: Vec<&str> = checkers.iter().map(|c| c.name()).collect();
        assert_eq!(names, ["origin-hijack", "forwarding-loop", "blackhole"]);
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        assert_send_sync(&checkers);
        // Per-outcome checkers keep the default, fold-less temporal hook.
        assert!(checkers.iter().all(|c| c.live_fold().is_none()));
    }

    #[test]
    fn forwarding_loop_fires_when_prefix_covers_next_hop() {
        let checker = ForwardingLoopChecker::new();
        let node = bare_router();
        // 10.0.0.0/8 with next hop 10.0.1.1: the route covers its own next
        // hop and nothing more specific resolves it.
        let fault = checker
            .check(&outcome("10.0.0.0/8", 17557, true), &node)
            .expect("loop detected");
        match &fault.kind {
            FaultKind::ForwardingLoop {
                announced,
                next_hop,
            } => {
                assert_eq!(announced.to_string(), "10.0.0.0/8");
                assert_eq!(*next_hop, Ipv4Addr::new(10, 0, 1, 1));
            }
            other => panic!("unexpected fault kind {other:?}"),
        }
        assert_eq!(fault.checker, "forwarding-loop");
        assert!(fault.to_string().contains("forwarding loop"));
    }

    #[test]
    fn forwarding_loop_needs_acceptance_and_coverage() {
        let checker = ForwardingLoopChecker::new();
        let node = bare_router();
        // Rejected: no fault even though the prefix covers the next hop.
        assert!(checker
            .check(&outcome("10.0.0.0/8", 17557, false), &node)
            .is_none());
        // Accepted but the next hop (10.0.1.1) lies outside the prefix.
        assert!(checker
            .check(&outcome("41.1.0.0/16", 17557, true), &node)
            .is_none());
    }

    #[test]
    fn route_leak_detects_a_valley() {
        // From the provider's seat: 17557 is a customer, 1299 a peer.
        let checker = RouteLeakChecker::new()
            .with_customer(17557)
            .with_peer(1299)
            .with_provider(3356);
        let node = bare_router();
        // The customer re-exports a route it learned from its own transit
        // (1299): customer-learned but peer-transited — a valley.
        let leaked = outcome_with_path("41.1.0.0/16", &[17557, 1299, 15169]);
        let fault = checker.check(&leaked, &node).expect("leak detected");
        assert_eq!(fault.checker, "route-leak");
        match &fault.kind {
            FaultKind::RouteLeak {
                customer_as,
                via_as,
                ..
            } => {
                assert_eq!(*customer_as, Asn(17557));
                assert_eq!(*via_as, Asn(1299));
            }
            other => panic!("unexpected fault kind {other:?}"),
        }
        assert_eq!(fault.leaked_prefix().to_string(), "41.1.0.0/16");
        assert!(fault.to_string().contains("valley-free"));

        // A provider in the tail is just as much of a valley.
        assert!(checker
            .check(
                &outcome_with_path("41.1.0.0/16", &[17557, 3356, 15169]),
                &node
            )
            .is_some());
    }

    #[test]
    fn route_leak_stays_quiet_without_a_valley() {
        let checker = RouteLeakChecker::new().with_customer(17557).with_peer(1299);
        let node = bare_router();
        // The customer originating its own space is valley-free.
        assert!(checker
            .check(&outcome_with_path("41.1.0.0/16", &[17557, 17557]), &node)
            .is_none());
        // Routes learned from the peer are unconstrained on import.
        assert!(checker
            .check(&outcome_with_path("8.8.0.0/16", &[1299, 15169]), &node)
            .is_none());
        // Unclassified neighbor: no relationship knowledge, no report.
        assert!(checker
            .check(&outcome_with_path("8.8.0.0/16", &[64_512, 1299]), &node)
            .is_none());
        // Rejected routes are never faults.
        let mut rejected = outcome_with_path("41.1.0.0/16", &[17557, 1299, 15169]);
        rejected.accepted = false;
        assert!(checker.check(&rejected, &node).is_none());
        // An empty relationship map reports nothing at all.
        assert!(RouteLeakChecker::new()
            .check(&outcome_with_path("41.1.0.0/16", &[17557, 1299]), &node)
            .is_none());
    }

    #[test]
    fn more_specific_hijack_detects_spoofed_origin_via_other_neighbor() {
        let node = router_with_youtube(); // /22 via neighbor 1299, origin 36561
        let checker = MoreSpecificHijackChecker::new();
        // A /24 inside the /22 claiming the victim's own origin (36561) but
        // arriving via the customer (17557): origin-hijack sees nothing
        // (origins match) — this checker fires.
        let spoofed = outcome_with_path("208.65.153.0/24", &[17557, 36561]);
        assert!(
            OriginHijackChecker::new().check(&spoofed, &node).is_none(),
            "origin check is blind to a spoofed origin"
        );
        let fault = checker.check(&spoofed, &node).expect("hijack detected");
        assert_eq!(fault.checker, "more-specific-hijack");
        match &fault.kind {
            FaultKind::MoreSpecificHijack {
                existing_prefix,
                origin,
                ..
            } => {
                assert_eq!(existing_prefix.to_string(), "208.65.152.0/22");
                assert_eq!(*origin, Asn(36561));
            }
            other => panic!("unexpected fault kind {other:?}"),
        }
    }

    #[test]
    fn more_specific_hijack_allows_legitimate_deaggregation() {
        let node = router_with_youtube();
        let checker = MoreSpecificHijackChecker::new();
        // Same origin AND same neighbor (1299): the victim de-aggregating
        // its own block over the same adjacency.
        assert!(checker
            .check(
                &outcome_with_path("208.65.153.0/24", &[1299, 3356, 36561]),
                &node
            )
            .is_none());
        // A different origin is OriginHijackChecker's case, not ours.
        assert!(checker
            .check(
                &outcome_with_path("208.65.153.0/24", &[17557, 17557]),
                &node
            )
            .is_none());
        // Equal-length announcements are not "more specific".
        assert!(checker
            .check(
                &outcome_with_path("208.65.152.0/22", &[17557, 36561]),
                &node
            )
            .is_none());
        // Whitelisted ranges are suppressed.
        let lenient = MoreSpecificHijackChecker::new()
            .with_anycast_whitelist(vec!["208.65.152.0/22".parse().expect("valid")]);
        assert!(lenient
            .check(
                &outcome_with_path("208.65.153.0/24", &[17557, 36561]),
                &node
            )
            .is_none());
    }

    #[test]
    fn blackhole_fires_on_unresolvable_next_hop() {
        let checker = BlackholeChecker::new();
        let node = bare_router();
        // 41.1.0.0/16 with next hop 10.0.1.1: the empty table cannot
        // resolve it and the node has no peer there.
        let fault = checker
            .check(&outcome("41.1.0.0/16", 17557, true), &node)
            .expect("blackhole detected");
        assert_eq!(fault.checker, "blackhole");
        match &fault.kind {
            FaultKind::Blackhole { next_hop, .. } => {
                assert_eq!(*next_hop, Ipv4Addr::new(10, 0, 1, 1));
            }
            other => panic!("unexpected fault kind {other:?}"),
        }
        assert!(fault.to_string().contains("blackhole"));
    }

    #[test]
    fn blackhole_resolvable_next_hops_are_fine() {
        let node = router_with_youtube();
        let checker = BlackholeChecker::new();
        // Covered by an installed route? Use a next hop inside the /22.
        let mut covered = outcome("41.1.0.0/16", 17557, true);
        covered.next_hop = Ipv4Addr::new(208, 65, 152, 7);
        assert!(checker.check(&covered, &node).is_none());
        // The node's own peer is directly connected; the same next hop
        // on a node without that peer is a blackhole.
        let mut connected = outcome("41.1.0.0/16", 17557, true);
        connected.next_hop = Ipv4Addr::new(10, 0, 2, 1);
        assert!(checker.check(&connected, &node).is_none());
        assert!(checker.check(&connected, &bare_router()).is_some());
        // Self-covering next hop is ForwardingLoopChecker's shape.
        assert!(checker
            .check(&outcome("10.0.0.0/8", 17557, true), &node)
            .is_none());
        // Rejected routes are never faults.
        assert!(checker
            .check(&outcome("41.1.0.0/16", 17557, false), &node)
            .is_none());
        // A zero next hop carries no forwarding claim.
        let mut zero = outcome("41.1.0.0/16", 17557, true);
        zero.next_hop = Ipv4Addr::new(0, 0, 0, 0);
        assert!(checker.check(&zero, &node).is_none());
    }

    fn live_round(round: usize, node: usize, events: &[(&str, bool)]) -> RoundOutcomes {
        let observed = events
            .iter()
            .map(|(prefix, announce)| {
                let parsed: Ipv4Prefix = prefix.parse().expect("valid");
                let update = if *announce {
                    UpdateMessage::announce(vec![parsed], &RouteAttrs::default())
                } else {
                    UpdateMessage::withdraw(vec![parsed])
                };
                (PeerId(1), update)
            })
            .collect();
        RoundOutcomes {
            round,
            node: NodeId(node),
            observed,
            outcomes: Vec::new(),
        }
    }

    #[test]
    fn cross_round_flap_stitches_what_single_rounds_cannot_see() {
        let checker = CrossRoundFlapChecker::new();
        // Announce / withdraw / announce, one direction per round: within
        // any single round there is nothing to see.
        let rounds = [
            live_round(0, 2, &[("41.1.0.0/16", true)]),
            live_round(1, 2, &[("41.1.0.0/16", false)]),
            live_round(2, 2, &[("41.1.0.0/16", true)]),
        ];
        for round in &rounds {
            assert!(
                checker.check_live(std::slice::from_ref(round)).is_empty(),
                "a single round has no transitions"
            );
        }
        let faults = checker.check_live(&rounds);
        assert_eq!(faults.len(), 1);
        let fault = &faults[0];
        assert_eq!(fault.checker, "cross-round-flap");
        assert_eq!(fault.node, Some(NodeId(2)));
        assert_eq!(fault.leaked_prefix().to_string(), "41.1.0.0/16");
        match fault.kind {
            FaultKind::CrossRoundFlap { transitions, .. } => assert_eq!(transitions, 2),
            ref other => panic!("unexpected fault kind {other:?}"),
        }
        // The per-event hook stays silent by design; the dedup key is
        // stable as the timeline grows.
        assert!(checker
            .check(&outcome("41.1.0.0/16", 17557, true), &bare_router())
            .is_none());
        let longer = [
            rounds[0].clone(),
            rounds[1].clone(),
            rounds[2].clone(),
            live_round(3, 2, &[("41.1.0.0/16", false)]),
        ];
        let more = checker.check_live(&longer);
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].fleet_key(), fault.fleet_key());
    }

    #[test]
    fn cross_round_flap_separates_nodes_and_needs_transitions() {
        let checker = CrossRoundFlapChecker::new();
        // The same prefix alternating across *different* nodes never forms
        // one timeline.
        let split = [
            live_round(0, 1, &[("41.1.0.0/16", true)]),
            live_round(1, 2, &[("41.1.0.0/16", false)]),
            live_round(2, 1, &[("41.1.0.0/16", true)]),
        ];
        assert!(checker.check_live(&split).is_empty());
        // One announce + one withdraw is half a cycle.
        let half = [
            live_round(0, 1, &[("41.1.0.0/16", true)]),
            live_round(1, 1, &[("41.1.0.0/16", false)]),
        ];
        assert!(checker.check_live(&half).is_empty());
        assert_eq!(
            CrossRoundFlapChecker::new()
                .with_min_transitions(0)
                .check_live(&half)
                .len(),
            1
        );
        // Within one round, only the *last* direction of a prefix counts
        // (implicit replacement): announce-then-withdraw in the same
        // window summarizes as withdrawn.
        let collapsed = [
            live_round(0, 1, &[("41.1.0.0/16", true)]),
            live_round(1, 1, &[("41.1.0.0/16", true), ("41.1.0.0/16", false)]),
            live_round(2, 1, &[("41.1.0.0/16", true)]),
        ];
        assert_eq!(checker.check_live(&collapsed).len(), 1);
        // The default check_live of per-event checkers reports nothing.
        assert!(OriginHijackChecker::new().check_live(&half).is_empty());
    }

    /// One history entry's last word on one prefix: the direction a node's
    /// observed window left it in.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Summary {
        node: usize,
        prefix: Ipv4Prefix,
        /// Position of the entry in the history slice.
        entry: usize,
        /// The entry's live round index.
        round: usize,
        announced: bool,
    }

    impl Summary {
        fn same_timeline(a: &Summary, b: &Summary) -> bool {
            (a.node, a.prefix) == (b.node, b.prefix)
        }
    }

    /// The re-judge the temporal checkers ran before they folded: every
    /// entry of the slice reduced again, sorted by `(node, prefix)` and
    /// history order, so each timeline is one [`slice::chunk_by`] run. Kept
    /// as the oracle the folds must match.
    fn observed_timelines(rounds: &[RoundOutcomes]) -> Vec<Summary> {
        let mut summaries = Vec::new();
        for (entry, round) in rounds.iter().enumerate() {
            let summary = |prefix: &Ipv4Prefix, announced| Summary {
                node: round.node.0,
                prefix: *prefix,
                entry,
                round: round.round,
                announced,
            };
            for (_, update) in &round.observed {
                summaries.extend(update.withdrawn.iter().map(|p| summary(p, false)));
                summaries.extend(update.nlri.iter().map(|p| summary(p, true)));
            }
        }
        summaries.sort_by_key(|s| (s.node, s.prefix, s.entry));
        summaries.dedup_by(|later, kept| {
            let same =
                (later.node, later.prefix, later.entry) == (kept.node, kept.prefix, kept.entry);
            if same {
                kept.announced = later.announced;
            }
            same
        });
        summaries
    }

    /// [`CrossRoundFlapChecker`] re-judging a whole history slice.
    fn oracle_flaps(checker: &CrossRoundFlapChecker, rounds: &[RoundOutcomes]) -> Vec<Fault> {
        observed_timelines(rounds)
            .chunk_by(Summary::same_timeline)
            .filter_map(|timeline| {
                let transitions = timeline
                    .windows(2)
                    .filter(|w| w[0].announced != w[1].announced)
                    .count();
                (transitions >= checker.min_transitions).then(|| {
                    Fault::new(
                        checker.name(),
                        FaultKind::CrossRoundFlap {
                            announced: timeline[0].prefix,
                            transitions,
                        },
                    )
                    .with_node(NodeId(timeline[0].node))
                })
            })
            .collect()
    }

    /// [`BgpWedgieChecker`] re-judging a whole history slice.
    fn oracle_wedgies(checker: &BgpWedgieChecker, rounds: &[RoundOutcomes]) -> Vec<Fault> {
        let mut all_rounds: Vec<usize> = rounds.iter().map(|r| r.round).collect();
        all_rounds.sort_unstable();
        all_rounds.dedup();
        observed_timelines(rounds)
            .chunk_by(Summary::same_timeline)
            .filter_map(|timeline| {
                let last = timeline.last().expect("chunks are never empty");
                if last.announced {
                    return None;
                }
                let withdrawn_at = last.round;
                if !timeline
                    .iter()
                    .any(|s| s.announced && s.round < withdrawn_at)
                {
                    return None;
                }
                let stuck_rounds =
                    all_rounds.len() - all_rounds.partition_point(|&r| r <= withdrawn_at);
                (stuck_rounds >= checker.min_stable_rounds).then(|| {
                    Fault::new(
                        checker.name(),
                        FaultKind::BgpWedgie {
                            announced: last.prefix,
                            stuck_rounds,
                        },
                    )
                    .with_node(NodeId(last.node))
                })
            })
            .collect()
    }

    /// Asserts both temporal checkers, at several thresholds, report what
    /// the oracle reduction reports: same faults, same order, same
    /// `transitions` and `stuck_rounds`.
    fn assert_temporal_checkers_match_the_oracle(rounds: &[RoundOutcomes]) {
        for min in 1..=3 {
            let flaps = CrossRoundFlapChecker::new().with_min_transitions(min);
            assert_eq!(flaps.check_live(rounds), oracle_flaps(&flaps, rounds));
            let wedgies = BgpWedgieChecker::new().with_min_stable_rounds(min);
            assert_eq!(wedgies.check_live(rounds), oracle_wedgies(&wedgies, rounds));
        }
    }

    /// One history entry from raw UPDATEs given as (withdrawn, NLRI)
    /// prefix lists.
    fn entry_of(
        round: usize,
        node: usize,
        updates: Vec<(Vec<Ipv4Prefix>, Vec<Ipv4Prefix>)>,
    ) -> RoundOutcomes {
        let observed = updates
            .into_iter()
            .map(|(withdrawn, nlri)| {
                let mut update = UpdateMessage::withdraw(withdrawn);
                update.nlri = nlri;
                (PeerId(1), update)
            })
            .collect();
        RoundOutcomes {
            round,
            node: NodeId(node),
            observed,
            outcomes: Vec::new(),
        }
    }

    #[test]
    fn temporal_checkers_match_the_oracle_on_the_edge_cases() {
        let a: Ipv4Prefix = "41.1.0.0/16".parse().expect("valid");
        let b: Ipv4Prefix = "198.51.100.0/24".parse().expect("valid");
        // Withdraw and announce of one prefix in one UPDATE: the NLRI wins.
        // Announce then withdraw across two UPDATEs: the withdrawal wins.
        // Empty windows still tick the round clock, and node 2 repeats
        // across rounds.
        let rounds = [
            entry_of(0, 2, vec![(vec![], vec![a, b])]),
            entry_of(1, 2, vec![(vec![a], vec![a])]),
            entry_of(1, 1, vec![]),
            entry_of(2, 2, vec![(vec![], vec![a]), (vec![a, b], vec![])]),
            entry_of(3, 0, vec![]),
            entry_of(4, 2, vec![(vec![b], vec![b]), (vec![], vec![])]),
        ];
        assert_temporal_checkers_match_the_oracle(&rounds);
        assert_eq!(
            CrossRoundFlapChecker::new()
                .with_min_transitions(1)
                .check_live(&rounds)
                .len(),
            2,
            "both prefixes changed direction on node 2"
        );
        assert_temporal_checkers_match_the_oracle(&[]);
        assert_temporal_checkers_match_the_oracle(&rounds[2..3]);
    }

    proptest::proptest! {
        #[test]
        fn temporal_checkers_match_the_oracle_on_random_histories(
            history in proptest::prop::collection::vec(
                (
                    0usize..6,
                    0usize..3,
                    proptest::prop::collection::vec(
                        (
                            proptest::prop::collection::vec(0usize..4, 0..3),
                            proptest::prop::collection::vec(0usize..4, 0..3),
                        ),
                        0..4,
                    ),
                ),
                0..10,
            ),
        ) {
            assert_temporal_checkers_match_the_oracle(&history_of(history));
        }

        /// The folds a live run keeps, fed round by round and expiring
        /// beyond a small window, report after every round what the
        /// re-judge reports over the entries the window still holds.
        #[test]
        fn a_folded_history_judges_like_a_one_shot_rejudge(
            history in proptest::prop::collection::vec(
                (
                    0usize..3,
                    0usize..3,
                    proptest::prop::collection::vec(
                        (
                            proptest::prop::collection::vec(0usize..4, 0..3),
                            proptest::prop::collection::vec(0usize..4, 0..3),
                        ),
                        0..4,
                    ),
                ),
                0..40,
            ),
            capacity in 1usize..8,
            min in 1usize..3,
        ) {
            // Rounds ascend by the drawn step, so a round may carry several
            // entries and the window drains mid-round.
            let mut round = 0;
            let history: Vec<_> = history
                .into_iter()
                .map(|(step, node, updates)| {
                    round += step;
                    (round, node, updates)
                })
                .collect();
            let entries = history_of(history);
            let flaps = CrossRoundFlapChecker::new().with_min_transitions(min);
            let wedgies = BgpWedgieChecker::new().with_min_stable_rounds(min);
            let mut window = LiveWindow::new(flaps.live_fold().into_iter().chain(wedgies.live_fold()), capacity);
            let mut pushed = 0;
            for batch in entries.chunk_by(|a, b| a.round == b.round) {
                let folded = window.fold_round(batch);
                pushed += batch.len();
                let held = &entries[pushed.saturating_sub(capacity)..pushed];
                let mut rejudged = oracle_flaps(&flaps, held);
                rejudged.extend(oracle_wedgies(&wedgies, held));
                proptest::prop_assert_eq!(folded, rejudged);
                proptest::prop_assert_eq!(window.held_entries(), held.len());
            }
        }

        /// Two faults share a typed key exactly when their rendered keys
        /// are equal.
        #[test]
        fn the_typed_dedup_key_is_the_string_fleet_key(
            a in arbitrary_fault(),
            b in arbitrary_fault(),
        ) {
            proptest::prop_assert_eq!(
                a.fleet_key() == b.fleet_key(),
                crate::fault_key(&a) == crate::fault_key(&b)
            );
            proptest::prop_assert_eq!(a.fleet_key().to_string(), crate::fault_key(&a));
            // More rounds seen from another node: still the same fault.
            let mut later = a.clone().with_node(NodeId(7));
            match &mut later.kind {
                FaultKind::CrossRoundFlap { transitions, .. } => *transitions += 1,
                FaultKind::BgpWedgie { stuck_rounds, .. } => *stuck_rounds += 1,
                _ => {}
            }
            proptest::prop_assert_eq!(later.fleet_key(), a.fleet_key());
            proptest::prop_assert_eq!(crate::fault_key(&later), crate::fault_key(&a));
        }
    }

    /// One drawn history entry: round, node, and each UPDATE's withdrawn
    /// and NLRI prefix indices.
    type RawEntry = (usize, usize, Vec<(Vec<usize>, Vec<usize>)>);

    /// History entries from raw draws over four prefixes, so windows
    /// collide on them often.
    fn history_of(raw: Vec<RawEntry>) -> Vec<RoundOutcomes> {
        let prefixes: [Ipv4Prefix; 4] = ["10.0.0.0/8", "10.0.0.0/9", "41.1.0.0/16", "41.1.0.0/17"]
            .map(|p| p.parse().expect("valid"));
        let pick = |ids: Vec<usize>| ids.into_iter().map(|i| prefixes[i]).collect();
        raw.into_iter()
            .map(|(round, node, updates)| {
                let updates = updates
                    .into_iter()
                    .map(|(withdrawn, nlri)| (pick(withdrawn), pick(nlri)))
                    .collect();
                entry_of(round, node, updates)
            })
            .collect()
    }

    /// Faults over small domains, so unequal faults often share fields and
    /// the count fields vary under equal keys.
    fn arbitrary_fault() -> impl proptest::Strategy<Value = Fault> {
        use proptest::prelude::*;
        let prefix = (0u32..3, 15u8..17)
            .prop_map(|(i, len)| Ipv4Prefix::new((41 << 24) | (i << 16), len).expect("valid"));
        let asn = (0u32..2).prop_map(|i| Asn(64_512 + i));
        let address = (0u8..2).prop_map(|i| Ipv4Addr::new(10, 0, 0, i));
        let count = 0usize..3;
        let kind = prop_oneof![
            (prefix.clone(), asn.clone(), prefix.clone(), asn.clone()).prop_map(
                |(announced, claimed_origin, existing_prefix, existing_origin)| {
                    FaultKind::PotentialHijack {
                        announced,
                        claimed_origin,
                        existing_prefix,
                        existing_origin,
                    }
                }
            ),
            (prefix.clone(), address.clone()).prop_map(|(announced, next_hop)| {
                FaultKind::ForwardingLoop {
                    announced,
                    next_hop,
                }
            }),
            (prefix.clone(), asn.clone(), asn.clone()).prop_map(
                |(announced, customer_as, via_as)| FaultKind::RouteLeak {
                    announced,
                    customer_as,
                    via_as,
                }
            ),
            (prefix.clone(), prefix.clone(), asn).prop_map(
                |(announced, existing_prefix, origin)| FaultKind::MoreSpecificHijack {
                    announced,
                    existing_prefix,
                    origin,
                }
            ),
            (prefix.clone(), address).prop_map(|(announced, next_hop)| FaultKind::Blackhole {
                announced,
                next_hop,
            }),
            (prefix.clone(), count.clone()).prop_map(|(announced, transitions)| {
                FaultKind::CrossRoundFlap {
                    announced,
                    transitions,
                }
            }),
            (prefix, count).prop_map(|(announced, stuck_rounds)| FaultKind::BgpWedgie {
                announced,
                stuck_rounds,
            }),
        ];
        let checker = prop_oneof![Just("bgp-wedgie"), Just("cross-round-flap"), Just("x")];
        let node = proptest::prop::option::of((0usize..2).prop_map(NodeId));
        (checker, kind, node).prop_map(|(checker, kind, node)| {
            let fault = Fault::new(checker, kind);
            match node {
                Some(node) => fault.with_node(node),
                None => fault,
            }
        })
    }

    #[test]
    fn forwarding_loop_suppressed_by_more_specific_route() {
        let checker = ForwardingLoopChecker::new();
        // A /24 covering the next hop already installed: resolution never
        // recurses through the announced /8.
        let mut node = router_with_peer();
        install(&mut node, "10.0.1.0/24", &[1299, 64_500]);
        assert!(checker
            .check(&outcome("10.0.0.0/8", 17557, true), &node)
            .is_none());
        // A covering route *broader* than the announcement does not help:
        // the announced route stays the most specific match for its own
        // next hop.
        assert!(checker
            .check(&outcome("10.0.1.0/25", 17557, true), &node)
            .is_some());
        // Neither does an *equal-length* covering route: it is the very
        // prefix the announcement competes to replace.
        assert!(checker
            .check(&outcome("10.0.1.0/24", 17557, true), &node)
            .is_some());
    }

    #[test]
    fn bgp_wedgie_fires_on_a_stable_post_fault_divergence() {
        let checker = BgpWedgieChecker::new();
        // Announced, withdrawn, then a later round flowed elsewhere in the
        // fleet while the prefix stayed gone: the steady state diverged.
        let wedged = [
            live_round(0, 2, &[("41.1.0.0/16", true)]),
            live_round(1, 2, &[("41.1.0.0/16", false)]),
            live_round(2, 1, &[("198.51.100.0/24", true)]),
        ];
        let faults = checker.check_live(&wedged);
        assert_eq!(faults.len(), 1);
        let fault = &faults[0];
        assert_eq!(fault.checker, "bgp-wedgie");
        assert_eq!(fault.node, Some(NodeId(2)));
        assert_eq!(fault.leaked_prefix().to_string(), "41.1.0.0/16");
        match fault.kind {
            FaultKind::BgpWedgie { stuck_rounds, .. } => assert_eq!(stuck_rounds, 1),
            ref other => panic!("expected a wedgie, got {other:?}"),
        }
        // One transition is below the flap checker's threshold: the two
        // cross-round detectors partition the anomaly space.
        assert!(CrossRoundFlapChecker::new().check_live(&wedged).is_empty());
    }

    #[test]
    fn bgp_wedgie_needs_stability_and_a_prior_announcement() {
        let checker = BgpWedgieChecker::new();
        // The withdrawal is in the last round: nothing proves the network
        // re-stabilized without the route, so nothing fires yet.
        let transient = [
            live_round(0, 2, &[("41.1.0.0/16", true)]),
            live_round(1, 2, &[("41.1.0.0/16", false)]),
        ];
        assert!(checker.check_live(&transient).is_empty());
        // A withdrawal with no earlier announcement is not a divergence.
        let never_held = [
            live_round(0, 2, &[("41.1.0.0/16", false)]),
            live_round(1, 1, &[("198.51.100.0/24", true)]),
        ];
        assert!(checker.check_live(&never_held).is_empty());
        // A re-announcement anywhere later clears the wedge.
        let recovered = [
            live_round(0, 2, &[("41.1.0.0/16", true)]),
            live_round(1, 2, &[("41.1.0.0/16", false)]),
            live_round(2, 2, &[("41.1.0.0/16", true)]),
        ];
        assert!(checker.check_live(&recovered).is_empty());
        // A higher stability threshold needs more post-withdrawal rounds.
        let strict = BgpWedgieChecker::new().with_min_stable_rounds(2);
        let wedged = [
            live_round(0, 2, &[("41.1.0.0/16", true)]),
            live_round(1, 2, &[("41.1.0.0/16", false)]),
            live_round(2, 1, &[("198.51.100.0/24", true)]),
        ];
        assert!(strict.check_live(&wedged).is_empty());
        let longer = [
            live_round(0, 2, &[("41.1.0.0/16", true)]),
            live_round(1, 2, &[("41.1.0.0/16", false)]),
            live_round(2, 1, &[("198.51.100.0/24", true)]),
            live_round(3, 1, &[("198.51.101.0/24", true)]),
        ];
        assert_eq!(strict.check_live(&longer).len(), 1);
    }
}

//! A deterministic, step-driven simulator for a topology of BGP routers.
//!
//! The simulator plays the role of the paper's testbed (multiple BIRD
//! instances wired over virtual interfaces): each node is a [`BgpRouter`],
//! links are message queues that deliver [`LINK_DELAY`] tick after sending,
//! and the run loop delivers messages in timestamp order until quiescence.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use dice_bgp::attributes::RouteAttrs;
use dice_bgp::message::{BgpMessage, UpdateMessage};
use dice_bgp::prefix::Ipv4Prefix;
use dice_bgp::route::PeerId;
use dice_router::{BgpRouter, Outgoing};

use crate::faults::{
    DeliveryError, EnqueueVerdict, FaultPlan, FaultRuntime, FaultSpec, FaultTrace,
    InjectedFaultKind,
};
use crate::topology::{NodeId, Topology};

/// Ticks a message spends on a link before it is delivered (injected
/// faults may add more).
const LINK_DELAY: u64 = 1;

/// One UPDATE observed by a node during simulation: the raw material DiCE
/// exploration seeds from ("previously observed inputs", §2.3).
///
/// The log keeps one such entry per delivered UPDATE for as long as no
/// harvester trims it, so an entry is kept small: 32 bytes on 64-bit
/// targets. The common shape, one announced prefix and no withdrawals, is
/// stored as that prefix and its attribute set (the same `Arc` the
/// receiving router's RIB holds when it accepts the route); any other
/// UPDATE is kept whole behind one `Box`. The `(peer, update)` pair a round
/// seeds from is rebuilt only when a window is harvested
/// ([`Simulator::observed_inputs`], [`Simulator::observed_inputs_in`],
/// [`Simulator::take_observed_in`], [`ObservedInput::to_update`]).
#[derive(Clone, PartialEq, Eq)]
pub struct ObservedInput {
    seq: u64,
    node: u32,
    peer: PeerId,
    update: ObservedUpdate,
}

/// The UPDATE of an [`ObservedInput`], in the smallest form that rebuilds
/// it exactly. An UPDATE has exactly one form, so two entries are equal
/// exactly when the UPDATEs they rebuild are.
#[derive(Clone, PartialEq, Eq)]
enum ObservedUpdate {
    /// One announced prefix, no withdrawals.
    Announce(Ipv4Prefix, Arc<RouteAttrs>),
    /// Every other shape: withdrawals, several prefixes, no attributes.
    Whole(Box<UpdateMessage>),
}

impl ObservedUpdate {
    fn new(update: UpdateMessage) -> Self {
        match update {
            UpdateMessage {
                withdrawn,
                attrs: Some(attrs),
                nlri,
            } if withdrawn.is_empty() && nlri.len() == 1 => {
                ObservedUpdate::Announce(nlri[0], attrs)
            }
            update => ObservedUpdate::Whole(Box::new(update)),
        }
    }

    fn to_update(&self) -> UpdateMessage {
        match self {
            ObservedUpdate::Announce(prefix, attrs) => UpdateMessage {
                withdrawn: Vec::new(),
                attrs: Some(Arc::clone(attrs)),
                nlri: vec![*prefix],
            },
            ObservedUpdate::Whole(update) => UpdateMessage::clone(update),
        }
    }

    fn into_update(self) -> UpdateMessage {
        match self {
            ObservedUpdate::Announce(prefix, attrs) => UpdateMessage {
                withdrawn: Vec::new(),
                attrs: Some(attrs),
                nlri: vec![prefix],
            },
            ObservedUpdate::Whole(update) => *update,
        }
    }
}

impl ObservedInput {
    /// Global delivery-log sequence number (the entry's *epoch tag*):
    /// assigned monotonically at record time and never reused, so harvest
    /// windows `[from, to)` taken against [`Simulator::observed_cursor`]
    /// stay valid even after earlier entries are drained.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The node that received the message.
    pub fn node(&self) -> NodeId {
        NodeId(self.node as usize)
    }

    /// The receiving node's peer the message arrived from.
    pub fn peer(&self) -> PeerId {
        self.peer
    }

    /// The UPDATE message, rebuilt: equal to the one the router was
    /// handed, sharing its attribute set.
    pub fn to_update(&self) -> UpdateMessage {
        self.update.to_update()
    }

    fn to_pair(&self) -> (PeerId, UpdateMessage) {
        (self.peer, self.update.to_update())
    }

    fn into_pair(self) -> (PeerId, UpdateMessage) {
        (self.peer, self.update.into_update())
    }
}

impl fmt::Debug for ObservedInput {
    /// Renders the rebuilt UPDATE, as if the entry held it whole.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObservedInput")
            .field("seq", &self.seq)
            .field("node", &self.node())
            .field("peer", &self.peer)
            .field("update", &self.to_update())
            .finish()
    }
}

/// A borrowed view of the observation log ([`Simulator::observed_log`]):
/// every entry not yet drained, in delivery order. Reading it copies
/// nothing.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ObservedLog<'a> {
    entries: &'a [ObservedInput],
}

impl<'a> ObservedLog<'a> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if the log holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in delivery order.
    pub fn iter(&self) -> std::slice::Iter<'a, ObservedInput> {
        self.entries.iter()
    }

    /// The oldest entry, if any.
    pub fn first(&self) -> Option<&'a ObservedInput> {
        self.entries.first()
    }
}

impl fmt::Debug for ObservedLog<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.entries).finish()
    }
}

/// A message in flight between two nodes.
#[derive(Debug, Clone)]
struct InFlight {
    deliver_at: u64,
    from_node: NodeId,
    to_node: NodeId,
    from_peer: PeerId,
    message: BgpMessage,
}

/// Counters describing a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages delivered to nodes.
    pub delivered: u64,
    /// Messages dropped because the receiving peer could not be resolved.
    pub undeliverable: u64,
    /// Messages dropped by the fault layer (down link or injected loss).
    pub dropped: u64,
    /// Extra message copies enqueued by injected duplication.
    pub duplicated: u64,
    /// Messages delayed past the link delay by injected reordering.
    pub reordered: u64,
    /// Current virtual time in ticks.
    pub now: u64,
}

impl std::fmt::Display for SimStats {
    /// `delivered=… undeliverable=… now=…`, with the fault-layer counters
    /// (`dropped`/`duplicated`/`reordered`) appended only when nonzero, so
    /// a quiescent run renders identically with or without a fault plan
    /// configured — the same only-when-nonzero convention the report
    /// digests follow.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "delivered={} undeliverable={} now={}",
            self.delivered, self.undeliverable, self.now
        )?;
        if self.dropped > 0 {
            write!(f, " dropped={}", self.dropped)?;
        }
        if self.duplicated > 0 {
            write!(f, " duplicated={}", self.duplicated)?;
        }
        if self.reordered > 0 {
            write!(f, " reordered={}", self.reordered)?;
        }
        Ok(())
    }
}

/// The simulator.
pub struct Simulator {
    routers: Vec<BgpRouter>,
    names: Vec<String>,
    queue: VecDeque<InFlight>,
    stats: SimStats,
    observed: Vec<ObservedInput>,
    /// The buffer each delivery's router writes its outgoing messages to,
    /// drained into the queue before the next delivery. It holds what one
    /// message produced, never a burst.
    outbox: Vec<Outgoing>,
    /// Next sequence number to tag an observed entry with; equals the
    /// number of UPDATEs ever recorded, independent of drains.
    observed_seq: u64,
    faults: FaultRuntime,
}

impl Simulator {
    /// Instantiates every node of the topology and establishes all
    /// sessions.
    pub fn new(topology: &Topology) -> Self {
        let mut routers = Vec::new();
        let mut names = Vec::new();
        for node in topology.nodes() {
            let mut r = BgpRouter::new(node.config.clone());
            r.start();
            routers.push(r);
            names.push(node.name.clone());
        }
        Simulator {
            routers,
            names,
            queue: VecDeque::new(),
            stats: SimStats::default(),
            observed: Vec::new(),
            outbox: Vec::new(),
            observed_seq: 0,
            faults: FaultRuntime::new(FaultPlan::default()),
        }
    }

    /// Installs a fault plan (builder form). See
    /// [`Simulator::install_fault_plan`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.install_fault_plan(plan);
        self
    }

    /// Installs a fault plan, resetting the fault runtime: the RNG reseeds
    /// from the plan, all links come back up, and the trace restarts. An
    /// empty plan injects nothing — the run stays byte-identical to one
    /// with no plan installed.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultRuntime::new(plan);
    }

    /// The record of every event the fault layer injected or diagnosed so
    /// far.
    pub fn fault_trace(&self) -> &FaultTrace {
        self.faults.trace()
    }

    /// Number of faults injected so far (excluding structural delivery
    /// errors) — the count `FleetReport`/`LiveReport` carry per round.
    pub fn injected_fault_count(&self) -> usize {
        self.faults.trace().injected_count()
    }

    /// Applies the faults the plan schedules for the start of `epoch`:
    /// link flaps change link state (messages already in flight across a
    /// link that went down are lost at delivery time), and session resets
    /// tear down and re-establish the session between two nodes, flushing
    /// learned routes with proper withdrawal propagation, and partitions
    /// sever (or heals restore) every boundary link of a node set
    /// atomically. A no-op under an empty plan; drivers and orchestrators
    /// call this once per epoch.
    pub fn apply_epoch_faults(&mut self, epoch: u64) {
        let mut span = dice_obs::span("netsim", "sim.apply_epoch_faults");
        if !self.faults.schedules_epochs() {
            span.set_detail(0);
            return;
        }
        let before = self.injected_fault_count();
        let now = self.stats.now;
        self.faults.apply_link_epoch(epoch, now);
        let resets: Vec<(NodeId, NodeId)> = self
            .faults
            .plan()
            .specs()
            .iter()
            .filter_map(|spec| match *spec {
                FaultSpec::SessionReset { a, b, epoch: e } if e == epoch => Some((a, b)),
                _ => None,
            })
            .collect();
        for (a, b) in resets {
            self.apply_session_reset(a, b, epoch);
        }
        let cuts: Vec<(Vec<NodeId>, bool)> = self
            .faults
            .plan()
            .specs()
            .iter()
            .filter_map(|spec| match spec {
                FaultSpec::Partition { nodes, epoch: e } if *e == epoch => {
                    Some((nodes.clone(), true))
                }
                FaultSpec::Heal { nodes, epoch: e } if *e == epoch => Some((nodes.clone(), false)),
                _ => None,
            })
            .collect();
        for (nodes, sever) in cuts {
            if sever {
                self.apply_partition(&nodes, epoch);
            } else {
                self.apply_heal(&nodes, epoch);
            }
        }
        span.set_detail((self.injected_fault_count() - before) as u64);
    }

    /// The normalized boundary links of a node set: every existing peering
    /// with exactly one endpoint inside the set, sorted and deduplicated so
    /// partition processing order is deterministic. Node ids outside the
    /// topology are ignored.
    fn partition_links(&self, nodes: &[NodeId]) -> Vec<(NodeId, NodeId)> {
        let inside: std::collections::BTreeSet<usize> = nodes
            .iter()
            .filter(|n| n.0 < self.routers.len())
            .map(|n| n.0)
            .collect();
        let mut links = std::collections::BTreeSet::new();
        for &i in &inside {
            for o in 0..self.routers.len() {
                if inside.contains(&o) {
                    continue;
                }
                let peered = self.routers[i]
                    .peer_by_address(self.routers[o].router_id())
                    .is_some()
                    || self.routers[o]
                        .peer_by_address(self.routers[i].router_id())
                        .is_some();
                if peered {
                    let (a, b) = crate::faults::normalize_link(NodeId(i), NodeId(o));
                    links.insert((a.0, b.0));
                }
            }
        }
        links
            .into_iter()
            .map(|(a, b)| (NodeId(a), NodeId(b)))
            .collect()
    }

    /// Severs every boundary link of `nodes` atomically: all links go down
    /// before any session reset fires, so the withdrawals a reset emits
    /// toward other severed links are themselves lost — no state leaks
    /// across the partition boundary.
    fn apply_partition(&mut self, nodes: &[NodeId], epoch: u64) {
        let links = self.partition_links(nodes);
        let now = self.stats.now;
        let mut set: Vec<NodeId> = nodes.to_vec();
        set.sort_by_key(|n| n.0);
        set.dedup();
        self.faults.record(
            now,
            InjectedFaultKind::PartitionSevered {
                nodes: set,
                epoch,
                links: links.len(),
            },
        );
        let mut severed = Vec::new();
        for &(a, b) in &links {
            if self.faults.sever_link(a, b, epoch, now) {
                severed.push((a, b));
            }
        }
        for (a, b) in severed {
            self.apply_session_reset(a, b, epoch);
        }
    }

    /// Restores every boundary link of `nodes`. No reset fires on heal:
    /// withdrawn routes stay gone until live traffic re-announces them.
    fn apply_heal(&mut self, nodes: &[NodeId], epoch: u64) {
        let links = self.partition_links(nodes);
        let now = self.stats.now;
        let mut set: Vec<NodeId> = nodes.to_vec();
        set.sort_by_key(|n| n.0);
        set.dedup();
        self.faults.record(
            now,
            InjectedFaultKind::PartitionHealed {
                nodes: set,
                epoch,
                links: links.len(),
            },
        );
        for (a, b) in links {
            self.faults.restore_link(a, b, epoch, now);
        }
    }

    /// Resets the BGP session between `a` and `b`: both sides tear their
    /// FSM down, withdraw every route learned from the other (propagating
    /// the withdrawals to their remaining established peers), and then
    /// re-establish. Withdrawn routes stay gone until live traffic
    /// re-announces them.
    fn apply_session_reset(&mut self, a: NodeId, b: NodeId, epoch: u64) {
        let a_addr = self.routers[a.0].router_id();
        let b_addr = self.routers[b.0].router_id();
        let mut withdrawn_routes = 0;
        for (node, peer_addr) in [(a, b_addr), (b, a_addr)] {
            if let Some(peer) = self.routers[node.0].peer_by_address(peer_addr) {
                let outcome = self.routers[node.0].reset_session(peer);
                withdrawn_routes += outcome.withdrawn_routes;
                self.enqueue_outgoing(node, outcome.outgoing);
            }
        }
        for (node, peer_addr) in [(a, b_addr), (b, a_addr)] {
            if let Some(peer) = self.routers[node.0].peer_by_address(peer_addr) {
                self.routers[node.0].reestablish_session(peer);
            }
        }
        let now = self.stats.now;
        self.faults.record(
            now,
            InjectedFaultKind::SessionReset {
                a,
                b,
                epoch,
                withdrawn_routes,
            },
        );
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.routers.len()
    }

    /// Returns true if the simulator has no nodes.
    pub fn is_empty(&self) -> bool {
        self.routers.is_empty()
    }

    /// Read access to a node's router.
    pub fn router(&self, node: NodeId) -> &BgpRouter {
        &self.routers[node.0]
    }

    /// The node's name.
    pub fn name(&self, node: NodeId) -> &str {
        &self.names[node.0]
    }

    /// Simulation counters.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Number of messages currently in flight.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Injects a message into `node` as if it arrived from the peer with
    /// the given address, and queues any responses.
    pub fn inject(&mut self, node: NodeId, from_address: std::net::Ipv4Addr, message: BgpMessage) {
        let Some(peer) = self.routers[node.0].peer_by_address(from_address) else {
            self.stats.undeliverable += 1;
            let now = self.stats.now;
            self.faults.record(
                now,
                InjectedFaultKind::DeliveryError(DeliveryError::UnknownSourceAddress {
                    node,
                    address: from_address,
                }),
            );
            return;
        };
        self.deliver(node, peer, message);
    }

    /// Hands a message to the router of `node`, queues the responses, and
    /// logs an UPDATE as exactly what the DiCE instance beside that node
    /// would have observed on the wire: the router reads the message, the
    /// log then takes it, as one compact [`ObservedInput`]. Non-UPDATE
    /// messages carry no explorable input and are not recorded.
    fn deliver(&mut self, node: NodeId, peer: PeerId, message: BgpMessage) {
        let mut out = std::mem::take(&mut self.outbox);
        self.routers[node.0].handle_message_into(peer, &message, &mut out);
        self.stats.delivered += 1;
        if let BgpMessage::Update(update) = message {
            self.observed.push(ObservedInput {
                seq: self.observed_seq,
                node: u32::try_from(node.0).expect("a node index fits in u32"),
                peer,
                update: ObservedUpdate::new(update),
            });
            self.observed_seq += 1;
        }
        self.enqueue_outgoing(node, out.drain(..));
        self.outbox = out;
    }

    /// The UPDATEs a node observed so far, in delivery order, as the
    /// `(peer, update)` pairs a DiCE exploration round seeds from.
    pub fn observed_inputs(&self, node: NodeId) -> Vec<(PeerId, UpdateMessage)> {
        self.observed
            .iter()
            .filter(|o| o.node() == node)
            .map(ObservedInput::to_pair)
            .collect()
    }

    /// The full observation log across all nodes, in delivery order, as a
    /// borrowed view: reading it copies no entry.
    pub fn observed_log(&self) -> ObservedLog<'_> {
        ObservedLog {
            entries: &self.observed,
        }
    }

    /// The current harvest cursor: the sequence number the *next* observed
    /// UPDATE will be tagged with. Two cursors taken before and after a
    /// stretch of live traffic bound the epoch window `[before, after)`
    /// that [`Simulator::observed_inputs_in`] harvests — continuous
    /// orchestrators advance through the delivery log this way without
    /// ever wiping it.
    pub fn observed_cursor(&self) -> u64 {
        self.observed_seq
    }

    /// The UPDATEs `node` observed inside the epoch window `[from, to)`
    /// (sequence numbers per [`ObservedInput::seq`]), in delivery order.
    ///
    /// Windows partition the log losslessly: for any ascending cursor
    /// sequence, concatenating the per-window harvests reproduces exactly
    /// what a one-shot [`Simulator::observed_inputs`] returns, per node,
    /// in order (asserted by property in `tests/properties.rs`).
    pub fn observed_inputs_in(
        &self,
        node: NodeId,
        from: u64,
        to: u64,
    ) -> Vec<(PeerId, UpdateMessage)> {
        // The log is sorted by `seq` (append-only tags; drains preserve
        // order), so the window's bounds binary-search in O(log n) and the
        // scan touches only the window — continuous orchestrators harvest
        // every epoch without ever re-walking the full history.
        let start = self.observed.partition_point(|o| o.seq < from);
        let end = start + self.observed[start..].partition_point(|o| o.seq < to);
        self.observed[start..end]
            .iter()
            .filter(|o| o.node() == node)
            .map(ObservedInput::to_pair)
            .collect()
    }

    /// Removes the epoch window `[from, to)` from the observation log and
    /// returns it split by node: entry `i` holds what node `i` observed in
    /// the window, in delivery order — for every node, what
    /// [`Simulator::observed_inputs_in`] returns for it, moved out instead
    /// of copied. Entries outside the window and all sequence numbers stay
    /// as they were.
    ///
    /// This is the harvest of an orchestrator that compacts the log after
    /// every round anyway: the window is about to be trimmed, so it is
    /// taken rather than cloned.
    pub fn take_observed_in(&mut self, from: u64, to: u64) -> Vec<Vec<(PeerId, UpdateMessage)>> {
        let start = self.observed.partition_point(|o| o.seq < from);
        let end = start + self.observed[start..].partition_point(|o| o.seq < to);
        let mut counts = vec![0usize; self.routers.len()];
        for o in &self.observed[start..end] {
            counts[o.node as usize] += 1;
        }
        let mut windows: Vec<Vec<(PeerId, UpdateMessage)>> =
            counts.into_iter().map(Vec::with_capacity).collect();
        for o in self.observed.drain(start..end) {
            windows[o.node as usize].push(o.into_pair());
        }
        windows
    }

    /// Removes every observation-log entry with a sequence number below
    /// `seq`, returning the number of entries dropped — log compaction for
    /// long-running simulations, whose epoch-tagged delivery log otherwise
    /// grows without bound.
    ///
    /// Safe to call once **every** harvester's cursor has passed `seq`:
    /// windowed harvests ([`Simulator::observed_inputs_in`]) with
    /// `from >= seq` and the cursor itself ([`Simulator::observed_cursor`])
    /// are unaffected, because sequence tags are assigned monotonically and
    /// never reused. Harvests reaching below `seq` after a trim silently
    /// return only what remains — the caller owns the cursor contract
    /// (continuous orchestrators call this after each harvested round).
    pub fn trim_observed_below(&mut self, seq: u64) -> usize {
        // The log is sorted by `seq` (append-only tags, order-preserving
        // drains), so the cut point binary-searches.
        let cut = self.observed.partition_point(|o| o.seq < seq);
        self.observed.drain(..cut);
        cut
    }

    fn enqueue_outgoing(
        &mut self,
        from_node: NodeId,
        outgoing: impl IntoIterator<Item = Outgoing>,
    ) {
        for (peer_id, message) in outgoing {
            match self.resolve(from_node, peer_id) {
                Ok((to_node, from_peer)) => {
                    let now = self.stats.now;
                    match self.faults.on_enqueue(from_node, to_node, now) {
                        EnqueueVerdict::Drop => {
                            self.stats.dropped += 1;
                        }
                        EnqueueVerdict::Unperturbed => {
                            self.queue.push_back(InFlight {
                                deliver_at: now + LINK_DELAY,
                                from_node,
                                to_node,
                                from_peer,
                                message,
                            });
                        }
                        EnqueueVerdict::Deliver { extra_delays } => {
                            self.stats.duplicated += extra_delays.len() as u64 - 1;
                            self.stats.reordered +=
                                extra_delays.iter().filter(|d| **d > 0).count() as u64;
                            let deliver_at = self.stats.now + LINK_DELAY;
                            let in_flight = |extra: u64, message| InFlight {
                                deliver_at: deliver_at + extra,
                                from_node,
                                to_node,
                                from_peer,
                                message,
                            };
                            // Duplicates get copies; the last copy takes the
                            // message itself.
                            if let Some((&last, duplicates)) = extra_delays.split_last() {
                                for &extra in duplicates {
                                    self.queue.push_back(in_flight(extra, message.clone()));
                                }
                                self.queue.push_back(in_flight(last, message));
                            }
                        }
                    }
                }
                Err(error) => {
                    self.stats.undeliverable += 1;
                    let now = self.stats.now;
                    self.faults
                        .record(now, InjectedFaultKind::DeliveryError(error));
                }
            }
        }
    }

    /// Resolves "node A sends to its peer P" into "node B receives from its
    /// peer Q": the peer's address identifies the destination router, and
    /// the sender's router id identifies the receiving peer entry. Each
    /// failure mode reports which leg of that resolution broke.
    fn resolve(&self, from_node: NodeId, peer: PeerId) -> Result<(NodeId, PeerId), DeliveryError> {
        let sender = &self.routers[from_node.0];
        let peer_addr = sender
            .peer(peer)
            .ok_or(DeliveryError::UnknownPeer {
                node: from_node,
                peer,
            })?
            .address;
        let to_node = self
            .routers
            .iter()
            .position(|r| r.router_id() == peer_addr)
            .map(NodeId)
            .ok_or(DeliveryError::UnresolvedPeerAddress {
                node: from_node,
                peer,
                address: peer_addr,
            })?;
        let from_peer = self.routers[to_node.0]
            .peer_by_address(sender.router_id())
            .ok_or(DeliveryError::NoReturnPeer {
                node: from_node,
                to_node,
                sender: sender.router_id(),
            })?;
        Ok((to_node, from_peer))
    }

    /// Advances virtual time by one tick, delivering everything due.
    /// Returns the number of messages delivered.
    pub(crate) fn step(&mut self) -> usize {
        let mut span = dice_obs::span("netsim", "sim.step");
        self.stats.now += 1;
        let now = self.stats.now;
        let mut due = Vec::new();
        let mut remaining = VecDeque::with_capacity(self.queue.len());
        while let Some(m) = self.queue.pop_front() {
            if m.deliver_at <= now {
                due.push(m);
            } else {
                remaining.push_back(m);
            }
        }
        self.queue = remaining;
        let mut delivered = 0;
        for m in due {
            // A link that went down while the message was in flight loses
            // it at delivery time.
            if self.faults.link_is_down(m.from_node, m.to_node) {
                self.stats.dropped += 1;
                self.faults.record(
                    now,
                    InjectedFaultKind::MessageDropped {
                        from: m.from_node,
                        to: m.to_node,
                        link_down: true,
                    },
                );
                continue;
            }
            delivered += 1;
            self.deliver(m.to_node, m.from_peer, m.message);
        }
        span.set_detail(delivered as u64);
        delivered
    }

    /// Runs until no messages are in flight or `max_steps` is reached.
    /// Returns the number of steps taken.
    pub fn run_to_quiescence(&mut self, max_steps: u64) -> u64 {
        let mut steps = 0;
        while !self.queue.is_empty() && steps < max_steps {
            self.step();
            steps += 1;
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{addr, asn, figure2_topology, CustomerFilterMode};
    use dice_bgp::attributes::RouteAttrs;
    use dice_bgp::message::UpdateMessage;
    use dice_bgp::prefix::Ipv4Prefix;

    #[test]
    fn sim_stats_display_renders_fault_counters_only_when_nonzero() {
        let mut stats = SimStats::default();
        stats.delivered = 12;
        stats.now = 40;
        assert_eq!(stats.to_string(), "delivered=12 undeliverable=0 now=40");
        stats.dropped = 2;
        stats.reordered = 1;
        assert_eq!(
            stats.to_string(),
            "delivered=12 undeliverable=0 now=40 dropped=2 reordered=1"
        );
    }

    fn announcement(prefix: &str, path: &[u32], next_hop: std::net::Ipv4Addr) -> BgpMessage {
        let mut attrs = RouteAttrs::default();
        attrs.as_path = dice_bgp::AsPath::from_sequence(path.iter().copied());
        attrs.next_hop = next_hop;
        BgpMessage::Update(UpdateMessage::announce(
            vec![prefix.parse::<Ipv4Prefix>().expect("valid")],
            &attrs,
        ))
    }

    #[test]
    fn announcement_propagates_across_figure2() {
        let topo = figure2_topology(CustomerFilterMode::Correct);
        let mut sim = Simulator::new(&topo);
        let provider = topo.node_by_name("Provider").expect("node");
        let customer = topo.node_by_name("Customer").expect("node");
        let internet = topo.node_by_name("RestOfInternet").expect("node");

        // The Internet announces a prefix to the Provider.
        sim.inject(
            provider,
            addr::INTERNET,
            announcement("8.8.0.0/16", &[asn::INTERNET, 15169], addr::INTERNET),
        );
        sim.run_to_quiescence(100);

        assert_eq!(sim.router(provider).rib().prefix_count(), 1);
        // Propagated on to the customer (which also holds its own static).
        let learned = sim
            .router(customer)
            .rib()
            .best_route(&"8.8.0.0/16".parse().expect("valid"))
            .expect("customer learned the route");
        assert_eq!(
            learned.attrs.as_path.neighbor_as().map(|a| a.value()),
            Some(asn::PROVIDER)
        );
        assert!(sim.stats().delivered >= 2);
        assert_eq!(sim.stats().undeliverable, 0);
        assert_eq!(sim.name(internet), "RestOfInternet");
        assert_eq!(sim.len(), 3);
    }

    #[test]
    fn customer_leak_is_blocked_by_correct_filter() {
        let topo = figure2_topology(CustomerFilterMode::Correct);
        let mut sim = Simulator::new(&topo);
        let provider = topo.node_by_name("Provider").expect("node");
        let internet = topo.node_by_name("RestOfInternet").expect("node");

        // The customer leaks YouTube's /24 (wrong origin, foreign block).
        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("208.65.153.0/24", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);
        assert_eq!(sim.router(provider).rib().prefix_count(), 0);
        assert_eq!(sim.router(internet).rib().prefix_count(), 0);
    }

    #[test]
    fn customer_leak_spreads_with_missing_filter() {
        let topo = figure2_topology(CustomerFilterMode::Missing);
        let mut sim = Simulator::new(&topo);
        let provider = topo.node_by_name("Provider").expect("node");
        let internet = topo.node_by_name("RestOfInternet").expect("node");

        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("208.65.153.0/24", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);
        // The hijack reaches the rest of the Internet — the incident.
        assert_eq!(sim.router(provider).rib().prefix_count(), 1);
        assert_eq!(sim.router(internet).rib().prefix_count(), 1);
        let leaked = sim
            .router(internet)
            .rib()
            .best_route(&"208.65.153.0/24".parse().expect("valid"))
            .expect("leaked route");
        assert_eq!(leaked.origin_as().map(|a| a.value()), Some(asn::CUSTOMER));
    }

    #[test]
    fn link_delay_defers_delivery() {
        let topo = figure2_topology(CustomerFilterMode::Correct);
        let mut sim = Simulator::new(&topo);
        let provider = topo.node_by_name("Provider").expect("node");
        let customer = topo.node_by_name("Customer").expect("node");
        let prefix = "8.8.0.0/16".parse().expect("valid");
        sim.inject(
            provider,
            addr::INTERNET,
            announcement("8.8.0.0/16", &[asn::INTERNET], addr::INTERNET),
        );
        // The re-advertisement to the customer is in flight, not delivered:
        // it arrives on the next tick.
        assert_eq!(sim.pending(), 1);
        assert!(sim.router(customer).rib().best_route(&prefix).is_none());
        assert_eq!(sim.step(), 1);
        assert!(sim.router(customer).rib().best_route(&prefix).is_some());
        assert_eq!(sim.stats().now, LINK_DELAY);
    }

    #[test]
    fn session_messages_are_handled_but_not_logged() {
        use dice_bgp::message::OpenMessage;

        let topo = figure2_topology(CustomerFilterMode::Correct);
        let mut sim = Simulator::new(&topo);
        let provider = topo.node_by_name("Provider").expect("node");
        let customer = topo.node_by_name("Customer").expect("node");
        let router_id_of = |sim: &Simulator, node: NodeId, address| {
            let router = sim.router(node);
            let peer = router.peer_by_address(address).expect("peer");
            router.peer(peer).expect("peer").router_id
        };

        // Injected: the Provider reads the OPEN and answers it.
        sim.inject(
            provider,
            addr::CUSTOMER,
            BgpMessage::Open(OpenMessage::new(asn::CUSTOMER, 90, 0x0a00_0909)),
        );
        assert_eq!(router_id_of(&sim, provider, addr::CUSTOMER), 0x0a00_0909);
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.pending(), 2, "an OPEN and a KEEPALIVE in reply");

        // Stepped: the Customer reads that OPEN and KEEPALIVE in turn.
        let mut steps = 0;
        while sim.stats().delivered < 3 {
            sim.step();
            steps += 1;
            assert!(steps < 100, "the replies are delivered");
        }
        assert_eq!(
            router_id_of(&sim, customer, addr::PROVIDER),
            u32::from(addr::PROVIDER)
        );

        // None of the three was an UPDATE: nothing observed, cursor unmoved.
        assert!(sim.observed_log().is_empty());
        assert_eq!(sim.observed_cursor(), 0);
    }

    /// The log keeps one entry per delivered UPDATE until a harvester
    /// trims it: a `table_load` pass ends holding 638,710 of them, so each
    /// byte an entry grows by costs about 0.6 MiB there. A field added
    /// later must not silently undo the compact form.
    #[test]
    fn an_observed_entry_takes_at_most_40_bytes() {
        assert!(
            std::mem::size_of::<ObservedInput>() <= 40,
            "ObservedInput is {} bytes",
            std::mem::size_of::<ObservedInput>()
        );
    }

    #[test]
    fn observed_inputs_are_harvested_per_node() {
        let topo = figure2_topology(CustomerFilterMode::Missing);
        let mut sim = Simulator::new(&topo);
        let provider = topo.node_by_name("Provider").expect("node");
        let customer = topo.node_by_name("Customer").expect("node");
        let internet = topo.node_by_name("RestOfInternet").expect("node");

        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("41.1.0.0/16", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);

        // The Provider observed the injected customer announcement...
        let provider_obs = sim.observed_inputs(provider);
        assert_eq!(provider_obs.len(), 1);
        assert_eq!(
            provider_obs[0].1.nlri,
            vec!["41.1.0.0/16".parse::<Ipv4Prefix>().expect("valid")]
        );
        // ...and the re-advertisement reached the Internet node, which
        // observed it too; the customer saw nothing (split horizon back to
        // the announcer still counts if delivered — here nothing was).
        assert_eq!(sim.observed_inputs(internet).len(), 1);
        assert!(sim.observed_inputs(customer).is_empty());
        assert_eq!(sim.observed_log().len(), 2);

        // Keepalives are not explorable inputs.
        sim.inject(
            provider,
            addr::CUSTOMER,
            BgpMessage::Keepalive(dice_bgp::message::KeepaliveMessage),
        );
        assert_eq!(sim.observed_log().len(), 2);

        // Trimming below the cursor empties the log for every node.
        sim.trim_observed_below(sim.observed_cursor());
        assert!(sim.observed_log().is_empty());
        assert!(sim.observed_inputs(provider).is_empty());
    }

    #[test]
    fn trim_compacts_the_log_below_a_passed_cursor() {
        let topo = figure2_topology(CustomerFilterMode::Missing);
        let mut sim = Simulator::new(&topo);
        let provider = topo.node_by_name("Provider").expect("node");
        let internet = topo.node_by_name("RestOfInternet").expect("node");

        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("41.1.0.0/16", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);
        let mid = sim.observed_cursor();
        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("41.64.0.0/12", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);
        let head = sim.observed_cursor();

        // Harvest the first window everywhere, then compact below it.
        let second_window_before: Vec<_> = sim.observed_inputs_in(provider, mid, head);
        let trimmed = sim.trim_observed_below(mid);
        assert_eq!(trimmed as u64, mid, "every entry below the cursor dropped");
        assert!(sim.observed_log().iter().all(|o| o.seq() >= mid));

        // Cursor and later windows are untouched by compaction.
        assert_eq!(sim.observed_cursor(), head);
        assert_eq!(
            sim.observed_inputs_in(provider, mid, head),
            second_window_before
        );
        assert!(!sim.observed_inputs(internet).is_empty());

        // Trimming is idempotent, and trimming everything empties the log
        // without ever reusing sequence numbers.
        assert_eq!(sim.trim_observed_below(mid), 0);
        sim.trim_observed_below(head);
        assert!(sim.observed_log().is_empty());
        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("41.128.0.0/12", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        assert_eq!(sim.observed_log().first().map(|o| o.seq()), Some(head));
    }

    #[test]
    fn windowed_harvest_partitions_the_delivery_log() {
        let topo = figure2_topology(CustomerFilterMode::Missing);
        let mut sim = Simulator::new(&topo);
        let provider = topo.node_by_name("Provider").expect("node");
        let internet = topo.node_by_name("RestOfInternet").expect("node");

        assert_eq!(sim.observed_cursor(), 0);
        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("41.1.0.0/16", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);
        let mid = sim.observed_cursor();
        assert!(mid >= 2, "injection plus re-advertisement observed");

        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("41.64.0.0/12", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);
        let end = sim.observed_cursor();
        assert!(end > mid);

        // Per node: window one plus window two equals the one-shot harvest.
        for node in [provider, internet] {
            let mut windows = sim.observed_inputs_in(node, 0, mid);
            windows.extend(sim.observed_inputs_in(node, mid, end));
            assert_eq!(windows, sim.observed_inputs(node), "node {}", node.0);
        }
        // An empty window at the head harvests nothing.
        assert!(sim.observed_inputs_in(provider, end, end + 10).is_empty());
        // Sequence tags are the global delivery order.
        let seqs: Vec<u64> = sim.observed_log().iter().map(|o| o.seq()).collect();
        assert_eq!(seqs, (0..end).collect::<Vec<u64>>());
    }

    #[test]
    fn taking_a_window_moves_out_what_harvesting_it_copies() {
        let topo = figure2_topology(CustomerFilterMode::Missing);
        let mut sim = Simulator::new(&topo);
        let provider = topo.node_by_name("Provider").expect("node");

        for prefix in ["41.1.0.0/16", "41.64.0.0/12", "41.128.0.0/12"] {
            sim.inject(
                provider,
                addr::CUSTOMER,
                announcement(prefix, &[asn::CUSTOMER], addr::CUSTOMER),
            );
            sim.run_to_quiescence(100);
        }
        let head = sim.observed_cursor();
        let (from, to) = (2, head - 1);
        let copied: Vec<_> = (0..sim.len())
            .map(|i| sim.observed_inputs_in(NodeId(i), from, to))
            .collect();
        assert!(copied.iter().filter(|w| !w.is_empty()).count() >= 2);
        let before: Vec<ObservedInput> = sim.observed_log().iter().cloned().collect();

        let taken = sim.take_observed_in(from, to);
        assert_eq!(taken, copied, "one window per node, each in delivery order");
        // Only the window left the log; what surrounds it and the cursor
        // stay as they were.
        let rest: Vec<_> = before
            .into_iter()
            .filter(|o| o.seq() < from || o.seq() >= to)
            .collect();
        assert_eq!(sim.observed_log(), ObservedLog { entries: &rest });
        assert_eq!(sim.observed_cursor(), head);
        // Taking it again finds nothing.
        assert!(sim.take_observed_in(from, to).iter().all(Vec::is_empty));
    }

    #[test]
    fn unknown_source_address_is_counted_and_diagnosable() {
        let topo = figure2_topology(CustomerFilterMode::Correct);
        let mut sim = Simulator::new(&topo);
        let provider = topo.node_by_name("Provider").expect("node");
        sim.inject(
            provider,
            std::net::Ipv4Addr::new(192, 0, 2, 99),
            announcement("8.8.0.0/16", &[asn::INTERNET], addr::INTERNET),
        );
        assert_eq!(sim.stats().undeliverable, 1);
        assert_eq!(sim.stats().delivered, 0);
        // The silent counter bump now has a structured, diagnosable form
        // in the fault trace — without counting as an *injected* fault.
        assert_eq!(sim.fault_trace().len(), 1);
        assert_eq!(sim.injected_fault_count(), 0);
        match &sim.fault_trace().events()[0].kind {
            InjectedFaultKind::DeliveryError(DeliveryError::UnknownSourceAddress {
                node,
                address,
            }) => {
                assert_eq!(*node, provider);
                assert_eq!(*address, std::net::Ipv4Addr::new(192, 0, 2, 99));
            }
            other => panic!("expected a structured delivery error, got {other:?}"),
        }
    }

    #[test]
    fn session_reset_withdraws_learned_routes_and_reestablishes() {
        let topo = figure2_topology(CustomerFilterMode::Missing);
        let mut sim = Simulator::new(&topo);
        let provider = topo.node_by_name("Provider").expect("node");
        let customer = topo.node_by_name("Customer").expect("node");
        let internet = topo.node_by_name("RestOfInternet").expect("node");

        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("41.1.0.0/16", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);
        assert_eq!(sim.router(internet).rib().prefix_count(), 1);

        sim.install_fault_plan(FaultPlan::new(0).with_spec(FaultSpec::SessionReset {
            a: provider,
            b: customer,
            epoch: 1,
        }));
        sim.apply_epoch_faults(1);
        sim.run_to_quiescence(100);

        // The provider flushed the customer-learned route and the
        // withdrawal propagated to the rest of the Internet.
        assert_eq!(sim.router(provider).rib().prefix_count(), 0);
        assert_eq!(sim.router(internet).rib().prefix_count(), 0);
        assert_eq!(sim.injected_fault_count(), 1);
        assert!(sim
            .fault_trace()
            .digest()
            .contains("session-reset node1<->node0"));

        // Sessions re-established: a fresh announcement flows again.
        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("41.64.0.0/12", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);
        assert_eq!(sim.router(internet).rib().prefix_count(), 1);
    }

    #[test]
    fn link_flap_loses_traffic_while_down() {
        let topo = figure2_topology(CustomerFilterMode::Missing);
        let plan = FaultPlan::new(0).with_spec(FaultSpec::LinkFlap {
            a: topo.node_by_name("Provider").expect("node"),
            b: topo.node_by_name("RestOfInternet").expect("node"),
            down_epoch: 1,
            up_epoch: 2,
        });
        let mut sim = Simulator::new(&topo).with_fault_plan(plan);
        let provider = topo.node_by_name("Provider").expect("node");
        let internet = topo.node_by_name("RestOfInternet").expect("node");

        sim.apply_epoch_faults(1);
        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("41.1.0.0/16", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);
        // The provider accepted the route but the re-advertisement toward
        // the Internet was lost on the downed link.
        assert_eq!(sim.router(provider).rib().prefix_count(), 1);
        assert_eq!(sim.router(internet).rib().prefix_count(), 0);
        assert!(sim.stats().dropped >= 1);

        // After the link recovers, new traffic flows again.
        sim.apply_epoch_faults(2);
        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("41.64.0.0/12", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);
        assert_eq!(sim.router(internet).rib().prefix_count(), 1);
    }

    #[test]
    fn partition_and_heal_sever_and_restore_boundary_links() {
        let topo = figure2_topology(CustomerFilterMode::Missing);
        let mut sim = Simulator::new(&topo);
        let provider = topo.node_by_name("Provider").expect("node");
        let internet = topo.node_by_name("RestOfInternet").expect("node");

        // Pre-fault steady state: the customer route reached the Internet.
        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("41.1.0.0/16", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);
        assert_eq!(sim.router(internet).rib().prefix_count(), 1);

        sim.install_fault_plan(
            FaultPlan::new(0)
                .with_spec(FaultSpec::Partition {
                    nodes: vec![internet],
                    epoch: 1,
                })
                .with_spec(FaultSpec::Heal {
                    nodes: vec![internet],
                    epoch: 2,
                }),
        );
        sim.apply_epoch_faults(1);
        sim.run_to_quiescence(100);
        // The reset flushed the Internet node's learned route, and the
        // severed link keeps new traffic out.
        assert_eq!(sim.router(internet).rib().prefix_count(), 0);
        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("41.64.0.0/12", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);
        assert_eq!(sim.router(provider).rib().prefix_count(), 2);
        assert_eq!(
            sim.router(internet).rib().prefix_count(),
            0,
            "re-advertisement lost on the severed boundary link"
        );
        assert!(sim.stats().dropped >= 1);
        let digest = sim.fault_trace().digest();
        assert!(digest.contains("partition-severed nodes=[2] epoch=1 links=1"));
        assert!(digest.contains("link-down node1<->node2 epoch=1"));
        assert!(digest.contains("session-reset node1<->node2 epoch=1"));

        // Heal: fresh traffic flows again, but nothing withdrawn or lost
        // during the partition re-announces by itself — the steady state
        // diverges from the pre-fault one (the wedgie surface).
        sim.apply_epoch_faults(2);
        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("41.96.0.0/12", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);
        let digest = sim.fault_trace().digest();
        assert!(digest.contains("partition-healed nodes=[2] epoch=2 links=1"));
        assert!(digest.contains("link-up node1<->node2 epoch=2"));
        assert_eq!(sim.router(internet).rib().prefix_count(), 1);
        assert!(
            sim.router(internet)
                .rib()
                .best_route(&"41.1.0.0/16".parse().expect("valid"))
                .is_none(),
            "pre-fault best route stays gone after the heal"
        );
    }

    #[test]
    fn partitioning_a_middle_node_severs_every_boundary_link_atomically() {
        let topo = figure2_topology(CustomerFilterMode::Missing);
        let provider = topo.node_by_name("Provider").expect("node");
        let customer = topo.node_by_name("Customer").expect("node");
        let internet = topo.node_by_name("RestOfInternet").expect("node");
        let mut sim = Simulator::new(&topo);
        sim.inject(
            provider,
            addr::CUSTOMER,
            announcement("41.1.0.0/16", &[asn::CUSTOMER], addr::CUSTOMER),
        );
        sim.run_to_quiescence(100);
        let customer_before = sim.router(customer).rib().prefix_count();

        sim.install_fault_plan(FaultPlan::new(0).with_spec(FaultSpec::Partition {
            nodes: vec![provider],
            epoch: 1,
        }));
        sim.apply_epoch_faults(1);
        sim.run_to_quiescence(100);
        let digest = sim.fault_trace().digest();
        assert!(digest.contains("partition-severed nodes=[1] epoch=1 links=2"));
        assert!(digest.contains("link-down node0<->node1 epoch=1"));
        assert!(digest.contains("link-down node1<->node2 epoch=1"));
        assert!(digest.contains("session-reset node0<->node1 epoch=1"));
        assert!(digest.contains("session-reset node1<->node2 epoch=1"));
        // Both links went down before either reset fired, so the provider's
        // withdrawals were lost at the boundary instead of leaking across;
        // the customer keeps only what it already originated locally.
        assert_eq!(sim.router(provider).rib().prefix_count(), 0);
        assert_eq!(sim.router(internet).rib().prefix_count(), 0);
        assert_eq!(sim.router(customer).rib().prefix_count(), customer_before);
        // Duplicate partition of the same set is idempotent on link state.
        sim.install_fault_plan(FaultPlan::new(0).with_spec(FaultSpec::Partition {
            nodes: vec![provider, provider],
            epoch: 1,
        }));
        sim.apply_epoch_faults(1);
        assert!(sim
            .fault_trace()
            .digest()
            .contains("partition-severed nodes=[1] epoch=1 links=2"));
    }

    #[test]
    fn same_plan_and_seed_replays_byte_identically() {
        let run = |seed: u64| {
            let topo = figure2_topology(CustomerFilterMode::Missing);
            let provider = topo.node_by_name("Provider").expect("node");
            let plan = FaultPlan::new(seed)
                .with_spec(FaultSpec::MessageDrop {
                    a: provider,
                    b: topo.node_by_name("RestOfInternet").expect("node"),
                    probability: 0.4,
                })
                .with_spec(FaultSpec::MessageReorder {
                    a: provider,
                    b: topo.node_by_name("Customer").expect("node"),
                    probability: 0.5,
                    max_extra_ticks: 3,
                });
            let mut sim = Simulator::new(&topo).with_fault_plan(plan);
            for i in 0..8u32 {
                sim.inject(
                    provider,
                    addr::CUSTOMER,
                    announcement(&format!("41.{i}.0.0/16"), &[asn::CUSTOMER], addr::CUSTOMER),
                );
                sim.run_to_quiescence(50);
            }
            (
                sim.observed_log().iter().cloned().collect::<Vec<_>>(),
                sim.fault_trace().digest(),
                sim.stats(),
            )
        };
        let (log_a, trace_a, stats_a) = run(11);
        let (log_b, trace_b, stats_b) = run(11);
        assert_eq!(log_a, log_b, "delivery logs replay byte-identically");
        assert_eq!(trace_a, trace_b, "fault traces replay byte-identically");
        assert_eq!(stats_a, stats_b);
        assert!(
            stats_a.dropped > 0 || stats_a.reordered > 0,
            "plan perturbed something"
        );

        // A different seed perturbs differently (with overwhelming
        // probability for this many draws).
        let (_, trace_c, _) = run(12);
        assert_ne!(trace_a, trace_c, "seed changes the injected sequence");
    }
}

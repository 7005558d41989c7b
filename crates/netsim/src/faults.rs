//! Deterministic, seeded fault injection for the simulator.
//!
//! The paper's testbed only ever exercised the happy path: links stay up,
//! sessions stay established, and every message is delivered exactly once,
//! in order. Real control planes misbehave precisely when those assumptions
//! break, so this module makes the breakage itself an exploration dimension:
//! a [`FaultPlan`] schedules link flaps and session resets by *epoch* and
//! arms per-link message drop/duplicate/reorder probabilities driven by a
//! seeded RNG. The [`Simulator`](crate::Simulator) consults the plan at
//! enqueue and delivery time, and every injected event is recorded in a
//! [`FaultTrace`] — so any run is replayable byte-for-byte from
//! `(plan, seed)` alone.

use std::collections::BTreeSet;
use std::fmt;
use std::net::Ipv4Addr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dice_bgp::route::PeerId;

use crate::topology::NodeId;

/// One scheduled or probabilistic fault class in a [`FaultPlan`].
///
/// Links are undirected: a spec naming `(a, b)` applies to traffic in both
/// directions between the two nodes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultSpec {
    /// The link between `a` and `b` goes down at the start of `down_epoch`
    /// and comes back up at the start of `up_epoch`. While down, messages
    /// enqueued on or already in flight across the link are lost.
    LinkFlap {
        /// One endpoint of the link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Epoch at whose start the link goes down.
        down_epoch: u64,
        /// Epoch at whose start the link comes back up.
        up_epoch: u64,
    },
    /// The BGP session between `a` and `b` resets at the start of `epoch`:
    /// both sides tear their FSM down, flush every route learned from the
    /// other with withdrawals to their remaining peers (RFC 4271 table
    /// semantics), and then re-establish. Withdrawn routes do not
    /// re-announce by themselves — the perturbation persists until live
    /// traffic re-learns them.
    SessionReset {
        /// One endpoint of the session.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Epoch at whose start the reset fires.
        epoch: u64,
    },
    /// Every message crossing the link is dropped with probability
    /// `probability`, decided per message by the plan's seeded RNG.
    MessageDrop {
        /// One endpoint of the link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Per-message drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Every message crossing the link is duplicated (delivered twice, at
    /// the same tick) with probability `probability`.
    MessageDuplicate {
        /// One endpoint of the link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Per-message duplication probability in `[0, 1]`.
        probability: f64,
    },
    /// Every message crossing the link is delayed by an extra
    /// `1..=max_extra_ticks` ticks with probability `probability`,
    /// reordering it behind traffic enqueued later.
    MessageReorder {
        /// One endpoint of the link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Per-message delay probability in `[0, 1]`.
        probability: f64,
        /// Upper bound on the extra delay, in ticks (at least 1).
        max_extra_ticks: u64,
    },
    /// At the start of `epoch`, every link between the named node set and
    /// the rest of the topology is severed *atomically*: all boundary links
    /// go down first (so no withdrawal leaks across a link that is itself
    /// being severed), then each severed link gets session-reset semantics —
    /// both sides flush the routes learned from the other and re-establish
    /// their (now inert) FSM. The partition persists until a matching
    /// [`FaultSpec::Heal`] restores the links.
    Partition {
        /// The node set to cut off from everything outside it.
        nodes: Vec<NodeId>,
        /// Epoch at whose start the partition fires.
        epoch: u64,
    },
    /// At the start of `epoch`, every severed boundary link of the named
    /// node set comes back up. Withdrawn routes do not re-announce by
    /// themselves — only live traffic re-learns them, which is exactly the
    /// divergence window the wedgie checker watches.
    Heal {
        /// The node set whose boundary links to restore.
        nodes: Vec<NodeId>,
        /// Epoch at whose start the heal fires.
        epoch: u64,
    },
}

impl FaultSpec {
    /// The undirected link the spec applies to, normalized so `(a, b)` and
    /// `(b, a)` compare equal. `None` for the multi-link variants
    /// ([`FaultSpec::Partition`] / [`FaultSpec::Heal`]), whose affected
    /// links depend on the topology.
    pub(crate) fn link(&self) -> Option<(NodeId, NodeId)> {
        let (a, b) = match *self {
            FaultSpec::LinkFlap { a, b, .. }
            | FaultSpec::SessionReset { a, b, .. }
            | FaultSpec::MessageDrop { a, b, .. }
            | FaultSpec::MessageDuplicate { a, b, .. }
            | FaultSpec::MessageReorder { a, b, .. } => (a, b),
            FaultSpec::Partition { .. } | FaultSpec::Heal { .. } => return None,
        };
        Some(normalize_link(a, b))
    }
}

/// Normalizes an undirected node pair to `(min, max)` order.
pub(crate) fn normalize_link(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

/// A deterministic schedule of faults: an ordered list of [`FaultSpec`]s
/// plus the seed for the probabilistic ones. The default plan is empty and
/// injects nothing — a simulator running under it behaves byte-identically
/// to one with no plan at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan whose probabilistic faults (if any are added) draw
    /// from an RNG seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Adds a fault spec. Specs are consulted in insertion order, which is
    /// part of the replay contract: the same plan always draws the RNG in
    /// the same sequence.
    pub fn with_spec(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// The RNG seed for probabilistic specs.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled specs, in consultation order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Why a message or injection could not be delivered: the structured form
/// of what used to be a bare `undeliverable` counter bump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryError {
    /// [`Simulator::inject`](crate::Simulator::inject) named a source
    /// address the receiving node has no peer configured for.
    UnknownSourceAddress {
        /// The node the injection targeted.
        node: NodeId,
        /// The unrecognized source address.
        address: Ipv4Addr,
    },
    /// A sending node emitted a message for a peer id it has no entry for.
    UnknownPeer {
        /// The sending node.
        node: NodeId,
        /// The unknown peer id.
        peer: PeerId,
    },
    /// The peer's configured address matches no router in the topology.
    UnresolvedPeerAddress {
        /// The sending node.
        node: NodeId,
        /// The peer whose address failed to resolve.
        peer: PeerId,
        /// The address with no matching router.
        address: Ipv4Addr,
    },
    /// The destination router has no reverse peer entry for the sender's
    /// router id — a one-way peering misconfiguration.
    NoReturnPeer {
        /// The sending node.
        node: NodeId,
        /// The resolved destination node.
        to_node: NodeId,
        /// The sender's router id the destination does not know.
        sender: Ipv4Addr,
    },
}

impl fmt::Display for DeliveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliveryError::UnknownSourceAddress { node, address } => {
                write!(
                    f,
                    "unknown source address {address} injected at node{}",
                    node.0
                )
            }
            DeliveryError::UnknownPeer { node, peer } => {
                write!(f, "node{} sent to unknown peer {}", node.0, peer.0)
            }
            DeliveryError::UnresolvedPeerAddress {
                node,
                peer,
                address,
            } => write!(
                f,
                "node{} peer {} address {address} matches no router",
                node.0, peer.0
            ),
            DeliveryError::NoReturnPeer {
                node,
                to_node,
                sender,
            } => write!(
                f,
                "node{} has no peer entry for sender {sender} (from node{})",
                to_node.0, node.0
            ),
        }
    }
}

/// One event injected (or diagnosed) by the fault layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectedFaultKind {
    /// A link went down at the start of an epoch.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The epoch whose start brought the link down.
        epoch: u64,
    },
    /// A link came back up at the start of an epoch.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The epoch whose start brought the link up.
        epoch: u64,
    },
    /// A session reset fired: both sides flushed the routes learned from
    /// the other and re-established.
    SessionReset {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The epoch whose start fired the reset.
        epoch: u64,
        /// Total prefixes flushed across both sides.
        withdrawn_routes: usize,
    },
    /// A partition fired: every boundary link of the node set was severed
    /// atomically, each with session-reset semantics.
    PartitionSevered {
        /// The partitioned node set, sorted and deduplicated.
        nodes: Vec<NodeId>,
        /// The epoch whose start fired the partition.
        epoch: u64,
        /// Number of boundary links severed.
        links: usize,
    },
    /// A heal fired: the node set's severed boundary links came back up.
    PartitionHealed {
        /// The healed node set, sorted and deduplicated.
        nodes: Vec<NodeId>,
        /// The epoch whose start fired the heal.
        epoch: u64,
        /// Number of boundary links restored.
        links: usize,
    },
    /// A message crossing a link was dropped.
    MessageDropped {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// True when the drop was caused by a down link rather than a
        /// probabilistic [`FaultSpec::MessageDrop`].
        link_down: bool,
    },
    /// A message was duplicated: one extra copy was enqueued.
    MessageDuplicated {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
    },
    /// A message was delayed by `extra_ticks` beyond the link delay,
    /// reordering it behind later traffic.
    MessageDelayed {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Extra ticks added on top of the link delay.
        extra_ticks: u64,
    },
    /// A delivery failed for a structural reason (not an injected fault):
    /// the diagnosable form of the `undeliverable` counter.
    DeliveryError(DeliveryError),
}

impl fmt::Display for InjectedFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectedFaultKind::LinkDown { a, b, epoch } => {
                write!(f, "link-down node{}<->node{} epoch={epoch}", a.0, b.0)
            }
            InjectedFaultKind::LinkUp { a, b, epoch } => {
                write!(f, "link-up node{}<->node{} epoch={epoch}", a.0, b.0)
            }
            InjectedFaultKind::SessionReset {
                a,
                b,
                epoch,
                withdrawn_routes,
            } => write!(
                f,
                "session-reset node{}<->node{} epoch={epoch} withdrawn={withdrawn_routes}",
                a.0, b.0
            ),
            InjectedFaultKind::PartitionSevered {
                nodes,
                epoch,
                links,
            } => write!(
                f,
                "partition-severed nodes=[{}] epoch={epoch} links={links}",
                render_nodes(nodes)
            ),
            InjectedFaultKind::PartitionHealed {
                nodes,
                epoch,
                links,
            } => write!(
                f,
                "partition-healed nodes=[{}] epoch={epoch} links={links}",
                render_nodes(nodes)
            ),
            InjectedFaultKind::MessageDropped {
                from,
                to,
                link_down,
            } => write!(
                f,
                "msg-dropped node{}->node{}{}",
                from.0,
                to.0,
                if *link_down { " (link down)" } else { "" }
            ),
            InjectedFaultKind::MessageDuplicated { from, to } => {
                write!(f, "msg-duplicated node{}->node{}", from.0, to.0)
            }
            InjectedFaultKind::MessageDelayed {
                from,
                to,
                extra_ticks,
            } => write!(
                f,
                "msg-delayed node{}->node{} extra={extra_ticks}",
                from.0, to.0
            ),
            InjectedFaultKind::DeliveryError(err) => write!(f, "delivery-error {err}"),
        }
    }
}

/// Renders a node set as a comma-separated id list for trace lines.
fn render_nodes(nodes: &[NodeId]) -> String {
    let ids: Vec<String> = nodes.iter().map(|n| n.0.to_string()).collect();
    ids.join(",")
}

/// One timestamped entry in the [`FaultTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Virtual time (ticks) at which the event happened.
    pub at: u64,
    /// What happened.
    pub kind: InjectedFaultKind,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{} {}", self.at, self.kind)
    }
}

/// The ordered record of every event the fault layer injected or diagnosed
/// during a run. Two runs of the same topology, driver, and `(plan, seed)`
/// produce byte-identical traces — the replay anchor the determinism
/// proptests assert.
///
/// The injected count and the fingerprint are kept running as events are
/// recorded, so reading them costs nothing however long the trace is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultTrace {
    events: Vec<InjectedFault>,
    /// Events other than structural delivery errors.
    injected: usize,
    /// FNV-1a over [`FaultTrace::digest`] so far.
    hash: Fnv1a,
}

impl Default for FaultTrace {
    fn default() -> Self {
        FaultTrace {
            events: Vec::new(),
            injected: 0,
            hash: Fnv1a::new(),
        }
    }
}

/// A running FNV-1a 64-bit hash, fed through [`fmt::Write`] so an event's
/// rendering is hashed without being collected into a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        for byte in text.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

impl FaultTrace {
    /// All recorded events, in injection order.
    pub fn events(&self) -> &[InjectedFault] {
        &self.events
    }

    /// Total number of recorded events (injected faults plus delivery
    /// errors).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of *injected* faults: every event except structural
    /// [`InjectedFaultKind::DeliveryError`]s, which diagnose the topology
    /// rather than perturb it.
    pub(crate) fn injected_count(&self) -> usize {
        self.injected
    }

    /// A canonical one-line-per-event rendering, stable across runs of the
    /// same `(plan, seed)` — the byte-identity anchor for replay tests.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_string());
            out.push('\n');
        }
        out
    }

    /// FNV-1a 64-bit fingerprint of [`FaultTrace::digest`], `0` for an
    /// empty trace. Two runs with equal injected *counts* but different
    /// event sequences get different fingerprints, which is what the
    /// control plane exports so such runs stay distinguishable.
    pub fn fingerprint(&self) -> u64 {
        if self.events.is_empty() {
            return 0;
        }
        self.hash.0
    }

    /// Appends one event, keeping the count and the fingerprint current.
    fn push(&mut self, event: InjectedFault) {
        use fmt::Write as _;
        if !matches!(event.kind, InjectedFaultKind::DeliveryError(_)) {
            self.injected += 1;
        }
        writeln!(self.hash, "{event}").expect("hashing cannot fail");
        self.events.push(event);
    }
}

/// Runtime state the simulator keeps per installed plan: the seeded RNG,
/// the set of currently-down links, and the trace.
#[derive(Debug, Clone)]
pub(crate) struct FaultRuntime {
    plan: FaultPlan,
    /// Whether any spec of the plan fires at the start of an epoch.
    epoch_scheduled: bool,
    rng: StdRng,
    down_links: BTreeSet<(usize, usize)>,
    trace: FaultTrace,
}

/// What the fault layer decided about one outbound message. The trace
/// entry recorded alongside distinguishes *why* a message dropped.
pub(crate) enum EnqueueVerdict {
    /// Drop the message.
    Drop,
    /// Enqueue the message once, undelayed: no fault spec names the link.
    Unperturbed,
    /// Enqueue one copy per entry, each with the given extra delay in
    /// ticks. `vec![0]` is an unperturbed delivery.
    Deliver {
        /// Extra delay per enqueued copy.
        extra_delays: Vec<u64>,
    },
}

impl FaultRuntime {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed());
        let epoch_scheduled = plan.specs().iter().any(|spec| match spec {
            FaultSpec::LinkFlap { .. }
            | FaultSpec::SessionReset { .. }
            | FaultSpec::Partition { .. }
            | FaultSpec::Heal { .. } => true,
            FaultSpec::MessageDrop { .. }
            | FaultSpec::MessageDuplicate { .. }
            | FaultSpec::MessageReorder { .. } => false,
        });
        FaultRuntime {
            plan,
            epoch_scheduled,
            rng,
            down_links: BTreeSet::new(),
            trace: FaultTrace::default(),
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn trace(&self) -> &FaultTrace {
        &self.trace
    }

    pub(crate) fn record(&mut self, at: u64, kind: InjectedFaultKind) {
        self.trace.push(InjectedFault { at, kind });
    }

    /// True when some spec fires at the start of an epoch (link flaps,
    /// session resets, partitions, heals); the message faults act per
    /// message instead.
    pub(crate) fn schedules_epochs(&self) -> bool {
        self.epoch_scheduled
    }

    pub(crate) fn link_is_down(&self, a: NodeId, b: NodeId) -> bool {
        let (a, b) = normalize_link(a, b);
        self.down_links.contains(&(a.0, b.0))
    }

    /// Applies the link-state transitions scheduled for the start of
    /// `epoch`, recording each. Session resets are the simulator's job
    /// (they need router access); it queries the plan directly.
    pub(crate) fn apply_link_epoch(&mut self, epoch: u64, now: u64) {
        let mut transitions = Vec::new();
        for spec in self.plan.specs() {
            if let FaultSpec::LinkFlap {
                a,
                b,
                down_epoch,
                up_epoch,
            } = *spec
            {
                let (a, b) = normalize_link(a, b);
                if down_epoch == epoch {
                    transitions.push((a, b, true));
                }
                if up_epoch == epoch {
                    transitions.push((a, b, false));
                }
            }
        }
        for (a, b, down) in transitions {
            if down {
                if self.down_links.insert((a.0, b.0)) {
                    self.record(now, InjectedFaultKind::LinkDown { a, b, epoch });
                }
            } else if self.down_links.remove(&(a.0, b.0)) {
                self.record(now, InjectedFaultKind::LinkUp { a, b, epoch });
            }
        }
    }

    /// Marks one boundary link of a partition as down, recording a
    /// [`InjectedFaultKind::LinkDown`] if it was up. Returns true when the
    /// link actually transitioned (the caller applies session-reset
    /// semantics only to links it severed itself).
    pub(crate) fn sever_link(&mut self, a: NodeId, b: NodeId, epoch: u64, now: u64) -> bool {
        let (a, b) = normalize_link(a, b);
        if self.down_links.insert((a.0, b.0)) {
            self.record(now, InjectedFaultKind::LinkDown { a, b, epoch });
            return true;
        }
        false
    }

    /// Restores one boundary link of a healed partition, recording a
    /// [`InjectedFaultKind::LinkUp`] if it was down. Returns true when the
    /// link actually transitioned.
    pub(crate) fn restore_link(&mut self, a: NodeId, b: NodeId, epoch: u64, now: u64) -> bool {
        let (a, b) = normalize_link(a, b);
        if self.down_links.remove(&(a.0, b.0)) {
            self.record(now, InjectedFaultKind::LinkUp { a, b, epoch });
            return true;
        }
        false
    }

    /// Decides the fate of one message about to be enqueued from `from` to
    /// `to`, drawing the RNG in spec order (the replay contract) and
    /// recording every perturbation.
    pub(crate) fn on_enqueue(&mut self, from: NodeId, to: NodeId, now: u64) -> EnqueueVerdict {
        if self.link_is_down(from, to) {
            self.record(
                now,
                InjectedFaultKind::MessageDropped {
                    from,
                    to,
                    link_down: true,
                },
            );
            return EnqueueVerdict::Drop;
        }
        let link = normalize_link(from, to);
        // Collect matching probabilistic specs first: drawing the RNG while
        // iterating would borrow `self.plan` and `self.rng` at once.
        let specs: Vec<FaultSpec> = self
            .plan
            .specs()
            .iter()
            .filter(|s| s.link() == Some(link))
            .cloned()
            .collect();
        if specs.is_empty() {
            return EnqueueVerdict::Unperturbed;
        }
        let mut extra_delays = vec![0u64];
        for spec in specs {
            // Each guard draws the RNG exactly once for its spec, keeping
            // the spec-order replay contract intact.
            match spec {
                FaultSpec::MessageDrop { probability, .. }
                    if self.rng.gen_bool(probability.clamp(0.0, 1.0)) =>
                {
                    self.record(
                        now,
                        InjectedFaultKind::MessageDropped {
                            from,
                            to,
                            link_down: false,
                        },
                    );
                    return EnqueueVerdict::Drop;
                }
                FaultSpec::MessageDuplicate { probability, .. }
                    if self.rng.gen_bool(probability.clamp(0.0, 1.0)) =>
                {
                    extra_delays.push(0);
                    self.record(now, InjectedFaultKind::MessageDuplicated { from, to });
                }
                FaultSpec::MessageReorder {
                    probability,
                    max_extra_ticks,
                    ..
                } if self.rng.gen_bool(probability.clamp(0.0, 1.0)) => {
                    let extra = self.rng.gen_range(1..=max_extra_ticks.max(1));
                    for delay in &mut extra_delays {
                        *delay += extra;
                    }
                    self.record(
                        now,
                        InjectedFaultKind::MessageDelayed {
                            from,
                            to,
                            extra_ticks: extra,
                        },
                    );
                }
                _ => {}
            }
        }
        EnqueueVerdict::Deliver { extra_delays }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_and_link_normalization() {
        let plan = FaultPlan::new(7)
            .with_spec(FaultSpec::MessageDrop {
                a: NodeId(2),
                b: NodeId(0),
                probability: 0.5,
            })
            .with_spec(FaultSpec::LinkFlap {
                a: NodeId(0),
                b: NodeId(1),
                down_epoch: 1,
                up_epoch: 2,
            });
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.specs().len(), 2);
        assert!(!plan.is_empty());
        assert!(FaultPlan::default().is_empty());
        assert_eq!(plan.specs()[0].link(), Some((NodeId(0), NodeId(2))));
        assert_eq!(plan.specs()[1].link(), Some((NodeId(0), NodeId(1))));
    }

    #[test]
    fn multi_link_specs_have_no_single_link() {
        let partition = FaultSpec::Partition {
            nodes: vec![NodeId(0)],
            epoch: 1,
        };
        let heal = FaultSpec::Heal {
            nodes: vec![NodeId(0)],
            epoch: 2,
        };
        assert_eq!(partition.link(), None);
        assert_eq!(heal.link(), None);
    }

    #[test]
    fn sever_and_restore_transition_once_and_record() {
        let mut rt = FaultRuntime::new(FaultPlan::default());
        assert!(rt.sever_link(NodeId(2), NodeId(0), 1, 5));
        assert!(!rt.sever_link(NodeId(0), NodeId(2), 1, 5), "already down");
        assert!(rt.link_is_down(NodeId(0), NodeId(2)));
        assert!(rt.restore_link(NodeId(0), NodeId(2), 2, 9));
        assert!(!rt.restore_link(NodeId(0), NodeId(2), 2, 9), "already up");
        assert!(!rt.link_is_down(NodeId(0), NodeId(2)));
        assert_eq!(
            rt.trace().digest(),
            "t5 link-down node0<->node2 epoch=1\nt9 link-up node0<->node2 epoch=2\n"
        );
    }

    #[test]
    fn partition_events_render_node_sets() {
        let mut rt = FaultRuntime::new(FaultPlan::default());
        rt.record(
            3,
            InjectedFaultKind::PartitionSevered {
                nodes: vec![NodeId(0), NodeId(2)],
                epoch: 1,
                links: 2,
            },
        );
        rt.record(
            8,
            InjectedFaultKind::PartitionHealed {
                nodes: vec![NodeId(0), NodeId(2)],
                epoch: 2,
                links: 2,
            },
        );
        assert_eq!(
            rt.trace().digest(),
            "t3 partition-severed nodes=[0,2] epoch=1 links=2\n\
             t8 partition-healed nodes=[0,2] epoch=2 links=2\n"
        );
        assert_eq!(rt.trace().injected_count(), 2);
    }

    #[test]
    fn fingerprint_distinguishes_sequences_and_zeroes_when_empty() {
        assert_eq!(FaultTrace::default().fingerprint(), 0);
        let mut first = FaultRuntime::new(FaultPlan::default());
        first.sever_link(NodeId(0), NodeId(1), 1, 5);
        let mut second = FaultRuntime::new(FaultPlan::default());
        second.sever_link(NodeId(0), NodeId(2), 1, 5);
        assert_eq!(
            first.trace().fingerprint(),
            first.trace().clone().fingerprint(),
            "stable across clones"
        );
        assert_ne!(
            first.trace().fingerprint(),
            second.trace().fingerprint(),
            "equal counts, different events"
        );
    }

    #[test]
    fn runtime_is_deterministic_per_seed() {
        let plan = FaultPlan::new(42).with_spec(FaultSpec::MessageDrop {
            a: NodeId(0),
            b: NodeId(1),
            probability: 0.5,
        });
        let run = |plan: FaultPlan| {
            let mut rt = FaultRuntime::new(plan);
            (0..64)
                .map(|i| matches!(rt.on_enqueue(NodeId(0), NodeId(1), i), EnqueueVerdict::Drop))
                .collect::<Vec<bool>>()
        };
        let first = run(plan.clone());
        let second = run(plan);
        assert_eq!(first, second);
        assert!(first.iter().any(|d| *d), "some messages dropped");
        assert!(first.iter().any(|d| !*d), "some messages delivered");
    }

    #[test]
    fn link_flap_transitions_record_once() {
        let plan = FaultPlan::new(0).with_spec(FaultSpec::LinkFlap {
            a: NodeId(1),
            b: NodeId(0),
            down_epoch: 1,
            up_epoch: 3,
        });
        let mut rt = FaultRuntime::new(plan);
        rt.apply_link_epoch(0, 0);
        assert!(!rt.link_is_down(NodeId(0), NodeId(1)));
        rt.apply_link_epoch(1, 5);
        assert!(rt.link_is_down(NodeId(0), NodeId(1)));
        assert!(rt.link_is_down(NodeId(1), NodeId(0)), "undirected");
        rt.apply_link_epoch(2, 10);
        assert!(rt.link_is_down(NodeId(0), NodeId(1)));
        rt.apply_link_epoch(3, 15);
        assert!(!rt.link_is_down(NodeId(0), NodeId(1)));
        let digest = rt.trace().digest();
        assert_eq!(
            digest,
            "t5 link-down node0<->node1 epoch=1\nt15 link-up node0<->node1 epoch=3\n"
        );
        assert_eq!(rt.trace().injected_count(), 2);
        assert_eq!(rt.trace().len() - rt.trace().injected_count(), 0);
    }

    #[test]
    fn down_link_drops_at_enqueue() {
        let plan = FaultPlan::new(0).with_spec(FaultSpec::LinkFlap {
            a: NodeId(0),
            b: NodeId(1),
            down_epoch: 0,
            up_epoch: 9,
        });
        let mut rt = FaultRuntime::new(plan);
        rt.apply_link_epoch(0, 0);
        assert!(matches!(
            rt.on_enqueue(NodeId(1), NodeId(0), 1),
            EnqueueVerdict::Drop
        ));
        // Unrelated links are untouched.
        assert!(matches!(
            rt.on_enqueue(NodeId(1), NodeId(2), 1),
            EnqueueVerdict::Unperturbed
        ));
    }

    #[test]
    fn duplicate_and_reorder_perturb_copies() {
        let plan = FaultPlan::new(3)
            .with_spec(FaultSpec::MessageDuplicate {
                a: NodeId(0),
                b: NodeId(1),
                probability: 1.0,
            })
            .with_spec(FaultSpec::MessageReorder {
                a: NodeId(0),
                b: NodeId(1),
                probability: 1.0,
                max_extra_ticks: 4,
            });
        let mut rt = FaultRuntime::new(plan);
        match rt.on_enqueue(NodeId(0), NodeId(1), 0) {
            EnqueueVerdict::Deliver { extra_delays } => {
                assert_eq!(extra_delays.len(), 2, "one duplicate copy");
                assert!(extra_delays.iter().all(|d| (1..=4).contains(d)));
            }
            EnqueueVerdict::Drop | EnqueueVerdict::Unperturbed => {
                panic!("both copies should be perturbed")
            }
        }
        assert_eq!(rt.trace().injected_count(), 2);
    }

    #[test]
    fn running_fingerprint_and_count_match_the_rendered_trace() {
        let (a, b) = (NodeId(0), NodeId(2));
        let events = [
            InjectedFaultKind::LinkDown { a, b, epoch: 1 },
            InjectedFaultKind::DeliveryError(DeliveryError::UnknownSourceAddress {
                node: a,
                address: Ipv4Addr::new(192, 0, 2, 1),
            }),
            InjectedFaultKind::SessionReset {
                a,
                b,
                epoch: 2,
                withdrawn_routes: 7,
            },
            InjectedFaultKind::PartitionSevered {
                nodes: vec![a, b],
                epoch: 3,
                links: 2,
            },
            InjectedFaultKind::DeliveryError(DeliveryError::UnknownPeer {
                node: b,
                peer: PeerId(4),
            }),
            InjectedFaultKind::MessageDropped {
                from: a,
                to: b,
                link_down: true,
            },
            InjectedFaultKind::MessageDuplicated { from: b, to: a },
            InjectedFaultKind::MessageDelayed {
                from: a,
                to: b,
                extra_ticks: 3,
            },
            InjectedFaultKind::DeliveryError(DeliveryError::UnresolvedPeerAddress {
                node: a,
                peer: PeerId(1),
                address: Ipv4Addr::new(198, 51, 100, 1),
            }),
            InjectedFaultKind::DeliveryError(DeliveryError::NoReturnPeer {
                node: a,
                to_node: b,
                sender: Ipv4Addr::new(198, 51, 100, 2),
            }),
            InjectedFaultKind::PartitionHealed {
                nodes: vec![a, b],
                epoch: 4,
                links: 2,
            },
            InjectedFaultKind::LinkUp { a, b, epoch: 5 },
        ];
        let fnv1a = |text: &str| {
            text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let mut rt = FaultRuntime::new(FaultPlan::default());
        for (at, kind) in events.into_iter().enumerate() {
            rt.record(at as u64, kind);
            let trace = rt.trace();
            assert_eq!(trace.fingerprint(), fnv1a(&trace.digest()), "after {at}");
            let injected = trace
                .events()
                .iter()
                .filter(|e| !matches!(e.kind, InjectedFaultKind::DeliveryError(_)))
                .count();
            assert_eq!(trace.injected_count(), injected, "after {at}");
            assert_eq!(trace.clone(), *trace);
        }
        assert_eq!(rt.trace().len() - rt.trace().injected_count(), 4);
    }

    #[test]
    fn delivery_errors_render_and_count() {
        let mut rt = FaultRuntime::new(FaultPlan::default());
        rt.record(
            4,
            InjectedFaultKind::DeliveryError(DeliveryError::UnknownSourceAddress {
                node: NodeId(1),
                address: Ipv4Addr::new(192, 0, 2, 99),
            }),
        );
        assert_eq!(rt.trace().len(), 1);
        assert_eq!(rt.trace().injected_count(), 0);
        assert_eq!(
            rt.trace().digest(),
            "t4 delivery-error unknown source address 192.0.2.99 injected at node1\n"
        );
    }
}

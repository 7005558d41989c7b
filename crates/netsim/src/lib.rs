//! # dice-netsim
//!
//! A deterministic network simulator, synthetic RouteViews-like trace
//! generator and replay harness for the DiCE evaluation.
//!
//! The paper's testbed runs three BIRD instances over virtual interfaces on
//! a 48-core machine, loads a 319,355-prefix RouteViews dump and replays a
//! 15-minute update trace (§4). This crate substitutes that setup with:
//!
//! * [`topology::figure2_topology`] — the Customer / Provider / Rest-of-
//!   Internet topology of Figure 2, with selectable customer-filter
//!   misconfiguration;
//! * [`Simulator`] — step-driven message delivery between the routers,
//!   each message arriving one tick after it was sent;
//! * [`generate_trace`] — synthetic full-table and update traces with
//!   realistic prefix-length and AS-path distributions;
//! * [`Replayer`] — feeds a trace into one router and reports the
//!   updates/second the CPU-overhead experiment measures
//!   ([`slowdown_percent`] compares two such readings);
//! * [`FaultPlan`] — deterministic, seeded fault injection (link flaps,
//!   session resets, partitions, message drop/duplicate/reorder) the
//!   simulator consults at enqueue and delivery time, with every injected
//!   event recorded in a replayable [`FaultTrace`];
//! * [`WireTrace`] and [`WireReplayDriver`] — MRT-style wire-level replay:
//!   framed raw BGP message bytes decoded strictly through
//!   `dice_bgp::wire::decode` (with per-message byte-identity checks),
//!   driven into the simulator epoch by epoch, and counted in
//!   [`IngestStats`].
//!
//! [`topology`] is the one public module (its `asn` and `addr` constants
//! name the Figure 2 nodes); every other public item has its one path at
//! the crate root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;
mod ingest;
mod metrics;
mod replay;
mod sim;
pub mod topology;
mod trace;

pub use faults::{
    DeliveryError, FaultPlan, FaultSpec, FaultTrace, InjectedFault, InjectedFaultKind,
};
pub use ingest::{
    synthesize_wire_trace, IngestError, IngestStats, SharedIngestStats, WireRecord,
    WireReplayDriver, WireTrace,
};
pub use metrics::{slowdown_percent, ThroughputMeter};
pub use replay::{ReplayStats, Replayer};
pub use sim::{ObservedInput, ObservedLog, SimStats, Simulator};
pub use trace::{generate_trace, BgpTrace, TraceEvent, TraceGenConfig, PAPER_TABLE_SIZE};

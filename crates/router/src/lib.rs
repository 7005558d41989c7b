//! # dice-router
//!
//! A BIRD-like BGP routing daemon library: routing information bases backed
//! by a copy-on-write prefix map, the RFC 4271 decision process, a policy/filter language
//! with a concolic-aware interpreter, and the router message handler that
//! DiCE checkpoints and explores.
//!
//! The paper integrates DiCE with BIRD 1.1.7; this crate is the substituted
//! substrate (see `DESIGN.md`). The pieces DiCE relies on are:
//!
//! * [`BgpRouter::handle_update`] — the identified message handler whose
//!   code paths exploration exercises;
//! * [`policy::eval_filter`] — the configuration interpreter, which records
//!   constraints when evaluated over symbolic route fields, so exploration
//!   covers configuration behaviour;
//! * [`Rib`] — the node state captured by checkpoints and inspected by the
//!   origin-hijack checker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod decision;
pub mod peer;
pub mod policy;
pub mod rib;
pub mod router;
pub mod trie;

pub use config::{NeighborConfig, RouterConfig, StaticRoute};
pub use decision::{compare, is_better, select_best, DecisionReason};
pub use peer::{Peer, PeerStats};
pub use policy::{FilterDef, FilterOutcome, FilterVerdict, RouteView};
pub use rib::{available_cores, Rib, RibChange};
pub use router::{BgpRouter, Outgoing, RouterStats};
pub use trie::PrefixMap;

//! # dice-bgp
//!
//! BGP-4 (RFC 4271) protocol types for the DiCE reproduction: prefixes,
//! autonomous-system paths, path attributes, the four message types, a
//! strict wire codec and the session finite state machine.
//!
//! The paper integrates DiCE with the BIRD routing daemon; this crate is
//! the protocol layer under the `dice-router` daemon that plays BIRD's
//! role. The UPDATE message defined here is the input DiCE marks as
//! symbolic (selectively: NLRI prefixes, netmask lengths and path-attribute
//! values) to derive exploratory messages that are always syntactically
//! valid.
//!
//! Each type has one path: the AS number and path types ([`Asn`],
//! [`AsPath`], [`SegmentKind`]) sit at the crate root, everything else in
//! its module — [`prefix`], [`attributes`], [`route`], [`message`],
//! [`wire`] (the codec), [`fsm`] and [`error`].
//!
//! ## Example
//!
//! ```
//! use dice_bgp::attributes::RouteAttrs;
//! use dice_bgp::message::{BgpMessage, UpdateMessage};
//! use dice_bgp::prefix::Ipv4Prefix;
//! use dice_bgp::wire;
//! use std::net::Ipv4Addr;
//!
//! // Build the (in)famous /24 announcement from the YouTube hijack.
//! let attrs = RouteAttrs::originated(17557, Ipv4Addr::new(192, 0, 2, 1));
//! let prefix: Ipv4Prefix = "208.65.153.0/24".parse().unwrap();
//! let update = UpdateMessage::announce(vec![prefix], &attrs);
//! let bytes = wire::encode(&BgpMessage::Update(update.clone()));
//! let (decoded, _) = wire::decode(&bytes).unwrap();
//! assert_eq!(decoded.as_update(), Some(&update));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asn;
pub mod attributes;
pub mod error;
pub mod fsm;
pub mod message;
pub mod prefix;
pub mod route;
pub mod wire;

pub use asn::{AsPath, Asn, SegmentKind};

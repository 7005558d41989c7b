//! BGP path attributes (RFC 4271 §4.3 and §5).
//!
//! [`RouteAttrs`] is the one representation of an attribute set: the wire
//! codec decodes an UPDATE's attribute block straight into it and encodes
//! it back in ascending type order, an [`UpdateMessage`] carries it behind
//! an [`Arc`](std::sync::Arc), and every route installed from that UPDATE
//! shares the same allocation.
//!
//! [`UpdateMessage`]: crate::message::UpdateMessage

use std::fmt;
use std::net::Ipv4Addr;

use crate::asn::{AsPath, Asn};

/// The ORIGIN attribute: how the route entered BGP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Origin {
    /// Interior gateway protocol (value 0) — preferred by the decision
    /// process.
    Igp,
    /// Exterior gateway protocol (value 1).
    Egp,
    /// Unknown provenance (value 2).
    Incomplete,
}

impl Origin {
    /// The RFC 4271 wire value.
    pub fn code(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    /// Parses the wire value.
    pub fn from_code(code: u8) -> Option<Origin> {
        match code {
            0 => Some(Origin::Igp),
            1 => Some(Origin::Egp),
            2 => Some(Origin::Incomplete),
            _ => None,
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Origin::Igp => "IGP",
            Origin::Egp => "EGP",
            Origin::Incomplete => "incomplete",
        };
        f.write_str(s)
    }
}

/// A BGP community value (RFC 1997), conventionally written `asn:value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Community(pub u32);

impl Community {
    /// Builds a community from its `asn:value` halves.
    pub fn new(asn: u16, value: u16) -> Self {
        Community(((asn as u32) << 16) | value as u32)
    }

    /// The high 16 bits (the AS part).
    pub fn asn_part(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The low 16 bits (the value part).
    pub fn value_part(self) -> u16 {
        self.0 as u16
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.asn_part(), self.value_part())
    }
}

/// The AGGREGATOR attribute: the AS and router that formed an aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Aggregator {
    /// The aggregating AS.
    pub asn: Asn,
    /// The aggregating router id.
    pub router_id: u32,
}

/// Attribute type codes defined by RFC 4271 and RFC 1997.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub(crate) enum AttrCode {
    /// ORIGIN (type 1).
    Origin = 1,
    /// AS_PATH (type 2).
    AsPath = 2,
    /// NEXT_HOP (type 3).
    NextHop = 3,
    /// MULTI_EXIT_DISC (type 4).
    Med = 4,
    /// LOCAL_PREF (type 5).
    LocalPref = 5,
    /// ATOMIC_AGGREGATE (type 6).
    AtomicAggregate = 6,
    /// AGGREGATOR (type 7).
    Aggregator = 7,
    /// COMMUNITIES (type 8, RFC 1997).
    Communities = 8,
}

impl AttrCode {
    /// Parses a type code.
    pub(crate) fn from_code(code: u8) -> Option<AttrCode> {
        match code {
            1 => Some(AttrCode::Origin),
            2 => Some(AttrCode::AsPath),
            3 => Some(AttrCode::NextHop),
            4 => Some(AttrCode::Med),
            5 => Some(AttrCode::LocalPref),
            6 => Some(AttrCode::AtomicAggregate),
            7 => Some(AttrCode::Aggregator),
            8 => Some(AttrCode::Communities),
            _ => None,
        }
    }

    /// RFC 4271 attribute flags (optional/transitive bits) used when
    /// encoding the attribute.
    pub(crate) fn default_flags(self) -> u8 {
        match self {
            // Well-known mandatory / discretionary: transitive only.
            AttrCode::Origin
            | AttrCode::AsPath
            | AttrCode::NextHop
            | AttrCode::LocalPref
            | AttrCode::AtomicAggregate => flags::TRANSITIVE,
            // Optional non-transitive.
            AttrCode::Med => flags::OPTIONAL,
            // Optional transitive.
            AttrCode::Aggregator | AttrCode::Communities => flags::OPTIONAL | flags::TRANSITIVE,
        }
    }
}

/// Attribute flag bits (the high nibble of the flags octet).
pub(crate) mod flags {
    /// The attribute is optional (not well-known).
    pub(crate) const OPTIONAL: u8 = 0x80;
    /// The attribute is transitive.
    pub(crate) const TRANSITIVE: u8 = 0x40;
    /// The length field is two octets.
    pub(crate) const EXTENDED_LENGTH: u8 = 0x10;
}

/// The complete, typed attribute set of an UPDATE and of the routes it
/// installs.
///
/// The router, the DiCE symbolic handler and the wire codec all operate on
/// this one type; an attribute present on the wire is a field set here,
/// and each attribute can appear at most once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteAttrs {
    /// ORIGIN (mandatory).
    pub origin: Origin,
    /// AS_PATH (mandatory; empty for locally-originated routes).
    pub as_path: AsPath,
    /// NEXT_HOP (mandatory).
    pub next_hop: Ipv4Addr,
    /// MULTI_EXIT_DISC, if present.
    pub med: Option<u32>,
    /// LOCAL_PREF, if present (set on iBGP sessions / by import policy).
    pub local_pref: Option<u32>,
    /// ATOMIC_AGGREGATE marker.
    pub atomic_aggregate: bool,
    /// AGGREGATOR, if present.
    pub aggregator: Option<Aggregator>,
    /// COMMUNITIES, possibly empty.
    pub communities: Vec<Community>,
}

impl Default for RouteAttrs {
    fn default() -> Self {
        RouteAttrs {
            origin: Origin::Igp,
            as_path: AsPath::empty(),
            next_hop: Ipv4Addr::UNSPECIFIED,
            med: None,
            local_pref: None,
            atomic_aggregate: false,
            aggregator: None,
            communities: Vec::new(),
        }
    }
}

impl RouteAttrs {
    /// Creates attributes for a route originated by `origin_as` at
    /// `next_hop`.
    pub fn originated(origin_as: u32, next_hop: Ipv4Addr) -> Self {
        RouteAttrs {
            origin: Origin::Igp,
            as_path: AsPath::from_sequence([origin_as]),
            next_hop,
            ..Default::default()
        }
    }

    /// The origin AS of the route, if the AS path carries one.
    pub fn origin_as(&self) -> Option<Asn> {
        self.as_path.origin_as()
    }

    /// Effective LOCAL_PREF with the RFC default of 100.
    pub fn effective_local_pref(&self) -> u32 {
        self.local_pref.unwrap_or(100)
    }

    /// Effective MED with the "missing is lowest" convention (0).
    pub fn effective_med(&self) -> u32 {
        self.med.unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_codes_roundtrip() {
        for o in [Origin::Igp, Origin::Egp, Origin::Incomplete] {
            assert_eq!(Origin::from_code(o.code()), Some(o));
        }
        assert_eq!(Origin::from_code(7), None);
        assert_eq!(Origin::Igp.to_string(), "IGP");
    }

    #[test]
    fn community_packing() {
        let c = Community::new(65000, 120);
        assert_eq!(c.asn_part(), 65000);
        assert_eq!(c.value_part(), 120);
        assert_eq!(c.to_string(), "65000:120");
        assert_eq!(Community(0xFFFF_FF01).asn_part(), 0xffff);
    }

    #[test]
    fn attr_code_roundtrip_and_flags() {
        for code in 1..=8u8 {
            let c = AttrCode::from_code(code).expect("known code");
            assert_eq!(c as u8, code);
        }
        assert_eq!(AttrCode::from_code(99), None);
        assert_eq!(AttrCode::Origin.default_flags(), flags::TRANSITIVE);
        assert_eq!(AttrCode::Med.default_flags(), flags::OPTIONAL);
        assert_eq!(
            AttrCode::Communities.default_flags(),
            flags::OPTIONAL | flags::TRANSITIVE
        );
    }

    /// `attrs` announced for one prefix, through the wire codec and back.
    fn through_the_wire(attrs: &RouteAttrs) -> (Vec<u8>, RouteAttrs) {
        use crate::message::{BgpMessage, UpdateMessage};
        let prefix = "10.0.0.0/8".parse().expect("valid");
        let bytes = crate::wire::encode(&BgpMessage::Update(UpdateMessage::announce(
            vec![prefix],
            attrs,
        )));
        let (decoded, _) = crate::wire::decode(&bytes).expect("decodes");
        let back = decoded.as_update().expect("update").route_attrs();
        (bytes.to_vec(), back)
    }

    #[test]
    fn route_attrs_roundtrip_through_attribute_list() {
        let attrs = RouteAttrs {
            origin: Origin::Egp,
            as_path: AsPath::from_sequence([3491, 17557]),
            next_hop: Ipv4Addr::new(192, 0, 2, 1),
            med: Some(50),
            local_pref: Some(200),
            atomic_aggregate: true,
            aggregator: Some(Aggregator {
                asn: Asn(17557),
                router_id: 0x0a000001,
            }),
            communities: vec![Community::new(3491, 100), Community(0xFFFF_FF01)],
        };
        let (bytes, back) = through_the_wire(&attrs);
        assert_eq!(back, attrs);
        // All eight attributes, in ascending type order.
        assert_eq!(attribute_codes(&bytes), [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn defaults_follow_rfc_conventions() {
        let attrs = RouteAttrs::default();
        assert_eq!(attrs.effective_local_pref(), 100);
        assert_eq!(attrs.effective_med(), 0);
        assert!(attrs.origin_as().is_none());
        let originated = RouteAttrs::originated(65001, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(originated.origin_as(), Some(Asn(65001)));
    }

    /// The type codes of an encoded UPDATE's attributes, in wire order
    /// (no withdrawn routes; one-octet lengths).
    fn attribute_codes(frame: &[u8]) -> Vec<u8> {
        let block_len = u16::from_be_bytes([frame[21], frame[22]]) as usize;
        let mut block = &frame[23..23 + block_len];
        let mut codes = Vec::new();
        while let [_, code, len, rest @ ..] = block {
            codes.push(*code);
            block = &rest[*len as usize..];
        }
        codes
    }

    #[test]
    fn minimal_attribute_list_omits_optionals() {
        let attrs = RouteAttrs::originated(65001, Ipv4Addr::new(10, 0, 0, 1));
        let (bytes, back) = through_the_wire(&attrs);
        assert_eq!(back, attrs);
        assert_eq!(
            attribute_codes(&bytes),
            [AttrCode::Origin, AttrCode::AsPath, AttrCode::NextHop].map(|c| c as u8)
        );
    }
}

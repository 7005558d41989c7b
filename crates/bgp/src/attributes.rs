//! BGP path attributes (RFC 4271 §4.3 and §5).

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

/// A single decoded path attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathAttribute {
    /// ORIGIN.
    Origin(Origin),
    /// AS_PATH.
    AsPath(AsPath),
    /// NEXT_HOP.
    NextHop(Ipv4Addr),
    /// MULTI_EXIT_DISC.
    Med(u32),
    /// LOCAL_PREF.
    LocalPref(u32),
    /// ATOMIC_AGGREGATE.
    AtomicAggregate,
    /// AGGREGATOR.
    Aggregator(Aggregator),
    /// COMMUNITIES.
    Communities(Vec<Community>),
}

impl PathAttribute {
    /// The attribute's type code.
    pub(crate) fn code(&self) -> AttrCode {
        match self {
            PathAttribute::Origin(_) => AttrCode::Origin,
            PathAttribute::AsPath(_) => AttrCode::AsPath,
            PathAttribute::NextHop(_) => AttrCode::NextHop,
            PathAttribute::Med(_) => AttrCode::Med,
            PathAttribute::LocalPref(_) => AttrCode::LocalPref,
            PathAttribute::AtomicAggregate => AttrCode::AtomicAggregate,
            PathAttribute::Aggregator(_) => AttrCode::Aggregator,
            PathAttribute::Communities(_) => AttrCode::Communities,
        }
    }
}

/// The complete, typed attribute set attached to a route.
///
/// This is the in-memory representation the router and the DiCE symbolic
/// handler operate on; [`RouteAttrs::to_attributes`] converts it to the
/// wire-level list and [`UpdateMessage::route_attrs`] back.
///
/// [`UpdateMessage::route_attrs`]: crate::message::UpdateMessage::route_attrs
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

    /// Converts to the wire-level attribute list in canonical code order.
    pub fn to_attributes(&self) -> Vec<PathAttribute> {
        let optional = usize::from(self.med.is_some())
            + usize::from(self.local_pref.is_some())
            + usize::from(self.atomic_aggregate)
            + usize::from(self.aggregator.is_some())
            + usize::from(!self.communities.is_empty());
        let mut out = Vec::with_capacity(3 + optional);
        out.extend([
            PathAttribute::Origin(self.origin),
            PathAttribute::AsPath(self.as_path.clone()),
            PathAttribute::NextHop(self.next_hop),
        ]);
        if let Some(med) = self.med {
            out.push(PathAttribute::Med(med));
        }
        if let Some(lp) = self.local_pref {
            out.push(PathAttribute::LocalPref(lp));
        }
        if self.atomic_aggregate {
            out.push(PathAttribute::AtomicAggregate);
        }
        if let Some(agg) = self.aggregator {
            out.push(PathAttribute::Aggregator(agg));
        }
        if !self.communities.is_empty() {
            out.push(PathAttribute::Communities(self.communities.clone()));
        }
        out
    }

    /// Builds typed attributes from a wire-level list. Later duplicates
    /// overwrite earlier ones; unknown attributes are not representable
    /// here and must be filtered by the caller.
    pub(crate) fn from_attributes(attrs: &[PathAttribute]) -> Self {
        let mut out = RouteAttrs::default();
        for a in attrs {
            match a {
                PathAttribute::Origin(o) => out.origin = *o,
                PathAttribute::AsPath(p) => out.as_path = p.clone(),
                PathAttribute::NextHop(n) => out.next_hop = *n,
                PathAttribute::Med(m) => out.med = Some(*m),
                PathAttribute::LocalPref(l) => out.local_pref = Some(*l),
                PathAttribute::AtomicAggregate => out.atomic_aggregate = true,
                PathAttribute::Aggregator(g) => out.aggregator = Some(*g),
                PathAttribute::Communities(c) => out.communities = c.clone(),
            }
        }
        out
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
        let list = attrs.to_attributes();
        assert_eq!(list.len(), 8);
        let back = RouteAttrs::from_attributes(&list);
        assert_eq!(back, attrs);
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

    #[test]
    fn minimal_attribute_list_omits_optionals() {
        let attrs = RouteAttrs::originated(65001, Ipv4Addr::new(10, 0, 0, 1));
        let list = attrs.to_attributes();
        assert_eq!(list.len(), 3);
        assert!(matches!(list[0], PathAttribute::Origin(_)));
        assert!(matches!(list[1], PathAttribute::AsPath(_)));
        assert!(matches!(list[2], PathAttribute::NextHop(_)));
    }
}

//! RFC 4271 wire encoding and decoding of BGP messages.
//!
//! The codec is strict on decode: syntactically invalid messages produce a
//! structured [`BgpError`] naming what is wrong, never a panic. The
//! DiCE symbolic-input layer deliberately generates only *syntactically
//! valid* messages (paper §3.2), so this layer is exercised by the live
//! message path and by tests, not by exploration.
//!
//! An UPDATE's attribute block decodes straight into one [`RouteAttrs`]
//! and encodes from it in ascending type order. Decoding follows RFC 4271
//! §6.3: an attribute that appears twice is a malformed attribute list,
//! and announced NLRI need ORIGIN, AS_PATH and NEXT_HOP. Attributes in any
//! order decode; re-encoding writes them in the canonical order.

use bytes::{Buf, BufMut, Bytes};
use std::net::Ipv4Addr;
use std::sync::Arc;

use crate::asn::{segment_header, AsPath, Asn, SegmentKind};
use crate::attributes::{flags, Aggregator, AttrCode, Community, Origin, RouteAttrs};
use crate::error::{BgpError, NotificationData, UpdateErrorSubcode};
use crate::message::{
    BgpMessage, KeepaliveMessage, MessageType, NotificationMessage, OpenMessage, UpdateMessage,
};
use crate::prefix::Ipv4Prefix;

/// Fixed header length (marker + length + type).
pub const HEADER_LEN: usize = 19;
/// Maximum BGP message length.
pub const MAX_MESSAGE_LEN: usize = 4096;

/// Encodes a message into a fresh byte buffer of exactly its size.
///
/// An AS_SEQUENCE longer than 255 ASNs is written as consecutive
/// AS_SEQUENCE segments of at most 255 (RFC 4271 §5.1.2), which decode to
/// the same path order, length, origin and neighbor AS. The message is
/// not split: an UPDATE longer than [`MAX_MESSAGE_LEN`] encodes, but
/// [`decode`] rejects it with [`BgpError::BadLength`], so keeping each
/// UPDATE within 4,096 bytes is the caller's job. Past 65,535 bytes the
/// header's 16-bit length saturates at `u16::MAX` instead of wrapping to
/// a length that would frame a shorter message.
pub fn encode(msg: &BgpMessage) -> Bytes {
    let mut out = Vec::new();
    encode_into(msg, &mut out);
    Bytes::from(out)
}

/// Encodes a message into `out`, replacing what it held: [`encode`] for a
/// caller that encodes message after message into one buffer.
///
/// Every length field is computed before the bytes it covers are written,
/// so the message is written front to back, growing `out` at most once.
pub fn encode_into(msg: &BgpMessage, out: &mut Vec<u8>) {
    let body_len = match msg {
        BgpMessage::Open(_) => OPEN_BODY_LEN,
        BgpMessage::Update(u) => update_body_len(u),
        BgpMessage::Notification(n) => 2 + n.error.data.len(),
        BgpMessage::Keepalive(_) => 0,
    };
    out.clear();
    out.reserve(HEADER_LEN + body_len);
    out.put_bytes(0xff, 16);
    out.put_u16(u16::try_from(HEADER_LEN + body_len).unwrap_or(u16::MAX));
    out.put_u8(msg.message_type() as u8);
    match msg {
        BgpMessage::Open(o) => encode_open(o, out),
        BgpMessage::Update(u) => encode_update(u, out),
        BgpMessage::Notification(n) => encode_notification(n, out),
        BgpMessage::Keepalive(_) => {}
    }
    debug_assert_eq!(out.len(), HEADER_LEN + body_len);
}

/// Decodes one message from the front of `buf`.
///
/// Returns the message and the number of bytes consumed.
pub fn decode(buf: &[u8]) -> Result<(BgpMessage, usize), BgpError> {
    if buf.len() < HEADER_LEN {
        return Err(BgpError::Truncated {
            expected: HEADER_LEN,
            available: buf.len(),
        });
    }
    if buf[..16].iter().any(|&b| b != 0xff) {
        return Err(BgpError::BadMarker);
    }
    let len = u16::from_be_bytes([buf[16], buf[17]]) as usize;
    if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&len) {
        return Err(BgpError::BadLength(len as u16));
    }
    if buf.len() < len {
        return Err(BgpError::Truncated {
            expected: len,
            available: buf.len(),
        });
    }
    let msg_type = MessageType::from_code(buf[18]).ok_or(BgpError::UnknownMessageType(buf[18]))?;
    let mut body = &buf[HEADER_LEN..len];
    let msg = match msg_type {
        MessageType::Open => BgpMessage::Open(decode_open(&mut body)?),
        MessageType::Update => BgpMessage::Update(decode_update(&mut body)?),
        MessageType::Notification => BgpMessage::Notification(decode_notification(&mut body)?),
        MessageType::Keepalive => BgpMessage::Keepalive(KeepaliveMessage),
    };
    if !body.is_empty() {
        // The header's length field promises more body than the message
        // type accounts for (a KEEPALIVE with a body, an OPEN with bytes
        // after its optional parameters).
        return Err(BgpError::BadLength(len as u16));
    }
    Ok((msg, len))
}

fn need(buf: &[u8], n: usize) -> Result<(), BgpError> {
    if buf.len() < n {
        Err(BgpError::Truncated {
            expected: n,
            available: buf.len(),
        })
    } else {
        Ok(())
    }
}

/// Version, AS, hold time, identifier and the optional-parameters length.
const OPEN_BODY_LEN: usize = 10;

fn encode_open(o: &OpenMessage, out: &mut Vec<u8>) {
    out.put_u8(o.version);
    // Classic 2-octet AS field; 4-byte ASNs are truncated here and carried
    // in full inside AS_PATH (see DESIGN.md deviation note).
    out.put_u16(o.my_as.min(u16::MAX as u32) as u16);
    out.put_u16(o.hold_time);
    out.put_u32(o.bgp_identifier);
    out.put_u8(0); // No optional parameters.
}

fn decode_open(buf: &mut &[u8]) -> Result<OpenMessage, BgpError> {
    need(buf, 10)?;
    let version = buf.get_u8();
    let my_as = buf.get_u16() as u32;
    let hold_time = buf.get_u16();
    let bgp_identifier = buf.get_u32();
    let opt_len = buf.get_u8() as usize;
    if buf.len() < opt_len {
        // The declared optional-parameters length disagrees with the
        // header's message length.
        return Err(BgpError::BadLength(opt_len as u16));
    }
    buf.advance(opt_len);
    Ok(OpenMessage {
        version,
        my_as,
        hold_time,
        bgp_identifier,
    })
}

fn prefixes_len(prefixes: &[Ipv4Prefix]) -> usize {
    prefixes.iter().map(|p| 1 + p.wire_len()).sum()
}

fn encode_prefixes(prefixes: &[Ipv4Prefix], out: &mut Vec<u8>) {
    for p in prefixes {
        out.put_u8(p.len());
        let bytes = p.addr().to_be_bytes();
        out.put_slice(&bytes[..p.wire_len()]);
    }
}

/// How many prefixes an NLRI or withdrawn-routes field holds, read from
/// their length octets alone: what the decoded vector needs room for. A
/// malformed field counts up to where it breaks; decoding reports the
/// error.
fn prefix_count(mut buf: &[u8]) -> usize {
    let mut count = 0;
    while let Some((&len, rest)) = buf.split_first() {
        count += 1;
        buf = rest.get(usize::from(len).div_ceil(8)..).unwrap_or_default();
    }
    count
}

fn decode_prefixes(mut buf: &[u8]) -> Result<Vec<Ipv4Prefix>, BgpError> {
    let mut out = Vec::with_capacity(prefix_count(buf));
    while !buf.is_empty() {
        let len = buf.get_u8();
        if len > 32 {
            return Err(BgpError::BadPrefixLength(len));
        }
        let nbytes = (len as usize).div_ceil(8);
        need(buf, nbytes)?;
        let mut octets = [0u8; 4];
        octets[..nbytes].copy_from_slice(&buf[..nbytes]);
        buf.advance(nbytes);
        let prefix = Ipv4Prefix::new(u32::from_be_bytes(octets), len)
            .map_err(|_| BgpError::BadPrefixLength(len))?;
        out.push(prefix);
    }
    Ok(out)
}

/// The most ASNs one AS_PATH segment can carry: its count is one octet.
const MAX_SEGMENT_ASNS: usize = u8::MAX as usize;

/// The ASN runs an AS_PATH segment is written as, each behind its own
/// segment header: a sequence longer than [`MAX_SEGMENT_ASNS`] becomes
/// consecutive sequences of at most that many; anything else — an empty
/// segment included — is one run. (Nothing builds an AS_SET that long.)
fn wire_runs(kind: SegmentKind, asns: &[Asn]) -> impl Iterator<Item = &[Asn]> {
    let run = match kind {
        SegmentKind::Sequence => MAX_SEGMENT_ASNS,
        SegmentKind::Set => asns.len().max(1),
    };
    asns.chunks(run).chain(asns.is_empty().then_some(asns))
}

/// Length of the AS_PATH attribute's value on the wire.
fn as_path_len(path: &AsPath) -> usize {
    path.segments()
        .flat_map(|(kind, asns)| wire_runs(kind, asns))
        .map(|asns| 2 + 4 * asns.len())
        .sum()
}

/// Length of one attribute on the wire whose value is `value` bytes:
/// flags, code, length field, value.
fn attribute_len(value: usize) -> usize {
    let length_field = if value > 255 { 2 } else { 1 };
    2 + length_field + value
}

/// Length of the attribute block [`encode_attributes`] writes.
fn attributes_len(a: &RouteAttrs) -> usize {
    let optional = |present: bool, value: usize| if present { attribute_len(value) } else { 0 };
    attribute_len(1)
        + attribute_len(as_path_len(&a.as_path))
        + attribute_len(4)
        + optional(a.med.is_some(), 4)
        + optional(a.local_pref.is_some(), 4)
        + optional(a.atomic_aggregate, 0)
        + optional(a.aggregator.is_some(), 8)
        + optional(!a.communities.is_empty(), 4 * a.communities.len())
}

/// Writes an attribute's flags, code and length field.
fn put_attribute_header(code: AttrCode, value_len: usize, out: &mut Vec<u8>) {
    if value_len > 255 {
        out.put_slice(&[code.default_flags() | flags::EXTENDED_LENGTH, code as u8]);
        out.put_u16(value_len as u16);
    } else {
        out.put_slice(&[code.default_flags(), code as u8, value_len as u8]);
    }
}

/// Writes the attribute block: the three mandatory attributes, then each
/// optional one that is set, in ascending type order.
fn encode_attributes(a: &RouteAttrs, out: &mut Vec<u8>) {
    put_attribute_header(AttrCode::Origin, 1, out);
    out.put_u8(a.origin.code());
    put_attribute_header(AttrCode::AsPath, as_path_len(&a.as_path), out);
    for (kind, asns) in a.as_path.segments() {
        for run in wire_runs(kind, asns) {
            out.put_u8(kind as u8);
            out.put_u8(run.len() as u8);
            for asn in run {
                out.put_u32(asn.value());
            }
        }
    }
    put_attribute_header(AttrCode::NextHop, 4, out);
    out.put_u32(u32::from(a.next_hop));
    if let Some(med) = a.med {
        put_attribute_header(AttrCode::Med, 4, out);
        out.put_u32(med);
    }
    if let Some(local_pref) = a.local_pref {
        put_attribute_header(AttrCode::LocalPref, 4, out);
        out.put_u32(local_pref);
    }
    if a.atomic_aggregate {
        put_attribute_header(AttrCode::AtomicAggregate, 0, out);
    }
    if let Some(aggregator) = a.aggregator {
        put_attribute_header(AttrCode::Aggregator, 8, out);
        out.put_u32(aggregator.asn.value());
        out.put_u32(aggregator.router_id);
    }
    if !a.communities.is_empty() {
        put_attribute_header(AttrCode::Communities, 4 * a.communities.len(), out);
        for c in &a.communities {
            out.put_u32(c.0);
        }
    }
}

/// Reads one attribute's header and checks its flags: the attribute's raw
/// type code and value, or `None` for the code of an attribute this codec
/// does not know (skipped, not stored).
fn decode_attribute_header<'a>(
    buf: &mut &'a [u8],
) -> Result<(u8, Option<AttrCode>, &'a [u8]), BgpError> {
    if buf.len() < 3 {
        return Err(BgpError::Update(UpdateErrorSubcode::MalformedAttributeList));
    }
    let attr_flags = buf.get_u8();
    let code_raw = buf.get_u8();
    if attr_flags & 0x0f != 0 {
        // The low four flag bits are unused and must be zero (RFC 4271
        // §4.3) — this also rejects garbage flags on unknown codes.
        return Err(BgpError::Update(UpdateErrorSubcode::AttributeFlagsError));
    }
    let len = if attr_flags & flags::EXTENDED_LENGTH != 0 {
        if buf.len() < 2 {
            return Err(BgpError::Update(UpdateErrorSubcode::MalformedAttributeList));
        }
        buf.get_u16() as usize
    } else {
        if buf.is_empty() {
            return Err(BgpError::Update(UpdateErrorSubcode::MalformedAttributeList));
        }
        buf.get_u8() as usize
    };
    if buf.len() < len {
        return Err(BgpError::BadAttribute {
            code: code_raw,
            reason: "declared length overruns attribute block",
        });
    }
    let value = &buf[..len];
    buf.advance(len);
    let Some(code) = AttrCode::from_code(code_raw) else {
        return Ok((code_raw, None, value));
    };
    let expected = code.default_flags();
    if (attr_flags ^ expected) & flags::OPTIONAL != 0 {
        // A well-known attribute marked optional, or vice versa.
        return Err(BgpError::Update(UpdateErrorSubcode::AttributeFlagsError));
    }
    if expected & flags::OPTIONAL == 0 && attr_flags & flags::TRANSITIVE == 0 {
        // Well-known attributes are always transitive.
        return Err(BgpError::Update(UpdateErrorSubcode::AttributeFlagsError));
    }
    Ok((code_raw, Some(code), value))
}

/// The value of a fixed-length attribute, or its length error.
fn fixed_value<const N: usize>(
    code: AttrCode,
    value: &[u8],
    reason: &'static str,
) -> Result<[u8; N], BgpError> {
    value.try_into().map_err(|_| BgpError::BadAttribute {
        code: code as u8,
        reason,
    })
}

/// Decodes an AS_PATH value into its one shared slice: a first walk checks
/// the segments and counts the words, a second writes exactly that many.
fn decode_as_path(value: &[u8]) -> Result<AsPath, BgpError> {
    let bad = |reason| BgpError::BadAttribute {
        code: AttrCode::AsPath as u8,
        reason,
    };
    let mut words = 0;
    let mut rest = value;
    while !rest.is_empty() {
        let [seg_type, count, body @ ..] = rest else {
            return Err(bad("segment header"));
        };
        let body_len = 4 * usize::from(*count);
        if body.len() < body_len {
            return Err(bad("segment body"));
        }
        if ![SegmentKind::Set as u8, SegmentKind::Sequence as u8].contains(seg_type) {
            return Err(bad("segment type"));
        }
        words += 1 + usize::from(*count);
        rest = &body[body_len..];
    }
    let mut rest = value;
    let mut left_in_segment = 0;
    let words: Arc<[Asn]> = (0..words)
        .map(|_| {
            if left_in_segment == 0 {
                // The first walk admitted only the two type codes.
                let kind = if rest.get_u8() == SegmentKind::Set as u8 {
                    SegmentKind::Set
                } else {
                    SegmentKind::Sequence
                };
                left_in_segment = usize::from(rest.get_u8());
                segment_header(kind, left_in_segment)
            } else {
                left_in_segment -= 1;
                Asn(rest.get_u32())
            }
        })
        .collect();
    Ok(AsPath::from_words(words))
}

/// Decodes a non-empty attribute block into the attribute set it carries.
fn decode_attributes(mut block: &[u8]) -> Result<RouteAttrs, BgpError> {
    let mut attrs = RouteAttrs::default();
    // One bit per type code seen so far, unknown codes included.
    let mut seen = [0u64; 4];
    while !block.is_empty() {
        let (code_raw, code, value) = decode_attribute_header(&mut block)?;
        let (word, bit) = (usize::from(code_raw / 64), 1u64 << (code_raw % 64));
        if seen[word] & bit != 0 {
            return Err(BgpError::Update(UpdateErrorSubcode::MalformedAttributeList));
        }
        seen[word] |= bit;
        let Some(code) = code else {
            continue;
        };
        match code {
            AttrCode::Origin => {
                let [origin] = fixed_value(code, value, "origin length")?;
                attrs.origin = Origin::from_code(origin).ok_or(BgpError::BadAttribute {
                    code: code as u8,
                    reason: "origin value",
                })?;
            }
            AttrCode::AsPath => attrs.as_path = decode_as_path(value)?,
            AttrCode::NextHop => {
                let octets = fixed_value(code, value, "next hop length")?;
                attrs.next_hop = Ipv4Addr::from(octets);
            }
            AttrCode::Med => {
                let octets = fixed_value(code, value, "med length")?;
                attrs.med = Some(u32::from_be_bytes(octets));
            }
            AttrCode::LocalPref => {
                let octets = fixed_value(code, value, "local pref length")?;
                attrs.local_pref = Some(u32::from_be_bytes(octets));
            }
            AttrCode::AtomicAggregate => {
                let [] = fixed_value(code, value, "atomic aggregate length")?;
                attrs.atomic_aggregate = true;
            }
            AttrCode::Aggregator => {
                let octets: [u8; 8] = fixed_value(code, value, "aggregator length")?;
                let mut octets = &octets[..];
                attrs.aggregator = Some(Aggregator {
                    asn: Asn(octets.get_u32()),
                    router_id: octets.get_u32(),
                });
            }
            AttrCode::Communities => {
                if !value.len().is_multiple_of(4) {
                    return Err(BgpError::BadAttribute {
                        code: code as u8,
                        reason: "communities length",
                    });
                }
                attrs.communities = value
                    .chunks_exact(4)
                    .map(|c| Community(u32::from_be_bytes([c[0], c[1], c[2], c[3]])))
                    .collect();
            }
        }
    }
    let mandatory = [AttrCode::Origin, AttrCode::AsPath, AttrCode::NextHop];
    if mandatory
        .iter()
        .any(|&code| seen[0] & (1 << (code as u8)) == 0)
    {
        return Err(BgpError::Update(
            UpdateErrorSubcode::MissingWellKnownAttribute,
        ));
    }
    Ok(attrs)
}

fn update_body_len(u: &UpdateMessage) -> usize {
    let attrs = u.attrs.as_deref().map_or(0, attributes_len);
    2 + prefixes_len(&u.withdrawn) + 2 + attrs + prefixes_len(&u.nlri)
}

fn encode_update(u: &UpdateMessage, out: &mut Vec<u8>) {
    out.put_u16(prefixes_len(&u.withdrawn) as u16);
    encode_prefixes(&u.withdrawn, out);

    match u.attrs.as_deref() {
        Some(attrs) => {
            out.put_u16(attributes_len(attrs) as u16);
            encode_attributes(attrs, out);
        }
        None => out.put_u16(0),
    }

    encode_prefixes(&u.nlri, out);
}

fn decode_update(buf: &mut &[u8]) -> Result<UpdateMessage, BgpError> {
    // The header's length field already promised a complete message, so an
    // inner length field pointing past the body is a malformed message
    // (RFC 4271 §6.3), never a truncation to wait out.
    let malformed = || BgpError::Update(UpdateErrorSubcode::MalformedAttributeList);
    let reframe = |e: BgpError| match e {
        BgpError::Truncated { .. } => malformed(),
        other => other,
    };
    if buf.len() < 2 {
        return Err(malformed());
    }
    let withdrawn_len = buf.get_u16() as usize;
    if buf.len() < withdrawn_len {
        return Err(malformed());
    }
    let withdrawn = decode_prefixes(&buf[..withdrawn_len]).map_err(reframe)?;
    buf.advance(withdrawn_len);

    if buf.len() < 2 {
        return Err(malformed());
    }
    let attrs_len = buf.get_u16() as usize;
    if buf.len() < attrs_len {
        return Err(malformed());
    }
    let attr_buf = &buf[..attrs_len];
    buf.advance(attrs_len);
    let attrs = match attr_buf {
        [] => None,
        block => Some(Arc::new(decode_attributes(block)?)),
    };

    let nlri = decode_prefixes(buf).map_err(reframe)?;
    *buf = &[];
    if attrs.is_none() && !nlri.is_empty() {
        // Announced routes without ORIGIN, AS_PATH and NEXT_HOP.
        return Err(BgpError::Update(
            UpdateErrorSubcode::MissingWellKnownAttribute,
        ));
    }
    Ok(UpdateMessage {
        withdrawn,
        attrs,
        nlri,
    })
}

fn encode_notification(n: &NotificationMessage, out: &mut Vec<u8>) {
    out.put_u8(n.error.code as u8);
    out.put_u8(n.error.subcode);
    out.put_slice(&n.error.data);
}

fn decode_notification(buf: &mut &[u8]) -> Result<NotificationMessage, BgpError> {
    need(buf, 2)?;
    let code_raw = buf.get_u8();
    let subcode = buf.get_u8();
    let code = crate::error::ErrorCode::from_code(code_raw).ok_or(BgpError::BadAttribute {
        code: code_raw,
        reason: "notification code",
    })?;
    let data = buf.to_vec();
    *buf = &[];
    Ok(NotificationMessage {
        error: NotificationData {
            code,
            subcode,
            data,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::RouteAttrs;
    use crate::error::ErrorCode;
    use bytes::BytesMut;

    fn sample_update() -> UpdateMessage {
        let mut attrs = RouteAttrs::originated(17557, Ipv4Addr::new(192, 0, 2, 1));
        attrs.med = Some(50);
        attrs.local_pref = Some(200);
        attrs.communities = vec![Community::new(3491, 100)];
        UpdateMessage {
            withdrawn: vec!["203.0.113.0/24".parse().expect("valid")],
            attrs: Some(Arc::new(attrs)),
            nlri: vec![
                "208.65.152.0/22".parse().expect("valid"),
                "208.65.153.0/24".parse().expect("valid"),
            ],
        }
    }

    #[test]
    fn keepalive_roundtrip() {
        let msg = BgpMessage::Keepalive(KeepaliveMessage);
        let bytes = encode(&msg);
        assert_eq!(bytes.len(), HEADER_LEN);
        let (decoded, used) = decode(&bytes).expect("decodes");
        assert_eq!(decoded, msg);
        assert_eq!(used, HEADER_LEN);
    }

    #[test]
    fn open_roundtrip() {
        let msg = BgpMessage::Open(OpenMessage::new(64500, 180, 0xc0a80001));
        let bytes = encode(&msg);
        let (decoded, _) = decode(&bytes).expect("decodes");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn update_roundtrip() {
        let msg = BgpMessage::Update(sample_update());
        let bytes = encode(&msg);
        let (decoded, used) = decode(&bytes).expect("decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, msg);
    }

    #[test]
    fn notification_roundtrip() {
        let msg = BgpMessage::Notification(NotificationMessage {
            error: NotificationData {
                code: ErrorCode::Cease,
                subcode: 2,
                data: vec![1, 2, 3],
            },
        });
        let bytes = encode(&msg);
        let (decoded, _) = decode(&bytes).expect("decodes");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn bad_marker_is_rejected() {
        let msg = BgpMessage::Keepalive(KeepaliveMessage);
        let mut bytes = encode(&msg).to_vec();
        bytes[3] = 0;
        assert_eq!(decode(&bytes), Err(BgpError::BadMarker));
    }

    #[test]
    fn truncated_messages_are_rejected() {
        let msg = BgpMessage::Update(sample_update());
        let bytes = encode(&msg);
        assert!(matches!(
            decode(&bytes[..10]),
            Err(BgpError::Truncated { .. })
        ));
        assert!(matches!(
            decode(&bytes[..bytes.len() - 1]),
            Err(BgpError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_length_and_type_are_rejected() {
        let msg = BgpMessage::Keepalive(KeepaliveMessage);
        let mut bytes = encode(&msg).to_vec();
        bytes[16] = 0;
        bytes[17] = 10; // Length below header size.
        assert_eq!(decode(&bytes), Err(BgpError::BadLength(10)));
        let mut bytes = encode(&msg).to_vec();
        bytes[18] = 42;
        assert_eq!(decode(&bytes), Err(BgpError::UnknownMessageType(42)));
    }

    #[test]
    fn bad_prefix_length_is_rejected() {
        // A hand-built UPDATE whose NLRI declares a /40.
        let mut body = BytesMut::new();
        body.put_u16(0); // No withdrawn routes.
        body.put_u16(0); // No attributes.
        body.put_u8(40); // Invalid prefix length.
        let mut raw = BytesMut::new();
        raw.put_bytes(0xff, 16);
        raw.put_u16((HEADER_LEN + body.len()) as u16);
        raw.put_u8(MessageType::Update as u8);
        raw.extend_from_slice(&body);
        assert_eq!(decode(&raw), Err(BgpError::BadPrefixLength(40)));
    }

    /// The attribute block of `attrs` as the encoder writes it.
    fn attribute_block(attrs: &RouteAttrs) -> Vec<u8> {
        let mut block = Vec::new();
        encode_attributes(attrs, &mut block);
        block
    }

    /// One encoded attribute: flags, code, one-octet length, value.
    fn raw_attr(attr_flags: u8, code: u8, value: &[u8]) -> Vec<u8> {
        let mut attr = vec![attr_flags, code, value.len() as u8];
        attr.extend_from_slice(value);
        attr
    }

    /// An UPDATE frame with no withdrawn routes, the given attribute
    /// block and NLRI 10.0.0.0/8.
    fn update_with_block(block: &[u8]) -> Vec<u8> {
        let mut body = BytesMut::new();
        body.put_u16(0);
        body.put_u16(block.len() as u16);
        body.extend_from_slice(block);
        body.put_u8(8);
        body.put_u8(10); // 10.0.0.0/8
        frame(MessageType::Update, &body)
    }

    #[test]
    fn unknown_attribute_is_skipped() {
        // The three mandatory attributes plus type 99 (optional
        // transitive), which is ignored.
        let attrs = RouteAttrs::originated(65001, Ipv4Addr::new(10, 0, 0, 1));
        let mut block = attribute_block(&attrs);
        block.extend(raw_attr(
            flags::OPTIONAL | flags::TRANSITIVE,
            99,
            &[0xbe, 0xef],
        ));
        let (decoded, _) = decode(&update_with_block(&block)).expect("decodes");
        let update = decoded.as_update().expect("update");
        assert_eq!(update.attrs.as_deref(), Some(&attrs));
        assert_eq!(update.nlri, vec!["10.0.0.0/8".parse().expect("valid")]);
    }

    #[test]
    fn a_repeated_attribute_is_a_malformed_attribute_list() {
        let attrs = RouteAttrs::originated(65001, Ipv4Addr::new(10, 0, 0, 1));
        let med = |value: u32| raw_attr(flags::OPTIONAL, AttrCode::Med as u8, &value.to_be_bytes());
        let mut block = attribute_block(&attrs);
        block.extend(med(10));
        block.extend(med(20));
        assert_eq!(
            decode(&update_with_block(&block)),
            Err(BgpError::Update(UpdateErrorSubcode::MalformedAttributeList))
        );
        // An unknown attribute may not repeat either.
        let unknown = raw_attr(flags::OPTIONAL | flags::TRANSITIVE, 99, &[1]);
        let mut block = attribute_block(&attrs);
        block.extend(unknown.clone());
        block.extend(unknown);
        assert_eq!(
            decode(&update_with_block(&block)),
            Err(BgpError::Update(UpdateErrorSubcode::MalformedAttributeList))
        );
    }

    #[test]
    fn announced_nlri_need_the_well_known_attributes() {
        let missing = Err(BgpError::Update(
            UpdateErrorSubcode::MissingWellKnownAttribute,
        ));
        // ORIGIN and AS_PATH, no NEXT_HOP.
        let mut block = raw_attr(flags::TRANSITIVE, AttrCode::Origin as u8, &[0]);
        block.extend(raw_attr(
            flags::TRANSITIVE,
            AttrCode::AsPath as u8,
            &[2, 1, 0, 0, 0xfd, 0xe9],
        ));
        assert_eq!(decode(&update_with_block(&block)), missing);
        // NLRI with no attribute block at all.
        assert_eq!(decode(&update_with_block(&[])), missing);
        // A non-empty block needs them too, NLRI or not.
        let mut body = BytesMut::new();
        body.put_u16(0);
        body.put_u16(block.len() as u16);
        body.extend_from_slice(&block);
        assert_eq!(decode(&frame(MessageType::Update, &body)), missing);
        // A withdrawal needs no attribute block.
        let withdrawal = BgpMessage::Update(UpdateMessage::withdraw(vec!["10.0.0.0/8"
            .parse()
            .expect("valid")]));
        assert_eq!(decode(&encode(&withdrawal)).map(|(m, _)| m), Ok(withdrawal));
    }

    #[test]
    fn attributes_in_any_order_decode_and_reencode_in_type_order() {
        let mut attrs = RouteAttrs::originated(65001, Ipv4Addr::new(10, 0, 0, 1));
        attrs.med = Some(7);
        attrs.communities = vec![Community::new(65001, 1)];
        let canonical = update_with_block(&attribute_block(&attrs));
        // COMMUNITIES, MED and NEXT_HOP first, then AS_PATH and ORIGIN.
        let mut block = raw_attr(
            flags::OPTIONAL | flags::TRANSITIVE,
            AttrCode::Communities as u8,
            &Community::new(65001, 1).0.to_be_bytes(),
        );
        block.extend(raw_attr(
            flags::OPTIONAL,
            AttrCode::Med as u8,
            &7u32.to_be_bytes(),
        ));
        block.extend(raw_attr(
            flags::TRANSITIVE,
            AttrCode::NextHop as u8,
            &[10, 0, 0, 1],
        ));
        block.extend(raw_attr(
            flags::TRANSITIVE,
            AttrCode::AsPath as u8,
            &[2, 1, 0, 0, 0xfd, 0xe9],
        ));
        block.extend(raw_attr(flags::TRANSITIVE, AttrCode::Origin as u8, &[0]));
        let shuffled = update_with_block(&block);
        assert_ne!(shuffled, canonical);
        let (decoded, _) = decode(&shuffled).expect("decodes");
        assert_eq!(
            decoded.as_update().and_then(|u| u.attrs.as_deref()),
            Some(&attrs)
        );
        assert_eq!(encode(&decoded)[..], canonical[..]);
    }

    #[test]
    fn nlri_vectors_are_allocated_exactly() {
        let attrs = RouteAttrs::originated(65001, Ipv4Addr::new(10, 0, 0, 1));
        for count in [1u32, 3, 7] {
            let nlri: Vec<Ipv4Prefix> = (0..count)
                .map(|i| Ipv4Prefix::new(i << 24, 8 + i as u8).expect("valid"))
                .collect();
            let bytes = encode(&BgpMessage::Update(UpdateMessage::announce(nlri, &attrs)));
            let (decoded, _) = decode(&bytes).expect("decodes");
            let update = decoded.as_update().expect("update");
            assert_eq!(update.nlri.capacity(), count as usize);
            assert_eq!(update.withdrawn.capacity(), 0);
        }
    }

    fn frame(msg_type: MessageType, body: &[u8]) -> Vec<u8> {
        let mut raw = BytesMut::new();
        raw.put_bytes(0xff, 16);
        raw.put_u16((HEADER_LEN + body.len()) as u16);
        raw.put_u8(msg_type as u8);
        raw.extend_from_slice(body);
        raw.freeze().to_vec()
    }

    fn update_with_raw_attr(attr_flags: u8, code: u8, value: &[u8]) -> Vec<u8> {
        let mut body = BytesMut::new();
        body.put_u16(0); // No withdrawn routes.
        body.put_u16((3 + value.len()) as u16);
        body.put_u8(attr_flags);
        body.put_u8(code);
        body.put_u8(value.len() as u8);
        body.extend_from_slice(value);
        frame(MessageType::Update, &body)
    }

    #[test]
    fn keepalive_with_body_is_rejected() {
        let raw = frame(MessageType::Keepalive, &[0, 0]);
        assert_eq!(decode(&raw), Err(BgpError::BadLength(21)));
    }

    #[test]
    fn open_trailing_bytes_are_rejected() {
        let mut body = BytesMut::new();
        body.put_u8(4); // Version.
        body.put_u16(64500);
        body.put_u16(180);
        body.put_u32(0xc0a80001);
        body.put_u8(0); // No optional parameters...
        body.put_u8(0xaa); // ...yet one more byte in the body.
        let raw = frame(MessageType::Open, &body);
        assert!(matches!(decode(&raw), Err(BgpError::BadLength(_))));
    }

    #[test]
    fn open_optional_params_overrun_is_rejected() {
        let mut body = BytesMut::new();
        body.put_u8(4);
        body.put_u16(64500);
        body.put_u16(180);
        body.put_u32(0xc0a80001);
        body.put_u8(9); // Declares 9 bytes of optional params; none follow.
        let raw = frame(MessageType::Open, &body);
        assert_eq!(decode(&raw), Err(BgpError::BadLength(9)));
    }

    #[test]
    fn update_withdrawn_overrun_is_malformed() {
        // Withdrawn-routes length claims 50 bytes the body does not hold.
        let mut body = BytesMut::new();
        body.put_u16(50);
        let raw = frame(MessageType::Update, &body);
        assert_eq!(
            decode(&raw),
            Err(BgpError::Update(UpdateErrorSubcode::MalformedAttributeList))
        );
    }

    #[test]
    fn update_attrs_overrun_is_malformed() {
        // Path-attributes length claims 50 bytes the body does not hold.
        let mut body = BytesMut::new();
        body.put_u16(0);
        body.put_u16(50);
        let raw = frame(MessageType::Update, &body);
        assert_eq!(
            decode(&raw),
            Err(BgpError::Update(UpdateErrorSubcode::MalformedAttributeList))
        );
    }

    #[test]
    fn attribute_length_overrunning_its_block_is_rejected() {
        // ORIGIN declares a 10-byte value but the attribute block ends
        // after 1.
        let mut body = BytesMut::new();
        body.put_u16(0);
        body.put_u16(4); // flags + code + len + one value byte.
        body.put_u8(flags::TRANSITIVE);
        body.put_u8(AttrCode::Origin as u8);
        body.put_u8(10);
        body.put_u8(0);
        let raw = frame(MessageType::Update, &body);
        assert_eq!(
            decode(&raw),
            Err(BgpError::BadAttribute {
                code: AttrCode::Origin as u8,
                reason: "declared length overruns attribute block",
            })
        );
    }

    #[test]
    fn truncated_attribute_header_is_malformed() {
        // The attribute block ends mid-header (flags byte only).
        let mut body = BytesMut::new();
        body.put_u16(0);
        body.put_u16(1);
        body.put_u8(flags::TRANSITIVE);
        let raw = frame(MessageType::Update, &body);
        assert_eq!(
            decode(&raw),
            Err(BgpError::Update(UpdateErrorSubcode::MalformedAttributeList))
        );
    }

    #[test]
    fn unused_attribute_flag_bits_are_rejected() {
        let raw = update_with_raw_attr(flags::TRANSITIVE | 0x01, AttrCode::Origin as u8, &[0]);
        assert_eq!(
            decode(&raw),
            Err(BgpError::Update(UpdateErrorSubcode::AttributeFlagsError))
        );
        // The unused-bits rule applies to unknown codes too.
        let raw = update_with_raw_attr(flags::OPTIONAL | flags::TRANSITIVE | 0x08, 99, &[0]);
        assert_eq!(
            decode(&raw),
            Err(BgpError::Update(UpdateErrorSubcode::AttributeFlagsError))
        );
    }

    #[test]
    fn wrong_optional_bit_is_rejected() {
        // ORIGIN is well-known; marking it optional is a flags error.
        let raw = update_with_raw_attr(
            flags::OPTIONAL | flags::TRANSITIVE,
            AttrCode::Origin as u8,
            &[0],
        );
        assert_eq!(
            decode(&raw),
            Err(BgpError::Update(UpdateErrorSubcode::AttributeFlagsError))
        );
        // MED is optional; presenting it as well-known is a flags error.
        let raw = update_with_raw_attr(flags::TRANSITIVE, AttrCode::Med as u8, &[0, 0, 0, 0]);
        assert_eq!(
            decode(&raw),
            Err(BgpError::Update(UpdateErrorSubcode::AttributeFlagsError))
        );
    }

    #[test]
    fn well_known_attribute_missing_transitive_is_rejected() {
        let raw = update_with_raw_attr(0, AttrCode::Origin as u8, &[0]);
        assert_eq!(
            decode(&raw),
            Err(BgpError::Update(UpdateErrorSubcode::AttributeFlagsError))
        );
    }

    #[test]
    fn prefix_encoding_is_minimal() {
        let attrs = RouteAttrs::originated(65001, Ipv4Addr::new(10, 0, 0, 1));
        let p8: Ipv4Prefix = "10.0.0.0/8".parse().expect("valid");
        let p22: Ipv4Prefix = "208.65.152.0/22".parse().expect("valid");
        let one = encode(&BgpMessage::Update(UpdateMessage::announce(
            vec![p8],
            &attrs,
        )));
        let two = encode(&BgpMessage::Update(UpdateMessage::announce(
            vec![p22],
            &attrs,
        )));
        // /8 NLRI takes 2 bytes, /22 takes 4 bytes.
        assert_eq!(two.len() - one.len(), 2);
    }

    #[test]
    fn encode_into_reuses_its_buffer() {
        let update = BgpMessage::Update(sample_update());
        let keepalive = BgpMessage::Keepalive(KeepaliveMessage);
        let mut out = Vec::new();
        encode_into(&update, &mut out);
        assert_eq!(out[..], encode(&update)[..]);
        encode_into(&keepalive, &mut out);
        assert_eq!(out[..], encode(&keepalive)[..]);
    }

    #[test]
    fn extended_length_attribute_roundtrip() {
        // 70 ASNs make a 282-byte AS_PATH value: past one length octet.
        let mut attrs = RouteAttrs::originated(65001, Ipv4Addr::new(10, 0, 0, 1));
        attrs.as_path = AsPath::from_sequence(64_000..64_070);
        attrs.communities = (0..70).map(|v| Community::new(3491, v)).collect();
        let update = UpdateMessage {
            withdrawn: vec!["203.0.113.0/24".parse().expect("valid")],
            attrs: Some(Arc::new(attrs)),
            nlri: vec!["0.0.0.0/0".parse().expect("valid")],
        };
        let msg = BgpMessage::Update(update);
        let bytes = encode(&msg);
        let (decoded, used) = decode(&bytes).expect("decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, msg);
        let as_path_flags = bytes[HEADER_LEN + 2 + 4 + 2 + 4];
        assert_ne!(as_path_flags & flags::EXTENDED_LENGTH, 0);
    }

    #[test]
    fn empty_update_roundtrip() {
        let msg = BgpMessage::Update(UpdateMessage::default());
        let (decoded, _) = decode(&encode(&msg)).expect("decodes");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn oversized_updates_are_rejected_as_bad_length() {
        let attrs = RouteAttrs::originated(65001, Ipv4Addr::new(10, 0, 0, 1));
        // 1,200 prefixes pass 4,096 bytes; 16,380 and more pass 65,535,
        // where a wrapped length would frame a short, different message.
        for count in [1_200u32, 16_380, 16_400, 20_000] {
            let nlri = (0..count)
                .map(|i| Ipv4Prefix::new(i << 8, 24).expect("valid"))
                .collect();
            let bytes = encode(&BgpMessage::Update(UpdateMessage::announce(nlri, &attrs)));
            let header_len = u16::try_from(bytes.len()).unwrap_or(u16::MAX);
            assert_eq!(
                decode(&bytes),
                Err(BgpError::BadLength(header_len)),
                "{count} prefixes, {} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn long_as_sequences_are_split_into_segments_decode_accepts() {
        let origin = Ipv4Addr::new(10, 0, 0, 1);
        let mut long = RouteAttrs::originated(65001, origin);
        long.as_path = AsPath::from_sequence(1..=300);
        // An export filter's `prepend` grows the leading sequence past 255.
        let mut prepended = RouteAttrs::originated(65001, origin);
        prepended.as_path = AsPath::from_sequence([64_512, 65001]).prepend(Asn(3491), 400);
        for attrs in [long, prepended] {
            let msg = BgpMessage::Update(UpdateMessage::announce(
                vec!["10.0.0.0/8".parse().expect("valid")],
                &attrs,
            ));
            let bytes = encode(&msg);
            let (decoded, used) = decode(&bytes).expect("decodes");
            assert_eq!(used, bytes.len());
            let path = decoded.as_update().expect("update").route_attrs().as_path;
            let sent = &attrs.as_path;
            assert!(path.segments().all(|(_, asns)| asns.len() <= 255));
            assert_eq!(path.flatten(), sent.flatten());
            assert_eq!(path.length(), sent.length());
            assert_eq!(path.origin_as(), sent.origin_as());
            assert_eq!(path.neighbor_as(), sent.neighbor_as());
            assert_eq!(
                encode(&decoded)[..],
                bytes[..],
                "re-encoding is byte-identical"
            );
        }
    }
}

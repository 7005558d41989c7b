//! RFC 4271 wire encoding and decoding of BGP messages.
//!
//! The codec is strict on decode: syntactically invalid messages produce a
//! structured [`BgpError`] naming what is wrong, never a panic. The
//! DiCE symbolic-input layer deliberately generates only *syntactically
//! valid* messages (paper §3.2), so this layer is exercised by the live
//! message path and by tests, not by exploration.

use bytes::{Buf, BufMut, Bytes};
use std::net::Ipv4Addr;

use crate::asn::{AsPath, AsPathSegment, Asn};
use crate::attributes::{flags, Aggregator, AttrCode, Community, Origin, PathAttribute};
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

fn decode_prefixes(mut buf: &[u8]) -> Result<Vec<Ipv4Prefix>, BgpError> {
    let mut out = Vec::new();
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
fn wire_segments(seg: &AsPathSegment) -> impl Iterator<Item = &[Asn]> {
    let asns = seg.asns();
    let run = match seg {
        AsPathSegment::Sequence(_) => MAX_SEGMENT_ASNS,
        AsPathSegment::Set(_) => asns.len().max(1),
    };
    asns.chunks(run).chain(asns.is_empty().then_some(asns))
}

/// Length of an attribute's value on the wire.
fn attribute_value_len(attr: &PathAttribute) -> usize {
    match attr {
        PathAttribute::Origin(_) => 1,
        PathAttribute::AsPath(path) => path
            .segments()
            .iter()
            .flat_map(wire_segments)
            .map(|asns| 2 + 4 * asns.len())
            .sum(),
        PathAttribute::NextHop(_) | PathAttribute::Med(_) | PathAttribute::LocalPref(_) => 4,
        PathAttribute::AtomicAggregate => 0,
        PathAttribute::Aggregator(_) => 8,
        PathAttribute::Communities(cs) => 4 * cs.len(),
    }
}

/// Length of an attribute on the wire: flags, code, length field, value.
fn attribute_len(attr: &PathAttribute) -> usize {
    let value = attribute_value_len(attr);
    let length_field = if value > 255 { 2 } else { 1 };
    2 + length_field + value
}

fn encode_attribute(attr: &PathAttribute, out: &mut Vec<u8>) {
    let value_len = attribute_value_len(attr);
    let code = attr.code();
    let mut attr_flags = code.default_flags();
    let extended = value_len > 255;
    if extended {
        attr_flags |= flags::EXTENDED_LENGTH;
    }
    out.put_u8(attr_flags);
    out.put_u8(code as u8);
    if extended {
        out.put_u16(value_len as u16);
    } else {
        out.put_u8(value_len as u8);
    }
    match attr {
        PathAttribute::Origin(o) => out.put_u8(o.code()),
        PathAttribute::AsPath(path) => {
            for seg in path.segments() {
                for asns in wire_segments(seg) {
                    out.put_u8(seg.type_code());
                    out.put_u8(asns.len() as u8);
                    for asn in asns {
                        out.put_u32(asn.value());
                    }
                }
            }
        }
        PathAttribute::NextHop(nh) => out.put_u32(u32::from(*nh)),
        PathAttribute::Med(m) => out.put_u32(*m),
        PathAttribute::LocalPref(l) => out.put_u32(*l),
        PathAttribute::AtomicAggregate => {}
        PathAttribute::Aggregator(a) => {
            out.put_u32(a.asn.value());
            out.put_u32(a.router_id);
        }
        PathAttribute::Communities(cs) => {
            for c in cs {
                out.put_u32(c.0);
            }
        }
    }
}

fn decode_attribute(buf: &mut &[u8]) -> Result<Option<PathAttribute>, BgpError> {
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
    let mut value = &buf[..len];
    buf.advance(len);
    let Some(code) = AttrCode::from_code(code_raw) else {
        // Unknown optional attributes are skipped (not stored).
        return Ok(None);
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
    let attr = match code {
        AttrCode::Origin => {
            if value.len() != 1 {
                return Err(BgpError::BadAttribute {
                    code: code as u8,
                    reason: "origin length",
                });
            }
            let origin = Origin::from_code(value.get_u8()).ok_or(BgpError::BadAttribute {
                code: code as u8,
                reason: "origin value",
            })?;
            PathAttribute::Origin(origin)
        }
        AttrCode::AsPath => {
            let mut segments = Vec::new();
            while !value.is_empty() {
                if value.len() < 2 {
                    return Err(BgpError::BadAttribute {
                        code: code as u8,
                        reason: "segment header",
                    });
                }
                let seg_type = value.get_u8();
                let count = value.get_u8() as usize;
                if value.len() < count * 4 {
                    return Err(BgpError::BadAttribute {
                        code: code as u8,
                        reason: "segment body",
                    });
                }
                let mut asns = Vec::with_capacity(count);
                for _ in 0..count {
                    asns.push(Asn(value.get_u32()));
                }
                let seg = match seg_type {
                    1 => AsPathSegment::Set(asns),
                    2 => AsPathSegment::Sequence(asns),
                    _ => {
                        return Err(BgpError::BadAttribute {
                            code: code as u8,
                            reason: "segment type",
                        })
                    }
                };
                segments.push(seg);
            }
            PathAttribute::AsPath(AsPath::from_segments(segments))
        }
        AttrCode::NextHop => {
            if value.len() != 4 {
                return Err(BgpError::BadAttribute {
                    code: code as u8,
                    reason: "next hop length",
                });
            }
            PathAttribute::NextHop(Ipv4Addr::from(value.get_u32()))
        }
        AttrCode::Med => {
            if value.len() != 4 {
                return Err(BgpError::BadAttribute {
                    code: code as u8,
                    reason: "med length",
                });
            }
            PathAttribute::Med(value.get_u32())
        }
        AttrCode::LocalPref => {
            if value.len() != 4 {
                return Err(BgpError::BadAttribute {
                    code: code as u8,
                    reason: "local pref length",
                });
            }
            PathAttribute::LocalPref(value.get_u32())
        }
        AttrCode::AtomicAggregate => {
            if !value.is_empty() {
                return Err(BgpError::BadAttribute {
                    code: code as u8,
                    reason: "atomic aggregate length",
                });
            }
            PathAttribute::AtomicAggregate
        }
        AttrCode::Aggregator => {
            if value.len() != 8 {
                return Err(BgpError::BadAttribute {
                    code: code as u8,
                    reason: "aggregator length",
                });
            }
            let asn = Asn(value.get_u32());
            let router_id = value.get_u32();
            PathAttribute::Aggregator(Aggregator { asn, router_id })
        }
        AttrCode::Communities => {
            if !value.len().is_multiple_of(4) {
                return Err(BgpError::BadAttribute {
                    code: code as u8,
                    reason: "communities length",
                });
            }
            let mut cs = Vec::with_capacity(value.len() / 4);
            while !value.is_empty() {
                cs.push(Community(value.get_u32()));
            }
            PathAttribute::Communities(cs)
        }
    };
    Ok(Some(attr))
}

fn update_body_len(u: &UpdateMessage) -> usize {
    let attrs: usize = u.attributes.iter().map(attribute_len).sum();
    2 + prefixes_len(&u.withdrawn) + 2 + attrs + prefixes_len(&u.nlri)
}

fn encode_update(u: &UpdateMessage, out: &mut Vec<u8>) {
    out.put_u16(prefixes_len(&u.withdrawn) as u16);
    encode_prefixes(&u.withdrawn, out);

    let attrs: usize = u.attributes.iter().map(attribute_len).sum();
    out.put_u16(attrs as u16);
    for a in &u.attributes {
        encode_attribute(a, out);
    }

    encode_prefixes(&u.nlri, out);
}

/// How many attributes an attribute block holds, read from their headers
/// alone: what the decoded list needs room for. A malformed block counts
/// up to where it breaks; decoding reports the error.
fn attribute_count(mut block: &[u8]) -> usize {
    let mut count = 0;
    while block.len() >= 3 {
        let extended = block[0] & flags::EXTENDED_LENGTH != 0;
        let (header, len) = if extended {
            if block.len() < 4 {
                break;
            }
            (4, u16::from_be_bytes([block[2], block[3]]) as usize)
        } else {
            (3, block[2] as usize)
        };
        count += 1;
        block = &block[(header + len).min(block.len())..];
    }
    count
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
    let mut attr_buf = &buf[..attrs_len];
    buf.advance(attrs_len);
    let mut attributes = Vec::with_capacity(attribute_count(attr_buf));
    while !attr_buf.is_empty() {
        if let Some(attr) = decode_attribute(&mut attr_buf)? {
            attributes.push(attr);
        }
    }

    let nlri = decode_prefixes(buf).map_err(reframe)?;
    *buf = &[];
    Ok(UpdateMessage {
        withdrawn,
        attributes,
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
            attributes: attrs.to_attributes(),
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

    #[test]
    fn unknown_attribute_is_skipped() {
        // Attribute type 99 (optional transitive) should be ignored.
        let mut body = BytesMut::new();
        body.put_u16(0);
        let mut attrs = BytesMut::new();
        attrs.put_u8(flags::OPTIONAL | flags::TRANSITIVE);
        attrs.put_u8(99);
        attrs.put_u8(2);
        attrs.put_u16(0xbeef);
        body.put_u16(attrs.len() as u16);
        body.extend_from_slice(&attrs);
        body.put_u8(8);
        body.put_u8(10); // 10.0.0.0/8
        let mut raw = BytesMut::new();
        raw.put_bytes(0xff, 16);
        raw.put_u16((HEADER_LEN + body.len()) as u16);
        raw.put_u8(MessageType::Update as u8);
        raw.extend_from_slice(&body);
        let (decoded, _) = decode(&raw).expect("decodes");
        let update = decoded.as_update().expect("update");
        assert!(update.attributes.is_empty());
        assert_eq!(update.nlri, vec!["10.0.0.0/8".parse().expect("valid")]);
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
            attributes: attrs.to_attributes(),
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
            assert!(path.segments().iter().all(|s| s.asns().len() <= 255));
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

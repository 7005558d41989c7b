//! BGP message types (RFC 4271 §4).

use std::fmt;
use std::net::Ipv4Addr;

use crate::attributes::{PathAttribute, RouteAttrs};
use crate::error::NotificationData;
use crate::prefix::Ipv4Prefix;

/// BGP message type codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub(crate) enum MessageType {
    /// OPEN (type 1).
    Open = 1,
    /// UPDATE (type 2).
    Update = 2,
    /// NOTIFICATION (type 3).
    Notification = 3,
    /// KEEPALIVE (type 4).
    Keepalive = 4,
}

impl MessageType {
    /// Parses a wire type code.
    pub(crate) fn from_code(code: u8) -> Option<MessageType> {
        match code {
            1 => Some(MessageType::Open),
            2 => Some(MessageType::Update),
            3 => Some(MessageType::Notification),
            4 => Some(MessageType::Keepalive),
            _ => None,
        }
    }
}

/// An OPEN message: session parameters exchanged at startup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenMessage {
    /// Protocol version; always 4.
    pub version: u8,
    /// The sender's autonomous system number.
    pub my_as: u32,
    /// Proposed hold time in seconds.
    pub hold_time: u16,
    /// The sender's BGP identifier (router id).
    pub bgp_identifier: u32,
}

impl OpenMessage {
    /// Creates a version-4 OPEN message.
    pub fn new(my_as: u32, hold_time: u16, bgp_identifier: u32) -> Self {
        OpenMessage {
            version: 4,
            my_as,
            hold_time,
            bgp_identifier,
        }
    }
}

/// An UPDATE message: withdrawn routes, path attributes and announced NLRI.
///
/// UPDATE messages are "the main drivers for state change" (paper §3.2) and
/// the messages DiCE marks as symbolic to derive exploratory inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateMessage {
    /// Prefixes no longer reachable through the sender.
    pub withdrawn: Vec<Ipv4Prefix>,
    /// Path attributes applying to all announced prefixes.
    pub attributes: Vec<PathAttribute>,
    /// Announced prefixes (Network Layer Reachability Information).
    pub nlri: Vec<Ipv4Prefix>,
}

impl UpdateMessage {
    /// Creates an announcement of `nlri` with the given typed attributes.
    pub fn announce(nlri: Vec<Ipv4Prefix>, attrs: &RouteAttrs) -> Self {
        UpdateMessage {
            withdrawn: Vec::new(),
            attributes: attrs.to_attributes(),
            nlri,
        }
    }

    /// Creates a withdrawal of the given prefixes.
    pub fn withdraw(withdrawn: Vec<Ipv4Prefix>) -> Self {
        UpdateMessage {
            withdrawn,
            attributes: Vec::new(),
            nlri: Vec::new(),
        }
    }

    /// The typed view of the attribute list.
    pub fn route_attrs(&self) -> RouteAttrs {
        RouteAttrs::from_attributes(&self.attributes)
    }
}

/// A KEEPALIVE message (header only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeepaliveMessage;

/// A NOTIFICATION message: the error that closes the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotificationMessage {
    /// The error code/subcode plus diagnostic data.
    pub error: NotificationData,
}

/// Any BGP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BgpMessage {
    /// OPEN.
    Open(OpenMessage),
    /// UPDATE.
    Update(UpdateMessage),
    /// NOTIFICATION.
    Notification(NotificationMessage),
    /// KEEPALIVE.
    Keepalive(KeepaliveMessage),
}

impl BgpMessage {
    /// The message type code.
    pub(crate) fn message_type(&self) -> MessageType {
        match self {
            BgpMessage::Open(_) => MessageType::Open,
            BgpMessage::Update(_) => MessageType::Update,
            BgpMessage::Notification(_) => MessageType::Notification,
            BgpMessage::Keepalive(_) => MessageType::Keepalive,
        }
    }

    /// Returns the UPDATE payload if this is an UPDATE message.
    pub fn as_update(&self) -> Option<&UpdateMessage> {
        match self {
            BgpMessage::Update(u) => Some(u),
            _ => None,
        }
    }
}

impl fmt::Display for BgpMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BgpMessage::Open(o) => write!(
                f,
                "OPEN(as={}, id={})",
                o.my_as,
                Ipv4Addr::from(o.bgp_identifier)
            ),
            BgpMessage::Update(u) => write!(
                f,
                "UPDATE(+{} -{} prefixes)",
                u.nlri.len(),
                u.withdrawn.len()
            ),
            BgpMessage::Notification(n) => write!(f, "NOTIFICATION({})", n.error),
            BgpMessage::Keepalive(_) => write!(f, "KEEPALIVE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::RouteAttrs;

    #[test]
    fn message_type_codes() {
        assert_eq!(MessageType::from_code(1), Some(MessageType::Open));
        assert_eq!(MessageType::from_code(2), Some(MessageType::Update));
        assert_eq!(MessageType::from_code(3), Some(MessageType::Notification));
        assert_eq!(MessageType::from_code(4), Some(MessageType::Keepalive));
        assert_eq!(MessageType::from_code(0), None);
        assert_eq!(MessageType::Update as u8, 2);
    }

    #[test]
    fn announce_and_withdraw_constructors() {
        let attrs = RouteAttrs::originated(65001, Ipv4Addr::new(10, 0, 0, 1));
        let p: Ipv4Prefix = "203.0.113.0/24".parse().expect("valid");
        let ann = UpdateMessage::announce(vec![p], &attrs);
        assert_eq!(ann.nlri, vec![p]);
        assert!(ann.withdrawn.is_empty());
        assert_eq!(
            ann.route_attrs().origin_as().map(|a| a.value()),
            Some(65001)
        );

        let wd = UpdateMessage::withdraw(vec![p]);
        assert_eq!(wd.withdrawn, vec![p]);
        assert!(wd.nlri.is_empty() && wd.attributes.is_empty());
    }

    #[test]
    fn display_summaries() {
        let open = BgpMessage::Open(OpenMessage::new(65001, 90, 0x0a000001));
        assert!(open.to_string().contains("as=65001"));
        assert_eq!(open.message_type(), MessageType::Open);
        let ka = BgpMessage::Keepalive(KeepaliveMessage);
        assert_eq!(ka.to_string(), "KEEPALIVE");
        assert!(ka.as_update().is_none());
    }

    #[test]
    fn as_update_accessor() {
        let attrs = RouteAttrs::originated(65001, Ipv4Addr::new(10, 0, 0, 1));
        let p: Ipv4Prefix = "198.51.100.0/24".parse().expect("valid");
        let msg = BgpMessage::Update(UpdateMessage::announce(vec![p], &attrs));
        assert_eq!(msg.as_update().map(|u| u.nlri.len()), Some(1));
    }
}

//! BGP message types (RFC 4271 §4).
//!
//! An [`UpdateMessage`] holds its attribute set as one shared
//! [`RouteAttrs`]: the codec decodes into it, the routes the UPDATE
//! installs share it, and an observer logging the UPDATE keeps the same
//! allocation alive rather than a second copy.

use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

use crate::attributes::RouteAttrs;
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
    /// Path attributes applying to all announced prefixes; `None` when the
    /// UPDATE has no attribute block (a pure withdrawal).
    pub attrs: Option<Arc<RouteAttrs>>,
    /// Announced prefixes (Network Layer Reachability Information).
    pub nlri: Vec<Ipv4Prefix>,
}

impl UpdateMessage {
    /// Creates an announcement of `nlri` with the given typed attributes.
    pub fn announce(nlri: Vec<Ipv4Prefix>, attrs: &RouteAttrs) -> Self {
        UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(Arc::new(attrs.clone())),
            nlri,
        }
    }

    /// Creates a withdrawal of the given prefixes.
    pub fn withdraw(withdrawn: Vec<Ipv4Prefix>) -> Self {
        UpdateMessage {
            withdrawn,
            attrs: None,
            nlri: Vec::new(),
        }
    }

    /// An owned copy of the attribute set, to edit; the defaults when the
    /// UPDATE has none.
    pub fn route_attrs(&self) -> RouteAttrs {
        self.attrs.as_deref().cloned().unwrap_or_default()
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
        assert!(wd.nlri.is_empty() && wd.attrs.is_none());
    }

    #[test]
    fn clones_of_an_update_share_its_attributes() {
        assert!(std::mem::size_of::<UpdateMessage>() <= 56);
        let attrs = RouteAttrs::originated(65001, Ipv4Addr::new(10, 0, 0, 1));
        let p: Ipv4Prefix = "203.0.113.0/24".parse().expect("valid");
        let ann = UpdateMessage::announce(vec![p], &attrs);
        let copy = ann.clone();
        let shared = |u: &UpdateMessage| u.attrs.clone().expect("announcement");
        assert!(Arc::ptr_eq(&shared(&ann), &shared(&copy)));
        assert_eq!(ann.route_attrs(), attrs);
        assert_eq!(
            UpdateMessage::withdraw(vec![p]).route_attrs(),
            RouteAttrs::default()
        );
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

//! BGP error and NOTIFICATION codes (RFC 4271 §4.5 and §6).

use std::fmt;

/// Top-level NOTIFICATION error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ErrorCode {
    /// Message header error (code 1).
    MessageHeader = 1,
    /// OPEN message error (code 2).
    OpenMessage = 2,
    /// UPDATE message error (code 3).
    UpdateMessage = 3,
    /// Hold timer expired (code 4).
    HoldTimerExpired = 4,
    /// Finite state machine error (code 5).
    FiniteStateMachine = 5,
    /// Administrative cease (code 6).
    Cease = 6,
}

impl ErrorCode {
    /// Parses the wire code.
    pub(crate) fn from_code(code: u8) -> Option<ErrorCode> {
        match code {
            1 => Some(ErrorCode::MessageHeader),
            2 => Some(ErrorCode::OpenMessage),
            3 => Some(ErrorCode::UpdateMessage),
            4 => Some(ErrorCode::HoldTimerExpired),
            5 => Some(ErrorCode::FiniteStateMachine),
            6 => Some(ErrorCode::Cease),
            _ => None,
        }
    }
}

/// UPDATE message error subcodes (RFC 4271 §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum UpdateErrorSubcode {
    /// Malformed attribute list.
    MalformedAttributeList = 1,
    /// Unrecognized well-known attribute.
    UnrecognizedWellKnownAttribute = 2,
    /// Missing well-known attribute.
    MissingWellKnownAttribute = 3,
    /// Attribute flags error.
    AttributeFlagsError = 4,
    /// Attribute length error.
    AttributeLengthError = 5,
    /// Invalid ORIGIN attribute.
    InvalidOriginAttribute = 6,
    /// Invalid NEXT_HOP attribute.
    InvalidNextHopAttribute = 8,
    /// Optional attribute error.
    OptionalAttributeError = 9,
    /// Invalid network field.
    InvalidNetworkField = 10,
    /// Malformed AS_PATH.
    MalformedAsPath = 11,
}

/// The payload of a NOTIFICATION message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotificationData {
    /// The error code.
    pub code: ErrorCode,
    /// The error subcode (0 when unspecific).
    pub subcode: u8,
    /// Diagnostic data.
    pub data: Vec<u8>,
}

impl fmt::Display for NotificationData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}/{}", self.code, self.subcode)
    }
}

/// Errors produced while encoding or decoding BGP messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BgpError {
    /// The message was shorter than its header or declared length.
    Truncated {
        /// How many bytes were expected.
        expected: usize,
        /// How many bytes were available.
        available: usize,
    },
    /// The 16-octet marker was not all-ones.
    BadMarker,
    /// The declared message length is outside [19, 4096].
    BadLength(u16),
    /// Unknown message type code.
    UnknownMessageType(u8),
    /// A prefix length larger than 32 appeared in NLRI or withdrawn routes.
    BadPrefixLength(u8),
    /// A path attribute could not be decoded.
    BadAttribute {
        /// The attribute type code.
        code: u8,
        /// Description of the problem.
        reason: &'static str,
    },
    /// An UPDATE-level semantic error, reportable as a NOTIFICATION.
    Update(UpdateErrorSubcode),
}

impl fmt::Display for BgpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BgpError::Truncated {
                expected,
                available,
            } => {
                write!(
                    f,
                    "truncated message: need {expected} bytes, have {available}"
                )
            }
            BgpError::BadMarker => write!(f, "bad marker"),
            BgpError::BadLength(l) => write!(f, "bad message length {l}"),
            BgpError::UnknownMessageType(t) => write!(f, "unknown message type {t}"),
            BgpError::BadPrefixLength(l) => write!(f, "bad prefix length {l}"),
            BgpError::BadAttribute { code, reason } => {
                write!(f, "bad attribute {code}: {reason}")
            }
            BgpError::Update(sub) => write!(f, "update error: {sub:?}"),
        }
    }
}

impl std::error::Error for BgpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_code_roundtrip() {
        for code in 1..=6u8 {
            let c = ErrorCode::from_code(code).expect("known");
            assert_eq!(c as u8, code);
        }
        assert_eq!(ErrorCode::from_code(0), None);
        assert_eq!(ErrorCode::from_code(7), None);
    }

    #[test]
    fn errors_display() {
        let e = BgpError::Truncated {
            expected: 23,
            available: 10,
        };
        assert!(e.to_string().contains("23"));
        assert!(BgpError::UnknownMessageType(9).to_string().contains('9'));
        let cease = NotificationData {
            code: ErrorCode::Cease,
            subcode: 0,
            data: Vec::new(),
        };
        assert_eq!(cease.to_string(), "Cease/0");
    }
}

//! IPv4 prefixes (NLRI entries).
//!
//! A prefix is the unit of reachability information that BGP UPDATE
//! messages announce and withdraw, and the unit over which the DiCE hijack
//! checker reasons ("which prefix ranges can be leaked").

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// Errors produced when parsing or constructing prefixes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// The prefix length was greater than 32.
    InvalidLength(u8),
    /// The textual form could not be parsed.
    Malformed(String),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::InvalidLength(l) => write!(f, "invalid prefix length {l}"),
            PrefixError::Malformed(s) => write!(f, "malformed prefix: {s}"),
        }
    }
}

impl std::error::Error for PrefixError {}

/// An IPv4 prefix: a network address and a mask length.
///
/// The host bits of the address are always zero; constructors mask them.
///
/// # Examples
///
/// ```
/// use dice_bgp::prefix::Ipv4Prefix;
///
/// let p: Ipv4Prefix = "208.65.152.0/22".parse().unwrap();
/// assert_eq!(p.len(), 22);
/// let more_specific: Ipv4Prefix = "208.65.153.0/24".parse().unwrap();
/// assert!(p.contains(&more_specific));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Prefix {
    addr: u32,
    len: u8,
}

impl Ipv4Prefix {
    /// Creates a prefix from a raw address and length, masking host bits.
    ///
    /// Returns an error if `len > 32`.
    pub fn new(addr: u32, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::InvalidLength(len));
        }
        Ok(Ipv4Prefix {
            addr: addr & mask(len),
            len,
        })
    }

    /// Creates a prefix, panicking on an invalid length.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`. Intended for literals in tests and examples.
    pub fn must(addr: u32, len: u8) -> Self {
        Self::new(addr, len).expect("valid prefix length")
    }

    /// The network address as a raw big-endian integer.
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// The network address as an [`Ipv4Addr`].
    pub(crate) fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// The prefix length in bits.
    ///
    /// (Not a container length — there is deliberately no `is_empty`.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The last address covered by the prefix.
    pub fn broadcast(&self) -> u32 {
        self.addr | !mask(self.len)
    }

    /// Returns true if `ip` falls within this prefix.
    pub fn contains_ip(&self, ip: u32) -> bool {
        ip & mask(self.len) == self.addr
    }

    /// Returns true if `other` is equal to or more specific than `self`.
    pub fn contains(&self, other: &Ipv4Prefix) -> bool {
        other.len >= self.len && other.addr & mask(self.len) == self.addr
    }

    /// Returns true if the two prefixes share any address.
    pub fn overlaps(&self, other: &Ipv4Prefix) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// Number of bytes needed to encode the prefix on the wire.
    pub(crate) fn wire_len(&self) -> usize {
        (self.len as usize).div_ceil(8)
    }
}

fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else if len >= 32 {
        u32::MAX
    } else {
        u32::MAX << (32 - len)
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = s
            .split_once('/')
            .ok_or_else(|| PrefixError::Malformed(s.to_string()))?;
        let addr: Ipv4Addr = addr_s
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        let len: u8 = len_s
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        Ipv4Prefix::new(u32::from(addr), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let p: Ipv4Prefix = "10.1.2.0/24".parse().expect("valid");
        assert_eq!(p.to_string(), "10.1.2.0/24");
        assert_eq!(p.len(), 24);
        assert_eq!(p.network(), Ipv4Addr::new(10, 1, 2, 0));
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("not-an-ip/8".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn host_bits_are_masked() {
        let p = Ipv4Prefix::new(u32::from(Ipv4Addr::new(10, 1, 2, 3)), 16).expect("valid");
        assert_eq!(p.to_string(), "10.1.0.0/16");
        assert_eq!(
            Ipv4Prefix::must(0xffff_ffff, 8).network(),
            Ipv4Addr::new(255, 0, 0, 0)
        );
    }

    #[test]
    fn containment_and_overlap() {
        let p8: Ipv4Prefix = "10.0.0.0/8".parse().expect("valid");
        let p24: Ipv4Prefix = "10.5.5.0/24".parse().expect("valid");
        let other: Ipv4Prefix = "192.168.0.0/16".parse().expect("valid");
        assert!(p8.contains(&p24));
        assert!(!p24.contains(&p8));
        assert!(p8.overlaps(&p24) && p24.overlaps(&p8));
        assert!(!p8.overlaps(&other));
        assert!(p8.contains_ip(u32::from(Ipv4Addr::new(10, 200, 1, 1))));
        assert!(!p8.contains_ip(u32::from(Ipv4Addr::new(11, 0, 0, 1))));
        assert!(Ipv4Prefix::must(0, 0).contains(&other));
    }

    #[test]
    fn wire_len_rounds_up() {
        assert_eq!(
            "0.0.0.0/0".parse::<Ipv4Prefix>().expect("valid").wire_len(),
            0
        );
        assert_eq!(
            "10.0.0.0/8"
                .parse::<Ipv4Prefix>()
                .expect("valid")
                .wire_len(),
            1
        );
        assert_eq!(
            "10.0.0.0/9"
                .parse::<Ipv4Prefix>()
                .expect("valid")
                .wire_len(),
            2
        );
        assert_eq!(
            "10.0.0.0/24"
                .parse::<Ipv4Prefix>()
                .expect("valid")
                .wire_len(),
            3
        );
        assert_eq!(
            "10.0.0.1/32"
                .parse::<Ipv4Prefix>()
                .expect("valid")
                .wire_len(),
            4
        );
    }

    #[test]
    fn broadcast_and_netmask() {
        let p: Ipv4Prefix = "192.168.4.0/22".parse().expect("valid");
        assert_eq!(
            Ipv4Addr::from(p.broadcast()),
            Ipv4Addr::new(192, 168, 7, 255)
        );
    }
}

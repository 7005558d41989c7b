//! Autonomous system numbers and AS paths.

use std::fmt;
use std::sync::Arc;

/// An autonomous system number.
///
/// Four-byte ASNs (RFC 6793) are used throughout; the wire codec encodes
/// them as four octets, which is noted as a deviation from the classic
/// two-octet RFC 4271 encoding in `DESIGN.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

impl Asn {
    /// Returns the raw ASN value.
    pub fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

/// A segment of an AS path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AsPathSegment {
    /// An ordered sequence of ASNs (most recent first).
    Sequence(Vec<Asn>),
    /// An unordered set of ASNs (the result of aggregation).
    Set(Vec<Asn>),
}

impl AsPathSegment {
    /// The ASNs in the segment.
    pub fn asns(&self) -> &[Asn] {
        match self {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v,
        }
    }

    /// The RFC 4271 segment type code (1 = AS_SET, 2 = AS_SEQUENCE).
    pub(crate) fn type_code(&self) -> u8 {
        match self {
            AsPathSegment::Set(_) => 1,
            AsPathSegment::Sequence(_) => 2,
        }
    }

    /// Contribution of this segment to the AS path length used by the
    /// decision process: a set counts as one hop regardless of size.
    pub(crate) fn path_length(&self) -> usize {
        match self {
            AsPathSegment::Sequence(v) => v.len(),
            AsPathSegment::Set(v) => usize::from(!v.is_empty()),
        }
    }
}

/// An AS path: the ordered list of segments carried in the AS_PATH
/// attribute.
///
/// The segments sit behind an [`Arc`], so cloning a path — and with it a
/// route, an attribute set or an UPDATE — shares them instead of copying
/// them. Equality and hashing are by content.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct AsPath {
    /// `None` for the path without segments, which needs no allocation.
    segments: Option<Arc<[AsPathSegment]>>,
}

impl AsPath {
    /// An empty path (as originated by the local AS before export).
    pub fn empty() -> Self {
        AsPath { segments: None }
    }

    /// Builds a path consisting of a single sequence.
    pub fn from_sequence(asns: impl IntoIterator<Item = u32>) -> Self {
        AsPath::from_segments(vec![AsPathSegment::Sequence(
            asns.into_iter().map(Asn).collect(),
        )])
    }

    /// Creates a path from raw segments.
    pub(crate) fn from_segments(segments: Vec<AsPathSegment>) -> Self {
        AsPath {
            segments: (!segments.is_empty()).then(|| segments.into()),
        }
    }

    /// The path segments.
    pub fn segments(&self) -> &[AsPathSegment] {
        self.segments.as_deref().unwrap_or(&[])
    }

    /// The length used by the decision process (AS_SET counts as 1).
    pub fn length(&self) -> usize {
        self.segments().iter().map(AsPathSegment::path_length).sum()
    }

    /// The origin AS: the last ASN of the last sequence segment, which is
    /// the AS that originated the route. Returns `None` for empty paths or
    /// paths ending in an AS_SET.
    pub fn origin_as(&self) -> Option<Asn> {
        match self.segments().last() {
            Some(AsPathSegment::Sequence(v)) => v.last().copied(),
            _ => None,
        }
    }

    /// The neighbor AS: the first ASN on the path (the AS the route was
    /// learned from).
    pub fn neighbor_as(&self) -> Option<Asn> {
        self.segments()
            .first()
            .and_then(|s| s.asns().first().copied())
    }

    /// Returns true if the path visits `asn` anywhere (loop detection).
    pub fn contains(&self, asn: Asn) -> bool {
        self.segments().iter().any(|s| s.asns().contains(&asn))
    }

    /// Returns a new path with `asn` prepended `count` times, as performed
    /// when exporting a route to an eBGP peer.
    pub fn prepend(&self, asn: Asn, count: usize) -> AsPath {
        let old = self.segments();
        // The segments go straight into the shared slice: one allocation
        // for it, one for the leading sequence.
        let segments: Arc<[AsPathSegment]> = match old.split_first() {
            Some((AsPathSegment::Sequence(first), rest)) => {
                let mut sequence = Vec::with_capacity(count + first.len());
                sequence.extend(std::iter::repeat_n(asn, count));
                sequence.extend_from_slice(first);
                std::iter::once(AsPathSegment::Sequence(sequence))
                    .chain(rest.iter().cloned())
                    .collect()
            }
            _ => std::iter::once(AsPathSegment::Sequence(vec![asn; count]))
                .chain(old.iter().cloned())
                .collect(),
        };
        AsPath {
            segments: Some(segments),
        }
    }

    /// Flattens the path into a list of ASNs, ignoring segment structure.
    pub fn flatten(&self) -> Vec<Asn> {
        self.segments()
            .iter()
            .flat_map(|s| s.asns().iter().copied())
            .collect()
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in self.segments() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg {
                AsPathSegment::Sequence(v) => {
                    let parts: Vec<String> = v.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{}", parts.join(" "))?;
                }
                AsPathSegment::Set(v) => {
                    let parts: Vec<String> = v.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{{{}}}", parts.join(","))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asn_display_and_private_ranges() {
        assert_eq!(Asn(3356).to_string(), "AS3356");
        assert_eq!(Asn::from(17557).value(), 17557);
    }

    #[test]
    fn path_length_counts_sets_as_one() {
        let path = AsPath::from_segments(vec![
            AsPathSegment::Sequence(vec![Asn(1), Asn(2), Asn(3)]),
            AsPathSegment::Set(vec![Asn(10), Asn(11)]),
        ]);
        assert_eq!(path.length(), 4);
        assert_eq!(AsPath::empty().length(), 0);
        assert!(AsPath::empty().segments().is_empty());
    }

    #[test]
    fn origin_and_neighbor_as() {
        // The YouTube incident: 3491 (PCCW) heard the prefix from 17557
        // (Pakistan Telecom), which became the bogus origin.
        let path = AsPath::from_sequence([3491, 17557]);
        assert_eq!(path.origin_as(), Some(Asn(17557)));
        assert_eq!(path.neighbor_as(), Some(Asn(3491)));
        assert!(path.contains(Asn(3491)));
        assert!(!path.contains(Asn(36561)));
        assert!(AsPath::empty().origin_as().is_none());
    }

    #[test]
    fn prepend_builds_new_first_segment_when_needed() {
        let path = AsPath::empty().prepend(Asn(65001), 1);
        assert_eq!(path.flatten(), vec![Asn(65001)]);
        let longer = path.prepend(Asn(65001), 2);
        assert_eq!(longer.length(), 3);
        assert_eq!(longer.origin_as(), Some(Asn(65001)));

        // A leading set gets a sequence in front of it; later segments
        // follow unchanged.
        let set_first = AsPath::from_segments(vec![
            AsPathSegment::Set(vec![Asn(10), Asn(11)]),
            AsPathSegment::Sequence(vec![Asn(20)]),
        ]);
        assert_eq!(
            set_first.prepend(Asn(1), 2).segments(),
            [
                AsPathSegment::Sequence(vec![Asn(1), Asn(1)]),
                AsPathSegment::Set(vec![Asn(10), Asn(11)]),
                AsPathSegment::Sequence(vec![Asn(20)]),
            ]
        );
        // A leading sequence grows in place; the set after it stays.
        let sequence_first = AsPath::from_segments(vec![
            AsPathSegment::Sequence(vec![Asn(20)]),
            AsPathSegment::Set(vec![Asn(10)]),
        ]);
        assert_eq!(
            sequence_first.prepend(Asn(1), 1).segments(),
            [
                AsPathSegment::Sequence(vec![Asn(1), Asn(20)]),
                AsPathSegment::Set(vec![Asn(10)]),
            ]
        );
    }

    #[test]
    fn clones_share_segments_and_compare_by_content() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let hash = |path: &AsPath| {
            let mut hasher = DefaultHasher::new();
            path.hash(&mut hasher);
            hasher.finish()
        };
        let path = AsPath::from_sequence([3491, 17557]);
        let shared = path.clone();
        assert!(std::ptr::eq(path.segments(), shared.segments()));

        // Prepending to a shared path builds a new one.
        let longer = shared.prepend(Asn(1299), 2);
        assert_eq!(
            longer.flatten(),
            [Asn(1299), Asn(1299), Asn(3491), Asn(17557)]
        );
        assert_eq!(path.flatten(), [Asn(3491), Asn(17557)]);
        assert_eq!(shared, path);

        // A path built separately is equal and hashes alike; sharing is
        // not identity.
        let rebuilt =
            AsPath::from_segments(vec![AsPathSegment::Sequence(vec![Asn(3491), Asn(17557)])]);
        assert!(!std::ptr::eq(path.segments(), rebuilt.segments()));
        assert_eq!(rebuilt, path);
        assert_eq!(hash(&rebuilt), hash(&path));
        assert_ne!(longer, path);
        assert_eq!(AsPath::from_segments(Vec::new()), AsPath::empty());
        assert_eq!(
            hash(&AsPath::from_segments(Vec::new())),
            hash(&AsPath::default())
        );
    }

    #[test]
    fn display_formats_sets_with_braces() {
        let path = AsPath::from_segments(vec![
            AsPathSegment::Sequence(vec![Asn(1), Asn(2)]),
            AsPathSegment::Set(vec![Asn(3), Asn(4)]),
        ]);
        assert_eq!(path.to_string(), "1 2 {3,4}");
    }

    #[test]
    fn loop_detection_via_contains() {
        let path = AsPath::from_sequence([100, 200, 300]);
        assert!(path.contains(Asn(200)));
        let prepended = path.prepend(Asn(400), 1);
        assert_eq!(prepended.neighbor_as(), Some(Asn(400)));
        assert_eq!(prepended.origin_as(), Some(Asn(300)));
    }
}

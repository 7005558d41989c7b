//! Autonomous system numbers and AS paths.
//!
//! An [`AsPath`] is one allocation: its segments are laid out flat in one
//! shared slice, each a header word followed by its ASNs, and
//! [`AsPath::segments`] reads them back as `(kind, ASNs)` views.

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

/// The kind of an AS path segment; its value is the RFC 4271 segment type
/// code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SegmentKind {
    /// An unordered set of ASNs (the result of aggregation).
    Set = 1,
    /// An ordered sequence of ASNs (most recent first).
    Sequence = 2,
}

/// The header word's flag for an AS_SET; the remaining bits count the
/// segment's ASNs.
const SET_FLAG: u32 = 1 << 31;

/// The header word that opens a segment of `count` ASNs.
pub(crate) fn segment_header(kind: SegmentKind, count: usize) -> Asn {
    debug_assert!(count < SET_FLAG as usize, "an AS path segment that long");
    let flag = match kind {
        SegmentKind::Set => SET_FLAG,
        SegmentKind::Sequence => 0,
    };
    Asn(flag | count as u32)
}

/// An AS path: the ordered list of segments carried in the AS_PATH
/// attribute.
///
/// The whole path is one shared slice: each segment is a header word (its
/// kind and ASN count) followed by its ASNs. A path is therefore one
/// allocation, and cloning it — and with it a route, an attribute set or
/// an UPDATE — shares that allocation instead of copying it. Segment
/// boundaries are kept as built or decoded (an empty segment included).
/// Equality and hashing are by content.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct AsPath {
    /// `None` for the path without segments, which needs no allocation.
    words: Option<Arc<[Asn]>>,
}

impl AsPath {
    /// An empty path (as originated by the local AS before export).
    pub fn empty() -> Self {
        AsPath { words: None }
    }

    /// Builds a path consisting of a single sequence.
    pub fn from_sequence(asns: impl IntoIterator<Item = u32>) -> Self {
        let mut words = vec![Asn(0)];
        words.extend(asns.into_iter().map(Asn));
        words[0] = segment_header(SegmentKind::Sequence, words.len() - 1);
        AsPath::from_words(words.into())
    }

    /// Wraps header-and-ASN words already laid out as [`AsPath`] keeps
    /// them.
    pub(crate) fn from_words(words: Arc<[Asn]>) -> Self {
        AsPath {
            words: (!words.is_empty()).then_some(words),
        }
    }

    /// The path segments in order, each as its kind and its ASNs.
    pub fn segments(&self) -> impl Iterator<Item = (SegmentKind, &[Asn])> + Clone + '_ {
        let mut words = self.words.as_deref().unwrap_or(&[]);
        std::iter::from_fn(move || {
            let (header, rest) = words.split_first()?;
            let kind = if header.0 & SET_FLAG != 0 {
                SegmentKind::Set
            } else {
                SegmentKind::Sequence
            };
            let (asns, rest) = rest.split_at((header.0 & !SET_FLAG) as usize);
            words = rest;
            Some((kind, asns))
        })
    }

    /// The length used by the decision process (AS_SET counts as 1).
    pub fn length(&self) -> usize {
        self.segments()
            .map(|(kind, asns)| match kind {
                SegmentKind::Sequence => asns.len(),
                SegmentKind::Set => usize::from(!asns.is_empty()),
            })
            .sum()
    }

    /// The origin AS: the last ASN of the last sequence segment, which is
    /// the AS that originated the route. Returns `None` for empty paths or
    /// paths ending in an AS_SET.
    pub fn origin_as(&self) -> Option<Asn> {
        match self.segments().last()? {
            (SegmentKind::Sequence, asns) => asns.last().copied(),
            (SegmentKind::Set, _) => None,
        }
    }

    /// The neighbor AS: the first ASN on the path (the AS the route was
    /// learned from).
    pub fn neighbor_as(&self) -> Option<Asn> {
        self.segments()
            .next()
            .and_then(|(_, asns)| asns.first().copied())
    }

    /// Returns true if the path visits `asn` anywhere (loop detection).
    pub fn contains(&self, asn: Asn) -> bool {
        self.segments().any(|(_, asns)| asns.contains(&asn))
    }

    /// Returns a new path with `asn` prepended `count` times, as performed
    /// when exporting a route to an eBGP peer.
    pub fn prepend(&self, asn: Asn, count: usize) -> AsPath {
        let old = self.words.as_deref().unwrap_or(&[]);
        // A leading sequence grows in front; anything else gets a new
        // sequence before it. Either way the words are written straight
        // into the one shared slice.
        let (first_len, rest) = match self.segments().next() {
            Some((SegmentKind::Sequence, first)) => (first.len(), &old[1..]),
            _ => (0, old),
        };
        let header = segment_header(SegmentKind::Sequence, count + first_len);
        let words: Arc<[Asn]> = std::iter::once(header)
            .chain(std::iter::repeat_n(asn, count))
            .chain(rest.iter().copied())
            .collect();
        AsPath::from_words(words)
    }

    /// Flattens the path into a list of ASNs, ignoring segment structure.
    pub fn flatten(&self) -> Vec<Asn> {
        self.segments()
            .flat_map(|(_, asns)| asns.iter().copied())
            .collect()
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.segments()).finish()
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (kind, asns) in self.segments() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            let parts: Vec<String> = asns.iter().map(|a| a.0.to_string()).collect();
            match kind {
                SegmentKind::Sequence => write!(f, "{}", parts.join(" "))?,
                SegmentKind::Set => write!(f, "{{{}}}", parts.join(","))?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path with the given segments, boundaries kept.
    fn path(segments: &[(SegmentKind, &[u32])]) -> AsPath {
        let words: Vec<Asn> = segments
            .iter()
            .flat_map(|&(kind, asns)| {
                std::iter::once(segment_header(kind, asns.len()))
                    .chain(asns.iter().map(|&a| Asn(a)))
            })
            .collect();
        AsPath::from_words(words.into())
    }

    use SegmentKind::{Sequence, Set};

    #[test]
    fn asn_display_and_private_ranges() {
        assert_eq!(Asn(3356).to_string(), "AS3356");
        assert_eq!(Asn::from(17557).value(), 17557);
    }

    #[test]
    fn path_length_counts_sets_as_one() {
        let path = path(&[(Sequence, &[1, 2, 3]), (Set, &[10, 11])]);
        assert_eq!(path.length(), 4);
        assert_eq!(AsPath::empty().length(), 0);
        assert_eq!(AsPath::empty().segments().count(), 0);
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
    fn segments_keep_their_boundaries_and_headers_are_not_asns() {
        let split = path(&[
            (Sequence, &[100, 200]),
            (Sequence, &[300]),
            (Set, &[]),
            (Set, &[400, 500]),
        ]);
        let segments: Vec<_> = split.segments().collect();
        assert_eq!(
            segments,
            [
                (Sequence, &[Asn(100), Asn(200)][..]),
                (Sequence, &[Asn(300)][..]),
                (Set, &[][..]),
                (Set, &[Asn(400), Asn(500)][..]),
            ]
        );
        assert_eq!(split.flatten(), [100, 200, 300, 400, 500].map(Asn));
        assert_eq!(split.length(), 4);
        assert_eq!(split.origin_as(), None, "a path ending in a set");
        // Two segments of one kind are not the sequence they would join
        // into, and no header word reads as a member ASN.
        assert_ne!(
            split,
            path(&[(Sequence, &[100, 200, 300]), (Set, &[]), (Set, &[400, 500])])
        );
        for (kind, count) in [(Sequence, 2), (Sequence, 1), (Set, 0), (Set, 2)] {
            assert!(!split.contains(segment_header(kind, count)));
        }
        assert_eq!(split.to_string(), "100 200 300 {} {400,500}");
        assert_eq!(
            format!("{split:?}"),
            "[(Sequence, [Asn(100), Asn(200)]), (Sequence, [Asn(300)]), (Set, []), \
             (Set, [Asn(400), Asn(500)])]"
        );
    }

    #[test]
    fn prepend_builds_new_first_segment_when_needed() {
        let path1 = AsPath::empty().prepend(Asn(65001), 1);
        assert_eq!(path1.flatten(), vec![Asn(65001)]);
        let longer = path1.prepend(Asn(65001), 2);
        assert_eq!(longer.length(), 3);
        assert_eq!(longer.origin_as(), Some(Asn(65001)));

        // A leading set gets a sequence in front of it; later segments
        // follow unchanged.
        let set_first = path(&[(Set, &[10, 11]), (Sequence, &[20])]);
        assert_eq!(
            set_first.prepend(Asn(1), 2),
            path(&[(Sequence, &[1, 1]), (Set, &[10, 11]), (Sequence, &[20])])
        );
        // A leading sequence grows in place; the set after it stays.
        let sequence_first = path(&[(Sequence, &[20]), (Set, &[10])]);
        assert_eq!(
            sequence_first.prepend(Asn(1), 1),
            path(&[(Sequence, &[1, 20]), (Set, &[10])])
        );
        // Prepending nothing to a path without segments still opens one.
        assert_eq!(AsPath::empty().prepend(Asn(1), 0), path(&[(Sequence, &[])]));
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
        let words = |path: &AsPath| path.words.as_deref().map(<[Asn]>::as_ptr);
        let path1 = AsPath::from_sequence([3491, 17557]);
        let shared = path1.clone();
        assert_eq!(words(&path1), words(&shared));

        // Prepending to a shared path builds a new one.
        let longer = shared.prepend(Asn(1299), 2);
        assert_eq!(
            longer.flatten(),
            [Asn(1299), Asn(1299), Asn(3491), Asn(17557)]
        );
        assert_eq!(path1.flatten(), [Asn(3491), Asn(17557)]);
        assert_eq!(shared, path1);

        // A path built separately is equal and hashes alike; sharing is
        // not identity.
        let rebuilt = path(&[(Sequence, &[3491, 17557])]);
        assert_ne!(words(&path1), words(&rebuilt));
        assert_eq!(rebuilt, path1);
        assert_eq!(hash(&rebuilt), hash(&path1));
        assert_ne!(longer, path1);
        assert_eq!(path(&[]), AsPath::empty());
        assert_eq!(hash(&path(&[])), hash(&AsPath::default()));
    }

    #[test]
    fn display_formats_sets_with_braces() {
        let path = path(&[(Sequence, &[1, 2]), (Set, &[3, 4])]);
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

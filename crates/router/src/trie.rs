//! A copy-on-write sorted map over IPv4 prefixes.
//!
//! The map backs the routing tables: exact-match insertion/removal per
//! prefix plus longest-prefix match for forwarding lookups and covering-
//! prefix queries (used by the hijack checker to find the route an
//! exploratory announcement would override).
//!
//! A prefix is keyed by `(addr << 8) | len`. Host bits are zero, so the
//! integer order of the keys is the canonical table order — lexicographic
//! over prefix bit strings, a prefix before everything it covers — that a
//! pre-order walk of a binary trie would yield and every digest depends
//! on. Entries sit in sorted chunks of at most `CAP` behind [`Arc`]s,
//! with a directory of each chunk's first key: an exact-match operation is
//! two binary searches, iteration is a chain of slices, `clone` is one
//! reference-count bump per chunk, and the first write after a fork copies
//! one chunk.

use std::sync::Arc;

use dice_bgp::prefix::Ipv4Prefix;

/// Most entries a chunk holds. A chunk this full splits in half on the
/// next insert (or, at the end of the table, is left full and followed by
/// a new one); a chunk under a quarter of it merges into a neighbour.
const CAP: usize = 128;

fn pack(prefix: &Ipv4Prefix) -> u64 {
    (u64::from(prefix.addr()) << 8) | u64::from(prefix.len())
}

fn unpack(key: u64) -> Ipv4Prefix {
    Ipv4Prefix::must((key >> 8) as u32, key as u8)
}

/// A sorted run of entries, keys apart from values so a search touches
/// only keys.
#[derive(Debug, Clone)]
struct Chunk<T> {
    keys: Vec<u64>,
    vals: Vec<T>,
}

/// A map from IPv4 prefixes to values with longest-prefix-match queries.
///
/// # Examples
///
/// ```
/// use dice_router::PrefixMap;
/// use dice_bgp::prefix::Ipv4Prefix;
///
/// let mut map = PrefixMap::new();
/// map.insert("10.0.0.0/8".parse().unwrap(), "coarse");
/// map.insert("10.1.0.0/16".parse().unwrap(), "fine");
/// let (p, v) = map.longest_match_ip(0x0a01_0203).unwrap();
/// assert_eq!(p.to_string(), "10.1.0.0/16");
/// assert_eq!(*v, "fine");
/// ```
#[derive(Debug, Clone)]
pub struct PrefixMap<T> {
    /// The first key of each chunk.
    dir: Vec<u64>,
    /// Non-empty chunks of at most `CAP` entries, in key order.
    chunks: Vec<Arc<Chunk<T>>>,
    len: usize,
}

impl<T> Default for PrefixMap<T> {
    fn default() -> Self {
        PrefixMap {
            dir: Vec::new(),
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> PrefixMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if the map stores no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Where a search for `key` ends: the chunk whose range holds it (the
    /// last one starting at or before it, or the first), and the slot that
    /// holds the key or the slot it would take.
    fn search(&self, key: u64) -> (usize, Result<usize, usize>) {
        let starts_at_or_before = self.dir.partition_point(|&first| first <= key);
        let ci = starts_at_or_before.saturating_sub(1);
        match self.chunks.get(ci) {
            Some(chunk) => (ci, chunk.keys.binary_search(&key)),
            None => (0, Err(0)),
        }
    }

    /// The greatest entry at or before `key` in table order.
    fn floor(&self, key: u64) -> Option<(u64, &T)> {
        let (ci, found) = self.search(key);
        let i = match found {
            Ok(i) => i,
            // Slot 0 only when `key` sorts before every entry.
            Err(i) => i.checked_sub(1)?,
        };
        let chunk = &self.chunks[ci];
        Some((chunk.keys[i], &chunk.vals[i]))
    }

    /// Returns the value stored for exactly this prefix.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&T> {
        let (ci, Ok(i)) = self.search(pack(prefix)) else {
            return None;
        };
        Some(&self.chunks[ci].vals[i])
    }

    /// The most specific stored prefix covering the first `len` bits of
    /// `addr`.
    ///
    /// Everything between a prefix and one of its descendants in key order
    /// is also its descendant, so whatever covers the query also covers
    /// the query's floor entry: when the floor itself is not the answer,
    /// the answer is no longer than what the floor and the query share.
    /// Each miss therefore strictly shortens the query, and the search
    /// ends within 33 probes (in a real table, two or three).
    fn covering(&self, addr: u32, mut len: u8) -> Option<(Ipv4Prefix, &T)> {
        loop {
            let query = Ipv4Prefix::must(addr, len);
            let (key, value) = self.floor(pack(&query))?;
            let floor = unpack(key);
            let shared = ((floor.addr() ^ query.addr()).leading_zeros() as u8)
                .min(floor.len())
                .min(len);
            if shared == floor.len() {
                return Some((floor, value));
            }
            len = shared;
        }
    }

    /// Longest-prefix match for a single IP address.
    pub fn longest_match_ip(&self, ip: u32) -> Option<(Ipv4Prefix, &T)> {
        self.covering(ip, 32)
    }

    /// The most specific stored prefix that covers `prefix` (including an
    /// exact match). This is the route an announcement for `prefix` would
    /// compete with or override.
    pub fn longest_covering(&self, prefix: &Ipv4Prefix) -> Option<(Ipv4Prefix, &T)> {
        self.covering(prefix.addr(), prefix.len())
    }

    /// The most specific *strictly less specific* stored prefix covering
    /// `prefix` (excludes an exact match).
    pub fn closest_ancestor(&self, prefix: &Ipv4Prefix) -> Option<(Ipv4Prefix, &T)> {
        self.covering(prefix.addr(), prefix.len().checked_sub(1)?)
    }

    /// Iterates over all `(prefix, value)` pairs in canonical table order,
    /// lazily: a full routing table streams straight out of the chunks.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            chunks: self.chunks.iter(),
            current: <[u64]>::iter(&[]).zip(<[T]>::iter(&[])),
        }
    }
}

impl<T: Clone> PrefixMap<T> {
    /// Returns a mutable reference to the value stored for this prefix.
    pub fn get_mut(&mut self, prefix: &Ipv4Prefix) -> Option<&mut T> {
        let (ci, Ok(i)) = self.search(pack(prefix)) else {
            return None;
        };
        Some(&mut Arc::make_mut(&mut self.chunks[ci]).vals[i])
    }

    /// Inserts or replaces the value for a prefix, returning the previous
    /// value if any.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let mut value = Some(value);
        let (slot, _) = self.get_or_insert_with(prefix, || value.take().expect("made once"));
        // Still here: the prefix was present, and `make` never ran.
        value.map(|value| std::mem::replace(slot, value))
    }

    /// Returns the value stored for this prefix, first inserting `make()`
    /// if there is none, and whether that insert happened — one search
    /// where `get` → `insert` → `get_mut` would take three.
    pub fn get_or_insert_with(
        &mut self,
        prefix: Ipv4Prefix,
        make: impl FnOnce() -> T,
    ) -> (&mut T, bool) {
        let key = pack(&prefix);
        let (ci, found) = self.search(key);
        let (ci, i) = match found {
            Ok(i) => (ci, i),
            Err(i) => self.insert_at(ci, i, key, make()),
        };
        let slot = &mut Arc::make_mut(&mut self.chunks[ci]).vals[i];
        (slot, found.is_err())
    }

    /// Inserts a new entry at slot `i` of chunk `ci` (the place a search
    /// for `key` ended) and returns where it landed.
    fn insert_at(&mut self, mut ci: usize, mut i: usize, key: u64, value: T) -> (usize, usize) {
        self.len += 1;
        let full = self.chunks.get(ci).is_some_and(|c| c.keys.len() == CAP);
        if self.chunks.is_empty() || (full && i == CAP && ci + 1 == self.chunks.len()) {
            // The first entry of the map, or one past a full last chunk: an
            // in-order load leaves its chunks full instead of splitting
            // every one of them in half.
            self.dir.push(key);
            self.chunks.push(Arc::new(Chunk {
                keys: vec![key],
                vals: vec![value],
            }));
            return (self.chunks.len() - 1, 0);
        }
        if full {
            let chunk = Arc::make_mut(&mut self.chunks[ci]);
            let upper = Chunk {
                keys: chunk.keys.split_off(CAP / 2),
                vals: chunk.vals.split_off(CAP / 2),
            };
            self.dir.insert(ci + 1, upper.keys[0]);
            self.chunks.insert(ci + 1, Arc::new(upper));
            if i > CAP / 2 {
                ci += 1;
                i -= CAP / 2;
            }
        }
        let chunk = Arc::make_mut(&mut self.chunks[ci]);
        chunk.keys.insert(i, key);
        chunk.vals.insert(i, value);
        if i == 0 {
            self.dir[ci] = key;
        }
        (ci, i)
    }

    /// Removes a prefix, returning its value. A chunk the removal empties
    /// is dropped, and one it leaves under a quarter full merges into a
    /// neighbour when the two fit in one chunk, so a table that shrinks
    /// gives its chunks back.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<T> {
        let (ci, Ok(i)) = self.search(pack(prefix)) else {
            return None;
        };
        let chunk = Arc::make_mut(&mut self.chunks[ci]);
        chunk.keys.remove(i);
        let value = chunk.vals.remove(i);
        self.len -= 1;
        match chunk.keys.first() {
            None => {
                self.dir.remove(ci);
                self.chunks.remove(ci);
            }
            Some(&first) => {
                self.dir[ci] = first;
                if chunk.keys.len() < CAP / 4 {
                    self.merge_into_neighbour(ci);
                }
            }
        }
        Some(value)
    }

    /// Joins chunk `ci` with its left neighbour, or else its right one,
    /// if the pair fits in one chunk.
    fn merge_into_neighbour(&mut self, ci: usize) {
        let fits = |left: usize| {
            self.chunks
                .get(left + 1)
                .is_some_and(|right| self.chunks[left].keys.len() + right.keys.len() <= CAP)
        };
        let left = match ci.checked_sub(1) {
            Some(left) if fits(left) => left,
            _ if fits(ci) => ci,
            _ => return,
        };
        self.dir.remove(left + 1);
        let right = self.chunks.remove(left + 1);
        let right = Arc::try_unwrap(right).unwrap_or_else(|shared| Chunk::clone(&shared));
        let into = Arc::make_mut(&mut self.chunks[left]);
        into.keys.extend(right.keys);
        into.vals.extend(right.vals);
    }
}

/// Lazy in-order iterator over a [`PrefixMap`], returned by
/// [`PrefixMap::iter`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    chunks: std::slice::Iter<'a, Arc<Chunk<T>>>,
    current: std::iter::Zip<std::slice::Iter<'a, u64>, std::slice::Iter<'a, T>>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (Ipv4Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((&key, value)) = self.current.next() {
                return Some((unpack(key), value));
            }
            let chunk = self.chunks.next()?;
            self.current = chunk.keys.iter().zip(&chunk.vals);
        }
    }
}

impl<'a, T> IntoIterator for &'a PrefixMap<T> {
    type Item = (Ipv4Prefix, &'a T);
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
impl<T> PrefixMap<T> {
    /// Panics unless the directory and the chunks are what the module docs
    /// say: one directory entry per chunk holding its first key, no empty
    /// chunk, none over `CAP`, keys strictly ascending throughout.
    fn assert_well_formed(&self) {
        assert_eq!(self.dir.len(), self.chunks.len());
        let mut previous = None;
        let mut total = 0;
        for (first, chunk) in self.dir.iter().zip(&self.chunks) {
            assert!(!chunk.keys.is_empty(), "empty chunk");
            assert!(chunk.keys.len() <= CAP, "chunk over CAP");
            assert_eq!(chunk.keys.len(), chunk.vals.len());
            assert_eq!(*first, chunk.keys[0], "stale directory entry");
            for &key in &chunk.keys {
                assert!(previous < Some(key), "keys out of order");
                previous = Some(key);
            }
            total += chunk.keys.len();
        }
        assert_eq!(total, self.len);
    }

    /// `(shared, total)`: how many of this map's chunks `other` holds too
    /// (the same allocation, not equal contents).
    pub(crate) fn chunks_shared_with(&self, other: &Self) -> (usize, usize) {
        let shared = self
            .chunks
            .iter()
            .filter(|mine| other.chunks.iter().any(|theirs| Arc::ptr_eq(mine, theirs)))
            .count();
        (shared, self.chunks.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().expect("valid prefix")
    }

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixMap::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(&p("10.0.0.0/9")), None);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(2));
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixMap::new();
        t.insert(p("0.0.0.0/0"), "default");
        let (matched, v) = t.longest_match_ip(0xc0a8_0101).expect("match");
        assert_eq!(matched, p("0.0.0.0/0"));
        assert_eq!(*v, "default");
    }

    #[test]
    fn longest_match_prefers_specific() {
        let mut t = PrefixMap::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.1.2.0/24"), 24);
        let ip = u32::from_be_bytes([10, 1, 2, 3]);
        assert_eq!(t.longest_match_ip(ip).map(|(_, v)| *v), Some(24));
        let ip2 = u32::from_be_bytes([10, 1, 9, 9]);
        assert_eq!(t.longest_match_ip(ip2).map(|(_, v)| *v), Some(16));
        let ip3 = u32::from_be_bytes([10, 200, 0, 1]);
        assert_eq!(t.longest_match_ip(ip3).map(|(_, v)| *v), Some(8));
        let ip4 = u32::from_be_bytes([192, 168, 0, 1]);
        assert_eq!(t.longest_match_ip(ip4).map(|(_, v)| *v), Some(0));
    }

    #[test]
    fn covering_and_ancestor_queries() {
        let mut t = PrefixMap::new();
        t.insert(p("208.65.152.0/22"), "youtube-agg");
        t.insert(p("208.65.153.0/24"), "youtube-24");
        // Exact match is a covering prefix...
        assert_eq!(
            t.longest_covering(&p("208.65.153.0/24")).map(|(q, _)| q),
            Some(p("208.65.153.0/24"))
        );
        // ...but not an ancestor.
        assert_eq!(
            t.closest_ancestor(&p("208.65.153.0/24")).map(|(q, _)| q),
            Some(p("208.65.152.0/22"))
        );
        // A more specific /25 is covered by the /24.
        assert_eq!(
            t.longest_covering(&p("208.65.153.128/25")).map(|(q, _)| q),
            Some(p("208.65.153.0/24"))
        );
        // Unrelated prefixes have no ancestor.
        assert_eq!(t.closest_ancestor(&p("1.2.3.0/24")), None);
    }

    #[test]
    fn iter_returns_all_prefixes() {
        let mut t = PrefixMap::new();
        let prefixes = ["10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/16", "0.0.0.0/0"];
        for (i, s) in prefixes.iter().enumerate() {
            t.insert(p(s), i);
        }
        assert_eq!(t.iter().count(), 4);
        let mut names: Vec<String> = t.iter().map(|(q, _)| q.to_string()).collect();
        names.sort();
        assert!(names.contains(&"10.1.0.0/16".to_string()));
    }

    #[test]
    fn iter_is_lazy_preorder_and_reentrant() {
        let mut t = PrefixMap::new();
        t.insert(p("0.0.0.0/0"), "root");
        t.insert(p("10.0.0.0/8"), "left");
        t.insert(p("128.0.0.0/1"), "right");
        t.insert(p("10.1.0.0/16"), "left-deep");
        // Table order: a prefix before what it covers, 0-bit before 1-bit.
        let order: Vec<&str> = t.iter().map(|(_, v)| *v).collect();
        assert_eq!(order, vec!["root", "left", "left-deep", "right"]);
        // IntoIterator on a reference allows plain `for` loops.
        let mut count = 0;
        for (_, _) in &t {
            count += 1;
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn host_routes_work() {
        let mut t = PrefixMap::new();
        t.insert(p("1.2.3.4/32"), "host");
        assert_eq!(
            t.longest_match_ip(0x01020304).map(|(_, v)| *v),
            Some("host")
        );
        assert_eq!(t.longest_match_ip(0x01020305), None);
        assert_eq!(t.get(&p("1.2.3.4/32")), Some(&"host"));
    }

    #[test]
    fn get_mut_allows_in_place_updates() {
        let mut t = PrefixMap::new();
        t.insert(p("10.0.0.0/8"), vec![1]);
        t.get_mut(&p("10.0.0.0/8")).expect("present").push(2);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&vec![1, 2]));
    }

    #[test]
    fn get_or_insert_with_reports_inserts_and_keeps_len() {
        let mut t: PrefixMap<Vec<u32>> = PrefixMap::new();
        let (v, inserted) = t.get_or_insert_with(p("10.0.0.0/8"), Vec::new);
        assert!(inserted);
        v.push(1);
        let (v, inserted) = t.get_or_insert_with(p("10.0.0.0/8"), || unreachable!("present"));
        assert!(!inserted);
        v.push(2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&vec![1, 2]));
        // A prefix that covers a stored one is still a key of its own.
        assert!(t.get_or_insert_with(p("10.0.0.0/7"), Vec::new).1);
        assert!(t.get_or_insert_with(p("0.0.0.0/0"), Vec::new).1);
        assert_eq!(t.len(), 3);
        assert_eq!(t.iter().count(), 3);
    }

    /// `n` distinct /24s in table order.
    fn slash24s(n: u32) -> Vec<Ipv4Prefix> {
        (0..n).map(|i| Ipv4Prefix::must(i << 8, 24)).collect()
    }

    /// A fixed permutation of `0..n` (`n` a power of two).
    fn shuffled(n: u32) -> impl Iterator<Item = u32> {
        (0..n).map(move |i| i.wrapping_mul(2_654_435_761).wrapping_add(12_345) % n)
    }

    #[test]
    fn chunks_keep_their_shape_under_churn() {
        let pool = slash24s(1024);
        let mut t = PrefixMap::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for step in 0..20_000u32 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let prefix = pool[(state >> 20) as usize % pool.len()];
            // Mostly inserts at first, mostly removals later, so the table
            // grows through splits and shrinks through merges.
            if (state >> 8) % 100 < if step < 10_000 { 70 } else { 30 } {
                t.insert(prefix, step);
            } else {
                t.remove(&prefix);
            }
            t.assert_well_formed();
        }
        assert!(t.chunks.len() > 1, "the pool spans several chunks");
    }

    #[test]
    fn in_order_load_leaves_chunks_full() {
        let mut t = PrefixMap::new();
        for (i, prefix) in slash24s(10 * CAP as u32).into_iter().enumerate() {
            t.insert(prefix, i);
        }
        t.assert_well_formed();
        assert_eq!(t.chunks.len(), 10);
        assert!(t.chunks.iter().all(|c| c.keys.len() == CAP));
        // Anywhere else a full chunk splits in half.
        t.insert(Ipv4Prefix::must(5 << 8, 25), 0);
        t.assert_well_formed();
        let sizes: Vec<usize> = t.chunks.iter().map(|c| c.keys.len()).collect();
        assert_eq!(sizes[..2], [CAP / 2 + 1, CAP / 2]);
        assert_eq!(sizes.len(), 11);
    }

    #[test]
    fn small_chunk_merges_into_a_neighbour_when_the_two_fit() {
        let prefixes = slash24s(3 * CAP as u32);
        let mut t = PrefixMap::new();
        for prefix in &prefixes {
            t.insert(*prefix, ());
        }
        assert_eq!(t.chunks.len(), 3);
        // The middle chunk shrinks under a quarter, but both neighbours
        // are full: nothing fits, nothing merges.
        for prefix in &prefixes[CAP..2 * CAP - 10] {
            t.remove(prefix);
        }
        t.assert_well_formed();
        assert_eq!(t.chunks.len(), 3);
        // The first chunk merges with it as soon as it is under a quarter
        // itself, and what they make does not fit the full third one.
        for (removed, prefix) in prefixes[..CAP - 10].iter().enumerate() {
            let merged = CAP - removed < CAP / 4;
            assert_eq!(t.chunks.len(), if merged { 2 } else { 3 });
            t.remove(prefix);
        }
        t.assert_well_formed();
        let sizes: Vec<usize> = t.chunks.iter().map(|c| c.keys.len()).collect();
        assert_eq!(sizes, [20, CAP]);
        assert_eq!(t.len(), 20 + CAP);
        // Emptying a chunk that never fitted a neighbour drops it.
        for prefix in &prefixes[CAP - 10..CAP] {
            t.remove(prefix);
        }
        for prefix in &prefixes[2 * CAP - 10..2 * CAP] {
            t.remove(prefix);
        }
        t.assert_well_formed();
        assert_eq!(t.chunks.len(), 1);
    }

    #[test]
    fn shrinking_table_gives_its_chunks_back() {
        let prefixes = slash24s(16_384);
        let mut t = PrefixMap::new();
        for i in shuffled(16_384).take(10_000) {
            t.insert(prefixes[i as usize], i);
        }
        assert_eq!(t.len(), 10_000);
        assert!(t.chunks.len() >= 10_000 / CAP);
        let survivors: Vec<u32> = shuffled(16_384).take(10_000).step_by(1_000).collect();
        for i in shuffled(16_384).take(10_000) {
            if !survivors.contains(&i) {
                assert_eq!(t.remove(&prefixes[i as usize]), Some(i));
            }
        }
        t.assert_well_formed();
        assert_eq!(t.len(), 10);
        assert!(
            t.chunks.len() <= 2,
            "{} chunks for ten entries",
            t.chunks.len()
        );
        let mut left: Vec<u32> = t.iter().map(|(_, v)| *v).collect();
        left.sort_unstable();
        let mut expected = survivors;
        expected.sort_unstable();
        assert_eq!(left, expected);
    }

    #[test]
    fn clone_shares_every_chunk_and_a_write_copies_one() {
        let prefixes = slash24s(10 * CAP as u32);
        let mut t = PrefixMap::new();
        for (i, prefix) in prefixes.iter().enumerate() {
            t.insert(*prefix, i);
        }
        let fork = t.clone();
        assert_eq!(t.chunks_shared_with(&fork), (10, 10));
        *t.get_mut(&prefixes[3 * CAP]).expect("present") = 0;
        assert_eq!(t.chunks_shared_with(&fork), (9, 10));
        assert_eq!(fork.get(&prefixes[3 * CAP]), Some(&(3 * CAP)));
        // A split copies the chunk it splits and nothing else.
        t.insert(Ipv4Prefix::must(5 << 8, 25), 0);
        assert_eq!(t.chunks_shared_with(&fork), (8, 11));
        t.remove(&prefixes[9 * CAP]);
        assert_eq!(t.chunks_shared_with(&fork), (7, 11));
        fork.assert_well_formed();
        assert_eq!(fork.len(), 10 * CAP);
        assert!(fork.iter().map(|(_, v)| *v).eq(0..10 * CAP));
    }
}

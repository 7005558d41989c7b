//! A binary radix trie over IPv4 prefixes.
//!
//! The trie backs the routing tables: exact-match insertion/removal per
//! prefix plus longest-prefix match for forwarding lookups and covering-
//! prefix queries (used by the hijack checker to find the route an
//! exploratory announcement would override).

use dice_bgp::prefix::Ipv4Prefix;

/// A node in the binary trie.
#[derive(Debug, Clone)]
struct Node<T> {
    value: Option<T>,
    children: [Option<Box<Node<T>>>; 2],
}

impl<T> Default for Node<T> {
    fn default() -> Self {
        Node {
            value: None,
            children: [None, None],
        }
    }
}

/// A map from IPv4 prefixes to values with longest-prefix-match queries.
///
/// # Examples
///
/// ```
/// use dice_router::trie::PrefixTrie;
/// use dice_bgp::prefix::Ipv4Prefix;
///
/// let mut trie = PrefixTrie::new();
/// trie.insert("10.0.0.0/8".parse().unwrap(), "coarse");
/// trie.insert("10.1.0.0/16".parse().unwrap(), "fine");
/// let (p, v) = trie.longest_match_ip(0x0a01_0203).unwrap();
/// assert_eq!(p.to_string(), "10.1.0.0/16");
/// assert_eq!(*v, "fine");
/// ```
#[derive(Debug, Clone)]
pub struct PrefixTrie<T> {
    root: Node<T>,
    len: usize,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        PrefixTrie {
            root: Node::default(),
            len: 0,
        }
    }
}

impl<T> PrefixTrie<T> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if the trie stores no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts or replaces the value for a prefix, returning the previous
    /// value if any.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let bit = prefix.bit(i) as usize;
            node = node.children[bit].get_or_insert_with(Box::default);
        }
        let prev = node.value.replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Returns the value stored for exactly this prefix.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&T> {
        let mut node = &self.root;
        for i in 0..prefix.len() {
            let bit = prefix.bit(i) as usize;
            node = node.children[bit].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Returns a mutable reference to the value stored for this prefix.
    pub fn get_mut(&mut self, prefix: &Ipv4Prefix) -> Option<&mut T> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let bit = prefix.bit(i) as usize;
            node = node.children[bit].as_deref_mut()?;
        }
        node.value.as_mut()
    }

    /// Returns the value stored for this prefix, first inserting `make()`
    /// if there is none, and whether that insert happened — one walk where
    /// `get` → `insert` → `get_mut` would take three.
    pub fn get_or_insert_with(
        &mut self,
        prefix: Ipv4Prefix,
        make: impl FnOnce() -> T,
    ) -> (&mut T, bool) {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let bit = prefix.bit(i) as usize;
            node = node.children[bit].get_or_insert_with(Box::default);
        }
        let inserted = node.value.is_none();
        if inserted {
            self.len += 1;
        }
        (node.value.get_or_insert_with(make), inserted)
    }

    /// Removes a prefix, returning its value. Nodes the removal leaves with
    /// neither a value nor a child are freed on the way back up, so a
    /// withdrawn prefix costs later walks and copies nothing.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<T> {
        let prev = Self::remove_below(&mut self.root, prefix, 0)?;
        self.len -= 1;
        Some(prev)
    }

    /// Removes `prefix` from the subtree under `node` (which sits at
    /// `depth`), pruning every child the removal empties.
    fn remove_below(node: &mut Node<T>, prefix: &Ipv4Prefix, depth: u8) -> Option<T> {
        if depth == prefix.len() {
            return node.value.take();
        }
        let slot = &mut node.children[prefix.bit(depth) as usize];
        let child = slot.as_deref_mut()?;
        let prev = Self::remove_below(child, prefix, depth + 1)?;
        if child.value.is_none() && child.children.iter().all(Option::is_none) {
            *slot = None;
        }
        Some(prev)
    }

    /// Longest-prefix match for a single IP address.
    pub fn longest_match_ip(&self, ip: u32) -> Option<(Ipv4Prefix, &T)> {
        let mut best: Option<(Ipv4Prefix, &T)> = None;
        let mut node = &self.root;
        let mut depth: u8 = 0;
        loop {
            if let Some(v) = &node.value {
                let p = Ipv4Prefix::new(ip, depth).expect("depth <= 32");
                best = Some((p, v));
            }
            if depth >= 32 {
                break;
            }
            let bit = ((ip >> (31 - depth)) & 1) as usize;
            match node.children[bit].as_deref() {
                Some(child) => {
                    node = child;
                    depth += 1;
                }
                None => break,
            }
        }
        best
    }

    /// The most specific stored prefix that covers `prefix` (including an
    /// exact match). This is the route an announcement for `prefix` would
    /// compete with or override.
    pub fn longest_covering(&self, prefix: &Ipv4Prefix) -> Option<(Ipv4Prefix, &T)> {
        let mut best: Option<(Ipv4Prefix, &T)> = None;
        let mut node = &self.root;
        let mut depth: u8 = 0;
        loop {
            if let Some(v) = &node.value {
                let p = Ipv4Prefix::new(prefix.addr(), depth).expect("depth <= 32");
                best = Some((p, v));
            }
            if depth >= prefix.len() {
                break;
            }
            let bit = prefix.bit(depth) as usize;
            match node.children[bit].as_deref() {
                Some(child) => {
                    node = child;
                    depth += 1;
                }
                None => break,
            }
        }
        best
    }

    /// The most specific *strictly less specific* stored prefix covering
    /// `prefix` (excludes an exact match).
    pub fn closest_ancestor(&self, prefix: &Ipv4Prefix) -> Option<(Ipv4Prefix, &T)> {
        match self.longest_covering(prefix) {
            Some((p, v)) if p != *prefix => Some((p, v)),
            Some(_) => {
                // Walk again, stopping one bit short of the exact match.
                let mut best: Option<(Ipv4Prefix, &T)> = None;
                let mut node = &self.root;
                for depth in 0..prefix.len() {
                    if let Some(v) = &node.value {
                        let p = Ipv4Prefix::new(prefix.addr(), depth).expect("depth < 32");
                        best = Some((p, v));
                    }
                    let bit = prefix.bit(depth) as usize;
                    match node.children[bit].as_deref() {
                        Some(child) => node = child,
                        None => return best,
                    }
                }
                best
            }
            None => None,
        }
    }

    /// Iterates over all `(prefix, value)` pairs in depth-first
    /// (pre-order) order, lazily: no intermediate `Vec` is materialized,
    /// so walking a full routing table streams straight out of the trie.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            // A /32 path is 33 nodes deep; 40 slots avoid regrowth.
            stack: {
                let mut stack = Vec::with_capacity(40);
                stack.push((&self.root, 0u32, 0u8));
                stack
            },
        }
    }
}

#[cfg(test)]
impl<T> PrefixTrie<T> {
    /// Allocated nodes below the root (structural size, for prune tests).
    fn node_count(&self) -> usize {
        fn below<T>(node: &Node<T>) -> usize {
            node.children
                .iter()
                .flatten()
                .map(|child| 1 + below(child))
                .sum()
        }
        below(&self.root)
    }
}

/// Lazy depth-first iterator over a [`PrefixTrie`], returned by
/// [`PrefixTrie::iter`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    /// Nodes still to visit, as `(node, accumulated address bits, depth)`.
    stack: Vec<(&'a Node<T>, u32, u8)>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (Ipv4Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((node, addr, depth)) = self.stack.pop() {
            if depth < 32 {
                // Right child pushed first so the left subtree pops first,
                // matching pre-order.
                if let Some(child) = node.children[1].as_deref() {
                    self.stack
                        .push((child, addr | (1 << (31 - depth)), depth + 1));
                }
                if let Some(child) = node.children[0].as_deref() {
                    self.stack.push((child, addr, depth + 1));
                }
            }
            if let Some(v) = &node.value {
                return Some((Ipv4Prefix::new(addr, depth).expect("depth <= 32"), v));
            }
        }
        None
    }
}

impl<'a, T> IntoIterator for &'a PrefixTrie<T> {
    type Item = (Ipv4Prefix, &'a T);
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
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
        let mut t = PrefixTrie::new();
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
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), "default");
        let (matched, v) = t.longest_match_ip(0xc0a8_0101).expect("match");
        assert_eq!(matched, p("0.0.0.0/0"));
        assert_eq!(*v, "default");
    }

    #[test]
    fn longest_match_prefers_specific() {
        let mut t = PrefixTrie::new();
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
        let mut t = PrefixTrie::new();
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
        let mut t = PrefixTrie::new();
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
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), "root");
        t.insert(p("10.0.0.0/8"), "left");
        t.insert(p("128.0.0.0/1"), "right");
        t.insert(p("10.1.0.0/16"), "left-deep");
        // Pre-order: shallower before deeper, left (0-bit) before right.
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
        let mut t = PrefixTrie::new();
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
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), vec![1]);
        t.get_mut(&p("10.0.0.0/8")).expect("present").push(2);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&vec![1, 2]));
    }

    #[test]
    fn get_or_insert_with_reports_inserts_and_keeps_len() {
        let mut t: PrefixTrie<Vec<u32>> = PrefixTrie::new();
        let (v, inserted) = t.get_or_insert_with(p("10.0.0.0/8"), Vec::new);
        assert!(inserted);
        v.push(1);
        let (v, inserted) = t.get_or_insert_with(p("10.0.0.0/8"), || unreachable!("present"));
        assert!(!inserted);
        v.push(2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&vec![1, 2]));
        // An interior node on an existing path has no value yet: inserted.
        assert!(t.get_or_insert_with(p("10.0.0.0/7"), Vec::new).1);
        assert!(t.get_or_insert_with(p("0.0.0.0/0"), Vec::new).1);
        assert_eq!(t.len(), 3);
        assert_eq!(t.iter().count(), 3);
    }

    #[test]
    fn remove_prunes_the_nodes_it_empties() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 0u32);
        let covering_only = t.node_count();
        assert_eq!(covering_only, 8);

        // Disjoint /24s, some under the covering /8 and some elsewhere.
        let prefixes: Vec<Ipv4Prefix> = (0..64u32)
            .map(|i| Ipv4Prefix::new(((10 + i % 4) << 24) | (i << 8), 24).expect("valid"))
            .collect();
        for (i, prefix) in prefixes.iter().enumerate() {
            t.insert(*prefix, i as u32 + 1);
        }
        assert_eq!(t.len(), 65);
        assert!(t.node_count() > covering_only + 64);

        // Removing an absent prefix whose path partly exists changes nothing.
        let before = t.node_count();
        assert_eq!(t.remove(&p("10.0.0.0/16")), None);
        assert_eq!(t.remove(&p("10.0.0.128/25")), None);
        assert_eq!(t.node_count(), before);

        for (i, prefix) in prefixes.iter().enumerate() {
            assert_eq!(t.remove(prefix), Some(i as u32 + 1));
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.node_count(), covering_only, "only the /8's path remains");
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&0));
        assert_eq!(
            t.iter().map(|(q, _)| q).collect::<Vec<_>>(),
            [p("10.0.0.0/8")]
        );

        // A valued interior node survives the removal of what it covers,
        // and its own removal keeps the subtree below it.
        t.insert(p("10.1.0.0/16"), 7);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(0));
        assert_eq!(t.node_count(), 16);
        assert_eq!(t.remove(&p("10.1.0.0/16")), Some(7));
        assert!(t.is_empty());
        assert_eq!(t.node_count(), 0, "structurally empty again");
    }
}

//! A small multiplicative hasher for the solver's and the engine's own keys.
//!
//! The maps on the exploration hot path — the arena's hash-consing table,
//! the incremental session's dedup set, the engine's coverage and
//! attempted-path sets — are rebuilt from empty on every concolic run or
//! query and hold a few dozen entries each. Their keys are made by this
//! program (term structure, [`crate::TermId`]s, site and path identities that
//! are already hashes), bounded per run by the engine's branch budget, so
//! the collision resistance `RandomState`'s SipHash pays for buys nothing
//! there, and it was a fifth of an `eval_filter` call. Maps keyed by outside
//! input keep the default hasher.
//!
//! Nothing observes the iteration order of a map built on this hasher: it
//! replaces `RandomState`, under which that order already differed from
//! process to process.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit multiplier with no short bit patterns.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// Folds every written word in with one add and one multiply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = self.state.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // A multiply pushes entropy toward the high bits; the table indexes
        // by the low ones.
        self.state.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        // Keeps "ab" + "c" apart from "a" + "bc".
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// Builds [`FastHasher`]s.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` on [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` on [`FastHasher`].
pub type FastHashSet<K> = HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        FastBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_spread() {
        assert_eq!(hash_of((3u32, 7u64)), hash_of((3u32, 7u64)));
        assert_ne!(hash_of((3u32, 7u64)), hash_of((7u32, 3u64)));
        // Consecutive small integers (term and variable ids) must not share
        // their low bits, which pick the bucket.
        let low: HashSet<u64> = (0u32..256).map(|i| hash_of(i) & 0xff).collect();
        assert!(low.len() > 128, "only {} of 256 low bytes used", low.len());
    }

    #[test]
    fn byte_strings_are_length_delimited() {
        assert_ne!(hash_of(("ab", "c")), hash_of(("a", "bc")));
        assert_ne!(hash_of("nlri.addr"), hash_of("nlri.len"));
        assert_eq!(hash_of("attr.med"), hash_of(String::from("attr.med")));
    }

    #[test]
    fn maps_and_sets_work_as_usual() {
        let mut map: FastHashMap<u64, &str> = FastHashMap::default();
        map.insert(u64::MAX, "max");
        map.insert(0, "zero");
        assert_eq!(map.get(&u64::MAX), Some(&"max"));
        let set: FastHashSet<u32> = (0..1000).collect();
        assert_eq!(set.len(), 1000);
        assert!(set.contains(&999) && !set.contains(&1000));
    }
}

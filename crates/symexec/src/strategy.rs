//! The order in which recorded branches are negated.
//!
//! Oasis (the engine the paper builds on) "attempts to cover all execution
//! paths reachable by the set of controlled symbolic inputs". The engine
//! does so generation by generation, as SAGE-style whitebox fuzzing does:
//! every branch of the seed runs is negated before any branch of a run
//! those negations produced, and within a generation the shallowest branch
//! goes first. The [`Worklist`] is a min-heap on that order.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A pending exploration candidate: negate branch `branch_index` of run
/// `run_index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Candidate {
    /// Index of the run (in the engine's run list) the branch belongs to.
    pub(crate) run_index: usize,
    /// Index of the branch within that run's trace.
    pub(crate) branch_index: usize,
    /// Exploration generation of the run (seeds are generation 0).
    pub(crate) generation: u32,
    /// True when the branch site lives in router configuration (a policy
    /// filter arm) rather than code. Scheduling is identical either way;
    /// the flag attributes solver queries to policy exploration in
    /// [`dice_solver::SolverStats`]-style accounting.
    pub(crate) is_policy: bool,
}

/// A queued candidate and its place in the order: `(generation,
/// branch_index)`, ties broken by insertion.
#[derive(Debug)]
struct Queued {
    key: (u32, usize, u64),
    candidate: Candidate,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// Pending candidates, popped lowest generation first, then shallowest
/// branch, then earliest enqueued.
///
/// Insertion order breaks ties, so a run of candidates with equal keys
/// pops in the order it was pushed.
#[derive(Debug, Default)]
pub(crate) struct Worklist {
    heap: BinaryHeap<Reverse<Queued>>,
    /// Insertion counter, the last component of every key.
    pushed: u64,
}

impl Worklist {
    /// Creates an empty worklist.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a candidate.
    pub(crate) fn push(&mut self, candidate: Candidate) {
        let key = (candidate.generation, candidate.branch_index, self.pushed);
        self.pushed += 1;
        self.heap.push(Reverse(Queued { key, candidate }));
    }

    /// Number of pending candidates.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no candidates are pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes and returns the next candidate.
    pub(crate) fn pop(&mut self) -> Option<Candidate> {
        self.heap.pop().map(|Reverse(queued)| queued.candidate)
    }

    /// Like [`Worklist::pop`], but lets the caller inspect the next
    /// candidate first: if `accept` returns false the candidate stays in
    /// the worklist and `None` is returned.
    pub(crate) fn pop_if(&mut self, accept: impl FnOnce(&Candidate) -> bool) -> Option<Candidate> {
        let Reverse(next) = self.heap.peek()?;
        if !accept(&next.candidate) {
            return None;
        }
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cand(run: usize, branch: usize, generation: u32) -> Candidate {
        Candidate {
            run_index: run,
            branch_index: branch,
            generation,
            is_policy: false,
        }
    }

    /// The generational worklist as it was before the heap: a vector
    /// scanned for its first minimum on every pop, removed from in place.
    #[derive(Default)]
    struct Scanned {
        items: Vec<Candidate>,
    }

    impl Scanned {
        fn pop_if(&mut self, accept: impl FnOnce(&Candidate) -> bool) -> Option<Candidate> {
            if self.items.is_empty() {
                return None;
            }
            // Lowest generation, then shallowest branch: breadth-first
            // over the execution tree.
            let mut best = 0;
            for (i, c) in self.items.iter().enumerate() {
                let b = &self.items[best];
                if (c.generation, c.branch_index) < (b.generation, b.branch_index) {
                    best = i;
                }
            }
            if !accept(&self.items[best]) {
                return None;
            }
            Some(self.items.remove(best))
        }
    }

    #[test]
    fn generational_pops_lowest_generation_first() {
        let mut wl = Worklist::new();
        wl.push(cand(1, 3, 2));
        wl.push(cand(0, 1, 0));
        wl.push(cand(2, 0, 1));
        let first = wl.pop().expect("non-empty");
        assert_eq!(first.generation, 0);
        let second = wl.pop().expect("non-empty");
        assert_eq!(second.generation, 1);
    }

    #[test]
    fn pop_if_leaves_refused_candidates_in_place() {
        let mut wl = Worklist::new();
        wl.push(cand(0, 0, 0));
        wl.push(cand(1, 0, 1));
        let first = wl.pop().expect("non-empty");
        assert_eq!(first.generation, 0);
        // The next selection is generation 1; a same-wave barrier refuses it.
        let refused = wl.pop_if(|c| c.generation == first.generation);
        assert!(refused.is_none());
        assert_eq!(wl.len(), 1, "refused candidate stays queued");
        let accepted = wl.pop().expect("still there");
        assert_eq!(accepted.generation, 1);
    }

    #[test]
    fn pop_breaks_ties_by_insertion_order() {
        let mut wl = Worklist::new();
        // Equal (generation, branch_index) keys: insertion order decides.
        wl.push(cand(7, 0, 0));
        wl.push(cand(8, 0, 0));
        wl.push(cand(9, 0, 0));
        let order: Vec<usize> = std::iter::from_fn(|| wl.pop())
            .map(|c| c.run_index)
            .collect();
        assert_eq!(order, vec![7, 8, 9]);
    }

    #[test]
    fn pop_on_empty_returns_none() {
        let mut wl = Worklist::new();
        assert!(wl.pop().is_none());
        assert!(wl.pop_if(|_| true).is_none());
        assert!(wl.is_empty());
        assert_eq!(wl.len(), 0);
    }

    proptest! {
        /// The heap pops what the first-minimum scan popped, through any
        /// interleaving of pushes, pops and refused `pop_if`s, with keys
        /// drawn from a small range so equal keys are common.
        #[test]
        fn the_heap_pops_what_the_scan_popped(
            ops in prop::collection::vec((0u8..4, 0u32..3, 0usize..4, any::<bool>()), 1..200)
        ) {
            let (mut heap, mut scan) = (Worklist::new(), Scanned::default());
            for (step, (op, generation, branch, refuse)) in ops.into_iter().enumerate() {
                match op {
                    0 | 1 => {
                        let c = cand(step, branch, generation);
                        heap.push(c);
                        scan.items.push(c);
                    }
                    // A wave barrier: accept only the given generation, or
                    // refuse outright.
                    2 => {
                        let accept = |c: &Candidate| !refuse && c.generation == generation;
                        prop_assert_eq!(heap.pop_if(accept), scan.pop_if(accept));
                    }
                    _ => prop_assert_eq!(heap.pop(), scan.pop_if(|_| true)),
                }
                prop_assert_eq!(heap.len(), scan.items.len());
            }
            while let Some(c) = heap.pop() {
                prop_assert_eq!(Some(c), scan.pop_if(|_| true));
            }
            prop_assert!(scan.items.is_empty());
        }
    }
}

//! Incremental solving over an assertion stack.
//!
//! [`IncrementalSolver`] is how this crate solves. The concolic engine's
//! inner loop negates one branch of a recorded path at a time: candidate
//! *k* asks for `prefix[0..k] ∧ ¬branch[k]`. Solved one query at a time
//! from scratch, every sibling candidate would re-flatten, re-deduplicate
//! and re-propagate the whole shared prefix — `O(depth²)` work per run.
//! The session keeps that work alive on a `push`/`pop` assertion stack
//! instead:
//!
//! * **assert** simplifies a constraint once ([`crate::simplify`]) and
//!   appends its atoms to the stack;
//! * **check** folds any newly asserted atoms into the persistent interval
//!   domains ([`crate::interval::Domains`]) — already-propagated prefix
//!   constraints are *not* revisited — then runs the enumeration and
//!   local-search phases ([`crate::solver`]);
//! * **push/pop** bracket per-candidate assertions, restoring the prefix
//!   domains on pop so the next sibling starts from the shared state.
//!
//! Results are identical to solving each query from scratch, which this
//! module's tests check against the one-shot pipeline kept in
//! `solver.rs`'s tests: `check` sees the same simplified, sorted
//! constraint set that pipeline builds, the same propagated domains, and
//! runs the identical deterministic search phases. The domain equality
//! rests on interval propagation having a unique fixpoint, so it holds
//! *whenever from-scratch propagation of the full query converges within
//! the propagation round budget* — true for the
//! comparison-against-constant constraint families the concolic engine
//! emits, which converge in a few sweeps; diverging would take a
//! variable-to-variable inequality chain longer than the round budget
//! (default 16), ordered so each sweep advances one hop. The session also
//! guards the other direction: if its own cached prefix ever runs out of
//! rounds before converging, the next query rebuilds the domains from
//! scratch instead of reusing a start-point-dependent cache.
//!
//! # Example
//!
//! Two negation candidates sharing a two-constraint prefix, solved as one
//! batched session:
//!
//! ```
//! use dice_solver::{IncrementalSolver, TermArena};
//!
//! let mut arena = TermArena::new();
//! let med = arena.declare_var("med", 32);
//! let pref = arena.declare_var("local_pref", 32);
//! let m = arena.var(med);
//! let p = arena.var(pref);
//! let c100 = arena.int_const(100, 32);
//! let c50 = arena.int_const(50, 32);
//!
//! let mut session = IncrementalSolver::new();
//! // Shared path prefix: med < 100, local_pref >= 50.
//! let pre1 = arena.ult(m, c100);
//! let pre2 = arena.uge(p, c50);
//! session.assert_term(&mut arena, pre1);
//! session.assert_term(&mut arena, pre2);
//!
//! // Candidate 1: negate `med < 10`.
//! session.push(&arena);
//! let c10 = arena.int_const(10, 32);
//! let neg1 = arena.uge(m, c10);
//! session.assert_term(&mut arena, neg1);
//! let v1 = session.check(&arena, None);
//! assert!(v1.model().is_some_and(|m1| m1.get(med) >= 10));
//! session.pop();
//!
//! // Candidate 2: negate `local_pref <= 200` — the prefix domains are
//! // reused, not re-propagated.
//! session.push(&arena);
//! let c200 = arena.int_const(200, 32);
//! let neg2 = arena.ugt(p, c200);
//! session.assert_term(&mut arena, neg2);
//! let v2 = session.check(&arena, None);
//! assert!(v2.model().is_some_and(|m2| m2.get(pref) > 200));
//! session.pop();
//!
//! assert!(session.stats().assertions_reused > 0);
//! ```

use std::time::Instant;

use crate::hash::FastHashSet;
use crate::interval::Domains;
use crate::model::Model;
use crate::simplify::flatten_into;
use crate::solver::{decide, SearchScratch, SolverConfig, Verdict};
use crate::stats::SolverStats;
use crate::term::{TermArena, TermId};

/// State saved by [`IncrementalSolver::push`] and restored by
/// [`IncrementalSolver::pop`].
#[derive(Debug, Clone)]
struct Frame {
    /// Length of the asserted list at push time.
    asserted_len: usize,
    /// Interval domains at push time.
    domains: Domains,
    /// How many asserted constraints the saved domains had folded in.
    propagated_len: usize,
    /// Whether the saved domains were a propagation fixpoint.
    converged: bool,
    /// Whether the stack was already syntactically contradictory.
    contradiction: bool,
}

/// A solver session with a push/pop assertion stack.
///
/// Simplification results and propagated interval domains persist across
/// queries, so sibling queries sharing an assertion prefix are decided as
/// one batched session instead of N from-scratch solves, with results
/// identical to solving each query from scratch. This module's
/// documentation states the contract and walks through an example.
#[derive(Debug, Clone)]
pub struct IncrementalSolver {
    config: SolverConfig,
    stats: SolverStats,
    /// Flattened, deduplicated atoms, in assertion order.
    asserted: Vec<TermId>,
    /// The same atoms in sorted order — exactly the constraint list
    /// `preprocess` would hand the one-shot pipeline — kept sorted as atoms
    /// come and go, so no query sorts.
    sorted: Vec<TermId>,
    /// Dedup set over `asserted`.
    seen: FastHashSet<TermId>,
    /// Interval domains covering `asserted[..propagated_len]`.
    domains: Domains,
    propagated_len: usize,
    /// Whether `domains` is a fixpoint (vacuously true when empty).
    converged: bool,
    /// A literal `false` or a `p ∧ ¬p` pair has been asserted.
    contradiction: bool,
    frames: Vec<Frame>,
    /// Local search's buffers and the walk marks variable registration
    /// uses, kept across queries.
    scratch: SearchScratch,
}

impl Default for IncrementalSolver {
    fn default() -> Self {
        IncrementalSolver {
            config: SolverConfig::default(),
            stats: SolverStats::new(),
            asserted: Vec::new(),
            sorted: Vec::new(),
            seen: FastHashSet::default(),
            domains: Domains::new(),
            propagated_len: 0,
            // Vacuously a fixpoint: nothing has been propagated yet.
            converged: true,
            contradiction: false,
            frames: Vec::new(),
            scratch: SearchScratch::default(),
        }
    }
}

impl IncrementalSolver {
    /// Creates an empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns cumulative statistics for this session.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Mutable access to this session's statistics, so callers that know a
    /// query's provenance (e.g. the exploration engine attributing
    /// policy-derived queries) can annotate the counters.
    pub fn stats_mut(&mut self) -> &mut SolverStats {
        &mut self.stats
    }

    /// Retracts every assertion and frame: the session answers as a new
    /// one would, keeping its statistics and the allocations a new one
    /// would make again.
    pub fn reset(&mut self) {
        self.asserted.clear();
        self.sorted.clear();
        self.seen.clear();
        self.domains.clear();
        self.propagated_len = 0;
        self.converged = true;
        self.contradiction = false;
        self.frames.clear();
    }

    /// Saves the current assertion state; [`IncrementalSolver::pop`]
    /// restores it.
    ///
    /// Assertions made since the last propagation are folded into the
    /// interval domains *before* the snapshot is taken (propagation is
    /// otherwise lazy), so every frame pushed on top of this state — each
    /// sibling negation candidate — reuses the propagated prefix instead of
    /// recomputing it after each pop. That commit step is why `push` takes
    /// the arena.
    pub fn push(&mut self, arena: &TermArena) {
        if !self.contradiction && self.propagation_needed() {
            self.propagate_pending(arena);
        }
        self.frames.push(Frame {
            asserted_len: self.asserted.len(),
            domains: self.domains.clone(),
            propagated_len: self.propagated_len,
            converged: self.converged,
            contradiction: self.contradiction,
        });
        self.stats.session_pushes += 1;
    }

    /// Returns true if the domains do not yet cover the asserted set.
    fn propagation_needed(&self) -> bool {
        self.propagated_len < self.asserted.len() || !self.converged
    }

    /// Folds assertions not yet covered by the domains into them,
    /// propagating to a fixpoint.
    fn propagate_pending(&mut self, arena: &TermArena) {
        let pending = self.asserted.len() - self.propagated_len;
        if pending == 0 && self.converged {
            return;
        }
        let start = Instant::now();
        if !self.converged {
            self.stats.assertions_propagated += self.asserted.len() as u64;
            self.domains.clear();
            self.domains
                .ensure_vars(arena, &self.sorted, &mut self.scratch.walk);
        } else {
            self.stats.assertions_propagated += pending as u64;
            self.domains.ensure_vars(
                arena,
                &self.asserted[self.propagated_len..],
                &mut self.scratch.walk,
            );
        }
        let outcome = self
            .domains
            .propagate(arena, &self.sorted, self.config.propagation_rounds);
        self.propagated_len = self.asserted.len();
        self.converged = outcome.converged;
        self.stats.propagation_time_ns += start.elapsed().as_nanos() as u64;
    }

    /// Restores the state saved by the matching [`IncrementalSolver::push`]:
    /// assertions made since then are retracted and the saved prefix
    /// domains are reinstated.
    ///
    /// # Panics
    ///
    /// Panics if called without a matching `push`.
    pub fn pop(&mut self) {
        let frame = self.frames.pop().expect("pop without matching push");
        for t in self.asserted.drain(frame.asserted_len..) {
            self.seen.remove(&t);
            let at = self
                .sorted
                .binary_search(&t)
                .expect("asserted atoms are in the sorted list");
            self.sorted.remove(at);
        }
        self.domains = frame.domains;
        self.propagated_len = frame.propagated_len;
        self.converged = frame.converged;
        self.contradiction = frame.contradiction;
        self.stats.session_pops += 1;
    }

    /// Asserts a boolean constraint: normalizes it, flattens conjunctions,
    /// drops tautologies and deduplicates against everything already on the
    /// stack. Each distinct term is simplified exactly once per session, no
    /// matter how many queries it participates in.
    pub fn assert_term(&mut self, arena: &mut TermArena, term: TermId) {
        if self.contradiction {
            return;
        }
        let start = Instant::now();
        let before = self.asserted.len();
        // A literal `false` makes the stack contradictory outright.
        self.contradiction = !flatten_into(arena, term, &mut self.seen, &mut self.asserted);
        for i in before..self.asserted.len() {
            let atom = self.asserted[i];
            let at = self
                .sorted
                .binary_search(&atom)
                .expect_err("atoms are deduplicated");
            self.sorted.insert(at, atom);
            // Detect `p` asserted on a stack already holding `not p`.
            // Negating interns a term, and term numbering is observable:
            // nothing is negated once the contradiction is known.
            if !self.contradiction {
                let neg = arena.not(atom);
                self.contradiction = self.seen.contains(&neg);
            }
        }
        self.stats.preprocess_passes += 1;
        self.stats.preprocess_time_ns += start.elapsed().as_nanos() as u64;
    }

    /// Asserts every constraint in the slice, in order.
    pub fn assert_all(&mut self, arena: &mut TermArena, terms: &[TermId]) {
        for &t in terms {
            self.assert_term(arena, t);
        }
    }

    /// Decides satisfiability of the conjunction of all asserted
    /// constraints.
    ///
    /// `seed` optionally provides a starting assignment (the concrete input
    /// of the current concolic run); local search starts from it, which
    /// keeps generated inputs close to observed ones.
    ///
    /// Only constraints asserted since the last `check` (or, after a `pop`,
    /// since the restored frame's last propagation) are folded into the
    /// interval domains; everything else is reused.
    pub fn check(&mut self, arena: &TermArena, seed: Option<&Model>) -> Verdict {
        let mut span = dice_obs::span("solver", "solver.check");
        let reused_before = self.stats.assertions_reused;
        let start = Instant::now();
        let verdict = self.check_inner(arena, seed);
        // The span's payload is the number of assertions this query reused
        // from the session instead of re-propagating — the incremental win.
        span.set_detail(self.stats.assertions_reused - reused_before);
        self.stats.queries += 1;
        self.stats.incremental_queries += 1;
        match &verdict {
            Verdict::Sat(_) => self.stats.sat += 1,
            Verdict::Unsat => self.stats.unsat += 1,
            Verdict::Unknown => self.stats.unknown += 1,
        }
        self.stats.record_time(start.elapsed());
        verdict
    }

    fn check_inner(&mut self, arena: &TermArena, seed: Option<&Model>) -> Verdict {
        if self.contradiction {
            self.stats.decided_by_preprocess += 1;
            return Verdict::Unsat;
        }
        if self.asserted.is_empty() {
            self.stats.decided_by_preprocess += 1;
            return Verdict::Sat(seed.cloned().unwrap_or_default());
        }

        // Constraints already folded into converged domains are reused as
        // is; only assertions made since then get propagated.
        if self.converged {
            self.stats.assertions_reused += self.propagated_len as u64;
        }
        self.propagate_pending(arena);
        if self.domains.any_empty() {
            self.stats.decided_by_propagation += 1;
            return Verdict::Unsat;
        }

        // The search phases expect the preprocessed set in sorted order,
        // exactly as `preprocess` would have produced it.
        decide(
            &self.config,
            &mut self.stats,
            &mut self.scratch,
            arena,
            &self.sorted,
            &self.domains,
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;
    use crate::term::VarId;
    use proptest::prelude::*;

    fn arena_with_var(width: u32) -> (TermArena, crate::term::VarId, TermId) {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", width);
        let xv = arena.var(x);
        (arena, x, xv)
    }

    #[test]
    fn empty_session_is_sat() {
        let arena = TermArena::new();
        let mut s = IncrementalSolver::new();
        assert!(s.check(&arena, None).is_sat());
        assert_eq!(s.stats().queries, 1);
        assert_eq!(s.stats().incremental_queries, 1);
    }

    #[test]
    fn push_pop_restores_verdicts() {
        let (mut arena, x, xv) = arena_with_var(8);
        let c5 = arena.int_const(5, 8);
        let lt5 = arena.ult(xv, c5);
        let ge5 = arena.uge(xv, c5);

        let mut s = IncrementalSolver::new();
        s.assert_term(&mut arena, lt5);
        let m = s.check(&arena, None);
        assert!(m.model().is_some_and(|m| m.get(x) < 5));

        s.push(&arena);
        s.assert_term(&mut arena, ge5);
        assert_eq!(s.check(&arena, None), Verdict::Unsat);
        s.pop();

        // The contradiction was retracted with the frame.
        let m = s.check(&arena, None);
        assert!(m.model().is_some_and(|m| m.get(x) < 5));
        assert!(s.frames.is_empty());
        assert_eq!(s.stats().session_pushes, 1);
        assert_eq!(s.stats().session_pops, 1);
    }

    #[test]
    fn nested_frames_restore_in_order() {
        let (mut arena, x, xv) = arena_with_var(8);
        let c10 = arena.int_const(10, 8);
        let c20 = arena.int_const(20, 8);
        let c30 = arena.int_const(30, 8);
        let ge10 = arena.uge(xv, c10);
        let ge20 = arena.uge(xv, c20);
        let ge30 = arena.uge(xv, c30);

        let mut s = IncrementalSolver::new();
        s.assert_term(&mut arena, ge10);
        s.push(&arena);
        s.assert_term(&mut arena, ge20);
        s.push(&arena);
        s.assert_term(&mut arena, ge30);
        assert_eq!(s.asserted.len(), 3);
        let m = s.check(&arena, None);
        assert!(m.model().is_some_and(|m| m.get(x) >= 30));
        s.pop();
        let m = s.check(&arena, None);
        assert!(m.model().is_some_and(|m| m.get(x) >= 20));
        s.pop();
        let m = s.check(&arena, None);
        assert!(m.model().is_some_and(|m| m.get(x) >= 10));
    }

    #[test]
    fn duplicate_assertions_are_deduplicated() {
        let (mut arena, _, xv) = arena_with_var(8);
        let c5 = arena.int_const(5, 8);
        let lt5 = arena.ult(xv, c5);
        let mut s = IncrementalSolver::new();
        s.assert_term(&mut arena, lt5);
        s.assert_term(&mut arena, lt5);
        s.push(&arena);
        s.assert_term(&mut arena, lt5);
        assert_eq!(s.asserted.len(), 1);
        s.pop();
        assert_eq!(s.asserted.len(), 1);
        assert!(s.check(&arena, None).is_sat());
    }

    #[test]
    fn p_and_not_p_is_syntactic_contradiction() {
        let (mut arena, _, xv) = arena_with_var(8);
        let c5 = arena.int_const(5, 8);
        let p = arena.eq(xv, c5);
        let np = arena.not(p);
        let mut s = IncrementalSolver::new();
        s.assert_term(&mut arena, p);
        s.push(&arena);
        s.assert_term(&mut arena, np);
        assert!(s.contradiction);
        assert_eq!(s.check(&arena, None), Verdict::Unsat);
        s.pop();
        assert!(!s.contradiction);
        assert!(s.check(&arena, None).is_sat());
    }

    #[test]
    fn conjunctions_flatten_across_the_stack() {
        let (mut arena, x, xv) = arena_with_var(8);
        let c3 = arena.int_const(3, 8);
        let c7 = arena.int_const(7, 8);
        let a = arena.uge(xv, c3);
        let b = arena.ule(xv, c7);
        let both = arena.and(a, b);
        let mut s = IncrementalSolver::new();
        s.assert_term(&mut arena, both);
        assert_eq!(s.asserted.len(), 2);
        let m = s.check(&arena, None);
        let v = m.model().expect("sat").get(x);
        assert!((3..=7).contains(&v));
    }

    #[test]
    fn matches_one_shot_solver_on_shared_prefix() {
        // The engine's exact usage pattern: assert the prefix once, then
        // push/check/pop one negation candidate at a time.
        let mut arena = TermArena::new();
        let a = arena.declare_var("a", 16);
        let b = arena.declare_var("b", 16);
        let av = arena.var(a);
        let bv = arena.var(b);
        let c100 = arena.int_const(100, 16);
        let c50 = arena.int_const(50, 16);
        let c10 = arena.int_const(10, 16);
        let prefix = [arena.ult(av, c100), arena.uge(bv, c50)];
        let negations = [
            arena.uge(av, c10),
            arena.ult(bv, c100),
            arena.ugt(av, c100), // infeasible under the prefix
        ];

        let mut session = IncrementalSolver::new();
        session.assert_all(&mut arena, &prefix);
        for &neg in &negations {
            session.push(&arena);
            session.assert_term(&mut arena, neg);
            let incremental = session.check(&arena, None);
            session.pop();

            let mut one_shot = Solver::new();
            let mut query = prefix.to_vec();
            query.push(neg);
            let reference = one_shot.solve(&mut arena, &query, None);
            assert_eq!(incremental, reference, "negation {}", arena.display(neg));
        }
        assert!(session.stats().assertions_reused > 0);
    }

    #[test]
    fn a_reset_session_answers_as_a_new_one() {
        let (mut arena, _, xv) = arena_with_var(16);
        let c5 = arena.int_const(5, 16);
        let c900 = arena.int_const(900, 16);
        let p = arena.eq(xv, c5);
        let np = arena.not(p);
        let above = arena.ugt(xv, c900);
        let mut seed = Model::new();
        seed.set(crate::term::VarId(0), 17);

        // Leave the session contradictory, with a frame open and its
        // search buffers filled by a query that had to search.
        let mut used = IncrementalSolver::new();
        used.assert_term(&mut arena, above);
        assert!(used.check(&arena, Some(&seed)).is_sat());
        used.assert_term(&mut arena, p);
        used.push(&arena);
        used.assert_term(&mut arena, np);
        assert!(used.contradiction);
        used.reset();
        assert!(used.frames.is_empty() && used.asserted.is_empty());
        assert!(!used.contradiction);

        let mut fresh = IncrementalSolver::new();
        for s in [&mut used, &mut fresh] {
            s.assert_term(&mut arena, np);
            s.push(&arena);
            s.assert_term(&mut arena, above);
        }
        assert_eq!(
            used.check(&arena, Some(&seed)),
            fresh.check(&arena, Some(&seed))
        );
    }

    #[test]
    #[should_panic(expected = "pop without matching push")]
    fn pop_on_empty_stack_panics() {
        let mut s = IncrementalSolver::new();
        s.pop();
    }

    // Batched push/pop solving is observationally identical to independent
    // one-shot solving: for randomly generated constraint systems shaped
    // like the concolic engine's queries — a shared path prefix plus one
    // negated branch per candidate — a session returns exactly the same
    // verdicts *and models* as N independent `Solver::solve` calls.

    /// Bit widths assigned to generated variables: small enough to exercise the
    /// enumeration phase, large enough (16) to force local search, and one
    /// repeated so that two variables can be compared.
    const WIDTHS: [u32; 3] = [4, 16, 4];

    /// One generated comparison: `var_a op (const | var_b)`.
    ///
    /// `op` selects from eq/ne/ult/ule/ugt/uge; `kind` picks the rhs form and
    /// whether the constraint is additionally wrapped in a negation.
    type Spec = (u8, u8, u8, u16);

    fn materialize(arena: &mut TermArena, vars: &[VarId], spec: Spec) -> TermId {
        let (a, op, kind, value) = spec;
        let va = vars[a as usize % vars.len()];
        let width = arena.var_info(va).width;
        let lhs = arena.var(va);
        // A var-vs-var comparison needs another variable of the same width.
        let other = (kind % 3 == 2)
            .then(|| {
                vars.iter()
                    .copied()
                    .find(|&v| v != va && arena.var_info(v).width == width)
            })
            .flatten();
        let rhs = match other {
            Some(vb) => arena.var(vb),
            None => arena.int_const(value as u64, width),
        };
        let cmp = match op % 6 {
            0 => arena.eq(lhs, rhs),
            1 => arena.ne(lhs, rhs),
            2 => arena.ult(lhs, rhs),
            3 => arena.ule(lhs, rhs),
            4 => arena.ugt(lhs, rhs),
            _ => arena.uge(lhs, rhs),
        };
        if kind % 5 == 4 {
            arena.not(cmp)
        } else {
            cmp
        }
    }

    fn setup(var_count: usize, seeds: &[u16]) -> (TermArena, Vec<VarId>, Model) {
        let mut arena = TermArena::new();
        let vars: Vec<VarId> = (0..var_count)
            .map(|i| arena.declare_var(format!("v{i}"), WIDTHS[i % WIDTHS.len()]))
            .collect();
        let mut seed = Model::new();
        for (i, &v) in vars.iter().enumerate() {
            seed.set(v, seeds.get(i).copied().unwrap_or(0) as u64);
        }
        (arena, vars, seed)
    }

    fn assert_same(incremental: &Verdict, reference: &Verdict, context: &str) {
        assert_eq!(
            incremental, reference,
            "batched and one-shot solving diverged: {context}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The engine's sibling-candidate pattern: one shared prefix, each
        /// candidate pushed as its own frame.
        #[test]
        fn sibling_candidates_match_independent_solves(
            var_count in 1usize..4,
            prefix in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()), 1..6),
            candidates in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()), 1..6),
            seeds in prop::collection::vec(any::<u16>(), 4..5),
        ) {
            let (mut arena, vars, seed) = setup(var_count, &seeds);
            let prefix_terms: Vec<TermId> = prefix
                .iter()
                .map(|&s| materialize(&mut arena, &vars, s))
                .collect();
            let candidate_terms: Vec<TermId> = candidates
                .iter()
                .map(|&s| materialize(&mut arena, &vars, s))
                .collect();

            let mut session = IncrementalSolver::new();
            session.assert_all(&mut arena, &prefix_terms);
            for &cand in &candidate_terms {
                session.push(&arena);
                session.assert_term(&mut arena, cand);
                let incremental = session.check(&arena, Some(&seed));
                session.pop();

                let mut one_shot = Solver::new();
                let mut query = prefix_terms.clone();
                query.push(cand);
                let reference = one_shot.solve(&mut arena, &query, Some(&seed));
                assert_same(&incremental, &reference, &arena.display(cand));
            }
        }

        /// The engine's progressive-prefix pattern: walking down one path,
        /// negating each branch in turn while the prefix grows underneath.
        #[test]
        fn progressive_prefix_matches_independent_solves(
            var_count in 1usize..4,
            path in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()), 1..8),
            seeds in prop::collection::vec(any::<u16>(), 4..5),
        ) {
            let (mut arena, vars, seed) = setup(var_count, &seeds);
            let path_terms: Vec<TermId> = path
                .iter()
                .map(|&s| materialize(&mut arena, &vars, s))
                .collect();

            let mut session = IncrementalSolver::new();
            for i in 0..path_terms.len() {
                // Branch i negated on top of prefix [0, i).
                let negated = arena.not(path_terms[i]);
                session.push(&arena);
                session.assert_term(&mut arena, negated);
                let incremental = session.check(&arena, Some(&seed));
                session.pop();

                let mut one_shot = Solver::new();
                let mut query: Vec<TermId> = path_terms[..i].to_vec();
                query.push(negated);
                let reference = one_shot.solve(&mut arena, &query, Some(&seed));
                assert_same(&incremental, &reference, &arena.display(negated));

                // Extend the shared prefix with the branch actually taken.
                session.assert_term(&mut arena, path_terms[i]);
            }
        }

        /// Nested frames: a frame stacked on a sibling frame still answers like
        /// the equivalent flat one-shot query, and popping restores exactly.
        #[test]
        fn nested_frames_match_flat_queries(
            var_count in 1usize..4,
            base in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()), 1..4),
            inner in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()),
            deeper in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()),
            seeds in prop::collection::vec(any::<u16>(), 4..5),
        ) {
            let (mut arena, vars, seed) = setup(var_count, &seeds);
            let base_terms: Vec<TermId> = base
                .iter()
                .map(|&s| materialize(&mut arena, &vars, s))
                .collect();
            let inner_term = materialize(&mut arena, &vars, inner);
            let deeper_term = materialize(&mut arena, &vars, deeper);

            let mut session = IncrementalSolver::new();
            session.assert_all(&mut arena, &base_terms);
            session.push(&arena);
            session.assert_term(&mut arena, inner_term);
            session.push(&arena);
            session.assert_term(&mut arena, deeper_term);

            let mut one_shot = Solver::new();
            let mut flat = base_terms.clone();
            flat.push(inner_term);
            flat.push(deeper_term);
            let incremental = session.check(&arena, Some(&seed));
            let reference = one_shot.solve(&mut arena, &flat, Some(&seed));
            assert_same(&incremental, &reference, "deeper frame");

            session.pop();
            let mut flat = base_terms.clone();
            flat.push(inner_term);
            let incremental = session.check(&arena, Some(&seed));
            let reference = one_shot.solve(&mut arena, &flat, Some(&seed));
            assert_same(&incremental, &reference, "inner frame after pop");

            session.pop();
            let incremental = session.check(&arena, Some(&seed));
            let reference = one_shot.solve(&mut arena, &base_terms, Some(&seed));
            assert_same(&incremental, &reference, "base after popping all frames");
        }
    }
}

//! The DiCE constraint solver.
//!
//! The solver answers satisfiability queries over conjunctions of the
//! boolean terms produced by the concolic engine. It is deliberately an
//! "SMT-lite" design tuned for the constraint shapes generated by BGP
//! message handling and policy-filter interpretation: comparisons between
//! small fixed-width integers, bit masks, and arithmetic over message
//! fields. The pipeline is:
//!
//! 1. **Preprocess** — flatten conjunctions, drop tautologies, detect
//!    literal contradictions ([`crate::simplify`]).
//! 2. **Propagate** — interval constraint propagation over per-variable
//!    domains ([`crate::interval`]); an empty domain proves `Unsat`.
//! 3. **Enumerate** — if the residual search space is small, try every
//!    combination of values.
//! 4. **Local search** — otherwise run a randomized hill-climbing search
//!    seeded from the current concrete input (concolic execution always has
//!    one), constraint constants and domain boundaries. The candidate is a
//!    dense `Vec<u64>` indexed by [`VarId`]; a move re-evaluates only the
//!    constraints that mention the moved variable, and a [`Model`] is
//!    built once, for the assignment that is returned.
//!
//! Phases 3 and 4 and [`Model::eval`] share one evaluation core
//! (`crate::eval`): integer terms to `u64`, boolean terms to `bool`.
//!
//! Queries the pipeline cannot decide return [`Verdict::Unknown`]; the
//! exploration engine treats those paths as unreachable for now, exactly as
//! the paper's prototype skips constraints its solver cannot reverse (e.g.
//! hash functions).
//!
//! [`Solver::solve`] runs the full pipeline from scratch for every query.
//! When many queries share a constraint prefix — sibling negation
//! candidates from one concolic run — use
//! [`crate::incremental::IncrementalSolver`], which keeps phases 1–2 alive
//! across queries on an assertion stack and funnels into the same phase-3/4
//! code below, so batched and one-shot solving return identical results.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::eval::eval_bool;
use crate::hash::FastHashSet;
use crate::interval::{Domains, Interval};
use crate::model::Model;
use crate::simplify::{preprocess, Preprocessed};
use crate::stats::SolverStats;
use crate::term::{Leaf, TermArena, TermId, TermWalk, VarId};

/// Result of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A satisfying assignment was found.
    Sat(Model),
    /// The constraints are unsatisfiable.
    Unsat,
    /// The solver could not decide within its budget.
    Unknown,
}

impl Verdict {
    /// Returns the model if the verdict is `Sat`.
    pub fn model(&self) -> Option<&Model> {
        match self {
            Verdict::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// Returns true if the verdict is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, Verdict::Sat(_))
    }

    /// Returns true if the verdict is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, Verdict::Unsat)
    }
}

/// Tunable solver parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Maximum rounds of interval propagation.
    pub propagation_rounds: usize,
    /// Maximum number of candidate assignments tried by enumeration.
    pub enumeration_limit: u64,
    /// Maximum number of candidate assignments tried by local search.
    pub search_iterations: u64,
    /// Number of independent local-search restarts.
    pub search_restarts: u32,
    /// Seed for the solver's deterministic random number generator.
    pub rng_seed: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            propagation_rounds: 16,
            enumeration_limit: 4096,
            search_iterations: 20_000,
            search_restarts: 4,
            rng_seed: 0xD1CE_5EED,
        }
    }
}

/// The constraint solver. Holds configuration and cumulative statistics;
/// the term arena is supplied per query so that many solver instances can
/// share one arena (or vice versa).
#[derive(Debug, Clone, Default)]
pub struct Solver {
    config: SolverConfig,
    stats: SolverStats,
}

impl Solver {
    /// Creates a solver with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with the given configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            config,
            stats: SolverStats::new(),
        }
    }

    /// Returns the configuration in use.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Mutable access to cumulative statistics, so callers that know a
    /// query's provenance (e.g. the exploration engine attributing
    /// policy-derived queries) can annotate the counters.
    pub fn stats_mut(&mut self) -> &mut SolverStats {
        &mut self.stats
    }

    /// Resets cumulative statistics.
    pub fn reset_stats(&mut self) {
        self.stats = SolverStats::new();
    }

    /// Decides satisfiability of the conjunction of `constraints`.
    ///
    /// `seed` optionally provides a starting assignment (the concrete input
    /// of the current concolic run); local search mutates it, which makes
    /// generated inputs stay close to observed ones.
    ///
    /// Every call runs preprocessing and propagation from scratch; this is
    /// the one-shot compatibility entry point. Queries sharing a constraint
    /// prefix are cheaper through
    /// [`crate::incremental::IncrementalSolver`].
    pub fn solve(
        &mut self,
        arena: &mut TermArena,
        constraints: &[TermId],
        seed: Option<&Model>,
    ) -> Verdict {
        let mut span = dice_obs::span("solver", "solver.solve");
        span.set_detail(constraints.len() as u64);
        let start = Instant::now();
        let verdict = self.solve_inner(arena, constraints, seed);
        self.stats.queries += 1;
        match &verdict {
            Verdict::Sat(_) => self.stats.sat += 1,
            Verdict::Unsat => self.stats.unsat += 1,
            Verdict::Unknown => self.stats.unknown += 1,
        }
        self.stats.record_time(start.elapsed());
        verdict
    }

    fn solve_inner(
        &mut self,
        arena: &mut TermArena,
        constraints: &[TermId],
        seed: Option<&Model>,
    ) -> Verdict {
        // Phase 1: preprocessing.
        let pre_start = Instant::now();
        let preprocessed = preprocess(arena, constraints);
        self.stats.preprocess_passes += 1;
        self.stats.preprocess_time_ns += pre_start.elapsed().as_nanos() as u64;
        let simplified = match preprocessed {
            Preprocessed::Contradiction => {
                self.stats.decided_by_preprocess += 1;
                return Verdict::Unsat;
            }
            Preprocessed::Constraints(cs) => cs,
        };
        if simplified.is_empty() {
            self.stats.decided_by_preprocess += 1;
            return Verdict::Sat(seed.cloned().unwrap_or_default());
        }

        // Phase 2: interval propagation.
        let prop_start = Instant::now();
        let mut domains = Domains::init(arena, &simplified);
        let consistent = domains.propagate(arena, &simplified, self.config.propagation_rounds);
        self.stats.propagation_time_ns += prop_start.elapsed().as_nanos() as u64;
        if !consistent {
            self.stats.decided_by_propagation += 1;
            return Verdict::Unsat;
        }

        // Phases 3–4, shared with the incremental session.
        decide(
            &self.config,
            &mut self.stats,
            arena,
            &simplified,
            &domains,
            seed,
        )
    }
}

/// Phases 3–4 of the pipeline: pinned-domain shortcut, bounded enumeration,
/// randomized local search. Shared between [`Solver::solve`] and
/// [`crate::incremental::IncrementalSolver::check`] so both produce
/// identical verdicts and models for identical `(constraints, domains,
/// seed)` inputs.
///
/// `constraints` must be the preprocessed (flattened, deduplicated, sorted)
/// set and `domains` its propagated, non-empty interval state.
pub(crate) fn decide(
    config: &SolverConfig,
    stats: &mut SolverStats,
    arena: &TermArena,
    constraints: &[TermId],
    domains: &Domains,
    seed: Option<&Model>,
) -> Verdict {
    let start = Instant::now();
    let verdict = decide_inner(config, stats, arena, constraints, domains, seed);
    stats.search_time_ns += start.elapsed().as_nanos() as u64;
    verdict
}

fn decide_inner(
    config: &SolverConfig,
    stats: &mut SolverStats,
    arena: &TermArena,
    constraints: &[TermId],
    domains: &Domains,
    seed: Option<&Model>,
) -> Verdict {
    // If propagation pinned every variable, just check that assignment.
    if domains.iter().all(|(_, iv)| iv.is_point()) {
        let mut model = seed.cloned().unwrap_or_default();
        for (v, iv) in domains.iter() {
            model.set(v, iv.lo);
        }
        stats.candidates_evaluated += 1;
        if model.satisfies_all(arena, constraints) {
            stats.decided_by_propagation += 1;
            return Verdict::Sat(model);
        }
    }

    // Phase 3: bounded enumeration over small residual domains.
    if domains.search_space() <= config.enumeration_limit {
        let verdict = enumerate(stats, arena, constraints, domains, seed);
        stats.decided_by_enumeration += 1;
        return verdict;
    }

    // Phase 4: randomized local search.
    let verdict = local_search(config, stats, arena, constraints, domains, seed);
    if verdict.is_sat() {
        stats.decided_by_search += 1;
    }
    verdict
}

/// Exhaustively enumerates all assignments within the domains.
fn enumerate(
    stats: &mut SolverStats,
    arena: &TermArena,
    constraints: &[TermId],
    domains: &Domains,
    seed: Option<&Model>,
) -> Verdict {
    let vars: Vec<(VarId, Interval)> = domains.iter().collect();
    if vars.is_empty() {
        let model = seed.cloned().unwrap_or_default();
        return if model.satisfies_all(arena, constraints) {
            Verdict::Sat(model)
        } else {
            Verdict::Unsat
        };
    }
    let mut current: Vec<u64> = vars.iter().map(|(_, iv)| iv.lo).collect();
    loop {
        let mut model = seed.cloned().unwrap_or_default();
        for ((v, _), &val) in vars.iter().zip(current.iter()) {
            model.set(*v, val);
        }
        stats.candidates_evaluated += 1;
        if model.satisfies_all(arena, constraints) {
            return Verdict::Sat(model);
        }
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == vars.len() {
                return Verdict::Unsat;
            }
            if current[i] < vars[i].1.hi {
                current[i] += 1;
                break;
            }
            current[i] = vars[i].1.lo;
            i += 1;
        }
    }
}

/// Randomized hill-climbing search over the residual domains.
///
/// The candidate lives in a [`SearchState`]: a move re-evaluates the
/// constraints that mention the moved variable and nothing else. The random
/// stream, the move set, the `candidate == old` skips and plateau acceptance
/// decide which assignments are tried and in which order, and those pin the
/// generated inputs — none of them depends on how a candidate is scored.
fn local_search(
    config: &SolverConfig,
    stats: &mut SolverStats,
    arena: &TermArena,
    constraints: &[TermId],
    domains: &Domains,
    seed: Option<&Model>,
) -> Verdict {
    let vars: Vec<(VarId, Interval)> = domains.iter().collect();
    if vars.is_empty() {
        return Verdict::Unknown;
    }
    let mut walk = TermWalk::default();
    let interesting = interesting_constants(arena, constraints, &mut walk);
    let mut rng = StdRng::seed_from_u64(config.rng_seed);
    let per_restart = config.search_iterations / config.search_restarts.max(1) as u64;
    let mut state = SearchState::new(arena, constraints, seed, &mut walk);
    // What a satisfying state returns: the seed with every searched
    // variable overwritten.
    let model_of = |state: &SearchState| {
        let mut model = seed.cloned().unwrap_or_default();
        for &(v, _) in &vars {
            model.set(v, state.value(v));
        }
        Verdict::Sat(model)
    };

    for restart in 0..config.search_restarts.max(1) {
        // Clamp the starting point into the propagated domains; later
        // restarts start from random points for diversity. Only searched
        // variables ever move, so the rest still hold their seed values.
        for &(v, iv) in &vars {
            let start = if restart == 0 {
                iv.clamp(seed.map_or(0, |m| m.get(v)))
            } else {
                iv.lo + rng.gen_range(0..iv.size().max(1))
            };
            state.place(v, start);
        }
        let mut best = state.recount();
        stats.candidates_evaluated += 1;
        if best == 0 {
            return model_of(&state);
        }

        for _ in 0..per_restart {
            let (var, iv) = vars[rng.gen_range(0..vars.len())];
            let old = state.value(var);
            let candidate = match rng.gen_range(0..6u32) {
                // Jump to an interesting constant from the constraints.
                0 if !interesting.is_empty() => {
                    iv.clamp(interesting[rng.gen_range(0..interesting.len())])
                }
                // Jump to a domain boundary.
                1 => iv.lo,
                2 => iv.hi,
                // Small step.
                3 => iv.clamp(old.wrapping_add(1)),
                4 => iv.clamp(old.wrapping_sub(1)),
                // Uniform random value in the domain.
                _ => iv.lo + rng.gen_range(0..iv.size().max(1)),
            };
            if candidate == old {
                continue;
            }
            let score = state.try_move(var, candidate);
            stats.candidates_evaluated += 1;
            if score == 0 {
                return model_of(&state);
            }
            // Accept improving or equal moves (plateau walking); revert
            // worsening moves.
            if score <= best {
                best = score;
            } else {
                state.undo_move(var, old);
            }
        }
    }
    Verdict::Unknown
}

/// Local search's candidate assignment and what is known about it: which
/// constraints it violates, and which constraints each variable can affect.
struct SearchState<'a> {
    arena: &'a TermArena,
    constraints: &'a [TermId],
    /// Raw value per variable, indexed by [`VarId`] (seed values for
    /// variables the search does not move, 0 for ones the seed omits —
    /// what [`Model::get`] answers).
    values: Vec<u64>,
    /// `violated[i]`: constraint `i` does not hold under `values`.
    violated: Vec<bool>,
    violations: usize,
    /// `(variable index, constraint index)` for every variable a constraint
    /// mentions, sorted; `mentions_of[v]..mentions_of[v + 1]` is variable
    /// `v`'s stretch.
    mentions: Vec<(u32, u32)>,
    mentions_of: Vec<u32>,
    /// The constraints the last [`SearchState::try_move`] flipped.
    flipped: Vec<u32>,
}

impl<'a> SearchState<'a> {
    fn new(
        arena: &'a TermArena,
        constraints: &'a [TermId],
        seed: Option<&Model>,
        walk: &mut TermWalk,
    ) -> Self {
        let var_count = arena.var_count();
        let mut values = vec![0u64; var_count];
        for (v, x) in seed.into_iter().flat_map(Model::iter) {
            if let Some(slot) = values.get_mut(v.index()) {
                *slot = x;
            }
        }

        let mut mentions = Vec::new();
        for (i, &c) in constraints.iter().enumerate() {
            walk.begin(arena);
            arena.visit_leaves(c, walk, |leaf| {
                if let Leaf::Var(v) = leaf {
                    mentions.push((v.0, i as u32));
                }
            });
        }
        mentions.sort_unstable();
        let mut mentions_of = vec![0u32; var_count + 1];
        for &(v, _) in &mentions {
            mentions_of[v as usize + 1] += 1;
        }
        for v in 0..var_count {
            mentions_of[v + 1] += mentions_of[v];
        }

        SearchState {
            arena,
            constraints,
            values,
            violated: vec![false; constraints.len()],
            violations: 0,
            mentions,
            mentions_of,
            flipped: Vec::new(),
        }
    }

    fn value(&self, var: VarId) -> u64 {
        self.values[var.index()]
    }

    /// Sets a variable without rescoring; [`SearchState::recount`] follows.
    fn place(&mut self, var: VarId, value: u64) {
        self.values[var.index()] = value;
    }

    fn holds(&self, constraint: u32) -> bool {
        eval_bool(
            self.arena,
            self.values.as_slice(),
            self.constraints[constraint as usize],
        )
    }

    /// Scores the whole assignment from scratch.
    fn recount(&mut self) -> usize {
        self.violations = 0;
        for i in 0..self.constraints.len() {
            let violated = !self.holds(i as u32);
            self.violated[i] = violated;
            self.violations += usize::from(violated);
        }
        self.violations
    }

    /// Moves `var` to `value` and returns the number of violated
    /// constraints, re-evaluating only those that mention `var`.
    fn try_move(&mut self, var: VarId, value: u64) -> usize {
        self.values[var.index()] = value;
        self.flipped.clear();
        let stretch =
            self.mentions_of[var.index()] as usize..self.mentions_of[var.index() + 1] as usize;
        for at in stretch {
            let constraint = self.mentions[at].1;
            let violated = !self.holds(constraint);
            if violated != self.violated[constraint as usize] {
                self.flipped.push(constraint);
                self.flip(constraint);
            }
        }
        self.violations
    }

    /// Takes back the last [`SearchState::try_move`], which moved `var`
    /// away from `old`.
    fn undo_move(&mut self, var: VarId, old: u64) {
        self.values[var.index()] = old;
        while let Some(constraint) = self.flipped.pop() {
            self.flip(constraint);
        }
    }

    fn flip(&mut self, constraint: u32) {
        let violated = &mut self.violated[constraint as usize];
        *violated = !*violated;
        if *violated {
            self.violations += 1;
        } else {
            self.violations -= 1;
        }
    }
}

/// Extracts constant operands of comparisons, plus their neighbors. These
/// make good jump targets for local search, which indexes the list with its
/// random stream — so the order is pinned: that of a depth-first walk from
/// the last constraint to the first, right operand before left, each value
/// where it is first met. A shared subterm is entered once; a second visit
/// would meet only values already listed.
fn interesting_constants(
    arena: &TermArena,
    constraints: &[TermId],
    walk: &mut TermWalk,
) -> Vec<u64> {
    let mut out = Vec::new();
    let mut known: FastHashSet<u64> = FastHashSet::default();
    walk.begin(arena);
    for &c in constraints.iter().rev() {
        arena.visit_leaves(c, walk, |leaf| {
            if let Leaf::Const(value) = leaf {
                for v in [value.wrapping_sub(1), value, value.wrapping_add(1)] {
                    if known.insert(v) {
                        out.push(v);
                    }
                }
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::TermKind;
    use crate::testkit::{exhaustively_satisfiable, reference_count_violations, TermGen};
    use proptest::prelude::*;

    fn solver() -> Solver {
        Solver::new()
    }

    #[test]
    fn empty_constraints_are_sat() {
        let mut arena = TermArena::new();
        let mut s = solver();
        assert!(s.solve(&mut arena, &[], None).is_sat());
    }

    #[test]
    fn simple_equality_is_solved() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 32);
        let xv = arena.var(x);
        let c = arena.int_const(4242, 32);
        let eq = arena.eq(xv, c);
        let mut s = solver();
        let verdict = s.solve(&mut arena, &[eq], None);
        let m = verdict.model().expect("expected sat");
        assert_eq!(m.get(x), 4242);
    }

    #[test]
    fn range_conjunction_is_solved() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 16);
        let xv = arena.var(x);
        let lo = arena.int_const(100, 16);
        let hi = arena.int_const(110, 16);
        let c1 = arena.ugt(xv, lo);
        let c2 = arena.ult(xv, hi);
        let mut s = solver();
        let verdict = s.solve(&mut arena, &[c1, c2], None);
        let m = verdict.model().expect("expected sat");
        assert!(m.get(x) > 100 && m.get(x) < 110);
        assert!(m.satisfies_all(&arena, &[c1, c2]));
    }

    #[test]
    fn contradiction_is_unsat() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let c5 = arena.int_const(5, 8);
        let c1 = arena.ult(xv, c5);
        let c2 = arena.ugt(xv, c5);
        let c3 = arena.eq(xv, c5);
        let mut s = solver();
        assert!(s.solve(&mut arena, &[c1], None).is_sat());
        assert!(s.solve(&mut arena, &[c1, c2], None).is_unsat());
        assert!(s.solve(&mut arena, &[c1, c2, c3], None).is_unsat());
        let lt0 = {
            let zero = arena.int_const(0, 8);
            arena.ult(xv, zero)
        };
        assert!(s.solve(&mut arena, &[lt0], None).is_unsat());
    }

    #[test]
    fn masked_equality_found_by_search() {
        // (x & 0xff00) == 0xab00 cannot be interval-propagated; local search
        // or enumeration must find it.
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 16);
        let xv = arena.var(x);
        let mask = arena.int_const(0xff00, 16);
        let masked = arena.bitand(xv, mask);
        let target = arena.int_const(0xab00, 16);
        let eq = arena.eq(masked, target);
        let mut s = solver();
        let verdict = s.solve(&mut arena, &[eq], None);
        let m = verdict.model().expect("expected sat");
        assert_eq!(m.get(x) & 0xff00, 0xab00);
    }

    #[test]
    fn seed_model_guides_search() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 32);
        let y = arena.declare_var("y", 32);
        let xv = arena.var(x);
        let yv = arena.var(y);
        let sum = arena.add(xv, yv);
        let c = arena.int_const(1000, 32);
        let eq = arena.eq(sum, c);
        let mut seed = Model::new();
        seed.set(x, 999);
        seed.set(y, 0);
        let mut s = solver();
        let verdict = s.solve(&mut arena, &[eq], Some(&seed));
        let m = verdict.model().expect("expected sat");
        assert_eq!(m.get(x).wrapping_add(m.get(y)) & 0xffff_ffff, 1000);
    }

    #[test]
    fn negated_branch_of_prefix_check() {
        // Mimics the route-filter constraint DiCE negates: the observed
        // input had prefix != 10.0.0.0/8; ask for one that matches.
        let mut arena = TermArena::new();
        let prefix = arena.declare_var("nlri.prefix", 32);
        let pv = arena.var(prefix);
        let eight = arena.int_const(24, 32);
        let shifted = arena.lshr(pv, eight);
        let ten = arena.int_const(10, 32);
        let matches = arena.eq(shifted, ten);
        let mut s = solver();
        let verdict = s.solve(&mut arena, &[matches], None);
        let m = verdict.model().expect("expected sat");
        assert_eq!(m.get(prefix) >> 24, 10);
    }

    #[test]
    fn stats_are_recorded() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let c = arena.int_const(3, 8);
        let eq = arena.eq(xv, c);
        let ne_unsat = {
            let zero = arena.int_const(0, 8);
            arena.ult(xv, zero)
        };
        let mut s = solver();
        let _ = s.solve(&mut arena, &[eq], None);
        let _ = s.solve(&mut arena, &[ne_unsat], None);
        assert_eq!(s.stats().queries, 2);
        assert_eq!(s.stats().sat, 1);
        assert_eq!(s.stats().unsat, 1);
        assert_eq!(s.stats().preprocess_passes, 2);
        assert_eq!(s.stats().incremental_queries, 0);
    }

    #[test]
    fn pinned_domains_shortcut() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let y = arena.declare_var("y", 8);
        let xv = arena.var(x);
        let yv = arena.var(y);
        let c1 = arena.int_const(7, 8);
        let c2 = arena.int_const(9, 8);
        let e1 = arena.eq(xv, c1);
        let e2 = arena.eq(yv, c2);
        let mut s = solver();
        let verdict = s.solve(&mut arena, &[e1, e2], None);
        let m = verdict.model().expect("expected sat");
        assert_eq!((m.get(x), m.get(y)), (7, 9));
    }

    /// `local_search` as it was before the dense, incremental rewrite —
    /// a cloned `Model` per restart, every constraint re-evaluated for every
    /// candidate — moved here verbatim, but for scoring through the
    /// reference evaluator instead of the `Model` methods the rewrite now
    /// sits under.
    fn reference_local_search(
        config: &SolverConfig,
        stats: &mut SolverStats,
        arena: &TermArena,
        constraints: &[TermId],
        domains: &Domains,
        seed: Option<&Model>,
    ) -> Verdict {
        let vars: Vec<(VarId, Interval)> = domains.iter().collect();
        if vars.is_empty() {
            return Verdict::Unknown;
        }
        let interesting = reference_interesting_constants(arena, constraints);
        let mut rng = StdRng::seed_from_u64(config.rng_seed);
        let per_restart = config.search_iterations / config.search_restarts.max(1) as u64;

        for restart in 0..config.search_restarts.max(1) {
            let mut model = seed.cloned().unwrap_or_default();
            // Clamp the starting point into the propagated domains; later
            // restarts start from random points for diversity.
            for (v, iv) in &vars {
                let start = if restart == 0 {
                    iv.clamp(model.get(*v))
                } else {
                    iv.lo + rng.gen_range(0..iv.size().max(1))
                };
                model.set(*v, start);
            }
            let mut best = reference_count_violations(&model, arena, constraints);
            stats.candidates_evaluated += 1;
            if best == 0 {
                return Verdict::Sat(model);
            }

            for _ in 0..per_restart {
                let (var, iv) = vars[rng.gen_range(0..vars.len())];
                let old = model.get(var);
                let candidate = match rng.gen_range(0..6u32) {
                    // Jump to an interesting constant from the constraints.
                    0 if !interesting.is_empty() => {
                        iv.clamp(interesting[rng.gen_range(0..interesting.len())])
                    }
                    // Jump to a domain boundary.
                    1 => iv.lo,
                    2 => iv.hi,
                    // Small step.
                    3 => iv.clamp(old.wrapping_add(1)),
                    4 => iv.clamp(old.wrapping_sub(1)),
                    // Uniform random value in the domain.
                    _ => iv.lo + rng.gen_range(0..iv.size().max(1)),
                };
                if candidate == old {
                    continue;
                }
                model.set(var, candidate);
                let score = reference_count_violations(&model, arena, constraints);
                stats.candidates_evaluated += 1;
                if score == 0 {
                    return Verdict::Sat(model);
                }
                // Accept improving or equal moves (plateau walking); revert
                // worsening moves.
                if score <= best {
                    best = score;
                } else {
                    model.set(var, old);
                }
            }
        }
        Verdict::Unknown
    }

    /// `interesting_constants` as it was: deduplicated with `Vec::contains`.
    fn reference_interesting_constants(arena: &TermArena, constraints: &[TermId]) -> Vec<u64> {
        let mut out = Vec::new();
        let mut stack: Vec<TermId> = constraints.to_vec();
        while let Some(t) = stack.pop() {
            match &arena.node(t).kind {
                TermKind::ConstInt { value, .. } => {
                    for v in [value.wrapping_sub(1), *value, value.wrapping_add(1)] {
                        if !out.contains(&v) {
                            out.push(v);
                        }
                    }
                }
                TermKind::ConstBool(_) | TermKind::Var(_) => {}
                TermKind::Bin { lhs, rhs, .. }
                | TermKind::Cmp { lhs, rhs, .. }
                | TermKind::BoolBin { lhs, rhs, .. } => {
                    stack.push(*lhs);
                    stack.push(*rhs);
                }
                TermKind::BoolNot(x) | TermKind::BitNot(x) => stack.push(*x),
                TermKind::Ite {
                    cond,
                    then_t,
                    else_t,
                } => {
                    stack.push(*cond);
                    stack.push(*then_t);
                    stack.push(*else_t);
                }
                TermKind::Resize { term, .. } => stack.push(*term),
            }
        }
        out
    }

    /// A random constraint set over `var_count` variables, propagated as
    /// `decide` would receive it; `None` when propagation already refutes
    /// it.
    fn search_problem(
        gen: &mut TermGen,
        constraint_count: usize,
    ) -> Option<(Vec<TermId>, Domains)> {
        let raw: Vec<TermId> = (0..constraint_count).map(|_| gen.constraint(3)).collect();
        let constraints = match preprocess(&mut gen.arena, &raw) {
            Preprocessed::Constraints(cs) if !cs.is_empty() => cs,
            _ => return None,
        };
        let mut domains = Domains::init(&gen.arena, &constraints);
        domains
            .propagate(&gen.arena, &constraints, 16)
            .then_some((constraints, domains))
    }

    proptest! {
        /// The rewritten local search returns what the old one did: the
        /// same verdict, the same model, after the same number of
        /// candidates — on 1–6 variables of 4–32 bits, with and without a
        /// seed model, across restarts.
        #[test]
        fn local_search_matches_its_reference(seed in any::<u64>()) {
            let mut gen = TermGen::new(seed, 1 + (seed % 6) as usize, 4..=32);
            let constraint_count = 1 + (seed >> 8) as usize % 8;
            let Some((constraints, domains)) = search_problem(&mut gen, constraint_count) else {
                // Refuted before any search: nothing to compare.
                return;
            };
            let model = gen.model();
            let start = (seed >> 16) % 2 == 0;
            let start = start.then_some(&model);
            let config = SolverConfig {
                search_iterations: 240,
                search_restarts: 1 + (seed >> 24) as u32 % 4,
                rng_seed: seed ^ 0xD1CE,
                ..SolverConfig::default()
            };
            let (mut stats, mut reference_stats) = (SolverStats::new(), SolverStats::new());
            let verdict = local_search(&config, &mut stats, &gen.arena, &constraints, &domains, start);
            let reference = reference_local_search(
                &config,
                &mut reference_stats,
                &gen.arena,
                &constraints,
                &domains,
                start,
            );
            prop_assert_eq!(&verdict, &reference);
            prop_assert_eq!(stats.candidates_evaluated, reference_stats.candidates_evaluated);
            if let Verdict::Sat(model) = &verdict {
                prop_assert_eq!(reference_count_violations(model, &gen.arena, &constraints), 0);
            }
        }
    }

    #[test]
    fn interesting_constants_keep_first_seen_order() {
        for seed in 0..200 {
            let mut gen = TermGen::new(seed, 3, 4..=32);
            let constraints: Vec<TermId> = (0..6).map(|_| gen.constraint(3)).collect();
            assert_eq!(
                interesting_constants(&gen.arena, &constraints, &mut TermWalk::default()),
                reference_interesting_constants(&gen.arena, &constraints),
                "seed {seed}"
            );
        }
    }

    /// The differential test ROADMAP item 9 asked for: `Solver` and
    /// `IncrementalSolver` against exhaustive enumeration over 4–8-bit
    /// variables. A `Sat` model must satisfy the query, `Unsat` must mean no
    /// assignment exists, and `Unknown` — the solver may give up — is
    /// counted and printed, not asserted away.
    #[test]
    fn solvers_agree_with_exhaustive_enumeration() {
        let cases = u64::from(ProptestConfig::default().cases);
        let (mut sat, mut unsat, mut unknown) = (0u64, 0u64, 0u64);
        for seed in 0..cases {
            // One or two variables of any width in 4..=8, or three that
            // together stay enumerable.
            let var_count = 1 + (seed % 3) as usize;
            let widths = if var_count == 3 { 4..=5 } else { 4..=8 };
            let mut gen = TermGen::new(seed.wrapping_mul(0x9E37_79B9), var_count, widths);
            let constraint_count = 1 + (seed >> 3) as usize % 5;
            let constraints: Vec<TermId> =
                (0..constraint_count).map(|_| gen.constraint(3)).collect();
            let start = gen.model();
            let satisfiable = exhaustively_satisfiable(&gen.arena, &gen.vars, &constraints);

            let one_shot = Solver::new().solve(&mut gen.arena, &constraints, Some(&start));
            // The engine's pattern: the prefix asserted once, the last
            // constraint in a frame of its own.
            let (last, prefix) = constraints.split_last().expect("at least one constraint");
            let mut session = crate::IncrementalSolver::new();
            session.assert_all(&mut gen.arena, prefix);
            session.push(&gen.arena);
            session.assert_term(&mut gen.arena, *last);
            let incremental = session.check(&gen.arena, Some(&start));
            session.pop();

            for (solver, verdict) in [("Solver", &one_shot), ("IncrementalSolver", &incremental)] {
                match verdict {
                    Verdict::Sat(model) => {
                        sat += 1;
                        assert!(
                            satisfiable,
                            "seed {seed}: {solver} found a model of an unsatisfiable set"
                        );
                        assert_eq!(
                            reference_count_violations(model, &gen.arena, &constraints),
                            0,
                            "seed {seed}: {solver}'s model {model} violates the query"
                        );
                    }
                    Verdict::Unsat => {
                        unsat += 1;
                        assert!(
                            !satisfiable,
                            "seed {seed}: {solver} refuted a satisfiable set"
                        );
                    }
                    Verdict::Unknown => unknown += 1,
                }
            }
            assert_eq!(
                one_shot, incremental,
                "seed {seed}: the two solvers disagree"
            );
        }
        println!(
            "differential: {cases} constraint sets, two solvers each: {sat} sat, {unsat} unsat, \
             {unknown} unknown"
        );
        assert!(sat > 0 && unsat > 0, "the generator reaches both outcomes");
    }
}

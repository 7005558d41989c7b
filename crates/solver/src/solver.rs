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
//!    one), constraint constants and domain boundaries. The first point is
//!    the seed clamped into the propagated domains, and it is tried before
//!    any search state exists: most negation queries hold right there, and
//!    they pay for one evaluation of each constraint. Only when it fails
//!    are the jump constants collected and each constraint split once into
//!    its comparisons (atoms) and its boolean structure over them. The
//!    candidate is a dense `Vec<u64>` indexed by [`VarId`]; a move
//!    re-evaluates the moved variable's atoms and then the structure of
//!    only the constraints whose atoms changed, and a [`Model`] is built
//!    once, for the assignment that is returned. The buffers all this uses
//!    belong to the solver, not the query.
//!
//! Phases 3 and 4 and [`Model::eval`] share one evaluation core
//! (`crate::eval`): integer terms to `u64`, boolean terms to `bool`.
//!
//! Queries the pipeline cannot decide return [`Verdict::Unknown`]; the
//! exploration engine treats those paths as unreachable for now, exactly as
//! the paper's prototype skips constraints its solver cannot reverse (e.g.
//! hash functions).
//!
//! [`crate::incremental::IncrementalSolver`] is the way to solve: it keeps
//! phases 1–2 alive across queries on an assertion stack, so sibling
//! negation candidates sharing a path prefix pay for it once, and funnels
//! into the phase-3/4 code below. This module's tests keep a one-shot
//! `Solver`, which runs the whole pipeline from scratch for every query,
//! as the reference the session is checked against.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::eval::eval_bool;
use crate::hash::{FastHashMap, FastHashSet};
use crate::interval::{Domains, Interval};
use crate::model::Model;
#[cfg(test)]
use crate::simplify::{preprocess, Preprocessed};
use crate::stats::SolverStats;
use crate::term::{max_value, BoolOp, CmpOp, Leaf, TermArena, TermId, TermKind, TermWalk, VarId};

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

/// The solver's budgets and random seed. Every session runs on the
/// defaults; tests build variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SolverConfig {
    /// Maximum rounds of interval propagation.
    pub(crate) propagation_rounds: usize,
    /// Maximum number of candidate assignments tried by enumeration.
    pub(crate) enumeration_limit: u64,
    /// Maximum number of candidate assignments tried by local search.
    pub(crate) search_iterations: u64,
    /// Number of independent local-search restarts.
    pub(crate) search_restarts: u32,
    /// Seed for the solver's deterministic random number generator.
    pub(crate) rng_seed: u64,
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

/// The one-shot pipeline: every query preprocessed and propagated from
/// scratch, then decided by the phase-3/4 code the session shares. The
/// reference [`crate::incremental::IncrementalSolver`] is tested against.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub(crate) struct Solver {
    config: SolverConfig,
    stats: SolverStats,
    scratch: SearchScratch,
}

#[cfg(test)]
impl Solver {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Decides satisfiability of the conjunction of `constraints`, `seed`
    /// playing the role it plays in
    /// [`crate::incremental::IncrementalSolver::check`].
    pub(crate) fn solve(
        &mut self,
        arena: &mut TermArena,
        constraints: &[TermId],
        seed: Option<&Model>,
    ) -> Verdict {
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
            &mut self.scratch,
            arena,
            &simplified,
            &domains,
            seed,
        )
    }
}

/// Phases 3–4 of the pipeline: pinned-domain shortcut, bounded enumeration,
/// randomized local search. [`crate::incremental::IncrementalSolver::check`]
/// and the one-shot test reference both end here, so they produce
/// identical verdicts and models for identical `(constraints, domains,
/// seed)` inputs.
///
/// `constraints` must be the preprocessed (flattened, deduplicated, sorted)
/// set and `domains` its propagated, non-empty interval state.
pub(crate) fn decide(
    config: &SolverConfig,
    stats: &mut SolverStats,
    scratch: &mut SearchScratch,
    arena: &TermArena,
    constraints: &[TermId],
    domains: &Domains,
    seed: Option<&Model>,
) -> Verdict {
    let start = Instant::now();
    let verdict = decide_inner(config, stats, scratch, arena, constraints, domains, seed);
    stats.search_time_ns += start.elapsed().as_nanos() as u64;
    verdict
}

fn decide_inner(
    config: &SolverConfig,
    stats: &mut SolverStats,
    scratch: &mut SearchScratch,
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
    let verdict = local_search(config, stats, scratch, arena, constraints, domains, seed);
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

/// Local search's working memory. A session (or the one-shot test
/// reference) owns one and lends it to every query it decides, so a query
/// reuses the allocations of the ones before it; no value in it outlives
/// the query that wrote it.
#[derive(Debug, Clone, Default)]
pub(crate) struct SearchScratch {
    /// The searched variables and their domains, in ascending order.
    vars: Vec<(VarId, Interval)>,
    /// Jump targets: constraint constants and their neighbours, in the
    /// order [`interesting_constants`] pins.
    jumps: Vec<u64>,
    /// Dedup set over `jumps`.
    jump_seen: FastHashSet<u64>,
    /// Walk marks, shared with [`Domains::ensure_vars_with`].
    pub(crate) walk: TermWalk,
    /// The candidate assignment and its bookkeeping.
    state: StateBuffers,
}

/// The buffers a [`SearchState`] works in.
#[derive(Debug, Clone, Default)]
struct StateBuffers {
    /// Raw value per variable, indexed by [`VarId`] (seed values for
    /// variables the search does not move, 0 for ones the seed omits —
    /// what [`Model::get`] answers).
    values: Vec<u64>,
    /// `violated[i]`: constraint `i` does not hold under `values`.
    violated: Vec<bool>,
    /// The query's distinct comparisons and whether each holds.
    atoms: Vec<Atom>,
    atom_holds: Vec<bool>,
    /// Atom index by term, while the atoms are collected.
    atom_of: FastHashMap<TermId, u32>,
    /// `(variable index, atom)` for every variable an atom reads, sorted;
    /// `reads_of[v]..reads_of[v + 1]` is variable `v`'s stretch.
    reads: Vec<(u32, u32)>,
    reads_of: Vec<u32>,
    /// `(atom, constraint)` for every constraint an atom occurs in, sorted
    /// and indexed the same way by `uses_of`.
    uses: Vec<(u32, u32)>,
    uses_of: Vec<u32>,
    /// Every constraint's boolean structure over its atoms, in postfix;
    /// `steps_of[i]..steps_of[i + 1]` is constraint `i`'s program.
    steps: Vec<Step>,
    steps_of: Vec<u32>,
    /// The evaluation stack of a program.
    stack: Vec<bool>,
    /// Constraints a move must rescore, deduplicated by stamping
    /// `dirty_at[i]` with the move's number.
    dirty: Vec<u32>,
    dirty_at: Vec<u32>,
    moves: u32,
    /// The atoms the last [`SearchState::try_move`] changed, and the
    /// constraints it flipped.
    changed: Vec<u32>,
    flipped: Vec<u32>,
}

/// A comparison a constraint is built from.
#[derive(Debug, Clone, Copy)]
enum Atom {
    /// A variable, read at its width as [`crate::eval`] reads it,
    /// compared against a constant — which is to say tested for lying in
    /// `lo ..= lo + span` (or, when `outside`, for not lying there), so it
    /// evaluates without branching on the comparison.
    Unary {
        var: VarId,
        mask: u64,
        lo: u64,
        span: u64,
        outside: bool,
    },
    /// Any other boolean term that is not a connective, evaluated whole.
    Opaque(TermId),
}

/// One step of a constraint's boolean structure, in postfix order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Push whether atom `i` holds.
    Atom(u32),
    Const(bool),
    Not,
    Bin(BoolOp),
}

/// A constraint whose structure would take more steps than this is one
/// opaque atom instead: a program is a tree, and a term that shares
/// subterms can unfold into far more steps than it has nodes.
const MAX_STEPS: usize = 256;

/// Randomized hill-climbing search over the residual domains.
///
/// The first point tried is the seed clamped into the domains, and most
/// queries hold right there; what only a move needs — the jump constants,
/// the atom index, the random stream — is built once that point fails.
/// The candidate then lives in a [`SearchState`]: a move re-evaluates the
/// moved variable's atoms, then the structure of the constraints whose
/// atoms changed, and nothing else. The random
/// stream, the move set, the `candidate == old` skips and plateau acceptance
/// decide which assignments are tried and in which order, and those pin the
/// generated inputs — none of them depends on how a candidate is scored.
fn local_search(
    config: &SolverConfig,
    stats: &mut SolverStats,
    scratch: &mut SearchScratch,
    arena: &TermArena,
    constraints: &[TermId],
    domains: &Domains,
    seed: Option<&Model>,
) -> Verdict {
    let SearchScratch {
        vars,
        jumps,
        jump_seen,
        walk,
        state: buffers,
    } = scratch;
    vars.clear();
    vars.extend(domains.iter());
    if vars.is_empty() {
        return Verdict::Unknown;
    }
    let vars = &*vars;
    let mut state = SearchState::new(arena, constraints, seed, buffers);
    // What a satisfying state returns: the seed with every searched
    // variable overwritten.
    let model_of = |state: &SearchState| {
        let mut model = seed.cloned().unwrap_or_default();
        for &(v, _) in vars {
            model.set(v, state.value(v));
        }
        Verdict::Sat(model)
    };

    // Restart 0 starts from the seed clamped into the propagated domains.
    // Only searched variables ever move, so the rest still hold their seed
    // values. No random draw comes before this point, so building the
    // walk's state only after it fails leaves every walk as it was.
    for &(v, iv) in vars {
        state.place(v, iv.clamp(seed.map_or(0, |m| m.get(v))));
    }
    let mut best = state.recount();
    stats.candidates_evaluated += 1;
    if best == 0 {
        return model_of(&state);
    }
    interesting_constants(arena, constraints, walk, jumps, jump_seen);
    state.index(walk);
    let mut rng = StdRng::seed_from_u64(config.rng_seed);
    let per_restart = config.search_iterations / config.search_restarts.max(1) as u64;

    for restart in 0..config.search_restarts.max(1) {
        if restart > 0 {
            // Later restarts start from random points for diversity.
            for &(v, iv) in vars {
                state.place(v, iv.lo + rng.gen_range(0..iv.size().max(1)));
            }
            best = state.recount();
            stats.candidates_evaluated += 1;
            if best == 0 {
                return model_of(&state);
            }
        }

        for _ in 0..per_restart {
            let (var, iv) = vars[rng.gen_range(0..vars.len())];
            let old = state.value(var);
            let candidate = match rng.gen_range(0..6u32) {
                // Jump to an interesting constant from the constraints.
                0 if !jumps.is_empty() => iv.clamp(jumps[rng.gen_range(0..jumps.len())]),
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
/// constraints it violates, and — once [`SearchState::index`] has run —
/// each constraint split into its comparisons (atoms) and its boolean
/// structure over them, so a move re-evaluates the moved variable's atoms
/// and then only the structure of the constraints an atom that changed
/// occurs in.
struct SearchState<'a> {
    arena: &'a TermArena,
    constraints: &'a [TermId],
    buf: &'a mut StateBuffers,
    violations: usize,
}

impl<'a> SearchState<'a> {
    /// The seed as a dense assignment, nothing scored yet.
    fn new(
        arena: &'a TermArena,
        constraints: &'a [TermId],
        seed: Option<&Model>,
        buf: &'a mut StateBuffers,
    ) -> Self {
        buf.values.clear();
        buf.values.resize(arena.var_count(), 0);
        for (v, x) in seed.into_iter().flat_map(Model::iter) {
            if let Some(slot) = buf.values.get_mut(v.index()) {
                *slot = x;
            }
        }
        buf.violated.clear();
        buf.violated.resize(constraints.len(), false);
        // Not indexed yet.
        buf.steps_of.clear();
        SearchState {
            arena,
            constraints,
            buf,
            violations: 0,
        }
    }

    /// Splits every constraint into atoms and structure and indexes which
    /// atoms each variable reads and which constraints each atom occurs
    /// in — what a move needs and a first point does not. Scores the
    /// current assignment's atoms.
    fn index(&mut self, walk: &mut TermWalk) {
        let arena = self.arena;
        let buf = &mut *self.buf;
        buf.atoms.clear();
        buf.atom_of.clear();
        buf.reads.clear();
        buf.uses.clear();
        buf.steps.clear();
        buf.steps_of.clear();
        buf.steps_of.push(0);
        for (i, &c) in self.constraints.iter().enumerate() {
            let start = buf.steps.len();
            if !compile(arena, c, buf, walk, start + MAX_STEPS) {
                buf.steps.truncate(start);
                let atom = buf.atom(arena, c, walk);
                buf.steps.push(Step::Atom(atom));
            }
            for at in start..buf.steps.len() {
                if let Step::Atom(atom) = buf.steps[at] {
                    buf.uses.push((atom, i as u32));
                }
            }
            buf.steps_of.push(buf.steps.len() as u32);
        }
        buf.reads.sort_unstable();
        // An atom twice in one constraint is one use.
        buf.uses.sort_unstable();
        buf.uses.dedup();
        let var_count = arena.var_count();
        offsets(&buf.reads, var_count, &mut buf.reads_of);
        offsets(&buf.uses, buf.atoms.len(), &mut buf.uses_of);

        buf.atom_holds.clear();
        for atom in 0..buf.atoms.len() {
            let holds = buf.eval_atom(arena, atom);
            buf.atom_holds.push(holds);
        }
        buf.dirty_at.clear();
        buf.dirty_at.resize(self.constraints.len(), 0);
        buf.moves = 0;
    }

    fn value(&self, var: VarId) -> u64 {
        self.buf.values[var.index()]
    }

    /// Sets a variable without rescoring; [`SearchState::recount`] follows.
    fn place(&mut self, var: VarId, value: u64) {
        self.buf.values[var.index()] = value;
    }

    /// Scores the whole assignment from scratch: before
    /// [`SearchState::index`] by evaluating each constraint, after it by
    /// re-evaluating every atom and then every structure.
    fn recount(&mut self) -> usize {
        let indexed = !self.buf.steps_of.is_empty();
        if indexed {
            for atom in 0..self.buf.atoms.len() {
                self.buf.atom_holds[atom] = self.buf.eval_atom(self.arena, atom);
            }
        }
        self.violations = 0;
        for i in 0..self.constraints.len() {
            let holds = if indexed {
                self.buf.structure_holds(i)
            } else {
                eval_bool(self.arena, self.buf.values.as_slice(), self.constraints[i])
            };
            self.buf.violated[i] = !holds;
            self.violations += usize::from(!holds);
        }
        self.violations
    }

    /// Moves `var` to `value` and returns the number of violated
    /// constraints, re-evaluating only `var`'s atoms and the structure of
    /// the constraints whose atoms changed.
    fn try_move(&mut self, var: VarId, value: u64) -> usize {
        let buf = &mut *self.buf;
        buf.values[var.index()] = value;
        buf.changed.clear();
        buf.flipped.clear();
        buf.dirty.clear();
        buf.moves += 1;
        let reads = buf.reads_of[var.index()] as usize..buf.reads_of[var.index() + 1] as usize;
        for at in reads {
            let atom = buf.reads[at].1 as usize;
            let holds = buf.eval_atom(self.arena, atom);
            if holds == buf.atom_holds[atom] {
                continue;
            }
            buf.atom_holds[atom] = holds;
            buf.changed.push(atom as u32);
            for at in buf.uses_of[atom] as usize..buf.uses_of[atom + 1] as usize {
                let constraint = buf.uses[at].1;
                if buf.dirty_at[constraint as usize] != buf.moves {
                    buf.dirty_at[constraint as usize] = buf.moves;
                    buf.dirty.push(constraint);
                }
            }
        }
        for at in 0..self.buf.dirty.len() {
            let constraint = self.buf.dirty[at];
            let violated = !self.buf.structure_holds(constraint as usize);
            if violated != self.buf.violated[constraint as usize] {
                self.buf.flipped.push(constraint);
                self.flip(constraint);
            }
        }
        self.violations
    }

    /// Takes back the last [`SearchState::try_move`], which moved `var`
    /// away from `old`.
    fn undo_move(&mut self, var: VarId, old: u64) {
        self.buf.values[var.index()] = old;
        for &atom in &self.buf.changed {
            let holds = &mut self.buf.atom_holds[atom as usize];
            *holds = !*holds;
        }
        while let Some(constraint) = self.buf.flipped.pop() {
            self.flip(constraint);
        }
    }

    fn flip(&mut self, constraint: u32) {
        let violated = &mut self.buf.violated[constraint as usize];
        *violated = !*violated;
        if *violated {
            self.violations += 1;
        } else {
            self.violations -= 1;
        }
    }
}

impl StateBuffers {
    /// The atom for boolean term `term`, added (with the variables it
    /// reads) the first time the query meets it.
    fn atom(&mut self, arena: &TermArena, term: TermId, walk: &mut TermWalk) -> u32 {
        if let Some(&atom) = self.atom_of.get(&term) {
            return atom;
        }
        let atom = self.atoms.len() as u32;
        let unary = match arena.node(term).kind {
            TermKind::Cmp { op, lhs, rhs } => match (arena.as_var(lhs), arena.as_var(rhs)) {
                (Some(var), None) => arena.as_const_int(rhs).map(|(c, _)| (var, lhs, op, c)),
                (None, Some(var)) => arena
                    .as_const_int(lhs)
                    .map(|(c, _)| (var, rhs, op.swap(), c)),
                _ => None,
            },
            _ => None,
        };
        match unary {
            Some((var, var_term, op, c)) => {
                let (lo, hi, outside) = match op {
                    CmpOp::Eq => (c, c, false),
                    CmpOp::Ne => (c, c, true),
                    CmpOp::Ule => (0, c, false),
                    CmpOp::Uge => (c, u64::MAX, false),
                    // `x < 0` and `x > MAX` hold nowhere: outside everything.
                    CmpOp::Ult => c
                        .checked_sub(1)
                        .map_or((0, u64::MAX, true), |hi| (0, hi, false)),
                    CmpOp::Ugt => c
                        .checked_add(1)
                        .map_or((0, u64::MAX, true), |lo| (lo, u64::MAX, false)),
                };
                self.atoms.push(Atom::Unary {
                    var,
                    mask: max_value(arena.node(var_term).sort.width()),
                    lo,
                    span: hi - lo,
                    outside,
                });
                self.reads.push((var.0, atom));
            }
            None => {
                self.atoms.push(Atom::Opaque(term));
                walk.begin(arena);
                let reads = &mut self.reads;
                arena.visit_leaves(term, walk, |leaf| {
                    if let Leaf::Var(v) = leaf {
                        reads.push((v.0, atom));
                    }
                });
            }
        }
        self.atom_of.insert(term, atom);
        atom
    }

    fn eval_atom(&self, arena: &TermArena, atom: usize) -> bool {
        match self.atoms[atom] {
            Atom::Unary {
                var,
                mask,
                lo,
                span,
                outside,
            } => ((self.values[var.index()] & mask).wrapping_sub(lo) <= span) != outside,
            Atom::Opaque(term) => eval_bool(arena, self.values.as_slice(), term),
        }
    }

    /// Runs constraint `i`'s program over the atoms' current values.
    fn structure_holds(&mut self, i: usize) -> bool {
        let program = &self.steps[self.steps_of[i] as usize..self.steps_of[i + 1] as usize];
        if let [Step::Atom(atom)] = program {
            return self.atom_holds[*atom as usize];
        }
        let stack = &mut self.stack;
        stack.clear();
        for step in program {
            match *step {
                Step::Atom(atom) => stack.push(self.atom_holds[atom as usize]),
                Step::Const(b) => stack.push(b),
                Step::Not => {
                    let top = stack
                        .last_mut()
                        .expect("a program pushes before it negates");
                    *top = !*top;
                }
                Step::Bin(op) => {
                    let rhs = stack.pop().expect("a connective has two operands");
                    let lhs = stack.last_mut().expect("a connective has two operands");
                    *lhs = op.eval(*lhs, rhs);
                }
            }
        }
        stack[0]
    }
}

/// Appends `term`'s boolean structure to `buf.steps` in postfix, adding
/// its atoms; false, with the steps left half-written, once they would
/// pass `limit`.
fn compile(
    arena: &TermArena,
    term: TermId,
    buf: &mut StateBuffers,
    walk: &mut TermWalk,
    limit: usize,
) -> bool {
    if buf.steps.len() >= limit {
        return false;
    }
    let step = match arena.node(term).kind {
        TermKind::ConstBool(b) => Step::Const(b),
        TermKind::BoolNot(x) => {
            if !compile(arena, x, buf, walk, limit) {
                return false;
            }
            Step::Not
        }
        TermKind::BoolBin { op, lhs, rhs } => {
            if !compile(arena, lhs, buf, walk, limit) || !compile(arena, rhs, buf, walk, limit) {
                return false;
            }
            Step::Bin(op)
        }
        _ => Step::Atom(buf.atom(arena, term, walk)),
    };
    buf.steps.push(step);
    true
}

/// Turns sorted `(key, _)` pairs into stretch offsets: `out[k]..out[k + 1]`
/// are the pairs with key `k`, for keys below `keys`.
fn offsets(pairs: &[(u32, u32)], keys: usize, out: &mut Vec<u32>) {
    out.clear();
    out.resize(keys + 1, 0);
    for &(key, _) in pairs {
        out[key as usize + 1] += 1;
    }
    for k in 0..keys {
        out[k + 1] += out[k];
    }
}

/// Collects into `out` the constant operands of comparisons, plus their
/// neighbors. These make good jump targets for local search, which indexes
/// the list with its random stream — so the order is pinned: that of a
/// depth-first walk from the last constraint to the first, right operand
/// before left, each value where it is first met. A shared subterm is
/// entered once; a second visit would meet only values already listed.
/// `known` is the dedup set, cleared here like `out`.
fn interesting_constants(
    arena: &TermArena,
    constraints: &[TermId],
    walk: &mut TermWalk,
    out: &mut Vec<u64>,
    known: &mut FastHashSet<u64>,
) {
    out.clear();
    known.clear();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::TermKind;
    use crate::testkit::{
        exhaustively_satisfiable, reference_count_violations, reference_eval, TermGen,
    };
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

    /// A constraint set preprocessed and propagated as `decide` would
    /// receive it; `None` when preprocessing or propagation already
    /// decides it.
    fn search_problem(arena: &mut TermArena, raw: &[TermId]) -> Option<(Vec<TermId>, Domains)> {
        let constraints = match preprocess(arena, raw) {
            Preprocessed::Constraints(cs) if !cs.is_empty() => cs,
            _ => return None,
        };
        let mut domains = Domains::init(arena, &constraints);
        domains
            .propagate(arena, &constraints, 16)
            .then_some((constraints, domains))
    }

    /// Runs the product local search and its reference on one query and
    /// asserts they agree: verdict, model and candidate count. Returns the
    /// count.
    fn assert_search_matches(
        config: &SolverConfig,
        scratch: &mut SearchScratch,
        arena: &TermArena,
        constraints: &[TermId],
        domains: &Domains,
        start: Option<&Model>,
    ) -> u64 {
        let (mut stats, mut reference_stats) = (SolverStats::new(), SolverStats::new());
        let verdict = local_search(
            config,
            &mut stats,
            scratch,
            arena,
            constraints,
            domains,
            start,
        );
        let reference = reference_local_search(
            config,
            &mut reference_stats,
            arena,
            constraints,
            domains,
            start,
        );
        assert_eq!(verdict, reference);
        assert_eq!(
            stats.candidates_evaluated,
            reference_stats.candidates_evaluated
        );
        if let Verdict::Sat(model) = &verdict {
            assert_eq!(reference_count_violations(model, arena, constraints), 0);
        }
        stats.candidates_evaluated
    }

    proptest! {
        /// The rewritten local search returns what the old one did: the
        /// same verdict, the same model, after the same number of
        /// candidates — on 1–6 variables of 4–32 bits, with and without a
        /// seed model, across restarts. Each case asks two queries through
        /// one scratch: a random constraint set, and the part of it the
        /// seed satisfies, which the first point decides whenever the seed
        /// already lies in the domains.
        #[test]
        fn local_search_matches_its_reference(seed in any::<u64>()) {
            let mut gen = TermGen::new(seed, 1 + (seed % 6) as usize, 4..=32);
            let constraint_count = 1 + (seed >> 8) as usize % 8;
            let model = gen.model();
            let raw: Vec<TermId> = (0..constraint_count).map(|_| gen.constraint(3)).collect();
            let held: Vec<TermId> = raw
                .iter()
                .copied()
                .filter(|&c| reference_eval(&model, &gen.arena, c).expect_bool())
                .collect();
            let start = (seed >> 16) % 2 == 0;
            let start = start.then_some(&model);
            let config = SolverConfig {
                search_iterations: 240,
                search_restarts: 1 + (seed >> 24) as u32 % 4,
                rng_seed: seed ^ 0xD1CE,
                ..SolverConfig::default()
            };
            let mut scratch = SearchScratch::default();
            for query in [raw, held] {
                // Refuted before any search: nothing to compare.
                let Some((constraints, domains)) = search_problem(&mut gen.arena, &query) else {
                    continue;
                };
                let candidates = assert_search_matches(
                    &config,
                    &mut scratch,
                    &gen.arena,
                    &constraints,
                    &domains,
                    start,
                );
                let seed_in_domains = start.is_some_and(|m| {
                    domains.iter().all(|(v, iv)| iv.contains(m.get(v)))
                });
                let seed_holds = start.is_some_and(|m| {
                    reference_count_violations(m, &gen.arena, &constraints) == 0
                });
                if seed_in_domains && seed_holds {
                    prop_assert_eq!(candidates, 1, "a seed that holds is the first point");
                }
            }
        }
    }

    /// Drives a [`SearchState`] over `constraints` through `moves` random
    /// moves — some kept, some taken back, with a restart from random
    /// values now and then — and checks every score against evaluating
    /// each constraint whole.
    fn assert_moves_score_like_eval_bool(gen: &mut TermGen, constraints: &[TermId], moves: usize) {
        let model = gen.model();
        let violations = |values: &[u64]| {
            constraints
                .iter()
                .filter(|&&c| !eval_bool(&gen.arena, values, c))
                .count()
        };
        let (mut buf, mut walk) = (StateBuffers::default(), TermWalk::default());
        let mut state = SearchState::new(&gen.arena, constraints, Some(&model), &mut buf);
        assert_eq!(state.recount(), violations(&state.buf.values));
        state.index(&mut walk);
        for step in 0..moves {
            let (var, width) = gen.vars[gen.rng.gen_range(0..gen.vars.len())];
            let old = state.value(var);
            let value = gen.rng.gen_range(0..=crate::term::max_value(width));
            let score = state.try_move(var, value);
            assert_eq!(score, violations(&state.buf.values), "move {step}");
            if gen.rng.gen_range(0..2u32) == 0 {
                state.undo_move(var, old);
                assert_eq!(state.violations, violations(&state.buf.values));
            }
            if gen.rng.gen_range(0..16u32) == 0 {
                for &(v, width) in &gen.vars {
                    state.place(v, gen.rng.gen_range(0..=crate::term::max_value(width)));
                }
                assert_eq!(state.recount(), violations(&state.buf.values));
            }
        }
        // Every move is scored from the atoms' cached values, so the
        // cache itself must still match the assignment.
        for atom in 0..state.buf.atoms.len() {
            assert_eq!(
                state.buf.atom_holds[atom],
                state.buf.eval_atom(&gen.arena, atom)
            );
        }
    }

    proptest! {
        /// A move rescored from cached atoms counts the violations that
        /// evaluating every constraint whole counts, over random terms of
        /// every kind — unary comparisons, comparisons of arbitrary
        /// integer terms, and connectives over them.
        #[test]
        fn atom_scores_match_eval_bool(seed in any::<u64>()) {
            let mut gen = TermGen::new(seed, 1 + (seed % 6) as usize, 1..=64);
            let count = 1 + (seed >> 8) as usize % 8;
            let constraints: Vec<TermId> = (0..count)
                .map(|i| if i % 2 == 0 { gen.constraint(3) } else { gen.bool_term(4) })
                .collect();
            assert_moves_score_like_eval_bool(&mut gen, &constraints, 64);
        }
    }

    /// A constraint whose structure would unfold into more than
    /// [`MAX_STEPS`] steps becomes one opaque atom, and still scores right.
    #[test]
    fn a_widely_shared_structure_is_one_opaque_atom() {
        let mut gen = TermGen::new(7, 2, 8..=8);
        let (x, _) = gen.vars[0];
        let xv = gen.arena.var(x);
        let c = gen.arena.int_const(100, 8);
        let mut term = gen.arena.ult(xv, c);
        // Each level refers to the one below twice: 2^10 leaves as a tree.
        for _ in 0..10 {
            let negated = gen.arena.not(term);
            term = gen.arena.bool_bin(BoolOp::Or, term, negated);
        }
        let (y, _) = gen.vars[1];
        let yv = gen.arena.var(y);
        let small = gen.arena.ult(yv, c);
        let constraints = [term, small];
        let (mut buf, mut walk) = (StateBuffers::default(), TermWalk::default());
        let mut state = SearchState::new(&gen.arena, &constraints, None, &mut buf);
        state.recount();
        state.index(&mut walk);
        let Step::Atom(atom) = state.buf.steps[0] else {
            panic!(
                "the first constraint compiles to {:?}",
                &state.buf.steps[..1]
            );
        };
        assert!(matches!(state.buf.atoms[atom as usize], Atom::Opaque(t) if t == term));
        assert_eq!(state.buf.steps_of[1], 1, "one step: the opaque atom");
        assert_moves_score_like_eval_bool(&mut gen, &constraints, 200);
    }

    #[test]
    fn interesting_constants_keep_first_seen_order() {
        for seed in 0..200 {
            let mut gen = TermGen::new(seed, 3, 4..=32);
            let constraints: Vec<TermId> = (0..6).map(|_| gen.constraint(3)).collect();
            let (mut out, mut known) = (vec![7], FastHashSet::from_iter([7]));
            interesting_constants(
                &gen.arena,
                &constraints,
                &mut TermWalk::default(),
                &mut out,
                &mut known,
            );
            assert_eq!(
                out,
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

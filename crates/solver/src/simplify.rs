//! Bottom-up simplification of constraint sets.
//!
//! The arena already folds constants at construction time; this module adds
//! a rewriting pass that runs before solving:
//!
//! * conjunctions are flattened into individual constraints,
//! * double negations and negated comparisons are normalized,
//! * constraints that are literally `true` are dropped,
//! * a literally-`false` constraint short-circuits the whole set.

use crate::hash::FastHashSet;
use crate::term::{BoolOp, Sort, TermArena, TermId, TermKind};

/// The outcome of preprocessing a constraint set.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Preprocessed {
    /// The set simplified to `false`: no model can satisfy it.
    Contradiction,
    /// The simplified, flattened, deduplicated constraints.
    Constraints(Vec<TermId>),
}

/// Simplifies and flattens a conjunction of constraints: phase 1 of the
/// one-shot pipeline the incremental session is tested against.
#[cfg(test)]
pub(crate) fn preprocess(arena: &mut TermArena, constraints: &[TermId]) -> Preprocessed {
    let mut out = Vec::new();
    let mut seen = FastHashSet::default();
    for &c in constraints {
        if !flatten_into(arena, c, &mut seen, &mut out) {
            return Preprocessed::Contradiction;
        }
    }
    // Detect the trivial `p` and `not p` contradiction after flattening.
    for &c in &out {
        let neg = arena.not(c);
        if seen.contains(&neg) {
            return Preprocessed::Contradiction;
        }
    }
    out.sort();
    Preprocessed::Constraints(out)
}

/// Incrementally flattens one constraint into an accumulated set: normalizes
/// it, splits conjunctions, drops literal `true`s, and appends any new atoms
/// to `out` while recording them in `seen` for deduplication.
///
/// Returns `false` when the constraint is literally `false` — the caller's
/// accumulated set has become a contradiction. The `p` and `not p` check is
/// *not* performed here (it needs `arena.not`, and the incremental session
/// interleaves it with its own bookkeeping); callers wanting the full
/// [`preprocess`] behavior must run it over `out` afterwards.
///
/// This is the stack-aware entry point used by
/// [`crate::incremental::IncrementalSolver`]: across a batched session,
/// `seen`/`out` persist, so each asserted term is simplified exactly once no
/// matter how many queries share it.
pub(crate) fn flatten_into(
    arena: &mut TermArena,
    constraint: TermId,
    seen: &mut FastHashSet<TermId>,
    out: &mut Vec<TermId>,
) -> bool {
    let mut work: Vec<TermId> = vec![constraint];
    while let Some(c) = work.pop() {
        let c = normalize(arena, c);
        match arena.node(c).kind {
            TermKind::ConstBool(true) => continue,
            TermKind::ConstBool(false) => return false,
            TermKind::BoolBin {
                op: BoolOp::And,
                lhs,
                rhs,
            } => {
                work.push(lhs);
                work.push(rhs);
            }
            _ => {
                if seen.insert(c) {
                    out.push(c);
                }
            }
        }
    }
    true
}

/// Normalizes a boolean term: pushes negations into comparisons and removes
/// double negations. Non-boolean terms are returned unchanged.
pub(crate) fn normalize(arena: &mut TermArena, term: TermId) -> TermId {
    if arena.sort(term) != Sort::Bool {
        return term;
    }
    match arena.node(term).kind {
        TermKind::BoolNot(inner) => {
            let inner = normalize(arena, inner);
            arena.not(inner)
        }
        TermKind::BoolBin { op, lhs, rhs } => {
            let l = normalize(arena, lhs);
            let r = normalize(arena, rhs);
            arena.bool_bin(op, l, r)
        }
        _ => term,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn true_constraints_are_dropped() {
        let mut arena = TermArena::new();
        let t = arena.bool_const(true);
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let c1 = arena.int_const(1, 8);
        let c = arena.eq(xv, c1);
        match preprocess(&mut arena, &[t, c, t]) {
            Preprocessed::Constraints(cs) => assert_eq!(cs, vec![c]),
            Preprocessed::Contradiction => panic!("unexpected contradiction"),
        }
    }

    #[test]
    fn false_constraint_is_contradiction() {
        let mut arena = TermArena::new();
        let f = arena.bool_const(false);
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let c1 = arena.int_const(1, 8);
        let c = arena.eq(xv, c1);
        assert_eq!(preprocess(&mut arena, &[c, f]), Preprocessed::Contradiction);
    }

    #[test]
    fn conjunctions_are_flattened() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let c1 = arena.int_const(1, 8);
        let c9 = arena.int_const(9, 8);
        let a = arena.ugt(xv, c1);
        let b = arena.ult(xv, c9);
        let both = arena.and(a, b);
        match preprocess(&mut arena, &[both]) {
            Preprocessed::Constraints(cs) => {
                assert_eq!(cs.len(), 2);
                assert!(cs.contains(&a) && cs.contains(&b));
            }
            Preprocessed::Contradiction => panic!("unexpected contradiction"),
        }
    }

    #[test]
    fn p_and_not_p_is_contradiction() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let c5 = arena.int_const(5, 8);
        let p = arena.eq(xv, c5);
        let np = arena.not(p);
        assert_eq!(
            preprocess(&mut arena, &[p, np]),
            Preprocessed::Contradiction
        );
    }

    #[test]
    fn duplicates_are_removed() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let c5 = arena.int_const(5, 8);
        let p = arena.eq(xv, c5);
        match preprocess(&mut arena, &[p, p, p]) {
            Preprocessed::Constraints(cs) => assert_eq!(cs, vec![p]),
            Preprocessed::Contradiction => panic!("unexpected contradiction"),
        }
    }

    #[test]
    fn double_negation_normalizes() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let c5 = arena.int_const(5, 8);
        let p = arena.ult(xv, c5);
        let np = arena.not(p);
        let nnp = arena.not(np);
        assert_eq!(normalize(&mut arena, nnp), p);
    }
}

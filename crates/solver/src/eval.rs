//! Concrete evaluation of terms: the one core under [`Model::holds`], the
//! enumeration phase and local search.
//!
//! Evaluation is split by sort — [`eval_int`] yields a `u64`, [`eval_bool`] a
//! `bool` — so no value is boxed in an enum on the way up, and it reads
//! variables through [`Assignment`], so local search can keep its candidate
//! in a dense `[u64]` indexed by [`VarId`] while everything else keeps
//! passing a [`Model`].

use crate::model::Model;
use crate::term::{mask, BoolOp, TermArena, TermId, TermKind, VarId};

/// Where an evaluation reads variable values from. Values are raw: they
/// are truncated to the variable's width at the point of use.
pub(crate) trait Assignment {
    /// The value of `var`; 0 when the assignment does not mention it.
    fn value(&self, var: VarId) -> u64;
}

impl Assignment for Model {
    fn value(&self, var: VarId) -> u64 {
        self.get(var)
    }
}

/// A dense assignment: element `i` is the value of the variable with index
/// `i`; variables past the end read as 0.
impl Assignment for [u64] {
    #[inline]
    fn value(&self, var: VarId) -> u64 {
        self.get(var.index()).copied().unwrap_or(0)
    }
}

/// Evaluates an integer-sorted term.
///
/// # Panics
///
/// Panics if the term is boolean-sorted or does not belong to `arena`.
pub(crate) fn eval_int<A: Assignment + ?Sized>(arena: &TermArena, values: &A, term: TermId) -> u64 {
    let node = arena.node(term);
    match node.kind {
        TermKind::ConstInt { value, .. } => value,
        TermKind::Var(v) => mask(values.value(v), node.sort.width()),
        TermKind::ConstBool(_)
        | TermKind::Cmp { .. }
        | TermKind::BoolBin { .. }
        | TermKind::BoolNot(_) => panic!("expected integer value, found boolean"),
    }
}

/// Evaluates a boolean-sorted term.
///
/// # Panics
///
/// Panics if the term is integer-sorted or does not belong to `arena`.
pub(crate) fn eval_bool<A: Assignment + ?Sized>(
    arena: &TermArena,
    values: &A,
    term: TermId,
) -> bool {
    match arena.node(term).kind {
        TermKind::ConstBool(b) => b,
        TermKind::Cmp { op, lhs, rhs } => {
            op.eval(eval_int(arena, values, lhs), eval_int(arena, values, rhs))
        }
        TermKind::BoolBin { op, lhs, rhs } => {
            let a = eval_bool(arena, values, lhs);
            // Terms are pure, so deciding on the left operand alone where
            // it suffices gives the value both operands would.
            match (op, a) {
                (BoolOp::And, false) => false,
                (BoolOp::Or, true) => true,
                _ => eval_bool(arena, values, rhs),
            }
        }
        TermKind::BoolNot(x) => !eval_bool(arena, values, x),
        TermKind::ConstInt { .. } | TermKind::Var(_) => {
            panic!("expected boolean value, found integer")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;
    use crate::testkit::Value;
    use crate::testkit::{any_term, kind_name, reference_eval, TermGen};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Evaluates through the sort-split core, reading variables from `values`.
    fn eval<A: Assignment + ?Sized>(arena: &TermArena, values: &A, term: TermId) -> Value {
        match arena.sort(term) {
            Sort::Bool => Value::Bool(eval_bool(arena, values, term)),
            Sort::Int(width) => Value::Int {
                value: eval_int(arena, values, term),
                width,
            },
        }
    }

    /// The model as the dense vector local search keeps.
    fn dense(model: &Model, var_count: usize) -> Vec<u64> {
        let mut values = vec![0; var_count];
        for (v, x) in model.iter() {
            values[v.index()] = x;
        }
        values
    }

    proptest! {
        /// The sort-split evaluator agrees with the `Value`-enum recursion it
        /// replaced, through a `Model` and through a dense vector alike, on
        /// every subterm of a random term.
        #[test]
        fn sort_split_evaluation_matches_the_reference(seed in any::<u64>()) {
            let mut gen = TermGen::new(seed, 1 + (seed % 6) as usize, 1..=64);
            let root = any_term(&mut gen, 4);
            let model = gen.model();
            let values = dense(&model, gen.arena.var_count());
            for index in 0..=root.index() {
                let term = TermId(index as u32);
                let expected = reference_eval(&model, &gen.arena, term);
                prop_assert_eq!(eval(&gen.arena, &model, term), expected);
                prop_assert_eq!(eval(&gen.arena, values.as_slice(), term), expected);
            }
        }
    }

    #[test]
    fn the_generator_reaches_every_term_kind() {
        let mut seen = BTreeSet::new();
        for seed in 0..64 {
            let mut gen = TermGen::new(seed, 3, 1..=64);
            let root = any_term(&mut gen, 4);
            for index in 0..=root.index() {
                seen.insert(kind_name(&gen.arena.node(TermId(index as u32)).kind));
            }
        }
        let all = ["BoolBin", "BoolNot", "Cmp", "ConstBool", "ConstInt", "Var"];
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), all);
    }

    #[test]
    fn variables_past_a_dense_assignment_read_as_zero() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let y = arena.declare_var("y", 8);
        let (xv, yv) = (arena.var(x), arena.var(y));
        // Only `x` is covered, and is read at its width; `y` reads as 0, as
        // `Model::get` would answer.
        let values = [0x1ffu64];
        assert_eq!(eval_int(&arena, values.as_slice(), xv), 0xff);
        assert_eq!(eval_int(&arena, values.as_slice(), yv), 0);
        let less = arena.ult(yv, xv);
        assert!(eval_bool(&arena, values.as_slice(), less));
    }
}

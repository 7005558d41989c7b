//! Variable assignments and concrete evaluation of terms.

use std::fmt;

use crate::eval::eval_bool;
use crate::term::{Sort, TermArena, TermId, VarId};

/// An assignment of concrete values to symbolic variables.
///
/// Variables not present in the model evaluate to 0.
///
/// Variable ids are dense arena indices, so the values sit in a vector
/// indexed by id: a lookup is an index, and a run's few variables cost one
/// allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    /// `values[v]` is variable `v`'s assignment, if it has one. Nothing is
    /// ever unassigned, so two models with the same assignments have the
    /// same length.
    values: Vec<Option<u64>>,
}

impl Model {
    /// Creates an empty model (all variables zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `vars` more variables.
    pub fn reserve(&mut self, vars: usize) {
        self.values.reserve(vars);
    }

    /// Assigns a value to a variable; the value is truncated to the
    /// variable's width at evaluation time.
    pub fn set(&mut self, var: VarId, value: u64) {
        let index = var.index();
        if index >= self.values.len() {
            self.values.resize(index + 1, None);
        }
        self.values[index] = Some(value);
    }

    /// Returns the value assigned to `var`, or 0 if unassigned.
    pub fn get(&self, var: VarId) -> u64 {
        self.get_opt(var).unwrap_or(0)
    }

    /// Returns the value assigned to `var` if present.
    pub fn get_opt(&self, var: VarId) -> Option<u64> {
        self.values.get(var.index()).copied().flatten()
    }

    /// Iterates over explicit assignments in variable order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (VarId, u64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(index, value)| Some((VarId(index as u32), (*value)?)))
    }

    /// Evaluates a boolean term, returning its truth value.
    ///
    /// # Panics
    ///
    /// Panics if the term is not boolean-sorted.
    pub fn holds(&self, arena: &TermArena, term: TermId) -> bool {
        debug_assert_eq!(arena.sort(term), Sort::Bool);
        eval_bool(arena, self, term)
    }

    /// Returns true if every constraint in the slice holds under this model.
    pub fn satisfies_all(&self, arena: &TermArena, constraints: &[TermId]) -> bool {
        constraints.iter().all(|&c| self.holds(arena, c))
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, x)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}={x}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(VarId, u64)> for Model {
    fn from_iter<T: IntoIterator<Item = (VarId, u64)>>(iter: T) -> Self {
        let mut model = Model::new();
        for (var, value) in iter {
            model.set(var, value);
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unassigned_variables_default_to_zero() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let zero = arena.int_const(0, 8);
        let is_zero = arena.eq(xv, zero);
        let model = Model::new();
        assert_eq!(model.get(x), 0);
        assert!(model.holds(&arena, is_zero));
    }

    #[test]
    fn assignment_is_truncated_to_width() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let max = arena.int_const(0xff, 8);
        let is_max = arena.eq(xv, max);
        let mut model = Model::new();
        model.set(x, 0x1ff);
        assert_eq!(model.get(x), 0x1ff, "the raw value is kept");
        assert!(model.holds(&arena, is_max));
    }

    #[test]
    fn eval_matches_arena_constant_folding() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 16);
        let y = arena.declare_var("y", 16);
        let xv = arena.var(x);
        let yv = arena.var(y);
        let c = arena.int_const(100, 16);
        let cond = arena.ult(xv, yv);
        let below = arena.ult(yv, c);
        let both = arena.and(cond, below);
        let c40 = arena.int_const(40, 16);
        let folded = arena.ult(c40, c);

        let mut model = Model::new();
        model.set(x, 40);
        model.set(y, 50);
        assert!(model.holds(&arena, both));
        assert_eq!(
            arena.as_const_bool(folded),
            Some(model.holds(&arena, folded))
        );
        model.set(y, 170);
        assert!(!model.holds(&arena, both));
    }

    #[test]
    fn count_violations_counts_unsatisfied() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let c5 = arena.int_const(5, 8);
        let c9 = arena.int_const(9, 8);
        let c1 = arena.ugt(xv, c5);
        let c2 = arena.ult(xv, c9);
        let violations = |model: &Model| {
            [c1, c2]
                .iter()
                .filter(|&&c| !model.holds(&arena, c))
                .count()
        };
        let mut model = Model::new();
        model.set(x, 3);
        assert_eq!(violations(&model), 1);
        assert!(!model.satisfies_all(&arena, &[c1, c2]));
        model.set(x, 7);
        assert_eq!(violations(&model), 0);
        assert!(model.satisfies_all(&arena, &[c1, c2]));
    }

    #[test]
    fn connectives_evaluate_like_their_operands() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let zero = arena.int_const(0, 8);
        let two = arena.int_const(2, 8);
        let is_zero = arena.eq(xv, zero);
        let above = arena.ugt(xv, two);
        let either = arena.or(is_zero, above);
        let neither = arena.not(either);
        let mut model = Model::new();
        assert!(model.holds(&arena, either) && !model.holds(&arena, neither));
        model.set(x, 1);
        assert!(!model.holds(&arena, either) && model.holds(&arena, neither));
        model.set(x, 5);
        assert!(model.holds(&arena, either) && !model.holds(&arena, neither));
    }

    #[test]
    fn assignments_count_iterate_and_compare_by_variable() {
        let mut arena = TermArena::new();
        let vars: Vec<VarId> = (0..4)
            .map(|i| arena.declare_var(format!("v{i}"), 8))
            .collect();
        let mut model = Model::new();
        assert_eq!(model.iter().count(), 0);
        model.set(vars[2], 7);
        model.set(vars[0], 1);
        model.set(vars[2], 9);
        assert_eq!(model.iter().count(), 2);
        assert!(model.get_opt(vars[0]).is_some() && model.get_opt(vars[1]).is_none());
        assert_eq!(model.get_opt(vars[3]), None);
        assert_eq!(model.get(vars[3]), 0);
        let assigned: Vec<(VarId, u64)> = model.iter().collect();
        assert_eq!(assigned, vec![(vars[0], 1), (vars[2], 9)]);
        // Equal assignments make equal models, whatever order they came in.
        let reordered: Model = [(vars[2], 9), (vars[0], 1)].into_iter().collect();
        assert_eq!(model, reordered);
        model.set(vars[3], 0);
        assert_ne!(model, reordered);
    }

    #[test]
    fn display_is_compact() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let y = arena.declare_var("y", 8);
        // Referencing the arena keeps variable ids meaningful.
        let _ = (arena.var(x), arena.var(y));
        let model: Model = [(x, 1), (y, 2)].into_iter().collect();
        assert_eq!(model.to_string(), "{v0=1, v1=2}");
    }
}

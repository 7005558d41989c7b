//! Variable assignments and concrete evaluation of terms.

use std::fmt;

use crate::eval::{eval_bool, eval_int};
use crate::term::{Sort, TermArena, TermId, VarId};

/// A concrete value produced by evaluating a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // Variant fields are self-describing.
pub enum Value {
    /// An unsigned integer of the given width.
    Int { value: u64, width: u32 },
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Returns the integer payload, panicking on booleans.
    pub fn expect_int(self) -> u64 {
        match self {
            Value::Int { value, .. } => value,
            Value::Bool(_) => panic!("expected integer value, found boolean"),
        }
    }

    /// Returns the boolean payload, panicking on integers.
    pub fn expect_bool(self) -> bool {
        match self {
            Value::Bool(b) => b,
            Value::Int { .. } => panic!("expected boolean value, found integer"),
        }
    }
}

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
    /// How many entries of `values` are assigned.
    assigned: usize,
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
        let slot = &mut self.values[index];
        if slot.is_none() {
            self.assigned += 1;
        }
        *slot = Some(value);
    }

    /// Returns the value assigned to `var`, or 0 if unassigned.
    pub fn get(&self, var: VarId) -> u64 {
        self.get_opt(var).unwrap_or(0)
    }

    /// Returns the value assigned to `var` if present.
    pub fn get_opt(&self, var: VarId) -> Option<u64> {
        self.values.get(var.index()).copied().flatten()
    }

    /// Returns true if the variable has an explicit assignment.
    pub fn contains(&self, var: VarId) -> bool {
        self.get_opt(var).is_some()
    }

    /// Number of explicitly assigned variables.
    pub fn len(&self) -> usize {
        self.assigned
    }

    /// Returns true if no variable is explicitly assigned.
    pub fn is_empty(&self) -> bool {
        self.assigned == 0
    }

    /// Iterates over explicit assignments in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, u64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(index, value)| Some((VarId(index as u32), (*value)?)))
    }

    /// Evaluates a term under this model.
    ///
    /// # Panics
    ///
    /// Panics if the term id does not belong to `arena`.
    pub fn eval(&self, arena: &TermArena, term: TermId) -> Value {
        match arena.sort(term) {
            Sort::Bool => Value::Bool(eval_bool(arena, self, term)),
            Sort::Int(width) => Value::Int {
                value: eval_int(arena, self, term),
                width,
            },
        }
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

    /// Counts the constraints in the slice that do not hold under this model.
    pub fn count_violations(&self, arena: &TermArena, constraints: &[TermId]) -> usize {
        constraints
            .iter()
            .filter(|&&c| !self.holds(arena, c))
            .count()
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
        let model = Model::new();
        assert_eq!(model.eval(&arena, xv), Value::Int { value: 0, width: 8 });
    }

    #[test]
    fn assignment_is_truncated_to_width() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let mut model = Model::new();
        model.set(x, 0x1ff);
        assert_eq!(model.eval(&arena, xv).expect_int(), 0xff);
    }

    #[test]
    fn eval_matches_arena_constant_folding() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 16);
        let y = arena.declare_var("y", 16);
        let xv = arena.var(x);
        let yv = arena.var(y);
        let sum = arena.add(xv, yv);
        let c = arena.int_const(100, 16);
        let cond = arena.ult(sum, c);

        let mut model = Model::new();
        model.set(x, 40);
        model.set(y, 50);
        assert!(model.holds(&arena, cond));
        model.set(y, 70);
        assert!(!model.holds(&arena, cond));
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
        let mut model = Model::new();
        model.set(x, 3);
        assert_eq!(model.count_violations(&arena, &[c1, c2]), 1);
        model.set(x, 7);
        assert_eq!(model.count_violations(&arena, &[c1, c2]), 0);
        assert!(model.satisfies_all(&arena, &[c1, c2]));
    }

    #[test]
    fn ite_evaluates_correct_branch() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let zero = arena.int_const(0, 8);
        let one = arena.int_const(1, 8);
        let two = arena.int_const(2, 8);
        let cond = arena.eq(xv, zero);
        let ite = arena.ite(cond, one, two);
        let mut model = Model::new();
        assert_eq!(model.eval(&arena, ite).expect_int(), 1);
        model.set(x, 5);
        assert_eq!(model.eval(&arena, ite).expect_int(), 2);
    }

    #[test]
    fn assignments_count_iterate_and_compare_by_variable() {
        let mut arena = TermArena::new();
        let vars: Vec<VarId> = (0..4)
            .map(|i| arena.declare_var(format!("v{i}"), 8))
            .collect();
        let mut model = Model::new();
        assert!(model.is_empty());
        model.set(vars[2], 7);
        model.set(vars[0], 1);
        model.set(vars[2], 9);
        assert_eq!(model.len(), 2);
        assert!(model.contains(vars[0]) && !model.contains(vars[1]));
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

//! Concrete input assignments.
//!
//! An [`InputValues`] gives a concrete value for each named input field;
//! it is what the engine passes to the program under test, and what it
//! derives from solver models when negating a branch predicate.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use dice_solver::Model;

use crate::context::VarMap;

/// A concrete assignment of values to named input fields.
///
/// Names are shared: the engine clones an assignment for every input it
/// generates, and a clone copies the values, not the strings.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InputValues {
    values: BTreeMap<Arc<str>, u64>,
}

impl InputValues {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a field value.
    pub(crate) fn set(&mut self, name: &str, value: u64) {
        match self.values.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                self.values.insert(Arc::from(name), value);
            }
        }
    }

    /// Builder-style field setter.
    pub fn with(mut self, name: &str, value: u64) -> Self {
        self.set(name, value);
        self
    }

    /// Returns the value of a field, or `None` if absent.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.values.get(name).copied()
    }

    /// Returns the value of a field, or `default` if absent.
    pub fn get_or(&self, name: &str, default: u64) -> u64 {
        self.get(name).unwrap_or(default)
    }

    /// Number of assigned fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns true if no fields are assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Builds new input values from a solver model.
    ///
    /// Fields constrained by the model take the model's value; fields the
    /// model leaves unconstrained keep the value from `fallback` (usually
    /// the input of the run whose branch was negated), so that generated
    /// messages stay close to observed ones.
    pub(crate) fn from_model(
        model: &Model,
        var_map: &VarMap,
        fallback: &InputValues,
    ) -> InputValues {
        let mut out = fallback.clone();
        for (name, &var) in var_map {
            if let Some(v) = model.get_opt(var) {
                out.set(name, v);
            }
        }
        out
    }
}

impl fmt::Display for InputValues {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(String, u64)> for InputValues {
    fn from_iter<T: IntoIterator<Item = (String, u64)>>(iter: T) -> Self {
        InputValues {
            values: iter
                .into_iter()
                .map(|(name, value)| (Arc::from(name), value))
                .collect(),
        }
    }
}

/// Collects an assignment from names the caller already shares: each name
/// is a reference-count bump, not a copy of the string.
impl FromIterator<(Arc<str>, u64)> for InputValues {
    fn from_iter<T: IntoIterator<Item = (Arc<str>, u64)>>(iter: T) -> Self {
        InputValues {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_roundtrip() {
        let v = InputValues::new().with("a", 1).with("b", 2);
        assert_eq!(v.get("a"), Some(1));
        assert_eq!(v.get_or("c", 9), 9);
        assert_eq!(v.len(), 2);
        assert_eq!(v.to_string(), "{a=1, b=2}");
    }

    #[test]
    fn from_model_merges_with_fallback() {
        let mut arena = dice_solver::TermArena::new();
        let va = arena.declare_var("a", 32);
        let _vb = arena.declare_var("b", 32);
        let mut var_map = VarMap::default();
        var_map.insert("a".into(), va);
        // `b` intentionally not in the var map: it was never made symbolic.
        let mut model = Model::new();
        model.set(va, 777);
        let fallback = InputValues::new().with("a", 1).with("b", 2);
        let merged = InputValues::from_model(&model, &var_map, &fallback);
        assert_eq!(merged.get("a"), Some(777));
        assert_eq!(merged.get("b"), Some(2));
    }

    #[test]
    fn values_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let v1 = InputValues::new().with("x", 1).with("y", 2);
        let v2 = InputValues::new().with("y", 2).with("x", 1);
        assert_eq!(v1, v2);
        let mut set = HashSet::new();
        set.insert(v1);
        assert!(set.contains(&v2));
    }
}

//! Execution traces and path identities.
//!
//! Every concolic run produces an [`ExecTrace`]: the term arena, the branch
//! sequence, the input that produced it and the program outcome. Traces are
//! what the exploration layer negates branches against, and what the DiCE
//! fault checkers inspect.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use dice_solver::{Model, TermArena, TermId, VarId};

use crate::context::{BranchRecord, ExecCtx, SiteId};
use crate::input::InputValues;

/// A compact identity for a code path: the ordered sequence of
/// `(site, direction)` pairs, hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u64);

/// Computes the path identity of a branch sequence.
pub fn path_id(branches: &[(SiteId, bool)]) -> PathId {
    let mut h = DefaultHasher::new();
    for (site, taken) in branches {
        site.hash(&mut h);
        taken.hash(&mut h);
    }
    PathId(h.finish())
}

/// The result of one concolic execution of the program under test.
#[derive(Debug, Clone)]
pub struct ExecTrace {
    /// The term arena built during the run.
    pub arena: TermArena,
    /// The branches taken, in order.
    pub branches: Vec<BranchRecord>,
    /// Human-readable labels for branch sites.
    pub site_labels: HashMap<SiteId, String>,
    /// Concrete assignment of the symbolic inputs during the run.
    pub concrete: Model,
    /// Mapping from input field names to solver variables.
    pub var_map: HashMap<String, VarId>,
    /// The input values the run was started with.
    pub input: InputValues,
    /// Policy branch sites declared during the run (every arm of every
    /// filter the run evaluated, executed or not).
    pub policy_sites: BTreeSet<SiteId>,
}

impl ExecTrace {
    /// Builds a trace from a finished execution context and its input.
    pub fn from_ctx(ctx: ExecCtx, input: InputValues) -> Self {
        let site_labels = ctx.site_labels().clone();
        let policy_sites = ctx.policy_sites().clone();
        let (arena, branches, concrete, var_map) = ctx.into_parts();
        ExecTrace {
            arena,
            branches,
            site_labels,
            concrete,
            var_map,
            input,
            policy_sites,
        }
    }

    /// Number of branches on the path.
    pub fn depth(&self) -> usize {
        self.branches.len()
    }

    /// The `(site, direction)` shape of the path.
    pub fn shape(&self) -> Vec<(SiteId, bool)> {
        self.branches.iter().map(|b| (b.site, b.taken)).collect()
    }

    /// The path identity of the full trace.
    pub fn path_id(&self) -> PathId {
        path_id(&self.shape())
    }

    /// The identity of the path targeted by negating branch `index`:
    /// the prefix up to `index` with the direction of `index` flipped.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn negated_path_id(&self, index: usize) -> PathId {
        let mut shape: Vec<(SiteId, bool)> = self
            .branches
            .iter()
            .take(index + 1)
            .map(|b| (b.site, b.taken))
            .collect();
        let last = shape.last_mut().expect("index within bounds");
        last.1 = !last.1;
        path_id(&shape)
    }

    /// Constraints of the path prefix `[0, index)` plus the negation of the
    /// branch at `index` — the query the solver must satisfy to steer
    /// execution down the unexplored side.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn negation_query(&mut self, index: usize) -> Vec<TermId> {
        assert!(index < self.branches.len(), "branch index out of bounds");
        let branches = self.branches.clone();
        let mut out = Vec::with_capacity(index + 1);
        for b in branches.iter().take(index) {
            out.push(b.taken_constraint(&mut self.arena));
        }
        out.push(branches[index].negated_constraint(&mut self.arena));
        out
    }

    /// All constraints along the executed path.
    pub fn path_constraints(&mut self) -> Vec<TermId> {
        let branches = self.branches.clone();
        branches
            .iter()
            .map(|b| b.taken_constraint(&mut self.arena))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::CU32;

    fn trace_with_two_branches(x_val: u32) -> ExecTrace {
        let mut ctx = ExecCtx::new();
        let x = ctx.symbolic_u32("x", x_val);
        let c10 = CU32::concrete(10);
        let c100 = CU32::concrete(100);
        let c1 = x.lt(&c10, &mut ctx);
        ctx.branch_labeled("b1", c1);
        let c2 = x.lt(&c100, &mut ctx);
        ctx.branch_labeled("b2", c2);
        ExecTrace::from_ctx(ctx, InputValues::new().with("x", x_val as u64))
    }

    #[test]
    fn path_id_depends_on_directions() {
        let t1 = trace_with_two_branches(5); // taken, taken
        let t2 = trace_with_two_branches(50); // not taken, taken
        assert_ne!(t1.path_id(), t2.path_id());
        let t3 = trace_with_two_branches(7); // same directions as t1
        assert_eq!(t1.path_id(), t3.path_id());
    }

    #[test]
    fn negated_path_id_matches_actual_path() {
        // Negating branch 0 of the x=5 trace (x<10 taken) targets the path
        // where x>=10; running with x=50 produces exactly that prefix.
        let t1 = trace_with_two_branches(5);
        let t2 = trace_with_two_branches(50);
        let target = t1.negated_path_id(0);
        let prefix: Vec<(SiteId, bool)> = t2.shape().into_iter().take(1).collect();
        assert_eq!(target, path_id(&prefix));
    }

    #[test]
    fn negation_query_is_satisfied_by_other_side() {
        let mut t = trace_with_two_branches(5);
        let query = t.negation_query(0);
        // The original input (x=5) must violate the negated query...
        assert!(!t.concrete.satisfies_all(&t.arena, &query));
        // ...while an input on the other side (x=20) satisfies it.
        let mut other = Model::new();
        other.set(t.var_map["x"], 20);
        assert!(other.satisfies_all(&t.arena, &query));
    }

    #[test]
    fn path_constraints_hold_for_own_input() {
        let mut t = trace_with_two_branches(42);
        let cs = t.path_constraints();
        assert_eq!(cs.len(), 2);
        assert!(t.concrete.satisfies_all(&t.arena, &cs));
    }

    #[test]
    fn depth_and_shape() {
        let t = trace_with_two_branches(5);
        assert_eq!(t.depth(), 2);
        let shape = t.shape();
        assert_eq!(shape.len(), 2);
        assert!(shape[0].1);
        assert!(shape[1].1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn negation_query_rejects_bad_index() {
        let mut t = trace_with_two_branches(5);
        let _ = t.negation_query(5);
    }
}

//! Execution traces and path identities.
//!
//! Every concolic run produces an [`ExecTrace`]: the term arena, the branch
//! sequence, the input that produced it and the program outcome. Traces are
//! what the exploration layer negates branches against, and what the DiCE
//! fault checkers inspect.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use dice_solver::{Model, TermArena};

use crate::context::{BranchRecord, ExecCtx, SiteId, SiteInfo, VarMap};
use crate::input::InputValues;

/// A compact identity for a code path: the ordered sequence of
/// `(site, direction)` pairs, hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u64);

fn hash_step(h: &mut DefaultHasher, site: SiteId, taken: bool) {
    site.hash(h);
    taken.hash(h);
}

/// The identity of a branch sequence and, for every index `k`, of the path
/// negating branch `k` targets (the prefix up to `k` with `k`'s direction
/// flipped) — all from one pass: the hasher that has absorbed the prefix
/// `[0, k)` is cloned to finish the flipped variant, then absorbs `k`
/// itself. The values are those hashing each shape from scratch gives.
fn path_ids(branches: &[BranchRecord]) -> (PathId, Vec<PathId>) {
    let mut prefix = DefaultHasher::new();
    let mut negated = Vec::with_capacity(branches.len());
    for b in branches {
        let mut flipped = prefix.clone();
        hash_step(&mut flipped, b.site, !b.taken);
        negated.push(PathId(flipped.finish()));
        hash_step(&mut prefix, b.site, b.taken);
    }
    (PathId(prefix.finish()), negated)
}

/// The result of one concolic execution of the program under test.
#[derive(Debug, Clone)]
pub struct ExecTrace {
    /// The term arena built during the run.
    pub arena: TermArena,
    /// The branches taken, in order.
    pub branches: Vec<BranchRecord>,
    /// Labels of the run's branch sites and its policy sites (every arm of
    /// every filter the run evaluated, executed or not) — usually the
    /// filter's own table, shared by every run that evaluated it.
    pub sites: Arc<SiteInfo>,
    /// Concrete assignment of the symbolic inputs during the run.
    pub concrete: Model,
    /// Mapping from input field names to solver variables.
    pub(crate) var_map: VarMap,
    /// The input values the run was started with.
    pub input: InputValues,
    /// Identity of the executed path, hashed when the trace was built.
    path: PathId,
    /// `negated[k]`: identity of the path negating branch `k` targets.
    negated: Vec<PathId>,
}

impl ExecTrace {
    /// Builds a trace from a finished execution context and its input.
    pub(crate) fn from_ctx(mut ctx: ExecCtx, input: InputValues) -> Self {
        let sites = ctx.take_sites();
        let (arena, branches, concrete, var_map) = ctx.into_parts();
        let (path, negated) = path_ids(&branches);
        ExecTrace {
            arena,
            branches,
            sites,
            concrete,
            var_map,
            input,
            path,
            negated,
        }
    }

    /// The path identity of the full trace.
    pub fn path_id(&self) -> PathId {
        self.path
    }

    /// The identity of the path targeted by negating branch `index`:
    /// the prefix up to `index` with the direction of `index` flipped.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub(crate) fn negated_path_id(&self, index: usize) -> PathId {
        self.negated[index]
    }

    /// Constraints of the path prefix `[0, index)` plus the negation of the
    /// branch at `index` — the query the solver must satisfy to steer
    /// execution down the unexplored side.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[cfg(test)]
    fn negation_query(&mut self, index: usize) -> Vec<dice_solver::TermId> {
        assert!(index < self.branches.len(), "branch index out of bounds");
        let ExecTrace {
            arena, branches, ..
        } = self;
        let mut out = Vec::with_capacity(index + 1);
        for b in &branches[..index] {
            out.push(b.taken_constraint(arena));
        }
        out.push(branches[index].negated_constraint(arena));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::CU32;
    use dice_solver::TermId;
    use proptest::prelude::*;

    /// Computes the path identity of a branch sequence from scratch.
    fn path_id(branches: &[(SiteId, bool)]) -> PathId {
        let mut h = DefaultHasher::new();
        for &(site, taken) in branches {
            hash_step(&mut h, site, taken);
        }
        PathId(h.finish())
    }

    /// The `(site, direction)` shape of a trace's path.
    fn shape(trace: &ExecTrace) -> Vec<(SiteId, bool)> {
        trace.branches.iter().map(|b| (b.site, b.taken)).collect()
    }

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

    /// `negated_path_id` as it was: the prefix up to `index` copied out
    /// with its last direction flipped, hashed from scratch.
    fn reference_negated_path_id(branches: &[BranchRecord], index: usize) -> PathId {
        let mut shape: Vec<(SiteId, bool)> = branches
            .iter()
            .take(index + 1)
            .map(|b| (b.site, b.taken))
            .collect();
        let last = shape.last_mut().expect("index within bounds");
        last.1 = !last.1;
        path_id(&shape)
    }

    proptest! {
        /// One pass with a cloned hasher per prefix yields, for every
        /// branch of a random shape, the identity the old per-candidate
        /// rehash gave — and the trace's own.
        #[test]
        fn one_pass_path_ids_match_rehashing_every_prefix(
            shape in prop::collection::vec((0u64..6, any::<bool>()), 0..40),
        ) {
            let condition = TermArena::new().bool_const(true);
            let branches: Vec<BranchRecord> = shape
                .iter()
                .map(|&(site, taken)| BranchRecord {
                    // Few distinct sites, so shapes revisit them.
                    site: SiteId(site.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    condition,
                    taken,
                })
                .collect();
            let (path, negated) = path_ids(&branches);
            let full: Vec<(SiteId, bool)> = branches.iter().map(|b| (b.site, b.taken)).collect();
            prop_assert_eq!(path, path_id(&full));
            prop_assert_eq!(negated.len(), branches.len());
            for (k, &id) in negated.iter().enumerate() {
                prop_assert_eq!(id, reference_negated_path_id(&branches, k));
            }
        }
    }

    #[test]
    fn trace_serves_the_ids_it_hashed_when_built() {
        let t = trace_with_two_branches(5);
        assert_eq!(t.path_id(), path_id(&shape(&t)));
        for k in 0..t.branches.len() {
            assert_eq!(
                t.negated_path_id(k),
                reference_negated_path_id(&t.branches, k)
            );
        }
    }

    #[test]
    #[should_panic]
    fn negated_path_id_rejects_bad_index() {
        let _ = trace_with_two_branches(5).negated_path_id(2);
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
        let prefix: Vec<(SiteId, bool)> = shape(&t2).into_iter().take(1).collect();
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
        let ExecTrace {
            arena, branches, ..
        } = &mut t;
        let cs: Vec<TermId> = branches.iter().map(|b| b.taken_constraint(arena)).collect();
        assert_eq!(cs.len(), 2);
        assert!(t.concrete.satisfies_all(&t.arena, &cs));
    }

    #[test]
    fn depth_and_shape() {
        let t = trace_with_two_branches(5);
        assert_eq!(t.branches.len(), 2);
        let shape = shape(&t);
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

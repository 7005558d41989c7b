//! # dice-solver
//!
//! An SMT-lite constraint solver over fixed-width unsigned integers and
//! booleans, built as the solving substrate for the DiCE concolic execution
//! engine (`dice-symexec`).
//!
//! The original DiCE prototype (USENIX ATC 2011) relies on the constraint
//! solver bundled with the Oasis/Crest concolic engines. This crate plays
//! the same role for the Rust reproduction: given the path constraints
//! recorded while a BGP UPDATE handler processes a message, and the negation
//! of one branch predicate, it produces a concrete input assignment that
//! drives execution down the other side of that branch.
//!
//! The constraint language is the one the router's filter interpreter
//! records: comparisons of message fields against configured constants,
//! joined by `&&`, `||` and `!`. There is no integer arithmetic.
//!
//! Queries go through one entry point, [`IncrementalSolver`]: a push/pop
//! assertion stack that keeps
//! simplification results and propagated interval domains alive across
//! queries, so the sibling negation candidates of one concolic run pay for
//! their shared path prefix once. The crate's tests check it against a
//! one-shot pipeline that solves every query from scratch.
//!
//! ## Example
//!
//! ```
//! use dice_solver::{IncrementalSolver, TermArena};
//!
//! let mut arena = TermArena::new();
//! let metric = arena.declare_var("med", 32);
//! let m = arena.var(metric);
//! let hundred = arena.int_const(100, 32);
//! // The observed execution took the `med < 100` branch; ask the solver
//! // for an input taking the other side.
//! let negated = arena.uge(m, hundred);
//!
//! let mut session = IncrementalSolver::new();
//! session.assert_term(&mut arena, negated);
//! let verdict = session.check(&arena, None);
//! let model = verdict.model().expect("satisfiable");
//! assert!(model.get(metric) >= 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eval;
mod hash;
mod incremental;
mod interval;
mod model;
mod simplify;
mod solver;
mod stats;
mod term;
#[cfg(test)]
mod testkit;

pub use hash::{FastBuildHasher, FastHashMap, FastHashSet, FastHasher};
pub use incremental::IncrementalSolver;
pub use model::Model;
pub use solver::Verdict;
pub use stats::SolverStats;
pub use term::{TermArena, TermId, VarId};

//! # dice-symexec
//!
//! A concolic execution engine for Rust code, playing the role of the Oasis
//! engine in the DiCE prototype (USENIX ATC 2011).
//!
//! The original system instruments C programs with CIL so that every branch
//! on symbolic data records a constraint at run time. In Rust there is no
//! equivalent source-instrumentation pipeline, so this crate uses a
//! *library embedding*: code under test manipulates [`Concolic`] values and
//! announces its branches through [`ExecCtx::branch_labeled`]. The observable
//! artifact is the same — a path condition per execution — and the
//! exploration loop (negate a predicate, solve, re-execute) is identical to
//! the one described in the paper's Figure 1.
//!
//! ## Quick example
//!
//! ```
//! use dice_symexec::{ConcolicEngine, ExecCtx, InputValues};
//!
//! // A handler with two paths: the engine discovers both from one seed.
//! let mut handler = |ctx: &mut ExecCtx, input: &InputValues| {
//!     let ttl = ctx.symbolic_u32("ttl", input.get_or("ttl", 0) as u32);
//!     let cond = ttl.gt_const(64, ctx);
//!     if ctx.branch_labeled("ttl-check", cond) {
//!         "drop"
//!     } else {
//!         "forward"
//!     }
//! };
//!
//! let engine = ConcolicEngine::default();
//! let result = engine.explore(&mut handler, &[InputValues::new().with("ttl", 10)]);
//! let outputs: std::collections::HashSet<_> = result.outputs().copied().collect();
//! assert!(outputs.contains("drop") && outputs.contains("forward"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod coverage;
mod engine;
mod input;
mod path;
mod value;
mod worklist;

pub use context::{BranchRecord, ExecCtx, SiteId, SiteInfo, SiteLabels, VarMap};
pub use coverage::{Coverage, SiteCoverage};
pub use engine::{
    ConcolicEngine, EngineConfig, Exploration, ExplorationStats, RunRecord, SymbolicProgram,
};
pub use input::InputValues;
pub use path::{ExecTrace, PathId};
pub use value::{Concolic, ConcolicBool, ConcolicInt, CU32, CU8};

// Solver handles that appear in this crate's public API (branch records and
// policy arm traces carry `TermId` path constraints).
pub use dice_solver::TermId;

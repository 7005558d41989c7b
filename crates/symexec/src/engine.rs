//! The concolic execution engine.
//!
//! The engine drives the loop at the heart of DiCE (Figure 1 of the paper):
//!
//! 1. execute the program under test with a concrete input, recording the
//!    branch constraints along the executed path;
//! 2. pick a recorded branch — generation by generation, shallowest first —
//!    and ask the solver for an input that satisfies the path prefix plus
//!    the *negated* branch predicate;
//! 3. execute the program with the generated input, record its path, update
//!    the aggregate constraint/coverage set, and repeat until the path
//!    budget is exhausted or no unexplored branches remain.
//!
//! The program under test implements [`SymbolicProgram`]; in DiCE it is the
//! BGP UPDATE handler executing over a clone of the node checkpoint.
//!
//! # Waves
//!
//! Steps 2–3 run a wave at a time: the engine drains up to 16 candidates
//! of one generation off the top of the worklist's heap, groups them by
//! originating run, solves each group incrementally against its shared
//! path prefix ([`dice_solver::IncrementalSolver`]; one session per
//! exploration, reset between groups, so its buffers are allocated once),
//! then executes the satisfiable inputs in wave order — all on the calling
//! thread; parallelism lives above the engine, across observed inputs and
//! nodes. A run executed earlier in a wave may reach the path a later
//! candidate of the same wave targets; that candidate's answer is
//! discarded and counted as a duplicate, not as a solver outcome, though
//! the solver's own statistics count the query. The runs, counters and
//! solver statistics this produces are pinned in
//! `crates/symexec/tests/batched_equiv.rs`.
//!
//! # What a run owns
//!
//! Each execution gets a fresh [`ExecCtx`] — its own term arena, interned
//! in execution order because [`dice_solver::TermId`] numbering decides
//! which input a negation yields — with tables sized from the run before
//! it. Everything else is shared into the run or moved out of it: the
//! finished context's arena, branches, model and variable map move into
//! the [`ExecTrace`], which also hashes the path identity and every
//! negation target once; site labels and policy sites are one
//! reference-counted [`crate::SiteInfo`] the program declared, which
//! [`Coverage::register_sites`] folds in once per table, not per run.

use std::collections::BTreeMap;
use std::time::Instant;

use dice_solver::{FastHashSet, IncrementalSolver, SolverStats, Verdict};

use crate::context::ExecCtx;
use crate::coverage::Coverage;
use crate::input::InputValues;
use crate::path::{ExecTrace, PathId};
use crate::worklist::{Candidate, Worklist};

/// A program that can be executed concolically.
///
/// Implementations create their symbolic inputs through the provided
/// [`ExecCtx`] (typically by calling `ctx.symbolic_u32(name, value)` with
/// values taken from `input`), branch through [`ExecCtx::branch_labeled`]
/// or [`ExecCtx::branch_at`], and return an application-level outcome
/// that fault checkers can inspect.
pub trait SymbolicProgram {
    /// Application-level outcome of one execution.
    type Output;

    /// Executes the program once with the given concrete input.
    fn run(&mut self, ctx: &mut ExecCtx, input: &InputValues) -> Self::Output;
}

impl<F, O> SymbolicProgram for F
where
    F: FnMut(&mut ExecCtx, &InputValues) -> O,
{
    type Output = O;

    fn run(&mut self, ctx: &mut ExecCtx, input: &InputValues) -> O {
        self(ctx, input)
    }
}

/// Maximum number of branches a run records; branches past it execute
/// concretely.
const MAX_BRANCHES_PER_RUN: usize = 10_000;

/// Maximum number of candidates drained from the worklist per wave.
const WAVE: usize = 16;

/// Configuration of the exploration loop: its run budget.
///
/// `#[non_exhaustive]`: construct via [`EngineConfig::default`] and
/// [`EngineConfig::with_max_runs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Maximum number of program executions (including seed runs).
    pub max_runs: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { max_runs: 256 }
    }
}

impl EngineConfig {
    /// Sets the maximum number of program executions (including seeds).
    pub fn with_max_runs(mut self, max_runs: usize) -> Self {
        self.max_runs = max_runs;
        self
    }
}

/// One completed execution: its trace, its output, and provenance.
#[derive(Debug, Clone)]
pub struct RunRecord<O> {
    /// The execution trace (arena, branches, inputs).
    pub trace: ExecTrace,
    /// The application-level output of the run.
    pub output: O,
    /// `None` for seed runs; otherwise `(run, branch)` that was negated to
    /// generate this run's input.
    pub parent: Option<(usize, usize)>,
    /// Exploration generation (seeds are 0).
    pub generation: u32,
}

/// Counters describing one exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExplorationStats {
    /// Number of program executions performed.
    pub runs: usize,
    /// Number of negation candidates generated.
    pub candidates: usize,
    /// Of those, candidates targeting *policy* branch sites (filter arms).
    pub(crate) policy_candidates: usize,
    /// Candidates skipped because their target path had already been tried.
    pub skipped_duplicates: usize,
    /// Solver queries that produced a new input.
    pub solver_sat: usize,
    /// Solver queries proving the other side infeasible.
    pub solver_unsat: usize,
    /// Solver queries that timed out / were undecided.
    pub solver_unknown: usize,
    /// Worklist waves processed.
    pub waves: usize,
    /// Total wall-clock time of the exploration, in nanoseconds.
    pub(crate) elapsed_ns: u64,
}

/// The result of an exploration.
#[derive(Debug)]
pub struct Exploration<O> {
    /// All runs, in execution order (seed runs first).
    pub runs: Vec<RunRecord<O>>,
    /// Aggregate branch coverage.
    pub coverage: Coverage,
    /// Exploration counters.
    pub stats: ExplorationStats,
    /// Cumulative solver statistics.
    pub solver_stats: SolverStats,
    /// Wall-clock latency distribution of solver waves, one sample per
    /// wave. Purely observational: kept out of [`ExplorationStats`], which
    /// holds only deterministic counters (and the total elapsed time).
    pub wave_latency: dice_obs::Histogram,
}

impl<O> Exploration<O> {
    /// Iterates over the outputs of all runs.
    pub fn outputs(&self) -> impl Iterator<Item = &O> {
        self.runs.iter().map(|r| &r.output)
    }

    /// Number of distinct paths executed.
    pub fn distinct_paths(&self) -> usize {
        if self.runs.len() < 2 {
            return self.runs.len();
        }
        let ids: FastHashSet<PathId> = self.runs.iter().map(|r| r.trace.path_id()).collect();
        ids.len()
    }

    /// Consumes the exploration and returns every run's application-level
    /// output, preserving execution order (seed runs first, generated runs
    /// in the order they were committed).
    ///
    /// Outputs carry whatever the program recorded per run (in DiCE, the
    /// handler outcome with its intercepted messages), and the order they
    /// are returned in is the order the round executed them.
    pub fn into_outputs(self) -> Vec<O> {
        self.runs.into_iter().map(|r| r.output).collect()
    }

    /// The inputs of all non-seed runs, i.e. the inputs the engine derived
    /// by negating branch predicates. In DiCE these become the exploratory
    /// messages sent to the cloned checkpoint.
    pub fn generated_inputs(&self) -> Vec<&InputValues> {
        self.runs
            .iter()
            .filter(|r| r.parent.is_some())
            .map(|r| &r.trace.input)
            .collect()
    }
}

/// One drained worklist entry: the candidate plus the path identity its
/// negation targets (already recorded in the attempted set).
#[derive(Debug, Clone, Copy)]
struct WaveItem {
    candidate: Candidate,
    target: PathId,
}

/// The solver's answer for one wave position.
enum SolveMsg {
    /// The negation is satisfiable; execute this input.
    Sat(InputValues),
    Unsat,
    Unknown,
}

/// The mutable exploration state threaded through the engine loop: the
/// run list, aggregate coverage, counters, the candidate worklist and the
/// set of attempted path identities.
struct ExplorationState<O> {
    runs: Vec<RunRecord<O>>,
    coverage: Coverage,
    stats: ExplorationStats,
    worklist: Worklist,
    /// Path identities we have executed or already queued a query for.
    attempted: FastHashSet<PathId>,
}

impl<O> ExplorationState<O> {
    fn new() -> Self {
        ExplorationState {
            runs: Vec::new(),
            coverage: Coverage::new(),
            stats: ExplorationStats::default(),
            worklist: Worklist::new(),
            attempted: FastHashSet::default(),
        }
    }

    /// Finalizes counters and packages the exploration result.
    fn finish(
        mut self,
        started: Instant,
        solver_stats: SolverStats,
        wave_latency: dice_obs::Histogram,
    ) -> Exploration<O> {
        self.stats.runs = self.runs.len();
        self.stats.elapsed_ns = started.elapsed().as_nanos() as u64;
        Exploration {
            runs: self.runs,
            coverage: self.coverage,
            stats: self.stats,
            solver_stats,
            wave_latency,
        }
    }
}

/// The concolic execution engine.
#[derive(Debug, Default)]
pub struct ConcolicEngine {
    config: EngineConfig,
}

impl ConcolicEngine {
    /// Creates an engine with the given configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        ConcolicEngine { config }
    }

    /// Explores the program starting from the given seed inputs.
    ///
    /// Each seed is executed once; every symbolic branch observed becomes a
    /// negation candidate. The engine then repeatedly drains a wave of
    /// candidates, solves for inputs on their unexplored sides — grouped by
    /// originating run, incrementally against the shared path prefix — and
    /// executes them in wave order, until `max_runs` executions have been
    /// performed or the worklist is empty.
    pub fn explore<P: SymbolicProgram>(
        &self,
        program: &mut P,
        seeds: &[InputValues],
    ) -> Exploration<P::Output> {
        let start = Instant::now();
        let mut state = ExplorationState::new();
        let mut session = IncrementalSolver::new();
        let mut wave_latency = dice_obs::Histogram::new();

        self.execute_seeds(program, seeds, &mut state);

        while state.runs.len() < self.config.max_runs {
            let budget = self.config.max_runs - state.runs.len();
            let wave = self.drain_wave(&mut state, budget);
            if wave.is_empty() {
                break;
            }
            state.stats.waves += 1;
            let mut wave_span = dice_obs::span("symexec", "symexec.wave");
            wave_span.set_detail(wave.len() as u64);
            let wave_started = Instant::now();
            self.solve_and_commit(program, &wave, &mut state, &mut session);
            wave_latency.record_duration(wave_started.elapsed());
        }

        state.finish(start, *session.stats(), wave_latency)
    }

    /// Executes the seed inputs (the paper's "previously observed inputs").
    fn execute_seeds<P: SymbolicProgram>(
        &self,
        program: &mut P,
        seeds: &[InputValues],
        state: &mut ExplorationState<P::Output>,
    ) {
        for seed in seeds {
            if state.runs.len() >= self.config.max_runs {
                break;
            }
            let record = self.execute(
                program,
                seed.clone(),
                None,
                0,
                state.runs.last().map(|run| &run.trace),
            );
            self.integrate(record, state);
        }
    }

    /// Drains the next wave of candidates: up to `budget` (and at most
    /// [`WAVE`]) entries of one generation, in worklist order. A candidate
    /// whose target path was already executed or queued is skipped and
    /// counted as a duplicate; the rest have their target recorded as
    /// attempted.
    ///
    /// Runs executed while a generation-`g` wave is in flight only enqueue
    /// generation-`g + 1` candidates, which the worklist's `(generation,
    /// branch_index)` order never prefers over the `g` candidates still
    /// queued, so no wave's runs change what the next wave drains first.
    fn drain_wave<O>(&self, state: &mut ExplorationState<O>, budget: usize) -> Vec<WaveItem> {
        let limit = budget.min(WAVE);
        let mut wave: Vec<WaveItem> = Vec::new();
        while wave.len() < limit {
            let first = wave.first().map(|w| w.candidate.generation);
            let popped = state
                .worklist
                .pop_if(|c| first.is_none_or(|generation| c.generation == generation));
            let Some(candidate) = popped else {
                break;
            };
            let target = state.runs[candidate.run_index]
                .trace
                .negated_path_id(candidate.branch_index);
            if !state.attempted.insert(target) {
                state.stats.skipped_duplicates += 1;
                continue;
            }
            wave.push(WaveItem { candidate, target });
        }
        wave
    }

    /// Solves a wave's candidates (one group per originating run, its
    /// shared prefix asserted once), then commits the results — executing
    /// satisfiable inputs — in wave order.
    fn solve_and_commit<P: SymbolicProgram>(
        &self,
        program: &mut P,
        wave: &[WaveItem],
        state: &mut ExplorationState<P::Output>,
        session: &mut IncrementalSolver,
    ) {
        // Group wave positions by originating run; each group is solved
        // through the session over that run's trace.
        let mut grouped: BTreeMap<usize, Vec<(usize, Candidate)>> = BTreeMap::new();
        for (pos, item) in wave.iter().enumerate() {
            grouped
                .entry(item.candidate.run_index)
                .or_default()
                .push((pos, item.candidate));
        }
        // The whole wave is solved before its first commit: a candidate the
        // commit below discards as a duplicate still counts in the solver's
        // statistics, which the report digests pin.
        let mut solved: Vec<Option<SolveMsg>> = wave.iter().map(|_| None).collect();
        for (run_index, mut items) in grouped {
            // Branch-index order, so the shared prefix is asserted
            // monotonically.
            items.sort_by_key(|(_, c)| c.branch_index);
            let trace = &mut state.runs[run_index].trace;
            solve_group(session, trace, &items, &mut solved);
        }

        let mut wave_paths: FastHashSet<PathId> = FastHashSet::default();
        for (item, msg) in wave.iter().zip(solved) {
            let msg = msg.expect("every wave position belongs to exactly one group");
            self.commit(program, item, msg, state, &mut wave_paths);
        }
    }

    /// Applies one wave entry's solver result against the now-current
    /// exploration state.
    fn commit<P: SymbolicProgram>(
        &self,
        program: &mut P,
        item: &WaveItem,
        msg: SolveMsg,
        state: &mut ExplorationState<P::Output>,
        wave_paths: &mut FastHashSet<PathId>,
    ) {
        // Once the run budget is full, the rest of the wave is dropped
        // uncounted.
        if state.runs.len() >= self.config.max_runs {
            return;
        }
        // A target already claimed in this wave is skipped and not counted
        // as a solver outcome: a run executed earlier in the wave reached
        // it, so the (already computed) answer is discarded.
        if wave_paths.contains(&item.target) {
            state.stats.skipped_duplicates += 1;
            return;
        }
        match msg {
            SolveMsg::Sat(input) => {
                state.stats.solver_sat += 1;
                let record = self.execute(
                    program,
                    input,
                    Some((item.candidate.run_index, item.candidate.branch_index)),
                    item.candidate.generation + 1,
                    state.runs.last().map(|run| &run.trace),
                );
                wave_paths.insert(record.trace.path_id());
                self.integrate(record, state);
            }
            SolveMsg::Unsat => state.stats.solver_unsat += 1,
            SolveMsg::Unknown => state.stats.solver_unknown += 1,
        }
    }

    /// Executes the program once and wraps the result in a [`RunRecord`].
    /// `previous` is the run before, whose size the new run's tables start
    /// at.
    fn execute<P: SymbolicProgram>(
        &self,
        program: &mut P,
        input: InputValues,
        parent: Option<(usize, usize)>,
        generation: u32,
        previous: Option<&ExecTrace>,
    ) -> RunRecord<P::Output> {
        let ctx = ExecCtx::new().with_max_branches(MAX_BRANCHES_PER_RUN);
        let mut ctx = match previous {
            Some(previous) => ctx.with_capacity_like(previous),
            None => ctx.with_input_capacity(input.len()),
        };
        let output = program.run(&mut ctx, &input);
        let trace = ExecTrace::from_ctx(ctx, input);
        RunRecord {
            trace,
            output,
            parent,
            generation,
        }
    }

    /// Adds a completed run to the exploration state: updates coverage,
    /// marks its path as attempted and enqueues its negation candidates.
    fn integrate<O>(&self, record: RunRecord<O>, state: &mut ExplorationState<O>) {
        let run_index = state.runs.len();
        // Policy sites are registered (denominator) independently of which
        // branches the run actually executed, so never-reached filter arms
        // still show up as uncovered in the policy-coverage report.
        state.coverage.register_sites(&record.trace.sites);
        for b in &record.trace.branches {
            state.coverage.record(b.site, b.taken);
        }
        state.attempted.insert(record.trace.path_id());
        for (branch_index, b) in record.trace.branches.iter().enumerate() {
            let is_policy = record.trace.sites.policy_sites().contains(&b.site);
            state.worklist.push(Candidate {
                run_index,
                branch_index,
                generation: record.generation,
                is_policy,
            });
            state.stats.candidates += 1;
            if is_policy {
                state.stats.policy_candidates += 1;
            }
        }
        state.runs.push(record);
    }
}

/// Solves one candidate group — `(wave position, candidate)` pairs of one
/// originating run, in branch-index order — over that run's trace: the
/// session is reset, the shared path prefix is asserted (and propagated)
/// once, each candidate's negated branch solved in its own push/pop frame.
/// Answers land in `solved` at their wave positions; the session's
/// statistics accumulate across groups.
fn solve_group(
    session: &mut IncrementalSolver,
    trace: &mut ExecTrace,
    items: &[(usize, Candidate)],
    solved: &mut [Option<SolveMsg>],
) {
    session.reset();
    let mut next_branch = 0usize;
    for &(pos, candidate) in items {
        let index = candidate.branch_index;
        // Extend the shared prefix up to (excluding) the negated branch.
        while next_branch < index {
            let branch = trace.branches[next_branch];
            let taken = branch.taken_constraint(&mut trace.arena);
            session.assert_term(&mut trace.arena, taken);
            next_branch += 1;
        }
        session.push(&trace.arena);
        let branch = trace.branches[index];
        let negated = branch.negated_constraint(&mut trace.arena);
        session.assert_term(&mut trace.arena, negated);
        let reused_before = session.stats().assertions_reused;
        let verdict = session.check(&trace.arena, Some(&trace.concrete));
        if candidate.is_policy {
            let reused = session.stats().assertions_reused - reused_before;
            let stats = session.stats_mut();
            stats.policy_queries += 1;
            stats.policy_assertions_reused += reused;
        }
        session.pop();

        solved[pos] = Some(match verdict {
            Verdict::Sat(model) => SolveMsg::Sat(InputValues::from_model(
                &model,
                &trace.var_map,
                &trace.input,
            )),
            Verdict::Unsat => SolveMsg::Unsat,
            Verdict::Unknown => SolveMsg::Unknown,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The three-branch sample program from Figure 1 of the paper: the
    /// engine should discover all reachable paths by negating predicates.
    fn figure1_program(ctx: &mut ExecCtx, input: &InputValues) -> &'static str {
        let x = ctx.symbolic_u32("x", input.get_or("x", 0) as u32);
        let y = ctx.symbolic_u32("y", input.get_or("y", 0) as u32);
        let c1 = x.gt_const(100, ctx);
        if ctx.branch_labeled("p1", c1) {
            let c2 = y.eq_const(7, ctx);
            if ctx.branch_labeled("p2", c2) {
                "deep"
            } else {
                "mid"
            }
        } else {
            "shallow"
        }
    }

    #[test]
    fn explores_all_paths_of_figure1() {
        let engine = ConcolicEngine::default();
        let seeds = [InputValues::new().with("x", 5).with("y", 0)];
        let mut program = figure1_program;
        let result = engine.explore(&mut program, &seeds);
        let outputs: HashSet<&str> = result.outputs().copied().collect();
        assert!(outputs.contains("shallow"));
        assert!(outputs.contains("mid"));
        assert!(outputs.contains("deep"));
        assert!(result.distinct_paths() >= 3);
        assert_eq!(result.coverage.complete_sites(), 2);
        assert!(result.stats.solver_sat >= 2);
    }

    #[test]
    fn respects_run_budget() {
        let config = EngineConfig {
            max_runs: 2,
            ..Default::default()
        };
        let engine = ConcolicEngine::with_config(config);
        let seeds = [InputValues::new().with("x", 5).with("y", 0)];
        let mut program = figure1_program;
        let result = engine.explore(&mut program, &seeds);
        assert_eq!(result.runs.len(), 2);
        assert_eq!(result.stats.runs, 2);
    }

    #[test]
    fn a_run_records_at_most_ten_thousand_branches() {
        // 10,050 symbolic branches: the run executes all of them, but only
        // the first 10,000 are recorded, and only those become candidates.
        fn program(ctx: &mut ExecCtx, input: &InputValues) -> u32 {
            let x = ctx.symbolic_u32("x", input.get_or("x", 0) as u32);
            let mut taken = 0;
            for step in 0..10_050 {
                let c = x.gt_const(step, ctx);
                if ctx.branch_labeled("step", c) {
                    taken += 1;
                }
            }
            taken
        }
        let engine = ConcolicEngine::with_config(EngineConfig::default().with_max_runs(1));
        let mut p = program;
        let result = engine.explore(&mut p, &[InputValues::new().with("x", 20_000)]);
        assert_eq!(result.runs[0].output, 10_050);
        assert_eq!(result.runs[0].trace.branches.len(), 10_000);
        assert_eq!(result.stats.candidates, 10_000);
    }

    #[test]
    fn unsat_branches_are_counted_not_explored() {
        // The second branch is infeasible to negate: x > 100 && x <= 100.
        fn program(ctx: &mut ExecCtx, input: &InputValues) -> u32 {
            let x = ctx.symbolic_u32("x", input.get_or("x", 0) as u32);
            let c1 = x.gt_const(100, ctx);
            if ctx.branch_labeled("outer", c1) {
                let c2 = x.gt_const(100, ctx);
                if ctx.branch_labeled("inner-dup", c2) {
                    2
                } else {
                    1
                }
            } else {
                0
            }
        }
        let engine = ConcolicEngine::default();
        let seeds = [InputValues::new().with("x", 200)];
        let mut p = program;
        let result = engine.explore(&mut p, &seeds);
        // The inner branch negation (x <= 100 while x > 100) must be unsat.
        assert!(result.stats.solver_unsat >= 1);
        let outputs: HashSet<u32> = result.outputs().copied().collect();
        assert!(outputs.contains(&2));
        assert!(outputs.contains(&0));
        assert!(!outputs.contains(&1));
    }

    #[test]
    fn into_outputs_preserves_execution_order() {
        let engine = ConcolicEngine::default();
        let seeds = [InputValues::new().with("x", 5).with("y", 0)];
        let mut program = figure1_program;
        let result = engine.explore(&mut program, &seeds);
        let by_ref: Vec<&str> = result.outputs().copied().collect();
        let owned = result.into_outputs();
        assert_eq!(owned, by_ref, "ownership transfer keeps run order");
        assert_eq!(owned.first().copied(), Some("shallow"), "seed runs first");
    }

    #[test]
    fn generated_inputs_differ_from_seed() {
        let engine = ConcolicEngine::default();
        let seed = InputValues::new().with("x", 5).with("y", 0);
        let mut program = figure1_program;
        let result = engine.explore(&mut program, std::slice::from_ref(&seed));
        let generated = result.generated_inputs();
        assert!(!generated.is_empty());
        assert!(generated.iter().any(|g| **g != seed));
    }

    #[test]
    fn closure_with_state_can_be_explored() {
        let mut observed = Vec::new();
        {
            let mut program = |ctx: &mut ExecCtx, input: &InputValues| {
                let v = ctx.symbolic_u32("v", input.get_or("v", 0) as u32);
                let c = v.eq_const(0xdead, ctx);
                let hit = ctx.branch_labeled("magic", c);
                observed.push(hit);
                hit
            };
            let engine = ConcolicEngine::default();
            let result = engine.explore(&mut program, &[InputValues::new().with("v", 0)]);
            assert!(result.outputs().any(|&o| o));
        }
        assert!(observed.iter().any(|&b| b));
    }

    #[test]
    fn aggregate_constraints_grow_across_runs() {
        // The paper: "Updating the aggregate set is important for achieving
        // full coverage, since the previous runs might not have reached all
        // branches". The nested branch only exists on the x>100 path; it
        // must still be discovered starting from x=5.
        let engine = ConcolicEngine::default();
        let seeds = [InputValues::new().with("x", 5).with("y", 0)];
        let mut program = figure1_program;
        let result = engine.explore(&mut program, &seeds);
        // Site "p2" is only reachable after negating "p1"; coverage proves
        // the aggregate set was extended with constraints from later runs.
        assert_eq!(result.coverage.site_count(), 2);
    }

    #[test]
    fn batched_mode_uses_incremental_sessions() {
        let engine = ConcolicEngine::default();
        let seeds = [InputValues::new().with("x", 5).with("y", 0)];
        let mut program = figure1_program;
        let result = engine.explore(&mut program, &seeds);
        assert!(result.stats.waves > 0, "default engine batches waves");
        assert!(
            result.solver_stats.incremental_queries > 0,
            "candidates are solved through incremental sessions"
        );
    }
}

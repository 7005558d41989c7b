//! The concolic execution engine.
//!
//! The engine drives the loop at the heart of DiCE (Figure 1 of the paper):
//!
//! 1. execute the program under test with a concrete input, recording the
//!    branch constraints along the executed path;
//! 2. pick a recorded branch — generation by generation, shallowest first
//!    ([`crate::strategy`]) — and ask the solver for an input that satisfies
//!    the path prefix plus the *negated* branch predicate;
//! 3. execute the program with the generated input, record its path, update
//!    the aggregate constraint/coverage set, and repeat until the path
//!    budget is exhausted or no unexplored branches remain.
//!
//! The program under test implements [`SymbolicProgram`]; in DiCE it is the
//! BGP UPDATE handler executing over a clone of the node checkpoint.
//!
//! # Batched worklist mode
//!
//! By default the engine runs steps 2–3 as a *batched worklist* rather
//! than strictly one candidate at a time: it drains a wave of independent
//! candidates — one generation's, off the top of the worklist's heap —
//! groups them by originating run, solves each group incrementally against
//! its shared path prefix ([`dice_solver::IncrementalSolver`]; one session
//! per exploration, reset between groups, so its buffers are allocated
//! once), then executes the solved inputs in wave order — all on the
//! calling thread; parallelism lives above the engine, across observed
//! inputs and nodes. Runs, coverage and
//! per-candidate engine counters are identical to the sequential loop
//! (`EngineConfig::batch_size == 0`, the reference the equivalence tests
//! compare against); only the *solver-internal* statistics differ (the
//! batched mode may solve a candidate whose result the sequential loop
//! would have skipped as a duplicate before solving — the result is
//! discarded, and the engine-level skip counters match).
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
use std::time::{Duration, Instant};

use dice_solver::{FastHashSet, IncrementalSolver, Solver, SolverConfig, SolverStats, Verdict};

use crate::context::ExecCtx;
use crate::coverage::Coverage;
use crate::input::InputValues;
use crate::path::{ExecTrace, PathId};
use crate::strategy::{Candidate, Worklist};

/// A program that can be executed concolically.
///
/// Implementations create their symbolic inputs through the provided
/// [`ExecCtx`] (typically by calling `ctx.symbolic_u32(name, value)` with
/// values taken from `input`), branch through [`ExecCtx::branch`] /
/// [`ExecCtx::branch_labeled`], and return an application-level outcome
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

/// Configuration of the exploration loop.
///
/// `#[non_exhaustive]`: construct via [`EngineConfig::default`] and the
/// `with_*` builder methods so future fields are not breaking changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Maximum number of program executions (including seed runs).
    pub max_runs: usize,
    /// Maximum number of branches recorded per run.
    pub max_branches_per_run: usize,
    /// Maximum number of negation candidates taken from a single run
    /// (0 means unlimited).
    pub max_candidates_per_run: usize,
    /// Solver configuration.
    pub solver: SolverConfig,
    /// If true, skip negation candidates whose target `(site, direction)`
    /// is already covered. This trades exhaustive path coverage for speed.
    ///
    /// Pruning consults coverage at pop time, which the batched worklist
    /// cannot replay exactly; enabling it forces the sequential loop.
    pub prune_covered_directions: bool,
    /// Maximum number of candidates drained from the worklist per wave in
    /// the batched worklist mode. `0` disables batching entirely and runs
    /// the sequential negate-solve-execute loop.
    pub batch_size: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_runs: 256,
            max_branches_per_run: 10_000,
            max_candidates_per_run: 0,
            solver: SolverConfig::default(),
            prune_covered_directions: false,
            batch_size: 16,
        }
    }
}

impl EngineConfig {
    /// Sets the maximum number of program executions (including seeds).
    pub fn with_max_runs(mut self, max_runs: usize) -> Self {
        self.max_runs = max_runs;
        self
    }

    /// Sets the maximum number of branches recorded per run.
    pub fn with_max_branches_per_run(mut self, max: usize) -> Self {
        self.max_branches_per_run = max;
        self
    }

    /// Sets the maximum number of negation candidates taken from a single
    /// run (0 means unlimited).
    pub fn with_max_candidates_per_run(mut self, max: usize) -> Self {
        self.max_candidates_per_run = max;
        self
    }

    /// Sets the solver configuration.
    pub fn with_solver(mut self, solver: SolverConfig) -> Self {
        self.solver = solver;
        self
    }

    /// Enables or disables skipping candidates whose target direction is
    /// already covered (forces the sequential inner loop when enabled).
    pub fn with_prune_covered_directions(mut self, prune: bool) -> Self {
        self.prune_covered_directions = prune;
        self
    }

    /// Sets the batched-worklist wave size (0 disables batching and runs
    /// the sequential negate-solve-execute loop).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
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
    pub policy_candidates: usize,
    /// Candidates skipped because their target path had already been tried.
    pub skipped_duplicates: usize,
    /// Candidates skipped by coverage pruning.
    pub skipped_covered: usize,
    /// Solver queries that produced a new input.
    pub solver_sat: usize,
    /// Solver queries proving the other side infeasible.
    pub solver_unsat: usize,
    /// Solver queries that timed out / were undecided.
    pub solver_unknown: usize,
    /// Worklist waves processed by the batched engine (0 when sequential).
    pub waves: usize,
    /// Total wall-clock time of the exploration, in nanoseconds.
    pub elapsed_ns: u64,
}

impl ExplorationStats {
    /// Total exploration wall-clock time.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.elapsed_ns)
    }
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
    /// Wall-clock latency distribution of batched solver waves (one sample
    /// per wave; empty for the sequential loop). Purely observational:
    /// kept out of [`ExplorationStats`] so the batched-vs-sequential
    /// equivalence contract stays a field-for-field comparison.
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
    /// in the order they were committed — identical between the batched
    /// and sequential inner loops).
    ///
    /// This is the plumbing surface for *sequence-aware* fault checkers:
    /// outputs carry whatever the program recorded per run (in DiCE, the
    /// intercepted message sequence), and the order they are returned in is
    /// the order the round executed them.
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

/// The mutable exploration state threaded through both engine loops: the
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
    /// Creates an engine with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine with the given configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        ConcolicEngine { config }
    }

    /// Returns the engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Explores the program starting from the given seed inputs.
    ///
    /// Each seed is executed once; every symbolic branch observed becomes a
    /// negation candidate. The engine then repeatedly selects candidates,
    /// solves for inputs on the unexplored side, and executes them, until
    /// `max_runs` executions have been performed or the worklist is empty.
    ///
    /// With [`EngineConfig::batch_size`] > 0 (the default) candidates are
    /// processed a wave at a time — grouped by originating run, solved
    /// incrementally against the shared path prefix, then executed in
    /// wave order — producing the same runs, coverage and engine counters
    /// as the sequential loop.
    pub fn explore<P: SymbolicProgram>(
        &self,
        program: &mut P,
        seeds: &[InputValues],
    ) -> Exploration<P::Output> {
        // Coverage pruning consults state the wave pipeline cannot replay,
        // so it runs the plain sequential loop.
        if self.config.batch_size == 0 || self.config.prune_covered_directions {
            self.explore_sequential(program, seeds)
        } else {
            self.explore_batched(program, seeds)
        }
    }

    /// The strictly sequential negate-solve-execute loop: one candidate at
    /// a time, each solved from scratch. Reference semantics for the
    /// batched mode, and the only mode supporting coverage pruning.
    fn explore_sequential<P: SymbolicProgram>(
        &self,
        program: &mut P,
        seeds: &[InputValues],
    ) -> Exploration<P::Output> {
        let start = Instant::now();
        let mut solver = Solver::with_config(self.config.solver);
        let mut state = ExplorationState::new();

        self.execute_seeds(program, seeds, &mut state);

        // Main negate-solve-execute loop.
        while state.runs.len() < self.config.max_runs {
            let Some(candidate) = state.worklist.pop() else {
                break;
            };
            if self.config.prune_covered_directions
                && state
                    .coverage
                    .direction_covered(candidate.site, !candidate.taken)
            {
                state.stats.skipped_covered += 1;
                continue;
            }
            let target = state.runs[candidate.run_index]
                .trace
                .negated_path_id(candidate.branch_index);
            if !state.attempted.insert(target) {
                state.stats.skipped_duplicates += 1;
                continue;
            }
            // Build and solve the negation query against the originating
            // run's arena.
            let (query, seed_model) = {
                let run = &mut state.runs[candidate.run_index];
                let query = run.trace.negation_query(candidate.branch_index);
                (query, run.trace.concrete.clone())
            };
            let reused_before = solver.stats().assertions_reused;
            let verdict = {
                let run = &mut state.runs[candidate.run_index];
                solver.solve(&mut run.trace.arena, &query, Some(&seed_model))
            };
            if candidate.is_policy {
                let reused = solver.stats().assertions_reused - reused_before;
                let stats = solver.stats_mut();
                stats.policy_queries += 1;
                stats.policy_assertions_reused += reused;
            }
            match verdict {
                Verdict::Sat(model) => {
                    state.stats.solver_sat += 1;
                    let input = {
                        let run = &state.runs[candidate.run_index];
                        InputValues::from_model(&model, &run.trace.var_map, &run.trace.input)
                    };
                    let generation = state.runs[candidate.run_index].generation + 1;
                    let record = self.execute(
                        program,
                        input,
                        Some((candidate.run_index, candidate.branch_index)),
                        generation,
                        state.runs.last().map(|run| &run.trace),
                    );
                    self.integrate(record, &mut state);
                }
                Verdict::Unsat => state.stats.solver_unsat += 1,
                Verdict::Unknown => state.stats.solver_unknown += 1,
            }
        }

        state.finish(start, *solver.stats(), dice_obs::Histogram::new())
    }

    /// The batched worklist loop: drain a wave, solve its candidate groups
    /// incrementally, execute the solved inputs in wave order.
    fn explore_batched<P: SymbolicProgram>(
        &self,
        program: &mut P,
        seeds: &[InputValues],
    ) -> Exploration<P::Output> {
        let start = Instant::now();
        let mut state = ExplorationState::new();
        let mut session = IncrementalSolver::with_config(self.config.solver);
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
    /// [`EngineConfig::batch_size`]) entries the worklist would pop
    /// consecutively regardless of interleaved executions, with
    /// already-attempted targets filtered out exactly as the sequential
    /// loop does at pop time.
    ///
    /// That is one generation's candidates: runs executed while a
    /// generation-`g` wave is in flight only enqueue generation-`g + 1`
    /// candidates, which the worklist's `(generation, branch_index)` order
    /// never prefers over the `g` candidates still queued.
    fn drain_wave<O>(&self, state: &mut ExplorationState<O>, budget: usize) -> Vec<WaveItem> {
        let limit = budget.min(self.config.batch_size);
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

    /// Applies one wave entry's solver result, replicating the sequential
    /// loop's pop-time checks against the now-current exploration state.
    fn commit<P: SymbolicProgram>(
        &self,
        program: &mut P,
        item: &WaveItem,
        msg: SolveMsg,
        state: &mut ExplorationState<P::Output>,
        wave_paths: &mut FastHashSet<PathId>,
    ) {
        // The sequential loop would not even have popped this candidate
        // once the run budget filled.
        if state.runs.len() >= self.config.max_runs {
            return;
        }
        // A run executed earlier in this wave may have claimed the target
        // path; the sequential loop skips such candidates before solving.
        // The (already computed) result is discarded and, like there, does
        // not count as a solver outcome.
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
        let ctx = ExecCtx::new().with_max_branches(self.config.max_branches_per_run);
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
        let candidate_count = record.trace.branches.len();
        let limit = if self.config.max_candidates_per_run == 0 {
            candidate_count
        } else {
            self.config.max_candidates_per_run.min(candidate_count)
        };
        for (branch_index, b) in record.trace.branches.iter().enumerate().take(limit) {
            let is_policy = record.trace.sites.policy_sites().contains(&b.site);
            state.worklist.push(Candidate {
                run_index,
                branch_index,
                generation: record.generation,
                site: b.site,
                taken: b.taken,
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
        let engine = ConcolicEngine::new();
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
        let engine = ConcolicEngine::new();
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
        let engine = ConcolicEngine::new();
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
        let engine = ConcolicEngine::new();
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
            let engine = ConcolicEngine::new();
            let result = engine.explore(&mut program, &[InputValues::new().with("v", 0)]);
            assert!(result.outputs().any(|&o| o));
        }
        assert!(observed.iter().any(|&b| b));
    }

    #[test]
    fn pruning_reduces_work() {
        let full = ConcolicEngine::with_config(EngineConfig {
            prune_covered_directions: false,
            ..Default::default()
        });
        let pruned = ConcolicEngine::with_config(EngineConfig {
            prune_covered_directions: true,
            ..Default::default()
        });
        // Several runs hit the same branch sites.
        fn program(ctx: &mut ExecCtx, input: &InputValues) -> bool {
            let a = ctx.symbolic_u32("a", input.get_or("a", 0) as u32);
            let b = ctx.symbolic_u32("b", input.get_or("b", 0) as u32);
            let c1 = a.gt_const(10, ctx);
            let c2 = b.gt_const(10, ctx);
            let r1 = ctx.branch_labeled("a>10", c1);
            let r2 = ctx.branch_labeled("b>10", c2);
            r1 && r2
        }
        let seeds = [
            InputValues::new().with("a", 0).with("b", 0),
            InputValues::new().with("a", 20).with("b", 0),
        ];
        let mut p1 = program;
        let mut p2 = program;
        let r_full = full.explore(&mut p1, &seeds);
        let r_pruned = pruned.explore(&mut p2, &seeds);
        assert!(r_pruned.stats.runs <= r_full.stats.runs);
        // Both cover every direction of both sites.
        assert_eq!(r_pruned.coverage.complete_sites(), 2);
        assert_eq!(r_full.coverage.complete_sites(), 2);
    }

    #[test]
    fn aggregate_constraints_grow_across_runs() {
        // The paper: "Updating the aggregate set is important for achieving
        // full coverage, since the previous runs might not have reached all
        // branches". The nested branch only exists on the x>100 path; it
        // must still be discovered starting from x=5.
        let engine = ConcolicEngine::new();
        let seeds = [InputValues::new().with("x", 5).with("y", 0)];
        let mut program = figure1_program;
        let result = engine.explore(&mut program, &seeds);
        // Site "p2" is only reachable after negating "p1"; coverage proves
        // the aggregate set was extended with constraints from later runs.
        assert_eq!(result.coverage.site_count(), 2);
    }

    #[test]
    fn batched_mode_uses_incremental_sessions() {
        let engine = ConcolicEngine::new();
        let seeds = [InputValues::new().with("x", 5).with("y", 0)];
        let mut program = figure1_program;
        let result = engine.explore(&mut program, &seeds);
        assert!(result.stats.waves > 0, "default engine batches waves");
        assert!(
            result.solver_stats.incremental_queries > 0,
            "candidates are solved through incremental sessions"
        );
    }

    #[test]
    fn sequential_mode_has_no_waves() {
        let engine = ConcolicEngine::with_config(EngineConfig {
            batch_size: 0,
            ..Default::default()
        });
        let seeds = [InputValues::new().with("x", 5).with("y", 0)];
        let mut program = figure1_program;
        let result = engine.explore(&mut program, &seeds);
        assert_eq!(result.stats.waves, 0);
        assert_eq!(result.solver_stats.incremental_queries, 0);
    }
}

//! Sequential-vs-batched engine equivalence.
//!
//! The batched worklist engine must produce exactly the runs the
//! sequential negate-solve-execute loop produces — same inputs, same
//! paths, same provenance, in the same order — for any batch size.
//! Coverage and fault-relevant outputs follow from that, but every
//! dimension is asserted explicitly here.

use std::collections::HashSet;

use dice_symexec::{ConcolicEngine, EngineConfig, ExecCtx, Exploration, InputValues};

/// Figure 1 of the paper: nested branches, three reachable paths.
fn figure1(ctx: &mut ExecCtx, input: &InputValues) -> u32 {
    let x = ctx.symbolic_u32("x", input.get_or("x", 0) as u32);
    let y = ctx.symbolic_u32("y", input.get_or("y", 0) as u32);
    let c1 = x.gt_const(100, ctx);
    if ctx.branch_labeled("p1", c1) {
        let c2 = y.eq_const(7, ctx);
        if ctx.branch_labeled("p2", c2) {
            2
        } else {
            1
        }
    } else {
        0
    }
}

/// A deep comparison chain: every run enqueues many sibling candidates
/// sharing a long path prefix — the shape batched solving accelerates.
fn chain(ctx: &mut ExecCtx, input: &InputValues) -> u32 {
    let v = ctx.symbolic_u32("v", input.get_or("v", 0) as u32);
    let mut crossed = 0u32;
    for step in 0..12u32 {
        let c = v.gt_const(step * 10, ctx);
        if ctx.branch_labeled(&format!("step{step}"), c) {
            crossed += 1;
        }
    }
    crossed
}

/// Re-merging paths plus an infeasible negation: exercises duplicate-target
/// skipping and unsat accounting, the edge cases of wave commit order.
fn remerge(ctx: &mut ExecCtx, input: &InputValues) -> u32 {
    let a = ctx.symbolic_u32("a", input.get_or("a", 0) as u32);
    let b = ctx.symbolic_u32("b", input.get_or("b", 0) as u32);
    let ca = a.gt_const(50, ctx);
    let cb = b.gt_const(50, ctx);
    let ra = ctx.branch_labeled("a>50", ca);
    let rb = ctx.branch_labeled("b>50", cb);
    // A duplicated predicate: its negation is infeasible on the taken side.
    let ca2 = a.gt_const(50, ctx);
    let dup = ctx.branch_labeled("a>50 again", ca2);
    u32::from(ra) + 2 * u32::from(rb) + 4 * u32::from(dup)
}

fn explore<P, O>(program: P, seeds: &[InputValues], config: EngineConfig) -> Exploration<O>
where
    P: FnMut(&mut ExecCtx, &InputValues) -> O,
{
    let mut program = program;
    ConcolicEngine::with_config(config).explore(&mut program, seeds)
}

/// Asserts that two explorations are observably identical: run for run,
/// candidate for candidate. Wall-clock and wave counters are exempt.
fn assert_equivalent<O: std::fmt::Debug + PartialEq>(
    sequential: &Exploration<O>,
    batched: &Exploration<O>,
    what: &str,
) {
    assert_eq!(
        sequential.runs.len(),
        batched.runs.len(),
        "{what}: run count"
    );
    for (i, (s, b)) in sequential.runs.iter().zip(batched.runs.iter()).enumerate() {
        assert_eq!(s.output, b.output, "{what}: output of run {i}");
        assert_eq!(s.parent, b.parent, "{what}: parent of run {i}");
        assert_eq!(s.generation, b.generation, "{what}: generation of run {i}");
        assert_eq!(
            s.trace.input, b.trace.input,
            "{what}: generated input of run {i}"
        );
        assert_eq!(
            s.trace.path_id(),
            b.trace.path_id(),
            "{what}: path of run {i}"
        );
    }
    assert_eq!(
        sequential.coverage.site_count(),
        batched.coverage.site_count(),
        "{what}: branch sites"
    );
    assert_eq!(
        sequential.coverage.complete_sites(),
        batched.coverage.complete_sites(),
        "{what}: complete sites"
    );
    let s = &sequential.stats;
    let b = &batched.stats;
    assert_eq!(s.runs, b.runs, "{what}: stats.runs");
    assert_eq!(s.candidates, b.candidates, "{what}: stats.candidates");
    assert_eq!(
        s.skipped_duplicates, b.skipped_duplicates,
        "{what}: stats.skipped_duplicates"
    );
    assert_eq!(
        s.skipped_covered, b.skipped_covered,
        "{what}: stats.skipped_covered"
    );
    assert_eq!(s.solver_sat, b.solver_sat, "{what}: stats.solver_sat");
    assert_eq!(s.solver_unsat, b.solver_unsat, "{what}: stats.solver_unsat");
    assert_eq!(
        s.solver_unknown, b.solver_unknown,
        "{what}: stats.solver_unknown"
    );
}

fn sequential_config() -> EngineConfig {
    EngineConfig::default().with_batch_size(0)
}

#[test]
fn figure1_is_identical_across_batch_sizes_and_workers() {
    let seeds = [InputValues::new().with("x", 5).with("y", 0)];
    let reference = explore(figure1, &seeds, sequential_config());
    for batch_size in [1, 2, 4, 16] {
        let batched = explore(
            figure1,
            &seeds,
            EngineConfig::default().with_batch_size(batch_size),
        );
        assert_equivalent(&reference, &batched, &format!("figure1 batch={batch_size}"));
    }
    let outputs: HashSet<u32> = reference.outputs().copied().collect();
    assert_eq!(outputs, HashSet::from([0, 1, 2]));
}

#[test]
fn deep_chain_is_identical_and_batches_widely() {
    let seeds = [InputValues::new().with("v", 0)];
    let config = EngineConfig::default().with_max_runs(64);
    let reference = explore(chain, &seeds, config.with_batch_size(0));
    let batched = explore(chain, &seeds, config.with_batch_size(16));
    assert_equivalent(&reference, &batched, "deep chain");
    assert!(batched.stats.waves > 1, "the chain spans several waves");
    assert!(
        batched.solver_stats.assertions_reused > 0,
        "sibling candidates reused the shared prefix"
    );
    // Every chain threshold was crossed somewhere.
    assert_eq!(reference.coverage.complete_sites(), 12);
}

#[test]
fn remerging_paths_and_unsat_negations_are_identical() {
    let seeds = [
        InputValues::new().with("a", 0).with("b", 0),
        InputValues::new().with("a", 100).with("b", 100),
    ];
    let reference = explore(remerge, &seeds, sequential_config());
    for batch_size in [1, 3, 16] {
        let batched = explore(
            remerge,
            &seeds,
            EngineConfig::default().with_batch_size(batch_size),
        );
        assert_equivalent(&reference, &batched, &format!("remerge batch={batch_size}"));
    }
    assert!(
        reference.stats.solver_unsat >= 1,
        "the duplicated predicate's negation is infeasible"
    );
    assert!(
        reference.stats.skipped_duplicates >= 1,
        "re-merging paths produce duplicate targets"
    );
}

#[test]
fn tight_run_budgets_are_identical() {
    let seeds = [InputValues::new().with("v", 0)];
    for max_runs in 1..10 {
        let config = EngineConfig::default().with_max_runs(max_runs);
        let reference = explore(chain, &seeds, config.with_batch_size(0));
        let batched = explore(chain, &seeds, config);
        assert_equivalent(&reference, &batched, &format!("max_runs={max_runs}"));
        assert!(batched.runs.len() <= max_runs);
    }
}

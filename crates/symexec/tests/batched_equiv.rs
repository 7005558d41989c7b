//! Golden pins of the engine's wave loop on four small scenarios.
//!
//! Each scenario's exploration is pinned: every run's output, parent,
//! generation and input, in execution order; the engine counters; and the
//! solver counters. The values were recorded while a one-candidate-at-a-
//! time reference loop still ran beside the wave loop and was asserted to
//! produce the same runs, so they are that loop's runs too.
//! **The pinned values were generated before the change that added them
//! touched any other file.** To regenerate after a change that is *meant*
//! to alter exploration outputs, run with
//! `GOLDEN_PRINT=1 cargo test -p dice_symexec --test batched_equiv -- --nocapture`
//! and copy the printed values.

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

/// FNV-1a over a rendering.
fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What a pin records of one exploration: the run count; a digest of every
/// run's output, parent, generation and input, in execution order; the
/// engine counters `[runs, candidates, skipped_duplicates, solver_sat,
/// solver_unsat, solver_unknown, waves]`; and the solver counters
/// `[queries, incremental_queries, assertions_reused, candidates_evaluated]`.
type Pinned = (usize, u64, [usize; 7], [u64; 4]);

/// Prints `name = value` (and the rendered runs) when regenerating,
/// asserts otherwise.
fn pin<O: std::fmt::Debug>(name: &str, exploration: &Exploration<O>, expected: Pinned) {
    let rendered: Vec<String> = exploration
        .runs
        .iter()
        .map(|run| {
            format!(
                "{:?} {:?} {} {}",
                run.output, run.parent, run.generation, run.trace.input
            )
        })
        .collect();
    let rendered = rendered.join("\n");
    let s = &exploration.stats;
    let solver = &exploration.solver_stats;
    let actual: Pinned = (
        exploration.runs.len(),
        fnv1a(&rendered),
        [
            s.runs,
            s.candidates,
            s.skipped_duplicates,
            s.solver_sat,
            s.solver_unsat,
            s.solver_unknown,
            s.waves,
        ],
        [
            solver.queries,
            solver.incremental_queries,
            solver.assertions_reused,
            solver.candidates_evaluated,
        ],
    );
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("golden {name} runs:\n{rendered}");
        println!("golden {name} = {actual:?}");
    } else {
        assert_eq!(actual, expected, "golden value `{name}` moved");
    }
}

fn explore<P, O>(program: P, seeds: &[InputValues], config: EngineConfig) -> Exploration<O>
where
    P: FnMut(&mut ExecCtx, &InputValues) -> O,
{
    let mut program = program;
    ConcolicEngine::with_config(config).explore(&mut program, seeds)
}

/// Figure 1: three reachable paths from one seed.
#[test]
fn figure1_is_identical_across_batch_sizes_and_workers() {
    let seeds = [InputValues::new().with("x", 5).with("y", 0)];
    let exploration = explore(figure1, &seeds, EngineConfig::default());
    pin(
        "figure1",
        &exploration,
        (
            3,
            0xe8c8_fbfe_034b_8682,
            [3, 5, 3, 2, 0, 0, 2],
            [2, 2, 1, 2],
        ),
    );
    let outputs: HashSet<u32> = exploration.outputs().copied().collect();
    assert_eq!(outputs, HashSet::from([0, 1, 2]));
    assert_eq!(exploration.coverage.complete_sites(), 2);
}

/// The 12-step chain: many sibling candidates share a long prefix and
/// span several waves.
#[test]
fn deep_chain_is_identical_and_batches_widely() {
    let seeds = [InputValues::new().with("v", 0)];
    let batched = explore(chain, &seeds, EngineConfig::default().with_max_runs(64));
    pin(
        "chain",
        &batched,
        (
            24,
            0xa4e6_7df6_f168_79fa,
            [24, 288, 199, 23, 66, 0, 12],
            [89, 89, 627, 23],
        ),
    );
    assert!(batched.stats.waves > 1, "the chain spans several waves");
    assert!(
        batched.solver_stats.assertions_reused > 0,
        "sibling candidates reused the shared prefix"
    );
    // Every chain threshold was crossed somewhere.
    assert_eq!(batched.coverage.complete_sites(), 12);
}

/// Re-merging paths and an infeasible negation: duplicate targets are
/// skipped, the unsat negation is counted, not executed.
#[test]
fn remerging_paths_and_unsat_negations_are_identical() {
    let seeds = [
        InputValues::new().with("a", 0).with("b", 0),
        InputValues::new().with("a", 100).with("b", 100),
    ];
    let exploration = explore(remerge, &seeds, EngineConfig::default());
    pin(
        "remerge",
        &exploration,
        (
            8,
            0x7640_8de0_b7c4_0329,
            [8, 24, 14, 6, 4, 0, 2],
            [10, 10, 4, 6],
        ),
    );
    assert!(
        exploration.stats.solver_unsat >= 1,
        "the duplicated predicate's negation is infeasible"
    );
    assert!(
        exploration.stats.skipped_duplicates >= 1,
        "re-merging paths produce duplicate targets"
    );
}

/// The chain explored under run budgets 1 to 9, in that order.
const BUDGET_PINS: [Pinned; 9] = [
    (
        1,
        0xbdde_42dd_8928_d740,
        [1, 12, 0, 0, 0, 0, 0],
        [0, 0, 0, 0],
    ),
    (
        2,
        0xd1de_a797_4c08_b838,
        [2, 24, 0, 1, 0, 0, 1],
        [1, 1, 0, 1],
    ),
    (
        3,
        0x3b58_3966_4c40_6744,
        [3, 36, 0, 2, 11, 0, 12],
        [13, 13, 66, 2],
    ),
    (
        4,
        0x4554_09f1_c352_7423,
        [4, 48, 0, 3, 11, 0, 7],
        [14, 14, 67, 3],
    ),
    (
        5,
        0x30c3_ea4f_53e8_3603,
        [5, 60, 3, 4, 21, 0, 15],
        [25, 25, 133, 4],
    ),
    (
        6,
        0xabf5_0108_750e_607a,
        [6, 72, 4, 5, 21, 0, 9],
        [26, 26, 135, 5],
    ),
    (
        7,
        0xe3f9_db70_9e5d_2480,
        [7, 84, 18, 6, 30, 0, 17],
        [36, 36, 200, 6],
    ),
    (
        8,
        0x029e_3703_3774_9eb7,
        [8, 96, 19, 7, 30, 0, 11],
        [37, 37, 203, 7],
    ),
    (
        9,
        0x6fe6_c617_c481_6fd1,
        [9, 108, 34, 8, 38, 0, 16],
        [46, 46, 266, 8],
    ),
];

#[test]
fn tight_run_budgets_are_identical() {
    let seeds = [InputValues::new().with("v", 0)];
    for max_runs in 1..10 {
        let batched = explore(
            chain,
            &seeds,
            EngineConfig::default().with_max_runs(max_runs),
        );
        pin(
            &format!("max_runs={max_runs}"),
            &batched,
            BUDGET_PINS[max_runs - 1],
        );
        assert!(batched.runs.len() <= max_runs);
    }
}

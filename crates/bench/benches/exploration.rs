//! Experiment F1 (Figure 1): concolic exploration of a nested-branch
//! handler — the engine negates predicates to reach every path — plus two
//! comparisons: the sequential-vs-parallel multi-input `Dice::run` round
//! (PR 1) and the sequential-vs-batched engine inner loop (incremental
//! shared-prefix solving, a wave at a time), with fault-set equality
//! asserted for both.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use dice_bench::{customer_peer, install_victim_prefix, observed_customer_update, provider_router};
use dice_bgp::message::UpdateMessage;
use dice_bgp::route::PeerId;
use dice_core::{CustomerFilterMode, Dice, DiceConfig};
use dice_router::BgpRouter;
use dice_symexec::{ConcolicEngine, EngineConfig, ExecCtx, InputValues};

fn figure1_program(ctx: &mut ExecCtx, input: &InputValues) -> u32 {
    let x = ctx.symbolic_u32("x", input.get_or("x", 0) as u32);
    let y = ctx.symbolic_u32("y", input.get_or("y", 0) as u32);
    let p1 = x.gt_const(100, ctx);
    if ctx.branch_labeled("p1", p1) {
        let p2 = y.eq_const(7, ctx);
        if ctx.branch_labeled("p2", p2) {
            2
        } else {
            1
        }
    } else {
        0
    }
}

/// The Figure 2 Provider under test plus eight observed customer inputs —
/// the multi-input round `Dice::run` fans out across workers.
fn multi_input_scenario() -> (BgpRouter, Vec<(PeerId, UpdateMessage)>) {
    let mut router = provider_router(CustomerFilterMode::Erroneous);
    install_victim_prefix(&mut router);
    let customer = customer_peer(&router);
    let observed: Vec<(PeerId, UpdateMessage)> = (0..8)
        .map(|i| {
            let mut update = observed_customer_update();
            if i % 2 == 1 {
                // Alternate the announced block so inputs are not all identical.
                update.nlri = vec!["41.128.0.0/12".parse().expect("valid")];
            }
            (customer, update)
        })
        .collect();
    (router, observed)
}

fn dice_with_workers(workers: usize) -> Dice {
    Dice::with_config(DiceConfig::default().with_workers(workers))
}

/// A deep comparison chain: every run enqueues dozens of sibling negation
/// candidates sharing a long path prefix — the multi-candidate scenario
/// where batched incremental solving pays off.
fn chain_program(ctx: &mut ExecCtx, input: &InputValues) -> u32 {
    let v = ctx.symbolic_u32("v", input.get_or("v", 0) as u32);
    let w = ctx.symbolic_u32("w", input.get_or("w", 0) as u32);
    let mut crossed = 0u32;
    for step in 0..32u32 {
        let c = v.gt_const(step * 24, ctx);
        if ctx.branch_labeled(&format!("v-step{step}"), c) {
            crossed += 1;
        }
        let c = w.gt_const(step * 24 + 12, ctx);
        if ctx.branch_labeled(&format!("w-step{step}"), c) {
            crossed += 1;
        }
    }
    crossed
}

fn chain_engine(batch_size: usize) -> ConcolicEngine {
    ConcolicEngine::with_config(
        EngineConfig::default()
            .with_max_runs(96)
            .with_batch_size(batch_size),
    )
}

fn bench_exploration(c: &mut Criterion) {
    let mut group = c.benchmark_group("exploration");
    group.sample_size(20);

    group.bench_function("figure1_full_coverage", |b| {
        b.iter(|| {
            let engine = ConcolicEngine::with_config(EngineConfig::default().with_max_runs(16));
            let mut program = figure1_program;
            let result = engine.explore(
                &mut program,
                &[InputValues::new().with("x", 5).with("y", 0)],
            );
            assert!(result.coverage.complete_sites() >= 2);
            std::hint::black_box(result.stats.runs)
        })
    });

    let (router, observed) = multi_input_scenario();

    group.bench_function("multi_input_round_sequential", |b| {
        let dice = dice_with_workers(1);
        b.iter(|| std::hint::black_box(dice.run(&router, &observed).runs))
    });

    group.bench_function("multi_input_round_parallel", |b| {
        let dice = dice_with_workers(0);
        b.iter(|| std::hint::black_box(dice.run(&router, &observed).runs))
    });

    let chain_seeds = [InputValues::new().with("v", 0).with("w", 0)];

    group.bench_function("multi_candidate_sequential_inner_loop", |b| {
        let engine = chain_engine(0);
        b.iter(|| {
            let mut program = chain_program;
            std::hint::black_box(engine.explore(&mut program, &chain_seeds).stats.runs)
        })
    });

    group.bench_function("multi_candidate_batched_worklist", |b| {
        let engine = chain_engine(32);
        b.iter(|| {
            let mut program = chain_program;
            std::hint::black_box(engine.explore(&mut program, &chain_seeds).stats.runs)
        })
    });

    group.finish();

    // Direct readout: the PR-1 sequential inner loop vs the batched
    // worklist engine on the multi-candidate chain. The run sets must be
    // identical; only the wall clock may differ.
    let started = Instant::now();
    let mut program = chain_program;
    let sequential_engine = chain_engine(0).explore(&mut program, &chain_seeds);
    let sequential_inner = started.elapsed();
    let started = Instant::now();
    let mut program = chain_program;
    let batched_engine = chain_engine(32).explore(&mut program, &chain_seeds);
    let batched_inner = started.elapsed();
    assert_eq!(
        sequential_engine.runs.len(),
        batched_engine.runs.len(),
        "batched engine must execute the same runs"
    );
    assert!(sequential_engine
        .runs
        .iter()
        .zip(batched_engine.runs.iter())
        .all(|(s, b)| s.output == b.output && s.trace.input == b.trace.input));
    println!(
        "\nmulti-candidate inner loop ({} runs, {} candidates): sequential {:?}, batched {:?}, speedup {:.2}x",
        batched_engine.stats.runs,
        batched_engine.stats.candidates,
        sequential_inner,
        batched_inner,
        sequential_inner.as_secs_f64() / batched_inner.as_secs_f64().max(f64::EPSILON),
    );

    // Direct speedup readout: same round, workers=1 vs all cores. The fault
    // sets must be identical; only the wall clock may differ.
    let started = Instant::now();
    let sequential = dice_with_workers(1).run(&router, &observed);
    let sequential_elapsed = started.elapsed();
    let started = Instant::now();
    let parallel = dice_with_workers(0).run(&router, &observed);
    let parallel_elapsed = started.elapsed();
    assert_eq!(
        sequential.faults, parallel.faults,
        "parallel round must find the same faults"
    );
    assert!(parallel.isolation_preserved && sequential.isolation_preserved);
    // The batched inner loop must find exactly the faults the PR-1
    // sequential inner loop found on the Figure 2 scenario.
    let sequential_inner_loop = Dice::with_config(
        DiceConfig::default()
            .with_engine(EngineConfig::default().with_max_runs(64).with_batch_size(0)),
    )
    .run(&router, &observed);
    assert_eq!(
        sequential_inner_loop.faults, parallel.faults,
        "batched worklist engine must find the same fault set"
    );
    println!(
        "\nmulti-input round ({} inputs, {} cores): sequential {:?}, parallel {:?}, speedup {:.2}x",
        observed.len(),
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1),
        sequential_elapsed,
        parallel_elapsed,
        sequential_elapsed.as_secs_f64() / parallel_elapsed.as_secs_f64().max(f64::EPSILON),
    );
}

criterion_group!(benches, bench_exploration);
criterion_main!(benches);

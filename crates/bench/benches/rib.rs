//! RIB scale benchmark (experiment E1 substrate: table-load speed, plus
//! the checkpoint cost model the exploration hot path rides on).
//!
//! Two paper-scale comparisons over a synthetic RouteViews-like table
//! (319,355 prefixes at full scale; scaled by `DICE_BENCH_SAMPLE_SIZE`
//! for smoke runs, full size under `DICE_FULL_TABLE=1`):
//!
//! 1. **sharded vs single-shard table load** — the same route set loaded
//!    into a one-shard RIB sequentially and into a core-sized sharded RIB
//!    via [`Rib::load_parallel`], with the resulting tables asserted
//!    observationally identical;
//! 2. **CoW round checkpoint vs per-input deep clone** — the setup cost
//!    of handing N observed inputs their router state the old way (N deep
//!    clones) and the new way (one copy-on-write capture + N reference
//!    bumps), with the exploration report digests of both
//!    [`CheckpointMode`]s asserted byte-identical.
//!
//! Set `DICE_BENCH_RIB_JSON=<path>` to write the comparison as a JSON
//! baseline artifact (CI uploads `BENCH_rib.json` next to the solver,
//! fleet and live baselines).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use dice_bench::{install_victim_prefix, observed_customer_update, provider_router, Scale};
use dice_bgp::attributes::RouteAttrs;
use dice_bgp::prefix::Ipv4Prefix;
use dice_bgp::route::{PeerId, Route};
use dice_bgp::AsPath;
use dice_core::{CheckpointMode, CustomerFilterMode, Dice, DiceConfig, RoundCheckpoint};
use dice_netsim::trace::PAPER_TABLE_SIZE;
use dice_netsim::{generate_trace, TraceGenConfig};
use dice_router::Rib;
use dice_symexec::EngineConfig;
use std::net::Ipv4Addr;

fn route(i: u32) -> Route {
    let mut attrs = RouteAttrs::default();
    attrs.as_path = AsPath::from_sequence([1299, 100_000 + i]);
    attrs.next_hop = Ipv4Addr::new(10, 0, 2, 1);
    let prefix = Ipv4Prefix::new((20u32 << 24) | (i << 8), 24).expect("valid");
    Route::new(prefix, attrs, PeerId(2), 2)
}

fn bench_rib(c: &mut Criterion) {
    let mut group = c.benchmark_group("rib");
    group.sample_size(20);

    group.bench_function("announce_10k", |b| {
        b.iter(|| {
            let mut rib = Rib::new();
            for i in 0..10_000 {
                rib.announce(route(i));
            }
            std::hint::black_box(rib.prefix_count())
        })
    });

    let mut rib = Rib::new();
    for i in 0..10_000 {
        rib.announce(route(i));
    }
    group.bench_function("lookup_ip", |b| {
        b.iter(|| std::hint::black_box(rib.lookup_ip(0x1400_0501)))
    });
    group.bench_function("best_covering_route", |b| {
        let p: Ipv4Prefix = "20.0.5.0/25".parse().unwrap();
        b.iter(|| std::hint::black_box(rib.best_covering_route(&p)))
    });
    group.bench_function("cow_fork_10k", |b| {
        b.iter(|| std::hint::black_box(rib.clone().shard_count()))
    });
    group.finish();

    paper_scale_comparison();
}

/// The number of table prefixes for this run: the paper's full dump under
/// `DICE_FULL_TABLE`, otherwise scaled by `DICE_BENCH_SAMPLE_SIZE` (as a
/// percentage of the full table, default 20%) so CI smoke runs finish in
/// seconds while exercising the identical code paths.
fn table_size(reps: u32) -> usize {
    if matches!(Scale::from_env(), Scale::Paper) {
        PAPER_TABLE_SIZE
    } else {
        (PAPER_TABLE_SIZE * reps as usize / 100).clamp(2_000, PAPER_TABLE_SIZE)
    }
}

/// The paper-structured route set: the synthetic RouteViews-like table
/// dump as announced by the Internet peer, converted to installable routes.
fn paper_routes(prefix_count: usize) -> Vec<Route> {
    let config = TraceGenConfig {
        prefix_count,
        update_count: 0,
        ..Default::default()
    };
    let trace = generate_trace(&config, 1299, Ipv4Addr::new(10, 0, 2, 1));
    trace
        .table
        .iter()
        .map(|update| Route::new(update.nlri[0], update.route_attrs(), PeerId(2), 2))
        .collect()
}

/// A fingerprint of the Loc-RIB contents in canonical order, used to
/// assert the sharded and unsharded tables are observationally identical.
fn loc_rib_fingerprint(rib: &Rib) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut hasher = DefaultHasher::new();
    for (prefix, best) in rib.loc_rib() {
        (prefix.addr(), prefix.len(), best.learned_from.0).hash(&mut hasher);
        best.attrs.as_path.length().hash(&mut hasher);
    }
    hasher.finish()
}

fn paper_scale_comparison() {
    let reps: u32 = std::env::var("DICE_BENCH_SAMPLE_SIZE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let prefixes = table_size(reps);
    let routes = paper_routes(prefixes);
    let timing_reps = reps.clamp(1, 10);

    // 1. Table load: one shard loaded sequentially (the pre-change path)
    //    vs a sharded RIB loaded with per-shard workers. At least 16
    //    shards even on narrow machines, so shard partitioning and the
    //    smaller per-shard maps are exercised everywhere; worker count
    //    follows the machine.
    let shard_count = Rib::new().shard_count().max(16);
    let best_of = |mut run: Box<dyn FnMut(Vec<Route>) -> Rib>| -> (Duration, Rib) {
        let mut best = Duration::MAX;
        let mut last = None;
        for _ in 0..timing_reps {
            let batch = routes.clone();
            let start = Instant::now();
            let rib = run(batch);
            best = best.min(start.elapsed());
            last = Some(rib);
        }
        (best, last.expect("at least one rep"))
    };
    let (single_time, single_rib) = best_of(Box::new(|batch| {
        let mut rib = Rib::with_shard_count(1);
        for r in batch {
            rib.announce(r);
        }
        rib
    }));
    let (sharded_time, sharded_rib) = best_of(Box::new(move |batch| {
        let mut rib = Rib::with_shard_count(shard_count);
        rib.load_parallel(batch, 0);
        rib
    }));
    assert_eq!(sharded_rib.prefix_count(), prefixes);
    assert_eq!(sharded_rib.prefix_count(), single_rib.prefix_count());
    assert_eq!(sharded_rib.route_count(), single_rib.route_count());
    assert_eq!(
        loc_rib_fingerprint(&sharded_rib),
        loc_rib_fingerprint(&single_rib),
        "sharded and single-shard tables must be observationally identical"
    );
    let load_speedup = single_time.as_secs_f64() / sharded_time.as_secs_f64().max(f64::EPSILON);

    // 2. Round setup: the Figure 2 provider carrying the table, N observed
    //    inputs to hand state to.
    let mut router = provider_router(CustomerFilterMode::Erroneous);
    install_victim_prefix(&mut router);
    router.load_routes(routes, 0);
    let inputs = 8usize;

    let mut clone_time = Duration::MAX;
    for _ in 0..timing_reps {
        let start = Instant::now();
        let clones: Vec<_> = (0..inputs).map(|_| router.deep_clone()).collect();
        clone_time = clone_time.min(start.elapsed());
        std::hint::black_box(clones);
    }
    let mut cow_time = Duration::MAX;
    let mut cow_stats = None;
    for _ in 0..timing_reps {
        let start = Instant::now();
        let checkpoint = RoundCheckpoint::capture(&router);
        let handles: Vec<_> = (0..inputs).map(|_| checkpoint.clone()).collect();
        cow_time = cow_time.min(start.elapsed());
        cow_stats = Some(checkpoint.cow_stats_vs(&router));
        std::hint::black_box(handles);
    }
    let cow_stats = cow_stats.expect("at least one rep");
    assert_eq!(
        cow_stats.units_copied(),
        0,
        "an untouched round checkpoint shares every RIB shard with the live router"
    );
    let setup_speedup = clone_time.as_secs_f64() / cow_time.as_secs_f64().max(f64::EPSILON);

    // 3. The anchor: both checkpoint modes explore to byte-identical
    //    reports over this very router (the pre-change path is
    //    DeepClonePerInput).
    let observed = vec![
        (
            dice_bench::customer_peer(&router),
            observed_customer_update(),
        ),
        (
            dice_bench::customer_peer(&router),
            observed_customer_update(),
        ),
    ];
    let engine = EngineConfig::default().with_max_runs(16);
    let cow_report =
        Dice::with_config(DiceConfig::default().with_engine(engine)).run(&router, &observed);
    let clone_report = Dice::with_config(
        DiceConfig::default()
            .with_engine(engine)
            .with_checkpoint_mode(CheckpointMode::DeepClonePerInput),
    )
    .run(&router, &observed);
    assert_eq!(
        cow_report.digest(),
        clone_report.digest(),
        "CoW round checkpoints must reproduce the per-input deep-clone reports exactly"
    );

    println!(
        "\npaper-scale table ({prefixes} prefixes, {} shards): single-shard load {:?}, sharded load {:?}, speedup {load_speedup:.2}x",
        sharded_rib.shard_count(),
        single_time,
        sharded_time,
    );
    println!(
        "round setup ({inputs} inputs): per-input deep clone {clone_time:?}, CoW capture+share {cow_time:?}, speedup {setup_speedup:.2}x ({cow_stats})",
    );

    if let Ok(path) = std::env::var("DICE_BENCH_RIB_JSON") {
        let json = format!(
            "{{\n  \"bench\": \"rib_paper_scale\",\n  \"table_prefixes\": {prefixes},\n  \
             \"shards\": {},\n  \"single_load_ns\": {},\n  \"sharded_load_ns\": {},\n  \
             \"load_speedup\": {load_speedup:.4},\n  \"round_inputs\": {inputs},\n  \
             \"deep_clone_setup_ns\": {},\n  \"cow_setup_ns\": {},\n  \
             \"setup_speedup\": {setup_speedup:.4},\n  \"cow_shards_shared\": {},\n  \
             \"cow_shards_total\": {},\n  \"digests_identical\": true\n}}\n",
            sharded_rib.shard_count(),
            single_time.as_nanos(),
            sharded_time.as_nanos(),
            clone_time.as_nanos(),
            cow_time.as_nanos(),
            cow_stats.units_shared,
            cow_stats.units_total,
        );
        std::fs::write(&path, json).expect("write bench baseline");
        println!("wrote perf baseline to {path}");
    }
}

criterion_group!(benches, bench_rib);
criterion_main!(benches);

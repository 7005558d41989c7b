//! Stand-alone passes over single layers, run only by a traced invocation
//! and outside every timed stretch: the wire codec over a trace's frames,
//! and the RIB write, lookup, filter and fork paths on a bare router.

use std::hint::black_box;
use std::time::Instant;

use dice_bgp::message::{BgpMessage, UpdateMessage};
use dice_bgp::route::Route;
use dice_bgp::wire;
use dice_netsim::topology::{addr, figure2_topology, CustomerFilterMode};
use dice_netsim::WireTrace;
use dice_router::policy::{eval_filter, RouteView};
use dice_router::BgpRouter;
use dice_symexec::ExecCtx;

use crate::measure::{self, timed};
use crate::scenario::{self, PROVIDER};

/// A bare Provider router with its sessions up.
fn provider_router() -> BgpRouter {
    let topology = figure2_topology(CustomerFilterMode::Erroneous);
    let mut router = BgpRouter::new(topology.nodes()[PROVIDER.0].config.clone());
    router.start();
    router
}

/// Both probes over a table of `prefixes` routes. Call it before the
/// workload allocates anything large: the resident set the router probe
/// reads grows by the table only while the heap has no freed room.
pub fn layers(prefixes: usize, seed: u64) -> Vec<(&'static str, f64)> {
    let table = scenario::internet_trace(prefixes, 1, seed).table;
    let mut layers = router(&table);
    layers.extend(wire(&scenario::frame_for_provider(table.iter())));
    layers
}

/// Decodes, then re-encodes, every frame of `trace`.
fn wire(trace: &WireTrace) -> Vec<(&'static str, f64)> {
    let frames = trace.len().max(1) as f64;
    let (messages, decode_s) = timed(|| {
        trace
            .records
            .iter()
            .map(|r| wire::decode(&r.bytes).expect("the trace's frames decode").0)
            .collect::<Vec<BgpMessage>>()
    });
    let ((), encode_s) = timed(|| {
        for message in &messages {
            black_box(wire::encode(black_box(message)));
        }
    });
    vec![
        ("bgp.wire.decode_ns_per_frame", decode_s * 1e9 / frames),
        ("bgp.wire.encode_ns_per_frame", encode_s * 1e9 / frames),
    ]
}

/// Loads `table` into a bare Provider from its Internet peer, then times
/// lookups, the customer import filter, and the first write after a fork.
fn router(table: &[UpdateMessage]) -> Vec<(&'static str, f64)> {
    let mut router = provider_router();
    let internet = router
        .peer_by_address(addr::INTERNET)
        .expect("the Provider peers with the Internet");
    let routes = table.len().max(1) as f64;

    let rss_before = measure::rss_bytes();
    let ((), announce_s) = timed(|| {
        for update in table {
            router.handle_update(internet, update);
        }
    });
    let rss_after = measure::rss_bytes();
    let prefixes = router.rib().prefix_count();

    let ((), lookup_s) = timed(|| {
        for update in table {
            black_box(router.rib().lookup_ip(black_box(update.nlri[0].addr())));
        }
    });

    let filter = router
        .config()
        .filter("customer_in")
        .expect("the Provider filters its customer")
        .clone();
    let candidates: Vec<Route> = table
        .iter()
        .map(|u| Route::new(u.nlri[0], u.route_attrs(), internet, 1))
        .collect();
    let ((), eval_s) = timed(|| {
        for route in &candidates {
            let mut ctx = ExecCtx::new();
            black_box(eval_filter(&filter, &RouteView::concrete(route), &mut ctx));
        }
    });

    // Fork, then write once: the write copies the shard it lands in. Each
    // sample re-announces another prefix so it meets a shared shard.
    let mut first_write_us: Vec<f64> = Vec::new();
    for update in table.iter().step_by((table.len() / 32).max(1)).take(32) {
        let fork = router.clone();
        let started = Instant::now();
        router.handle_update(internet, update);
        first_write_us.push(started.elapsed().as_secs_f64() * 1e6);
        drop(fork);
    }

    vec![
        (
            "router.rib.announce_ns_per_route",
            announce_s * 1e9 / routes,
        ),
        ("router.rib.lookup_ns", lookup_s * 1e9 / routes),
        ("router.rib.prefixes", prefixes as f64),
        (
            "router.rib.rss_bytes_per_prefix",
            (rss_after - rss_before).max(0.0) / prefixes.max(1) as f64,
        ),
        ("router.policy.eval_ns", eval_s * 1e9 / routes),
        (
            "router.rib.fork_first_write_us",
            measure::median(&first_write_us),
        ),
    ]
}

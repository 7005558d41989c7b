//! Synthetic RouteViews-like BGP traces.
//!
//! The paper loads a full routing table (319,355 prefixes from a
//! route-views.eqix dump) and replays a 15-minute update trace. The dump
//! itself is not redistributable, so this module generates a synthetic
//! trace with the same structure: a table-dump phase (one announcement per
//! prefix) followed by timestamped incremental updates (re-announcements
//! with changed attributes and occasional withdrawals).

use std::net::Ipv4Addr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dice_bgp::attributes::RouteAttrs;
use dice_bgp::message::UpdateMessage;
use dice_bgp::prefix::Ipv4Prefix;
use dice_bgp::AsPath;

/// The prefix count of the paper's table dump.
pub const PAPER_TABLE_SIZE: usize = 319_355;
/// The paper's update-trace duration (15 minutes).
const PAPER_TRACE_SECONDS: u64 = 15 * 60;

/// One timestamped incremental update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Milliseconds since the start of the update trace.
    pub at_ms: u64,
    /// The UPDATE message.
    pub update: UpdateMessage,
}

/// A full trace: the table dump plus the incremental updates.
#[derive(Debug, Clone, Default)]
pub struct BgpTrace {
    /// The initial table dump, one announcement per prefix.
    pub table: Vec<UpdateMessage>,
    /// Timestamped incremental updates, in chronological order.
    pub updates: Vec<TraceEvent>,
}

impl BgpTrace {
    /// Number of prefixes in the table dump.
    pub fn table_size(&self) -> usize {
        self.table.len()
    }

    /// Number of incremental updates.
    pub fn update_count(&self) -> usize {
        self.updates.len()
    }
}

/// Parameters of the synthetic trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceGenConfig {
    /// Number of prefixes in the table dump.
    pub prefix_count: usize,
    /// Number of incremental updates.
    pub update_count: usize,
    /// Duration of the update trace in seconds.
    pub duration_secs: u64,
    /// Fraction (percent) of incremental updates that are withdrawals.
    pub withdrawal_percent: u8,
    /// RNG seed; the same seed reproduces the same trace.
    pub seed: u64,
    /// Number of distinct origin ASes.
    pub as_count: u32,
}

impl Default for TraceGenConfig {
    fn default() -> Self {
        TraceGenConfig {
            prefix_count: 10_000,
            update_count: 2_000,
            duration_secs: PAPER_TRACE_SECONDS,
            withdrawal_percent: 10,
            seed: 0xD1CE,
            as_count: 5_000,
        }
    }
}

impl TraceGenConfig {
    /// The paper-scale configuration (319,355 prefixes, 15-minute trace).
    pub fn paper_scale() -> Self {
        TraceGenConfig {
            prefix_count: PAPER_TABLE_SIZE,
            update_count: 50_000,
            ..Default::default()
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        TraceGenConfig {
            prefix_count: 200,
            update_count: 50,
            ..Default::default()
        }
    }
}

/// Generates a synthetic trace as announced by a neighbor in `neighbor_as`
/// whose address is `next_hop`.
pub fn generate_trace(config: &TraceGenConfig, neighbor_as: u32, next_hop: Ipv4Addr) -> BgpTrace {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut table = Vec::with_capacity(config.prefix_count);
    let mut prefixes: Vec<(Ipv4Prefix, u32)> = Vec::with_capacity(config.prefix_count);
    let mut seen = std::collections::HashSet::with_capacity(config.prefix_count);

    while prefixes.len() < config.prefix_count {
        let prefix = random_prefix(&mut rng);
        if !seen.insert(prefix) {
            continue;
        }
        let origin_as = synthetic_asn(&mut rng, config.as_count);
        prefixes.push((prefix, origin_as));
        let attrs = random_attrs(&mut rng, neighbor_as, origin_as, next_hop, config.as_count);
        table.push(UpdateMessage::announce(vec![prefix], &attrs));
    }

    // Every update re-announces or withdraws a table prefix: an empty
    // table has none to update.
    let update_count = if prefixes.is_empty() {
        0
    } else {
        config.update_count
    };
    let mut updates = Vec::with_capacity(update_count);
    let duration_ms = config.duration_secs * 1000;
    for i in 0..update_count {
        // Spread events uniformly over the window, with jitter.
        let base = if update_count <= 1 {
            0
        } else {
            duration_ms * i as u64 / update_count as u64
        };
        let at_ms = base + rng.gen_range(0..50);
        let (prefix, origin_as) = prefixes[rng.gen_range(0..prefixes.len())];
        let update = if rng.gen_range(0..100u8) < config.withdrawal_percent {
            UpdateMessage::withdraw(vec![prefix])
        } else {
            let attrs = random_attrs(&mut rng, neighbor_as, origin_as, next_hop, config.as_count);
            UpdateMessage::announce(vec![prefix], &attrs)
        };
        updates.push(TraceEvent { at_ms, update });
    }
    updates.sort_by_key(|e| e.at_ms);

    BgpTrace { table, updates }
}

/// Draws a prefix with a realistic length distribution: mostly /24s and
/// /16-/23s, few short prefixes, as in Internet routing tables.
fn random_prefix(rng: &mut StdRng) -> Ipv4Prefix {
    let len: u8 = match rng.gen_range(0..100u32) {
        0..=54 => 24,
        55..=69 => rng.gen_range(20..24),
        70..=84 => rng.gen_range(16..20),
        85..=94 => rng.gen_range(12..16),
        _ => rng.gen_range(8..12),
    };
    // Avoid private/reserved space so generated prefixes look like global
    // unicast and never collide with the testbed's own 10.0.0.0/8 links.
    let first_octet = rng.gen_range(1..=223u32);
    let first_octet = if first_octet == 10 { 11 } else { first_octet };
    let addr = (first_octet << 24) | rng.gen_range(0..(1u32 << 24));
    Ipv4Prefix::new(addr, len).expect("length is valid")
}

/// Draws a synthetic ASN from a range that cannot collide with the testbed
/// topology's ASNs, so replayed paths never trip the receiver's loop
/// detection. A zero AS pool is treated as one AS.
fn synthetic_asn(rng: &mut StdRng, as_count: u32) -> u32 {
    100_000 + rng.gen_range(0..as_count.max(1))
}

fn random_attrs(
    rng: &mut StdRng,
    neighbor_as: u32,
    origin_as: u32,
    next_hop: Ipv4Addr,
    as_count: u32,
) -> RouteAttrs {
    let hops = rng.gen_range(1..5usize);
    let mut path = vec![neighbor_as];
    for _ in 0..hops {
        path.push(synthetic_asn(rng, as_count));
    }
    path.push(origin_as);
    let mut attrs = RouteAttrs::default();
    attrs.as_path = AsPath::from_sequence(path);
    attrs.next_hop = next_hop;
    if rng.gen_bool(0.3) {
        attrs.med = Some(rng.gen_range(0..200));
    }
    attrs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_sizes() {
        let cfg = TraceGenConfig {
            prefix_count: 500,
            update_count: 100,
            ..Default::default()
        };
        let trace = generate_trace(&cfg, 1299, Ipv4Addr::new(10, 0, 2, 1));
        assert_eq!(trace.table_size(), 500);
        assert_eq!(trace.update_count(), 100);
        let last_ms = trace.updates.last().map(|e| e.at_ms).unwrap_or(0);
        assert!(last_ms <= cfg.duration_secs * 1000 + 50);
    }

    #[test]
    fn trace_is_deterministic_for_seed() {
        let cfg = TraceGenConfig::tiny();
        let a = generate_trace(&cfg, 1299, Ipv4Addr::new(10, 0, 2, 1));
        let b = generate_trace(&cfg, 1299, Ipv4Addr::new(10, 0, 2, 1));
        assert_eq!(a.table, b.table);
        assert_eq!(a.updates, b.updates);
        let other = generate_trace(
            &TraceGenConfig { seed: 99, ..cfg },
            1299,
            Ipv4Addr::new(10, 0, 2, 1),
        );
        assert_ne!(a.table, other.table);
    }

    #[test]
    fn table_prefixes_are_unique_and_valid() {
        let cfg = TraceGenConfig {
            prefix_count: 1_000,
            update_count: 0,
            ..Default::default()
        };
        let trace = generate_trace(&cfg, 1299, Ipv4Addr::new(10, 0, 2, 1));
        let mut seen = std::collections::HashSet::new();
        for update in &trace.table {
            assert_eq!(update.nlri.len(), 1);
            let p = update.nlri[0];
            assert!(seen.insert(p), "duplicate prefix {p}");
            assert!(p.len() >= 8 && p.len() <= 24);
            // Generated prefixes avoid the testbed's 10.0.0.0/8.
            assert_ne!(p.addr() >> 24, 10);
            let attrs = update.route_attrs();
            assert_eq!(attrs.as_path.neighbor_as().map(|a| a.value()), Some(1299));
            assert!(attrs.as_path.length() >= 3);
        }
    }

    #[test]
    fn updates_are_chronological_and_mixed() {
        let cfg = TraceGenConfig {
            prefix_count: 300,
            update_count: 400,
            withdrawal_percent: 20,
            ..Default::default()
        };
        let trace = generate_trace(&cfg, 1299, Ipv4Addr::new(10, 0, 2, 1));
        let mut last = 0;
        let mut withdrawals = 0;
        for e in &trace.updates {
            assert!(e.at_ms >= last);
            last = e.at_ms;
            if !e.update.withdrawn.is_empty() {
                withdrawals += 1;
            }
        }
        assert!(
            withdrawals > 20,
            "expected a meaningful share of withdrawals, got {withdrawals}"
        );
        assert!(withdrawals < 200);
    }

    #[test]
    fn paper_scale_config_matches_paper() {
        let cfg = TraceGenConfig::paper_scale();
        assert_eq!(cfg.prefix_count, 319_355);
        assert_eq!(cfg.duration_secs, 900);
    }
}

//! The operational control plane: a versioned, lock-cheap status surface
//! for long-running live exploration.
//!
//! The live orchestrator runs for as long as the feed does, which makes it
//! infrastructure, not a test harness — and infrastructure needs a status
//! endpoint. [`ControlPlane`] is that surface: after every executed round
//! the orchestrator assembles a [`ControlSnapshot`] (round latencies,
//! solver reuse rates, policy coverage, injected-fault counts, CoW fork
//! sharing, the delivery-log compaction watermark, and — when the run is
//! fed by a [`dice_netsim::WireReplayDriver`] — wire-ingest
//! decode/error counters) and publishes it behind an `Arc` swap. Sampling
//! from another thread is one brief mutex lock and an `Arc` clone, never a
//! copy of the snapshot itself, so a sidecar can poll mid-run without
//! perturbing exploration.
//!
//! The snapshot carries [`ControlSnapshot::schema_version`]
//! ([`CONTROL_SCHEMA_VERSION`]) and a stable rendered form
//! ([`ControlSnapshot::render`], asserted by golden tests): consumers pin
//! the version, and any field change bumps it.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dice_checkpoint::CowForkStats;
use dice_netsim::IngestStats;
use dice_obs::HistogramSummary;

/// Schema version of [`ControlSnapshot`]. Bumped whenever a field is
/// added, removed or changes meaning; consumers should check it before
/// interpreting the rest of the snapshot.
pub const CONTROL_SCHEMA_VERSION: u32 = 5;

/// Wire-ingest counters, mirrored from
/// [`dice_netsim::IngestStats`] into the control plane's stable schema
/// (the throughput meter is flattened to its updates/s reading).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestCounters {
    /// Frames pulled from the wire trace.
    pub frames: u64,
    /// Messages decoded and byte-identity-verified.
    pub decoded: u64,
    /// Decoded UPDATEs injected into the simulator.
    pub injected_updates: u64,
    /// Frames rejected by the codec (including trailing-byte frames).
    pub decode_errors: u64,
    /// Frames whose re-encoding differed from the captured bytes.
    pub reencode_mismatches: u64,
    /// Raw trace bytes consumed.
    pub bytes_consumed: u64,
    /// Decode throughput in updates/s (0 before any frame).
    pub updates_per_second: f64,
    /// Distribution of per-epoch frame-decode time.
    pub decode_latency: HistogramSummary,
}

impl From<&IngestStats> for IngestCounters {
    fn from(stats: &IngestStats) -> Self {
        IngestCounters {
            frames: stats.frames,
            decoded: stats.decoded,
            injected_updates: stats.injected_updates,
            decode_errors: stats.decode_errors,
            reencode_mismatches: stats.reencode_mismatches,
            bytes_consumed: stats.bytes_consumed,
            updates_per_second: stats.updates_per_second(),
            decode_latency: stats.decode_time.summary(),
        }
    }
}

/// Fault-plan search counters in the control plane's stable schema,
/// mirrored from the [`crate::SearchSummary`] a
/// [`crate::FaultPlanSearch`] attaches to its report. All zero for plain
/// runs that never searched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Candidate fault plans evaluated.
    pub plans: u64,
    /// Plans that surfaced never-seen coverage (fleet keys, checker
    /// classes, or fault-trace event shapes).
    pub novel: u64,
    /// Distinct minimized, replayable counterexamples emitted.
    pub repros: u64,
}

impl From<&crate::live::SearchSummary> for SearchCounters {
    fn from(summary: &crate::live::SearchSummary) -> Self {
        SearchCounters {
            plans: summary.plans_tried,
            novel: summary.novel_plans,
            repros: summary.minimized_repros,
        }
    }
}

/// A point-in-time status snapshot of a live exploration run.
///
/// Assembled by [`crate::LiveOrchestrator::run`] after every executed
/// round (and once more when the run ends) from the in-progress
/// [`crate::LiveReport`], the simulator's [`dice_netsim::SimStats`], the
/// rounds' accumulated [`dice_solver::SolverStats`], per-node
/// [`crate::RoundCheckpoint`] CoW probes, and the optional shared ingest
/// counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlSnapshot {
    /// [`CONTROL_SCHEMA_VERSION`] at assembly time.
    pub schema_version: u32,
    /// Executed rounds so far.
    pub rounds: usize,
    /// Total exploration executions across all rounds and nodes.
    pub total_runs: usize,
    /// Observed inputs the per-round input cap left unexplored, summed
    /// over all rounds and nodes (added in schema v5).
    pub dropped_inputs: u64,
    /// Distinct faults after cross-round deduplication.
    pub distinct_faults: usize,
    /// Faults the run's fault plan injected into the simulation so far.
    pub injected_faults: u64,
    /// Wall-clock latency of the most recent round (drive + quiesce +
    /// explore).
    pub last_round_latency: Duration,
    /// Mean wall-clock latency across executed rounds.
    pub mean_round_latency: Duration,
    /// Total solver queries across all rounds.
    pub solver_queries: u64,
    /// Queries answered through incremental sessions.
    pub solver_incremental_queries: u64,
    /// Share of incremental constraint work reused from assertion stacks
    /// instead of recomputed, in `[0, 1]`.
    pub solver_reuse_rate: f64,
    /// Policy-branch coverage across rounds, in `[0, 1]` (1.0 when no
    /// policies are registered).
    pub policy_coverage: f64,
    /// RIB copy-on-write sharing, summed over every node and epoch window.
    /// The unit is a node's whole table: of the tables a fork held across
    /// each window would comprise (one per node), how many it would still
    /// share when the window closed. Counted from each table's write
    /// generation; no such fork is held.
    pub cow: CowForkStats,
    /// The delivery-log compaction watermark: every log entry below this
    /// sequence number has been harvested and dropped.
    pub compaction_watermark: u64,
    /// Messages the simulator has delivered.
    pub delivered: u64,
    /// Wire-ingest counters; all zero when the run is not fed from a wire
    /// trace.
    pub ingest: IngestCounters,
    /// Distribution of round wall-clock latency across the run (one sample
    /// per executed round).
    pub round_latency: HistogramSummary,
    /// Distribution of batched solver-wave latency across all rounds and
    /// inputs (empty when exploration runs sequentially).
    pub wave_latency: HistogramSummary,
    /// Events in the simulator's fault trace, including structural
    /// delivery errors.
    pub fault_trace_events: u64,
    /// FNV-1a fingerprint of the fault-trace digest
    /// ([`dice_netsim::FaultTrace::digest`]), `0` for an empty trace: two
    /// runs with equal injected counts but different event sequences
    /// differ here.
    pub fault_trace_fingerprint: u64,
    /// Fault-plan search counters; all zero without a search.
    pub search: SearchCounters,
}

impl Default for ControlSnapshot {
    fn default() -> Self {
        ControlSnapshot {
            schema_version: CONTROL_SCHEMA_VERSION,
            rounds: 0,
            total_runs: 0,
            dropped_inputs: 0,
            distinct_faults: 0,
            injected_faults: 0,
            last_round_latency: Duration::ZERO,
            mean_round_latency: Duration::ZERO,
            solver_queries: 0,
            solver_incremental_queries: 0,
            solver_reuse_rate: 0.0,
            policy_coverage: 1.0,
            cow: CowForkStats::default(),
            compaction_watermark: 0,
            delivered: 0,
            ingest: IngestCounters::default(),
            round_latency: HistogramSummary::default(),
            wave_latency: HistogramSummary::default(),
            fault_trace_events: 0,
            fault_trace_fingerprint: 0,
            search: SearchCounters::default(),
        }
    }
}

impl ControlSnapshot {
    /// Mean round latency from a running total, guarding the zero-round
    /// state: before the first round completes there is nothing to divide
    /// by, and the mean is defined as `Duration::ZERO`.
    pub(crate) fn mean_latency(latency_total: Duration, rounds: usize) -> Duration {
        if rounds == 0 {
            return Duration::ZERO;
        }
        // A round count beyond u32::MAX saturates the divisor instead of
        // panicking; the mean is indistinguishable from zero there anyway.
        latency_total / u32::try_from(rounds).unwrap_or(u32::MAX)
    }

    /// The stable rendered form, one field group per line: counters, the
    /// inputs the cap dropped, latencies, solver, policy coverage, CoW sharing and ingest first,
    /// then the three latency distributions (count, p50, p90, p99, max),
    /// the fault-trace identity and the search counters. This is the
    /// serialized surface consumers scrape; its shape is pinned by golden
    /// tests and changes only with [`CONTROL_SCHEMA_VERSION`].
    pub fn render(&self) -> String {
        format!(
            "control-snapshot v{}\n\
             rounds={} runs={} faults={} injected={} delivered={} watermark={}\n\
             inputs dropped={}\n\
             latency last={:?} mean={:?}\n\
             solver queries={} incremental={} reuse={:.1}%\n\
             policy coverage={:.1}%\n\
             cow tables {}/{} shared\n\
             ingest frames={} decoded={} injected={} errors={} mismatches={} bytes={} rate={:.0}/s\n\
             round-latency {}\n\
             wave-latency {}\n\
             decode-latency {}\n\
             fault-trace events={} fingerprint={:016x}\n\
             search plans={} novel={} repros={}\n",
            self.schema_version,
            self.rounds,
            self.total_runs,
            self.distinct_faults,
            self.injected_faults,
            self.delivered,
            self.compaction_watermark,
            self.dropped_inputs,
            self.last_round_latency,
            self.mean_round_latency,
            self.solver_queries,
            self.solver_incremental_queries,
            self.solver_reuse_rate * 100.0,
            self.policy_coverage * 100.0,
            self.cow.units_shared,
            self.cow.units_total,
            self.ingest.frames,
            self.ingest.decoded,
            self.ingest.injected_updates,
            self.ingest.decode_errors,
            self.ingest.reencode_mismatches,
            self.ingest.bytes_consumed,
            self.ingest.updates_per_second,
            self.round_latency,
            self.wave_latency,
            self.ingest.decode_latency,
            self.fault_trace_events,
            self.fault_trace_fingerprint,
            self.search.plans,
            self.search.novel,
            self.search.repros,
        )
    }
}

impl fmt::Display for ControlSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The shared handle a run publishes through and observers sample from.
///
/// Cloning shares the same slot: take the orchestrator's own via
/// [`crate::LiveOrchestrator::control_plane`] and keep a clone wherever
/// status is served from. [`ControlPlane::sample`]
/// is a brief lock and an `Arc` bump — cheap enough to call from a status
/// endpoint at any rate — and never blocks on snapshot assembly, which
/// happens outside the lock.
#[derive(Debug, Clone, Default)]
pub struct ControlPlane {
    slot: Arc<Mutex<Arc<ControlSnapshot>>>,
}

impl ControlPlane {
    /// Creates a control plane holding a default (pre-run) snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently published snapshot.
    pub fn sample(&self) -> Arc<ControlSnapshot> {
        self.slot
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Publishes a new snapshot, replacing the previous one.
    pub fn publish(&self, snapshot: ControlSnapshot) {
        let snapshot = Arc::new(snapshot);
        *self
            .slot
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> ControlSnapshot {
        ControlSnapshot {
            schema_version: CONTROL_SCHEMA_VERSION,
            rounds: 3,
            total_runs: 120,
            dropped_inputs: 17,
            distinct_faults: 2,
            injected_faults: 1,
            last_round_latency: Duration::from_millis(12),
            mean_round_latency: Duration::from_millis(10),
            solver_queries: 400,
            solver_incremental_queries: 350,
            solver_reuse_rate: 0.625,
            policy_coverage: 0.75,
            cow: CowForkStats::from_sharing(7, 8),
            compaction_watermark: 9,
            delivered: 42,
            ingest: IngestCounters {
                frames: 100,
                decoded: 98,
                injected_updates: 98,
                decode_errors: 2,
                reencode_mismatches: 0,
                bytes_consumed: 5400,
                updates_per_second: 1234.0,
                decode_latency: HistogramSummary {
                    count: 3,
                    p50: 200_000,
                    p90: 350_000,
                    p99: 350_000,
                    max: 350_000,
                },
            },
            round_latency: HistogramSummary {
                count: 3,
                p50: 10_000_000,
                p90: 12_000_000,
                p99: 12_000_000,
                max: 12_000_000,
            },
            wave_latency: HistogramSummary {
                count: 40,
                p50: 60_000,
                p90: 110_000,
                p99: 140_000,
                max: 140_000,
            },
            fault_trace_events: 2,
            fault_trace_fingerprint: 0x00ab_cdef_0123_4567,
            search: SearchCounters {
                plans: 16,
                novel: 5,
                repros: 1,
            },
        }
    }

    /// Pins every line of the render in full, so a consumer scraping by
    /// line prefix sees each field line byte-identical.
    #[test]
    fn golden_render_of_a_populated_snapshot() {
        assert_eq!(
            populated().render(),
            "control-snapshot v5\n\
             rounds=3 runs=120 faults=2 injected=1 delivered=42 watermark=9\n\
             inputs dropped=17\n\
             latency last=12ms mean=10ms\n\
             solver queries=400 incremental=350 reuse=62.5%\n\
             policy coverage=75.0%\n\
             cow tables 7/8 shared\n\
             ingest frames=100 decoded=98 injected=98 errors=2 mismatches=0 bytes=5400 rate=1234/s\n\
             round-latency n=3 p50=10ms p90=12ms p99=12ms max=12ms\n\
             wave-latency n=40 p50=60µs p90=110µs p99=140µs max=140µs\n\
             decode-latency n=3 p50=200µs p90=350µs p99=350µs max=350µs\n\
             fault-trace events=2 fingerprint=00abcdef01234567\n\
             search plans=16 novel=5 repros=1\n"
        );
        assert_eq!(populated().to_string(), populated().render());
    }

    #[test]
    fn golden_render_of_the_default_snapshot() {
        assert_eq!(
            ControlSnapshot::default().render(),
            "control-snapshot v5\n\
             rounds=0 runs=0 faults=0 injected=0 delivered=0 watermark=0\n\
             inputs dropped=0\n\
             latency last=0ns mean=0ns\n\
             solver queries=0 incremental=0 reuse=0.0%\n\
             policy coverage=100.0%\n\
             cow tables 0/0 shared\n\
             ingest frames=0 decoded=0 injected=0 errors=0 mismatches=0 bytes=0 rate=0/s\n\
             round-latency n=0\n\
             wave-latency n=0\n\
             decode-latency n=0\n\
             fault-trace events=0 fingerprint=0000000000000000\n\
             search plans=0 novel=0 repros=0\n"
        );
    }

    #[test]
    fn golden_render_of_the_empty_zero_round_snapshot() {
        // The zero-round state a sidecar samples before the first round
        // completes: latency fields must render as zeros (the mean guard),
        // and every distribution is empty.
        let empty = ControlSnapshot {
            mean_round_latency: ControlSnapshot::mean_latency(Duration::ZERO, 0),
            ..ControlSnapshot::default()
        };
        assert_eq!(empty, ControlSnapshot::default());
        assert_eq!(
            empty.render(),
            ControlSnapshot::default().render(),
            "the published zero-round snapshot is the golden default"
        );
        assert!(empty.render().contains("latency last=0ns mean=0ns\n"));
    }

    #[test]
    fn mean_latency_guards_the_zero_round_division() {
        assert_eq!(
            ControlSnapshot::mean_latency(Duration::ZERO, 0),
            Duration::ZERO
        );
        assert_eq!(
            ControlSnapshot::mean_latency(Duration::from_secs(9), 0),
            Duration::ZERO
        );
        assert_eq!(
            ControlSnapshot::mean_latency(Duration::from_secs(9), 3),
            Duration::from_secs(3)
        );
    }

    #[test]
    fn sampling_returns_the_latest_published_snapshot() {
        let plane = ControlPlane::new();
        let before = plane.sample();
        assert_eq!(*before, ControlSnapshot::default());
        assert_eq!(before.schema_version, CONTROL_SCHEMA_VERSION);

        plane.publish(populated());
        // Clones share the slot; earlier samples stay frozen.
        let observer = plane.clone();
        assert_eq!(observer.sample().rounds, 3);
        assert_eq!(*before, ControlSnapshot::default());

        let mut next = populated();
        next.rounds = 4;
        plane.publish(next);
        assert_eq!(observer.sample().rounds, 4);
    }

    #[test]
    fn ingest_counters_mirror_netsim_stats() {
        let mut stats = dice_netsim::IngestStats::default();
        stats.frames = 10;
        stats.decoded = 9;
        stats.injected_updates = 8;
        stats.decode_errors = 1;
        stats.bytes_consumed = 512;
        stats.meter.record(9, Duration::from_secs(3));
        let counters = IngestCounters::from(&stats);
        assert_eq!(counters.frames, 10);
        assert_eq!(counters.decoded, 9);
        assert_eq!(counters.injected_updates, 8);
        assert_eq!(counters.decode_errors, 1);
        assert_eq!(counters.bytes_consumed, 512);
        assert!((counters.updates_per_second - 3.0).abs() < 1e-9);
    }
}

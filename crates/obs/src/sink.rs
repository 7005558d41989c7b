//! The process-global trace sink: a no-op by default, a buffered recorder
//! when observability is switched on.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// The payload handed to a [`TraceSink`] for every span or instant event.
///
/// Sequence IDs and thread IDs are assigned by the sink itself (see
/// [`BufferedRecorder`]) so that the dispatch path stays allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Subsystem scope, conventionally the crate short name (`"netsim"`,
    /// `"solver"`, `"symexec"`, `"core"`).
    pub scope: &'static str,
    /// Event name, conventionally `component.action` (`"sim.step"`).
    pub name: &'static str,
    /// Nanoseconds since the process trace epoch when the event started.
    pub start_ns: u64,
    /// Span duration in nanoseconds; `None` for instant events.
    pub dur_ns: Option<u64>,
    /// Free-form numeric payload (counts, sizes, epoch numbers).
    pub detail: u64,
}

/// A fully recorded trace event: a [`TraceRecord`] stamped with the
/// recorder's monotonic sequence ID and a small dense thread index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence ID assigned at record time. Replayed runs emit
    /// the same events in the same order, so sorting by `seq` reproduces a
    /// stable, comparable event stream.
    pub seq: u64,
    /// Small dense index of the recording thread (first-use order).
    pub tid: u64,
    /// Subsystem scope (see [`TraceRecord::scope`]).
    pub scope: &'static str,
    /// Event name (see [`TraceRecord::name`]).
    pub name: &'static str,
    /// Nanoseconds since the process trace epoch when the event started.
    pub start_ns: u64,
    /// Span duration in nanoseconds; `None` for instant events.
    pub dur_ns: Option<u64>,
    /// Free-form numeric payload.
    pub detail: u64,
}

/// Destination for trace records.
///
/// Implementations must be cheap and must never feed information back into
/// the instrumented code: observability is strictly out-of-band, and every
/// report digest stays byte-identical whatever sink is installed.
pub trait TraceSink: Send + Sync {
    /// Record one span or instant event.
    fn record(&self, record: TraceRecord);
}

/// The explicit do-nothing sink. Installing it is equivalent to the default
/// uninstalled state; it exists so the "no-op" arm of comparisons (benches,
/// equivalence tests) can be spelled out.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    #[inline]
    fn record(&self, _record: TraceRecord) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn TraceSink>>> = RwLock::new(None);

/// Keeps a sink installed as the process-global trace sink for the
/// guard's lifetime, then returns dispatch to the no-op default.
///
/// The sink is removed even if the enclosed code panics, so one test's
/// recorder never leaks into the next.
#[must_use = "the sink is uninstalled when the guard drops"]
pub struct SinkGuard(());

impl SinkGuard {
    /// Install `sink`, replacing any installed one, and enable dispatch:
    /// instrumented code sees it on its next span or event.
    pub fn install(sink: Arc<dyn TraceSink>) -> Self {
        *SINK.write().expect("trace sink lock poisoned") = Some(sink);
        ENABLED.store(true, Ordering::Release);
        SinkGuard(())
    }
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Release);
        *SINK.write().expect("trace sink lock poisoned") = None;
    }
}

/// Whether a sink is currently installed. This is the entire cost of the
/// disabled path: one relaxed atomic load.
#[inline]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Hand a record to the installed sink, if any.
#[inline]
pub(crate) fn dispatch(record: TraceRecord) {
    if enabled() {
        dispatch_enabled(record);
    }
}

#[cold]
fn dispatch_enabled(record: TraceRecord) {
    if let Ok(guard) = SINK.read() {
        if let Some(sink) = guard.as_ref() {
            sink.record(record);
        }
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (the first observability call).
///
/// All trace timestamps share this epoch, so events from different threads
/// and subsystems line up on one timeline.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

static NEXT_THREAD_INDEX: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_INDEX: u64 = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
}

fn thread_index() -> u64 {
    THREAD_INDEX.with(|i| *i)
}

/// Number of independently locked buffers in a [`BufferedRecorder`].
const SHARDS: usize = 16;

/// The shipped [`TraceSink`]: events go to one of 16 independently
/// locked buffers keyed by the recording thread, so concurrent workers
/// almost never contend on a lock. A process-wide atomic counter stamps
/// every event with a monotonic sequence ID; [`BufferedRecorder::drain`]
/// merges the shards back into that order, so two replays of the same
/// deterministic run produce the same event sequence.
#[derive(Debug)]
pub struct BufferedRecorder {
    seq: AtomicU64,
    shards: [Mutex<Vec<TraceEvent>>; SHARDS],
}

impl Default for BufferedRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferedRecorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }

    /// Total number of buffered events across all shards.
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("recorder shard poisoned").len())
            .sum()
    }

    /// Move out all buffered events, sorted by sequence ID, leaving the
    /// recorder empty (sequence IDs keep counting up).
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut all = Vec::with_capacity(self.len());
        for shard in &self.shards {
            all.append(&mut shard.lock().expect("recorder shard poisoned"));
        }
        all.sort_by_key(|e| e.seq);
        all
    }
}

impl TraceSink for BufferedRecorder {
    fn record(&self, record: TraceRecord) {
        let tid = thread_index();
        let event = TraceEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            tid,
            scope: record.scope,
            name: record.name,
            start_ns: record.start_ns,
            dur_ns: record.dur_ns,
            detail: record.detail,
        };
        let shard = (tid as usize) % SHARDS;
        self.shards[shard]
            .lock()
            .expect("recorder shard poisoned")
            .push(event);
    }
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    // The sink is process-global state; tests that install one serialize on
    // this lock so parallel test threads never observe each other's sinks.
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_state_is_disabled_and_dispatch_is_a_noop() {
        let _serial = test_lock();
        assert!(!enabled());
        // Dispatch with nothing installed must be silently dropped.
        dispatch(TraceRecord {
            scope: "test",
            name: "noop",
            start_ns: 0,
            dur_ns: None,
            detail: 0,
        });
    }

    #[test]
    fn recorder_stamps_monotonic_sequence_ids() {
        let _serial = test_lock();
        let recorder = Arc::new(BufferedRecorder::new());
        let guard = SinkGuard::install(recorder.clone());
        assert!(enabled());
        for i in 0..10 {
            dispatch(TraceRecord {
                scope: "test",
                name: "tick",
                start_ns: now_ns(),
                dur_ns: None,
                detail: i,
            });
        }
        drop(guard);
        assert!(!enabled());
        let events = recorder.drain();
        assert_eq!(events.len(), 10);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "drain returns sequence order");
        let details: Vec<u64> = events.iter().map(|e| e.detail).collect();
        assert_eq!(details, (0..10).collect::<Vec<_>>());
        assert!(recorder.drain().is_empty(), "drain cleared the buffers");
    }

    #[test]
    fn concurrent_recording_is_merged_into_one_stable_order() {
        let _serial = test_lock();
        let recorder = Arc::new(BufferedRecorder::new());
        let _guard = SinkGuard::install(recorder.clone());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                scope.spawn(move || {
                    for i in 0..25u64 {
                        dispatch(TraceRecord {
                            scope: "test",
                            name: "worker",
                            start_ns: now_ns(),
                            dur_ns: None,
                            detail: t * 100 + i,
                        });
                    }
                });
            }
        });
        let events = recorder.drain();
        assert_eq!(events.len(), 100);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let mut expect = seqs.clone();
        expect.sort_unstable();
        assert_eq!(seqs, expect);
        // Each thread's own events stay in its program order.
        for t in 0..4u64 {
            let per_thread: Vec<u64> = events
                .iter()
                .filter(|e| e.detail / 100 == t)
                .map(|e| e.detail)
                .collect();
            let mut sorted = per_thread.clone();
            sorted.sort_unstable();
            assert_eq!(per_thread, sorted);
        }
    }

    #[test]
    fn guard_uninstalls_on_panic() {
        let _serial = test_lock();
        let result = std::panic::catch_unwind(|| {
            let _guard = SinkGuard::install(Arc::new(NoopSink));
            panic!("boom");
        });
        assert!(result.is_err());
        assert!(!enabled(), "the guard removed the sink during unwind");
    }
}

//! Out-of-band observability for the DiCE reproduction.
//!
//! The exploration stack's correctness story is anchored in byte-identical
//! report digests, so everything in this crate is strictly *out-of-band*:
//! instrumentation never feeds data back into exploration, and every digest
//! stays byte-identical whether tracing is enabled, disabled, or the crate is
//! absent entirely.
//!
//! The pieces:
//!
//! - [`TraceSink`] — the recording interface. The process-global default is a
//!   no-op: until a sink is installed with [`SinkGuard::install`] (which
//!   removes it again when the guard drops), [`span`]/[`event`] cost a
//!   single relaxed atomic load and branch, which the optimizer hoists out
//!   of hot loops. [`BufferedRecorder`] is the shipped sink: sharded,
//!   lock-cheap per-thread buffers stamped with monotonic sequence IDs so
//!   replayed runs produce stable event orders; [`now_ns`] is the clock
//!   every timestamp shares.
//! - [`Span`] / [`span`] / [`event`] — RAII instrumentation helpers used by
//!   `dice_netsim`, `dice_solver`, `dice_symexec`, and `dice_core`.
//! - [`Histogram`] — a fixed-bucket log2 latency histogram with deterministic
//!   p50/p90/p99/max quantiles and a `Copy`-able [`HistogramSummary`] that the
//!   control plane embeds in `ControlSnapshot`.
//! - The exporter: [`chrome_trace_jsonl`] renders Chrome Trace Event Format
//!   JSONL loadable in `chrome://tracing` or Perfetto (round-tripped by the
//!   serde-free [`validate_chrome_trace_jsonl`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod histogram;
mod sink;
mod span;

pub use chrome::{chrome_trace_jsonl, validate_chrome_trace_jsonl, ChromeEvent};
pub use histogram::{Histogram, HistogramSummary};
pub use sink::{now_ns, BufferedRecorder, NoopSink, SinkGuard, TraceEvent, TraceRecord, TraceSink};
pub use span::{event, span, Span};

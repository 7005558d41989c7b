//! The benchmark's own span recorder: every layer is timed from outside,
//! around the public call that enters it.
//!
//! A span is `(name, start, end, parent, pass, round)`. Spans are kept in memory
//! and written as JSON lines when the run ends. A span's *self time* is its
//! duration minus the time its children cover; children of one span never
//! overlap, because every span is opened and closed on the thread that runs
//! the benchmark loop.
//!
//! The library's existing `dice_obs` spans (`sim.step`, `fleet.explore`,
//! ...) are harvested as leaf children through [`Harvest`], a
//! `dice_obs::TraceSink`: that is how time spent inside
//! `LiveOrchestrator::run` is split without adding a span to any crate.
//! Both recorders read `dice_obs::now_ns`, so all spans share one clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use dice_obs::{TraceRecord, TraceSink};

use crate::Measured;

const NO_PARENT: u32 = u32::MAX;

/// The span opened around each timed stretch; its self time is what no
/// layer span accounts for.
pub const ROOT: &str = "bench.timed";

struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    pass: u32,
    round: u32,
    child_ns: u64,
}

#[derive(Default)]
struct Tracer {
    spans: Vec<SpanRec>,
    open: Vec<u32>,
    pass: u32,
    round: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACER: Mutex<Tracer> = Mutex::new(Tracer {
    spans: Vec::new(),
    open: Vec::new(),
    pass: 0,
    round: 0,
});

fn tracer() -> std::sync::MutexGuard<'static, Tracer> {
    TRACER.lock().expect("no span is recorded while panicking")
}

/// Span recording is on while this lives.
#[must_use = "recording stops when this is dropped"]
pub struct Recording(());

/// Switches span recording on until the returned guard is dropped.
pub fn record() -> Recording {
    ENABLED.store(true, Ordering::Relaxed);
    Recording(())
}

impl Drop for Recording {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Relaxed);
    }
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Stamps the spans opened from now on with `pass`: one set-up and the
/// timed pass that follows it.
pub fn set_pass(pass: usize) {
    if enabled() {
        tracer().pass = pass as u32;
    }
}

/// Stamps the spans opened from now on with `round`.
pub fn set_round(round: usize) {
    if enabled() {
        tracer().round = round as u32;
    }
}

/// An open span; closes when dropped. Inert when recording is off.
#[must_use = "a span records its end when dropped"]
pub struct Scope(Option<u32>);

/// Opens a span as a child of the innermost open span.
pub fn scope(name: &'static str) -> Scope {
    if !enabled() {
        return Scope(None);
    }
    let start_ns = dice_obs::now_ns();
    let mut t = tracer();
    let id = t.push(name, start_ns, start_ns);
    t.open.push(id);
    Scope(Some(id))
}

impl Drop for Scope {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        let end_ns = dice_obs::now_ns();
        let mut t = tracer();
        let popped = t.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        t.spans[id as usize].end_ns = end_ns;
        t.close_into_parent(id);
    }
}

impl Tracer {
    /// Records a span under the innermost open span and returns its id.
    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            pass: self.pass,
            round: self.round,
            child_ns: 0,
        });
        id
    }

    fn close_into_parent(&mut self, id: u32) {
        let span = &self.spans[id as usize];
        let (parent, dur) = (span.parent, span.end_ns - span.start_ns);
        if parent != NO_PARENT {
            self.spans[parent as usize].child_ns += dur;
        }
    }

    fn leaf(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) {
        let id = self.push(name, start_ns, start_ns + dur_ns);
        self.close_into_parent(id);
    }
}

/// Forwards the library's own spans named in `names`, recorded on the
/// benchmark's thread, into the recorder as leaf spans.
pub struct Harvest {
    thread: ThreadId,
    names: &'static [&'static str],
}

impl Harvest {
    /// Installs the sink process-wide; call from the thread that runs the
    /// benchmark loop.
    pub fn install(names: &'static [&'static str]) -> dice_obs::SinkGuard {
        dice_obs::SinkGuard::install(Arc::new(Harvest {
            thread: std::thread::current().id(),
            names,
        }))
    }
}

impl TraceSink for Harvest {
    fn record(&self, record: TraceRecord) {
        let Some(dur_ns) = record.dur_ns else { return };
        // Spans from exploration worker threads overlap each other and the
        // benchmark thread's spans, so they cannot be children here.
        if std::thread::current().id() != self.thread {
            return;
        }
        if let Some(name) = self.names.iter().find(|n| **n == record.name) {
            tracer().leaf(name, record.start_ns, dur_ns);
        }
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Per-name totals over the spans inside (`Some(pass)`) or outside (`None`)
/// the timed stretches.
fn totals(pass: Option<usize>) -> BTreeMap<&'static str, Total> {
    let t = tracer();
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    // A parent's id is below its children's, so one forward sweep knows of
    // every span whether the timed stretch's root span is above it.
    let mut under_root = Vec::with_capacity(t.spans.len());
    for span in &t.spans {
        let inside =
            span.name == ROOT || (span.parent != NO_PARENT && under_root[span.parent as usize]);
        under_root.push(inside);
        let wanted = match pass {
            Some(pass) => inside && span.pass as usize == pass,
            None => !inside,
        };
        if !wanted {
            continue;
        }
        let dur = span.end_ns - span.start_ns;
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_s += dur as f64 / 1e9;
        entry.self_s += dur.saturating_sub(span.child_ns) as f64 / 1e9;
    }
    out
}

/// Per-name totals over the timed stretch of one pass: the root span and
/// everything under it.
pub fn timed_totals(pass: usize) -> BTreeMap<&'static str, Total> {
    totals(Some(pass))
}

/// Per-name totals over what the whole run recorded outside its timed
/// stretches: every set-up, and what passes do before and after timing.
pub fn untimed_totals() -> BTreeMap<&'static str, Total> {
    totals(None)
}

/// The two metrics every traced run derives from its spans: what recording
/// cost, and how much of the quietest traced pass the layer spans cover.
pub fn overhead(untraced: &Measured, traced: &Measured) -> [(&'static str, f64); 2] {
    let root = timed_totals(traced.quietest_pass())[ROOT];
    let (plain_s, traced_s) = (untraced.quiet_pass_s(), traced.quiet_pass_s());
    [
        (
            "obs.trace_overhead_pct",
            (traced_s - plain_s) / plain_s * 100.0,
        ),
        ("obs.accounted_share", 1.0 - root.self_s / root.total_s),
    ]
}

/// Prints where the wall time of traced pass `pass` went: one row per span
/// name, largest self time first, as a share of the timed stretch; then
/// what was recorded outside the timed stretch.
pub fn print_account(pass: usize) {
    let timed = timed_totals(pass);
    let timed_s = timed[ROOT].total_s;
    let mut rows: Vec<_> = timed.iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    println!("time account of traced pass {pass} ({timed_s:.3} s timed):");
    println!(
        "  {:<28} {:>8} {:>10} {:>10} {:>7}",
        "span", "count", "total s", "self s", "self %"
    );
    for (name, t) in rows {
        println!(
            "  {name:<28} {:>8} {:>10.4} {:>10.4} {:>7.1}",
            t.count,
            t.total_s,
            t.self_s,
            t.self_s / timed_s * 100.0
        );
    }
    println!(
        "outside the timed stretches, over the whole run (set-ups, a pass's own preparation):"
    );
    for (name, t) in &untimed_totals() {
        println!("  {name:<28} {:>8} {:>10.4}", t.count, t.total_s);
    }
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let t = tracer();
    for (id, s) in t.spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pass\":{},\"round\":{}}}",
            s.name, s.start_ns, s.end_ns, s.pass, s.round
        )?;
    }
    out.flush()
}

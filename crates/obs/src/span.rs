//! RAII span and instant-event instrumentation helpers.

use crate::sink::{self, TraceRecord};

/// A timed region of code. Created by [`span`]; the closing timestamp is
/// taken and the event dispatched when the guard drops.
///
/// When no sink is installed the span is inert: construction is a relaxed
/// atomic load and the drop does nothing, so instrumentation left in hot
/// paths compiles down to a predictable branch.
#[must_use = "a span records its duration when dropped"]
#[derive(Debug)]
pub struct Span {
    scope: &'static str,
    name: &'static str,
    detail: u64,
    /// `Some(start)` only while recording; `None` makes `Drop` a no-op.
    start_ns: Option<u64>,
}

impl Span {
    /// Attach a numeric payload (a count, a size, an epoch number) to the
    /// event emitted when the span closes.
    #[inline]
    pub fn set_detail(&mut self, detail: u64) {
        if self.start_ns.is_some() {
            self.detail = detail;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start_ns {
            let end = sink::now_ns();
            sink::dispatch(TraceRecord {
                scope: self.scope,
                name: self.name,
                start_ns: start,
                dur_ns: Some(end.saturating_sub(start)),
                detail: self.detail,
            });
        }
    }
}

/// Open a [`Span`] covering the enclosing scope.
///
/// ```
/// let mut span = dice_obs::span("netsim", "sim.step");
/// // ... do the work ...
/// span.set_detail(42);
/// // dropping the span records scope/name/duration/detail
/// ```
#[inline]
pub fn span(scope: &'static str, name: &'static str) -> Span {
    let start_ns = sink::enabled().then(sink::now_ns);
    Span {
        scope,
        name,
        detail: 0,
        start_ns,
    }
}

/// Record an instant (zero-duration) event.
#[inline]
pub fn event(scope: &'static str, name: &'static str, detail: u64) {
    if sink::enabled() {
        sink::dispatch(TraceRecord {
            scope,
            name,
            start_ns: sink::now_ns(),
            dur_ns: None,
            detail,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{test_lock, BufferedRecorder, SinkGuard};
    use std::sync::Arc;

    #[test]
    fn spans_record_duration_and_detail() {
        let _serial = test_lock();
        let recorder = Arc::new(BufferedRecorder::new());
        let _guard = SinkGuard::install(recorder.clone());
        {
            let mut span = span("test", "outer");
            event("test", "inner", 7);
            span.set_detail(3);
        }
        let events = recorder.drain();
        assert_eq!(events.len(), 2);
        // The instant event dispatched first; the span closed after it.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[0].dur_ns, None);
        assert_eq!(events[0].detail, 7);
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[1].detail, 3);
        let dur = events[1].dur_ns.expect("span has a duration");
        assert!(events[1].start_ns <= events[0].start_ns);
        assert!(events[1].start_ns + dur >= events[0].start_ns);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _serial = test_lock();
        let recorder = Arc::new(BufferedRecorder::new());
        {
            let mut span = span("test", "silent");
            span.set_detail(9);
            event("test", "silent-event", 1);
        }
        assert!(recorder.drain().is_empty());
    }
}

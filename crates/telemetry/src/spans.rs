//! Stage-level timing spans.
//!
//! A span opens with [`crate::Telemetry::span`] and closes when the
//! returned [`SpanGuard`] drops, recording start/end on the injected clock.
//! Nesting is tracked with a simple open-span stack: the span opened most
//! recently (and still open) is the parent of the next one. That model
//! fits the single-threaded orchestration points we instrument (pipeline →
//! crawl stages → analytics operators); guards opened concurrently from
//! worker threads still record correct times but may attribute parents
//! arbitrarily, which is why per-request work uses counters/histograms
//! instead.

use crate::Telemetry;
use parking_lot::Mutex;

/// Spans one log keeps. The serving tier opens a span per uncached
/// request, so an unbounded log grows with traffic; past this many the
/// log keeps what it has — the oldest, so a short seeded run reports
/// exactly the spans it always did — and further spans are only counted
/// (`telemetry.spans.dropped`).
pub const SPAN_CAPACITY: usize = 16_384;

/// One timed span. `end_ms` is `None` while the guard is still alive
/// (e.g. when a report is taken mid-run).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: String,
    pub start_ms: u64,
    pub end_ms: Option<u64>,
    /// Nesting depth at open time: 0 = root.
    pub depth: usize,
    /// Index of the parent span in start order, if any.
    pub parent: Option<usize>,
}

#[derive(Default)]
struct SpanState {
    records: Vec<SpanRecord>,
    /// Indices of currently-open spans, innermost last.
    stack: Vec<usize>,
}

/// The append-only span log shared by all clones of a [`Telemetry`],
/// bounded at [`SPAN_CAPACITY`] records.
#[derive(Default)]
pub struct SpanLog {
    state: Mutex<SpanState>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog::default()
    }

    /// Open a span; returns its index for [`SpanLog::end`], or `None`
    /// when the log is full and the span goes unrecorded.
    pub fn start(&self, name: &str, start_ms: u64) -> Option<usize> {
        let mut state = self.state.lock();
        let idx = state.records.len();
        if idx >= SPAN_CAPACITY {
            return None;
        }
        let record = SpanRecord {
            name: name.to_string(),
            start_ms,
            end_ms: None,
            depth: state.stack.len(),
            parent: state.stack.last().copied(),
        };
        state.records.push(record);
        state.stack.push(idx);
        Some(idx)
    }

    /// Close the span at `idx`. Out-of-order closes (guards dropped in a
    /// different order than opened) are tolerated: the span is removed from
    /// wherever it sits in the open stack.
    pub fn end(&self, idx: usize, end_ms: u64) {
        let mut state = self.state.lock();
        if let Some(r) = state.records.get_mut(idx) {
            if r.end_ms.is_none() {
                r.end_ms = Some(end_ms);
            }
        }
        state.stack.retain(|&i| i != idx);
    }

    /// All spans in start order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.state.lock().records.clone()
    }
}

/// RAII guard returned by [`Telemetry::span`]; closes the span on drop.
#[must_use = "a span closes when its guard drops; binding it to _ closes it immediately"]
pub struct SpanGuard {
    telemetry: Telemetry,
    /// `None` for a span the full log did not record.
    idx: Option<usize>,
}

impl SpanGuard {
    pub(crate) fn new(telemetry: Telemetry, idx: Option<usize>) -> SpanGuard {
        SpanGuard { telemetry, idx }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            self.telemetry.end_span(idx);
        }
    }
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard").field("idx", &self.idx).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_tracks_depth_and_parent() {
        let log = SpanLog::new();
        let a = log.start("outer", 0).unwrap();
        let b = log.start("inner", 1).unwrap();
        log.end(b, 2);
        log.end(a, 3);
        let c = log.start("after", 4).unwrap();
        log.end(c, 5);
        let records = log.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].depth, 0);
        assert_eq!(records[0].parent, None);
        assert_eq!(records[1].depth, 1);
        assert_eq!(records[1].parent, Some(0));
        assert_eq!(records[1].end_ms, Some(2));
        assert_eq!(records[2].depth, 0);
        assert_eq!(records[2].parent, None);
    }

    #[test]
    fn out_of_order_end_is_tolerated() {
        let log = SpanLog::new();
        let a = log.start("a", 0).unwrap();
        let b = log.start("b", 1).unwrap();
        log.end(a, 2); // outer closes first
        log.end(b, 3);
        let records = log.records();
        assert_eq!(records[0].end_ms, Some(2));
        assert_eq!(records[1].end_ms, Some(3));
        // Stack drained: a new span is a root again.
        let c = log.start("c", 4).unwrap();
        log.end(c, 5);
        assert_eq!(log.records()[2].depth, 0);
    }

    #[test]
    fn a_full_log_keeps_its_oldest_spans_and_counts_the_rest() {
        let t = Telemetry::new();
        for i in 0..SPAN_CAPACITY {
            drop(t.span(if i == 0 { "first" } else { "early" }));
        }
        // Short runs never touch the counter: it is not even registered.
        assert!(!t
            .registry()
            .counter_values()
            .iter()
            .any(|(name, _)| name == "telemetry.spans.dropped"));
        for _ in 0..3 {
            drop(t.span("late"));
        }
        let records = t.span_records();
        assert_eq!(records.len(), SPAN_CAPACITY);
        assert_eq!(records[0].name, "first");
        assert!(records.iter().all(|r| r.name != "late" && r.end_ms.is_some()));
        assert_eq!(t.counter("telemetry.spans.dropped").value(), 3);
    }

    #[test]
    fn open_span_has_no_end() {
        let log = SpanLog::new();
        log.start("open", 7);
        let records = log.records();
        assert_eq!(records[0].end_ms, None);
    }
}

//! Deterministic observability for the CrowdNet platform.
//!
//! The paper's system is *operational* — a crawler fighting rate limits and
//! transient faults feeding a Spark-style analytics tier — and an
//! operational system needs counters, timings and progress events that can
//! be inspected after a run. This crate is that substrate, with one twist
//! the simulation demands: **everything is deterministic under a virtual
//! clock**. Spans and events are timestamped against an injected
//! [`Clock`], so a pipeline run under `SimClock` produces a byte-identical
//! JSON report every time, while the `repro` binary binds the wall clock
//! and gets real timings from the very same instrumentation.
//!
//! Pieces:
//!
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   [`Histogram`]s. Handles are `Arc`s over sharded atomics: the hot path
//!   (a BFS worker bumping `crawl.angellist.attempts`) never takes a lock.
//! * [`SpanGuard`] — RAII stage timings forming a span tree
//!   (`pipeline` → `crawl.angellist` → …), timed on the injected clock.
//! * event ring — a bounded, lossy buffer of progress events replacing
//!   ad-hoc `eprintln!` chatter; a verbosity gate decides whether events
//!   also hit stderr (silent by default, so tests stay quiet).
//! * [`report`] — serializes the whole registry + span tree + events to a
//!   `crowdnet-json` [`Value`](crowdnet_json::Value) with fully sorted
//!   keys, the format written to `results/telemetry/<run>.json` and by the
//!   bench harness to `BENCH_*.json`.
//!
//! The [`Telemetry`] handle is cheaply cloneable and threads through
//! config structs (`CrawlConfig`, `PipelineConfig`, `CodaConfig`, …); a
//! default handle is a fully functional private registry, so library code
//! records unconditionally and callers that never look at the report pay
//! only the atomics.

pub mod clock;
pub mod events;
pub mod metrics;
pub mod registry;
pub mod report;
pub mod spans;

pub use clock::{Clock, FixedClock};
pub use events::{Event, Level, Verbosity};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::Registry;
pub use spans::{SpanGuard, SpanRecord};

use crowdnet_json::Value;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

struct Inner {
    clock: RwLock<Arc<dyn Clock>>,
    clock_bound: AtomicBool,
    registry: Registry,
    spans: spans::SpanLog,
    events: events::EventRing,
}

/// The shared telemetry handle: a clock, a metrics registry, a span log
/// and an event ring behind one cheaply-cloneable `Arc`.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("clock_bound", &self.clock_is_bound())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A fresh registry with an unbound clock (time frozen at 0 until a
    /// component binds one — see [`Telemetry::bind_clock_if_unbound`]).
    pub fn new() -> Telemetry {
        Telemetry {
            inner: Arc::new(Inner {
                clock: RwLock::new(Arc::new(FixedClock(0))),
                clock_bound: AtomicBool::new(false),
                registry: Registry::new(),
                spans: spans::SpanLog::new(),
                events: events::EventRing::new(events::DEFAULT_CAPACITY),
            }),
        }
    }

    /// A fresh registry already bound to `clock`.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Telemetry {
        let t = Telemetry::new();
        t.bind_clock(clock);
        t
    }

    /// Bind (or rebind) the time source used by spans and events.
    pub fn bind_clock(&self, clock: Arc<dyn Clock>) {
        *self.inner.clock.write() = clock;
        self.inner.clock_bound.store(true, Ordering::SeqCst);
    }

    /// Bind `clock` only when no clock was explicitly bound yet. Components
    /// that own a clock (the crawler and its `SimClock`) call this so an
    /// outer binding — the `repro` binary's wall clock — wins.
    pub fn bind_clock_if_unbound(&self, clock: Arc<dyn Clock>) {
        if !self.inner.clock_bound.swap(true, Ordering::SeqCst) {
            *self.inner.clock.write() = clock;
        }
    }

    /// Has a clock been explicitly bound?
    pub fn clock_is_bound(&self) -> bool {
        self.inner.clock_bound.load(Ordering::SeqCst)
    }

    /// Current time in milliseconds on the bound clock (0 when unbound).
    pub fn now_ms(&self) -> u64 {
        self.inner.clock.read().now_ms()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Get or create the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.registry.counter(name)
    }

    /// Get or create the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.registry.gauge(name)
    }

    /// Get or create the named histogram with the default exponential
    /// bucket bounds (1 ms … ~17 min).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner.registry.histogram(name)
    }

    /// Get or create the named histogram with explicit bucket upper bounds
    /// (strictly increasing; an overflow bucket is implicit).
    pub fn histogram_with(&self, name: &str, bounds: &[u64]) -> Histogram {
        self.inner.registry.histogram_with(name, bounds)
    }

    /// Open a span; it closes (and records its end time) when the returned
    /// guard drops. Spans are meant for stage-level orchestration points —
    /// guards opened concurrently from worker threads are recorded but may
    /// attribute parents arbitrarily. The log holds the first
    /// [`spans::SPAN_CAPACITY`] spans; later ones are counted in
    /// `telemetry.spans.dropped` and otherwise ignored.
    pub fn span(&self, name: &str) -> SpanGuard {
        let start = self.now_ms();
        let idx = self.inner.spans.start(name, start);
        if idx.is_none() {
            self.counter("telemetry.spans.dropped").inc();
        }
        SpanGuard::new(self.clone(), idx)
    }

    pub(crate) fn end_span(&self, idx: usize) {
        let end = self.now_ms();
        self.inner.spans.end(idx, end);
    }

    /// Completed + open span records, in start order.
    pub fn span_records(&self) -> Vec<SpanRecord> {
        self.inner.spans.records()
    }

    /// Record an event into the ring; when the verbosity gate admits
    /// `level`, it is also printed to stderr.
    pub fn event(&self, level: Level, target: &str, message: impl Into<String>) {
        let now = self.now_ms();
        self.inner.events.emit(now, level, target, message.into());
    }

    /// Console verbosity (default [`Verbosity::Silent`]).
    pub fn set_verbosity(&self, v: Verbosity) {
        self.inner.events.set_verbosity(v);
    }

    /// Current console verbosity.
    pub fn verbosity(&self) -> Verbosity {
        self.inner.events.verbosity()
    }

    /// Snapshot the buffered events (oldest first) plus the drop counter.
    pub fn events(&self) -> (Vec<Event>, u64) {
        self.inner.events.snapshot()
    }

    /// Serialize everything to the run-report JSON value (sorted keys, so
    /// the bytes are deterministic for a deterministic run).
    pub fn report(&self) -> Value {
        report::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_clock_is_frozen_at_zero() {
        let t = Telemetry::new();
        assert!(!t.clock_is_bound());
        assert_eq!(t.now_ms(), 0);
    }

    #[test]
    fn bind_clock_if_unbound_is_first_binding_wins() {
        let t = Telemetry::new();
        t.bind_clock_if_unbound(Arc::new(FixedClock(5)));
        t.bind_clock_if_unbound(Arc::new(FixedClock(9)));
        assert_eq!(t.now_ms(), 5);
        t.bind_clock(Arc::new(FixedClock(9))); // explicit rebind still works
        assert_eq!(t.now_ms(), 9);
    }

    #[test]
    fn closure_clocks_adapt_external_time_sources() {
        let t = Telemetry::new();
        let ticks = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let src = Arc::clone(&ticks);
        t.bind_clock(Arc::new(move || src.load(Ordering::SeqCst)));
        ticks.store(1234, Ordering::SeqCst);
        assert_eq!(t.now_ms(), 1234);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::new();
        let u = t.clone();
        u.counter("x").inc();
        assert_eq!(t.counter("x").value(), 1);
    }

    #[test]
    fn identical_usage_yields_identical_reports() {
        let run = || {
            let t = Telemetry::with_clock(Arc::new(FixedClock(10)));
            t.counter("a.b").add(3);
            t.gauge("g").set(7);
            t.histogram("h").record(42);
            {
                let _s = t.span("stage");
                t.event(Level::Progress, "stage", "step 1");
            }
            t.report().to_pretty()
        };
        assert_eq!(run(), run());
    }
}

//! The harness's own span recorder: one span (name, start, end, parent,
//! op id) around every call the driver makes into a layer, kept in memory
//! and written out when the run ends. Spans inside the program are a
//! later change; these sit at the driver's side of each public call.
//!
//! Stage spans are opened on the driver thread and nest by an open-span
//! stack. Load-generator threads buffer their request spans locally and
//! hand them over once their phase ends, so recording a request costs one
//! `Vec::push` and takes no lock. They hand them to a [`Sink`], which the
//! driver thread takes before it spawns them: the stack belongs to the
//! driver thread, and by the time a reader is done the writer beside it
//! may have another stage open.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` is the index of the enclosing span plus
/// one (0 = root); spans of one operation share `op`.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

/// A request span as a load-generator thread buffers it.
#[derive(Clone, Copy)]
pub struct RequestSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u64,
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    /// Indices (plus one) of the stage spans still open, innermost last.
    open: Vec<u32>,
}

/// Per-name totals derived from the log.
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part its child spans cover.
    pub self_ns: u64,
}

/// A tracer and the stage request spans are adopted under.
#[derive(Clone, Copy)]
pub struct Sink<'a> {
    tracer: &'a Tracer,
    parent: u32,
}

impl Sink<'_> {
    pub fn now_ns(&self) -> u64 {
        self.tracer.now_ns()
    }

    /// Adopt a load-generator thread's request spans.
    pub fn adopt(&self, requests: Vec<RequestSpan>) {
        let parent = self.parent;
        self.tracer
            .log()
            .spans
            .extend(requests.into_iter().map(|r| Span {
                name: r.name,
                start_ns: r.start_ns,
                end_ns: r.end_ns,
                parent,
                op: r.op,
            }));
    }
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    log: Mutex<Log>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            log: Mutex::new(Log::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created (the trace's time base).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log
            .lock()
            .expect("tracer log poisoned: a stage panicked while recording")
    }

    /// Run `f` as the stage `name`: always timed (the seconds come back
    /// with the value), recorded as a span only when tracing is on.
    pub fn stage<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.enabled {
            let t0 = Instant::now();
            let out = f();
            return (out, t0.elapsed().as_secs_f64());
        }
        let start_ns = self.now_ns();
        let id = {
            let mut log = self.log();
            let parent = log.open.last().copied().unwrap_or(0);
            log.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op: 0,
            });
            let id = log.spans.len() as u32;
            log.open.push(id);
            id
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut log = self.log();
        log.spans[id as usize - 1].end_ns = end_ns;
        log.open.retain(|&open| open != id);
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Where load-generator threads put their request spans: under the
    /// stage that is innermost now, on the calling (driver) thread. `None`
    /// when tracing is off.
    pub fn sink(&self) -> Option<Sink<'_>> {
        self.enabled.then(|| Sink {
            tracer: self,
            parent: self.log().open.last().copied().unwrap_or(0),
        })
    }

    #[cfg(test)]
    pub fn span_count(&self) -> usize {
        self.log().spans.len()
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let log = self.log();
        let mut children_ns = vec![0u64; log.spans.len()];
        for span in &log.spans {
            if span.parent > 0 {
                children_ns[span.parent as usize - 1] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, child_ns) in log.spans.iter().zip(children_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_insert(SelfTime {
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            entry.count += 1;
            entry.total_ns += total;
            // Children on parallel client threads can cover more than the
            // parent's wall time; self time bottoms out at zero.
            entry.self_ns += total.saturating_sub(child_ns);
        }
        out
    }

    /// Write every span and the per-name self times as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let self_times = self.self_times();
        let log = self.log();
        let mut out = String::with_capacity(64 + log.spans.len() * 72);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"self_time\":{{");
        for (i, (name, t)) in self_times.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("},\"spans\":[");
        for (i, s) in log.spans.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.op
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let tracer = Tracer::new(true);
        tracer.stage("outer", || {
            tracer.stage("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            // A sink keeps the stage it was taken under, whatever another
            // thread's driver has open by the time the spans arrive.
            let sink = tracer.sink().expect("tracing is on");
            tracer.stage("inner", || {
                sink.adopt(vec![RequestSpan {
                    name: "req",
                    start_ns: 10,
                    end_ns: 20,
                    op: 7,
                }])
            });
        });
        let times = tracer.self_times();
        let outer = &times["outer"];
        let inner = &times["inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        assert!(inner.total_ns >= 5_000_000);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns - 10);
        assert_eq!(times["req"].self_ns, 10);
        assert_eq!(tracer.span_count(), 4);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let tracer = Tracer::new(false);
        let (value, secs) = tracer.stage("stage", || 41 + 1);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
        assert!(tracer.sink().is_none());
        assert_eq!(tracer.span_count(), 0);
    }
}

//! Load generators. Closed loop: each client sends its next request only
//! after the previous answer, so a slow system receives less load — the
//! shape of callers that wait for replies. Open loop: requests fall due on
//! a fixed schedule whatever the system does, latency is timed from the
//! due time, and how late the generator ran is reported beside it.

use crate::http::{find, HttpClient};
use crate::stats;
use crate::trace::{RequestSpan, Sink};
use crate::workload::{Class, Mix, Pools, TargetGen, Zipf};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One response in this many is kept for the byte-for-byte check against
/// an in-process reference.
pub const SAMPLE_EVERY: u64 = 64;

/// What a phase of load is made of.
#[derive(Clone, Copy)]
pub struct LoadSpec<'a> {
    pub addr: SocketAddr,
    pub pools: &'a Pools,
    pub zipf: &'a Zipf,
    pub mix: Mix,
    pub aggregates: &'static [&'static str],
    pub seed: u64,
    /// Client threads, one keep-alive connection each.
    pub clients: usize,
    /// First client index: phases of one run continue the same per-client
    /// streams under different indices so no target sequence repeats.
    pub first_client: usize,
}

/// What a phase measured.
#[derive(Default)]
pub struct LoadResult {
    /// Latency samples in nanoseconds, by `Class::index`.
    pub latency_ns: [Vec<u64>; 4],
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the report.
    pub failures: Vec<String>,
    pub wall_s: f64,
    pub reconnects: u64,
    /// `(target, body)` of every `SAMPLE_EVERY`-th response.
    pub sampled: Vec<(String, Vec<u8>)>,
    /// Open loop only: how late each request left, nanoseconds.
    pub lateness_ns: Vec<u64>,
}

impl LoadResult {
    /// Fold another client's, or another sub-phase's, result into this one
    /// (`wall_s` is the caller's to set).
    pub fn absorb(&mut self, other: LoadResult) {
        for (mine, theirs) in self.latency_ns.iter_mut().zip(other.latency_ns) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
        self.reconnects += other.reconnects;
        self.sampled.extend(other.sampled);
        self.lateness_ns.extend(other.lateness_ns);
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Ascending latencies of `class` in `unit_ns` units.
    pub fn sorted(&self, class: Class, unit_ns: f64) -> Vec<f64> {
        stats::sorted_in(&self.latency_ns[class.index()], unit_ns)
    }
}

/// One request: send, time, judge. A non-200 status, a response flagged
/// `"partial": true` and a transport error all count as failed; only a
/// request that succeeded leaves a latency sample.
fn issue(
    client: &mut HttpClient,
    class: Class,
    target: &str,
    started: Instant,
    result: &mut LoadResult,
    keep_sample: bool,
) {
    result.attempted += 1;
    match client.get(target) {
        Ok((status, body)) => {
            let latency_ns = started.elapsed().as_nanos() as u64;
            let partial = status == 200 && find(body, b"\"partial\":true").is_some();
            if status != 200 || partial {
                result.failed += 1;
                if result.failures.len() < 8 {
                    let what = if partial {
                        "partial".to_string()
                    } else {
                        status.to_string()
                    };
                    result.failures.push(format!("GET {target} -> {what}"));
                }
            } else {
                result.latency_ns[class.index()].push(latency_ns);
                if keep_sample {
                    result.sampled.push((target.to_string(), body.to_vec()));
                }
            }
        }
        Err(e) => {
            result.failed += 1;
            if result.failures.len() < 8 {
                result.failures.push(format!("GET {target} -> {e}"));
            }
        }
    }
}

/// Closed loop for `seconds`: `spec.clients` threads, each with its own
/// connection and target stream. With a sink, every request is a span.
pub fn closed_loop(spec: &LoadSpec<'_>, seconds: f64, sink: Option<Sink<'_>>) -> LoadResult {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut total = LoadResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|i| {
                scope.spawn(move || {
                    let mut gen = TargetGen::new(
                        spec.pools,
                        spec.zipf,
                        spec.mix,
                        spec.aggregates,
                        spec.seed,
                        spec.first_client + i,
                    );
                    let mut client = HttpClient::new(spec.addr);
                    let mut result = LoadResult::default();
                    let mut spans: Vec<RequestSpan> = Vec::new();
                    let mut issued = 0u64;
                    while Instant::now() < deadline {
                        let op = gen.op_id();
                        let (class, target) = gen.next_target();
                        let start_ns = sink.map(|s| s.now_ns());
                        issue(
                            &mut client,
                            class,
                            &target,
                            Instant::now(),
                            &mut result,
                            issued.is_multiple_of(SAMPLE_EVERY),
                        );
                        if let (Some(sink), Some(start_ns)) = (sink, start_ns) {
                            spans.push(RequestSpan {
                                name: class.name(),
                                start_ns,
                                end_ns: sink.now_ns(),
                                op,
                            });
                        }
                        issued += 1;
                    }
                    result.reconnects = client.reconnects();
                    (result, spans)
                })
            })
            .collect();
        for handle in handles {
            let (result, spans) = handle.join().expect("load-generator client panicked");
            total.absorb(result);
            if let Some(sink) = sink {
                sink.adopt(spans);
            }
        }
    });
    total.wall_s = started.elapsed().as_secs_f64();
    total
}

/// Open loop at `rate_rps` for `seconds`: one shared due-queue (request
/// `i` is due at `i / rate`), drained by `spec.clients` connections.
/// Latency runs from the due time, so a stall charges every request that
/// queued behind it.
pub fn open_loop(spec: &LoadSpec<'_>, rate_rps: f64, seconds: f64) -> LoadResult {
    let interval = Duration::from_secs_f64(1.0 / rate_rps);
    let scheduled = (rate_rps * seconds).ceil() as u64;
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let mut total = LoadResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|i| {
                let next = &next;
                scope.spawn(move || {
                    let mut gen = TargetGen::new(
                        spec.pools,
                        spec.zipf,
                        spec.mix,
                        spec.aggregates,
                        spec.seed,
                        spec.first_client + i,
                    );
                    let mut client = HttpClient::new(spec.addr);
                    let mut result = LoadResult::default();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= scheduled {
                            break;
                        }
                        let due = started + interval.mul_f64(index as f64);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        result
                            .lateness_ns
                            .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
                        let (class, target) = gen.next_target();
                        issue(&mut client, class, &target, due, &mut result, false);
                    }
                    result.reconnects = client.reconnects();
                    result
                })
            })
            .collect();
        for handle in handles {
            total.absorb(handle.join().expect("open-loop client panicked"));
        }
    });
    total.wall_s = started.elapsed().as_secs_f64();
    total
}

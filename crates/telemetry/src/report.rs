//! Run-report serialization.
//!
//! A report is one `crowdnet-json` [`Value`] capturing the registry, span
//! tree and event ring of a [`Telemetry`] handle. Counters, gauges and
//! histograms are emitted in name order and spans/events in start order,
//! so a deterministic run (SimClock, fixed seed) serializes to identical
//! bytes every time — the property the integration suite asserts. The same
//! schema is written to `results/telemetry/<run>.json` by `repro`.

use crate::{Telemetry, Verbosity};
use crowdnet_json::{obj, Object, Value};
use std::io;
use std::path::Path;

/// Schema version stamped into every report.
pub const VERSION: u64 = 1;

/// Counters every full-pipeline report must contain; `scripts/check.sh`
/// and [`validate`] enforce this set.
pub const MANDATORY_COUNTERS: &[&str] = &[
    "crawl.angellist.attempts",
    "crawl.angellist.success",
    "crawl.bfs.companies",
    "crawl.bfs.users",
    "store.append.docs",
    "store.append.bytes",
];

/// Every metric name the workspace registers or reads, beyond
/// [`MANDATORY_COUNTERS`]. The registry hands out counters on first use, so
/// a typo'd name silently reads zero forever — `crowdnet-lint`'s
/// `counter-contract` rule checks every `.counter("…")` / `.gauge("…")` /
/// `.histogram("…")` literal in the workspace against this list (`*`
/// matches one dotted segment, covering names built with `format!`).
/// Add new metrics here when introducing them.
pub const DECLARED_METRICS: &[&str] = &[
    "chaos.connects",
    "chaos.exchanges",
    "chaos.injected.black_holes",
    "chaos.injected.connect_holes",
    "chaos.injected.connect_refused",
    "chaos.injected.delays",
    "chaos.injected.dripped_reads",
    "chaos.injected.partition_drops",
    "chaos.injected.resets",
    "chaos.injected.truncated_writes",
    "coda.iterations",
    "coda.line_search.early_exits",
    "coda.line_search.evaluations",
    "coda.rows_stuck",
    "coda.warm_fallbacks",
    "column.appends",
    "column.builds",
    "column.bytes",
    "column.dict.entries",
    "column.rebuilds",
    "column.scan.docs",
    "crawl.*.fail_permanent",
    "crawl.*.retry_ratelimit",
    "crawl.*.retry_transient",
    "crawl.*.wait_ms",
    "crawl.augment.ambiguous",
    "crawl.augment.by_search",
    "crawl.augment.direct",
    "crawl.augment.not_found",
    "crawl.bfs.depth",
    "crawl.bfs.frontier",
    "crawl.bfs.skipped",
    "crawl.facebook.pages",
    "crawl.resume.runs",
    "crawl.resume.skipped",
    "crawl.resume.stages_skipped",
    "crawl.syndicates.docs",
    "crawl.twitter.attempts",
    "crawl.twitter.bad_url",
    "crawl.twitter.profiles",
    "dataflow.queue_depth",
    "dataflow.task_rows",
    "dataflow.tasks",
    "ingest.apply_ms.entities",
    "ingest.apply_ms.graph",
    "ingest.apply_ms.stats",
    "ingest.catchup.scans",
    "ingest.column.save_errors",
    "ingest.docs",
    "ingest.edges",
    "ingest.epoch.version",
    "ingest.epochs",
    "ingest.events",
    "ingest.feed.dropped",
    "ingest.feed.lag",
    "ingest.pagerank.recomputes",
    "ingest.pagerank.sweeps",
    "ingest.publish_ms",
    "ingest.recoveries",
    "sbm.restarts",
    "serve.cache.evict",
    "serve.cache.hit",
    "serve.cache.miss",
    "serve.deadline_exceeded",
    "serve.http.idle_closes",
    "serve.keepalive.reuses",
    "serve.latency_ms",
    "serve.queue_depth",
    "serve.requests",
    "serve.shed",
    "shard.*.docs",
    "shard.*.refreshes",
    "shard.router.deadline_skips",
    "shard.router.epoch_builds",
    "shard.router.fanouts",
    "shard.router.partial",
    "shard.router.requests",
    "shard.router.single_shard",
    "shard.set.opened",
    "shard.set.puts",
    "shard.set.recoveries",
    "shardnet.backoff_ms",
    "shardnet.breaker.closes",
    "shardnet.breaker.gray_trips",
    "shardnet.breaker.half_opens",
    "shardnet.breaker.opens",
    "shardnet.breaker.reopens",
    "shardnet.degraded_flips",
    "shardnet.frames.malformed",
    "shardnet.leg_ms.*",
    "shardnet.legs",
    "shardnet.pool.reuse_hits",
    "shardnet.pool.stale_retries",
    "shardnet.retries",
    "shardnet.server.errors",
    "shardnet.server.requests",
    "shardnet.timeouts",
    "store.recovery.quarantined",
    "store.recovery.records_ok",
    "store.recovery.scans",
    "store.recovery.torn_bytes",
    "store.recovery.torn_tails",
    "store.recovery.uncommitted_snapshots",
    "store.recovery.writer_invalidations",
    "store.scan.calls",
    "store.scan.docs",
    "telemetry.spans.dropped",
];

/// Serialize `telemetry` into the run-report [`Value`].
pub fn build(telemetry: &Telemetry) -> Value {
    let registry = telemetry.registry();

    let mut counters = Object::new();
    for (name, value) in registry.counter_values() {
        counters.insert(name, value);
    }

    let mut gauges = Object::new();
    for (name, value) in registry.gauge_values() {
        gauges.insert(name, value);
    }

    let mut histograms = Object::new();
    for (name, snap) in registry.histogram_snapshots() {
        let bounds = Value::Arr(snap.bounds.iter().map(|&b| Value::from(b)).collect());
        let counts = Value::Arr(snap.counts.iter().map(|&c| Value::from(c)).collect());
        histograms.insert(
            name,
            obj! {
                "bounds" => bounds,
                "counts" => counts,
                "count" => snap.count,
                "sum" => snap.sum,
                "min" => snap.min.map(Value::from).unwrap_or(Value::Null),
                "max" => snap.max.map(Value::from).unwrap_or(Value::Null),
            },
        );
    }

    let spans = Value::Arr(
        telemetry
            .span_records()
            .into_iter()
            .map(|s| {
                obj! {
                    "name" => s.name,
                    "start_ms" => s.start_ms,
                    "end_ms" => s.end_ms.map(Value::from).unwrap_or(Value::Null),
                    "depth" => s.depth,
                    "parent" => s.parent.map(Value::from).unwrap_or(Value::Null),
                }
            })
            .collect(),
    );

    let (events, dropped) = telemetry.events();
    let total = events.last().map(|e| e.seq + 1).unwrap_or(dropped);
    let entries = Value::Arr(
        events
            .into_iter()
            .map(|e| {
                obj! {
                    "seq" => e.seq,
                    "time_ms" => e.time_ms,
                    "level" => e.level.as_str(),
                    "target" => e.target,
                    "message" => e.message,
                }
            })
            .collect(),
    );

    obj! {
        "version" => VERSION,
        "counters" => Value::Obj(counters),
        "gauges" => Value::Obj(gauges),
        "histograms" => Value::Obj(histograms),
        "spans" => spans,
        "events" => obj! {
            "dropped" => dropped,
            "total" => total,
            "entries" => entries,
        },
    }
}

/// Check that `report` is structurally a telemetry report and carries the
/// [`MANDATORY_COUNTERS`] expected of a full pipeline run.
pub fn validate(report: &Value) -> Result<(), String> {
    let version = report
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| "missing numeric 'version'".to_string())?;
    if version != VERSION {
        return Err(format!("unsupported report version {version}"));
    }
    for section in ["counters", "gauges", "histograms"] {
        if report.get(section).and_then(Value::as_obj).is_none() {
            return Err(format!("missing object section '{section}'"));
        }
    }
    if report.get("spans").and_then(Value::as_arr).is_none() {
        return Err("missing array section 'spans'".to_string());
    }
    if report
        .get("events")
        .and_then(|e| e.get("entries"))
        .and_then(Value::as_arr)
        .is_none()
    {
        return Err("missing 'events.entries' array".to_string());
    }
    let counters = report
        .get("counters")
        .and_then(Value::as_obj)
        .ok_or_else(|| "missing object section 'counters'".to_string())?;
    for &name in MANDATORY_COUNTERS {
        if counters.get(name).and_then(Value::as_u64).is_none() {
            return Err(format!("missing mandatory counter '{name}'"));
        }
    }
    Ok(())
}

/// Render a human-readable summary of a saved report (the
/// `repro -- telemetry-report` output).
pub fn render_summary(report: &Value) -> String {
    let mut out = String::new();
    out.push_str("telemetry report");
    if let Some(v) = report.get("version").and_then(Value::as_u64) {
        out.push_str(&format!(" (version {v})"));
    }
    out.push('\n');

    if let Some(counters) = report.get("counters").and_then(Value::as_obj) {
        out.push_str(&format!("\ncounters ({}):\n", counters.len()));
        for (name, value) in counters.iter() {
            let v = value.as_u64().unwrap_or(0);
            out.push_str(&format!("  {name:<40} {v}\n"));
        }
    }

    if let Some(gauges) = report.get("gauges").and_then(Value::as_obj) {
        if !gauges.is_empty() {
            out.push_str(&format!("\ngauges ({}):\n", gauges.len()));
            for (name, value) in gauges.iter() {
                let v = value.as_u64().unwrap_or(0);
                out.push_str(&format!("  {name:<40} {v}\n"));
            }
        }
    }

    if let Some(histograms) = report.get("histograms").and_then(Value::as_obj) {
        if !histograms.is_empty() {
            out.push_str(&format!("\nhistograms ({}):\n", histograms.len()));
            for (name, h) in histograms.iter() {
                let count = h.get("count").and_then(Value::as_u64).unwrap_or(0);
                let sum = h.get("sum").and_then(Value::as_u64).unwrap_or(0);
                let mean = if count > 0 { sum / count } else { 0 };
                let min = h
                    .get("min")
                    .and_then(Value::as_u64)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".to_string());
                let max = h
                    .get("max")
                    .and_then(Value::as_u64)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".to_string());
                out.push_str(&format!(
                    "  {name:<40} count={count} mean={mean} min={min} max={max}\n"
                ));
            }
        }
    }

    if let Some(spans) = report.get("spans").and_then(Value::as_arr) {
        if !spans.is_empty() {
            out.push_str(&format!("\nspans ({}):\n", spans.len()));
            for span in spans {
                let name = span.get("name").and_then(Value::as_str).unwrap_or("?");
                let depth = span.get("depth").and_then(Value::as_u64).unwrap_or(0) as usize;
                let start = span.get("start_ms").and_then(Value::as_u64).unwrap_or(0);
                let dur = span
                    .get("end_ms")
                    .and_then(Value::as_u64)
                    .map(|e| format!("{} ms", e.saturating_sub(start)))
                    .unwrap_or_else(|| "open".to_string());
                out.push_str(&format!("  {:indent$}{name} [{dur}]\n", "", indent = depth * 2));
            }
        }
    }

    if let Some(events) = report.get("events") {
        let total = events.get("total").and_then(Value::as_u64).unwrap_or(0);
        let dropped = events.get("dropped").and_then(Value::as_u64).unwrap_or(0);
        out.push_str(&format!("\nevents: {total} emitted, {dropped} dropped\n"));
    }

    out
}

/// Write a pretty-printed report to `path`, creating parent directories.
pub fn write(path: &Path, report: &Value) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut text = report.to_pretty();
    text.push('\n');
    std::fs::write(path, text)
}

/// Apply `verbosity` parsed from a `-v`/`--verbose` style count.
pub fn verbosity_from_count(count: u8) -> Verbosity {
    match count {
        0 => Verbosity::Silent,
        1 => Verbosity::Progress,
        _ => Verbosity::Debug,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FixedClock, Level};
    use std::sync::Arc;

    fn populated() -> Telemetry {
        let t = Telemetry::with_clock(Arc::new(FixedClock(3)));
        for name in MANDATORY_COUNTERS {
            t.counter(name).inc();
        }
        t.gauge("crawl.bfs.frontier").set(4);
        t.histogram_with("crawl.angellist.wait_ms", &[10, 100]).record(42);
        {
            let _s = t.span("pipeline");
            t.event(Level::Progress, "crawl", "round 1");
        }
        t
    }

    #[test]
    fn report_validates_and_summarizes() {
        let report = populated().report();
        assert_eq!(validate(&report), Ok(()));
        let summary = render_summary(&report);
        assert!(summary.contains("crawl.angellist.attempts"));
        assert!(summary.contains("pipeline"));
        assert!(summary.contains("events: 1 emitted, 0 dropped"));
    }

    #[test]
    fn validate_rejects_missing_counters() {
        let t = Telemetry::new();
        let report = t.report();
        let err = validate(&report).unwrap_err();
        assert!(err.contains("mandatory counter"), "{err}");
    }

    #[test]
    fn validate_rejects_non_reports() {
        assert!(validate(&obj! {"version" => 1}).is_err());
        assert!(validate(&Value::Null).is_err());
        assert!(validate(&obj! {"version" => 99}).is_err());
    }

    #[test]
    fn report_roundtrips_through_parse() {
        let report = populated().report();
        let parsed = Value::parse(&report.to_pretty()).unwrap();
        assert_eq!(validate(&parsed), Ok(()));
        assert_eq!(
            parsed.get("counters").and_then(|c| c.get("store.append.docs")).and_then(Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn write_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("crowdnet-telemetry-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("run.json");
        write(&path, &populated().report()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(validate(&Value::parse(&text).unwrap()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! `perf-report` — the seeded four-workload benchmark of the CrowdNet
//! platform. One process runs one workload:
//!
//! ```text
//! perf-report --workload NAME --seed S --seconds N --trace 0|1 [--out DIR] [--tiny]
//! perf-report --all [--trace 1] [--seed S] [--seconds N]   every workload, one child process each
//! perf-report --aa  [--seed S] [--seconds N]               every workload twice; end-to-end pairs must agree
//! ```
//!
//! `--tiny` is the smoke test's world of seconds, not a measurement;
//! otherwise every workload runs at the one scale it fixes.
//!
//! A workload run prints every metric by name with its unit, the
//! envelope (host, scale, seed, commit, sample counts), and as its last
//! line the result object `BENCHMARK.json` describes. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` repeats the workload with the
//! harness's span recorder on, writes `trace-<workload>.json`, runs the
//! probe stage and reports the per-layer metrics. Exit status is non-zero
//! when a correctness check fails.

mod batch;
mod deploy;
mod http;
mod load;
mod names;
mod probes;
mod report;
mod serving;
mod stats;
mod trace;
mod workload;

use crowdnet_json::Value;
use deploy::{Res, ScaleSpec};
use report::Report;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// One workload run's settings.
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    /// The smoke test's world instead of the workload's own.
    pub tiny: bool,
    /// Where the trace goes (default: the build's target directory).
    pub out: Option<PathBuf>,
}

impl RunCfg {
    /// The workload's world size, or the smoke test's.
    pub fn scale(&self, workload_scale: ScaleSpec) -> ScaleSpec {
        if self.tiny {
            ScaleSpec::TINY
        } else {
            workload_scale
        }
    }

    /// Seconds of unmeasured traffic before the measured phase.
    pub fn warmup_s(&self) -> f64 {
        if self.tiny {
            0.2
        } else {
            1.0
        }
    }
}

/// The envelope fields every workload shares: what was generated, what
/// the crawl found, and who generated the load.
pub fn note_corpus(
    report: &mut Report,
    workload: &str,
    scale: ScaleSpec,
    world: &crowdnet_socialsim::WorldConfig,
    crawled_docs: u64,
    pools: &workload::Pools,
) {
    report.note("workload", workload);
    report.note("scale", scale.label);
    report.note("world_companies", world.scale.companies());
    report.note("world_users", world.scale.users());
    report.note("crawled_docs", crawled_docs);
    report.note("crawled_users", pools.users);
    report.note("crawled_companies", pools.companies);
    report.note("entity_keys", pools.ranked.len());
    report.note("client_threads", deploy::WORKERS);
}

/// Write the run's spans to `<out>/trace-<workload>.json` when tracing.
pub fn write_trace(tracer: &trace::Tracer, cfg: &RunCfg, workload: &str) -> Res<()> {
    if tracer.enabled() {
        let dir = cfg.out.clone().unwrap_or_else(deploy::WorkDir::trace_dir);
        tracer.write_json(&dir.join(format!("trace-{workload}.json")), workload)?;
    }
    Ok(())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf-report --workload {} --seed S --seconds N --trace 0|1 [--out DIR] [--tiny]\n\
         \x20      perf-report --all [--trace 1] [--seed S] [--seconds N] [--tiny]\n\
         \x20      perf-report --aa [--seed S] [--seconds N] [--tiny]",
        names::contract().workloads.join("|")
    );
    ExitCode::from(2)
}

struct Args {
    workload: Option<String>,
    all: bool,
    aa: bool,
    traced: bool,
    seed: u64,
    seconds: f64,
    tiny: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: None,
        all: false,
        aa: false,
        traced: false,
        seed: 42,
        seconds: 15.0,
        tiny: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => args.workload = Some(it.next()?),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = it.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => args.traced = it.next()?.parse::<u8>().ok()? != 0,
            "--all" => args.all = true,
            "--aa" => args.aa = true,
            "--tiny" => args.tiny = true,
            "--out" => args.out = Some(PathBuf::from(it.next()?)),
            _ => return None,
        }
    }
    Some(args)
}

/// Commit of the checkout, read from `.git` in the working directory
/// only; a checkout that is not a repository reads `unknown`.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_workload(name: &str, cfg: &RunCfg) -> Res<Report> {
    match name {
        "batch_pipeline" => batch::run(cfg),
        "serve_mixed" => serving::run(serving::Kind::ServeMixed, cfg),
        "scatter_remote" => serving::run(serving::Kind::ScatterRemote, cfg),
        "live_ingest" => serving::run(serving::Kind::LiveIngest, cfg),
        other => Err(format!("unknown workload {other:?}").into()),
    }
}

/// One workload in this process: report, envelope, result line.
fn single(name: &str, args: &Args) -> ExitCode {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.traced,
        tiny: args.tiny,
        out: args.out.clone(),
    };
    let mut report = match run_workload(name, &cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perf-report: {name}: {e}");
            return ExitCode::from(1);
        }
    };
    report.note("host_cores", host_cores());
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("traced", args.traced);
    report.note("git_rev", git_rev());
    report.note("rustc", rustc_version());
    report.note("operations_attempted", report.attempted);
    report.note("operations_failed", report.failed);
    let contract = names::contract();
    let defs = if args.traced {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    println!(
        "== {name} ({})",
        if args.traced {
            "per-layer, traced"
        } else {
            "end to end"
        }
    );
    print!("{}", report.render(defs));
    // ISSUE 11's name for each slot whose reading this workload fixes.
    if !args.traced {
        for (_, metric, issue_name) in contract.readings.iter().filter(|r| r.0 == name) {
            println!("  {metric} here is ISSUE 11's {issue_name}");
        }
    }
    println!(
        "envelope: {}",
        Value::Obj(report.envelope.clone()).to_compact()
    );
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
    println!("{}", report.result_line(defs));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run one workload in a child process and hand back its result object.
fn child(name: &str, args: &Args, traced: bool) -> Res<Value> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
    cmd.args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if args.tiny {
        cmd.arg("--tiny");
    }
    if let Some(out) = &args.out {
        cmd.arg("--out").arg(out);
    }
    let output = cmd.output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let line = stdout.lines().last().unwrap_or_default();
    let result = Value::parse(line).map_err(|e| format!("{name}: no result line ({e})"))?;
    if !output.status.success() {
        return Err(format!("{name}: exited with {}", output.status).into());
    }
    Ok(result)
}

fn metric(result: &Value, name: &str) -> f64 {
    // Per-layer names hold dots, so no dotted path: step by step.
    result
        .get("metrics")
        .and_then(|metrics| metrics.get(name))
        .and_then(|metric| metric.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// `--all`: the four workloads in sequence, one process each.
fn all(args: &Args) -> ExitCode {
    let mut ok = true;
    for name in &names::contract().workloads {
        let plain = child(name, args, false);
        if let Err(e) = &plain {
            eprintln!("perf-report: {e}");
            ok = false;
        }
        if args.traced {
            match child(name, args, true) {
                Ok(traced) => println!(
                    "{name}: trace_overhead_share {:+.4} (traced vs untraced point-lookup median)",
                    metric(&traced, "harness.trace_overhead_share")
                ),
                Err(e) => {
                    eprintln!("perf-report: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--aa`: every workload twice at the same seed; an end-to-end metric
/// whose second reading is worse than the first by more than its bound
/// (or the other way round) fails the run.
fn aa(args: &Args) -> ExitCode {
    let mut ok = true;
    for name in &names::contract().workloads {
        let (first, second) = match (child(name, args, false), child(name, args, false)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("perf-report: {e}");
                ok = false;
                continue;
            }
        };
        for def in &names::contract().end_to_end {
            let (a, b) = (metric(&first, &def.name), metric(&second, &def.name));
            let spread = (a - b).abs() / a.min(b).max(f64::MIN_POSITIVE);
            let verdict = if spread <= def.bound {
                "ok"
            } else {
                "DISAGREE"
            };
            println!(
                "A/A {name:<16} {:<20} {a:>14.4} {b:>14.4} {:>7.2}% (bound {:.0}%) {verdict}",
                def.name,
                spread * 100.0,
                def.bound * 100.0
            );
            ok &= spread <= def.bound;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    // Load is generated from this process beside the system under test;
    // on one core that measures oversubscription, not the platform.
    if host_cores() < 2 {
        eprintln!("perf-report: refusing to run with host_cores < 2");
        return ExitCode::from(2);
    }
    match (&args.workload, args.all, args.aa) {
        (Some(name), false, false) if names::contract().workloads.contains(name) => {
            single(name, &args)
        }
        (None, true, false) => all(&args),
        (None, false, true) => aa(&args),
        _ => usage(),
    }
}

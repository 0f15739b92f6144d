//! `batch_pipeline`: the analyst's path. One iteration is a four-source
//! durable crawl, the paper suite over the crawled store on the default
//! (JSON scan) path, then drop the store and time reopen + recovery scan +
//! column projection. Iterations fill about two thirds of the run;
//! the last recovered store is then read back through the serving surface
//! for the rest, which is where this workload's point-lookup numbers come
//! from. crawl, json, store, dataflow and graph do nearly all the work.

use crate::deploy::{self, CrawlSummary, Recovered, Res, ScaleSpec, WorkDir, PARTITIONS, WORKERS};
use crate::load::{closed_loop, LoadResult, LoadSpec};
use crate::names::SUITE;
use crate::probes;
use crate::report::Report;
use crate::serving::front_end;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{
    fnv1a, sequence_digest, Class, Mix, Pools, Zipf, AGGREGATE_PANEL, FNV_OFFSET, NS_COMPANIES,
    NS_USERS,
};
use crate::RunCfg;
use crowdnet_core::experiments::{
    communities, dataset_stats, fig3, fig4, fig5, fig6, fig7, investor_graph,
};
use crowdnet_core::pipeline::{DatasetStats, PipelineConfig, PipelineOutcome};
use crowdnet_crawl::CrawlConfig;
use crowdnet_dataflow::ExecCtx;
use crowdnet_serve::{Request, Service, ServiceConfig};
use crowdnet_socialsim::{World, WorldConfig};
use crowdnet_store::{SnapshotId, Store};
use crowdnet_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Instant;

pub const DEFAULT_SCALE: ScaleSpec = ScaleSpec::fraction("1/32", 32);
/// Seed the committed suite digests were taken at (one line per scale).
const GOLDEN_SEED: u64 = 42;
const GOLDEN: &str = include_str!("../../golden/suite_digest.txt");
/// World generations per run; the median is `setup_s`.
const GENERATIONS: usize = 5;
/// Share of the run spent on pipeline iterations; the rest is read-back.
const PIPELINE_SHARE: f64 = 0.65;
/// One iteration at the default scale on the 2-core reference host
/// (crawl ≈ 0.9 s, suite ≈ 1.4 s, recover ≈ 0.5 s, checks ≈ 0.4 s).
const REFERENCE_ITERATION_S: f64 = 3.2;
/// Reconnect rounds of the read-back phase.
const READ_BACK_ROUNDS: usize = 5;
/// The suite members whose wall time makes the end-to-end number. fig7 is
/// run, checked and reported per layer, but its force layout costs the
/// square of whichever community the seed makes strongest — an input
/// property that swings ±40 % between seeds and would drown the rest.
const GATED: usize = 7;

/// Wall seconds per suite member, in `SUITE` order, and a digest of what
/// the suite computed.
pub struct SuiteRun {
    pub secs: [f64; 8],
    pub digest: u64,
}

impl SuiteRun {
    pub fn gated_s(&self) -> f64 {
        self.secs[..GATED].iter().sum()
    }
}

/// A pipeline outcome over an already crawled store, for the experiment
/// drivers: analysis threads = 2, default scan path (no columns attached).
pub fn outcome_over(
    world: &Arc<World>,
    world_cfg: &WorldConfig,
    store: Store,
    crawl: &CrawlSummary,
) -> PipelineOutcome {
    let stats = crawl.stats.clone();
    let telemetry = Telemetry::new();
    PipelineOutcome {
        world: Arc::clone(world),
        dataset: DatasetStats {
            companies: stats.bfs.companies,
            users: stats.bfs.users,
            crunchbase: stats.augment.resolved(),
            facebook: stats.facebook.facebook_pages,
            twitter: stats.twitter.twitter_profiles,
        },
        store,
        crawl: stats,
        ctx: ExecCtx::new(WORKERS),
        config: PipelineConfig {
            world: world_cfg.clone(),
            crawl: CrawlConfig::default(),
            threads: WORKERS,
            partitions: PARTITIONS,
            telemetry: telemetry.clone(),
        },
        telemetry,
        columns: None,
    }
}

/// `dataset-stats fig3 fig6 investor-graph communities fig4 fig5 fig7`
/// through `core::experiments`, each a stage.
pub fn run_suite(outcome: &PipelineOutcome, tracer: &Tracer) -> Res<SuiteRun> {
    let mut secs = [0.0; 8];
    let mut digest = FNV_OFFSET;
    macro_rules! member {
        ($index:expr, $name:expr, $run:expr) => {{
            let (result, s) = tracer.stage($name, || $run);
            secs[$index] = s;
            fnv1a(&mut digest, format!("{:?}", result?).as_bytes());
        }};
    }
    member!(0, "core.dataset_stats", dataset_stats::run(outcome));
    member!(1, "core.fig3", fig3::run(outcome));
    member!(2, "core.fig6", fig6::run(outcome));
    member!(
        3,
        "core.investor_graph",
        investor_graph::run(outcome).map(|(summary, _)| summary)
    );
    member!(
        4,
        "core.communities",
        communities::run(outcome).map(|(summary, ..)| summary)
    );
    member!(5, "core.fig4", fig4::run(outcome));
    member!(6, "core.fig5", fig5::run(outcome));
    member!(7, "core.fig7", fig7::run(outcome));
    Ok(SuiteRun { secs, digest })
}

/// What one pipeline iteration measured.
struct Iteration {
    crawl: CrawlSummary,
    suite: SuiteRun,
    recover_s: f64,
}

/// Crawl → analyse → drop → recover, with the correctness checks that
/// ride on it. The byte-level ones (content hash across the restart,
/// columns ≡ JSON scan) run on the first iteration only: they rescan the
/// whole store and would otherwise take a third of the run.
fn iterate(
    world: &Arc<World>,
    world_cfg: &WorldConfig,
    work: &WorkDir,
    tracer: &Tracer,
    deep_checks: bool,
    report: &mut Report,
) -> Res<(Iteration, Recovered)> {
    let dir = work.fresh("batch");
    let (store, crawl) = deploy::crawl_durable(world, &dir, tracer)?;
    let stored = |ns: &str| store.doc_count(ns).unwrap_or(0);
    let counts_match = stored(NS_COMPANIES) == crawl.stats.bfs.companies
        && stored(NS_USERS) == crawl.stats.bfs.users
        && stored(crowdnet_crawl::augment::NS_CRUNCHBASE) == crawl.stats.augment.resolved()
        && stored(crowdnet_crawl::social::NS_FACEBOOK) == crawl.stats.facebook.stored_total()
        && stored(crowdnet_crawl::social::NS_TWITTER) == crawl.stats.twitter.stored_total();
    report.check(counts_match, || {
        "stored document counts differ from CrawlStats".into()
    });
    let hash_before = if deep_checks {
        Some(deploy::content_hash(&store)?)
    } else {
        None
    };

    let outcome = outcome_over(world, world_cfg, store, &crawl);
    let suite = run_suite(&outcome, tracer)?;
    drop(outcome);

    let recovered = deploy::recover(&dir, tracer)?;
    if let Some(before) = hash_before {
        let after = deploy::content_hash(&recovered.store)?;
        report.check(before == after, || {
            format!("recovered store hash {after:016x} differs from pre-close {before:016x}")
        });
        let from_columns = recovered
            .columns
            .catalog()
            .docs_sorted(NS_USERS, SnapshotId(0))?;
        let from_json = recovered
            .store
            .scan_snapshot_sorted(NS_USERS, SnapshotId(0))?;
        report.check(from_columns == from_json, || {
            "column docs_sorted differs from the JSON scan".into()
        });
    }
    Ok((
        Iteration {
            crawl,
            suite,
            recover_s: recovered.recover_s(),
        },
        recovered,
    ))
}

/// How many pipeline iterations `seconds` of run hold: `PIPELINE_SHARE`
/// of the time at `REFERENCE_ITERATION_S` apiece. A count, not a
/// deadline, so two runs of one commit measure the same work; on the
/// reference host it fills the share.
fn iteration_count(seconds: f64) -> usize {
    ((seconds * PIPELINE_SHARE / REFERENCE_ITERATION_S).floor() as usize).max(1)
}

/// The pipeline iterations of one phase. Earlier iterations keep their
/// numbers only; the newest one's recovered store comes back for the
/// read-back.
fn pipeline_phase(
    world: &Arc<World>,
    world_cfg: &WorldConfig,
    work: &WorkDir,
    tracer: &Tracer,
    seconds: f64,
    report: &mut Report,
) -> Res<(Vec<Iteration>, Recovered)> {
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut newest: Option<Recovered> = None;
    for index in 0..iteration_count(seconds) {
        if let Some(previous) = newest.take() {
            let _ = std::fs::remove_dir_all(&previous.dir);
        }
        let (done, _) = tracer.stage("pipeline.iteration", || {
            iterate(world, world_cfg, work, tracer, index == 0, report)
        });
        let (iteration, recovered) = done?;
        eprintln!(
            "  iteration {}: crawl {:.3} s ({} docs), suite {:.3} s (+ fig7 {:.3} s), recover {:.3} s",
            index + 1,
            iteration.crawl.crawl_s,
            iteration.crawl.docs,
            iteration.suite.gated_s(),
            iteration.suite.secs[GATED],
            iteration.recover_s,
        );
        iterations.push(iteration);
        newest = Some(recovered);
    }
    Ok((iterations, newest.ok_or("no pipeline iteration ran")?))
}

/// Read the recovered store back through the serving surface: a
/// `Service` with the column projection installed, behind `Server` +
/// `bind`, two closed-loop clients on the serve_mixed mix after a short
/// warm-up. (Lookups alone would leave both cores asleep between
/// requests, and the median would land on either side of the CPU's
/// wake-up latency — ≈ 11 µs or ≈ 45 µs — from one run to the next; the
/// scans in the mix keep a core awake.)
#[allow(clippy::too_many_arguments)]
fn read_back(
    recovered: &Recovered,
    pools: &Pools,
    zipf: &Zipf,
    seed: u64,
    (warmup_s, seconds): (f64, f64),
    first_client: usize,
    tracer: &Tracer,
    report: &mut Report,
) -> Res<(LoadResult, Telemetry)> {
    let telemetry = deploy::wall_telemetry();
    let service = Arc::new(Service::new(
        Arc::clone(&recovered.store),
        ServiceConfig::default(),
        telemetry.clone(),
    ));
    service.install_columns(recovered.columns.catalog());
    tracer
        .stage("serve.artifacts_from_columns", || service.artifacts())
        .0?;
    let (_front, handle) = front_end(Arc::clone(&service) as _, &telemetry)?;
    let spec = LoadSpec {
        addr: handle.addr(),
        pools,
        zipf,
        mix: Mix::SERVE_MIXED,
        aggregates: &AGGREGATE_PANEL,
        seed,
        clients: WORKERS,
        first_client,
    };
    closed_loop(
        &LoadSpec {
            first_client: first_client + 64,
            ..spec
        },
        warmup_s,
        None,
    );
    let (load, _) = tracer.stage("phase.read_back", || {
        let sink = tracer.sink();
        // Short rounds, as the serving workloads run them: each reconnect
        // re-rolls where the scheduler puts the threads.
        let started = Instant::now();
        let mut load = LoadResult::default();
        for round in 0..READ_BACK_ROUNDS {
            let spec = LoadSpec {
                first_client: first_client + 2 * round,
                ..spec
            };
            load.absorb(closed_loop(
                &spec,
                seconds / READ_BACK_ROUNDS as f64,
                sink,
            ));
        }
        load.wall_s = started.elapsed().as_secs_f64();
        load
    });
    report.count_ops(load.attempted, load.failed, &load.failures);
    for (target, body) in &load.sampled {
        let want = service.handle(&Request::get(target));
        report.check(want.status == 200 && want.body == *body, || {
            format!("GET {target}: wire response differs from Service::handle")
        });
    }
    handle.shutdown();
    Ok((load, telemetry))
}

fn golden_digest(scale: ScaleSpec) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (seed, label, digest) = (fields.next()?, fields.next()?, fields.next()?);
        (seed.parse() == Ok(GOLDEN_SEED) && label == scale.label)
            .then(|| u64::from_str_radix(digest, 16).ok())
            .flatten()
    })
}

pub fn run(cfg: &RunCfg) -> Res<Report> {
    let work = WorkDir::create()?;
    let tracer = Tracer::new(cfg.trace);
    let untraced = Tracer::new(false);
    let scale = cfg.scale(DEFAULT_SCALE);
    let mut report = Report::default();

    let mut generate_s = Vec::new();
    let mut generated = None;
    for _ in 0..GENERATIONS {
        let (world, secs) = tracer.stage("socialsim.generate", || {
            deploy::generate_world(cfg.seed, scale)
        });
        generate_s.push(secs);
        generated = Some(world);
    }
    let (world_cfg, world) = generated.ok_or("no world generated")?;

    // With tracing on, half the run goes untraced first: the pair is the
    // tracing overhead, and end-to-end numbers never come from a traced
    // run.
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (iterations, recovered) =
        pipeline_phase(&world, &world_cfg, &work, &untraced, seconds, &mut report)?;
    // The batch job's peak memory, read before the read-back: what the
    // serving surface holds is serve_mixed's to report, and two scans
    // overlapping there (which the seed's deck order decides) would add a
    // quarter to this number on some seeds and not on others.
    let pipeline_rss_mb = deploy::peak_rss_mb();
    let last = iterations.last().ok_or("no pipeline iteration ran")?;
    let pools = Pools::from_store(&recovered.store, cfg.seed)?;
    let zipf = Zipf::new(pools.ranked.len(), 1.0);
    let read_s = (seconds * (1.0 - PIPELINE_SHARE)).max(cfg.warmup_s());
    let (load, _) = read_back(
        &recovered,
        &pools,
        &zipf,
        cfg.seed,
        (cfg.warmup_s(), read_s),
        0,
        &untraced,
        &mut report,
    )?;

    if let Some(golden) = golden_digest(scale).filter(|_| cfg.seed == GOLDEN_SEED) {
        report.check(golden == last.suite.digest, || {
            format!(
                "suite digest {:016x} differs from golden {golden:016x}",
                last.suite.digest
            )
        });
    }

    let median_of = |f: &dyn Fn(&Iteration) -> f64| {
        stats::median(&iterations.iter().map(f).collect::<Vec<_>>())
    };
    let point = load.sorted(Class::Point, 1e3);
    if cfg.trace {
        let (traced_iterations, traced_recovered) =
            pipeline_phase(&world, &world_cfg, &work, &tracer, seconds, &mut report)?;
        let traced_last = traced_iterations.last().ok_or("no traced iteration ran")?;
        let (traced_load, serve_telemetry) = read_back(
            &traced_recovered,
            &pools,
            &zipf,
            cfg.seed,
            (cfg.warmup_s(), read_s),
            128,
            &tracer,
            &mut report,
        )?;
        let p50 = |l: &LoadResult| stats::percentile(&l.sorted(Class::Point, 1e3), 50.0);
        report.set(
            "harness.trace_overhead_share",
            p50(&traced_load) / p50(&load).max(f64::MIN_POSITIVE) - 1.0,
        );
        let suite_ms: Vec<f64> = {
            let mut v: Vec<f64> = iterations.iter().map(|i| i.suite.gated_s() * 1e3).collect();
            stats::sort(&mut v);
            v
        };
        report.set("phase.heavy_tail_ms", stats::tail(&suite_ms).1);
        report.set("phase.point_p99_us", stats::percentile(&point, 99.0));
        report.set(
            "phase.aggregate_p50_us",
            stats::percentile(&load.sorted(Class::Aggregate, 1e3), 50.0),
        );
        report.set(
            "phase.error_share",
            load.failed as f64 / (load.attempted as f64).max(1.0),
        );
        report.set("phase.reconnects", load.reconnects as f64);
        let corpus = deploy::load_into_memory(&traced_recovered.store)?;
        let input = probes::Input {
            world_cfg: &world_cfg,
            generate_s: stats::median(&generate_s),
            crawl: &traced_last.crawl,
            recovered: &traced_recovered,
            corpus: &corpus,
            pools: &pools,
            seed: cfg.seed,
            seconds: cfg.seconds,
            work: &work,
        };
        probes::run(&input, &tracer, &mut report)?;
        // The read-back's own serving counters (warm-up included); the
        // shard tier is bypassed and stays 0.
        let count = |name: &str| serve_telemetry.counter(name).value() as f64;
        let lookups = count("serve.cache.hit") + count("serve.cache.miss");
        report.set(
            "serve.cache_hit_ratio",
            count("serve.cache.hit") / lookups.max(1.0),
        );
        report.set("serve.cache_evictions", count("serve.cache.evict"));
        report.set("serve.shed", count("serve.shed"));
        report.set(
            "serve.queue_depth_max",
            serve_telemetry.gauge("serve.queue_depth").value() as f64,
        );
    } else {
        report.set("setup_s", stats::median(&generate_s));
        report.set("throughput_per_s", median_of(&|i| i.crawl.docs_per_s()));
        report.set("heavy_p50_ms", median_of(&|i| i.suite.gated_s() * 1e3));
        report.set("recover_s", median_of(&|i| i.recover_s));
        report.set(
            "disk_bytes_per_doc",
            recovered.disk_bytes() as f64 / last.crawl.docs as f64,
        );
        report.set("point_p50_us", stats::percentile(&point, 50.0));
        report.set("point_p95_us", stats::percentile(&point, 95.0));
    }
    report.count_ops(iterations.iter().map(|i| i.crawl.docs).sum(), 0, &[]);

    crate::note_corpus(
        &mut report,
        "batch_pipeline",
        scale,
        &world_cfg,
        last.crawl.docs,
        &pools,
    );
    report.note("analysis_threads", WORKERS);
    report.note(
        "target_digest",
        format!(
            "{:016x}",
            sequence_digest(
                &pools,
                &zipf,
                Mix::SERVE_MIXED,
                &AGGREGATE_PANEL,
                cfg.seed,
                WORKERS,
                4096
            )
        ),
    );
    report.note("suite_digest", format!("{:016x}", last.suite.digest));
    report.note("suite_members", SUITE.join(" "));
    let mut samples = crowdnet_json::Object::new();
    samples.insert("world_generations", GENERATIONS);
    samples.insert("pipeline_iterations", iterations.len());
    samples.insert(Class::Point.name(), point.len());
    report.note("samples", crowdnet_json::Value::Obj(samples));

    if !cfg.trace {
        report.set("peak_rss_mb", pipeline_rss_mb);
    }
    crate::write_trace(&tracer, cfg, "batch_pipeline")?;
    Ok(report)
}

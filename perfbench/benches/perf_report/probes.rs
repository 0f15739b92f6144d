//! The probe stage of a traced run: each layer's public functions called
//! directly on the workload's own corpus, timed from outside, one stage
//! span per probe. It is the same code for every workload, so every
//! per-layer timing exists on every workload; what differs is the corpus
//! the workload deployed. Counts that only a deployment can produce (cache
//! hits, fan-outs, retries) are filled in by the workload itself.
//!
//! `README.md` maps each probe to the end-to-end metric it should move.

use crate::batch::{outcome_over, run_suite};
use crate::deploy::{self, CrawlSummary, Recovered, Res, WorkDir, PARTITIONS, WORKERS};
use crate::http::HttpClient;
use crate::load::{open_loop, LoadResult, LoadSpec};
use crate::names::{LEGS, SUITE};
use crate::report::Report;
use crate::serving::{front_end, remote_tier};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{
    sql_target, Class, Mix, Pools, Zipf, AGGREGATE_PANEL, NS_COMPANIES, NS_USERS,
};
use crowdnet_chaos::{RealTcp, Transport};
use crowdnet_column::{ColumnConfig, ColumnRun, ColumnSet};
use crowdnet_core::features;
use crowdnet_dataflow::dataset::scan_store;
use crowdnet_dataflow::{sql, ExecCtx};
use crowdnet_graph::metrics;
use crowdnet_graph::pagerank::{pagerank, PageRankConfig};
use crowdnet_graph::projection::Projection;
use crowdnet_graph::{BipartiteGraph, Coda, CodaConfig};
use crowdnet_ingest::{IngestConfig, IngestEngine};
use crowdnet_json::Value;
use crowdnet_serve::cache::{CacheConfig, ResultCache};
use crowdnet_serve::{Artifacts, ArtifactsConfig, Request, RequestParser, Service, ServiceConfig};
use crowdnet_shard::{LocalShard, Partitioner, Router, RouterConfig, ShardBackend, ShardSet};
use crowdnet_shardnet::wire;
use crowdnet_socialsim::WorldConfig;
use crowdnet_store::{Document, FeedPoll, RealFs, SnapshotId, Store, Vfs};
use crowdnet_telemetry::Telemetry;
use crowdnet_viz::layout::{layout, LayoutConfig};
use crowdnet_viz::{NodeKind, VizGraph};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the probes run on.
pub struct Input<'a> {
    pub world_cfg: &'a WorldConfig,
    pub generate_s: f64,
    pub crawl: &'a CrawlSummary,
    /// The recovered durable store and its column projection.
    pub recovered: &'a Recovered,
    /// The same corpus in a memory store. Probes only read it.
    pub corpus: &'a Arc<Store>,
    pub pools: &'a Pools,
    pub seed: u64,
    pub seconds: f64,
    pub work: &'a WorkDir,
}

/// Open-loop ladder and class limits: point and aggregate answers within
/// 10 ms, SQL within 1 s, both from the due time. The three rates are
/// frozen in `baseline.json` (`open_loop_ladder_rps`): fixed at authoring
/// time near 25 / 50 / 75 % of the probe deployment's closed-loop
/// throughput at 1/32 scale on the 2-core reference host, part of the
/// benchmark, not tuned per run.
const LADDER_NAMES: [&str; 3] = [
    "serve.open_loop.p99_us_low",
    "serve.open_loop.p99_us_mid",
    "serve.open_loop.p99_us_high",
];
const FAST_LIMIT_NS: u64 = 10_000_000;
const SQL_LIMIT_NS: u64 = 1_000_000_000;
const SLO_SHARE: f64 = 0.99;

/// Documents per namespace in the reduced corpus the shard and wire
/// probes import (a wire import is one round trip per document).
const SHARD_PROBE_DOCS: usize = 4096;

/// Median wall time of `reps` calls of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    stats::sort(&mut samples);
    stats::percentile(&samples, 50.0)
}

fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds.max(1e-12)
}

fn crawl_and_world(input: &Input<'_>, report: &mut Report) {
    let entities = f64::from(input.world_cfg.scale.companies() + input.world_cfg.scale.users());
    report.set("socialsim.generate_s", input.generate_s);
    report.set("socialsim.entities_per_s", entities / input.generate_s);

    let crawl = input.crawl;
    let sum = |suffix: &str| -> f64 {
        ["angellist", "crunchbase", "facebook", "twitter"]
            .iter()
            .map(|source| {
                crawl
                    .telemetry
                    .counter(&format!("crawl.{source}.{suffix}"))
                    .value() as f64
            })
            .sum()
    };
    let attempts = sum("attempts");
    let rate_limited = sum("retry_ratelimit");
    report.set("crawl.run_s", crawl.crawl_s);
    report.set("crawl.docs_per_s", crawl.docs_per_s());
    report.set("crawl.attempts", attempts);
    report.set("crawl.retries", sum("retry_transient") + rate_limited);
    report.set("crawl.rate_limited", rate_limited);
    report.set(
        "crawl.virtual_wait_ms",
        crawl.stats.virtual_elapsed_ms as f64,
    );
    report.set("crawl.useful_ratio", crawl.docs as f64 / attempts.max(1.0));
    report.set("store.vfs_syncs", crawl.vfs_syncs as f64);
    report.set("store.vfs_bytes_written", crawl.vfs_bytes_written as f64);
    report.set(
        "store.write_amplification",
        crawl.vfs_bytes_written as f64 / (crawl.user_bytes as f64).max(1.0),
    );
}

/// json, store and column: codec throughput over one namespace's bodies,
/// durable and in-memory `put`, scans, and the projection's size.
fn storage(input: &Input<'_>, users: &[Document], tracer: &Tracer, report: &mut Report) -> Res<()> {
    let lines: Vec<String> = users.iter().map(Document::encode).collect();
    let bytes: usize = lines.iter().map(String::len).sum();
    let (_, serialize_s) = tracer.stage("probe.json.serialize", || {
        users
            .iter()
            .map(|d| d.body.to_compact().len())
            .sum::<usize>()
    });
    let (parsed, parse_s) = tracer.stage("probe.json.parse", || {
        lines
            .iter()
            .filter(|line| Value::parse(line).is_ok())
            .count()
    });
    report.check(parsed == lines.len(), || {
        "a stored line did not re-parse".into()
    });
    report.set(
        "json.serialize_mb_per_s",
        mb_per_s(
            users.iter().map(|d| d.body.to_compact().len()).sum(),
            serialize_s,
        ),
    );
    report.set("json.parse_mb_per_s", mb_per_s(bytes, parse_s));

    let sample = &users[..users.len().min(2_000)];
    let dir = input.work.fresh("probe-store");
    let durable = Store::open_with_vfs(&dir, PARTITIONS, Arc::new(RealFs) as Arc<dyn Vfs>)?;
    let (durable_ns, _) = tracer.stage("probe.store.put_durable", || {
        median_ns(sample.len(), |i| {
            drop(durable.put(NS_USERS, sample[i].clone()))
        })
    });
    drop(durable);
    let memory = Store::memory(PARTITIONS);
    let (memory_ns, _) = tracer.stage("probe.store.put_mem", || {
        median_ns(users.len(), |i| {
            drop(memory.put(NS_USERS, users[i].clone()))
        })
    });
    report.set("store.put_durable_us", durable_ns / 1e3);
    report.set("store.put_mem_us", memory_ns / 1e3);

    let recovered = input.recovered;
    let (scanned, scan_s) = tracer.stage("probe.store.scan_sorted", || {
        recovered
            .store
            .scan_snapshot_sorted(NS_USERS, SnapshotId(0))
    });
    report.set("store.scan_docs_per_s", scanned?.len() as f64 / scan_s);
    report.set("store.recover_s", recovered.reopen_s);
    report.set("store.recovery_quarantined", recovered.quarantined as f64);

    let catalog = recovered.columns.catalog();
    let (loaded, load_s) = tracer.stage("probe.column.load", || {
        crowdnet_column::load(&recovered.store, ColumnConfig::default(), None)
    });
    loaded?;
    let (docs, scan_s) = tracer.stage("probe.column.scan", || {
        catalog.docs_partitioned(NS_USERS, SnapshotId(0))
    });
    let (edges, edges_s) = tracer.stage("probe.column.edges", || {
        catalog.edges(NS_USERS, SnapshotId(0))
    });
    let edges = edges?.len();
    report.set("column.build_s", recovered.columns_s);
    report.set("column.load_s", load_s);
    report.set(
        "column.scan_docs_per_s",
        docs?.iter().map(Vec::len).sum::<usize>() as f64 / scan_s,
    );
    report.set("column.edges_per_s", edges as f64 / edges_s);
    let docs_on_disk = input.crawl.docs as f64;
    report.set(
        "column.bytes_per_doc",
        recovered.column_bytes as f64 / docs_on_disk,
    );
    report.set(
        "store.bytes_per_doc",
        recovered.log_bytes as f64 / docs_on_disk,
    );
    // The sealed edge segments are what a run with edges holds beyond the
    // same run without: bytes per edge, the SNAP yardstick. Edges are
    // counted over the same documents the two runs are built from (under
    // a writer the corpus has moved on from the recovered catalog).
    let mut sorted = users.to_vec();
    sorted.sort_by(|a, b| a.key.cmp(&b.key));
    let run_edges: usize = sorted
        .iter()
        .filter(|d| d.body.get("role").and_then(Value::as_str) == Some("investor"))
        .filter_map(|d| d.body.get("investments").and_then(Value::as_arr))
        .map(|investments| investments.len())
        .sum();
    let with_edges = ColumnRun::from_docs(&sorted, true).encoded_len();
    let without = ColumnRun::from_docs(&sorted, false).encoded_len();
    report.set(
        "column.bytes_per_edge",
        (with_edges - without) as f64 / (run_edges as f64).max(1.0),
    );

    // One epoch of appends through the changefeed, then the seal.
    let live = Store::memory(PARTITIONS);
    let feed = live.subscribe(1 << 16);
    let mut set = ColumnSet::new(PARTITIONS, ColumnConfig::default());
    let mut seal_ms = Vec::new();
    for epoch in users.chunks(64).take(16) {
        for doc in epoch {
            live.put(NS_USERS, doc.clone())?;
        }
        while let FeedPoll::Event(event) = feed.poll() {
            set.apply_event(&event);
        }
        let (_, secs) = tracer.stage("probe.column.seal", || set.seal());
        seal_ms.push(secs * 1e3);
    }
    report.set("column.epoch_seal_ms", stats::median(&seal_ms));
    Ok(())
}

/// dataflow, graph, viz and the eight suite members.
fn analysis(input: &Input<'_>, tracer: &Tracer, report: &mut Report) -> Res<()> {
    let ctx = ExecCtx::new(WORKERS);
    let query = |text: &'static str| -> Res<f64> {
        let mut ms = Vec::new();
        for _ in 0..5 {
            let (table, secs) = tracer.stage("probe.dataflow.sql", || {
                scan_store(input.corpus, NS_USERS, SnapshotId(0), ctx)
                    .map_err(|e| e.to_string())
                    .and_then(|docs| {
                        sql::query(text, docs.map(|d| d.body)).map_err(|e| e.to_string())
                    })
            });
            table?;
            ms.push(secs * 1e3);
        }
        Ok(stats::median(&ms))
    };
    report.set(
        "dataflow.sql_count_ms",
        query("SELECT COUNT(*) AS n FROM docs WHERE follow_count > 5")?,
    );
    report.set(
        "dataflow.sql_group_ms",
        query("SELECT role, COUNT(*) AS n, AVG(follow_count) AS f FROM docs GROUP BY role")?,
    );

    // A second handle on the durable store, owned by the outcome the
    // experiment drivers take.
    let store = Store::open_with_vfs(
        &input.recovered.dir,
        PARTITIONS,
        Arc::new(RealFs) as Arc<dyn Vfs>,
    )?;
    let (_, world) = deploy::generate_world(
        input.seed,
        deploy::ScaleSpec {
            label: "probe",
            scale: input.world_cfg.scale,
        },
    );
    let outcome = outcome_over(&world, input.world_cfg, store, input.crawl);
    let (records, features_s) = tracer.stage("probe.dataflow.features", || {
        features::company_records(&outcome)
            .and_then(|c| features::investor_records(&outcome).map(|i| (c.len(), i)))
    });
    let (_, investors) = records?;
    report.set("dataflow.features_s", features_s);

    let edges: Vec<(u32, u32)> = investors
        .iter()
        .flat_map(|inv| inv.investments.iter().map(move |&c| (inv.id, c)))
        .collect();
    let (graph, build_s) = tracer.stage("probe.graph.build", || {
        BipartiteGraph::from_edges(edges.clone())
    });
    report.set("graph.build_s", build_s);
    report.set("graph.edges", graph.edge_count() as f64);
    report.set("graph.edges_per_s", graph.edge_count() as f64 / build_s);
    let (_, pair_s) = tracer.stage("probe.dataflow.pair_sample", || {
        metrics::sampled_shared_sizes(&graph, 20_000, input.seed)
    });
    report.set("dataflow.pair_sample_s", pair_s);

    let filtered = graph.filter_min_investments(ArtifactsConfig::default().min_investments);
    let telemetry = Telemetry::new();
    let coda_cfg = CodaConfig {
        communities: ((filtered.investor_count() as f64).sqrt().ceil() as usize).max(2),
        iterations: ArtifactsConfig::default().iterations,
        telemetry: telemetry.clone(),
        ..CodaConfig::default()
    };
    let (model, fit_s) = tracer.stage("probe.graph.coda_fit", || Coda::fit(&filtered, &coda_cfg));
    report.set("graph.coda_fit_s", fit_s);
    report.set(
        "graph.coda_iterations",
        telemetry.counter("coda.iterations").value() as f64,
    );
    let (_, pagerank_s) = tracer.stage("probe.graph.pagerank", || {
        pagerank(
            &Projection::from_bipartite(&graph, ArtifactsConfig::default().max_company_degree),
            &PageRankConfig::default(),
        )
    });
    report.set("graph.pagerank_s", pagerank_s);
    let cover = model.investor_communities(&filtered, &coda_cfg);
    let (_, strength_s) = tracer.stage("probe.graph.strength", || {
        for community in &cover {
            std::hint::black_box((
                metrics::avg_shared_investment(&filtered, community),
                metrics::pct_companies_with_shared_investors(&filtered, community, 2),
            ));
        }
    });
    report.set("graph.strength_s", strength_s);

    // The layout fig7 runs: the largest community's bipartite subgraph,
    // capped at sixty investors as the figure is.
    let mut viz = VizGraph::new();
    if let Some(community) = cover.iter().max_by_key(|c| c.members.len()) {
        let mut company_nodes = std::collections::HashMap::new();
        for &member in community.members.iter().take(60) {
            let investor = viz.add_node(NodeKind::Investor, format!("investor-{member}"));
            for &c in filtered.companies_of(member) {
                let company = *company_nodes
                    .entry(c)
                    .or_insert_with(|| viz.add_node(NodeKind::Company, format!("company-{c}")));
                viz.add_edge(investor, company);
            }
        }
    }
    let (_, layout_s) = tracer.stage("probe.viz.layout", || {
        layout(
            &viz,
            &LayoutConfig {
                iterations: 120,
                ..LayoutConfig::default()
            },
        )
    });
    report.set("viz.layout_s", layout_s);

    let suite = run_suite(&outcome, tracer)?;
    for (member, secs) in SUITE.into_iter().zip(suite.secs) {
        report.set(&format!("core.experiment.{member}_s"), secs);
    }
    Ok(())
}

/// Whether `load` met the open-loop limits: the share of requests sent
/// that succeeded inside their class limit (only a success leaves a
/// latency sample, so failures miss).
fn slo_met(load: &LoadResult) -> bool {
    let within: usize = Class::ALL
        .iter()
        .map(|class| {
            let limit = match class {
                Class::Point | Class::Aggregate => FAST_LIMIT_NS,
                Class::SqlPanel | Class::SqlAdhoc => SQL_LIMIT_NS,
            };
            load.latency_ns[class.index()]
                .iter()
                .filter(|&&ns| ns <= limit)
                .count()
        })
        .sum();
    within as f64 / (load.attempted as f64).max(1.0) >= SLO_SHARE
}

/// serve and chaos: codec, cache, handler, pool, loopback and dial costs
/// on an unsharded service over the corpus, then the open-loop ladder
/// against it.
fn serve(input: &Input<'_>, tracer: &Tracer, report: &mut Report) -> Res<()> {
    let telemetry = deploy::wall_telemetry();
    let (built, build_s) = tracer.stage("probe.serve.artifacts_build", || {
        Artifacts::build(
            input.corpus,
            ExecCtx::new(WORKERS),
            &telemetry,
            &ArtifactsConfig::default(),
        )
    });
    built?;
    let catalog = input.recovered.columns.catalog();
    let (from_columns, columns_s) = tracer.stage("probe.serve.artifacts_from_columns", || {
        Artifacts::from_columns(&catalog, &telemetry, &ArtifactsConfig::default())
    });
    from_columns?;
    report.set("serve.artifacts_build_s", build_s);
    report.set("serve.artifacts_from_columns_s", columns_s);

    let service = Arc::new(Service::new(
        Arc::clone(input.corpus),
        ServiceConfig::default(),
        telemetry.clone(),
    ));
    service.artifacts()?;
    let (front, handle) = front_end(Arc::clone(&service) as _, &telemetry)?;

    // Distinct targets (a nonce each) so every call runs the handler, not
    // the cache; the same targets through each successive wrapper.
    let reps = 2_000.min(input.pools.ranked.len());
    let targets = |tag: &str| -> Vec<String> {
        input.pools.ranked[..reps]
            .iter()
            .enumerate()
            .map(|(i, e)| {
                format!(
                    "/entity/{}/{}?probe={tag}{i}",
                    if e.is_user { "user" } else { "company" },
                    e.id
                )
            })
            .collect()
    };
    let (direct, via_pool, via_http) = (targets("h"), targets("p"), targets("w"));
    let (handle_ns, _) = tracer.stage("probe.serve.handle_point", || {
        median_ns(reps, |i| drop(service.handle(&Request::get(&direct[i]))))
    });
    let (call_ns, _) = tracer.stage("probe.serve.server_call", || {
        median_ns(reps, |i| drop(front.call(Request::get(&via_pool[i]))))
    });
    let mut client = HttpClient::new(handle.addr());
    let (http_ns, _) = tracer.stage("probe.serve.loopback", || {
        median_ns(reps, |i| drop(client.get(&via_http[i]).map(|(s, _)| s)))
    });
    drop(client);
    report.set("serve.handle_point_us", handle_ns / 1e3);
    report.set("serve.pool_overhead_us", (call_ns - handle_ns) / 1e3);
    report.set("serve.loopback_overhead_us", (http_ns - call_ns) / 1e3);
    let scan = |i: usize| {
        sql_target(
            NS_USERS,
            &format!(
                "SELECT COUNT(*) AS n FROM docs WHERE follow_count > {}",
                1_000_000 + i
            ),
        )
    };
    let (scan_ns, _) = tracer.stage("probe.serve.handle_scan", || {
        median_ns(5, |i| drop(service.handle(&Request::get(&scan(i)))))
    });
    report.set("serve.handle_scan_ms", scan_ns / 1e6);

    // Codec on recorded bytes: one request as the client writes it, one
    // response as the service rendered it.
    let wire_request = format!(
        "GET {} HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n\r\n",
        direct[0]
    );
    let recorded = service.handle(&Request::get(&direct[0]));
    let (parse_ns, _) = tracer.stage("probe.serve.http_parse", || {
        median_ns(5_000, |_| {
            let mut parser = RequestParser::new();
            parser.feed(wire_request.as_bytes());
            drop(std::hint::black_box(parser.poll()));
        })
    });
    let (encode_ns, _) = tracer.stage("probe.serve.http_encode", || {
        median_ns(5_000, |_| {
            drop(std::hint::black_box(recorded.encode_with(true)))
        })
    });
    report.set("serve.http_parse_us", parse_ns / 1e3);
    report.set("serve.http_encode_us", encode_ns / 1e3);

    let cache = ResultCache::new(&CacheConfig::default(), &Telemetry::new());
    let (put_ns, _) = tracer.stage("probe.serve.cache_put", || {
        median_ns(reps, |i| cache.put(&direct[i], 1, recorded.clone()))
    });
    let (hit_ns, _) = tracer.stage("probe.serve.cache_get", || {
        median_ns(reps, |i| {
            drop(std::hint::black_box(cache.get(&direct[i], 1)))
        })
    });
    report.set("serve.cache_put_us", put_ns / 1e3);
    report.set("serve.cache_get_hit_ns", hit_ns);

    // Open loop: the serve_mixed mix at three fixed rates, one shared
    // due-queue drained by two connections.
    let zipf = Zipf::new(input.pools.ranked.len(), 1.0);
    let spec = LoadSpec {
        addr: handle.addr(),
        pools: input.pools,
        zipf: &zipf,
        mix: Mix::SERVE_MIXED,
        aggregates: &AGGREGATE_PANEL,
        seed: input.seed,
        clients: WORKERS,
        first_client: 32,
    };
    let rung_s = (input.seconds / 10.0).max(0.3);
    let mut slo_rate = 0.0;
    let mut lateness = Vec::new();
    let ladder = &crate::names::contract().ladder_rps;
    for (i, (&rate, name)) in ladder.iter().zip(LADDER_NAMES).enumerate() {
        let (load, _) = tracer.stage("probe.serve.open_loop", || {
            open_loop(
                &LoadSpec {
                    first_client: 32 + 2 * i,
                    ..spec
                },
                rate,
                rung_s,
            )
        });
        report.count_ops(load.attempted, load.failed, &load.failures);
        let mut all: Vec<f64> = [Class::Point, Class::Aggregate]
            .iter()
            .flat_map(|&c| load.sorted(c, 1e3))
            .collect();
        stats::sort(&mut all);
        report.set(name, stats::percentile(&all, 99.0));
        if slo_met(&load) {
            slo_rate = rate;
        }
        lateness.extend(load.lateness_ns.iter().map(|&ns| ns as f64 / 1e3));
    }
    // Reconnect cost: one dial of the front end's listener on loopback
    // (what a client pays after every 64th request).
    let addr = handle.addr();
    let (dial_ns, _) = tracer.stage("probe.chaos.dial", || {
        median_ns(200, |_| {
            drop(RealTcp.connect(addr, Duration::from_millis(500)))
        })
    });
    report.set("chaos.dial_us", dial_ns / 1e3);

    stats::sort(&mut lateness);
    report.set("serve.open_loop.slo_rate_rps", slo_rate);
    report.set(
        "harness.open_loop_lateness_us",
        stats::percentile(&lateness, 50.0),
    );
    handle.shutdown();
    Ok(())
}

/// ingest: bootstrap scan, then epochs of 64 appends applied and
/// published with no service attached.
fn ingest(users: &[Document], tracer: &Tracer, report: &mut Report) -> Res<()> {
    let store = Arc::new(Store::memory(PARTITIONS));
    let (seeded, fresh) = users.split_at(users.len().saturating_sub(8 * 64));
    for doc in seeded {
        store.put(NS_USERS, doc.clone())?;
    }
    let telemetry = Telemetry::new();
    let (engine, catch_up_s) = tracer.stage("probe.ingest.catch_up", || {
        IngestEngine::new(
            Arc::clone(&store),
            IngestConfig::default(),
            telemetry.clone(),
        )
    });
    let mut engine = engine?;
    engine.publish(None);
    let (mut drain_ms, mut publish_ms, mut lagged) = (Vec::new(), Vec::new(), 0u64);
    let mut applied = 0u64;
    for epoch in fresh.chunks(64) {
        for doc in epoch {
            store.put(NS_USERS, doc.clone())?;
        }
        let (drained, drain_s) = tracer.stage("probe.ingest.drain", || engine.drain());
        let drained = drained?;
        let (_, publish_s) = tracer.stage("probe.ingest.publish", || engine.publish(None));
        applied += drained.docs;
        lagged += drained.lag_drops;
        drain_ms.push(drain_s * 1e3);
        publish_ms.push(publish_s * 1e3);
    }
    report.set("ingest.catch_up_s", catch_up_s);
    report.set("ingest.drain_ms", stats::median(&drain_ms));
    report.set("ingest.publish_ms", stats::median(&publish_ms));
    report.set(
        "ingest.apply_us_per_append",
        drain_ms.iter().sum::<f64>() * 1e3 / (applied as f64).max(1.0),
    );
    report.set("ingest.lagged_events", lagged as f64);
    report.set(
        "ingest.pagerank_recomputes",
        engine.graph().pagerank_recomputes() as f64,
    );
    Ok(())
}

/// The six serializable legs against `backend`, median µs each.
fn legs(
    backend: &dyn ShardBackend,
    pools: &Pools,
    tracer: &Tracer,
    stage: &'static str,
) -> Res<[f64; 6]> {
    let keys: Vec<String> = pools
        .ranked
        .iter()
        .take(4)
        .map(|e| format!("{}:{}", if e.is_user { "user" } else { "company" }, e.id))
        .collect();
    let investor = pools.investors.first().copied().unwrap_or(0);
    let mut failed = None;
    let mut timed = |reps: usize, call: &dyn Fn() -> Result<(), String>| -> f64 {
        let (ns, _) = tracer.stage(stage, || {
            median_ns(reps, |_| {
                if let Err(e) = call() {
                    failed = Some(e);
                }
            })
        });
        ns / 1e3
    };
    let us = [
        timed(200, &|| {
            backend.epoch_meta().map(drop).map_err(|e| e.to_string())
        }),
        timed(10, &|| {
            backend
                .scan_partitions(NS_USERS, SnapshotId(0))
                .map(drop)
                .map_err(|e| e.to_string())
        }),
        timed(200, &|| {
            backend
                .entity_docs(&keys)
                .map(drop)
                .map_err(|e| e.to_string())
        }),
        timed(200, &|| {
            backend
                .investor_edges(investor)
                .map(drop)
                .map_err(|e| e.to_string())
        }),
        timed(200, &|| {
            backend.top_k_prefix(5).map(drop).map_err(|e| e.to_string())
        }),
        timed(200, &|| {
            backend.shard_stats().map(drop).map_err(|e| e.to_string())
        }),
    ];
    match failed {
        Some(e) => Err(format!("shard leg failed: {e}").into()),
        None => Ok(us),
    }
}

/// shard and shardnet: partitioner, import, the legs in process
/// and over loopback, the router without a wire, and the wire codec on a
/// real scan payload. Runs on a reduced corpus (see `SHARD_PROBE_DOCS`).
fn sharding(
    input: &Input<'_>,
    users: &[Document],
    tracer: &Tracer,
    report: &mut Report,
) -> Res<()> {
    let reduced = Store::memory(PARTITIONS);
    let mut kept = 0usize;
    // Investors first, so the reduced corpus keeps the graph's edges.
    for investors in [true, false] {
        for doc in users {
            let is_investor = doc.body.get("role").and_then(Value::as_str) == Some("investor");
            if is_investor == investors && kept < SHARD_PROBE_DOCS {
                reduced.put(NS_USERS, doc.clone())?;
                kept += 1;
            }
        }
    }
    for doc in input
        .corpus
        .scan_snapshot(NS_COMPANIES, SnapshotId(0))?
        .into_iter()
        .take(SHARD_PROBE_DOCS)
    {
        reduced.put(NS_COMPANIES, doc)?;
        kept += 1;
    }
    let reduced_pools = Pools::from_store(&reduced, input.seed)?;

    let partitioner = Partitioner::new(2);
    let keys: Vec<String> = users.iter().take(4096).map(|d| d.key.clone()).collect();
    let (partition_ns, _) = tracer.stage("probe.shard.partition", || {
        median_ns(keys.len(), |i| {
            std::hint::black_box(partitioner.shard_of(NS_USERS, &keys[i]));
        })
    });
    report.set("shard.partition_ns", partition_ns);

    let telemetry = deploy::wall_telemetry();
    let single = ShardSet::from_backends(
        vec![
            Arc::new(LocalShard::open_memory(0, PARTITIONS, &telemetry)?) as Arc<dyn ShardBackend>,
        ],
        &telemetry,
    );
    let (imported, import_s) = tracer.stage("probe.shard.import", || single.import_store(&reduced));
    imported?;
    report.set("shard.import_docs_per_s", kept as f64 / import_s);
    let local = legs(
        single.shards()[0].as_ref(),
        &reduced_pools,
        tracer,
        "probe.shard.local_leg",
    )?;

    let tier = remote_tier(1, PARTITIONS, &telemetry)?;
    tracer
        .stage("probe.shardnet.import", || tier.set.import_store(&reduced))
        .0?;
    let remote = legs(
        tier.set.shards()[0].as_ref(),
        &reduced_pools,
        tracer,
        "probe.shardnet.remote_leg",
    )?;
    tier.shutdown();
    for (leg, (local_us, remote_us)) in LEGS.into_iter().zip(local.into_iter().zip(remote)) {
        report.set(&format!("shard.local_leg.{leg}_us"), local_us);
        report.set(&format!("shardnet.remote_leg.{leg}_us"), remote_us);
    }
    let overhead: Vec<f64> = remote.iter().zip(local).map(|(r, l)| r - l).collect();
    report.set("shardnet.leg_overhead_us", stats::median(&overhead));

    // Router over two local shards: the scatter path with no wire in it.
    let pair = Arc::new(ShardSet::memory(2, PARTITIONS, &telemetry)?);
    pair.import_store(&reduced)?;
    let router = Router::new(
        Arc::clone(&pair),
        RouterConfig::default(),
        telemetry.clone(),
    );
    let warm = router.handle(&Request::get("/communities"));
    report.check(warm.status == 200, || {
        format!("router probe: /communities answered {}", warm.status)
    });
    let point_targets: Vec<String> = reduced_pools
        .ranked
        .iter()
        .take(1_000)
        .enumerate()
        .map(|(i, e)| {
            format!(
                "/entity/{}/{}?probe=r{i}",
                if e.is_user { "user" } else { "company" },
                e.id
            )
        })
        .collect();
    let (point_ns, _) = tracer.stage("probe.shard.router_point", || {
        median_ns(point_targets.len(), |i| {
            drop(router.handle(&Request::get(&point_targets[i])))
        })
    });
    let scan = |i: usize| {
        sql_target(
            NS_USERS,
            &format!(
                "SELECT COUNT(*) AS n FROM docs WHERE follow_count > {}",
                2_000_000 + i
            ),
        )
    };
    let (scan_ns, _) = tracer.stage("probe.shard.router_scan", || {
        median_ns(9, |i| drop(router.handle(&Request::get(&scan(i)))))
    });
    let slowest_leg_ns = pair
        .shards()
        .iter()
        .map(|shard| median_ns(9, |_| drop(shard.scan_partitions(NS_USERS, SnapshotId(0)))))
        .fold(0.0, f64::max);
    report.set("shard.router_point_us", point_ns / 1e3);
    report.set("shard.router_scan_ms", scan_ns / 1e6);
    report.set("shard.merge_ms", (scan_ns - slowest_leg_ns) / 1e6);
    drop(router);
    drop(pair);

    // Wire codec on a real scan payload.
    let payload = single.shards()[0].scan_partitions(NS_USERS, SnapshotId(0))?;
    let docs: usize = payload.iter().map(Vec::len).sum();
    let (frame, encode_s) = tracer.stage("probe.shardnet.wire_encode", || {
        wire::encode_frame(&wire::partitions_to_value(&payload))
    });
    let (decoded, decode_s) = tracer.stage("probe.shardnet.wire_decode", || {
        wire::decode_frame(&frame).and_then(|value| wire::partitions_from_value(&value))
    });
    report.check(decoded.as_ref().is_ok_and(|d| *d == payload), || {
        "wire frame did not round-trip".into()
    });
    report.set(
        "shardnet.wire_encode_mb_per_s",
        mb_per_s(frame.len(), encode_s),
    );
    report.set(
        "shardnet.wire_decode_mb_per_s",
        mb_per_s(frame.len(), decode_s),
    );
    report.set(
        "shardnet.wire_bytes_per_doc",
        frame.len() as f64 / (docs as f64).max(1.0),
    );
    drop(single);

    Ok(())
}

fn telemetry_floor(tracer: &Tracer, report: &mut Report) {
    let telemetry = deploy::wall_telemetry();
    let counter = telemetry.counter("probe.counter");
    const BATCH: usize = 10_000;
    let (inc_ns, _) = tracer.stage("probe.telemetry.counter", || {
        median_ns(20, |_| (0..BATCH).for_each(|_| counter.inc()))
    });
    let (span_ns, _) = tracer.stage("probe.telemetry.span", || {
        median_ns(20, |_| {
            (0..BATCH / 10).for_each(|_| drop(telemetry.span("probe.span")))
        })
    });
    report.set("telemetry.counter_inc_ns", inc_ns / BATCH as f64);
    report.set("telemetry.span_ns", span_ns / (BATCH / 10) as f64);
}

/// Run every probe and fill in the per-layer timings.
pub fn run(input: &Input<'_>, tracer: &Tracer, report: &mut Report) -> Res<()> {
    let (result, _) = tracer.stage("probe", || -> Res<()> {
        let users = input.corpus.scan_snapshot(NS_USERS, SnapshotId(0))?;
        crawl_and_world(input, report);
        storage(input, &users, tracer, report)?;
        analysis(input, tracer, report)?;
        serve(input, tracer, report)?;
        ingest(&users, tracer, report)?;
        sharding(input, &users, tracer, report)?;
        telemetry_floor(tracer, report);
        Ok(())
    });
    result
}

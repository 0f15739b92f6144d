//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--seed N] [--scale tiny|small|eval|paper|1/K] [--out DIR]
//!       [--telemetry PATH] [-v|--verbose]... [EXPERIMENT…]
//! ```
//!
//! Experiments: `dataset-stats`, `fig3`, `fig6`, `investor-graph`,
//! `communities`, `fig4`, `fig5`, `fig7`, `causality`, `predict`, or `all`
//! (default). Text summaries go to stdout; plot-ready CSV/SVG series go to
//! `--out` (default `results/`).
//!
//! `--telemetry PATH` writes a JSON run report (counters, histograms, spans,
//! events) to PATH after the experiments finish; timestamps use the wall
//! clock. `telemetry-report` summarizes a previously written report (from
//! `--telemetry PATH`, or the lexicographically last `*.json` under
//! `<out>/telemetry/`) without running the pipeline.
//!
//! `serve` stands up the crowdnet-serve query layer over the crawled store:
//! with `--smoke` it issues one in-process request per example endpoint and
//! exits; otherwise it binds a loopback HTTP listener on `--port` (0 picks
//! a free port) and blocks until Enter is pressed.
//!
//! `crawl` runs the four-source crawl into a durable on-disk store at
//! `--store DIR` (default `out/store`) instead of the in-memory store the
//! experiments use. The run checkpoints after every stage, so an interrupted
//! crawl continues from its last durable position with `--resume`; `--fresh`
//! discards an existing store first. `--fail-at-op N` wraps the store in the
//! deterministic fault-injecting VFS and simulates a crash at the Nth file
//! operation (exit code 3); a following `--resume` run recovers the store,
//! replays only the missing work, and prints the `store.recovery.*` /
//! `crawl.resume.*` counters plus a canonical content hash for comparing
//! against an uninterrupted run.

use crowdnet_core::experiments::*;
use crowdnet_core::pipeline::{Pipeline, PipelineConfig, PipelineOutcome};
use crowdnet_core::report::write_csv;
use crowdnet_socialsim::clock::SystemClock;
use crowdnet_socialsim::{Clock, Scale, WorldConfig};
use crowdnet_telemetry::report as telemetry_report;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--seed N] [--scale tiny|small|eval|paper|1/K] [--out DIR] [--telemetry PATH] [--port N] [--shards N] [--smoke] [--columnar] [-v|--verbose] [EXPERIMENT...]\n\
         experiments: dataset-stats fig3 fig6 fig8 investor-graph communities fig4 fig5 fig7 causality dynamic predict correlations store-stats telemetry-report serve ingest crawl column shard-server chaos all\n\
         crawl flags: [--store DIR] [--resume] [--fresh] [--fail-at-op N] [--fault-seed S]\n\
           repro crawl writes a durable on-disk store; --resume continues an\n\
           interrupted crawl from its last checkpoint, --fail-at-op simulates\n\
           a crash at the Nth file operation (exit code 3)\n\
         serve flags: [--shards N] routes requests through a hash-partitioned\n\
           N-shard set and the scatter-gather router instead of the single\n\
           unsharded service (0 = unsharded, the default);\n\
           [--remote ADDR,ADDR,...] scatter-gathers over out-of-process\n\
           shard servers at the listed loopback addresses instead of\n\
           in-process shards (shard count = number of addresses; empty\n\
           fleets are imported, populated fleets adopted as-is)\n\
         shard-server flags: --store DIR --index I --of N [--port P] [--partitions K]\n\
           repro shard-server runs one durable shard of an N-shard fleet\n\
           as its own process, serving its backend legs as POST\n\
           /shard/<leg> wire frames; it announces\n\
           \"shard-server listening on ADDR\" on stdout once live\n\
         --columnar projects the crawled store into typed columns and runs\n\
           every analysis scan over them instead of re-parsing JSON\n\
         column flags: [--store DIR] [--rebuild DIR]\n\
           repro column opens the on-disk columnar projection next to the\n\
           store's JSON log (building it when absent, corrupt or stale);\n\
           --rebuild DIR forces a from-scratch rebuild of DIR's projection\n\
         chaos flags: --scenario flaky-link|slow-shard|one-way-partition|restart-storm\n\
           repro chaos runs a scripted network-fault drill against a full\n\
           local serve + remote-shard topology, asserting zero 5xx,\n\
           accurate partial flags, and byte-identical answers after heal;\n\
           same --seed replays the same transcript byte-for-byte"
    );
    std::process::exit(2);
}

struct Args {
    seed: u64,
    scale: String,
    out: PathBuf,
    telemetry: Option<PathBuf>,
    port: u16,
    shards: usize,
    remote: Option<String>,
    index: usize,
    of: usize,
    partitions: usize,
    smoke: bool,
    verbose: u8,
    store: PathBuf,
    resume: bool,
    fresh: bool,
    fail_at_op: Option<u64>,
    fault_seed: u64,
    columnar: bool,
    rebuild: Option<PathBuf>,
    scenario: Option<String>,
    experiments: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 42,
        scale: "tiny".into(),
        out: PathBuf::from("results"),
        telemetry: None,
        port: 0,
        shards: 0,
        remote: None,
        index: 0,
        of: 1,
        partitions: 4,
        smoke: false,
        verbose: 0,
        store: PathBuf::from("out/store"),
        resume: false,
        fresh: false,
        fail_at_op: None,
        fault_seed: 1,
        columnar: false,
        rebuild: None,
        scenario: None,
        experiments: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--scale" => args.scale = it.next().unwrap_or_else(|| usage()),
            "--out" => args.out = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--telemetry" => {
                args.telemetry = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            "--port" => args.port = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--shards" => {
                args.shards = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--remote" => args.remote = Some(it.next().unwrap_or_else(|| usage())),
            "--index" => {
                args.index = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--of" => args.of = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--partitions" => {
                args.partitions =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--smoke" => args.smoke = true,
            "--store" => args.store = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--resume" => args.resume = true,
            "--fresh" => args.fresh = true,
            "--fail-at-op" => {
                args.fail_at_op =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--fault-seed" => {
                args.fault_seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--columnar" => args.columnar = true,
            "--scenario" => args.scenario = Some(it.next().unwrap_or_else(|| usage())),
            "--rebuild" => {
                args.rebuild = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            "--verbose" | "-v" => args.verbose = args.verbose.saturating_add(1),
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => args.experiments.push(other.to_string()),
        }
    }
    if args.experiments.is_empty() {
        args.experiments.push("all".into());
    }
    args
}

/// Summarize a previously written telemetry report without running anything.
fn summarize_report(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let path = match &args.telemetry {
        Some(p) => p.clone(),
        None => {
            let dir = args.out.join("telemetry");
            let mut reports: Vec<PathBuf> = std::fs::read_dir(&dir)
                .map_err(|e| format!("no telemetry reports under {}: {e}", dir.display()))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
                .collect();
            reports.sort();
            reports
                .pop()
                .ok_or_else(|| format!("no *.json reports under {}", dir.display()))?
        }
    };
    let text = std::fs::read_to_string(&path)?;
    let report = crowdnet_json::Value::parse(&text)
        .map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
    telemetry_report::validate(&report)
        .map_err(|e| format!("{}: not a telemetry report: {e}", path.display()))?;
    println!("telemetry report: {}", path.display());
    print!("{}", telemetry_report::render_summary(&report));
    Ok(())
}

fn config(seed: u64, scale: &str) -> PipelineConfig {
    let mut cfg = match scale {
        "tiny" => PipelineConfig::tiny(seed),
        "small" => PipelineConfig::small(seed),
        "eval" => PipelineConfig::default_eval(seed),
        "paper" => {
            let mut c = PipelineConfig::default_eval(seed);
            c.world = WorldConfig::at_scale(seed, Scale::Paper);
            c
        }
        frac if frac.starts_with("1/") => {
            let denom: u32 = frac[2..].parse().unwrap_or_else(|_| usage());
            let mut c = PipelineConfig::default_eval(seed);
            c.world = WorldConfig::at_scale(seed, Scale::Fraction(denom));
            c
        }
        _ => usage(),
    };
    cfg.world.seed = seed;
    cfg
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn run_experiment(
    name: &str,
    outcome: &PipelineOutcome,
    cfg: &PipelineConfig,
    out: &Path,
) -> Result<(), Box<dyn std::error::Error>> {
    match name {
        "dataset-stats" => {
            header("Dataset statistics (paper §3)");
            println!("{}", dataset_stats::run(outcome)?);
        }
        "fig3" => {
            header("Figure 3: CDF of investments per investor");
            let r = fig3::run(outcome)?;
            println!(
                "investors: {}; mean {:.2} (paper 3.3); median {:.0} (paper 1); max {:.0} (paper ~1000); single-investment share {:.1}%",
                r.investors, r.mean, r.median, r.max, r.single_investment_share * 100.0
            );
            write_csv(
                &out.join("fig3_investment_cdf.csv"),
                &["investments", "cdf"],
                r.cdf_points.iter().map(|&(x, y)| vec![x, y]),
            )?;
            let chart = crowdnet_viz::chart::line_chart(
                &[crowdnet_viz::chart::Series::new("CDF", r.cdf_points.clone())],
                &crowdnet_viz::chart::ChartConfig {
                    title: "Figure 3: CDF of investments per investor".into(),
                    x_label: "investments (log scale)".into(),
                    y_label: "F(x)".into(),
                    log_x: true,
                    ..Default::default()
                },
            );
            std::fs::create_dir_all(out)?;
            std::fs::write(out.join("fig3_investment_cdf.svg"), chart)?;
            println!(
                "series -> {} (+ .svg)",
                out.join("fig3_investment_cdf.csv").display()
            );
        }
        "fig6" => {
            header("Figure 6: social engagement vs fundraising success");
            let r = fig6::run(outcome)?;
            println!("{r}");
            write_csv(
                &out.join("fig6_table.csv"),
                &["count", "share", "success_rate", "paper_rate"],
                r.rows.iter().map(|row| {
                    vec![row.count as f64, row.share, row.success_rate, row.paper_rate]
                }),
            )?;
        }
        "investor-graph" => {
            header("Investor graph structure (paper §5.1)");
            let (r, _) = investor_graph::run(outcome)?;
            println!("{r}");
        }
        "communities" => {
            header("CoDA communities (paper §5.2)");
            let fitted = communities::fitted(outcome)?;
            let (r, graph, model, coda_cfg) = (&fitted.result, &fitted.graph, &fitted.model, &fitted.cfg);
            println!(
                "{} communities, avg size {:.1} over {} filtered investors (paper: 96 / 190.2); final LL {:.1}",
                r.communities,
                r.avg_size,
                r.filtered_investors,
                model.ll_trace.last().copied().unwrap_or(f64::NAN)
            );
            let updates = (model.ll_trace.len() * (graph.investor_count() + graph.company_count())) as u64;
            println!(
                "row updates without an improving step: {} of {updates} ({:.1}%)",
                model.rows_stuck,
                model.rows_stuck as f64 / updates.max(1) as f64 * 100.0
            );
            // Model selection: how does the scaled-from-the-paper C compare
            // with its neighbors under held-out likelihood?
            let k = coda_cfg.communities;
            let candidates = [k / 2, k, k * 2];
            let (best, scores) = crowdnet_graph::coda::choose_communities(
                graph,
                &candidates,
                coda_cfg,
                0.1,
                outcome.config.world.seed,
            );
            let rendered: Vec<String> = scores
                .iter()
                .map(|(c, s)| format!("C={c}: {s:.3}"))
                .collect();
            println!(
                "held-out model selection over C in {candidates:?}: {} -> best C = {best}",
                rendered.join(", ")
            );
        }
        "fig4" => {
            header("Figure 4: shared-investment-size CDFs");
            let r = fig4::run(outcome)?;
            for c in &r.strong {
                println!(
                    "strong community #{} ({} investors): mean shared {:.2}, max {:.0}",
                    c.rank + 1,
                    c.size,
                    c.mean_shared,
                    c.max_shared
                );
                write_csv(
                    &out.join(format!("fig4_strong{}_cdf.csv", c.rank + 1)),
                    &["shared_size", "cdf"],
                    c.cdf_points.iter().map(|&(x, y)| vec![x, y]),
                )?;
            }
            println!(
                "global sample: {} pairs, mean shared {:.4}, DKW eps(99%) = {:.5} (paper quoted 0.0196)",
                r.global_samples, r.global_mean_shared, r.gc_epsilon_99
            );
            write_csv(
                &out.join("fig4_global_cdf.csv"),
                &["shared_size", "cdf"],
                r.global_cdf_points.iter().map(|&(x, y)| vec![x, y]),
            )?;
            let mut series: Vec<crowdnet_viz::chart::Series> = r
                .strong
                .iter()
                .map(|c| {
                    crowdnet_viz::chart::Series::new(
                        format!("strong #{}", c.rank + 1),
                        c.cdf_points.clone(),
                    )
                })
                .collect();
            series.push(crowdnet_viz::chart::Series::new(
                "global sample",
                r.global_cdf_points.clone(),
            ));
            let chart = crowdnet_viz::chart::line_chart(
                &series,
                &crowdnet_viz::chart::ChartConfig {
                    title: "Figure 4: shared investment size CDFs".into(),
                    x_label: "shared investment size".into(),
                    y_label: "F(x)".into(),
                    ..Default::default()
                },
            );
            std::fs::create_dir_all(out)?;
            std::fs::write(out.join("fig4_cdfs.svg"), chart)?;
        }
        "fig5" => {
            header("Figure 5: PDF of per-community shared-investor %");
            let r = fig5::run(outcome)?;
            println!(
                "{} communities; mean {:.1}% (paper 23.1%); randomized control {:.1}% (paper 5.8%)",
                r.pcts.len(),
                r.mean_pct,
                r.randomized_mean_pct
            );
            write_csv(
                &out.join("fig5_pdf.csv"),
                &["pct", "density"],
                r.pdf_points.iter().map(|&(x, y)| vec![x, y]),
            )?;
            let chart = crowdnet_viz::chart::line_chart(
                &[crowdnet_viz::chart::Series::new("KDE", r.pdf_points.clone())],
                &crowdnet_viz::chart::ChartConfig {
                    title: "Figure 5: PDF of shared-investor percentage".into(),
                    x_label: "% companies with >=2 shared investors".into(),
                    y_label: "density".into(),
                    ..Default::default()
                },
            );
            std::fs::create_dir_all(out)?;
            std::fs::write(out.join("fig5_pdf.svg"), chart)?;
        }
        "fig7" => {
            header("Figure 7: strong vs weak community visualization");
            let r = fig7::run(outcome)?;
            println!(
                "strong: {} investors / {} companies, mean shared {:.2} (paper 2.1), shared-investor {:.1}% (paper 27.9%)",
                r.strong.investors, r.strong.companies, r.strong.mean_shared, r.strong.shared_pct
            );
            println!(
                "weak:   {} investors / {} companies, mean shared {:.3} (paper 0.018), shared-investor {:.1}% (paper 12.5%)",
                r.weak.investors, r.weak.companies, r.weak.mean_shared, r.weak.shared_pct
            );
            std::fs::create_dir_all(out)?;
            std::fs::write(out.join("fig7_strong.svg"), &r.strong.svg)?;
            std::fs::write(out.join("fig7_weak.svg"), &r.weak.svg)?;
            std::fs::write(out.join("fig7_strong.dot"), &r.strong.dot)?;
            std::fs::write(out.join("fig7_weak.dot"), &r.weak.dot)?;
            println!("drawings -> {}", out.join("fig7_*.svg").display());
        }
        "causality" => {
            header("Causality event study (paper §7 extension)");
            let r = causality::run(cfg, 40)?;
            println!(
                "{} snapshots over {} days; treated {} vs controls {}; pre-event velocity {:.2} tweets/day vs control {:.2}",
                r.snapshots, r.days, r.treated, r.controls, r.treated_pre_growth, r.control_growth
            );
        }
        "syndicates" => {
            header("Syndicates vs detected communities (paper §2)");
            match syndicates::run(outcome) {
                Ok(r) => println!(
                    "{} syndicates crawled ({} analyzable); mean shared investments {:.2} vs randomized {:.2}; CoDA agreement F1 {:.3}",
                    r.syndicates, r.analyzable, r.mean_shared, r.randomized_mean_shared, r.coda_agreement_f1
                ),
                Err(crowdnet_core::CoreError::EmptyInput(what)) => println!(
                    "skipped: no {what} at this scale (tiny worlds may have no public syndicates)"
                ),
                Err(e) => return Err(e.into()),
            }
        }
        "correlations" => {
            header("Engagement-success correlations (paper §4 supplement)");
            println!("{}", correlations::run(outcome)?);
        }
        "query" => {
            header("Ad-hoc SQL over the crawled store");
            let sql = "SELECT role, COUNT(*) AS n, AVG(follow_count) AS avg_follows \
                       FROM users GROUP BY role ORDER BY n DESC";
            let docs = crowdnet_dataflow::dataset::scan_store(
                &outcome.store,
                crowdnet_crawl::bfs::NS_USERS,
                crowdnet_store::SnapshotId(0),
                outcome.ctx,
            )?
            .map(|d| d.body);
            let table = crowdnet_dataflow::sql::query(sql, docs)?;
            println!("{sql}\n{}", table.render());
        }
        "store-stats" => {
            header("Store contents");
            for s in outcome.store.stats()? {
                println!(
                    "  {:<22} {:>8} docs  {:>10} bytes  {} snapshot(s)",
                    s.namespace, s.documents, s.encoded_bytes, s.snapshots
                );
            }
        }
        "fig8" => {
            header("Figure 8: toy metric examples (verified in unit tests)");
            println!(
                "The paper's worked examples are encoded as unit tests in
                 crowdnet-graph::metrics — community (a): mean shared size 1.67,
                 100% shared-investor rate; community (b): 0.33 and 25%.
                 Run `cargo test -p crowdnet-graph figure8` to check them."
            );
        }
        "dynamic" => {
            header("Dynamic community tracking (paper §7 extension)");
            let r = dynamic_communities::run(cfg, 3, 30)?;
            let (continued, split, merged, born, dissolved) = r.totals;
            println!(
                "{} epochs, {} days apart; communities per epoch {:?}",
                r.epochs, r.interval_days, r.communities_per_epoch
            );
            println!(
                "events: {continued} continued, {split} split, {merged} merged, {born} born, {dissolved} dissolved"
            );
        }
        "predict" => {
            header("Success prediction + feature selection (paper §7 extension)");
            let r = predict::run(outcome)?;
            println!(
                "AUC (all features) = {:.3}; base rate {:.2}%; {} train / {} test rows",
                r.auc_full,
                r.positive_rate * 100.0,
                r.train_rows,
                r.test_rows
            );
            println!("forward-selection path:");
            for (feat, auc) in &r.selection_path {
                println!("  + {feat:<22} -> AUC {auc:.3}");
            }
        }
        other => {
            eprintln!("unknown experiment: {other}");
            usage();
        }
    }
    Ok(())
}

/// Run one shard of an out-of-process fleet: open the shard's durable
/// store at `--store DIR` (creating or recovering it), expose its
/// backend legs as `POST /shard/<leg>` wire frames through the serve
/// front end, and announce the listen address on stdout — the exact line
/// `ProcessSupervisor` and the check.sh drill scrape. Runs until Enter
/// on an interactive stdin; supervised children (stdin closed) stay up
/// until killed.
fn shard_server(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    use crowdnet_serve::{bind, Server, ServerConfig};
    use crowdnet_shard::{LocalShard, ShardBackend};
    use crowdnet_shardnet::{ShardServer, LISTEN_PREFIX};
    let telemetry = crowdnet_telemetry::Telemetry::new();
    let shard = Arc::new(LocalShard::open_with_vfs(
        args.index,
        &args.store,
        args.partitions,
        Arc::new(crowdnet_store::RealFs),
        &telemetry,
    )?);
    let namespaces = shard.shard_stats()?.len();
    println!(
        "shard {}/{}: durable store {} ({} namespace(s) recovered)",
        args.index,
        args.of,
        args.store.display(),
        namespaces,
    );
    let handler = Arc::new(ShardServer::new(shard, &telemetry));
    let server = Arc::new(Server::with_handler(handler, telemetry.clone(), ServerConfig::default()));
    let handle = bind(server, args.port)?;
    println!("{LISTEN_PREFIX}{}", handle.addr());
    let mut line = String::new();
    if std::io::stdin().read_line(&mut line).unwrap_or(0) == 0 {
        // stdin is closed: a supervised child with nothing to wait on.
        // Serve until the supervisor kills the process.
        loop {
            std::thread::park();
        }
    }
    handle.shutdown();
    Ok(())
}

/// Stand up the query-serving layer over the crawled store. `--smoke`
/// exercises every example endpoint in-process and returns; otherwise the
/// loopback TCP front end runs until Enter is pressed. With `--shards N`
/// the corpus is imported into an N-shard set and served through the
/// scatter-gather router instead of the single unsharded service; with
/// `--remote ADDR,...` the shards are out-of-process servers reached
/// through [`RemoteShard`](crowdnet_shardnet::RemoteShard) backends.
fn serve_store(
    store: Arc<crowdnet_store::Store>,
    telemetry: crowdnet_telemetry::Telemetry,
    args: &Args,
) -> Result<(), Box<dyn std::error::Error>> {
    use crowdnet_serve::{bind, Request, Server, ServerConfig, Service, ServiceConfig};
    use crowdnet_shard::{Router, RouterConfig, ShardBackend, ShardHealth, ShardSet};
    use crowdnet_shardnet::{RemoteShard, RemoteShardConfig};
    header("Serving layer (crowdnet-serve)");
    let sharded = args.shards > 0 || args.remote.is_some();
    let route = |set: Arc<ShardSet>| -> Result<_, Box<dyn std::error::Error>> {
        let router = Arc::new(Router::new(
            Arc::clone(&set),
            RouterConfig::default(),
            telemetry.clone(),
        ));
        let targets = router.example_targets()?;
        let server = Arc::new(Server::with_handler(
            router,
            telemetry.clone(),
            ServerConfig::default(),
        ));
        Ok((server, targets))
    };
    let (server, targets) = if let Some(remote) = &args.remote {
        let addrs = remote
            .split(',')
            .map(|a| a.trim().parse::<std::net::SocketAddr>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("--remote: bad address list {remote:?}: {e}"))?;
        println!(
            "remote serving: scatter-gather over {} out-of-process shard(s) at {remote}",
            addrs.len()
        );
        let backends = addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                RemoteShard::new(i, *addr, RemoteShardConfig::default(), &telemetry)
                    .map(|s| Arc::new(s) as Arc<dyn ShardBackend>)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let set = Arc::new(ShardSet::from_backends(backends, &telemetry));
        // A fleet that already holds a corpus is adopted as-is (the
        // restart drill: durable shard stores recover when their server
        // comes back); an empty fleet gets the corpus imported over the
        // wire through the submit leg.
        let populated = set.shards().iter().any(|s| {
            s.health() == ShardHealth::Healthy
                && s.shard_stats().map(|st| !st.is_empty()).unwrap_or(false)
        });
        if populated {
            println!("adopting populated remote shards (corpus import skipped)");
        } else {
            println!("importing the corpus into the remote fleet over the wire");
            set.import_store(&store)?;
        }
        route(set)?
    } else if args.shards > 0 {
        println!(
            "sharded serving: importing the corpus into {} hash-partitioned shard(s)",
            args.shards
        );
        let set = Arc::new(ShardSet::memory(
            args.shards,
            store.partitions(),
            &telemetry,
        )?);
        set.import_store(&store)?;
        route(set)?
    } else {
        let service = Arc::new(Service::new(store, ServiceConfig::default(), telemetry.clone()));
        let targets = service.example_targets()?;
        let server = Arc::new(Server::new(Arc::clone(&service), ServerConfig::default()));
        (server, targets)
    };
    if args.smoke {
        for target in targets {
            let response = server.call(Request::get(&target));
            if sharded {
                // Sharded smoke lines carry the degrade flag and a body
                // digest so the check.sh drill can assert zero-5xx
                // partials after a kill and byte-identical answers after
                // a restart (the digest excludes nothing; callers skip
                // version-bearing endpoints when comparing runs).
                let partial = std::str::from_utf8(&response.body)
                    .ok()
                    .and_then(|s| crowdnet_json::Value::parse(s).ok())
                    .and_then(|v| v.get("partial").and_then(crowdnet_json::Value::as_bool))
                    .unwrap_or(false);
                let mut digest = 0xcbf2_9ce4_8422_2325u64;
                fnv1a(&mut digest, &response.body);
                println!(
                    "  {:>3} GET {target} partial={partial} digest={digest:016x}",
                    response.status
                );
            } else {
                println!("  {:>3} GET {target}", response.status);
            }
        }
        if sharded {
            println!(
                "shard counters: shard.set.opened={} shard.set.puts={} shard.router.requests={} \
                 shard.router.fanouts={} shard.router.single_shard={}",
                telemetry.counter("shard.set.opened").value(),
                telemetry.counter("shard.set.puts").value(),
                telemetry.counter("shard.router.requests").value(),
                telemetry.counter("shard.router.fanouts").value(),
                telemetry.counter("shard.router.single_shard").value(),
            );
        }
        if args.remote.is_some() {
            println!(
                "shardnet counters: shardnet.legs={} shardnet.retries={} shardnet.timeouts={} \
                 shardnet.pool.reuse_hits={} shardnet.degraded_flips={}",
                telemetry.counter("shardnet.legs").value(),
                telemetry.counter("shardnet.retries").value(),
                telemetry.counter("shardnet.timeouts").value(),
                telemetry.counter("shardnet.pool.reuse_hits").value(),
                telemetry.counter("shardnet.degraded_flips").value(),
            );
        }
        server.shutdown();
        return Ok(());
    }
    let handle = bind(Arc::clone(&server), args.port)?;
    println!("serving on http://{} — press Enter to stop", handle.addr());
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    handle.shutdown();
    Ok(())
}

/// Live ingestion demo: run the longitudinal study with the ingest tier in
/// the loop — every simulated day streams through the changefeed, the
/// maintainers patch the artifacts in place, and an epoch is published
/// into a pinned serving layer. `--smoke` also exercises the example
/// endpoints against the final epoch.
fn ingest_live(
    store: Arc<crowdnet_store::Store>,
    world_cfg: &WorldConfig,
    telemetry: crowdnet_telemetry::Telemetry,
    args: &Args,
) -> Result<(), Box<dyn std::error::Error>> {
    use crowdnet_ingest::{run_live, IngestConfig, IngestEngine, LiveConfig};
    use crowdnet_serve::{Request, Service, ServiceConfig};
    header("Live ingestion (crowdnet-ingest)");
    let service = Arc::new(Service::new(
        Arc::clone(&store),
        ServiceConfig::default(),
        telemetry.clone(),
    ));
    let mut engine = IngestEngine::new(Arc::clone(&store), IngestConfig::default(), telemetry.clone())?;
    // Epoch 0: the caught-up state of the crawled corpus, pinned before
    // the study starts so every request already reads a frozen epoch.
    let first = engine.publish(Some(&service));
    println!(
        "epoch 0 pinned at store version {} ({} investors / {} companies)",
        first.version,
        first.graph.investor_count(),
        first.graph.company_count()
    );
    let live_cfg = LiveConfig {
        study: crowdnet_crawl::longitudinal::StudyConfig {
            days: 14,
            interval_days: 1,
            evolution_seed: args.seed,
        },
        seed: args.seed,
        ..LiveConfig::default()
    };
    let world = crowdnet_socialsim::World::generate(world_cfg);
    let days = run_live(world, &store, &mut engine, Some(&service), &live_cfg)?;
    for d in &days {
        println!(
            "  day {:>3}: {:>4} events {:>4} docs {:>3} new edges -> epoch v{} ({} funded)",
            d.day, d.events, d.docs, d.edges, d.epoch_version, d.funded_count
        );
    }
    if args.smoke {
        for target in service.example_targets()? {
            let response = service.handle(&Request::get(&target));
            println!("  {:>3} GET {target}", response.status);
        }
    }
    println!(
        "ingest counters: ingest.events={} ingest.docs={} ingest.edges={} ingest.epochs={} \
         ingest.pagerank.sweeps={} ingest.pagerank.recomputes={} ingest.feed.dropped={} ingest.catchup.scans={}",
        telemetry.counter("ingest.events").value(),
        telemetry.counter("ingest.docs").value(),
        telemetry.counter("ingest.edges").value(),
        telemetry.counter("ingest.epochs").value(),
        telemetry.counter("ingest.pagerank.sweeps").value(),
        telemetry.counter("ingest.pagerank.recomputes").value(),
        telemetry.counter("ingest.feed.dropped").value(),
        telemetry.counter("ingest.catchup.scans").value(),
    );
    Ok(())
}

/// `repro column`: open (or force-rebuild with `--rebuild DIR`) the
/// columnar projection living next to an on-disk store's JSON log, persist
/// it, and print its shape. The store's partition count follows `--scale`,
/// the same convention as `repro crawl --resume`.
fn column_admin(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    use crowdnet_column::{open_or_rebuild, save, ColumnConfig, ColumnSet};
    use crowdnet_store::Store;
    header("Columnar projection (crowdnet-column)");
    let force = args.rebuild.is_some();
    let dir = args.rebuild.clone().unwrap_or_else(|| args.store.clone());
    let cfg = config(args.seed, &args.scale);
    let telemetry = crowdnet_telemetry::Telemetry::new();
    let store = Store::open(&dir, cfg.partitions)?.with_telemetry(&telemetry);
    let (set, rebuilt) = if force {
        let mut set =
            ColumnSet::new(store.partitions(), ColumnConfig::default()).with_telemetry(&telemetry);
        set.rebuild_from_store(&store)?;
        (set, true)
    } else {
        open_or_rebuild(&store, ColumnConfig::default(), Some(&telemetry))?
    };
    let bytes = save(&store, &set)?;
    let stats = set.catalog().stats();
    println!(
        "{} projection of {} at version {}: {} namespace(s), {} run(s), {} row(s), {} encoded bytes, {} dictionary entries",
        if force {
            "force-rebuilt"
        } else if rebuilt {
            "rebuilt (absent, corrupt or stale)"
        } else {
            "loaded committed"
        },
        dir.display(),
        set.version(),
        stats.namespaces,
        stats.runs,
        stats.rows,
        stats.encoded_bytes,
        stats.dict_entries,
    );
    println!("persisted {bytes} byte(s) under {}", dir.join(crowdnet_column::COLUMNS_DIR).display());
    print_column_counters(&telemetry);
    Ok(())
}

/// The `column.*` counter line printed by `--columnar` runs and
/// `repro column` (the smoke-test surface `check.sh` greps).
fn print_column_counters(telemetry: &crowdnet_telemetry::Telemetry) {
    println!(
        "column counters: column.builds={} column.rebuilds={} column.appends={} \
         column.bytes={} column.scan.docs={} column.dict.entries={}",
        telemetry.counter("column.builds").value(),
        telemetry.counter("column.rebuilds").value(),
        telemetry.counter("column.appends").value(),
        telemetry.counter("column.bytes").value(),
        telemetry.counter("column.scan.docs").value(),
        telemetry.gauge("column.dict.entries").value(),
    );
}

/// FNV-1a over a byte slice, folded into a running hash.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Deterministic content hash of every data namespace: canonical key-sorted
/// scans of every snapshot, checkpoint state excluded. A resumed crawl must
/// land on the same hash as an uninterrupted run with the same seed.
fn store_content_hash(store: &crowdnet_store::Store) -> Result<u64, Box<dyn std::error::Error>> {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut namespaces = store.namespaces()?;
    namespaces.sort();
    for ns in namespaces {
        if ns == crowdnet_crawl::bfs::NS_CHECKPOINT {
            continue;
        }
        let latest = store.latest_snapshot(&ns)?;
        for snap in 0..=latest.0 {
            // Scans come back partition-sorted; the k-way merge yields the
            // global key order without re-sorting.
            let docs = store.scan_snapshot_sorted(&ns, crowdnet_store::SnapshotId(snap))?;
            for doc in docs {
                fnv1a(&mut hash, ns.as_bytes());
                fnv1a(&mut hash, &snap.to_le_bytes());
                fnv1a(&mut hash, doc.encode().as_bytes());
            }
        }
    }
    Ok(hash)
}

/// `repro crawl`: the four-source crawl into a durable on-disk store, with
/// stage checkpoints, crash-point fault injection, and `--resume` recovery.
fn crawl_durable(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    use crowdnet_crawl::Crawler;
    use crowdnet_store::{FailpointFs, FaultPlan, RealFs, Store, Vfs};
    header("Durable crawl (crowdnet-store on disk)");
    let dir = &args.store;
    let populated = dir
        .read_dir()
        .map(|mut entries| entries.next().is_some())
        .unwrap_or(false);
    if populated && args.fresh {
        std::fs::remove_dir_all(dir)?;
    } else if populated && !args.resume {
        eprintln!(
            "store {} already exists; pass --resume to continue it or --fresh to discard it",
            dir.display()
        );
        std::process::exit(2);
    }

    let cfg = config(args.seed, &args.scale);
    let telemetry = cfg.telemetry.clone();
    let failpoints = args
        .fail_at_op
        .map(|k| Arc::new(FailpointFs::over_real(FaultPlan::crash_at(args.fault_seed, k))));
    let vfs: Arc<dyn Vfs> = match &failpoints {
        Some(f) => Arc::clone(f) as Arc<dyn Vfs>,
        None => Arc::new(RealFs),
    };
    let store = Store::open_with_vfs(dir, cfg.partitions, vfs)?.with_telemetry(&telemetry);
    let recovered = store.recovery_stats();
    if args.resume {
        println!(
            "opened {} — recovery: {} scan(s), {} clean records, {} torn tail(s) truncated, \
             {} record(s) quarantined, {} uncommitted snapshot(s) discarded",
            dir.display(),
            recovered.scans,
            recovered.records_ok,
            recovered.torn_tails,
            recovered.quarantined_records,
            recovered.uncommitted_snapshots,
        );
    }

    println!(
        "crawling at seed={} scale={} into {} ...",
        args.seed,
        args.scale,
        dir.display()
    );
    let world = {
        let _span = telemetry.span("world.generate");
        Arc::new(crowdnet_socialsim::World::generate(&cfg.world))
    };
    let mut crawl_cfg = cfg.crawl.clone();
    crawl_cfg.telemetry = telemetry.clone();
    let crawler = Crawler::new(Arc::clone(&world), crawl_cfg);
    match crawler.run_resumable(&store) {
        Ok(stats) => {
            println!(
                "crawled: {} companies, {} users, {} crunchbase, {} facebook, {} twitter, {} syndicates",
                stats.bfs.companies,
                stats.bfs.users,
                stats.augment.resolved(),
                stats.facebook.stored_total(),
                stats.twitter.stored_total(),
                stats.syndicates,
            );
            println!(
                "resume counters: crawl.resume.runs={} crawl.resume.stages_skipped={} crawl.resume.skipped={}",
                telemetry.counter("crawl.resume.runs").value(),
                telemetry.counter("crawl.resume.stages_skipped").value(),
                telemetry.counter("crawl.resume.skipped").value(),
            );
            println!(
                "recovery counters: store.recovery.scans={} store.recovery.torn_tails={} \
                 store.recovery.quarantined={} store.recovery.uncommitted_snapshots={} \
                 store.recovery.writer_invalidations={}",
                telemetry.counter("store.recovery.scans").value(),
                telemetry.counter("store.recovery.torn_tails").value(),
                telemetry.counter("store.recovery.quarantined").value(),
                telemetry.counter("store.recovery.uncommitted_snapshots").value(),
                telemetry.counter("store.recovery.writer_invalidations").value(),
            );
            println!("store content hash: {:016x}", store_content_hash(&store)?);
            Ok(())
        }
        Err(e) => {
            if let Some(fs) = &failpoints {
                if fs.crashed() {
                    let injected = fs.injected();
                    println!(
                        "simulated crash at file operation {} (torn_writes={} enospc={}); \
                         rerun with --resume to continue",
                        fs.ops(),
                        injected.torn_writes,
                        injected.enospc,
                    );
                    std::process::exit(3);
                }
            }
            Err(e.into())
        }
    }
}

/// `repro chaos --scenario NAME [--seed S]`: run one scripted
/// network-fault drill and print its deterministic transcript. Exit code
/// 1 when any invariant (zero 5xx, accurate partials, post-heal
/// re-equivalence, breaker recovery) is violated. Everything printed is
/// seed-determined, so `repro chaos` piped to a file diffs clean against
/// a re-run at the same seed.
fn chaos_drill(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let scenario = args.scenario.as_deref().unwrap_or_else(|| {
        eprintln!(
            "repro chaos requires --scenario; one of: {}",
            crowdnet_core::chaosdrill::SCENARIOS.join(" ")
        );
        std::process::exit(2);
    });
    let report = crowdnet_core::chaosdrill::run(scenario, args.seed)?;
    print!("{}", report.transcript);
    if report.passed() {
        println!("chaos drill {scenario}: PASS");
        Ok(())
    } else {
        for v in &report.violations {
            println!("violation: {v}");
        }
        println!(
            "chaos drill {scenario}: FAIL ({} violation(s))",
            report.violations.len()
        );
        std::process::exit(1);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();
    if args.experiments.iter().any(|e| e == "telemetry-report") {
        return summarize_report(&args);
    }
    if args.experiments.iter().any(|e| e == "crawl") {
        return crawl_durable(&args);
    }
    if args.experiments.iter().any(|e| e == "column") {
        return column_admin(&args);
    }
    if args.experiments.iter().any(|e| e == "shard-server") {
        return shard_server(&args);
    }
    if args.experiments.iter().any(|e| e == "chaos") {
        return chaos_drill(&args);
    }
    let cfg = config(args.seed, &args.scale);
    cfg.telemetry
        .set_verbosity(telemetry_report::verbosity_from_count(args.verbose));
    if args.telemetry.is_some() {
        // Interactive runs report wall-clock timings; binding first wins
        // over the crawl stage's SimClock.
        let wall = SystemClock;
        cfg.telemetry
            .bind_clock_if_unbound(Arc::new(move || wall.now_ms()));
    }
    println!(
        "CrowdNet repro: seed={} scale={} ({} companies / {} users)",
        args.seed,
        args.scale,
        cfg.world.scale.companies(),
        cfg.world.scale.users()
    );
    println!("running pipeline (generate world -> crawl all four sources)...");
    let mut outcome = Pipeline::new(cfg.clone()).run()?;
    if args.columnar {
        outcome.build_columns()?;
        let stats = outcome.columns.as_ref().map(|c| c.stats()).unwrap_or_default();
        println!(
            "columnar projection attached: {} namespace(s), {} row(s), {} encoded bytes — analysis scans decode columns",
            stats.namespaces, stats.rows, stats.encoded_bytes
        );
    }
    println!(
        "crawled: {} companies, {} users, {} crunchbase, {} facebook, {} twitter (virtual time {:.1} min)",
        outcome.dataset.companies,
        outcome.dataset.users,
        outcome.dataset.crunchbase,
        outcome.dataset.facebook,
        outcome.dataset.twitter,
        outcome.crawl.virtual_elapsed_ms as f64 / 60_000.0
    );

    let all = [
        "dataset-stats",
        "fig3",
        "fig6",
        "investor-graph",
        "communities",
        "fig4",
        "fig5",
        "fig7",
        "causality",
        "dynamic",
        "predict",
        "correlations",
        "syndicates",
        "query",
        "store-stats",
    ];
    let serve_requested = args.experiments.iter().any(|e| e == "serve");
    let ingest_requested = args.experiments.iter().any(|e| e == "ingest");
    let selected: Vec<&str> = if args.experiments.iter().any(|e| e == "all") {
        all.to_vec()
    } else {
        args.experiments
            .iter()
            .map(String::as_str)
            .filter(|e| *e != "serve" && *e != "ingest")
            .collect()
    };
    for name in selected {
        run_experiment(name, &outcome, &cfg, &args.out)?;
    }
    if args.columnar {
        print_column_counters(&outcome.telemetry);
    }
    if serve_requested || ingest_requested {
        let store = Arc::new(outcome.store);
        if ingest_requested {
            ingest_live(Arc::clone(&store), &cfg.world, outcome.telemetry.clone(), &args)?;
        }
        if serve_requested {
            serve_store(store, outcome.telemetry.clone(), &args)?;
        }
    }
    if let Some(path) = &args.telemetry {
        let report = telemetry_report::build(&outcome.telemetry);
        telemetry_report::write(path, &report)?;
        println!("\ntelemetry report -> {}", path.display());
    }
    Ok(())
}

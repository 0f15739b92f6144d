//! `ingest-update-report` — machine-readable ingest-tier numbers: the
//! per-append cost of incremental artifact maintenance (changefeed drain
//! through the graph/entity/stats maintainers) and warm epoch publishing,
//! against the from-scratch `Artifacts::build` rebuild it replaces, at
//! 1/2/4 maintainer threads. Written as `BENCH_ingest_latency.json` for
//! tracking across commits.
//!
//! ```sh
//! cargo run --release -p crowdnet-bench --bin ingest-update-report [-- OUT.json]
//! ```
//!
//! Exits non-zero unless incremental per-append maintenance is at least
//! 10× faster than a full rebuild (the whole point of the ingest tier).

use crowdnet_core::pipeline::{Pipeline, PipelineConfig};
use crowdnet_ingest::{IngestConfig, IngestEngine};
use crowdnet_json::{obj, Value};
use crowdnet_serve::artifacts::NS_USERS;
use crowdnet_serve::{Artifacts, ArtifactsConfig};
use crowdnet_socialsim::Clock;
use crowdnet_store::{Document, Store};
use crowdnet_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 42;
/// Full-rebuild timing repetitions.
const REBUILDS: usize = 5;
/// Appended investor-portfolio updates per thread configuration.
const APPENDS: usize = 256;
/// Appends per drain batch (the live driver's daily trickle shape).
const BATCH: usize = 8;
/// Warm epoch publishes timed per thread configuration.
const PUBLISHES: usize = 8;
/// Required speedup of per-append maintenance over a full rebuild.
const MIN_SPEEDUP: f64 = 10.0;

fn wall_telemetry() -> Telemetry {
    let telemetry = Telemetry::new();
    let wall = crowdnet_socialsim::clock::SystemClock;
    telemetry.bind_clock(Arc::new(move || wall.now_ms()));
    telemetry
}

fn investor_doc(id: u32, portfolio: &[u64]) -> Document {
    let arr = portfolio.iter().map(|&c| Value::from(c)).collect::<Vec<_>>();
    Document::new(
        format!("user:{id}"),
        obj! {"id" => u64::from(id), "role" => "investor", "investments" => Value::Arr(arr)},
    )
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_ingest_latency.json".into());

    let outcome = Pipeline::new(PipelineConfig::tiny(SEED)).run()?;
    let store: Arc<Store> = Arc::new(outcome.store);
    let ctx = outcome.ctx;

    // Baseline: the from-scratch rebuild the serving layer would run after
    // every write without the ingest tier.
    let mut rebuild_ms = Vec::with_capacity(REBUILDS);
    for _ in 0..REBUILDS {
        let t0 = Instant::now();
        let built = Artifacts::build(&store, ctx, &wall_telemetry(), &ArtifactsConfig::default())?;
        rebuild_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(built.graph.investor_count() > 0, "rebuild produced an empty graph");
    }
    let rebuild_mean_ms = mean(&rebuild_ms);
    eprintln!("full rebuild: {rebuild_mean_ms:.2} ms mean over {REBUILDS} runs");

    // Company pool for synthetic portfolio updates.
    let companies: Vec<u64> = {
        let built = Artifacts::build(&store, ctx, &wall_telemetry(), &ArtifactsConfig::default())?;
        (0..built.graph.company_count() as u32)
            .map(|c| u64::from(built.graph.company_id(c)))
            .collect()
    };

    let mut thread_rows: Vec<Value> = Vec::new();
    let mut worst_speedup = f64::INFINITY;
    for threads in [1usize, 2, 4] {
        // Fresh identical corpus per configuration (same seed), so thread
        // counts are compared on the same store rather than on one that
        // previous configurations already grew.
        let store: Arc<Store> = Arc::new(Pipeline::new(PipelineConfig::tiny(SEED)).run()?.store);
        let telemetry = wall_telemetry();
        let mut engine = IngestEngine::new(
            Arc::clone(&store),
            IngestConfig::default(),
            telemetry.clone(),
        )?;
        engine.publish(None); // cold epoch 0: PageRank's initial solve

        let mut rng = StdRng::seed_from_u64(SEED ^ threads as u64);
        let mut next_id = 1_000_000u32 + 10_000 * threads as u32;
        let mut apply_us: Vec<f64> = Vec::with_capacity(APPENDS / BATCH);
        let mut publish_ms: Vec<f64> = Vec::with_capacity(PUBLISHES);
        let mut appended = 0usize;
        while appended < APPENDS {
            for _ in 0..BATCH {
                // Fresh investor with a small random portfolio: exercises
                // node insertion, degree updates and PageRank repair.
                let size = rng.random_range(1..5usize);
                let portfolio: Vec<u64> = (0..size)
                    .map(|_| companies[rng.random_range(0..companies.len())])
                    .collect();
                store.put(NS_USERS, investor_doc(next_id, &portfolio))?;
                next_id += 1;
                appended += 1;
            }
            let t0 = Instant::now();
            let report = engine.drain_with_threads(threads)?;
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(report.docs, BATCH as u64, "drain must apply the whole batch");
            apply_us.push(dt * 1e6 / BATCH as f64);
            if publish_ms.len() < PUBLISHES && appended % (APPENDS / PUBLISHES) == 0 {
                let t1 = Instant::now();
                engine.publish(None);
                publish_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            }
        }
        let apply_mean_us = mean(&apply_us);
        let publish_mean_ms = mean(&publish_ms);
        let speedup = rebuild_mean_ms * 1e3 / apply_mean_us;
        worst_speedup = worst_speedup.min(speedup);
        eprintln!(
            "threads={threads}: apply {apply_mean_us:.1} us/append, warm publish {publish_mean_ms:.2} ms, \
             speedup over rebuild {speedup:.0}x"
        );
        thread_rows.push(obj! {
            "threads" => threads as u64,
            "appends" => appended as u64,
            "batch" => BATCH as u64,
            "apply_mean_us_per_append" => apply_mean_us,
            "publish_mean_ms" => publish_mean_ms,
            "publishes" => publish_ms.len() as u64,
            "speedup_vs_rebuild" => speedup,
            "pagerank_sweeps" => telemetry.counter("ingest.pagerank.sweeps").value(),
            "pagerank_recomputes" => telemetry.counter("ingest.pagerank.recomputes").value(),
        });
    }

    let report = obj! {
        "bench" => "ingest_latency",
        "world" => obj! { "seed" => SEED, "scale" => "tiny" },
        "full_rebuild_ms_mean" => rebuild_mean_ms,
        "full_rebuild_runs" => REBUILDS as u64,
        "incremental" => Value::Arr(thread_rows),
        "min_required_speedup" => MIN_SPEEDUP,
        "worst_speedup" => worst_speedup,
    };
    if worst_speedup < MIN_SPEEDUP {
        return Err(format!(
            "incremental maintenance only {worst_speedup:.1}x faster than full rebuild \
             (required ≥ {MIN_SPEEDUP}x)"
        )
        .into());
    }
    std::fs::write(&out, report.to_pretty() + "\n")?;
    println!("wrote {out}");
    Ok(())
}

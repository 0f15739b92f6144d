//! `crawl-throughput-report` — machine-readable crawl-tier throughput
//! numbers: BFS docs/sec vs worker count and Twitter token-sharding virtual
//! wait, written as `BENCH_crawl_throughput.json` for tracking across
//! commits (the JSON sibling of the interactive `crawl_throughput` bench).
//!
//! ```sh
//! cargo run --release -p crowdnet-bench --bin crawl-throughput-report [-- OUT.json]
//! ```

use crowdnet_crawl::bfs::{crawl_angellist, BfsConfig};
use crowdnet_crawl::links::company_links;
use crowdnet_crawl::retry::RetryPolicy;
use crowdnet_crawl::social::crawl_twitter;
use crowdnet_crawl::tokens::TokenPool;
use crowdnet_json::{obj, Value};
use crowdnet_socialsim::clock::SimClock;
use crowdnet_socialsim::sources::angellist::AngelListApi;
use crowdnet_socialsim::sources::twitter::TwitterApi;
use crowdnet_socialsim::sources::FaultModel;
use crowdnet_socialsim::{Clock, Scale, World, WorldConfig};
use crowdnet_store::Store;
use crowdnet_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 42;
const COMPANIES: u32 = 4_000;
const USERS: u32 = 4_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_crawl_throughput.json".into());
    let world = Arc::new(World::generate(&WorldConfig::at_scale(
        SEED,
        Scale::Custom { companies: COMPANIES, users: USERS },
    )));

    // BFS throughput vs worker count, with telemetry counters as the
    // document tally (they reconcile with BfsStats by construction).
    let mut bfs_rows: Vec<Value> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let telemetry = Telemetry::new();
        let api = AngelListApi::reliable(Arc::clone(&world));
        let store = Store::memory(8).with_telemetry(&telemetry);
        let sim = Arc::new(SimClock::new());
        let clock: Arc<dyn Clock> = sim.clone();
        let cfg = BfsConfig {
            workers,
            telemetry: telemetry.clone(),
            ..BfsConfig::default()
        };
        let started = Instant::now();
        let stats = crawl_angellist(&api, &store, &clock, &cfg)?;
        let elapsed_ms = started.elapsed().as_millis() as u64;
        let docs = telemetry.counter("store.append.docs").value();
        let docs_per_sec = docs as f64 / (elapsed_ms.max(1) as f64 / 1000.0);
        eprintln!(
            "bfs workers={workers}: {} companies, {} users, {docs} docs in {elapsed_ms} ms ({docs_per_sec:.0} docs/s)",
            stats.companies, stats.users
        );
        bfs_rows.push(obj! {
            "workers" => workers as u64,
            "companies" => stats.companies as u64,
            "users" => stats.users as u64,
            "docs" => docs,
            "elapsed_ms" => elapsed_ms,
            "docs_per_sec" => docs_per_sec,
            "virtual_ms" => sim.now_ms(),
        });
    }

    // Twitter token sharding: virtual wait vs pool size over one shared
    // pre-crawled AngelList store.
    let base_store = {
        let api = AngelListApi::reliable(Arc::clone(&world));
        let store = Store::memory(8);
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        crawl_angellist(&api, &store, &clock, &BfsConfig::default())?;
        store
    };
    let links = company_links(&base_store, 4)?;
    let mut twitter_rows: Vec<Value> = Vec::new();
    for (owners, per_owner) in [(1usize, 1usize), (1, 5), (3, 5)] {
        let telemetry = Telemetry::new();
        let sim = Arc::new(SimClock::new());
        let api = TwitterApi::new(Arc::clone(&world), sim.clone(), FaultModel::none());
        let names: Vec<String> = (0..owners).map(|i| format!("m{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let pool = TokenPool::register(&api, sim.clone(), &refs, per_owner)?;
        let clock: Arc<dyn Clock> = sim.clone();
        let started = Instant::now();
        let stats = crawl_twitter(
            &api,
            &base_store,
            &links,
            &pool,
            &clock,
            &RetryPolicy::default(),
            4,
            &telemetry,
        )?;
        let elapsed_ms = started.elapsed().as_millis() as u64;
        let tokens = owners * per_owner;
        eprintln!(
            "twitter tokens={tokens}: {} profiles, virtual wait {:.1} min, real {elapsed_ms} ms",
            stats.twitter_profiles,
            sim.now_ms() as f64 / 60_000.0
        );
        twitter_rows.push(obj! {
            "tokens" => tokens as u64,
            "profiles" => stats.twitter_profiles as u64,
            "attempts" => telemetry.counter("crawl.twitter.attempts").value(),
            "rate_limited" => telemetry.counter("crawl.twitter.retry_ratelimit").value(),
            "virtual_wait_ms" => sim.now_ms(),
            "elapsed_ms" => elapsed_ms,
        });
    }

    let report = obj! {
        "bench" => "crawl_throughput",
        "world" => obj! {
            "seed" => SEED,
            "companies" => u64::from(COMPANIES),
            "users" => u64::from(USERS),
        },
        "bfs_workers" => Value::Arr(bfs_rows),
        "twitter_tokens" => Value::Arr(twitter_rows),
    };
    std::fs::write(&out, report.to_pretty() + "\n")?;
    println!("wrote {out}");
    Ok(())
}

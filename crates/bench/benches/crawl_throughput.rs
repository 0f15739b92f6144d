//! Crawl-tier performance: BFS throughput vs worker count, and the paper's
//! multi-token Twitter sharding ("we distribute the Twitter crawling job to
//! several machines, using different access tokens, which tackles the rate
//! limit issue effectively") measured as *virtual* wall-clock — the time the
//! crawl would have spent waiting on rate-limit windows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowdnet_crawl::bfs::{crawl_angellist, BfsConfig};
use crowdnet_crawl::links::company_links;
use crowdnet_crawl::retry::RetryPolicy;
use crowdnet_crawl::social::crawl_twitter;
use crowdnet_crawl::tokens::TokenPool;
use crowdnet_socialsim::clock::SimClock;
use crowdnet_socialsim::sources::angellist::AngelListApi;
use crowdnet_socialsim::sources::twitter::TwitterApi;
use crowdnet_socialsim::sources::FaultModel;
use crowdnet_socialsim::{Clock, Scale, World, WorldConfig};
use crowdnet_store::Store;
use crowdnet_telemetry::Telemetry;
use std::hint::black_box;
use std::sync::{Arc, OnceLock};

fn world() -> &'static Arc<World> {
    static WORLD: OnceLock<Arc<World>> = OnceLock::new();
    WORLD.get_or_init(|| {
        Arc::new(World::generate(&WorldConfig::at_scale(
            42,
            Scale::Custom {
                companies: 4_000,
                users: 4_000,
            },
        )))
    })
}

fn bench_bfs_workers(c: &mut Criterion) {
    let world = world();
    let mut group = c.benchmark_group("crawl_bfs_workers");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &workers| {
            b.iter(|| {
                let api = AngelListApi::reliable(Arc::clone(world));
                let store = Store::memory(8);
                let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
                let cfg = BfsConfig {
                    workers,
                    ..BfsConfig::default()
                };
                let stats = crawl_angellist(&api, &store, &clock, &cfg).expect("bfs");
                black_box(stats.companies)
            })
        });
    }
    group.finish();
}

/// Virtual milliseconds the Twitter crawl spends riding rate-limit windows,
/// as a function of pool size. Criterion measures real time; the interesting
/// number (virtual waiting) is printed once per pool size.
fn bench_twitter_token_sharding(c: &mut Criterion) {
    let world = world();
    // Pre-crawl AngelList once so crawl_twitter has its link table.
    let base_store = {
        let api = AngelListApi::reliable(Arc::clone(world));
        let store = Store::memory(8);
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        crawl_angellist(&api, &store, &clock, &BfsConfig::default()).expect("bfs");
        Arc::new(store)
    };
    let links = company_links(&base_store, 4).expect("links");
    let mut group = c.benchmark_group("crawl_twitter_tokens");
    group.sample_size(10);
    for (owners, per_owner) in [(1usize, 1usize), (1, 5), (3, 5)] {
        let tokens = owners * per_owner;
        let mut reported = false;
        group.bench_with_input(
            BenchmarkId::from_parameter(tokens),
            &(owners, per_owner),
            |b, &(owners, per_owner)| {
                b.iter(|| {
                    let sim = Arc::new(SimClock::new());
                    let api = TwitterApi::new(Arc::clone(world), sim.clone(), FaultModel::none());
                    let names: Vec<String> = (0..owners).map(|i| format!("m{i}")).collect();
                    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                    let pool = TokenPool::register(&api, sim.clone(), &refs, per_owner).expect("pool");
                    let clock: Arc<dyn Clock> = sim.clone();
                    let stats = crawl_twitter(
                        &api,
                        &base_store,
                        &links,
                        &pool,
                        &clock,
                        &RetryPolicy::default(),
                        4,
                        &Telemetry::new(),
                    )
                    .expect("twitter");
                    if !reported {
                        reported = true;
                        eprintln!(
                            "  [tokens={tokens}] fetched {} profiles, virtual wait {:.1} min",
                            stats.twitter_profiles,
                            sim.now_ms() as f64 / 60_000.0
                        );
                    }
                    black_box(stats.twitter_profiles)
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = crawl;
    config = Criterion::default().sample_size(10);
    targets = bench_bfs_workers, bench_twitter_token_sharding,
}
criterion_main!(crawl);

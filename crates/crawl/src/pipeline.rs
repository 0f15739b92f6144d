//! The full four-source crawl (Figure 2's collection tier).
//!
//! [`Crawler::run`] chains the paper's collection process end to end:
//! AngelList BFS → CrunchBase augmentation → Facebook pages → Twitter
//! profiles, writing each source into its own store namespace. The three
//! stages after the BFS share one read of the crawled companies
//! ([`company_links`]).

use crate::augment::{augment_crunchbase, AugmentStats};
use crate::bfs::{crawl_angellist, crawl_angellist_resumable, BfsConfig, BfsStats, NS_CHECKPOINT};
use crate::error::CrawlError;
use crate::links::{company_links, CompanyLink};
use crate::retry::RetryPolicy;
use crate::social::{crawl_facebook, crawl_twitter, SocialStats};
use crate::tokens::TokenPool;
use crowdnet_json::{obj, Value};
use crowdnet_socialsim::sources::angellist::AngelListApi;
use crowdnet_socialsim::sources::crunchbase::CrunchBaseApi;
use crowdnet_socialsim::sources::facebook::FacebookApi;
use crowdnet_socialsim::sources::twitter::TwitterApi;
use crowdnet_socialsim::sources::FaultModel;
use crowdnet_socialsim::{Clock, SimClock, World};
use crowdnet_store::{Document, Store};
use crowdnet_telemetry::Telemetry;
use std::sync::Arc;

/// Configuration for a full crawl.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Worker threads for each stage.
    pub workers: usize,
    /// BFS depth/entity budgets.
    pub bfs: BfsConfig,
    /// Retry policy shared by all stages.
    pub retry: RetryPolicy,
    /// Simulated crawl machines (each registers Twitter apps).
    pub twitter_owners: Vec<String>,
    /// Twitter apps per owner (≤ 5, the service cap).
    pub twitter_apps_per_owner: usize,
    /// Transient-fault rate injected into every API (0.0 = reliable).
    pub fault_rate: f64,
    /// Seed for fault injection.
    pub fault_seed: u64,
    /// Observability sink shared by every stage. The crawler binds its
    /// `SimClock` into it (unless a caller bound a clock first) so spans
    /// and events carry virtual timestamps.
    pub telemetry: Telemetry,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            workers: 4,
            bfs: BfsConfig::default(),
            retry: RetryPolicy::default(),
            twitter_owners: vec!["machine-1".into(), "machine-2".into(), "machine-3".into()],
            twitter_apps_per_owner: 5,
            fault_rate: 0.0,
            fault_seed: 0,
            telemetry: Telemetry::new(),
        }
    }
}

/// Aggregate counters from a full crawl.
#[derive(Debug, Clone, Default)]
pub struct CrawlStats {
    /// AngelList BFS counters.
    pub bfs: BfsStats,
    /// CrunchBase augmentation counters.
    pub augment: AugmentStats,
    /// Facebook counters.
    pub facebook: SocialStats,
    /// Twitter counters.
    pub twitter: SocialStats,
    /// Syndicate documents stored.
    pub syndicates: usize,
    /// Total virtual milliseconds the crawl's clock advanced.
    pub virtual_elapsed_ms: u64,
}

/// The end-to-end crawler over a simulated world.
pub struct Crawler {
    world: Arc<World>,
    clock: Arc<SimClock>,
    config: CrawlConfig,
}

impl Crawler {
    /// Build a crawler over `world`.
    pub fn new(world: Arc<World>, config: CrawlConfig) -> Crawler {
        Crawler {
            world,
            clock: Arc::new(SimClock::new()),
            config,
        }
    }

    /// The crawler's virtual clock (shared with every simulated service).
    pub fn clock(&self) -> Arc<SimClock> {
        Arc::clone(&self.clock)
    }

    /// Run all four stages, writing into `store`.
    pub fn run(&self, store: &Store) -> Result<CrawlStats, CrawlError> {
        let cfg = &self.config;
        let dyn_clock: Arc<dyn Clock> = self.clock.clone();
        let start_ms = self.clock.now_ms();

        // Time telemetry on the crawl's virtual clock unless an outer
        // component (the repro binary) already bound a real one.
        let telemetry = cfg.telemetry.clone();
        let sim = self.clock.clone();
        telemetry.bind_clock_if_unbound(Arc::new(move || sim.now_ms()));

        // Stage 1: AngelList BFS.
        let angellist = AngelListApi::new(
            Arc::clone(&self.world),
            FaultModel::new(cfg.fault_rate, cfg.fault_seed),
        );
        let mut bfs_cfg = cfg.bfs.clone();
        bfs_cfg.workers = cfg.workers;
        bfs_cfg.retry = cfg.retry;
        bfs_cfg.telemetry = telemetry.clone();
        let bfs = {
            let _span = telemetry.span("crawl.angellist");
            crawl_angellist(&angellist, store, &dyn_clock, &bfs_cfg)?
        };
        let syndicates = {
            let _span = telemetry.span("crawl.syndicates");
            crate::syndicates::crawl_syndicates(&angellist, store, &dyn_clock, &cfg.retry, &telemetry)?
        };

        // The crawled companies, read once for the three stages below.
        let links = company_links(store, cfg.workers)?;

        // Stage 2: CrunchBase augmentation.
        let crunchbase = CrunchBaseApi::new(
            Arc::clone(&self.world),
            FaultModel::new(cfg.fault_rate, cfg.fault_seed ^ 1),
        );
        let augment = {
            let _span = telemetry.span("crawl.crunchbase");
            augment_crunchbase(
                &crunchbase, store, &links, &dyn_clock, &cfg.retry, cfg.workers, &telemetry,
            )?
        };

        // Stage 3: Facebook pages.
        let facebook = FacebookApi::new(
            Arc::clone(&self.world),
            self.clock.clone(),
            FaultModel::new(cfg.fault_rate, cfg.fault_seed ^ 2),
        );
        let fb = {
            let _span = telemetry.span("crawl.facebook");
            crawl_facebook(&facebook, store, &links, &dyn_clock, &cfg.retry, cfg.workers, &telemetry)?
        };

        // Stage 4: Twitter profiles through the token pool.
        let twitter = TwitterApi::new(
            Arc::clone(&self.world),
            self.clock.clone(),
            FaultModel::new(cfg.fault_rate, cfg.fault_seed ^ 3),
        );
        let owners: Vec<&str> = cfg.twitter_owners.iter().map(String::as_str).collect();
        if owners.is_empty() {
            return Err(CrawlError::Config("need at least one twitter owner".into()));
        }
        let pool = TokenPool::register(
            &twitter,
            self.clock.clone(),
            &owners,
            cfg.twitter_apps_per_owner,
        )
        .map_err(CrawlError::Api)?;
        let tw = {
            let _span = telemetry.span("crawl.twitter");
            crawl_twitter(
                &twitter, store, &links, &pool, &dyn_clock, &cfg.retry, cfg.workers, &telemetry,
            )?
        };

        Ok(CrawlStats {
            bfs,
            augment,
            facebook: fb,
            twitter: tw,
            syndicates,
            virtual_elapsed_ms: self.clock.now_ms() - start_ms,
        })
    }
}

/// Checkpoint key for the full pipeline, stored in [`NS_CHECKPOINT`].
pub const PIPELINE_CHECKPOINT_KEY: &str = "pipeline";

/// Persisted progress of a [`Crawler::run_resumable`] invocation: which
/// stages have completed (with their final counters) plus the Twitter
/// token pool's park state. The AngelList BFS stage keeps its own
/// finer-grained per-round checkpoint ([`crate::bfs::Checkpoint`]), so it
/// has no entry here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineCheckpoint {
    /// Syndicate documents stored, once that stage finished.
    pub syndicates: Option<usize>,
    /// CrunchBase augmentation counters, once that stage finished.
    pub augment: Option<AugmentStats>,
    /// Facebook counters, once that stage finished.
    pub facebook: Option<SocialStats>,
    /// Twitter counters, once that stage finished.
    pub twitter: Option<SocialStats>,
    /// Twitter token park state as `(token, remaining_park_ms)`, exported
    /// when the Twitter stage finishes so a follow-up crawl in a restarted
    /// process (fresh virtual clock) still honours unexpired windows.
    pub tokens: Vec<(String, u64)>,
}

fn encode_social(s: &SocialStats) -> Value {
    obj! {
        "facebook_pages" => s.facebook_pages,
        "twitter_profiles" => s.twitter_profiles,
        "missing" => s.missing,
        "bad_urls" => s.bad_urls,
        "already_stored" => s.already_stored,
    }
}

fn decode_social(v: &Value) -> Option<SocialStats> {
    let u = |f: &str| v.get(f).and_then(Value::as_u64).map(|x| x as usize);
    Some(SocialStats {
        facebook_pages: u("facebook_pages")?,
        twitter_profiles: u("twitter_profiles")?,
        missing: u("missing")?,
        bad_urls: u("bad_urls")?,
        already_stored: u("already_stored")?,
    })
}

impl PipelineCheckpoint {
    /// Serialize to a JSON document body.
    pub fn encode(&self) -> Value {
        obj! {
            "syndicates" => self.syndicates.map(|n| n as u64),
            "augment" => self.augment.as_ref().map(|a| obj! {
                "direct" => a.direct,
                "by_search" => a.by_search,
                "ambiguous" => a.ambiguous,
                "not_found" => a.not_found,
                "skipped_existing" => a.skipped_existing,
            }),
            "facebook" => self.facebook.as_ref().map(encode_social),
            "twitter" => self.twitter.as_ref().map(encode_social),
            "tokens" => Value::Arr(
                self.tokens
                    .iter()
                    .map(|(t, ms)| crowdnet_json::arr![t.as_str(), *ms])
                    .collect::<Vec<_>>(),
            ),
        }
    }

    /// Deserialize; `None` for malformed documents.
    pub fn decode(v: &Value) -> Option<PipelineCheckpoint> {
        let present = |field: &str| v.get(field).filter(|x| !x.is_null());
        let syndicates = match present("syndicates") {
            None => None,
            Some(n) => Some(n.as_u64()? as usize),
        };
        let augment = match present("augment") {
            None => None,
            Some(a) => {
                let u = |f: &str| a.get(f).and_then(Value::as_u64).map(|x| x as usize);
                Some(AugmentStats {
                    direct: u("direct")?,
                    by_search: u("by_search")?,
                    ambiguous: u("ambiguous")?,
                    not_found: u("not_found")?,
                    skipped_existing: u("skipped_existing")?,
                })
            }
        };
        let facebook = match present("facebook") {
            None => None,
            Some(s) => Some(decode_social(s)?),
        };
        let twitter = match present("twitter") {
            None => None,
            Some(s) => Some(decode_social(s)?),
        };
        let tokens = v
            .get("tokens")?
            .as_arr()?
            .iter()
            .map(|e| Some((e.at(0)?.as_str()?.to_string(), e.at(1)?.as_u64()?)))
            .collect::<Option<Vec<_>>>()?;
        Some(PipelineCheckpoint { syndicates, augment, facebook, twitter, tokens })
    }
}

/// Load the latest persisted pipeline checkpoint, if any.
pub fn load_pipeline_checkpoint(
    store: &Store,
) -> Result<Option<PipelineCheckpoint>, CrawlError> {
    match store.scan(NS_CHECKPOINT) {
        Ok(docs) => Ok(docs
            .into_iter()
            .rfind(|d| d.key == PIPELINE_CHECKPOINT_KEY)
            .and_then(|d| PipelineCheckpoint::decode(&d.body))),
        Err(crowdnet_store::StoreError::NamespaceNotFound(_)) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// The link table held in `cache`, read from the store on first use.
fn links_once<'a>(
    cache: &'a mut Option<Vec<CompanyLink>>,
    store: &Store,
    workers: usize,
) -> Result<&'a [CompanyLink], CrawlError> {
    let links = match cache.take() {
        Some(links) => links,
        None => company_links(store, workers)?,
    };
    Ok(cache.insert(links))
}

fn save_pipeline_checkpoint(store: &Store, cp: &PipelineCheckpoint) -> Result<(), CrawlError> {
    store
        .put(NS_CHECKPOINT, Document::new(PIPELINE_CHECKPOINT_KEY, cp.encode()))
        .map_err(CrawlError::from)?;
    Ok(())
}

impl Crawler {
    /// Run all stages like [`Crawler::run`], persisting progress into the
    /// store so an interrupted crawl (process kill, torn write, full disk)
    /// continues from its last durable position instead of starting over.
    ///
    /// Totals from a resumed run equal an uninterrupted run's: completed
    /// stages replay their checkpointed counters, and a stage interrupted
    /// mid-flight skips documents that already landed (counted in
    /// `already_stored` / `skipped_existing` and under the
    /// `crawl.resume.skipped` telemetry counter) so the store never holds
    /// duplicates.
    pub fn run_resumable(&self, store: &Store) -> Result<CrawlStats, CrawlError> {
        let cfg = &self.config;
        let dyn_clock: Arc<dyn Clock> = self.clock.clone();
        let start_ms = self.clock.now_ms();

        let telemetry = cfg.telemetry.clone();
        let sim = self.clock.clone();
        telemetry.bind_clock_if_unbound(Arc::new(move || sim.now_ms()));

        let mut cp = match load_pipeline_checkpoint(store)? {
            Some(cp) => {
                telemetry.counter("crawl.resume.runs").inc();
                cp
            }
            None => PipelineCheckpoint::default(),
        };
        let stages_skipped = telemetry.counter("crawl.resume.stages_skipped");

        // Stage 1: AngelList BFS — checkpoints itself per round.
        let angellist = AngelListApi::new(
            Arc::clone(&self.world),
            FaultModel::new(cfg.fault_rate, cfg.fault_seed),
        );
        let mut bfs_cfg = cfg.bfs.clone();
        bfs_cfg.workers = cfg.workers;
        bfs_cfg.retry = cfg.retry;
        bfs_cfg.telemetry = telemetry.clone();
        let bfs = {
            let _span = telemetry.span("crawl.angellist");
            crawl_angellist_resumable(&angellist, store, &dyn_clock, &bfs_cfg)?
        };

        let syndicates = match cp.syndicates {
            Some(n) => {
                stages_skipped.inc();
                n
            }
            None => {
                let n = {
                    let _span = telemetry.span("crawl.syndicates");
                    crate::syndicates::crawl_syndicates(
                        &angellist, store, &dyn_clock, &cfg.retry, &telemetry,
                    )?
                };
                cp.syndicates = Some(n);
                save_pipeline_checkpoint(store, &cp)?;
                n
            }
        };

        // The crawled companies, read on first use: a resumed run whose
        // three link stages all completed reads nothing.
        let mut links: Option<Vec<CompanyLink>> = None;

        let augment = match cp.augment.clone() {
            Some(a) => {
                stages_skipped.inc();
                a
            }
            None => {
                let crunchbase = CrunchBaseApi::new(
                    Arc::clone(&self.world),
                    FaultModel::new(cfg.fault_rate, cfg.fault_seed ^ 1),
                );
                let a = {
                    let _span = telemetry.span("crawl.crunchbase");
                    let links = links_once(&mut links, store, cfg.workers)?;
                    augment_crunchbase(
                        &crunchbase, store, links, &dyn_clock, &cfg.retry, cfg.workers, &telemetry,
                    )?
                };
                cp.augment = Some(a.clone());
                save_pipeline_checkpoint(store, &cp)?;
                a
            }
        };

        let fb = match cp.facebook.clone() {
            Some(s) => {
                stages_skipped.inc();
                s
            }
            None => {
                let facebook = FacebookApi::new(
                    Arc::clone(&self.world),
                    self.clock.clone(),
                    FaultModel::new(cfg.fault_rate, cfg.fault_seed ^ 2),
                );
                let s = {
                    let _span = telemetry.span("crawl.facebook");
                    let links = links_once(&mut links, store, cfg.workers)?;
                    crawl_facebook(
                        &facebook, store, links, &dyn_clock, &cfg.retry, cfg.workers, &telemetry,
                    )?
                };
                cp.facebook = Some(s.clone());
                save_pipeline_checkpoint(store, &cp)?;
                s
            }
        };

        let tw = match cp.twitter.clone() {
            Some(s) => {
                stages_skipped.inc();
                s
            }
            None => {
                let twitter = TwitterApi::new(
                    Arc::clone(&self.world),
                    self.clock.clone(),
                    FaultModel::new(cfg.fault_rate, cfg.fault_seed ^ 3),
                );
                let owners: Vec<&str> = cfg.twitter_owners.iter().map(String::as_str).collect();
                if owners.is_empty() {
                    return Err(CrawlError::Config("need at least one twitter owner".into()));
                }
                let pool = TokenPool::register(
                    &twitter,
                    self.clock.clone(),
                    &owners,
                    cfg.twitter_apps_per_owner,
                )
                .map_err(CrawlError::Api)?;
                pool.restore_state(&cp.tokens);
                let s = {
                    let _span = telemetry.span("crawl.twitter");
                    let links = links_once(&mut links, store, cfg.workers)?;
                    crawl_twitter(
                        &twitter, store, links, &pool, &dyn_clock, &cfg.retry, cfg.workers,
                        &telemetry,
                    )?
                };
                cp.tokens = pool.export_state();
                cp.twitter = Some(s.clone());
                save_pipeline_checkpoint(store, &cp)?;
                s
            }
        };

        Ok(CrawlStats {
            bfs,
            augment,
            facebook: fb,
            twitter: tw,
            syndicates,
            virtual_elapsed_ms: self.clock.now_ms() - start_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::NS_CRUNCHBASE;
    use crate::bfs::{NS_COMPANIES, NS_USERS};
    use crate::social::{NS_FACEBOOK, NS_TWITTER};
    use crowdnet_socialsim::WorldConfig;

    #[test]
    fn full_pipeline_populates_all_namespaces() {
        let world = Arc::new(World::generate(&WorldConfig::tiny(42)));
        let store = Store::memory(4);
        let crawler = Crawler::new(Arc::clone(&world), CrawlConfig::default());
        let stats = crawler.run(&store).unwrap();

        assert!(stats.bfs.companies > 0);
        assert!(stats.bfs.users > 0);
        assert!(stats.augment.resolved() > 0);
        assert!(stats.facebook.facebook_pages > 0);
        assert!(stats.twitter.twitter_profiles > 0);

        let namespaces = store.namespaces().unwrap();
        for required in [NS_COMPANIES, NS_USERS, NS_CRUNCHBASE, NS_FACEBOOK, NS_TWITTER] {
            assert!(namespaces.contains(&required.to_string()), "missing {required}");
        }
        // The syndicate namespace appears exactly when syndicates exist
        // (tiny worlds may legitimately have none).
        let has_ns = namespaces.contains(&crate::syndicates::NS_SYNDICATES.to_string());
        assert_eq!(has_ns, stats.syndicates > 0);
    }

    #[test]
    fn pipeline_with_faults_still_completes() {
        let world = Arc::new(World::generate(&WorldConfig::tiny(7)));
        let store = Store::memory(4);
        let cfg = CrawlConfig {
            fault_rate: 0.10,
            fault_seed: 99,
            ..CrawlConfig::default()
        };
        let crawler = Crawler::new(Arc::clone(&world), cfg);
        let stats = crawler.run(&store).unwrap();
        // Everything the BFS found with a Facebook link gets fetched even
        // under a 10% transient-fault rate.
        let linked_fb = world.companies.iter().filter(|c| c.facebook.is_some()).count();
        assert!(stats.facebook.facebook_pages as f64 >= linked_fb as f64 * 0.9);
        assert!(stats.facebook.facebook_pages <= linked_fb);
    }

    fn namespace_keys(store: &Store, ns: &str) -> Vec<String> {
        match store.scan(ns) {
            Ok(docs) => {
                let mut keys: Vec<String> = docs.into_iter().map(|d| d.key).collect();
                keys.sort();
                keys
            }
            Err(_) => Vec::new(),
        }
    }

    const DATA_NAMESPACES: [&str; 6] = [
        NS_COMPANIES,
        NS_USERS,
        NS_CRUNCHBASE,
        NS_FACEBOOK,
        NS_TWITTER,
        crate::syndicates::NS_SYNDICATES,
    ];

    #[test]
    fn resumable_run_matches_plain_run_on_a_fresh_store() {
        let world = Arc::new(World::generate(&WorldConfig::tiny(42)));
        let plain_store = Store::memory(4);
        let plain = Crawler::new(Arc::clone(&world), CrawlConfig::default())
            .run(&plain_store)
            .unwrap();
        let resumable_store = Store::memory(4);
        let resumed = Crawler::new(Arc::clone(&world), CrawlConfig::default())
            .run_resumable(&resumable_store)
            .unwrap();

        assert_eq!(plain.bfs.companies, resumed.bfs.companies);
        assert_eq!(plain.bfs.users, resumed.bfs.users);
        assert_eq!(plain.syndicates, resumed.syndicates);
        assert_eq!(plain.augment, resumed.augment);
        assert_eq!(plain.facebook, resumed.facebook);
        assert_eq!(plain.twitter, resumed.twitter);
        for ns in DATA_NAMESPACES {
            assert_eq!(
                namespace_keys(&plain_store, ns),
                namespace_keys(&resumable_store, ns),
                "namespace {ns} diverged"
            );
        }
    }

    #[test]
    fn second_resumable_run_replays_the_checkpoint_without_refetching() {
        let world = Arc::new(World::generate(&WorldConfig::tiny(42)));
        let store = Store::memory(4);
        let telemetry = Telemetry::new();
        let cfg = CrawlConfig { telemetry: telemetry.clone(), ..CrawlConfig::default() };
        let first = Crawler::new(Arc::clone(&world), cfg.clone()).run_resumable(&store).unwrap();
        let before: Vec<Vec<String>> =
            DATA_NAMESPACES.iter().map(|ns| namespace_keys(&store, ns)).collect();

        let second = Crawler::new(Arc::clone(&world), cfg).run_resumable(&store).unwrap();
        // Every stage short-circuits off the persisted checkpoint: same
        // counters, not one extra document.
        assert_eq!(first.augment, second.augment);
        assert_eq!(first.facebook, second.facebook);
        assert_eq!(first.twitter, second.twitter);
        assert_eq!(first.syndicates, second.syndicates);
        assert_eq!(first.bfs.companies, second.bfs.companies);
        assert_eq!(telemetry.counter("crawl.resume.runs").value(), 1);
        assert_eq!(telemetry.counter("crawl.resume.stages_skipped").value(), 4);
        let after: Vec<Vec<String>> =
            DATA_NAMESPACES.iter().map(|ns| namespace_keys(&store, ns)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn a_crawl_reads_the_crawled_companies_once() {
        let world = Arc::new(World::generate(&WorldConfig::tiny(42)));
        for resumable in [false, true] {
            let telemetry = Telemetry::new();
            let store = Store::memory(4).with_telemetry(&telemetry);
            let cfg = CrawlConfig { telemetry: telemetry.clone(), ..CrawlConfig::default() };
            let crawler = Crawler::new(Arc::clone(&world), cfg);
            let stats = if resumable { crawler.run_resumable(&store) } else { crawler.run(&store) };
            assert!(stats.unwrap().facebook.facebook_pages > 0);
            // Every other namespace a fresh crawl probes is still absent
            // when it is probed, so the one counted scan is the link table.
            let calls = telemetry.counter("store.scan.calls");
            let docs = telemetry.counter("store.scan.docs");
            let (crawl_calls, crawl_docs) = (calls.value(), docs.value());
            assert_eq!(crawl_calls, 1, "resumable={resumable}");
            let companies = store.scan(NS_COMPANIES).unwrap().len() as u64;
            assert_eq!(crawl_docs, companies, "resumable={resumable}");
            if resumable {
                // A resumed run whose stages all completed reads only its
                // two checkpoints: the link table is never built.
                let (calls_before, docs_before) = (calls.value(), docs.value());
                let checkpoints = store.scan(NS_CHECKPOINT).unwrap().len() as u64;
                crawler.run_resumable(&store).unwrap();
                assert_eq!(calls.value() - calls_before, 1 + 2);
                assert_eq!(docs.value() - docs_before, checkpoints * 3);
            }
        }
    }

    #[test]
    fn pipeline_checkpoint_roundtrips_through_json() {
        let cp = PipelineCheckpoint {
            syndicates: Some(17),
            augment: Some(AugmentStats {
                direct: 1,
                by_search: 2,
                ambiguous: 3,
                not_found: 4,
                skipped_existing: 5,
            }),
            facebook: None,
            twitter: Some(SocialStats {
                facebook_pages: 0,
                twitter_profiles: 9,
                missing: 1,
                bad_urls: 2,
                already_stored: 3,
            }),
            tokens: vec![("tok-a".into(), 0), ("tok-b".into(), 900_000)],
        };
        assert_eq!(PipelineCheckpoint::decode(&cp.encode()), Some(cp));
        assert_eq!(
            PipelineCheckpoint::decode(&PipelineCheckpoint::default().encode()),
            Some(PipelineCheckpoint::default())
        );
    }

    #[test]
    fn crawl_counts_mirror_world_marginals() {
        let world = Arc::new(World::generate(&WorldConfig::tiny(42)));
        let store = Store::memory(4);
        let crawler = Crawler::new(Arc::clone(&world), CrawlConfig::default());
        let stats = crawler.run(&store).unwrap();
        // The BFS reaches essentially every company; FB/TW crawl exactly the
        // linked subsets of what was crawled.
        let fb_linked = world.companies.iter().filter(|c| c.facebook.is_some()).count();
        let tw_linked = world.companies.iter().filter(|c| c.twitter.is_some()).count();
        assert!(stats.facebook.facebook_pages <= fb_linked);
        assert!(stats.twitter.twitter_profiles <= tw_linked);
        assert!(stats.facebook.facebook_pages as f64 >= fb_linked as f64 * 0.9);
        assert!(stats.twitter.twitter_profiles as f64 >= tw_linked as f64 * 0.9);
    }
}

//! Facebook and Twitter profile crawls (§3).
//!
//! "The AngelList dataset includes links to startups' available Facebook and
//! Twitter URLs." Facebook fetches use the Graph API after the short→long
//! token exchange; Twitter fetches extract the username from the URL ("the
//! string after the last '/' symbol") and shard calls across a
//! [`TokenPool`](crate::tokens::TokenPool) to ride through the
//! 180-calls/15-minutes windows.

use crate::error::CrawlError;
use crate::links::CompanyLink;
use crate::retry::{with_retry_metered, RetryPolicy, RetryTelemetry};
use crate::tokens::TokenPool;
use crowdnet_json::Value;
use crowdnet_telemetry::Telemetry;
use crowdnet_socialsim::sources::facebook::FacebookApi;
use crowdnet_socialsim::sources::twitter::TwitterApi;
use crowdnet_socialsim::sources::ApiError;
use crowdnet_socialsim::Clock;
use crowdnet_store::{Document, Store};
use parking_lot::Mutex;
use std::sync::Arc;

/// Store namespace for Facebook page documents.
pub const NS_FACEBOOK: &str = "facebook/pages";
/// Store namespace for Twitter profile documents.
pub const NS_TWITTER: &str = "twitter/profiles";

/// Counters from a social-media crawl.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SocialStats {
    /// Facebook pages stored.
    pub facebook_pages: usize,
    /// Twitter profiles stored.
    pub twitter_profiles: usize,
    /// Linked accounts that permanently failed (404 after retries).
    pub missing: usize,
    /// Links whose URL carries no username segment (empty or trailing-`/`):
    /// skipped rather than fetched as an empty username.
    pub bad_urls: usize,
    /// Targets already present in the store from an interrupted earlier run
    /// — skipped without a fetch, so a resumed crawl is idempotent.
    pub already_stored: usize,
}

impl SocialStats {
    /// Documents present in the store after this crawl: newly stored this
    /// run plus those an interrupted earlier run had already persisted.
    pub fn stored_total(&self) -> usize {
        self.facebook_pages + self.twitter_profiles + self.already_stored
    }
}

/// Keys already persisted under `ns` (empty for a namespace that does not
/// exist yet). Resumable stages consult this so re-running after a crash
/// never duplicates documents.
pub(crate) fn existing_keys(
    store: &Store,
    ns: &str,
) -> Result<std::collections::HashSet<String>, CrawlError> {
    match store.scan(ns) {
        Ok(docs) => Ok(docs.into_iter().map(|d| d.key).collect()),
        Err(crowdnet_store::StoreError::NamespaceNotFound(_)) => Ok(Default::default()),
        Err(e) => Err(e.into()),
    }
}

/// `(angellist_id, url)` for every crawled company carrying both an id
/// and the link `url` selects, in table order.
fn linked_urls(
    links: &[CompanyLink],
    url: impl Fn(&CompanyLink) -> Option<&String>,
) -> Vec<(u64, String)> {
    links.iter().filter_map(|l| Some((l.id?, url(l)?.clone()))).collect()
}

/// Crawl the Facebook page of every crawled company in `links` that
/// links one. Performs the login + token exchange once, then fetches
/// pages in parallel under the long-lived token.
pub fn crawl_facebook(
    api: &FacebookApi,
    store: &Store,
    links: &[CompanyLink],
    clock: &Arc<dyn Clock>,
    retry: &RetryPolicy,
    workers: usize,
    telemetry: &Telemetry,
) -> Result<SocialStats, CrawlError> {
    let rt = RetryTelemetry::for_source(telemetry, "facebook");
    let pages_counter = telemetry.counter("crawl.facebook.pages");
    let token = api
        .exchange_token(&api.login())
        .map_err(CrawlError::Api)?;
    let existing = existing_keys(store, NS_FACEBOOK)?;
    let skipped_counter = telemetry.counter("crawl.resume.skipped");
    let mut seed_stats = SocialStats::default();
    let targets: Vec<(u64, String)> = linked_urls(links, |l| l.facebook_url.as_ref())
        .into_iter()
        .filter(|(id, _)| {
            let fresh = !existing.contains(&format!("company:{id}"));
            if !fresh {
                skipped_counter.inc();
                seed_stats.already_stored += 1;
            }
            fresh
        })
        .collect();
    let stats = Mutex::new(seed_stats);
    let queue = Mutex::new(targets.into_iter());
    let fatal: Mutex<Option<CrawlError>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let item = { queue.lock().next() };
                let Some((id, url)) = item else { break };
                match with_retry_metered(clock.as_ref(), retry, Some(&rt), || {
                    api.page(&url, &token)
                }) {
                    Ok(page) => {
                        if let Err(e) =
                            store.put(NS_FACEBOOK, Document::new(format!("company:{id}"), page))
                        {
                            *fatal.lock() = Some(e.into());
                            queue.lock().by_ref().for_each(drop);
                        } else {
                            pages_counter.inc();
                            stats.lock().facebook_pages += 1;
                        }
                    }
                    Err(CrawlError::Api(ApiError::NotFound)) => {
                        stats.lock().missing += 1;
                    }
                    Err(e) => {
                        *fatal.lock() = Some(e);
                        queue.lock().by_ref().for_each(drop);
                    }
                }
            });
        }
    });

    if let Some(e) = fatal.into_inner() {
        return Err(e);
    }
    Ok(stats.into_inner())
}

/// Crawl the Twitter profile of every crawled company in `links` that
/// links one, through the token pool.
///
/// Rate-limited tokens are parked in the pool and the call retried on the
/// next available token, so the crawl's virtual wall-clock shrinks roughly
/// linearly with pool size (the paper's multi-machine trick; measured by the
/// `crawl_throughput` bench).
#[allow(clippy::too_many_arguments)] // the Facebook stage's seven plus the token pool
pub fn crawl_twitter(
    api: &TwitterApi,
    store: &Store,
    links: &[CompanyLink],
    pool: &TokenPool,
    clock: &Arc<dyn Clock>,
    retry: &RetryPolicy,
    workers: usize,
    telemetry: &Telemetry,
) -> Result<SocialStats, CrawlError> {
    let rt = RetryTelemetry::for_source(telemetry, "twitter");
    let profiles_counter = telemetry.counter("crawl.twitter.profiles");
    let bad_url_counter = telemetry.counter("crawl.twitter.bad_url");
    let existing = existing_keys(store, NS_TWITTER)?;
    let skipped_counter = telemetry.counter("crawl.resume.skipped");
    let mut seed_stats = SocialStats::default();
    let targets: Vec<(u64, String)> = linked_urls(links, |l| l.twitter_url.as_ref())
        .into_iter()
        .filter(|(id, _)| {
            let fresh = !existing.contains(&format!("company:{id}"));
            if !fresh {
                skipped_counter.inc();
                seed_stats.already_stored += 1;
            }
            fresh
        })
        .collect();
    let stats = Mutex::new(seed_stats);
    let queue = Mutex::new(targets.into_iter());
    let fatal: Mutex<Option<CrawlError>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let item = { queue.lock().next() };
                let Some((id, url)) = item else { break };
                // §3: the username is the string after the last '/'. Empty
                // or trailing-`/` URLs yield no username — fetching "" would
                // 404 every such link into `missing`; count them separately.
                let username = url.rsplit('/').next().unwrap_or_default().to_string();
                if username.is_empty() {
                    bad_url_counter.inc();
                    stats.lock().bad_urls += 1;
                    continue;
                }
                match fetch_with_pool(api, pool, clock, retry, &rt, &username) {
                    Ok(profile) => {
                        if let Err(e) = store
                            .put(NS_TWITTER, Document::new(format!("company:{id}"), profile))
                        {
                            *fatal.lock() = Some(e.into());
                            queue.lock().by_ref().for_each(drop);
                        } else {
                            profiles_counter.inc();
                            stats.lock().twitter_profiles += 1;
                        }
                    }
                    Err(CrawlError::Api(ApiError::NotFound)) => {
                        stats.lock().missing += 1;
                    }
                    Err(e) => {
                        *fatal.lock() = Some(e);
                        queue.lock().by_ref().for_each(drop);
                    }
                }
            });
        }
    });

    if let Some(e) = fatal.into_inner() {
        return Err(e);
    }
    Ok(stats.into_inner())
}

/// One profile fetch: lease a token; on 429 park it and lease another; on
/// transient 5xx back off per the policy.
fn fetch_with_pool(
    api: &TwitterApi,
    pool: &TokenPool,
    clock: &Arc<dyn Clock>,
    retry: &RetryPolicy,
    rt: &RetryTelemetry,
    username: &str,
) -> Result<Value, CrawlError> {
    let mut transient = 0u32;
    loop {
        let token = pool.lease();
        rt.attempts.inc();
        match api.user_by_username(username, &token) {
            Ok(v) => {
                rt.success.inc();
                return Ok(v);
            }
            Err(ApiError::RateLimited { retry_after_ms }) => {
                rt.retry_ratelimit.inc();
                rt.wait_ms.record(retry_after_ms);
                pool.park(&token, retry_after_ms);
            }
            Err(ApiError::ServerError) => {
                transient += 1;
                if transient >= retry.max_attempts {
                    rt.fail_permanent.inc();
                    return Err(CrawlError::Api(ApiError::ServerError));
                }
                let wait = retry.delay_ms(transient - 1);
                rt.retry_transient.inc();
                rt.wait_ms.record(wait);
                clock.sleep_ms(wait);
            }
            Err(permanent) => {
                rt.fail_permanent.inc();
                return Err(CrawlError::Api(permanent));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{crawl_angellist, BfsConfig};
    use crate::links::company_links;
    use crowdnet_socialsim::clock::{RecordingClock, SimClock};
    use crowdnet_socialsim::sources::angellist::AngelListApi;
    use crowdnet_socialsim::sources::FaultModel;
    use crowdnet_socialsim::sources::twitter::{CALLS_PER_WINDOW, WINDOW_MS};
    use crowdnet_socialsim::{World, WorldConfig};

    fn crawled(seed: u64) -> (Arc<World>, Store, Vec<CompanyLink>, Arc<dyn Clock>) {
        crawled_at(seed, WorldConfig::tiny(seed))
    }

    fn crawled_at(
        _seed: u64,
        cfg: WorldConfig,
    ) -> (Arc<World>, Store, Vec<CompanyLink>, Arc<dyn Clock>) {
        let world = Arc::new(World::generate(&cfg));
        let api = AngelListApi::reliable(Arc::clone(&world));
        let store = Store::memory(4);
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        crawl_angellist(&api, &store, &clock, &BfsConfig::default()).unwrap();
        let links = company_links(&store, 2).unwrap();
        (world, store, links, clock)
    }

    #[test]
    fn facebook_crawl_covers_linked_pages() {
        let (world, store, links, clock) = crawled(42);
        let api = FacebookApi::new(Arc::clone(&world), Arc::new(SimClock::new()), FaultModel::none());
        let stats =
            crawl_facebook(&api, &store, &links, &clock, &RetryPolicy::default(), 4, &Telemetry::new()).unwrap();
        let _ = &world;
        let linked = linked_urls(&links, |l| l.facebook_url.as_ref()).len();
        assert_eq!(stats.facebook_pages, linked);
        assert_eq!(stats.missing, 0);
        assert_eq!(store.doc_count(NS_FACEBOOK).unwrap(), linked);
    }

    #[test]
    fn twitter_crawl_covers_linked_profiles_despite_rate_limits() {
        // Enough companies that >180 Twitter links exist, forcing at least
        // one full rate-limit window ride with a single token.
        let (world, store, links, _) = crawled_at(
            42,
            WorldConfig::at_scale(
                42,
                crowdnet_socialsim::Scale::Custom { companies: 4_000, users: 1_200 },
            ),
        );
        let sim = Arc::new(SimClock::new());
        let clock: Arc<dyn Clock> = Arc::new(RecordingClock::new());
        let api = TwitterApi::new(Arc::clone(&world), sim.clone(), FaultModel::none());
        // Deliberately tiny pool: one token ⇒ the 15-minute window must be
        // ridden out (virtually) several times if >180 profiles are linked.
        let pool = TokenPool::register(&api, sim.clone(), &["m1"], 1).unwrap();
        let stats =
            crawl_twitter(&api, &store, &links, &pool, &clock, &RetryPolicy::default(), 2, &Telemetry::new()).unwrap();
        let _ = &world;
        let linked = linked_urls(&links, |l| l.twitter_url.as_ref()).len();
        assert!(linked > 180, "need enough links to trip the limit: {linked}");
        assert_eq!(stats.twitter_profiles, linked);
        assert_eq!(store.doc_count(NS_TWITTER).unwrap(), linked);
        // The single token had to ride out at least one 15-minute window.
        assert!(sim.now_ms() >= crowdnet_socialsim::sources::twitter::WINDOW_MS / 2);
    }

    #[test]
    fn twitter_docs_have_engagement_fields() {
        let (world, store, links, _) = crawled(7);
        let sim = Arc::new(SimClock::new());
        let clock: Arc<dyn Clock> = sim.clone();
        let api = TwitterApi::new(Arc::clone(&world), sim.clone(), FaultModel::none());
        let pool = TokenPool::register(&api, sim.clone(), &["m1", "m2"], 5).unwrap();
        crawl_twitter(&api, &store, &links, &pool, &clock, &RetryPolicy::default(), 4, &Telemetry::new()).unwrap();
        for doc in store.scan(NS_TWITTER).unwrap().iter().take(30) {
            assert!(doc.body.get("followers_count").and_then(Value::as_u64).is_some());
            assert!(doc.body.get("statuses_count").and_then(Value::as_u64).is_some());
        }
    }

    /// The smallest world probed (seed 42) whose crawl links more Twitter
    /// profiles (923) than five tokens may call in one window (5 × 180):
    /// one token rides several windows and a five-token pool still has to
    /// ride one, so the wait can fall strictly from 1 to 5 to 15 tokens.
    /// (The 4k-company world links 356, which five tokens cover unparked.)
    const FIVE_TOKENS_WAIT: crowdnet_socialsim::Scale =
        crowdnet_socialsim::Scale::Custom { companies: 12_000, users: 2_000 };

    #[test]
    fn more_tokens_mean_less_virtual_waiting() {
        // §3's multi-token trick: "we distribute the Twitter crawling job to
        // several machines, using different access tokens, which tackles the
        // rate limit issue effectively".
        let waiting_with = |owners: &[&str], per_owner: usize| {
            // A fresh crawl per pool: a rerun skips profiles already stored.
            let (world, store, links, _) = crawled_at(42, WorldConfig::at_scale(42, FIVE_TOKENS_WAIT));
            let linked = linked_urls(&links, |l| l.twitter_url.as_ref()).len();
            assert!(linked > 5 * CALLS_PER_WINDOW, "five tokens must have to wait: {linked} links");
            let sim = Arc::new(SimClock::new());
            let api = TwitterApi::new(Arc::clone(&world), sim.clone(), FaultModel::none());
            let pool = TokenPool::register(&api, sim.clone(), owners, per_owner).unwrap();
            let clock: Arc<dyn Clock> = Arc::new(RecordingClock::new());
            // One worker: a parked pool sleeps once, so the service clock
            // advances by exactly the time the crawl spent waiting.
            let stats =
                crawl_twitter(&api, &store, &links, &pool, &clock, &RetryPolicy::default(), 1, &Telemetry::new())
                    .unwrap();
            assert_eq!(stats.twitter_profiles, linked);
            sim.now_ms()
        };
        let one = waiting_with(&["a"], 1);
        let five = waiting_with(&["a"], 5);
        let fifteen = waiting_with(&["a", "b", "c"], 5);
        assert!(one >= WINDOW_MS, "one token must ride a 15-minute window: {one} ms");
        assert!(
            one > five && five > fifteen,
            "virtual wait must fall strictly: 1 token {one} ms, 5 tokens {five} ms, 15 tokens {fifteen} ms"
        );
    }

    #[test]
    fn malformed_twitter_urls_are_counted_not_fetched() {
        use crowdnet_json::obj;
        let world = Arc::new(World::generate(&WorldConfig::tiny(42)));
        let store = Store::memory(2);
        // Hand-built company docs: a trailing-slash URL and an empty URL
        // carry no username segment; both must be skipped, not fetched as
        // the empty string (which would 404 into `missing`).
        for (id, url) in [(1u64, "https://twitter.com/"), (2, ""), (3, "https://twitter.com/ghost")] {
            store
                .put(
                    crate::bfs::NS_COMPANIES,
                    Document::new(format!("company:{id}"), obj! {"id" => id, "twitter_url" => url}),
                )
                .unwrap();
        }
        let sim = Arc::new(SimClock::new());
        let clock: Arc<dyn Clock> = sim.clone();
        let api = TwitterApi::new(Arc::clone(&world), sim.clone(), FaultModel::none());
        let pool = TokenPool::register(&api, sim, &["m1"], 2).unwrap();
        let telemetry = Telemetry::new();
        let links = company_links(&store, 2).unwrap();
        let stats =
            crawl_twitter(&api, &store, &links, &pool, &clock, &RetryPolicy::default(), 2, &telemetry).unwrap();
        assert_eq!(stats.bad_urls, 2);
        // The well-formed link is attempted; whether it resolves or 404s it
        // is accounted for, never silently dropped.
        assert_eq!(stats.twitter_profiles + stats.missing, 1);
        assert_eq!(telemetry.counter("crawl.twitter.bad_url").value(), 2);
    }

    #[test]
    fn rerunning_social_crawls_skips_already_stored_targets() {
        let (world, store, links, clock) = crawled(42);
        let fb = FacebookApi::new(Arc::clone(&world), Arc::new(SimClock::new()), FaultModel::none());
        let first = crawl_facebook(&fb, &store, &links, &clock, &RetryPolicy::default(), 4, &Telemetry::new())
            .unwrap();
        let telemetry = Telemetry::new();
        let second =
            crawl_facebook(&fb, &store, &links, &clock, &RetryPolicy::default(), 4, &telemetry).unwrap();
        // Second pass fetches nothing and duplicates nothing.
        assert_eq!(second.facebook_pages, 0);
        assert_eq!(second.already_stored, first.facebook_pages);
        assert_eq!(second.stored_total(), first.stored_total());
        assert_eq!(store.doc_count(NS_FACEBOOK).unwrap(), first.facebook_pages);
        assert_eq!(
            telemetry.counter("crawl.resume.skipped").value(),
            first.facebook_pages as u64
        );
    }

    #[test]
    fn facebook_crawl_retries_through_faults() {
        let (world, store, links, clock) = crawled(42);
        let api = FacebookApi::new(
            Arc::clone(&world),
            Arc::new(SimClock::new()),
            FaultModel::new(0.15, 3),
        );
        let stats =
            crawl_facebook(&api, &store, &links, &clock, &RetryPolicy::default(), 4, &Telemetry::new()).unwrap();
        let _ = &world;
        let linked = linked_urls(&links, |l| l.facebook_url.as_ref()).len();
        assert_eq!(stats.facebook_pages, linked);
    }
}

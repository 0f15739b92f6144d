//! CrunchBase augmentation (§3).
//!
//! "AngelList data is incomplete. … we augment our AngelList data with
//! crawled data from CrunchBase. … If the AngelList entry provides a
//! CrunchBase URL, we use the associated CrunchBase entry; if not, we use
//! the CrunchBase search API to find startups with matching names. If the
//! CrunchBase search returns a unique result, we associate that result with
//! the AngelList startup."

use crate::error::CrawlError;
use crate::links::CompanyLink;
use crate::retry::{with_retry_metered, RetryPolicy, RetryTelemetry};
use crowdnet_json::Value;
use crowdnet_telemetry::Telemetry;
use crowdnet_socialsim::sources::crunchbase::CrunchBaseApi;
use crowdnet_socialsim::Clock;
use crowdnet_store::{Document, Store};
use parking_lot::Mutex;
use std::sync::Arc;

/// Store namespace for CrunchBase documents (keyed by AngelList company id).
pub const NS_CRUNCHBASE: &str = "crunchbase/companies";

/// Counters from an augmentation pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AugmentStats {
    /// Resolved through a direct CrunchBase URL on the AngelList profile.
    pub direct: usize,
    /// Resolved through a unique name-search match.
    pub by_search: usize,
    /// Name search returned multiple matches — skipped (the paper's rule).
    pub ambiguous: usize,
    /// No CrunchBase presence found.
    pub not_found: usize,
    /// Companies whose CrunchBase profile an interrupted earlier run had
    /// already stored — skipped without a fetch (resume idempotency). The
    /// direct/by-search split of these is not re-derived.
    pub skipped_existing: usize,
}

impl AugmentStats {
    /// Total profiles present in the store after this pass (including ones
    /// persisted by an interrupted earlier run).
    pub fn resolved(&self) -> usize {
        self.direct + self.by_search + self.skipped_existing
    }
}

/// Augment every crawled AngelList company (`links`, from
/// [`company_links`](crate::links::company_links)) with CrunchBase data.
pub fn augment_crunchbase(
    api: &CrunchBaseApi,
    store: &Store,
    links: &[CompanyLink],
    clock: &Arc<dyn Clock>,
    retry: &RetryPolicy,
    workers: usize,
    telemetry: &Telemetry,
) -> Result<AugmentStats, CrawlError> {
    let rt = RetryTelemetry::for_source(telemetry, "crunchbase");
    let direct_counter = telemetry.counter("crawl.augment.direct");
    let by_search_counter = telemetry.counter("crawl.augment.by_search");
    let ambiguous_counter = telemetry.counter("crawl.augment.ambiguous");
    let not_found_counter = telemetry.counter("crawl.augment.not_found");
    let existing = crate::social::existing_keys(store, NS_CRUNCHBASE)?;
    let skipped_counter = telemetry.counter("crawl.resume.skipped");
    let mut seed_stats = AugmentStats::default();
    let companies: Vec<&CompanyLink> = links
        .iter()
        .filter(|link| {
            let id = link.id.unwrap_or(0);
            let fresh = !existing.contains(&format!("company:{id}"));
            if !fresh {
                skipped_counter.inc();
                seed_stats.skipped_existing += 1;
            }
            fresh
        })
        .collect();
    let stats = Mutex::new(seed_stats);
    let queue = Mutex::new(companies.into_iter());
    let fatal: Mutex<Option<CrawlError>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let link = { queue.lock().next() };
                let Some(link) = link else { break };
                match augment_one(api, store, clock, retry, &rt, link) {
                    Ok(outcome) => {
                        match outcome {
                            Outcome::Direct => direct_counter.inc(),
                            Outcome::BySearch => by_search_counter.inc(),
                            Outcome::Ambiguous => ambiguous_counter.inc(),
                            Outcome::NotFound => not_found_counter.inc(),
                        }
                        let mut s = stats.lock();
                        match outcome {
                            Outcome::Direct => s.direct += 1,
                            Outcome::BySearch => s.by_search += 1,
                            Outcome::Ambiguous => s.ambiguous += 1,
                            Outcome::NotFound => s.not_found += 1,
                        }
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

enum Outcome {
    Direct,
    BySearch,
    Ambiguous,
    NotFound,
}

fn augment_one(
    api: &CrunchBaseApi,
    store: &Store,
    clock: &Arc<dyn Clock>,
    retry: &RetryPolicy,
    rt: &RetryTelemetry,
    link: &CompanyLink,
) -> Result<Outcome, CrawlError> {
    let al_id = link.id.unwrap_or(0);

    // Route 1: direct CrunchBase URL.
    if let Some(url) = &link.crunchbase_url {
        let permalink = url.rsplit('/').next().unwrap_or_default().to_string();
        match with_retry_metered(clock.as_ref(), retry, Some(rt), || api.company(&permalink)) {
            Ok(cb) => {
                store.put(NS_CRUNCHBASE, Document::new(format!("company:{al_id}"), cb))?;
                return Ok(Outcome::Direct);
            }
            Err(CrawlError::Api(crowdnet_socialsim::sources::ApiError::NotFound)) => {
                // Dangling link; fall through to search.
            }
            Err(e) => return Err(e),
        }
    }

    // Route 2: unique name search.
    let search =
        with_retry_metered(clock.as_ref(), retry, Some(rt), || api.search(&link.name))?;
    let matches = search
        .get("matches")
        .and_then(Value::as_arr)
        .map(<[Value]>::to_vec)
        .unwrap_or_default();
    match matches.len() {
        0 => Ok(Outcome::NotFound),
        1 => {
            let permalink = matches[0]
                .get("permalink")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string();
            match with_retry_metered(clock.as_ref(), retry, Some(rt), || api.company(&permalink)) {
                Ok(cb) => {
                    store.put(NS_CRUNCHBASE, Document::new(format!("company:{al_id}"), cb))?;
                    Ok(Outcome::BySearch)
                }
                Err(CrawlError::Api(crowdnet_socialsim::sources::ApiError::NotFound)) => {
                    Ok(Outcome::NotFound)
                }
                Err(e) => Err(e),
            }
        }
        _ => Ok(Outcome::Ambiguous),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{crawl_angellist, BfsConfig};
    use crate::links::company_links;
    use crowdnet_socialsim::clock::SimClock;
    use crowdnet_socialsim::sources::angellist::AngelListApi;
    use crowdnet_socialsim::{World, WorldConfig};

    fn crawled_store() -> (Arc<World>, Store, Vec<CompanyLink>, Arc<dyn Clock>) {
        let world = Arc::new(World::generate(&WorldConfig::tiny(42)));
        let api = AngelListApi::reliable(Arc::clone(&world));
        let store = Store::memory(4);
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        crawl_angellist(&api, &store, &clock, &BfsConfig::default()).unwrap();
        let links = company_links(&store, 2).unwrap();
        (world, store, links, clock)
    }

    #[test]
    fn augmentation_resolves_funded_companies() {
        let (world, store, links, clock) = crawled_store();
        let api = CrunchBaseApi::reliable(Arc::clone(&world));
        let stats =
            augment_crunchbase(&api, &store, &links, &clock, &RetryPolicy::default(), 4, &Telemetry::new()).unwrap();
        let funded = world.companies.iter().filter(|c| c.funded).count();
        // Every directly-linked *crawled* company resolves; search picks up
        // most of the rest except ambiguous names. The BFS may miss a few
        // isolated companies, so compare with a margin.
        assert!(stats.direct > 0);
        // Name search has false positives: an *unfunded* company whose name
        // collides with exactly one funded company resolves to the wrong
        // profile — the inherent risk of the paper's matching rule. So
        // `resolved` may exceed the true funded count by a small margin.
        assert!(stats.resolved() <= funded + funded / 2 + 10);
        assert!(
            stats.resolved() + stats.ambiguous >= funded.saturating_sub(funded / 4 + 3),
            "resolved {} + ambiguous {} vs funded {funded}",
            stats.resolved(),
            stats.ambiguous
        );
        assert_eq!(store.doc_count(NS_CRUNCHBASE).unwrap(), stats.resolved());
    }

    #[test]
    fn crunchbase_docs_carry_rounds() {
        let (world, store, links, clock) = crawled_store();
        let api = CrunchBaseApi::reliable(Arc::clone(&world));
        augment_crunchbase(&api, &store, &links, &clock, &RetryPolicy::default(), 2, &Telemetry::new()).unwrap();
        let docs = store.scan(NS_CRUNCHBASE).unwrap();
        assert!(!docs.is_empty());
        for doc in docs.iter().take(30) {
            let rounds = doc.body.get("rounds").and_then(Value::as_arr).unwrap();
            assert!(!rounds.is_empty());
            assert!(doc.body.get("total_raised_usd").and_then(Value::as_u64).unwrap() > 0);
        }
    }

    #[test]
    fn unfunded_companies_stay_unresolved() {
        let (world, store, links, clock) = crawled_store();
        let api = CrunchBaseApi::reliable(Arc::clone(&world));
        let stats =
            augment_crunchbase(&api, &store, &links, &clock, &RetryPolicy::default(), 2, &Telemetry::new()).unwrap();
        let crawled = store.doc_count(crate::bfs::NS_COMPANIES).unwrap();
        assert!(stats.not_found > 0);
        assert_eq!(
            stats.direct + stats.by_search + stats.ambiguous + stats.not_found,
            crawled
        );
    }
}

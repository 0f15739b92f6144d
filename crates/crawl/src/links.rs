//! The crawled companies as the later stages see them.
//!
//! CrunchBase augmentation, the Facebook crawl and the Twitter crawl all
//! start from the AngelList company profiles the BFS stored: the id, the
//! name and the three outgoing links. [`company_links`] reads
//! `angellist/companies` once, after the BFS, and the three stages share
//! the table instead of each scanning and parsing every profile again.

use crate::bfs::NS_COMPANIES;
use crate::error::CrawlError;
use crowdnet_json::Value;
use crowdnet_store::pool::{run_tasks, ExecCtx};
use crowdnet_store::Store;

/// One crawled AngelList company: the fields of its profile the
/// augmentation and social stages read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompanyLink {
    /// AngelList id (`None` when the profile carries no numeric id).
    pub id: Option<u64>,
    /// Company name (empty when absent), the CrunchBase search term.
    pub name: String,
    /// Direct CrunchBase profile URL.
    pub crunchbase_url: Option<String>,
    /// Facebook page URL.
    pub facebook_url: Option<String>,
    /// Twitter profile URL.
    pub twitter_url: Option<String>,
}

impl CompanyLink {
    /// Extract the link fields of one company profile.
    fn from_profile(body: &Value) -> CompanyLink {
        let url = |field: &str| body.get(field).and_then(Value::as_str).map(str::to_string);
        CompanyLink {
            id: body.get("id").and_then(Value::as_u64),
            name: body.get("name").and_then(Value::as_str).unwrap_or_default().to_string(),
            crunchbase_url: url("crunchbase_url"),
            facebook_url: url("facebook_url"),
            twitter_url: url("twitter_url"),
        }
    }
}

/// The link table of the latest `angellist/companies` snapshot, in scan
/// order: partition order, key-sorted within each partition — the order
/// `Store::scan` returns. One fused `Store::scan_partition` per store
/// partition, run as tasks on `workers` threads of the store's pool; the
/// parsed profile dies inside the task that decoded it. Counts as one
/// scan in `store.scan.{calls,docs}`.
pub fn company_links(store: &Store, workers: usize) -> Result<Vec<CompanyLink>, CrawlError> {
    let snap = store.latest_snapshot(NS_COMPANIES)?;
    let scanned = run_tasks(ExecCtx::new(workers), (0..store.partitions()).collect(), |_, p| {
        store.scan_partition(
            NS_COMPANIES,
            snap,
            p,
            |doc, rows| rows.push((doc.key, CompanyLink::from_profile(&doc.body))),
            |(key, _): &(String, CompanyLink)| key,
        )
    });
    let mut links = Vec::new();
    let mut docs = 0;
    for partition in scanned {
        let partition = partition?;
        docs += partition.docs;
        links.extend(partition.items.into_iter().map(|(_, link)| link));
    }
    store.record_scan(docs);
    Ok(links)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{crawl_angellist, BfsConfig};
    use crowdnet_socialsim::clock::SimClock;
    use crowdnet_socialsim::sources::angellist::AngelListApi;
    use crowdnet_socialsim::{Clock, World, WorldConfig};
    use crowdnet_telemetry::Telemetry;
    use std::sync::Arc;

    fn crawled(seed: u64) -> Store {
        let world = Arc::new(World::generate(&WorldConfig::tiny(seed)));
        let api = AngelListApi::reliable(world);
        let store = Store::memory(4);
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        crawl_angellist(&api, &store, &clock, &BfsConfig::default()).unwrap();
        store
    }

    /// The per-stage extraction each stage used to run over its own scan:
    /// `(id, url)` for every profile carrying both.
    fn linked_urls_by_scan(store: &Store, field: &str) -> Vec<(u64, String)> {
        store
            .scan(NS_COMPANIES)
            .unwrap()
            .into_iter()
            .filter_map(|doc| {
                let id = doc.body.get("id").and_then(Value::as_u64)?;
                let url = doc.body.get(field).and_then(Value::as_str)?.to_string();
                Some((id, url))
            })
            .collect()
    }

    fn linked_urls_by_table(
        links: &[CompanyLink],
        url: impl Fn(&CompanyLink) -> &Option<String>,
    ) -> Vec<(u64, String)> {
        links
            .iter()
            .filter_map(|l| Some((l.id?, url(l).clone()?)))
            .collect()
    }

    #[test]
    fn the_table_equals_the_three_per_stage_extractions() {
        for seed in [7, 42] {
            let store = crawled(seed);
            let links = company_links(&store, 2).unwrap();
            // CrunchBase augmentation: every profile, in scan order.
            let augment: Vec<(u64, String, Option<String>)> = store
                .scan(NS_COMPANIES)
                .unwrap()
                .iter()
                .map(|doc| {
                    let body = &doc.body;
                    (
                        body.get("id").and_then(Value::as_u64).unwrap_or(0),
                        body.get("name").and_then(Value::as_str).unwrap_or_default().to_string(),
                        body.get("crunchbase_url").and_then(Value::as_str).map(str::to_string),
                    )
                })
                .collect();
            let from_table: Vec<(u64, String, Option<String>)> = links
                .iter()
                .map(|l| (l.id.unwrap_or(0), l.name.clone(), l.crunchbase_url.clone()))
                .collect();
            assert_eq!(from_table, augment, "seed {seed}: augmentation targets");
            assert!(augment.iter().any(|(_, _, url)| url.is_some()), "seed {seed}");
            for (field, url) in [
                ("facebook_url", (|l: &CompanyLink| &l.facebook_url) as fn(&CompanyLink) -> &Option<String>),
                ("twitter_url", |l: &CompanyLink| &l.twitter_url),
            ] {
                let by_scan = linked_urls_by_scan(&store, field);
                assert!(!by_scan.is_empty(), "seed {seed}: no {field}");
                assert_eq!(linked_urls_by_table(&links, url), by_scan, "seed {seed}: {field}");
            }
        }
    }

    #[test]
    fn the_table_is_one_scan_and_serial_equals_parallel() {
        let telemetry = Telemetry::new();
        let world = Arc::new(World::generate(&WorldConfig::tiny(42)));
        let store = Store::memory(4).with_telemetry(&telemetry);
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        crawl_angellist(&AngelListApi::reliable(world), &store, &clock, &BfsConfig::default())
            .unwrap();
        let serial = company_links(&store, 1).unwrap();
        assert_eq!(telemetry.counter("store.scan.calls").value(), 1);
        assert_eq!(telemetry.counter("store.scan.docs").value(), serial.len() as u64);
        assert_eq!(company_links(&store, 3).unwrap(), serial);
    }

    #[test]
    fn no_companies_namespace_is_an_error() {
        assert!(company_links(&Store::memory(2), 2).is_err());
    }
}

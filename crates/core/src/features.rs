//! Per-company feature extraction: the "cleaning, extracting and summarizing"
//! Spark stage of the paper.
//!
//! Joins the four crawled namespaces into one [`CompanyRecord`] per company
//! via dataflow `left_join`s keyed by AngelList company id — AngelList is
//! the spine (it defines the universe), CrunchBase supplies the funding
//! outcome, Facebook/Twitter supply engagement.

use crate::error::CoreError;
use crate::pipeline::PipelineOutcome;
use crowdnet_column::investor_edges;
use crowdnet_crawl::augment::NS_CRUNCHBASE;
use crowdnet_crawl::bfs::{NS_COMPANIES, NS_USERS};
use crowdnet_crawl::social::{NS_FACEBOOK, NS_TWITTER};
use crowdnet_dataflow::dataset::scan_store_with;
use crowdnet_dataflow::{Dataset, Pairs};
use crowdnet_json::Value;
use crowdnet_store::{DerivedKey, Document, SnapshotId, StoreError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One company's joined cross-source view.
#[derive(Debug, Clone, PartialEq)]
pub struct CompanyRecord {
    /// AngelList id.
    pub id: u32,
    /// Display name.
    pub name: String,
    /// Profile links a Facebook page.
    pub has_facebook: bool,
    /// Profile links a Twitter account.
    pub has_twitter: bool,
    /// Profile has a demo video.
    pub has_demo_video: bool,
    /// AngelList follower count.
    pub follower_count: u64,
    /// Facebook page likes (None = no page fetched).
    pub fb_likes: Option<u64>,
    /// Twitter followers.
    pub tw_followers: Option<u64>,
    /// Twitter lifetime tweets.
    pub tw_statuses: Option<u64>,
    /// Successfully raised funding (has a resolved CrunchBase profile with
    /// ≥1 round — "an information that can be derived from CrunchBase").
    pub funded: bool,
    /// Total raised across rounds (0 if not funded).
    pub total_raised_usd: u64,
}

/// One investor's view (from AngelList user documents).
#[derive(Debug, Clone, PartialEq)]
pub struct InvestorRecord {
    /// AngelList user id.
    pub id: u32,
    /// Companies this investor reports investments in.
    pub investments: Vec<u32>,
    /// Number of follows.
    pub follow_count: u64,
}

/// Every feature scan: `f` over each document of `ns` (snapshot 0), one
/// dataset partition per store partition. The JSON log is read by
/// [`scan_store_with`] — one pool task per partition decodes and applies
/// `f`, so parsed trees die inside the task. When the outcome carries a
/// column catalog holding the namespace (`repro --columnar`), the same `f`
/// runs over [`Dataset::from_columns`] instead; both sources yield the
/// same documents in the same order, so the output is identical.
fn scan<U, I, F>(outcome: &PipelineOutcome, ns: &str, f: F) -> Result<Dataset<U>, StoreError>
where
    U: Send,
    I: IntoIterator<Item = U>,
    F: Fn(Document) -> I + Sync,
{
    if let Some(catalog) = outcome.columns.as_deref() {
        if let Ok(docs) = Dataset::from_columns(catalog, ns, SnapshotId(0), outcome.ctx) {
            return Ok(docs.flat_map(f));
        }
    }
    scan_store_with(&outcome.store, ns, SnapshotId(0), outcome.ctx, f)
}

/// Join the store into company records: one fused scan per namespace
/// (one task per store partition each), then partition-parallel hash
/// `left_join`s on the AngelList id.
pub fn company_records(outcome: &PipelineOutcome) -> Result<Vec<CompanyRecord>, CoreError> {
    let companies = scan(outcome, NS_COMPANIES, |doc| {
        let b = &doc.body;
        std::iter::once(CompanyRecord {
            id: b.get("id").and_then(Value::as_u64).unwrap_or(0) as u32,
            name: b.get("name").and_then(Value::as_str).unwrap_or("").to_string(),
            has_facebook: b.get("facebook_url").map(|v| !v.is_null()).unwrap_or(false),
            has_twitter: b.get("twitter_url").map(|v| !v.is_null()).unwrap_or(false),
            has_demo_video: b.get("video_url").map(|v| !v.is_null()).unwrap_or(false),
            follower_count: b.get("follower_count").and_then(Value::as_u64).unwrap_or(0),
            fb_likes: None,
            tw_followers: None,
            tw_statuses: None,
            funded: false,
            total_raised_usd: 0,
        })
    })?;
    if companies.count() == 0 {
        return Err(CoreError::EmptyInput(NS_COMPANIES.into()));
    }
    let base: Pairs<u32, CompanyRecord> = companies.key_by(|r| r.id);

    // CrunchBase side: (id, (rounds, total_raised)).
    let crunchbase: Pairs<u32, (u64, u64)> = keyed_docs(outcome, NS_CRUNCHBASE, |b| {
        let rounds = b.get("rounds").and_then(Value::as_arr).map(<[Value]>::len).unwrap_or(0) as u64;
        let raised = b.get("total_raised_usd").and_then(Value::as_u64).unwrap_or(0);
        (rounds, raised)
    })?;

    // Facebook side: (id, likes).
    let facebook: Pairs<u32, u64> = keyed_docs(outcome, NS_FACEBOOK, |b| {
        b.get("likes").and_then(Value::as_u64).unwrap_or(0)
    })?;

    // Twitter side: (id, (followers, statuses)).
    let twitter: Pairs<u32, (u64, u64)> = keyed_docs(outcome, NS_TWITTER, |b| {
        (
            b.get("followers_count").and_then(Value::as_u64).unwrap_or(0),
            b.get("statuses_count").and_then(Value::as_u64).unwrap_or(0),
        )
    })?;

    let joined = base
        .left_join(crunchbase)
        .map_values(|(mut rec, cb)| {
            if let Some((rounds, raised)) = cb {
                rec.funded = rounds > 0;
                rec.total_raised_usd = raised;
            }
            rec
        })
        .left_join(facebook)
        .map_values(|(mut rec, likes)| {
            rec.fb_likes = likes;
            rec
        })
        .left_join(twitter)
        .map_values(|(mut rec, tw)| {
            if let Some((followers, statuses)) = tw {
                rec.tw_followers = Some(followers);
                rec.tw_statuses = Some(statuses);
            }
            rec
        });

    Ok(joined.values().collect())
}

/// The investor view of one user document (`None` unless role == investor).
fn investor_of(body: &Value) -> Option<InvestorRecord> {
    let (id, companies) = investor_edges(body)?;
    Some(InvestorRecord {
        id,
        investments: companies.collect(),
        follow_count: body.get("follow_count").and_then(Value::as_u64).unwrap_or(0),
    })
}

/// A user document's role (`"other"` when absent).
fn role_of(body: &Value) -> String {
    body.get("role").and_then(Value::as_str).unwrap_or("other").to_string()
}

/// Investor records from AngelList user documents (role == investor).
pub fn investor_records(outcome: &PipelineOutcome) -> Result<Vec<InvestorRecord>, CoreError> {
    // One item per document, so an empty namespace is told apart from one
    // without investors.
    let users = scan(outcome, NS_USERS, |doc| std::iter::once(investor_of(&doc.body)))?;
    if users.count() == 0 {
        return Err(CoreError::EmptyInput(NS_USERS.into()));
    }
    Ok(users.collect().into_iter().flatten().collect())
}

/// `(role, users)` pairs, sorted by role.
pub type RoleCounts = Vec<(String, usize)>;

/// Role counts from the user documents (§3's 4.3 % / 18.3 % / 44.2 %).
pub fn role_counts(outcome: &PipelineOutcome) -> Result<RoleCounts, CoreError> {
    let mut counts: RoleCounts = scan(outcome, NS_USERS, |doc| {
        std::iter::once(role_of(&doc.body))
    })?
    .key_by(|r| r.clone())
    .count_by_key()
    .collect()
    .into_iter()
    .collect();
    counts.sort();
    Ok(counts)
}

/// Everything the paper suite reads from the user documents.
#[derive(Debug, Clone, PartialEq)]
pub struct UserFeatures {
    /// [`investor_records`].
    pub investors: Vec<InvestorRecord>,
    /// [`role_counts`].
    pub roles: RoleCounts,
}

/// [`investor_records`] and [`role_counts`] from one pass over the user
/// documents: the suite's one `users` read. Memoised per store version
/// ([`crowdnet_store::Store::derived`]), so §3, Figure 3 and the §5
/// investor graph share it.
pub fn investors_and_roles(outcome: &PipelineOutcome) -> Result<Arc<UserFeatures>, CoreError> {
    outcome.store.derived(DerivedKey::new("core.features.users"), || {
        let users = scan(outcome, NS_USERS, |doc| {
            std::iter::once((role_of(&doc.body), investor_of(&doc.body)))
        })?;
        if users.count() == 0 {
            return Err(CoreError::EmptyInput(NS_USERS.into()));
        }
        let mut roles: BTreeMap<String, usize> = BTreeMap::new();
        let mut investors = Vec::new();
        for (role, investor) in users.collect() {
            *roles.entry(role).or_default() += 1;
            investors.extend(investor);
        }
        Ok(UserFeatures { investors, roles: roles.into_iter().collect() })
    })
}

/// The §5.1 investment edges, from the investor half of
/// [`investors_and_roles`].
pub fn investment_edges(outcome: &PipelineOutcome) -> Result<Vec<(u32, u32)>, CoreError> {
    Ok(investors_and_roles(outcome)?
        .investors
        .iter()
        .flat_map(|inv| inv.investments.iter().map(move |&c| (inv.id, c)))
        .collect())
}

/// One join side: `extract` over the body of every document of `ns`,
/// keyed by the numeric id at the end of the document key.
fn keyed_docs<V, F>(outcome: &PipelineOutcome, ns: &str, extract: F) -> Result<Pairs<u32, V>, CoreError>
where
    V: Send,
    F: Fn(&Value) -> V + Sync,
{
    let docs = scan(outcome, ns, |doc| {
        let id = doc
            .key
            .rsplit(':')
            .next()
            .and_then(|s| s.parse::<u32>().ok())
            .unwrap_or(u32::MAX);
        std::iter::once((id, extract(&doc.body)))
    });
    // A namespace only exists once something was crawled into it; a world
    // with (say) zero funded companies legitimately has no CrunchBase
    // namespace, which joins as an empty right side.
    let docs = match docs {
        Ok(d) => d,
        Err(StoreError::NamespaceNotFound(_)) => Dataset::from_partitions(Vec::new(), outcome.ctx),
        Err(e) => return Err(e.into()),
    };
    Ok(docs.key_by(|(id, _)| *id).map_values(|(_, v)| v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};

    fn outcome() -> PipelineOutcome {
        Pipeline::new(PipelineConfig::tiny(42)).run().unwrap()
    }

    #[test]
    fn records_cover_every_crawled_company() {
        let o = outcome();
        let recs = company_records(&o).unwrap();
        assert_eq!(recs.len(), o.dataset.companies);
        // Ids are unique.
        let ids: std::collections::HashSet<u32> = recs.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), recs.len());
    }

    #[test]
    fn social_fields_join_correctly() {
        let o = outcome();
        let recs = company_records(&o).unwrap();
        let with_fb_likes = recs.iter().filter(|r| r.fb_likes.is_some()).count();
        let with_tw = recs.iter().filter(|r| r.tw_followers.is_some()).count();
        assert_eq!(with_fb_likes, o.dataset.facebook);
        assert_eq!(with_tw, o.dataset.twitter);
        // Engagement only appears when the link exists.
        for r in &recs {
            if r.fb_likes.is_some() {
                assert!(r.has_facebook);
            }
            if r.tw_followers.is_some() {
                assert!(r.has_twitter);
                assert!(r.tw_statuses.is_some());
            }
        }
    }

    #[test]
    fn funded_flag_tracks_crunchbase_and_raised_totals() {
        let o = outcome();
        let recs = company_records(&o).unwrap();
        let funded = recs.iter().filter(|r| r.funded).count();
        assert!(funded > 0);
        // The name-search fallback can mis-attach a profile to an unfunded
        // company with a colliding name, so funded may slightly exceed the
        // exactly-resolved count; it can never exceed total resolutions.
        assert!(funded <= o.dataset.crunchbase);
        for r in recs.iter().filter(|r| r.funded) {
            assert!(r.total_raised_usd > 0);
        }
    }

    #[test]
    fn investor_records_have_portfolios() {
        let o = outcome();
        let invs = investor_records(&o).unwrap();
        assert!(!invs.is_empty());
        let with_investments = invs.iter().filter(|i| !i.investments.is_empty()).count();
        assert!(with_investments > 0);
        let edges = investment_edges(&o).unwrap();
        let total: usize = invs.iter().map(|i| i.investments.len()).sum();
        assert_eq!(edges.len(), total);
    }

    #[test]
    fn columnar_scans_match_json_scans_exactly() {
        let mut o = outcome();
        let json_companies = company_records(&o).unwrap();
        let json_investors = investor_records(&o).unwrap();
        let json_roles = role_counts(&o).unwrap();
        o.build_columns().unwrap();
        assert!(o.columns.is_some());
        assert_eq!(company_records(&o).unwrap(), json_companies);
        assert_eq!(investor_records(&o).unwrap(), json_investors);
        assert_eq!(role_counts(&o).unwrap(), json_roles);
    }

    #[test]
    fn role_counts_roughly_match_world() {
        let o = outcome();
        let counts = role_counts(&o).unwrap();
        let total: usize = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, o.dataset.users);
        assert!(counts.iter().any(|(r, _)| r == "investor"));
        assert!(counts.iter().any(|(r, _)| r == "employee"));
    }
}

//! The breadth-first frontier crawl over AngelList (§3).
//!
//! "We first collect information on all currently raising startups. We call
//! this set the frontier. We next collect a list of all users that are
//! following a startup in the frontier. This set of users becomes the new
//! frontier, and we collect the set of users followed by all users in the
//! frontier, as well as all startups and users followed by a user in the
//! frontier. As before, we make this newly collected set the frontier,
//! ignoring any startups or users that have been in the frontier before."
//!
//! The implementation is a level-synchronous parallel BFS: each round's
//! frontier is split across worker threads; every fetched profile is written
//! to the store as a JSON document; newly discovered ids that were never in
//! any frontier join the next round.

use crate::error::CrawlError;
use crate::retry::{with_retry, with_retry_metered, RetryPolicy, RetryTelemetry};
use crowdnet_json::Value;
use crowdnet_telemetry::{Level, Telemetry};
use crowdnet_socialsim::sources::angellist::AngelListApi;
use crowdnet_socialsim::sources::ApiError;
use crowdnet_socialsim::Clock;
use crowdnet_store::{Document, Store};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

/// Store namespace for AngelList company documents.
pub const NS_COMPANIES: &str = "angellist/companies";
/// Store namespace for AngelList user documents.
pub const NS_USERS: &str = "angellist/users";

/// One unit of frontier work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Entity {
    /// A startup id.
    Company(u32),
    /// A user id.
    User(u32),
}

/// BFS crawl configuration.
#[derive(Debug, Clone)]
pub struct BfsConfig {
    /// Parallel worker threads per round.
    pub workers: usize,
    /// Maximum BFS rounds ("after several rounds, we are able to collect
    /// more than 700K startups").
    pub max_rounds: usize,
    /// Stop after roughly this many entities (None = exhaust the graph).
    pub max_entities: Option<usize>,
    /// Retry policy for flaky calls.
    pub retry: RetryPolicy,
    /// Sink for per-request counters, frontier gauges and round events.
    /// A default (private) sink records everything and reports nothing.
    pub telemetry: Telemetry,
}

impl Default for BfsConfig {
    fn default() -> Self {
        BfsConfig {
            workers: 4,
            max_rounds: 8,
            max_entities: None,
            retry: RetryPolicy::default(),
            telemetry: Telemetry::new(),
        }
    }
}

/// Counters from a BFS run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BfsStats {
    /// Company profiles stored.
    pub companies: usize,
    /// User profiles stored.
    pub users: usize,
    /// Rounds executed (including the seed round).
    pub rounds: usize,
    /// Entities skipped because the API permanently errored on them.
    pub skipped: usize,
}

/// Fetch every page of a paginated endpoint, concatenating `items`.
fn fetch_all_pages<F>(mut fetch: F) -> Result<Vec<Value>, CrawlError>
where
    F: FnMut(usize) -> Result<Value, CrawlError>,
{
    let mut items = Vec::new();
    let mut page = 1usize;
    loop {
        let doc = fetch(page)?;
        let last = doc.get("last_page").and_then(Value::as_u64).unwrap_or(1);
        if let Some(arr) = doc.get("items").and_then(Value::as_arr) {
            items.extend(arr.iter().cloned());
        }
        if page as u64 >= last {
            return Ok(items);
        }
        page += 1;
    }
}

/// Run the BFS crawl, writing documents into `store` and returning counters.
pub fn crawl_angellist(
    api: &AngelListApi,
    store: &Store,
    clock: &Arc<dyn Clock>,
    cfg: &BfsConfig,
) -> Result<BfsStats, CrawlError> {
    if cfg.workers == 0 {
        return Err(CrawlError::Config("workers must be ≥ 1".into()));
    }
    let telemetry = &cfg.telemetry;
    let rt = RetryTelemetry::for_source(telemetry, "angellist");
    let companies_counter = telemetry.counter("crawl.bfs.companies");
    let users_counter = telemetry.counter("crawl.bfs.users");
    let skipped_counter = telemetry.counter("crawl.bfs.skipped");
    let frontier_gauge = telemetry.gauge("crawl.bfs.frontier");
    let depth_gauge = telemetry.gauge("crawl.bfs.depth");

    // Seed frontier: all currently raising startups.
    let seed_items = fetch_all_pages(|page| {
        with_retry_metered(clock.as_ref(), &cfg.retry, Some(&rt), || {
            api.raising_startups(page)
        })
    })?;
    let mut frontier: Vec<Entity> = seed_items
        .iter()
        .filter_map(|item| item.get("id").and_then(Value::as_u64))
        .map(|id| Entity::Company(id as u32))
        .collect();

    let visited: Mutex<HashSet<Entity>> = Mutex::new(frontier.iter().copied().collect());
    let stats = Mutex::new(BfsStats::default());
    let stored = AlreadyStored::empty(telemetry);

    let mut rounds = 0usize;
    while !frontier.is_empty() && rounds < cfg.max_rounds {
        rounds += 1;
        if let Some(cap) = cfg.max_entities {
            let seen = visited.lock().len();
            if seen >= cap {
                break;
            }
        }
        frontier_gauge.set(frontier.len() as u64);
        depth_gauge.set(rounds as u64);
        telemetry.event(
            Level::Progress,
            "crawl.bfs",
            format!("round {rounds}: frontier {}", frontier.len()),
        );

        let next: Mutex<Vec<Entity>> = Mutex::new(Vec::new());
        let fatal: Mutex<Option<CrawlError>> = Mutex::new(None);
        let queue: Mutex<std::vec::IntoIter<Entity>> =
            Mutex::new(std::mem::take(&mut frontier).into_iter());

        std::thread::scope(|scope| {
            for _ in 0..cfg.workers {
                scope.spawn(|| loop {
                    let entity = { queue.lock().next() };
                    let Some(entity) = entity else { break };
                    match crawl_entity(api, store, clock, &cfg.retry, &rt, &stored, entity) {
                        Ok(discovered) => {
                            match entity {
                                Entity::Company(_) => companies_counter.inc(),
                                Entity::User(_) => users_counter.inc(),
                            }
                            let mut stats = stats.lock();
                            match entity {
                                Entity::Company(_) => stats.companies += 1,
                                Entity::User(_) => stats.users += 1,
                            }
                            drop(stats);
                            let mut visited = visited.lock();
                            let mut next = next.lock();
                            for d in discovered {
                                if visited.insert(d) {
                                    next.push(d);
                                }
                            }
                        }
                        Err(CrawlError::Api(_)) => {
                            skipped_counter.inc();
                            stats.lock().skipped += 1;
                        }
                        Err(e) => {
                            // Store/config errors are fatal: keep the
                            // first and drain the queue so the scope exits.
                            fatal.lock().get_or_insert(e);
                            queue.lock().by_ref().for_each(drop);
                        }
                    }
                });
            }
        });
        if let Some(e) = fatal.into_inner() {
            return Err(e);
        }

        frontier = next.into_inner();
    }
    frontier_gauge.set(frontier.len() as u64);

    let mut out = stats.into_inner();
    out.rounds = rounds;
    Ok(out)
}

/// Profiles already persisted by an interrupted earlier run. A resumed
/// round re-fetches its frontier (the outgoing links must be rediscovered
/// to rebuild the next frontier) but must not re-put profiles that already
/// landed: the store is append-only, so a second put would duplicate the
/// document and break resume-equals-uninterrupted equality.
struct AlreadyStored {
    companies: HashSet<String>,
    users: HashSet<String>,
    skipped: crowdnet_telemetry::Counter,
}

impl AlreadyStored {
    /// Nothing stored yet (fresh crawls).
    fn empty(telemetry: &Telemetry) -> AlreadyStored {
        AlreadyStored {
            companies: HashSet::new(),
            users: HashSet::new(),
            skipped: telemetry.counter("crawl.resume.skipped"),
        }
    }

    /// Everything the store already holds (resumed crawls).
    fn scan(store: &Store, telemetry: &Telemetry) -> Result<AlreadyStored, CrawlError> {
        Ok(AlreadyStored {
            companies: crate::social::existing_keys(store, NS_COMPANIES)?,
            users: crate::social::existing_keys(store, NS_USERS)?,
            skipped: telemetry.counter("crawl.resume.skipped"),
        })
    }
}

/// Crawl one entity: store its profile, return the ids it links to.
fn crawl_entity(
    api: &AngelListApi,
    store: &Store,
    clock: &Arc<dyn Clock>,
    retry: &RetryPolicy,
    rt: &RetryTelemetry,
    stored: &AlreadyStored,
    entity: Entity,
) -> Result<Vec<Entity>, CrawlError> {
    match entity {
        Entity::Company(id) => {
            let key = format!("company:{id}");
            if stored.companies.contains(&key) {
                stored.skipped.inc();
            } else {
                let profile =
                    with_retry_metered(clock.as_ref(), retry, Some(rt), || api.startup(id))?;
                store.put(NS_COMPANIES, Document::new(key, profile))?;
            }
            let followers = fetch_all_pages(|page| {
                with_retry_metered(clock.as_ref(), retry, Some(rt), || {
                    api.startup_followers(id, page)
                })
            })?;
            Ok(followers
                .iter()
                .filter_map(Value::as_u64)
                .map(|u| Entity::User(u as u32))
                .collect())
        }
        Entity::User(id) => {
            let key = format!("user:{id}");
            if stored.users.contains(&key) {
                stored.skipped.inc();
            } else {
                let profile =
                    with_retry_metered(clock.as_ref(), retry, Some(rt), || api.user(id))?;
                store.put(NS_USERS, Document::new(key, profile))?;
            }
            let mut discovered = Vec::new();
            let startups = fetch_all_pages(|page| {
                with_retry_metered(clock.as_ref(), retry, Some(rt), || {
                    api.user_following_startups(id, page)
                })
            })?;
            discovered.extend(
                startups
                    .iter()
                    .filter_map(Value::as_u64)
                    .map(|c| Entity::Company(c as u32)),
            );
            let users = fetch_all_pages(|page| {
                with_retry_metered(clock.as_ref(), retry, Some(rt), || {
                    api.user_following_users(id, page)
                })
            })?;
            discovered.extend(
                users
                    .iter()
                    .filter_map(Value::as_u64)
                    .map(|u| Entity::User(u as u32)),
            );
            Ok(discovered)
        }
    }
}

// Silence an unused-import warning when compiled without tests: ApiError is
// referenced in match documentation contexts.
#[allow(unused)]
fn _uses(_: ApiError) {}

/// Store namespace holding crawl checkpoints.
pub const NS_CHECKPOINT: &str = "crawl/state";
/// Checkpoint document key for the AngelList BFS.
pub const CHECKPOINT_KEY: &str = "angellist-bfs";

fn encode_entity(e: Entity) -> Value {
    match e {
        Entity::Company(id) => crowdnet_json::arr![0u32, id],
        Entity::User(id) => crowdnet_json::arr![1u32, id],
    }
}

fn decode_entity(v: &Value) -> Option<Entity> {
    let tag = v.at(0)?.as_u64()?;
    let id = v.at(1)?.as_u64()? as u32;
    match tag {
        0 => Some(Entity::Company(id)),
        1 => Some(Entity::User(id)),
        _ => None,
    }
}

/// A resumable crawl's state: what [`load_checkpoint`] folds the persisted
/// round records into. Its [`Checkpoint::encode`] form — the whole visited
/// set in one document — is the legacy full-state record; crawls no longer
/// write it, but one found in a store still loads, as a reset of the fold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Entities already fetched or queued (never re-fetched on resume).
    pub visited: Vec<Entity>,
    /// The frontier to process next.
    pub frontier: Vec<Entity>,
    /// Counters so far.
    pub stats: BfsStats,
    /// True once the crawl exhausted its frontier.
    pub complete: bool,
}

fn encode_stats(o: &mut crowdnet_json::Object, stats: &BfsStats, complete: bool) {
    o.insert("companies", stats.companies);
    o.insert("users", stats.users);
    o.insert("rounds", stats.rounds);
    o.insert("skipped", stats.skipped);
    o.insert("complete", complete);
}

fn decode_stats(v: &Value) -> Option<(BfsStats, bool)> {
    let stats = BfsStats {
        companies: v.get("companies")?.as_u64()? as usize,
        users: v.get("users")?.as_u64()? as usize,
        rounds: v.get("rounds")?.as_u64()? as usize,
        skipped: v.get("skipped")?.as_u64()? as usize,
    };
    Some((stats, v.get("complete")?.as_bool()?))
}

impl Checkpoint {
    /// Serialize to the legacy full-state JSON document body.
    pub fn encode(&self) -> Value {
        let mut o = crowdnet_json::Object::new();
        let list = |es: &[Entity]| Value::Arr(es.iter().map(|&e| encode_entity(e)).collect());
        o.insert("visited", list(&self.visited));
        o.insert("frontier", list(&self.frontier));
        encode_stats(&mut o, &self.stats, self.complete);
        Value::Obj(o)
    }

    /// Deserialize a legacy full-state document; `None` for anything else.
    pub fn decode(v: &Value) -> Option<Checkpoint> {
        let list = |field: &str| -> Option<Vec<Entity>> {
            v.get(field)?
                .as_arr()?
                .iter()
                .map(decode_entity)
                .collect::<Option<Vec<_>>>()
        };
        let (stats, complete) = decode_stats(v)?;
        Some(Checkpoint {
            visited: list("visited")?,
            frontier: list("frontier")?,
            stats,
            complete,
        })
    }

    /// Fold one persisted record in: a round record adds the entities it
    /// first visited and makes them the frontier; round 0 (the seeds) and
    /// a legacy full-state record start the fold over.
    fn fold(state: Option<Checkpoint>, body: &Value) -> Option<Checkpoint> {
        if let Some(full) = Checkpoint::decode(body) {
            return Some(full);
        }
        let round = RoundRecord::decode(body)?;
        let frontier = round.entities();
        // A later round with no state to extend loses the state.
        let mut visited = if round.stats.rounds == 0 { Vec::new() } else { state?.visited };
        visited.extend_from_slice(&frontier);
        Some(Checkpoint { visited, frontier, stats: round.stats, complete: round.complete })
    }
}

/// One round's checkpoint record: the entities the round visited first —
/// exactly the next frontier — as two sorted flat id lists, plus the
/// counters after the round. Round 0's record holds the seeds. Each
/// entity is written once over a whole crawl, so the checkpoint
/// namespace grows with the visited set, not with rounds × visited.
struct RoundRecord {
    companies: Vec<u32>,
    users: Vec<u32>,
    stats: BfsStats,
    complete: bool,
}

impl RoundRecord {
    fn new(entities: &[Entity], stats: BfsStats, complete: bool) -> RoundRecord {
        let mut companies = Vec::new();
        let mut users = Vec::new();
        for &e in entities {
            match e {
                Entity::Company(id) => companies.push(id),
                Entity::User(id) => users.push(id),
            }
        }
        companies.sort_unstable();
        users.sort_unstable();
        RoundRecord { companies, users, stats, complete }
    }

    fn encode(&self) -> Value {
        let ids = |ids: &[u32]| Value::Arr(ids.iter().map(|&id| Value::from(id)).collect());
        let mut o = crowdnet_json::Object::new();
        o.insert("new_companies", ids(&self.companies));
        o.insert("new_users", ids(&self.users));
        encode_stats(&mut o, &self.stats, self.complete);
        Value::Obj(o)
    }

    fn decode(v: &Value) -> Option<RoundRecord> {
        let ids = |field: &str| -> Option<Vec<u32>> {
            v.get(field)?
                .as_arr()?
                .iter()
                .map(|id| id.as_u64().map(|id| id as u32))
                .collect()
        };
        let (stats, complete) = decode_stats(v)?;
        Some(RoundRecord {
            companies: ids("new_companies")?,
            users: ids("new_users")?,
            stats,
            complete,
        })
    }

    /// Companies then users, each in id order.
    fn entities(&self) -> Vec<Entity> {
        let companies = self.companies.iter().map(|&id| Entity::Company(id));
        companies.chain(self.users.iter().map(|&id| Entity::User(id))).collect()
    }
}

/// Load the crawl's state from the store, if any: the fold of every
/// checkpoint record in write order (same-key appends keep it through the
/// scan's stable sort). Visited is the union of the records' lists, the
/// frontier is the last one's. A malformed record loses the state until
/// the next round-0 or full-state record.
pub fn load_checkpoint(store: &Store) -> Result<Option<Checkpoint>, CrawlError> {
    match store.scan(NS_CHECKPOINT) {
        Ok(docs) => Ok(docs
            .iter()
            .filter(|d| d.key == CHECKPOINT_KEY)
            .fold(None, |state, d| Checkpoint::fold(state, &d.body))),
        Err(crowdnet_store::StoreError::NamespaceNotFound(_)) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

fn save_round(store: &Store, round: &RoundRecord) -> Result<(), CrawlError> {
    store
        .put(NS_CHECKPOINT, Document::new(CHECKPOINT_KEY, round.encode()))
        .map_err(Into::into)
}

/// Resumable BFS: like [`crawl_angellist`], but persists a checkpoint after
/// every round and, when a checkpoint exists in the store, continues from it
/// instead of starting over (never re-fetching visited entities — the
/// recovery behaviour a multi-day production crawl needs).
pub fn crawl_angellist_resumable(
    api: &AngelListApi,
    store: &Store,
    clock: &Arc<dyn Clock>,
    cfg: &BfsConfig,
) -> Result<BfsStats, CrawlError> {
    if cfg.workers == 0 {
        return Err(CrawlError::Config("workers must be ≥ 1".into()));
    }
    let rt = RetryTelemetry::for_source(&cfg.telemetry, "angellist");

    let (mut frontier, visited_init, stats_init, rounds_done) = match load_checkpoint(store)? {
        Some(cp) if cp.complete => return Ok(cp.stats),
        Some(cp) => {
            let rounds = cp.stats.rounds;
            (cp.frontier.clone(), cp.visited, cp.stats, rounds)
        }
        None => {
            let seed_items = fetch_all_pages(|page| {
                with_retry(clock.as_ref(), &cfg.retry, || api.raising_startups(page))
            })?;
            let frontier: Vec<Entity> = seed_items
                .iter()
                .filter_map(|item| item.get("id").and_then(Value::as_u64))
                .map(|id| Entity::Company(id as u32))
                .collect();
            save_round(store, &RoundRecord::new(&frontier, BfsStats::default(), false))?;
            (frontier.clone(), frontier, BfsStats::default(), 0)
        }
    };

    let visited: Mutex<HashSet<Entity>> = Mutex::new(visited_init.into_iter().collect());
    let stats = Mutex::new(stats_init);
    // A crash mid-round replays that round's frontier: profiles that
    // already landed are skipped, only their links are rediscovered.
    let stored = AlreadyStored::scan(store, &cfg.telemetry)?;

    let mut rounds = rounds_done;
    while !frontier.is_empty() && rounds < cfg.max_rounds {
        rounds += 1;
        if let Some(cap) = cfg.max_entities {
            if visited.lock().len() >= cap {
                break;
            }
        }
        let next: Mutex<Vec<Entity>> = Mutex::new(Vec::new());
        let fatal: Mutex<Option<CrawlError>> = Mutex::new(None);
        let queue: Mutex<std::vec::IntoIter<Entity>> =
            Mutex::new(std::mem::take(&mut frontier).into_iter());
        std::thread::scope(|scope| {
            for _ in 0..cfg.workers {
                scope.spawn(|| loop {
                    let entity = { queue.lock().next() };
                    let Some(entity) = entity else { break };
                    match crawl_entity(api, store, clock, &cfg.retry, &rt, &stored, entity) {
                        Ok(discovered) => {
                            let mut stats = stats.lock();
                            match entity {
                                Entity::Company(_) => stats.companies += 1,
                                Entity::User(_) => stats.users += 1,
                            }
                            drop(stats);
                            let mut visited = visited.lock();
                            let mut next = next.lock();
                            for d in discovered {
                                if visited.insert(d) {
                                    next.push(d);
                                }
                            }
                        }
                        Err(CrawlError::Api(_)) => {
                            stats.lock().skipped += 1;
                        }
                        Err(e) => {
                            fatal.lock().get_or_insert(e);
                            queue.lock().by_ref().for_each(drop);
                        }
                    }
                });
            }
        });
        // A round cut short by a store error must not be saved: its
        // record would make the truncated frontier the next one.
        if let Some(e) = fatal.into_inner() {
            return Err(e);
        }
        frontier = next.into_inner();

        // Persist progress: a crash after this point loses at most nothing;
        // a crash during the round re-fetches only that round's frontier.
        // The round's newly visited entities are exactly the next frontier.
        let mut snapshot_stats = stats.lock().clone();
        snapshot_stats.rounds = rounds;
        save_round(store, &RoundRecord::new(&frontier, snapshot_stats, frontier.is_empty()))?;
    }

    let mut out = stats.into_inner();
    out.rounds = rounds;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_socialsim::clock::SimClock;
    use crowdnet_socialsim::sources::FaultModel;
    use crowdnet_socialsim::{World, WorldConfig};

    fn setup(fault_rate: f64) -> (Arc<World>, AngelListApi, Store, Arc<dyn Clock>) {
        let world = Arc::new(World::generate(&WorldConfig::tiny(42)));
        let api = AngelListApi::new(Arc::clone(&world), FaultModel::new(fault_rate, 5));
        let store = Store::memory(4);
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        (world, api, store, clock)
    }

    #[test]
    fn bfs_discovers_most_of_the_graph() {
        let (world, api, store, clock) = setup(0.0);
        let stats = crawl_angellist(&api, &store, &clock, &BfsConfig::default()).unwrap();
        assert!(stats.rounds >= 2);
        assert_eq!(stats.skipped, 0);
        // Most of the world is reachable from the raising seeds within the
        // default round budget.
        let coverage = stats.companies as f64 / world.companies.len() as f64;
        assert!(coverage > 0.9, "coverage {coverage}");
        assert_eq!(store.doc_count(NS_COMPANIES).unwrap(), stats.companies);
        assert_eq!(store.doc_count(NS_USERS).unwrap(), stats.users);
    }

    #[test]
    fn crawl_is_deterministic_in_document_set() {
        let (_, api, store, clock) = setup(0.0);
        let s1 = crawl_angellist(&api, &store, &clock, &BfsConfig::default()).unwrap();
        let (_, api2, store2, clock2) = setup(0.0);
        let s2 = crawl_angellist(&api2, &store2, &clock2, &BfsConfig::default()).unwrap();
        assert_eq!(s1.companies, s2.companies);
        assert_eq!(s1.users, s2.users);
    }

    #[test]
    fn entity_budget_caps_the_crawl() {
        let (_, api, store, clock) = setup(0.0);
        let cfg = BfsConfig {
            max_entities: Some(100),
            ..BfsConfig::default()
        };
        let stats = crawl_angellist(&api, &store, &clock, &cfg).unwrap();
        // The cap is checked per round, so the crawl stops within a round of
        // crossing it: it must do real work, yet fetch strictly less and stop
        // strictly earlier than the unbudgeted crawl over the same world.
        let (_, api2, store2, clock2) = setup(0.0);
        let full = crawl_angellist(&api2, &store2, &clock2, &BfsConfig::default()).unwrap();
        assert!(stats.companies + stats.users >= 1);
        assert!(stats.companies + stats.users < full.companies + full.users);
        assert!(stats.rounds < full.rounds);
    }

    #[test]
    fn round_budget_caps_depth() {
        let (_, api, store, clock) = setup(0.0);
        let cfg = BfsConfig {
            max_rounds: 1,
            ..BfsConfig::default()
        };
        let stats = crawl_angellist(&api, &store, &clock, &cfg).unwrap();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.users, 0); // round 1 only crawls seed companies
        assert!(stats.companies > 0);
    }

    #[test]
    fn survives_transient_faults_via_retry() {
        let (world, api, store, clock) = setup(0.10);
        let stats = crawl_angellist(&api, &store, &clock, &BfsConfig::default()).unwrap();
        // With 10% faults and 5 attempts, effectively everything succeeds.
        let coverage = stats.companies as f64 / world.companies.len() as f64;
        assert!(coverage > 0.85, "coverage {coverage}");
    }

    #[test]
    fn zero_workers_is_a_config_error() {
        let (_, api, store, clock) = setup(0.0);
        let cfg = BfsConfig {
            workers: 0,
            ..BfsConfig::default()
        };
        assert!(matches!(
            crawl_angellist(&api, &store, &clock, &cfg),
            Err(CrawlError::Config(_))
        ));
    }

    #[test]
    fn checkpoint_roundtrips_through_json() {
        let cp = Checkpoint {
            visited: vec![Entity::Company(3), Entity::User(9)],
            frontier: vec![Entity::User(12)],
            stats: BfsStats {
                companies: 1,
                users: 1,
                rounds: 2,
                skipped: 0,
            },
            complete: false,
        };
        let decoded = Checkpoint::decode(&cp.encode()).unwrap();
        assert_eq!(decoded, cp);
        assert!(Checkpoint::decode(&crowdnet_json::obj! {"junk" => 1}).is_none());
    }

    /// Every stored profile, canonical order.
    fn stored_profiles(store: &Store) -> Vec<Document> {
        let scan = |ns| store.scan_snapshot_sorted(ns, crowdnet_store::SnapshotId(0)).unwrap();
        let mut docs = scan(NS_COMPANIES);
        docs.extend(scan(NS_USERS));
        docs
    }

    fn visited_set(cp: &Checkpoint) -> HashSet<Entity> {
        cp.visited.iter().copied().collect()
    }

    #[test]
    fn resume_after_every_round_equals_the_uninterrupted_crawl() {
        let (_, api, store, clock) = setup(0.0);
        let whole = crawl_angellist_resumable(&api, &store, &clock, &BfsConfig::default()).unwrap();
        let whole_cp = load_checkpoint(&store).unwrap().unwrap();
        assert!(whole_cp.complete);
        assert_eq!(whole_cp.visited.len(), visited_set(&whole_cp).len(), "visited twice");
        assert!(whole.rounds >= 3);
        for k in 0..=whole.rounds {
            let (_, api2, store2, clock2) = setup(0.0);
            let cut = BfsConfig { max_rounds: k, ..BfsConfig::default() };
            let partial = crawl_angellist_resumable(&api2, &store2, &clock2, &cut).unwrap();
            assert_eq!(partial.rounds, k);
            let mid = load_checkpoint(&store2).unwrap().unwrap();
            assert_eq!(mid.stats, partial, "k={k}");
            let resumed =
                crawl_angellist_resumable(&api2, &store2, &clock2, &BfsConfig::default()).unwrap();
            assert_eq!(resumed, whole, "k={k}");
            assert_eq!(stored_profiles(&store2), stored_profiles(&store), "k={k}");
            let cp = load_checkpoint(&store2).unwrap().unwrap();
            assert!(cp.complete);
            assert_eq!(visited_set(&cp), visited_set(&whole_cp), "k={k}");
        }
    }

    #[test]
    fn legacy_full_state_record_loads_as_a_reset() {
        let store = Store::memory(2);
        let put =
            |body: Value| store.put(NS_CHECKPOINT, Document::new(CHECKPOINT_KEY, body)).unwrap();
        let stats = |rounds| BfsStats { companies: 2, users: 1, rounds, skipped: 0 };
        // Round records of an earlier crawl, then a legacy full-state one.
        put(RoundRecord::new(&[Entity::Company(1)], stats(0), false).encode());
        put(RoundRecord::new(&[Entity::User(4)], stats(1), false).encode());
        let legacy = Checkpoint {
            visited: vec![Entity::Company(3), Entity::User(9), Entity::User(12)],
            frontier: vec![Entity::User(12)],
            stats: stats(2),
            complete: false,
        };
        put(legacy.encode());
        assert_eq!(load_checkpoint(&store).unwrap(), Some(legacy.clone()));
        // A round record after it extends the legacy state.
        put(RoundRecord::new(&[Entity::User(20), Entity::Company(7)], stats(3), false).encode());
        let cp = load_checkpoint(&store).unwrap().unwrap();
        let mut want = legacy.visited.clone();
        want.extend([Entity::Company(7), Entity::User(20)]);
        assert_eq!(cp.visited, want);
        assert_eq!(cp.frontier, vec![Entity::Company(7), Entity::User(20)]);
        assert_eq!(cp.stats, stats(3));
        // A malformed record loses the state; the next round 0 restarts it.
        put(crowdnet_json::obj! {"junk" => 1});
        assert_eq!(load_checkpoint(&store).unwrap(), None);
        put(RoundRecord::new(&[Entity::Company(5)], stats(0), false).encode());
        let cp = load_checkpoint(&store).unwrap().unwrap();
        assert_eq!((cp.visited, cp.frontier), (vec![Entity::Company(5)], vec![Entity::Company(5)]));
    }

    #[test]
    fn checkpoint_state_stays_near_one_copy_of_the_visited_set() {
        let (_, api, store, clock) = setup(0.0);
        crawl_angellist_resumable(&api, &store, &clock, &BfsConfig::default()).unwrap();
        let cp = load_checkpoint(&store).unwrap().unwrap();
        let flat = Value::Arr(
            cp.visited
                .iter()
                .map(|&e| match e {
                    Entity::Company(id) | Entity::User(id) => Value::from(id),
                })
                .collect(),
        )
        .to_compact()
        .len();
        let state: usize = store
            .stats()
            .unwrap()
            .iter()
            .filter(|ns| ns.namespace == NS_CHECKPOINT)
            .map(|ns| ns.encoded_bytes)
            .sum();
        assert!(state <= 2 * flat, "crawl/state holds {state} bytes, one flat list is {flat}");
    }

    #[test]
    fn resumable_crawl_matches_one_shot_crawl() {
        let (_, api, store, clock) = setup(0.0);
        let one_shot = crawl_angellist(&api, &store, &clock, &BfsConfig::default()).unwrap();

        // Interrupted run: budget of 2 rounds, then resume to completion.
        let (_, api2, store2, clock2) = setup(0.0);
        let partial = crawl_angellist_resumable(
            &api2,
            &store2,
            &clock2,
            &BfsConfig {
                max_rounds: 2,
                ..BfsConfig::default()
            },
        )
        .unwrap();
        assert_eq!(partial.rounds, 2);
        assert!(partial.companies < one_shot.companies);
        let calls_after_partial = api2.calls();

        let resumed =
            crawl_angellist_resumable(&api2, &store2, &clock2, &BfsConfig::default()).unwrap();
        assert_eq!(resumed.companies, one_shot.companies);
        assert_eq!(resumed.users, one_shot.users);
        // Resume did real work but never re-fetched round-1/2 entities: its
        // call count is well under a full second crawl.
        let resume_calls = api2.calls() - calls_after_partial;
        assert!(
            resume_calls < api.calls(),
            "resume used {resume_calls} vs full {}",
            api.calls()
        );

        // A third invocation is a no-op served from the complete checkpoint.
        let calls_before_noop = api2.calls();
        let again =
            crawl_angellist_resumable(&api2, &store2, &clock2, &BfsConfig::default()).unwrap();
        assert_eq!(again.companies, one_shot.companies);
        assert_eq!(api2.calls(), calls_before_noop);
    }

    #[test]
    fn resumable_from_scratch_equals_plain_crawl() {
        let (_, api, store, clock) = setup(0.0);
        let plain = crawl_angellist(&api, &store, &clock, &BfsConfig::default()).unwrap();
        let (_, api2, store2, clock2) = setup(0.0);
        let resumable =
            crawl_angellist_resumable(&api2, &store2, &clock2, &BfsConfig::default()).unwrap();
        assert_eq!(plain.companies, resumable.companies);
        assert_eq!(plain.users, resumable.users);
        // The completed checkpoint is marked complete.
        let cp = load_checkpoint(&store2).unwrap().unwrap();
        assert!(cp.complete);
    }

    /// A store error inside a round (here an injected ENOSPC on a put)
    /// fails the crawl: neither BFS may return `Ok` over a frontier the
    /// error cut short, and the resumable one must not save that round.
    #[test]
    fn a_store_error_mid_round_fails_the_crawl() {
        use crowdnet_socialsim::Scale;
        use crowdnet_store::{FailpointFs, FaultPlan, MemFs, Vfs};
        let world = Arc::new(World::generate(&WorldConfig::at_scale(
            42,
            Scale::Custom { companies: 400, users: 400 },
        )));
        for resumable in [true, false] {
            let mem = Arc::new(MemFs::new());
            let plan = FaultPlan { enospc: 0.002, ..FaultPlan::none(1) };
            let fs = Arc::new(FailpointFs::new(Arc::clone(&mem) as Arc<dyn Vfs>, plan));
            let store = Store::open_with_vfs("/s", 4, Arc::clone(&fs) as Arc<dyn Vfs>).unwrap();
            let api = AngelListApi::reliable(Arc::clone(&world));
            let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
            let crawl = if resumable { crawl_angellist_resumable } else { crawl_angellist };
            let result = crawl(&api, &store, &clock, &BfsConfig::default());
            assert!(fs.injected().enospc > 0, "resumable={resumable}: no fault fired");
            assert!(
                matches!(result, Err(CrawlError::Store(_))),
                "resumable={resumable}: {result:?} after {} ENOSPC",
                fs.injected().enospc
            );
        }
    }

    #[test]
    fn stored_documents_parse_back_with_expected_fields() {
        let (_, api, store, clock) = setup(0.0);
        crawl_angellist(&api, &store, &clock, &BfsConfig::default()).unwrap();
        let docs = store.scan(NS_COMPANIES).unwrap();
        assert!(!docs.is_empty());
        for doc in docs.iter().take(50) {
            assert!(doc.key.starts_with("company:"));
            assert!(doc.body.get("name").is_some());
            assert!(doc.body.get("follower_count").is_some());
        }
        let users = store.scan(NS_USERS).unwrap();
        for doc in users.iter().take(50) {
            assert!(doc.key.starts_with("user:"));
            assert!(doc.body.get("role").is_some());
            assert!(doc.body.get("investments").is_some());
        }
    }
}

//! The service core: one opened store + one lazily-built epoch, the
//! unsharded [`DataSource`] behind the endpoint table in [`router`].
//!
//! [`Service::handle`] is the whole request path, shared verbatim by the
//! in-process front end (tests, benches, `repro serve --smoke`) and the
//! TCP server — so "everything is also callable without sockets" is a
//! structural property, not a test shim. It is one call into
//! [`router::respond`]; what lives here is where the data comes from:
//! the [`Epoch`] — sealed column runs plus the [`Artifacts`] derived from
//! them, at one store version — that every endpoint reads.
//!
//! The epoch sits in a single slot. Either the ingest tier owns it
//! ([`Service::install_epoch`], pinned: requests read the installed pair
//! as-is) or it is rebuilt whenever [`Store::version`] moves past its
//! stamp: columns first, from one scan of the JSON log, then artifacts
//! from those columns. The result cache uses the same version as its
//! invalidation epoch, so a re-crawl invalidates both in one counter bump.
//! The JSON log is read by that rebuild and nothing else — no request
//! re-parses a stored document.

use crate::artifacts::{Artifacts, ArtifactsConfig};
use crate::cache::CacheConfig;
use crate::error::ServeError;
use crate::http::{Request, Response};
use crate::router::{self, DataSource, QueryCtx, Surface};
use crowdnet_column::{ColumnCatalog, ColumnConfig, ColumnRun, ColumnSet};
use crowdnet_json::Value;
use crowdnet_store::store::NamespaceStats;
use crowdnet_store::{SnapshotId, Store};
use crowdnet_telemetry::{Counter, Telemetry};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Serving knobs, shared by the unsharded service and the shard router
/// so both answer byte-identically from the same corpus.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Artifact-build knobs (CoDA size/seed, cleaning threshold, …).
    pub artifacts: ArtifactsConfig,
    /// Result-cache sizing.
    pub cache: CacheConfig,
    /// Maximum rows an ad-hoc SQL response returns (the rest is reported
    /// as `truncated`).
    pub sql_row_limit: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            artifacts: ArtifactsConfig::default(),
            cache: CacheConfig::default(),
            sql_row_limit: 1000,
        }
    }
}

/// One consistent view of the store: what every endpoint of one request
/// answers from. `artifacts` were derived from (or maintained in step
/// with) `columns`, and both reflect store version `artifacts.version`.
pub struct Epoch {
    /// Sealed column runs of every namespace — the `/sql` scan source.
    pub columns: Arc<ColumnCatalog>,
    /// Graph, communities, rankings and the entity index.
    pub artifacts: Arc<Artifacts>,
}

/// The one slot behind [`Service::epoch`] (generic only so tests can
/// install an epoch type of their own).
struct EpochSlot<E = Epoch> {
    /// The pair requests read; swapped whole, never patched.
    epoch: Option<Arc<E>>,
    /// Pinned: an external publisher owns freshness through
    /// [`Service::install_epoch`] and requests never rebuild inline.
    pinned: bool,
    /// A catalog handed in by [`Service::install_columns`] for the next
    /// rebuild to start from instead of scanning the log.
    offered: Option<Arc<ColumnCatalog>>,
}

impl<E> EpochSlot<E> {
    fn empty() -> EpochSlot<E> {
        EpochSlot { epoch: None, pinned: false, offered: None }
    }

    /// Swap `epoch` in and hand back what it displaced, for the caller to
    /// drop once the write guard is gone: freeing a retired epoch is the
    /// publisher's cost, and no reader should wait on the lock for it.
    fn replace(&mut self, epoch: Arc<E>) -> (Option<Arc<E>>, Option<Arc<ColumnCatalog>>) {
        (self.epoch.replace(epoch), self.offered.take())
    }

    /// [`Service::install_epoch`]'s swap: pin `epoch` into the slot behind
    /// `lock`, freeing the retired one after the lock is released.
    fn pin(lock: &RwLock<EpochSlot<E>>, epoch: Arc<E>) {
        let retired = {
            let mut slot = lock.write();
            slot.pinned = true;
            slot.replace(epoch)
        };
        drop(retired);
    }
}

/// The query-serving core.
pub struct Service {
    surface: Surface,
    store: Arc<Store>,
    slot: RwLock<EpochSlot>,
    /// Degraded mode: the owning tier is recovering from a crash; requests
    /// keep being answered from the last committed epoch, flagged so
    /// clients can tell the data may trail the store. Surfaced by
    /// `/healthz` and `/stats`.
    degraded: AtomicBool,
    column_rebuilds: Counter,
}

impl Service {
    /// Wrap an opened store. Nothing is scanned yet — the epoch builds on
    /// the first request that needs it.
    pub fn new(store: Arc<Store>, cfg: ServiceConfig, telemetry: Telemetry) -> Service {
        let requests = telemetry.counter("serve.requests");
        Service {
            column_rebuilds: telemetry.counter("column.rebuilds"),
            surface: Surface::new(cfg, telemetry, requests, "serve"),
            store,
            slot: RwLock::new(EpochSlot::empty()),
            degraded: AtomicBool::new(false),
        }
    }

    /// Raise or clear degraded mode. While degraded, requests keep being
    /// served from whatever epoch is installed (possibly trailing the
    /// store) and `/healthz` / `/stats` carry `"degraded": true` so load
    /// balancers and dashboards can tell.
    pub fn set_degraded(&self, degraded: bool) {
        self.degraded.store(degraded, Ordering::Release);
    }

    /// True while the owning tier recovers from a crash.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Install an externally assembled epoch — one slot write — and
    /// switch the service to pinned-epoch mode: every subsequent request
    /// answers from this pair (zero rebuild on the request path) until the
    /// next install swaps it out. No reader can pair one install's columns
    /// with another's artifacts, and the result cache keys by the epoch's
    /// version stamp, so entries from older epochs become unreachable at
    /// the same instant the swap lands.
    pub fn install_epoch(&self, columns: Arc<ColumnCatalog>, artifacts: Arc<Artifacts>) {
        EpochSlot::pin(&self.slot, Arc::new(Epoch { columns, artifacts }));
    }

    /// Offer a columnar projection for the next lazy rebuild to start
    /// from. Unlike [`Service::install_epoch`] this neither pins nor
    /// publishes anything: a catalog at exactly the store's version saves
    /// the rebuild its scan of the JSON log, any other is ignored.
    pub fn install_columns(&self, catalog: Arc<ColumnCatalog>) {
        self.slot.write().offered = Some(catalog);
    }

    /// The installed epoch, when the service is in pinned-epoch mode.
    pub fn pinned_epoch(&self) -> Option<Arc<Epoch>> {
        let slot = self.slot.read();
        if slot.pinned {
            slot.epoch.clone()
        } else {
            None
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The telemetry handle every request reports into.
    pub fn telemetry(&self) -> &Telemetry {
        self.surface.telemetry()
    }

    /// The artifacts requests answer from ([`Service::epoch`]'s).
    pub fn artifacts(&self) -> Result<Arc<Artifacts>, ServeError> {
        Ok(Arc::clone(&self.epoch()?.artifacts))
    }

    /// The epoch requests answer from. In pinned-epoch mode this is the
    /// installed pair, untouched by store writes; otherwise the epoch of
    /// the store's *current* version, building (or rebuilding, after a
    /// write) if the cached one is stale.
    pub fn epoch(&self) -> Result<Arc<Epoch>, ServeError> {
        let version = self.store.version();
        let offered = {
            let slot = self.slot.read();
            if let Some(epoch) = &slot.epoch {
                if slot.pinned || epoch.artifacts.version == version {
                    return Ok(Arc::clone(epoch));
                }
            }
            slot.offered.clone().filter(|c| c.version() == version)
        };
        // Build outside any lock — the scan and CoDA take real time and
        // the read path above must stay contention-free meanwhile.
        let built = Arc::new(self.build_epoch(offered)?);
        let retired = {
            let mut slot = self.slot.write();
            match &slot.epoch {
                // An install, or a racing builder with an equal-or-newer
                // stamp, won; use its epoch so every caller converges on one.
                Some(e) if slot.pinned || e.artifacts.version >= built.artifacts.version => {
                    return Ok(Arc::clone(e));
                }
                _ => slot.replace(Arc::clone(&built)),
            }
        };
        drop(retired);
        Ok(built)
    }

    /// Columns, then artifacts from those columns. The projection is
    /// derived data and never trusted: if an offered catalog fails to
    /// decode, the columns are rebuilt from the JSON log once (counted in
    /// `column.rebuilds`); a failure after that is the caller's error,
    /// never a different source.
    fn build_epoch(&self, offered: Option<Arc<ColumnCatalog>>) -> Result<Epoch, ServeError> {
        let telemetry = self.surface.telemetry();
        let cfg = &self.surface.cfg().artifacts;
        if let Some(columns) = offered {
            if let Ok(artifacts) = Artifacts::from_columns(&columns, telemetry, cfg) {
                return Ok(Epoch { columns, artifacts: Arc::new(artifacts) });
            }
            self.column_rebuilds.inc();
        }
        let columns = self.rebuild_columns()?;
        let artifacts = Arc::new(Artifacts::from_columns(&columns, telemetry, cfg)?);
        Ok(Epoch { columns, artifacts })
    }

    /// Project the whole store into sealed runs: the serving tier's one
    /// reader of the JSON log (`scripts/check.sh` holds it to that).
    fn rebuild_columns(&self) -> Result<Arc<ColumnCatalog>, ServeError> {
        let telemetry = self.surface.telemetry();
        let set = ColumnSet::build_from_store(&self.store, ColumnConfig::default(), Some(telemetry))?;
        Ok(set.catalog())
    }

    /// Serve one request end to end: admission-independent core shared by
    /// the TCP and in-process front ends. Never panics; every failure is a
    /// status-coded JSON response.
    pub fn handle(&self, req: &Request) -> Response {
        router::respond(&self.surface, self, &mut QueryCtx::default(), req)
    }

    /// One representative target per endpoint, with real ids from the
    /// current artifacts ([`router::example_targets`]).
    pub fn example_targets(&self) -> Result<Vec<String>, ServeError> {
        router::example_targets(self)
    }
}

/// The unsharded data source: every access reads the one epoch (or, for
/// live stats, the store), so no shard is ever missing and `ctx` stays
/// untouched.
impl DataSource for Service {
    fn cache_scope(&self) -> Option<(u64, &'static str)> {
        // Cache epoch: the installed epoch's stamp when pinned (entries
        // survive raw store writes until the next publish), the live
        // store version otherwise.
        let epoch = match self.pinned_epoch() {
            Some(e) => e.artifacts.version,
            None => self.store.version(),
        };
        // Degraded responses carry a flag in their bodies, so they must not
        // share cache entries with healthy ones at the same version.
        let suffix = if self.is_degraded() {
            " [degraded]"
        } else {
            ""
        };
        Some((epoch, suffix))
    }

    fn tier_degraded(&self) -> bool {
        self.is_degraded()
    }

    fn live_version(&self) -> u64 {
        self.store.version()
    }

    fn health_detail(&self) -> Option<(&'static str, Value)> {
        None
    }

    fn current_artifacts(&self, _ctx: &mut QueryCtx) -> Result<Arc<Artifacts>, ServeError> {
        self.artifacts()
    }

    fn namespace_stats(
        &self,
        _ctx: &mut QueryCtx,
    ) -> Result<(Vec<NamespaceStats>, u64), ServeError> {
        // Pinned-epoch mode: answer from the stats frozen into the epoch, at
        // the epoch's version — consistent with every other endpoint even
        // while the store takes writes. Otherwise read the store live.
        if let Some(epoch) = self.pinned_epoch() {
            if let Some(stats) = &epoch.artifacts.stats {
                return Ok((stats.clone(), epoch.artifacts.version));
            }
        }
        Ok((self.store.stats()?, self.store.version()))
    }

    fn entity_body(
        &self,
        _ctx: &mut QueryCtx,
        kind: &str,
        id: u32,
    ) -> Result<Option<Value>, ServeError> {
        Ok(self.artifacts()?.entity(kind, id).cloned())
    }

    fn investor_companies(
        &self,
        _ctx: &mut QueryCtx,
        id: u32,
    ) -> Result<Option<Vec<u32>>, ServeError> {
        Ok(self.artifacts()?.graph.company_ids_of(id))
    }

    fn company_investors(
        &self,
        _ctx: &mut QueryCtx,
        id: u32,
    ) -> Result<Option<Vec<u32>>, ServeError> {
        Ok(self.artifacts()?.graph.investor_ids_of(id))
    }

    fn top_by_degree(&self, _ctx: &mut QueryCtx, k: usize) -> Result<Vec<(u32, f64)>, ServeError> {
        let a = self.artifacts()?;
        let degrees = a.graph.investor_degrees().into_iter().map(|d| d as f64);
        Ok(router::rank_investors(&a.graph, degrees, k))
    }

    fn scan_runs(
        &self,
        _ctx: &mut QueryCtx,
        ns: &str,
    ) -> Result<Vec<Vec<Arc<ColumnRun>>>, ServeError> {
        Ok(self.epoch()?.columns.scan_runs(ns, SnapshotId(0))?.to_vec())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::artifacts::{NS_COMPANIES, NS_USERS};
    use crowdnet_json::obj;
    use crowdnet_store::Document;

    pub(crate) fn seeded_service() -> Service {
        let store = Store::memory(4);
        for id in 0..4u32 {
            store
                .put(
                    NS_COMPANIES,
                    Document::new(
                        format!("company:{id}"),
                        obj! {"id" => u64::from(id), "name" => format!("c{id}"), "funded" => id % 2 == 0},
                    ),
                )
                .unwrap();
        }
        let portfolios: &[(u32, &[u64])] = &[
            (10, &[0, 1, 2, 3]),
            (11, &[0, 1, 2, 3]),
            (12, &[1, 2, 3, 0]),
        ];
        for (id, inv) in portfolios {
            let arr = inv.iter().map(|&c| Value::from(c)).collect::<Vec<_>>();
            store
                .put(
                    NS_USERS,
                    Document::new(
                        format!("user:{id}"),
                        obj! {
                            "id" => u64::from(*id),
                            "role" => "investor",
                            "investments" => Value::Arr(arr),
                        },
                    ),
                )
                .unwrap();
        }
        Service::new(
            Arc::new(store),
            ServiceConfig::default(),
            Telemetry::new(),
        )
    }

    #[test]
    fn artifacts_are_cached_until_a_write() {
        let svc = seeded_service();
        let a1 = svc.artifacts().unwrap();
        let a2 = svc.artifacts().unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        svc.store()
            .put(NS_COMPANIES, Document::new("company:99", obj! {"id" => 99u64}))
            .unwrap();
        let a3 = svc.artifacts().unwrap();
        assert!(!Arc::ptr_eq(&a1, &a3));
        assert!(a3.version > a1.version);
    }

    #[test]
    fn handle_counts_requests_and_caches_gets() {
        let svc = seeded_service();
        let t = svc.telemetry().clone();
        let r1 = svc.handle(&Request::get("/stats"));
        assert_eq!(r1.status, 200);
        let r2 = svc.handle(&Request::get("/stats"));
        assert_eq!(r1, r2);
        assert_eq!(t.counter("serve.requests").value(), 2);
        assert_eq!(t.counter("serve.cache.hit").value(), 1);
        assert_eq!(t.counter("serve.cache.miss").value(), 1);
    }

    #[test]
    fn a_write_invalidates_cached_responses() {
        let svc = seeded_service();
        let before = svc.handle(&Request::get("/stats"));
        svc.store()
            .put(NS_COMPANIES, Document::new("company:77", obj! {"id" => 77u64}))
            .unwrap();
        let after = svc.handle(&Request::get("/stats"));
        assert_ne!(before.body, after.body, "stale stats served after write");
        assert_eq!(svc.telemetry().counter("serve.cache.hit").value(), 0);
    }

    #[test]
    fn errors_are_not_cached() {
        let svc = seeded_service();
        svc.handle(&Request::get("/no/such/route"));
        svc.handle(&Request::get("/no/such/route"));
        assert_eq!(svc.telemetry().counter("serve.cache.hit").value(), 0);
    }

    #[test]
    fn example_targets_all_succeed() {
        let svc = seeded_service();
        for target in svc.example_targets().unwrap() {
            let resp = svc.handle(&Request::get(&target));
            assert_eq!(resp.status, 200, "target {target} failed: {:?}", resp.body);
        }
    }

    #[test]
    fn degraded_flag_reaches_health_and_stats_without_poisoning_the_cache() {
        let svc = seeded_service();
        let parse = |resp: &Response| {
            Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
        };
        let healthy = svc.handle(&Request::get("/stats"));
        assert_eq!(
            parse(&healthy).get("degraded").and_then(Value::as_bool),
            Some(false)
        );

        svc.set_degraded(true);
        let degraded = svc.handle(&Request::get("/stats"));
        assert_eq!(
            parse(&degraded).get("degraded").and_then(Value::as_bool),
            Some(true),
            "cached healthy /stats served while degraded"
        );
        let health = svc.handle(&Request::get("/healthz"));
        assert_eq!(
            parse(&health).get("degraded").and_then(Value::as_bool),
            Some(true)
        );

        // Clearing the flag goes back to the healthy responses (and may
        // reuse the healthy cache entry — same version, same key).
        svc.set_degraded(false);
        let again = svc.handle(&Request::get("/stats"));
        assert_eq!(healthy.body, again.body);
    }

    /// The JSON-scan oracle: [`Artifacts::build`] re-parses the log; the
    /// service derives the same artifacts from sealed columns.
    fn assert_matches_json_oracle(svc: &Service) {
        let got = svc.artifacts().unwrap();
        let want = Artifacts::build(
            svc.store(),
            crowdnet_dataflow::ExecCtx::new(2),
            &Telemetry::new(),
            &ArtifactsConfig::default(),
        )
        .unwrap();
        assert_eq!(got.version, want.version);
        assert_eq!(got.pagerank, want.pagerank);
        assert_eq!(got.cover, want.cover);
        assert_eq!(got.graph.investor_count(), want.graph.investor_count());
        for i in 0..want.graph.investor_count() as u32 {
            let id = want.graph.investor_id(i);
            assert_eq!(got.graph.investor_id(i), id);
            assert_eq!(got.graph.company_ids_of(id), want.graph.company_ids_of(id));
        }
        for ns in [NS_COMPANIES, NS_USERS] {
            for doc in svc.store().scan(ns).unwrap() {
                let (kind, id) = doc.key.split_once(':').unwrap();
                let id = id.parse().unwrap();
                assert_eq!(got.entity(kind, id), want.entity(kind, id), "{}", doc.key);
            }
        }
    }

    #[test]
    fn lazy_epoch_is_built_from_columns_and_matches_the_json_oracle() {
        let svc = seeded_service();
        assert_matches_json_oracle(&svc);
        let t = svc.telemetry();
        // One projection of the log, decoded once for the artifacts.
        assert_eq!(t.counter("column.builds").value(), 1);
        assert!(t.counter("column.scan.docs").value() > 0);
        let epoch = svc.epoch().unwrap();
        assert_eq!(epoch.columns.version(), epoch.artifacts.version);
        assert!(Arc::ptr_eq(&epoch.artifacts, &svc.artifacts().unwrap()));
    }

    #[test]
    fn a_key_re_put_across_sealed_runs_keeps_its_last_body() {
        let svc = seeded_service();
        let store = svc.store();
        let feed = store.subscribe(1024);
        let telemetry = Telemetry::new();
        let mut set = ColumnSet::build_from_store(store, ColumnConfig::default(), None).unwrap();
        set = set.with_telemetry(&telemetry);
        // Investor 10 grows its portfolio over three epochs, each sealed
        // into its own run beside a fresh investor.
        let mut rows = 0;
        for round in 0..3u64 {
            let investor = |id: u64, companies: &[u64]| {
                let arr = companies.iter().map(|&c| Value::from(c)).collect::<Vec<_>>();
                Document::new(
                    format!("user:{id}"),
                    obj! {
                        "id" => id,
                        "role" => "investor",
                        "round" => round,
                        "investments" => Value::Arr(arr),
                    },
                )
            };
            store.put(NS_USERS, investor(10, &[0, 1, 2, 3, 4 + round])).unwrap();
            store.put(NS_USERS, investor(20 + round, &[0, 1, 2, 3])).unwrap();
            while let crowdnet_store::FeedPoll::Event(ev) = feed.poll() {
                set.apply_event(&ev);
            }
            set.seal();
        }
        let catalog = set.catalog();
        assert_eq!(catalog.version(), store.version());
        let runs = catalog.partition_runs(NS_USERS, SnapshotId(0)).unwrap();
        let runs: usize = runs.iter().map(Vec::len).sum();
        assert!(runs >= 4, "{runs} runs");
        for ns in [NS_COMPANIES, NS_USERS] {
            rows += catalog.rows(ns, SnapshotId(0)).unwrap();
        }
        svc.install_columns(Arc::clone(&catalog));
        assert_matches_json_oracle(&svc);
        let artifacts = svc.artifacts().unwrap();
        let last = artifacts.entity("user", 10).unwrap();
        assert_eq!(last.get("round").and_then(Value::as_u64), Some(2));
        // Every decoded row is counted, superseded versions included.
        assert_eq!(telemetry.counter("column.scan.docs").value(), rows as u64);
    }

    #[test]
    fn offered_columns_at_the_store_version_spare_the_log_scan() {
        let svc = seeded_service();
        let offered = ColumnSet::build_from_store(svc.store(), ColumnConfig::default(), None)
            .unwrap()
            .catalog();
        svc.install_columns(Arc::clone(&offered));
        assert_matches_json_oracle(&svc);
        assert!(Arc::ptr_eq(&svc.epoch().unwrap().columns, &offered));
        assert_eq!(svc.telemetry().counter("column.builds").value(), 0);
        assert!(svc.pinned_epoch().is_none(), "an offer must not pin");
    }

    #[test]
    fn offered_columns_that_cannot_answer_cost_one_counted_rebuild() {
        let svc = seeded_service();
        // A projection sealed without the users' edge segments: at the
        // right version, but the artifacts cannot be derived from it.
        let cfg = ColumnConfig { edge_namespace: "elsewhere".to_string() };
        let broken = ColumnSet::build_from_store(svc.store(), cfg, None).unwrap().catalog();
        svc.install_columns(Arc::clone(&broken));
        assert_matches_json_oracle(&svc);
        assert!(!Arc::ptr_eq(&svc.epoch().unwrap().columns, &broken));
        assert_eq!(svc.telemetry().counter("column.rebuilds").value(), 1);
    }

    #[test]
    fn stale_columns_are_rebuilt_never_served() {
        let svc = seeded_service();
        let stale = ColumnSet::build_from_store(svc.store(), ColumnConfig::default(), None)
            .unwrap()
            .catalog();
        svc.install_columns(Arc::clone(&stale));
        // A write moves the store past the offered catalog.
        svc.store()
            .put(NS_COMPANIES, Document::new("company:88", obj! {"id" => 88u64}))
            .unwrap();
        let epoch = svc.epoch().unwrap();
        assert_eq!(epoch.artifacts.version, svc.store().version());
        assert_eq!(epoch.columns.version(), svc.store().version());
        assert!(!Arc::ptr_eq(&epoch.columns, &stale), "stale columns served");
        assert!(epoch.artifacts.entity("company", 88).is_some());
        let count = svc.handle(&Request::get(
            "/sql?ns=angellist%2Fcompanies&q=SELECT+COUNT(*)+AS+n+FROM+docs",
        ));
        assert!(String::from_utf8_lossy(&count.body).contains("[[5]]"), "{count:?}");
        assert_matches_json_oracle(&svc);
    }

    #[test]
    fn an_installed_epoch_is_read_as_one_pair_until_the_next_install() {
        let svc = seeded_service();
        let install = |svc: &Service| {
            let set =
                ColumnSet::build_from_store(svc.store(), ColumnConfig::default(), None).unwrap();
            let columns = set.catalog();
            let artifacts = Artifacts::from_columns(
                &columns,
                &Telemetry::new(),
                &ArtifactsConfig::default(),
            )
            .unwrap();
            svc.install_epoch(columns, Arc::new(artifacts));
        };
        let sql = "/sql?ns=angellist%2Fcompanies&q=SELECT+COUNT(*)+AS+n+FROM+docs";
        install(&svc);
        let before = svc.handle(&Request::get(sql));
        svc.store()
            .put(NS_COMPANIES, Document::new("company:88", obj! {"id" => 88u64}))
            .unwrap();
        // Pinned: neither half moves with the store …
        let pinned = svc.pinned_epoch().unwrap();
        assert_eq!(pinned.columns.version(), pinned.artifacts.version);
        assert!(pinned.artifacts.version < svc.store().version());
        assert_eq!(svc.handle(&Request::get(sql)).body, before.body);
        assert_eq!(svc.handle(&Request::get("/entity/company/88")).status, 404);
        // … and both move with the next install.
        install(&svc);
        assert_ne!(svc.handle(&Request::get(sql)).body, before.body);
        assert_eq!(svc.handle(&Request::get("/entity/company/88")).status, 200);
    }

    /// An epoch whose drop tries to take the slot it was installed in.
    struct DropProbe {
        slot: std::sync::Weak<RwLock<EpochSlot<DropProbe>>>,
        slot_was_free: Arc<AtomicBool>,
    }

    impl Drop for DropProbe {
        fn drop(&mut self) {
            if let Some(slot) = self.slot.upgrade() {
                let free = slot.try_write().is_some();
                self.slot_was_free.store(free, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn install_frees_the_retired_epoch_after_releasing_the_slot() {
        let slot = Arc::new(RwLock::new(EpochSlot::<DropProbe>::empty()));
        let probe = |flag: &Arc<AtomicBool>| {
            Arc::new(DropProbe {
                slot: Arc::downgrade(&slot),
                slot_was_free: Arc::clone(flag),
            })
        };
        let first = Arc::new(AtomicBool::new(false));
        let second = Arc::new(AtomicBool::new(false));
        EpochSlot::pin(&slot, probe(&first));
        EpochSlot::pin(&slot, probe(&second));
        assert!(
            first.load(Ordering::SeqCst),
            "the retired epoch was dropped while the slot's write lock was held"
        );
        assert!(slot.read().pinned);
    }

    #[test]
    fn identical_requests_are_byte_identical() {
        let run = || {
            let svc = seeded_service();
            let mut bytes = Vec::new();
            for target in svc.example_targets().unwrap() {
                if target == "/healthz" {
                    continue; // healthz reports live cache occupancy
                }
                bytes.extend_from_slice(&svc.handle(&Request::get(&target)).body);
            }
            bytes
        };
        assert_eq!(run(), run());
    }
}

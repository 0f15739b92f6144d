//! The service core: one opened store + lazily-built artifacts, the
//! unsharded [`DataSource`] behind the endpoint table in [`router`].
//!
//! [`Service::handle`] is the whole request path, shared verbatim by the
//! in-process front end (tests, benches, `repro serve --smoke`) and the
//! TCP server — so "everything is also callable without sockets" is a
//! structural property, not a test shim. It is one call into
//! [`router::respond`]; what lives here is where the data comes from:
//! the pinned or lazily rebuilt [`Artifacts`] and the store itself.
//!
//! Artifacts are rebuilt whenever [`Store::version`] moves past the stamp
//! on the cached build; the result cache uses the same version as its
//! invalidation epoch, so a re-crawl invalidates both in one counter bump.

use crate::artifacts::{Artifacts, ArtifactsConfig};
use crate::cache::CacheConfig;
use crate::error::ServeError;
use crate::http::{Request, Response};
use crate::router::{self, DataSource, QueryCtx, Surface};
use crowdnet_column::ColumnCatalog;
use crowdnet_json::Value;
use crowdnet_store::store::NamespaceStats;
use crowdnet_store::{Document, SnapshotId, Store};
use crowdnet_telemetry::Telemetry;
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
    /// Dataflow threads for scans and SQL execution.
    pub threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            artifacts: ArtifactsConfig::default(),
            cache: CacheConfig::default(),
            sql_row_limit: 1000,
            threads: 2,
        }
    }
}

/// The query-serving core.
pub struct Service {
    surface: Surface,
    store: Arc<Store>,
    artifacts_slot: RwLock<Option<Arc<Artifacts>>>,
    /// Columnar projection of the store, when the owning tier maintains
    /// one. Lazy rebuilds prefer it over re-parsing the JSON log whenever
    /// its version matches the store; any column error falls back to the
    /// JSON path — the projection is derived data and never trusted.
    columns_slot: RwLock<Option<Arc<ColumnCatalog>>>,
    /// Pinned-epoch mode: an external publisher (the ingest tier) owns
    /// artifact freshness via [`Service::install_artifacts`]; requests
    /// read the installed epoch as-is and never rebuild inline.
    pinned: AtomicBool,
    /// Degraded mode: the owning tier is recovering from a crash; requests
    /// keep being answered from the last committed epoch, flagged so
    /// clients can tell the data may trail the store. Surfaced by
    /// `/healthz` and `/stats`.
    degraded: AtomicBool,
}

impl Service {
    /// Wrap an opened store. Nothing is scanned yet — artifacts build on
    /// the first request that needs them.
    pub fn new(store: Arc<Store>, cfg: ServiceConfig, telemetry: Telemetry) -> Service {
        let requests = telemetry.counter("serve.requests");
        Service {
            surface: Surface::new(cfg, telemetry, requests, "serve"),
            store,
            artifacts_slot: RwLock::new(None),
            columns_slot: RwLock::new(None),
            pinned: AtomicBool::new(false),
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

    /// Atomically install an externally assembled epoch and switch the
    /// service to pinned-epoch mode: every subsequent request answers
    /// from this snapshot (zero rebuild on the request path) until the
    /// next install swaps it out. The result cache keys by the epoch's
    /// version stamp, so entries from older epochs become unreachable at
    /// the same instant the swap lands.
    pub fn install_artifacts(&self, artifacts: Arc<Artifacts>) {
        *self.artifacts_slot.write() = Some(artifacts);
        self.pinned.store(true, Ordering::Release);
    }

    /// Publish a columnar projection for lazy rebuilds to answer from.
    /// Unlike [`Service::install_artifacts`] this does not pin anything:
    /// the next stale-version rebuild simply decodes columns instead of
    /// re-parsing JSON, and a catalog that trails the store is ignored.
    pub fn install_columns(&self, catalog: Arc<ColumnCatalog>) {
        *self.columns_slot.write() = Some(catalog);
    }

    /// The installed columnar projection, if any.
    pub fn columns(&self) -> Option<Arc<ColumnCatalog>> {
        self.columns_slot.read().clone()
    }

    /// The installed epoch, when the service is in pinned-epoch mode.
    pub fn pinned_artifacts(&self) -> Option<Arc<Artifacts>> {
        if !self.pinned.load(Ordering::Acquire) {
            return None;
        }
        self.artifacts_slot.read().clone()
    }

    /// The underlying store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The telemetry handle every request reports into.
    pub fn telemetry(&self) -> &Telemetry {
        self.surface.telemetry()
    }

    /// The artifacts requests answer from. In pinned-epoch mode this is
    /// the installed epoch, untouched by store writes; otherwise the
    /// artifacts for the store's *current* version, building (or
    /// rebuilding, after a write) if the cached build is stale.
    pub fn artifacts(&self) -> Result<Arc<Artifacts>, ServeError> {
        if let Some(pinned) = self.pinned_artifacts() {
            return Ok(pinned);
        }
        let version = self.store.version();
        {
            let slot = self.artifacts_slot.read();
            if let Some(a) = &*slot {
                if a.version == version {
                    return Ok(Arc::clone(a));
                }
            }
        }
        // Build outside any lock — scans and CoDA take real time and the
        // read path above must stay contention-free meanwhile. Prefer the
        // columnar projection when one is installed at exactly this
        // version; any column error (corrupt run, stale manifest) drops
        // to the JSON scan, which is always authoritative.
        let telemetry = self.surface.telemetry();
        let cfg = &self.surface.cfg().artifacts;
        let columnar = self
            .columns()
            .filter(|c| c.version() == version)
            .and_then(|c| Artifacts::from_columns(&c, telemetry, cfg).ok());
        let built = match columnar {
            Some(a) => Arc::new(a),
            None => Arc::new(Artifacts::build(
                &self.store,
                self.surface.ctx(),
                telemetry,
                cfg,
            )?),
        };
        let mut slot = self.artifacts_slot.write();
        match &*slot {
            // A racing builder won with an equal-or-newer stamp; use its
            // build so every caller converges on one Arc.
            Some(a) if a.version >= built.version => Ok(Arc::clone(a)),
            _ => {
                *slot = Some(Arc::clone(&built));
                Ok(built)
            }
        }
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

/// The unsharded data source: every access reads the one store or the
/// artifacts built from it, so no shard is ever missing and `ctx` stays
/// untouched.
impl DataSource for Service {
    fn cache_scope(&self) -> Option<(u64, &'static str)> {
        // Cache epoch: the installed epoch's stamp when pinned (entries
        // survive raw store writes until the next publish), the live
        // store version otherwise.
        let epoch = match self.pinned_artifacts() {
            Some(a) => a.version,
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
        if let Some(epoch) = self.pinned_artifacts() {
            if let Some(stats) = &epoch.stats {
                return Ok((stats.clone(), epoch.version));
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

    fn scan_partitions(
        &self,
        _ctx: &mut QueryCtx,
        ns: &str,
    ) -> Result<Vec<Vec<Document>>, ServeError> {
        Ok(self.store.scan_partitions(ns, SnapshotId(0))?)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::artifacts::{NS_COMPANIES, NS_USERS};
    use crowdnet_json::obj;

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

    #[test]
    fn columnar_rebuild_is_used_and_byte_identical_to_json_path() {
        let run = |columnar: bool| {
            let svc = seeded_service();
            if columnar {
                let set = crowdnet_column::ColumnSet::build_from_store(
                    svc.store(),
                    crowdnet_column::ColumnConfig::default(),
                    Some(svc.telemetry()),
                )
                .unwrap();
                svc.install_columns(set.catalog());
            }
            let mut bytes = Vec::new();
            for target in svc.example_targets().unwrap() {
                if target == "/healthz" {
                    continue;
                }
                bytes.extend_from_slice(&svc.handle(&Request::get(&target)).body);
            }
            if columnar {
                // The rebuild really decoded columns: the catalog's scan
                // counter moved. (The JSON fallback never touches it.)
                assert!(
                    svc.telemetry().counter("column.scan.docs").value() > 0,
                    "columnar path was installed but not used"
                );
            }
            bytes
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stale_columns_fall_back_to_the_json_scan() {
        let svc = seeded_service();
        let set = crowdnet_column::ColumnSet::build_from_store(
            svc.store(),
            crowdnet_column::ColumnConfig::default(),
            Some(svc.telemetry()),
        )
        .unwrap();
        svc.install_columns(set.catalog());
        // A write moves the store past the catalog; the rebuild must not
        // answer from the stale projection.
        svc.store()
            .put(NS_COMPANIES, Document::new("company:88", obj! {"id" => 88u64}))
            .unwrap();
        let a = svc.artifacts().unwrap();
        assert_eq!(a.version, svc.store().version());
        assert!(a.entity("company", 88).is_some(), "stale columnar epoch served");
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

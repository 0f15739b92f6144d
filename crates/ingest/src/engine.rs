//! The ingest engine: one changefeed subscription driving the maintainers,
//! plus the epoch publisher.
//!
//! # Lifecycle
//!
//! ```text
//! Store writes ──changefeed──▶ drain() ──▶ maintainers (graph, entities, stats)
//!                                │
//!                 Lagged{..} ────┘ overflow → catch_up() full rescan
//!
//! publish() ──▶ Artifacts::assemble(parts, warm CoDA) ──▶ Service::install_epoch
//! ```
//!
//! [`IngestEngine::new`] subscribes **before** its initial catch-up scan, so
//! writes racing the scan land in the queue and the version guard (events at
//! or below the scanned version are skipped) keeps the two paths from
//! double-applying. On [`FeedPoll::Lagged`] the engine discards any buffered
//! pre-gap events and rescans — the changefeed's documented recovery
//! contract — so maintained state can never mix pre- and post-gap deltas.
//!
//! Epochs published by [`IngestEngine::publish`] are immutable
//! [`Artifacts`] snapshots stamped with the last applied store version;
//! installing one into a [`Service`] atomically swaps what every subsequent
//! request reads (pinned-epoch mode — zero rebuild on the request path).

use crate::error::IngestError;
use crate::maintain::{EntityMaintainer, GraphMaintainer, StatsMaintainer};
use crowdnet_column::{ColumnCatalog, ColumnConfig, ColumnSet};
use crowdnet_graph::Coda;
use crowdnet_serve::artifacts::{ArtifactParts, NS_COMPANIES, NS_USERS};
use crowdnet_serve::{Artifacts, ArtifactsConfig, Service};
use crowdnet_store::{ChangeEvent, ChangePayload, FeedPoll, SnapshotId, Store, Subscription};
use crowdnet_telemetry::{Counter, Gauge, Histogram, Telemetry};
use std::sync::Arc;

/// Ingest-tier knobs.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Changefeed subscription queue capacity (events buffered between
    /// drains before the overflow policy kicks in).
    pub feed_capacity: usize,
    /// Artifact knobs — must match the serving tier's so published epochs
    /// agree with what a rebuild would produce.
    pub artifacts: ArtifactsConfig,
    /// CoDA gradient iterations for warm-started epoch refits (the first,
    /// cold epoch uses `artifacts.iterations`).
    pub refit_iterations: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            feed_capacity: 65_536,
            artifacts: ArtifactsConfig::default(),
            refit_iterations: 5,
        }
    }
}

/// What one [`IngestEngine::drain`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Events applied (appends + snapshot rolls).
    pub events: u64,
    /// Documents applied.
    pub docs: u64,
    /// New graph edges inserted.
    pub edges: u64,
    /// Events lost to queue overflow (each loss triggered a catch-up scan).
    pub lag_drops: u64,
    /// Catch-up scans performed during this drain.
    pub catchups: u64,
}

/// The ingest engine. Single-writer over its maintained state; `drain` and
/// `publish` take `&mut self`.
pub struct IngestEngine {
    store: Arc<Store>,
    sub: Subscription,
    cfg: IngestConfig,
    telemetry: Telemetry,
    /// Highest store version folded into the maintained state.
    applied_version: u64,
    graph: GraphMaintainer,
    entities: EntityMaintainer,
    stats: StatsMaintainer,
    /// Columnar projection maintained from the same feed: appends
    /// accumulate per epoch and each [`IngestEngine::publish`] seals them
    /// into runs, installs the catalog into the service in the same swap
    /// as the artifacts and persists it next to the JSON log for disk
    /// stores.
    columns: ColumnSet,
    /// Previous epoch's CoDA model + the epoch holding the filtered graph
    /// it was fitted on, for warm-starting the next refit.
    warm: Option<(Coda, Arc<Artifacts>)>,
    epochs: u64,
    // Telemetry handles (created once; cheap clones of registry slots).
    events_ctr: Counter,
    docs_ctr: Counter,
    edges_ctr: Counter,
    epochs_ctr: Counter,
    catchup_ctr: Counter,
    dropped_ctr: Counter,
    lag_gauge: Gauge,
    epoch_gauge: Gauge,
    sweeps_ctr: Counter,
    recomputes_ctr: Counter,
    apply_graph_ms: Histogram,
    apply_entities_ms: Histogram,
    apply_stats_ms: Histogram,
    column_save_errors: Counter,
    publish_ms: Histogram,
    sweeps_seen: u64,
    recomputes_seen: u64,
}

impl IngestEngine {
    /// Subscribe to the store's changefeed and catch up on everything
    /// already written. Subscription happens first so no write can fall
    /// between the scan and the first drain.
    pub fn new(
        store: Arc<Store>,
        cfg: IngestConfig,
        telemetry: Telemetry,
    ) -> Result<IngestEngine, IngestError> {
        let sub = store.subscribe(cfg.feed_capacity);
        let columns =
            ColumnSet::new(store.partitions(), ColumnConfig::default()).with_telemetry(&telemetry);
        let mut engine = IngestEngine {
            sub,
            columns,
            graph: GraphMaintainer::new(
                cfg.artifacts.min_investments,
                cfg.artifacts.max_company_degree,
            ),
            entities: EntityMaintainer::default(),
            stats: StatsMaintainer::default(),
            warm: None,
            epochs: 0,
            applied_version: 0,
            events_ctr: telemetry.counter("ingest.events"),
            docs_ctr: telemetry.counter("ingest.docs"),
            edges_ctr: telemetry.counter("ingest.edges"),
            epochs_ctr: telemetry.counter("ingest.epochs"),
            catchup_ctr: telemetry.counter("ingest.catchup.scans"),
            dropped_ctr: telemetry.counter("ingest.feed.dropped"),
            lag_gauge: telemetry.gauge("ingest.feed.lag"),
            epoch_gauge: telemetry.gauge("ingest.epoch.version"),
            sweeps_ctr: telemetry.counter("ingest.pagerank.sweeps"),
            recomputes_ctr: telemetry.counter("ingest.pagerank.recomputes"),
            apply_graph_ms: telemetry.histogram("ingest.apply_ms.graph"),
            apply_entities_ms: telemetry.histogram("ingest.apply_ms.entities"),
            apply_stats_ms: telemetry.histogram("ingest.apply_ms.stats"),
            column_save_errors: telemetry.counter("ingest.column.save_errors"),
            publish_ms: telemetry.histogram("ingest.publish_ms"),
            sweeps_seen: 0,
            recomputes_seen: 0,
            store,
            cfg,
            telemetry,
        };
        engine.catch_up()?;
        Ok(engine)
    }

    /// Highest store version folded into the maintained state.
    pub fn applied_version(&self) -> u64 {
        self.applied_version
    }

    /// Epochs published so far.
    pub fn epochs_published(&self) -> u64 {
        self.epochs
    }

    /// The graph maintainer (read access for callers and tests).
    pub fn graph(&self) -> &GraphMaintainer {
        &self.graph
    }

    /// The entity maintainer.
    pub fn entities(&self) -> &EntityMaintainer {
        &self.entities
    }

    /// The stats maintainer.
    pub fn stats(&self) -> &StatsMaintainer {
        &self.stats
    }

    /// The maintained columnar projection.
    pub fn columns(&self) -> &ColumnSet {
        &self.columns
    }

    /// An immutable catalog over the sealed columnar state (pending
    /// appends not yet sealed by a publish are excluded).
    pub fn columns_catalog(&self) -> Arc<ColumnCatalog> {
        self.columns.catalog()
    }

    /// Seal the pending column appends into runs and return the catalog
    /// over everything sealed so far — the one place an engine's pending
    /// buffers empty. Every consumer that freezes the engine's state into
    /// an epoch calls it: [`IngestEngine::publish`] here, a shard's epoch
    /// refresh in `crowdnet-shard`.
    pub fn seal_columns(&mut self) -> Arc<ColumnCatalog> {
        self.columns.seal()
    }

    /// Rebuild every maintainer from a full store scan at the current
    /// version, then adopt that version as the applied watermark. This is
    /// both initial bootstrap and the overflow-recovery path; buffered
    /// events at or below the watermark are subsequently skipped, so a
    /// catch-up immediately followed by stale deliveries is harmless.
    pub fn catch_up(&mut self) -> Result<(), IngestError> {
        let _span = self.telemetry.span("ingest.catchup");
        let version = self.store.version();
        let mut graph = GraphMaintainer::new(
            self.cfg.artifacts.min_investments,
            self.cfg.artifacts.max_company_degree,
        );
        let mut entities = EntityMaintainer::default();
        let mut stats = StatsMaintainer::default();
        self.columns.begin_rebuild();
        // One scan per `(namespace, snapshot)`: `scan_partitions` orders
        // each partition once at the scan boundary and every consumer —
        // graph, entities, stats, columns — reuses that canonical output.
        // (Previously the corpus namespaces were scanned twice, re-sorting
        // already-sorted logs for each maintainer pass.)
        for ns in self.store.namespaces()? {
            for snap in self.store.snapshots(&ns) {
                let parts = self.store.scan_partitions_framed(&ns, snap)?;
                debug_assert!(
                    parts
                        .iter()
                        .all(|part| part.items.windows(2).all(|w| w[0].key <= w[1].key)),
                    "catch_up: scan output not in canonical key order"
                );
                let corpus =
                    snap == SnapshotId(0) && (ns == NS_USERS || ns == NS_COMPANIES);
                for part in &parts {
                    if corpus {
                        for doc in &part.items {
                            if ns == NS_USERS {
                                graph.apply_doc(doc);
                            }
                            entities.apply_doc(doc);
                        }
                    }
                    stats.absorb_scan(&ns, snap, part);
                }
                self.columns.absorb_scan(&ns, snap, parts);
            }
        }
        // Stamped with the pre-scan version: a racing write leaves the
        // projection conservatively old and consumers re-derive.
        self.columns.set_version(version);
        // The fresh maintainer's PageRank tallies start at zero.
        self.graph = graph;
        self.sweeps_seen = 0;
        self.recomputes_seen = 0;
        self.entities = entities;
        self.stats = stats;
        self.applied_version = version;
        self.catchup_ctr.inc();
        Ok(())
    }

    /// Drain the subscription queue: buffer every fresh event, fall back to
    /// a catch-up scan on overflow, then apply the batch through the
    /// maintainers (sequentially — see [`IngestEngine::drain_with_threads`]
    /// for the sharded form).
    pub fn drain(&mut self) -> Result<DrainReport, IngestError> {
        self.drain_with_threads(1)
    }

    /// [`IngestEngine::drain`] with the maintainers sharded across up to
    /// `threads` scoped worker threads (graph / entities / stats
    /// are independent units). `threads <= 1` applies sequentially.
    pub fn drain_with_threads(&mut self, threads: usize) -> Result<DrainReport, IngestError> {
        self.lag_gauge.set(self.sub.lag() as u64);
        let mut report = DrainReport::default();
        let mut batch: Vec<ChangeEvent> = Vec::new();
        loop {
            match self.sub.poll() {
                FeedPoll::Event(ev) => {
                    if ev.version > self.applied_version {
                        batch.push(ev);
                    }
                }
                FeedPoll::Lagged { dropped } => {
                    // Overflow: buffered pre-gap events are superseded by
                    // the rescan; post-gap events still queued are skipped
                    // by the version guard after `catch_up` advances it.
                    report.lag_drops += dropped;
                    self.dropped_ctr.add(dropped);
                    batch.clear();
                    self.catch_up()?;
                    report.catchups += 1;
                }
                FeedPoll::Empty => break,
            }
        }
        batch.retain(|ev| ev.version > self.applied_version);
        let applied = self.apply_batch(&batch, threads)?;
        report.events += applied.events;
        report.docs += applied.docs;
        report.edges += applied.edges;
        self.lag_gauge.set(self.sub.lag() as u64);
        Ok(report)
    }

    /// Apply an already-buffered event batch through the maintainers,
    /// sharding the three independent units across up to `threads` scoped
    /// threads. Advances the applied-version watermark to the batch's
    /// maximum. Exposed for the ingest benchmark; normal consumers go
    /// through [`IngestEngine::drain`].
    pub fn apply_batch(
        &mut self,
        events: &[ChangeEvent],
        threads: usize,
    ) -> Result<DrainReport, IngestError> {
        if events.is_empty() {
            return Ok(DrainReport::default());
        }
        let telemetry = self.telemetry.clone();
        let graph = &mut self.graph;
        let entities = &mut self.entities;
        let stats = &mut self.stats;
        let apply_graph = move |g: &mut GraphMaintainer| -> u64 {
            let mut edges = 0;
            for ev in events {
                if GraphMaintainer::wants(ev) {
                    if let ChangePayload::Append(doc) = &ev.payload {
                        edges += g.apply_doc(doc);
                    }
                }
            }
            edges
        };
        let apply_entities = move |e: &mut EntityMaintainer| {
            for ev in events {
                if EntityMaintainer::wants(ev) {
                    if let ChangePayload::Append(doc) = &ev.payload {
                        e.apply_doc(doc);
                    }
                }
            }
        };
        let apply_stats = move |s: &mut StatsMaintainer| {
            for ev in events {
                s.apply_event(ev);
            }
        };

        let edges;
        if threads <= 1 {
            let t0 = telemetry.now_ms();
            edges = apply_graph(graph);
            self.apply_graph_ms.record(telemetry.now_ms() - t0);
            let t1 = telemetry.now_ms();
            apply_entities(entities);
            self.apply_entities_ms.record(telemetry.now_ms() - t1);
            let t2 = telemetry.now_ms();
            apply_stats(stats);
            self.apply_stats_ms.record(telemetry.now_ms() - t2);
        } else {
            let graph_hist = self.apply_graph_ms.clone();
            let entities_hist = self.apply_entities_ms.clone();
            let stats_hist = self.apply_stats_ms.clone();
            let tele_g = telemetry.clone();
            let tele_e = telemetry.clone();
            let tele_s = telemetry;
            edges = crossbeam::thread::scope(|s| {
                let graph_handle = s.spawn(move |_| {
                    let t0 = tele_g.now_ms();
                    let edges = apply_graph(graph);
                    graph_hist.record(tele_g.now_ms() - t0);
                    edges
                });
                if threads >= 3 {
                    s.spawn(move |_| {
                        let t0 = tele_e.now_ms();
                        apply_entities(entities);
                        entities_hist.record(tele_e.now_ms() - t0);
                    });
                    s.spawn(move |_| {
                        let t0 = tele_s.now_ms();
                        apply_stats(stats);
                        stats_hist.record(tele_s.now_ms() - t0);
                    });
                } else {
                    s.spawn(move |_| {
                        let t0 = tele_e.now_ms();
                        apply_entities(entities);
                        entities_hist.record(tele_e.now_ms() - t0);
                        let t1 = tele_s.now_ms();
                        apply_stats(stats);
                        stats_hist.record(tele_s.now_ms() - t1);
                    });
                }
                graph_handle
                    .join()
                    .map_err(|_| IngestError::Thread("graph maintainer".into()))
            })
            .map_err(|_| IngestError::Thread("maintainer scope".into()))??;
        }

        for ev in events {
            self.columns.apply_event(ev);
        }

        let docs = events
            .iter()
            .filter(|ev| matches!(ev.payload, ChangePayload::Append(_)))
            .count() as u64;
        // Version stamps are authoritative regardless of arrival order.
        if let Some(max) = events.iter().map(|ev| ev.version).max() {
            self.applied_version = self.applied_version.max(max);
        }
        self.events_ctr.add(events.len() as u64);
        self.docs_ctr.add(docs);
        self.edges_ctr.add(edges);
        Ok(DrainReport {
            events: events.len() as u64,
            docs,
            edges,
            lag_drops: 0,
            catchups: 0,
        })
    }

    /// Assemble the maintained parts into an immutable epoch, warm-starting
    /// CoDA from the previous epoch's factors, and (optionally) install it
    /// into a service — the atomic swap that moves readers to the new
    /// epoch. Returns the published artifacts.
    pub fn publish(&mut self, service: Option<&Service>) -> Arc<Artifacts> {
        let _span = self.telemetry.span("ingest.publish");
        let t0 = self.telemetry.now_ms();
        let pagerank = self.graph.refresh_pagerank();
        let sweeps = self.graph.pagerank_sweeps();
        let recomputes = self.graph.pagerank_recomputes();
        self.sweeps_ctr.add(sweeps - self.sweeps_seen);
        self.recomputes_ctr.add(recomputes - self.recomputes_seen);
        self.sweeps_seen = sweeps;
        self.recomputes_seen = recomputes;

        let mut art_cfg = self.cfg.artifacts.clone();
        if self.warm.is_some() {
            art_cfg.iterations = self.cfg.refit_iterations;
        }
        let parts = ArtifactParts {
            version: self.applied_version,
            graph: self.graph.graph().clone(),
            entities: self.entities.snapshot(),
            pagerank,
            stats: Some(self.stats.to_stats()),
        };
        let warm = self
            .warm
            .as_ref()
            .map(|(model, epoch)| (model, &epoch.filtered));
        let (artifacts, model) = Artifacts::assemble(parts, &art_cfg, &self.telemetry, warm);
        let artifacts = Arc::new(artifacts);
        self.warm = model.map(|m| (m, Arc::clone(&artifacts)));
        // Seal the epoch's pending column appends into runs, publish the
        // catalog in the same swap as the artifacts, and persist it next
        // to the JSON log (a no-op for memory stores). A failed save never
        // fails the publish: the projection is derived and rebuildable.
        let catalog = self.seal_columns();
        if let Some(svc) = service {
            svc.install_epoch(catalog, Arc::clone(&artifacts));
        }
        if crowdnet_column::save(&self.store, &self.columns).is_err() {
            self.column_save_errors.inc();
        }
        self.epochs += 1;
        self.epochs_ctr.inc();
        self.epoch_gauge.set(self.applied_version);
        self.publish_ms.record(self.telemetry.now_ms() - t0);
        artifacts
    }

    /// Crash recovery: run the store's recovery scan (truncating torn tails
    /// and quarantining corrupt records), rebuild the maintained state with a
    /// full catch-up, and republish the last committed epoch. While recovery
    /// is running the service keeps answering from its pinned artifacts with
    /// the `degraded` flag raised in `/healthz` and `/stats`; the flag clears
    /// once the fresh epoch is installed.
    pub fn recover(&mut self, service: Option<&Service>) -> Result<Arc<Artifacts>, IngestError> {
        let _span = self.telemetry.span("ingest.recover");
        if let Some(svc) = service {
            svc.set_degraded(true);
        }
        self.store.recover()?;
        self.catch_up()?;
        let artifacts = self.publish(service);
        if let Some(svc) = service {
            svc.set_degraded(false);
        }
        self.telemetry.counter("ingest.recoveries").inc();
        Ok(artifacts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_json::{obj, Value};
    use crowdnet_serve::ServiceConfig;
    use crowdnet_store::Document;

    fn put_investor(store: &Store, id: u32, companies: &[u64]) {
        let arr = companies.iter().map(|&c| Value::from(c)).collect::<Vec<_>>();
        store
            .put(
                NS_USERS,
                Document::new(
                    format!("user:{id}"),
                    obj! {"id" => u64::from(id), "role" => "investor", "investments" => Value::Arr(arr)},
                ),
            )
            .unwrap();
    }

    fn put_company(store: &Store, id: u32) {
        store
            .put(
                NS_COMPANIES,
                Document::new(
                    format!("company:{id}"),
                    obj! {"id" => u64::from(id), "name" => format!("c{id}")},
                ),
            )
            .unwrap();
    }

    #[test]
    fn engine_catches_up_then_follows_the_feed() {
        let store = Arc::new(Store::memory(2));
        put_company(&store, 0);
        put_investor(&store, 10, &[0]);
        let mut engine =
            IngestEngine::new(Arc::clone(&store), IngestConfig::default(), Telemetry::new())
                .unwrap();
        // Catch-up covered the pre-subscription writes.
        assert_eq!(engine.graph().graph().edge_count(), 1);
        assert_eq!(engine.applied_version(), store.version());
        // Live follow.
        put_investor(&store, 11, &[0, 1]);
        let report = engine.drain().unwrap();
        assert_eq!(report.docs, 1);
        assert_eq!(report.edges, 2);
        assert_eq!(engine.graph().graph().edge_count(), 3);
        assert_eq!(engine.applied_version(), store.version());
    }

    #[test]
    fn drain_skips_events_already_covered_by_catch_up() {
        let store = Arc::new(Store::memory(2));
        let mut engine =
            IngestEngine::new(Arc::clone(&store), IngestConfig::default(), Telemetry::new())
                .unwrap();
        put_investor(&store, 10, &[0]);
        // A manual catch-up races ahead of the queued event…
        engine.catch_up().unwrap();
        // …so the drain must not double-apply it.
        let report = engine.drain().unwrap();
        assert_eq!(report.docs, 0);
        assert_eq!(engine.graph().graph().edge_count(), 1);
    }

    #[test]
    fn overflow_falls_back_to_catch_up() {
        let store = Arc::new(Store::memory(2));
        let cfg = IngestConfig { feed_capacity: 2, ..IngestConfig::default() };
        let telemetry = Telemetry::new();
        let mut engine =
            IngestEngine::new(Arc::clone(&store), cfg, telemetry.clone()).unwrap();
        for id in 0..20u32 {
            put_investor(&store, id, &[0, 1]);
        }
        let report = engine.drain().unwrap();
        assert!(report.lag_drops > 0);
        assert!(report.catchups >= 1);
        // Recovered state is complete despite the drops.
        assert_eq!(engine.graph().graph().investor_count(), 20);
        assert_eq!(engine.applied_version(), store.version());
        assert!(telemetry.counter("ingest.feed.dropped").value() > 0);
    }

    #[test]
    fn sharded_apply_matches_sequential() {
        let build = |threads: usize| {
            let store = Arc::new(Store::memory(2));
            let mut engine = IngestEngine::new(
                Arc::clone(&store),
                IngestConfig::default(),
                Telemetry::new(),
            )
            .unwrap();
            for id in 0..12u32 {
                put_company(&store, id);
                put_investor(&store, 100 + id, &[u64::from(id), u64::from((id + 1) % 12)]);
            }
            engine.drain_with_threads(threads).unwrap();
            let stats = engine.stats().to_stats();
            let edges = engine.graph().graph().edge_count();
            let entities = engine.entities().entities().len();
            (stats, edges, entities)
        };
        assert_eq!(build(1), build(2));
        assert_eq!(build(1), build(4));
    }

    #[test]
    fn publish_installs_a_pinned_epoch() {
        let store = Arc::new(Store::memory(2));
        put_company(&store, 0);
        for id in 0..5u32 {
            put_investor(&store, 10 + id, &[0, 1, 2, 3]);
        }
        let telemetry = Telemetry::new();
        let service = Service::new(Arc::clone(&store), ServiceConfig::default(), telemetry.clone());
        let mut engine =
            IngestEngine::new(Arc::clone(&store), IngestConfig::default(), telemetry.clone())
                .unwrap();
        let epoch = engine.publish(Some(&service));
        assert_eq!(epoch.version, store.version());
        let pinned = service.pinned_epoch().unwrap();
        assert!(Arc::ptr_eq(&pinned.artifacts, &epoch));
        assert_eq!(telemetry.counter("ingest.epochs").value(), 1);
        // Stats are frozen into the epoch.
        assert_eq!(epoch.stats.as_deref().unwrap(), store.stats().unwrap().as_slice());
    }

    #[test]
    fn sql_answers_from_the_pinned_epoch_like_every_other_endpoint() {
        use crowdnet_serve::Request;

        let store = Arc::new(Store::memory(2));
        put_company(&store, 0);
        for id in 0..5u32 {
            put_investor(&store, 10 + id, &[0, 1, 2, 3]);
        }
        let telemetry = Telemetry::new();
        let service = Service::new(Arc::clone(&store), ServiceConfig::default(), telemetry.clone());
        let mut engine =
            IngestEngine::new(Arc::clone(&store), IngestConfig::default(), telemetry).unwrap();
        // `(users /sql counts, users /stats counts, can investor `id` be looked up)`.
        let observe = |id: u32| {
            let body = |target: &str| {
                let resp = service.handle(&Request::get(target));
                assert_eq!(resp.status, 200, "{target}");
                Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
            };
            let sql = body("/sql?ns=angellist%2Fusers&q=SELECT+COUNT(*)+AS+n+FROM+docs");
            let counted = sql.path("rows[0][0]").and_then(Value::as_u64).unwrap();
            let stats = body("/stats");
            let documents = stats
                .get("namespaces")
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .find(|n| n.get("namespace").and_then(Value::as_str) == Some(NS_USERS))
                .and_then(|n| n.get("documents"))
                .and_then(Value::as_u64)
                .unwrap();
            let found = service.handle(&Request::get(&format!("/entity/user/{id}"))).status == 200;
            (counted, documents, found)
        };

        engine.publish(Some(&service));
        assert_eq!(observe(99), (5, 5, false));
        // More users than one publish cycle of the live tier writes, none
        // of them drained or published yet: the store has moved, the
        // epoch has not, and every endpoint — `/sql` included — agrees
        // with the epoch, whenever the first request arrives.
        for id in 0..64u32 {
            put_investor(&store, 100 + id, &[0]);
        }
        put_investor(&store, 99, &[1]);
        let pinned = service.pinned_epoch().unwrap();
        assert!(pinned.artifacts.version < store.version());
        assert_eq!(pinned.columns.version(), pinned.artifacts.version);
        assert_eq!(observe(99), (5, 5, false));
        // The next publish moves all of them together.
        engine.drain().unwrap();
        engine.publish(Some(&service));
        assert_eq!(observe(99), (70, 70, true));
        let pinned = service.pinned_epoch().unwrap();
        assert_eq!(pinned.columns.version(), store.version());
        assert_eq!(pinned.artifacts.version, store.version());
    }

    #[test]
    fn recover_republishes_and_clears_the_degraded_flag() {
        let store = Arc::new(Store::memory(2));
        put_company(&store, 0);
        put_investor(&store, 10, &[0]);
        let telemetry = Telemetry::new();
        let service = Service::new(Arc::clone(&store), ServiceConfig::default(), telemetry.clone());
        let mut engine =
            IngestEngine::new(Arc::clone(&store), IngestConfig::default(), telemetry.clone())
                .unwrap();
        engine.publish(Some(&service));

        // Writes that land after the epoch (e.g. recovered after a crash).
        put_investor(&store, 11, &[0]);
        service.set_degraded(true);
        let epoch = engine.recover(Some(&service)).unwrap();

        assert!(!service.is_degraded(), "recover must clear the degraded flag");
        assert_eq!(epoch.version, store.version());
        let pinned = service.pinned_epoch().unwrap();
        assert!(Arc::ptr_eq(&pinned.artifacts, &epoch));
        assert_eq!(epoch.graph.investor_count(), 2);
        assert_eq!(telemetry.counter("ingest.recoveries").value(), 1);
    }

    #[test]
    fn engine_maintains_columns_through_feed_and_publish() {
        let store = Arc::new(Store::memory(2));
        put_company(&store, 0);
        put_investor(&store, 10, &[0, 1]);
        let telemetry = Telemetry::new();
        let service =
            Service::new(Arc::clone(&store), ServiceConfig::default(), telemetry.clone());
        let mut engine =
            IngestEngine::new(Arc::clone(&store), IngestConfig::default(), telemetry.clone())
                .unwrap();
        // Bootstrap projection covers the pre-subscription writes.
        let catalog = engine.columns_catalog();
        assert_eq!(catalog.version(), store.version());
        assert_eq!(
            catalog.docs_sorted(NS_USERS, SnapshotId(0)).unwrap(),
            store.scan_snapshot_sorted(NS_USERS, SnapshotId(0)).unwrap()
        );
        // Live appends accumulate as pending and seal at publish, landing
        // in the service in the same swap as the artifacts.
        put_investor(&store, 11, &[0]);
        engine.drain().unwrap();
        engine.publish(Some(&service));
        let catalog = Arc::clone(&service.pinned_epoch().unwrap().columns);
        assert_eq!(catalog.version(), store.version());
        for ns in [NS_USERS, NS_COMPANIES] {
            assert_eq!(
                catalog.docs_sorted(ns, SnapshotId(0)).unwrap(),
                store.scan_snapshot_sorted(ns, SnapshotId(0)).unwrap()
            );
        }
        assert!(telemetry.counter("column.appends").value() >= 1);
        assert_eq!(telemetry.counter("ingest.column.save_errors").value(), 0);
    }

    #[test]
    fn publish_persists_columns_for_disk_stores() {
        let root = std::env::temp_dir().join(format!(
            "crowdnet-ingest-columns-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(Store::open(&root, 2).unwrap());
        put_company(&store, 0);
        put_investor(&store, 10, &[0, 1]);
        let mut engine =
            IngestEngine::new(Arc::clone(&store), IngestConfig::default(), Telemetry::new())
                .unwrap();
        engine.publish(None);
        // The persisted projection reopens without a rebuild and matches
        // the log.
        let loaded = crowdnet_column::load(
            &store,
            crowdnet_column::ColumnConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(
            loaded.catalog().docs_sorted(NS_USERS, SnapshotId(0)).unwrap(),
            store.scan_snapshot_sorted(NS_USERS, SnapshotId(0)).unwrap()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn warm_epochs_chain_and_stay_consistent() {
        let store = Arc::new(Store::memory(2));
        for id in 0..6u32 {
            put_investor(&store, 10 + id, &[0, 1, 2, 3]);
        }
        let mut engine =
            IngestEngine::new(Arc::clone(&store), IngestConfig::default(), Telemetry::new())
                .unwrap();
        let first = engine.publish(None);
        put_investor(&store, 99, &[0, 1, 2, 3]);
        engine.drain().unwrap();
        let second = engine.publish(None);
        assert!(second.version > first.version);
        assert_eq!(second.graph.investor_count(), 7);
        // The warm refit still yields a cover over the filtered graph.
        assert_eq!(second.filtered.investor_count(), 7);
    }
}

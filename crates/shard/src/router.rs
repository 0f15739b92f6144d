//! Scatter-gather router: the sharded data source behind the endpoint
//! table of `crowdnet_serve::router`.
//!
//! Paths, validation, envelopes and the cache wrapper live once, in
//! `crowdnet_serve::router`; the [`Router`] implements its
//! [`DataSource`] by fanning each access out to the healthy shards and
//! merging their partial results. Every fan-out leg is a serializable
//! [`ShardBackend`](crate::ShardBackend) method (the router never touches
//! a shard's store), so the same code path serves in-process
//! `LocalShard`s and `crowdnet-shardnet`'s out-of-process `RemoteShard`s:
//!
//! * **entity body** — single-shard: the partitioner names the owner, one
//!   `entity_docs` leg answers.
//! * **investor companies / company investors** — scatter
//!   `investor_edges` / `company_edges`; an investor's edges live on one
//!   shard (co-location), a company's inbound edges concatenate
//!   disjointly.
//! * **top-k by degree** — per-shard `top_k_prefix` legs merged through a
//!   bounded heap (at most one candidate per shard in flight), ties
//!   broken by ascending id exactly like the unsharded ranking.
//! * **namespace stats** — associative merge of per-shard `shard_stats`
//!   legs.
//! * **partition scans / artifacts** — per-shard `scan_runs` legs hand
//!   over sealed column runs; a partition's run lists concatenate in
//!   shard order, and the one `(key, run index)` merge over that list is
//!   the unsharded store's canonical partition scan (same-key documents
//!   never span shards). `/sql` projects the referenced fields straight
//!   off the gathered runs; communities and PageRank come from global
//!   [`Artifacts`] assembled from the merged documents and cached per
//!   logical version.
//!
//! Fan-outs run on the shards' executor threads under the request's
//! deadline budget: a shard that is down, mid-recovery, past the budget,
//! or whose leg fails in *transport* (unreachable process, dead
//! connection, malformed frame) is skipped and recorded in
//! [`QueryCtx::degraded`], which the endpoint table turns into a flagged
//! partial response — degraded, never failed. Only logical errors (a bad
//! query, a missing namespace) propagate as error statuses.

use crate::backend::{Job, ShardBackend, ShardHealth};
use crate::error::ShardError;
use crate::set::{merge_stats, ShardSet};
use crowdnet_ingest::column::{merge_runs, ColumnRun};
use crowdnet_json::{obj, Value};
use crowdnet_serve::artifacts::{Artifacts, NS_COMPANIES, NS_USERS};
use crowdnet_serve::http::{Request, Response};
use crowdnet_serve::router::{self, DataSource, QueryCtx, Surface};
use crowdnet_serve::{RequestHandler, ServeError, ServiceConfig};
use crowdnet_store::store::NamespaceStats;
use crowdnet_store::{Document, SnapshotId, StoreError};
use crowdnet_telemetry::{Counter, Telemetry};
use parking_lot::RwLock;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;

/// The scatter-gather front end over a [`ShardSet`].
pub struct Router {
    set: Arc<ShardSet>,
    surface: Surface,
    /// Global artifacts memo, keyed by the set's logical version. Only
    /// fully-healthy builds are cached; degraded builds are served once
    /// and rebuilt (they reflect whichever shards were up).
    global: RwLock<Option<(u64, Arc<Artifacts>)>>,
    fanouts: Counter,
    single_shard: Counter,
    partial: Counter,
    deadline_skips: Counter,
    epoch_builds: Counter,
}

impl Router {
    /// Wrap a shard set. Nothing is scanned yet — global artifacts build
    /// on the first request that needs them.
    pub fn new(set: Arc<ShardSet>, cfg: ServiceConfig, telemetry: Telemetry) -> Router {
        let requests = telemetry.counter("shard.router.requests");
        Router {
            set,
            fanouts: telemetry.counter("shard.router.fanouts"),
            single_shard: telemetry.counter("shard.router.single_shard"),
            partial: telemetry.counter("shard.router.partial"),
            deadline_skips: telemetry.counter("shard.router.deadline_skips"),
            epoch_builds: telemetry.counter("shard.router.epoch_builds"),
            global: RwLock::new(None),
            surface: Surface::new(cfg, telemetry, requests, "shard"),
        }
    }

    /// The shard set behind the router.
    pub fn set(&self) -> &Arc<ShardSet> {
        &self.set
    }

    /// Serve one request end to end — the sharded analogue of
    /// `Service::handle`. Never panics; every failure is a status-coded
    /// JSON response.
    pub fn handle(&self, req: &Request) -> Response {
        let mut ctx = QueryCtx::default();
        let response = router::respond(&self.surface, self, &mut ctx, req);
        if response.status == 200 && !ctx.degraded.is_empty() {
            self.partial.inc();
        }
        response
    }

    /// One representative target per endpoint, with real ids from the
    /// global artifacts — the smoke surface `repro serve --shards` walks.
    pub fn example_targets(&self) -> Result<Vec<String>, ServeError> {
        router::example_targets(self)
    }

    /// Scatter one leg call per healthy shard onto the shards' executor
    /// threads and gather the replies in shard order. A shard that is
    /// unhealthy, past the deadline budget, whose reply is lost or whose
    /// leg fails in transport (unreachable shard, dead connection,
    /// malformed frame, executor gone) is recorded in `ctx.degraded` and
    /// omitted from the result; logical errors propagate.
    fn scatter_leg<T, F>(
        &self,
        ctx: &mut QueryCtx,
        leg: F,
    ) -> Result<Vec<(usize, T)>, ServeError>
    where
        T: Send + 'static,
        F: Fn(&Arc<dyn ShardBackend>) -> Result<T, ShardError> + Send + Sync + 'static,
    {
        self.fanouts.inc();
        let leg = Arc::new(leg);
        let mut pending = Vec::new();
        for (idx, shard) in self.set.shards().iter().enumerate() {
            if shard.health() != ShardHealth::Healthy {
                ctx.degraded.insert(idx);
                continue;
            }
            if let Some(deadline) = ctx.deadline_at {
                if self.surface.telemetry().now_ms() > deadline {
                    self.deadline_skips.inc();
                    ctx.degraded.insert(idx);
                    continue;
                }
            }
            let (tx, rx) = sync_channel::<Result<T, ShardError>>(1);
            let (leg, backend) = (Arc::clone(&leg), Arc::clone(shard));
            let telemetry = self.surface.telemetry().clone();
            let skips = self.deadline_skips.clone();
            let deadline = ctx.deadline_at;
            let job: Job = Box::new(move || {
                if let Some(d) = deadline {
                    if telemetry.now_ms() > d {
                        // Budget ran out while queued: drop the reply
                        // sender so the gather marks this shard degraded.
                        skips.inc();
                        return;
                    }
                }
                let _ = tx.send(leg(&backend));
            });
            // Executor queue full (or gone): run the job inline rather
            // than blocking or failing — same never-wait discipline as
            // the serve worker pool.
            if let Err(job) = shard.offload(job) {
                job();
            }
            pending.push((idx, rx));
        }
        // Every leg finishes before any error is reported.
        let replies: Vec<_> = pending
            .into_iter()
            .map(|(idx, rx)| (idx, rx.recv()))
            .collect();
        let mut gathered = Vec::with_capacity(replies.len());
        for (idx, reply) in replies {
            match reply {
                Ok(Ok(v)) => gathered.push((idx, v)),
                Ok(Err(e)) if !e.is_transport() => return Err(shard_to_serve(e)),
                _ => {
                    ctx.degraded.insert(idx);
                }
            }
        }
        Ok(gathered)
    }

    /// The sealed runs of `ns` at snapshot 0 across the healthy shards:
    /// per partition, the shards' run lists concatenated in shard order.
    /// A key's documents live on exactly one shard and each shard seals in
    /// append order, so one `(key, run index)` merge over a partition's
    /// list reconstructs the unsharded store's `scan_partitions` output
    /// exactly — no document is materialised or re-sorted to get there.
    /// `Ok(None)` means the namespace does not exist.
    fn gathered_runs(
        &self,
        ctx: &mut QueryCtx,
        ns: &str,
    ) -> Result<Option<Vec<Vec<Arc<ColumnRun>>>>, ServeError> {
        let owned = ns.to_string();
        let legs = match self.scatter_leg(ctx, move |s| s.scan_runs(&owned, SnapshotId(0))) {
            Ok(legs) => legs,
            // Snapshot lockstep: a namespace exists on all shards or
            // none, so any miss means the namespace is absent.
            Err(ServeError::Store(StoreError::NamespaceNotFound(_))) => return Ok(None),
            Err(e) => return Err(e),
        };
        if legs.is_empty() && ctx.degraded.is_empty() {
            return Ok(None);
        }
        let mut gathered: Vec<Vec<Arc<ColumnRun>>> = Vec::new();
        for (_, parts) in legs {
            if gathered.len() < parts.len() {
                gathered.resize_with(parts.len(), Vec::new);
            }
            for (slot, runs) in gathered.iter_mut().zip(parts) {
                slot.extend(runs);
            }
        }
        Ok(Some(gathered))
    }
}

/// The sharded data source: each access is a scatter over the healthy
/// shards (or one leg to the owning shard), with every shard that could
/// not contribute recorded in `ctx.degraded`.
impl DataSource for Router {
    fn cache_scope(&self) -> Option<(u64, &'static str)> {
        // Responses from a degraded set reflect whichever shards were up,
        // so the cache only participates while every shard is healthy.
        (!self.set.any_unhealthy()).then(|| (self.set.version(), ""))
    }

    fn tier_degraded(&self) -> bool {
        self.set.any_unhealthy()
    }

    fn live_version(&self) -> u64 {
        self.set.version()
    }

    fn health_detail(&self) -> Option<(&'static str, Value)> {
        let shards = self
            .set
            .shards()
            .iter()
            .map(|s| {
                // Live per-shard state: the version comes from the
                // epoch_meta probe; a shard that is out (or unreachable)
                // reports null rather than failing the endpoint.
                let version = if s.health() == ShardHealth::Healthy {
                    match s.epoch_meta() {
                        Ok(m) => Value::from(m.version),
                        Err(_) => Value::Null,
                    }
                } else {
                    Value::Null
                };
                obj! {
                    "index" => s.index(),
                    "health" => s.health().as_str(),
                    "version" => version,
                }
            })
            .collect();
        Some(("shards", Value::Arr(shards)))
    }

    /// Cross-shard [`Artifacts`] at the set's logical version, assembled
    /// from the canonically merged corpus scans. Fully-healthy builds are
    /// memoized per version; degraded builds are served uncached.
    fn current_artifacts(&self, ctx: &mut QueryCtx) -> Result<Arc<Artifacts>, ServeError> {
        let version = self.set.version();
        {
            let memo = self.global.read();
            if let Some((v, a)) = &*memo {
                if *v == version {
                    return Ok(Arc::clone(a));
                }
            }
        }
        let mut scans: Vec<(&str, Vec<Document>)> = Vec::new();
        for ns in [NS_COMPANIES, NS_USERS] {
            if let Some(parts) = self.gathered_runs(ctx, ns)? {
                // By value: a partition's remote runs are freed as soon as
                // its documents exist, not held beside the whole corpus.
                let mut docs = Vec::new();
                for runs in parts {
                    docs.extend(merge_runs(&runs)?);
                }
                scans.push((ns, docs));
            }
        }
        let built = Arc::new(Artifacts::from_documents(
            version,
            scans,
            self.surface.telemetry(),
            &self.surface.cfg().artifacts,
        ));
        self.epoch_builds.inc();
        if ctx.degraded.is_empty() {
            let mut memo = self.global.write();
            match &*memo {
                // A racing builder won with an equal-or-newer stamp.
                Some((v, a)) if *v >= version => return Ok(Arc::clone(a)),
                _ => *memo = Some((version, Arc::clone(&built))),
            }
        }
        Ok(built)
    }

    fn namespace_stats(
        &self,
        ctx: &mut QueryCtx,
    ) -> Result<(Vec<NamespaceStats>, u64), ServeError> {
        let legs = self.scatter_leg(ctx, |s| s.shard_stats())?;
        let merged = merge_stats(legs.into_iter().map(|(_, v)| v));
        Ok((merged, self.set.version()))
    }

    fn entity_body(
        &self,
        ctx: &mut QueryCtx,
        kind: &str,
        id: u32,
    ) -> Result<Option<Value>, ServeError> {
        let ns = if kind == "company" { NS_COMPANIES } else { NS_USERS };
        let key = format!("{kind}:{id}");
        let owner = self.set.partitioner().shard_of(ns, &key);
        self.single_shard.inc();
        let Some(shard) = self.set.shard(owner) else {
            return Ok(None);
        };
        if shard.health() != ShardHealth::Healthy {
            ctx.degraded.insert(owner);
            return Ok(None);
        }
        match shard.entity_docs(std::slice::from_ref(&key)) {
            Ok(docs) => Ok(docs.into_iter().next().flatten()),
            Err(e) if e.is_transport() => {
                // The owner died between the health check and the leg:
                // same gap as a flagged-down owner.
                ctx.degraded.insert(owner);
                Ok(None)
            }
            Err(e) => Err(shard_to_serve(e)),
        }
    }

    fn investor_companies(
        &self,
        ctx: &mut QueryCtx,
        id: u32,
    ) -> Result<Option<Vec<u32>>, ServeError> {
        // Co-location: exactly one shard owns the investor.
        let legs = self.scatter_leg(ctx, move |s| s.investor_edges(id))?;
        Ok(concat_found(legs))
    }

    fn company_investors(
        &self,
        ctx: &mut QueryCtx,
        id: u32,
    ) -> Result<Option<Vec<u32>>, ServeError> {
        // A company's inbound edges may span shards (its investors hash
        // independently); the slices are disjoint.
        let legs = self.scatter_leg(ctx, move |s| s.company_edges(id))?;
        Ok(concat_found(legs))
    }

    fn top_by_degree(&self, ctx: &mut QueryCtx, k: usize) -> Result<Vec<(u32, f64)>, ServeError> {
        // Degree is shard-local: merge per-shard top-k prefixes through a
        // bounded heap (≤ one candidate per shard).
        let legs = self.scatter_leg(ctx, move |s| s.top_k_prefix(k))?;
        let per_shard = legs.into_iter().map(|(_, ranked)| ranked).collect();
        Ok(merge_top_k(per_shard, k))
    }

    fn scan_runs(
        &self,
        ctx: &mut QueryCtx,
        ns: &str,
    ) -> Result<Vec<Vec<Arc<ColumnRun>>>, ServeError> {
        self.gathered_runs(ctx, ns)?
            .ok_or_else(|| ServeError::Store(StoreError::NamespaceNotFound(ns.to_string())))
    }
}

impl RequestHandler for Router {
    fn handle(&self, req: &Request) -> Response {
        Router::handle(self, req)
    }
}

/// Concatenate the id lists of the shards that know the entity; `None`
/// when no answering shard does.
fn concat_found(legs: Vec<(usize, Option<Vec<u32>>)>) -> Option<Vec<u32>> {
    let mut found: Option<Vec<u32>> = None;
    for (_, ids) in legs {
        if let Some(ids) = ids {
            found.get_or_insert_with(Vec::new).extend(ids);
        }
    }
    found
}

/// Map shard-set failures onto serve statuses: store errors keep their
/// status mapping; infrastructure failures surface as 500s.
fn shard_to_serve(e: crate::error::ShardError) -> ServeError {
    match e {
        crate::error::ShardError::Store(e) => ServeError::Store(e),
        other => ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::Other,
            other.to_string(),
        )),
    }
}

/// Heap entry for the bounded top-k merge: max-heap on score, ties broken
/// by ascending id (the unsharded sort order).
struct Ranked {
    score: f64,
    id: u32,
    shard: usize,
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then(other.id.cmp(&self.id))
    }
}

/// Merge per-shard descending-ranked prefixes into the global top `k`,
/// holding at most one candidate per shard in the heap.
fn merge_top_k(per_shard: Vec<Vec<(u32, f64)>>, k: usize) -> Vec<(u32, f64)> {
    let mut queues: Vec<VecDeque<(u32, f64)>> =
        per_shard.into_iter().map(VecDeque::from).collect();
    let mut heap: BinaryHeap<Ranked> = BinaryHeap::with_capacity(queues.len());
    for (shard, q) in queues.iter_mut().enumerate() {
        if let Some((id, score)) = q.pop_front() {
            heap.push(Ranked { score, id, shard });
        }
    }
    let mut merged = Vec::with_capacity(k.min(64));
    while merged.len() < k {
        let Some(top) = heap.pop() else { break };
        merged.push((top.id, top.score));
        if let Some(q) = queues.get_mut(top.shard) {
            if let Some((id, score)) = q.pop_front() {
                heap.push(Ranked {
                    score,
                    id,
                    shard: top.shard,
                });
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_serve::{Service, ServiceConfig};
    use crowdnet_store::Store;

    const SEED_COMPANIES: u32 = 6;

    /// Same corpus written to an unsharded store and through a shard set.
    fn seeded_pair(shards: usize) -> (Service, Router) {
        seeded_pair_on(shards, Telemetry::new())
    }

    /// [`seeded_pair`] with the router (and its shards) on telemetry `t`.
    fn seeded_pair_on(shards: usize, t: Telemetry) -> (Service, Router) {
        let store = Arc::new(Store::memory(4));
        let set = Arc::new(ShardSet::memory(shards, 4, &t).unwrap());
        let mut write = |ns: &str, doc: Document| {
            store.put(ns, doc.clone()).unwrap();
            set.put(ns, doc).unwrap();
        };
        for id in 0..SEED_COMPANIES {
            write(
                NS_COMPANIES,
                Document::new(
                    format!("company:{id}"),
                    obj! {"id" => u64::from(id), "name" => format!("c{id}")},
                ),
            );
        }
        for inv in 0..9u32 {
            let companies: Vec<Value> = (0..SEED_COMPANIES)
                .filter(|c| (inv + c) % 3 != 0)
                .map(|c| Value::from(u64::from(c)))
                .collect();
            write(
                NS_USERS,
                Document::new(
                    format!("user:{}", 100 + inv),
                    obj! {
                        "id" => u64::from(100 + inv),
                        "role" => "investor",
                        "investments" => Value::Arr(companies),
                    },
                ),
            );
        }
        let service = Service::new(store, ServiceConfig::default(), Telemetry::new());
        let router = Router::new(set, ServiceConfig::default(), t);
        (service, router)
    }

    fn probe_targets(service: &Service) -> Vec<String> {
        let mut targets = service.example_targets().unwrap();
        targets.extend(
            [
                "/entity/company/999",
                "/entity/planet/1",
                "/entity/company/xyz",
                "/investor/9999/portfolio",
                "/company/9999/investors",
                "/investor/9999/communities",
                "/communities/9999",
                "/top/investors?by=fame",
                "/top/investors?k=nope",
                "/top/investors?by=degree&k=3",
                "/sql?q=SELECT+1",
                "/sql?ns=angellist%2Fusers",
                "/sql?ns=ghost&q=SELECT+COUNT(*)+FROM+docs",
                "/sql?ns=angellist%2Fusers&q=NOT+SQL",
                "/no/such/route",
                "/",
            ]
            .into_iter()
            .map(String::from),
        );
        targets
    }

    #[test]
    fn sharded_responses_are_byte_identical_to_unsharded() {
        for shards in [1, 2, 4] {
            let (service, router) = seeded_pair(shards);
            for target in probe_targets(&service) {
                if target == "/healthz" {
                    continue; // healthz reports live per-shard state
                }
                let req = Request::get(&target);
                let direct = service.handle(&req);
                let routed = router.handle(&req);
                assert_eq!(
                    direct.status, routed.status,
                    "status diverged on {target} with {shards} shards"
                );
                assert_eq!(
                    direct.body, routed.body,
                    "body diverged on {target} with {shards} shards: {} vs {}",
                    String::from_utf8_lossy(&direct.body),
                    String::from_utf8_lossy(&routed.body),
                );
            }
        }
    }

    #[test]
    fn cache_serves_repeat_requests_and_invalidates_on_write() {
        let (_service, router) = seeded_pair(2);
        let t = router.surface.telemetry().clone();
        let r1 = router.handle(&Request::get("/stats"));
        let r2 = router.handle(&Request::get("/stats"));
        assert_eq!(r1, r2);
        assert_eq!(t.counter("serve.cache.hit").value(), 1);
        router
            .set()
            .put(
                NS_COMPANIES,
                Document::new("company:77", obj! {"id" => 77u64}),
            )
            .unwrap();
        let r3 = router.handle(&Request::get("/stats"));
        assert_ne!(r1.body, r3.body, "stale stats served after a write");
    }

    #[test]
    fn killing_a_shard_degrades_instead_of_failing() {
        let (service, router) = seeded_pair(3);
        let targets = probe_targets(&service);
        router.set().kill(1).unwrap();
        for target in &targets {
            let resp = router.handle(&Request::get(target));
            assert!(
                resp.status < 500,
                "5xx on {target} with a shard down: {}",
                String::from_utf8_lossy(&resp.body)
            );
        }
        // Fan-out endpoints flag the gap.
        let stats = router.handle(&Request::get("/stats"));
        let v = Value::parse(std::str::from_utf8(&stats.body).unwrap()).unwrap();
        assert_eq!(v.get("partial").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("degraded_shards")
                .and_then(Value::as_arr)
                .map(|a| a.len()),
            Some(1)
        );
        assert!(router.surface.telemetry().counter("shard.router.partial").value() > 0);
        // Recovery restores byte-identical answers.
        router.set().recover().unwrap();
        for target in &targets {
            if target == "/healthz" {
                continue;
            }
            let req = Request::get(target);
            assert_eq!(
                service.handle(&req).body,
                router.handle(&req).body,
                "post-recovery divergence on {target}"
            );
        }
    }

    #[test]
    fn expired_deadline_yields_partial_not_error() {
        use std::sync::atomic::{AtomicU64, Ordering};

        // A manual clock: every read advances it by `step` ms, so with
        // step = 1 a zero budget is already spent when the first leg is
        // about to be dispatched.
        let now = Arc::new(AtomicU64::new(0));
        let step = Arc::new(AtomicU64::new(0));
        let (service, router) = seeded_pair_on(2, {
            let (now, step) = (Arc::clone(&now), Arc::clone(&step));
            Telemetry::with_clock(Arc::new(move || {
                now.fetch_add(step.load(Ordering::SeqCst), Ordering::SeqCst)
            }))
        });
        // Warm the global artifacts so the ranking is the only fan-out left.
        router.handle(&Request::get("/communities"));
        let target = "/top/investors?by=degree&k=2";
        let req = Request {
            method: "GET".into(),
            target: target.into(),
            version: "HTTP/1.1".into(),
            headers: vec![("x-deadline-ms".into(), "0".into())],
            body: Vec::new(),
        };
        step.store(1, Ordering::SeqCst);
        let resp = router.handle(&req);
        step.store(0, Ordering::SeqCst);
        assert_eq!(resp.status, 200, "deadline produced a non-200");
        let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("partial").and_then(Value::as_bool), Some(true));
        let degraded = v.get("degraded_shards").and_then(Value::as_arr).unwrap();
        assert!(!degraded.is_empty(), "no shard flagged past the budget");
        let t = router.surface.telemetry();
        assert!(t.counter("shard.router.deadline_skips").value() > 0);
        // The partial answer was not cached: the same target without a
        // budget gets the full ranking.
        let full = router.handle(&Request::get(target));
        assert_eq!(full.body, service.handle(&Request::get(target)).body);
        assert_eq!(t.counter("serve.cache.hit").value(), 0);
    }

    #[test]
    fn transport_failures_degrade_instead_of_500() {
        use crate::backend::{EpochMeta, WriteAck, WriteOp};
        use crowdnet_store::store::NamespaceStats;

        /// A backend whose every leg fails like a dead remote process.
        struct DeadShard(usize);
        impl ShardBackend for DeadShard {
            fn index(&self) -> usize {
                self.0
            }
            fn health(&self) -> ShardHealth {
                ShardHealth::Healthy // dies between health check and leg
            }
            fn set_health(&self, _h: ShardHealth) {}
            fn epoch_meta(&self) -> Result<EpochMeta, ShardError> {
                Err(self.gone())
            }
            fn scan_runs(
                &self,
                _ns: &str,
                _snapshot: SnapshotId,
            ) -> Result<Vec<Vec<Arc<ColumnRun>>>, ShardError> {
                Err(self.gone())
            }
            fn entity_docs(&self, _keys: &[String]) -> Result<Vec<Option<Value>>, ShardError> {
                Err(self.gone())
            }
            fn investor_edges(&self, _id: u32) -> Result<Option<Vec<u32>>, ShardError> {
                Err(self.gone())
            }
            fn company_edges(&self, _id: u32) -> Result<Option<Vec<u32>>, ShardError> {
                Err(self.gone())
            }
            fn top_k_prefix(&self, _k: usize) -> Result<Vec<(u32, f64)>, ShardError> {
                Err(self.gone())
            }
            fn shard_stats(&self) -> Result<Vec<NamespaceStats>, ShardError> {
                Err(self.gone())
            }
            fn submit(&self, _op: &WriteOp) -> Result<WriteAck, ShardError> {
                Err(self.gone())
            }
            fn offload(&self, job: Job) -> Result<(), Job> {
                Err(job)
            }
            fn recover(&self) -> Result<(), ShardError> {
                Err(self.gone())
            }
        }
        impl DeadShard {
            fn gone(&self) -> ShardError {
                ShardError::Unavailable {
                    shard: self.0,
                    reason: "connection refused".into(),
                }
            }
        }

        let t = Telemetry::new();
        let healthy = crate::backend::LocalShard::open_memory(0, 2, &t).unwrap();
        let set = Arc::new(ShardSet::from_backends(
            vec![
                Arc::new(healthy) as Arc<dyn ShardBackend>,
                Arc::new(DeadShard(1)) as Arc<dyn ShardBackend>,
            ],
            &t,
        ));
        set.shard(0)
            .unwrap()
            .submit(&WriteOp::Put {
                ns: NS_USERS.into(),
                doc: Document::new(
                    "user:100",
                    obj! {"id" => 100u64, "role" => "investor", "investments" => Value::Arr(vec![Value::from(1u64)])},
                ),
            })
            .unwrap();
        let router = Router::new(set, ServiceConfig::default(), t);
        for target in ["/stats", "/top/investors?by=degree&k=3", "/communities"] {
            let resp = router.handle(&Request::get(target));
            assert!(
                resp.status < 500,
                "5xx on {target} with a dead transport: {}",
                String::from_utf8_lossy(&resp.body)
            );
        }
        let stats = router.handle(&Request::get("/stats"));
        let v = Value::parse(std::str::from_utf8(&stats.body).unwrap()).unwrap();
        assert_eq!(v.get("partial").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn top_k_merge_breaks_ties_by_ascending_id() {
        let merged = merge_top_k(
            vec![
                vec![(7, 3.0), (1, 2.0)],
                vec![(2, 3.0), (9, 3.0)],
                vec![],
            ],
            3,
        );
        assert_eq!(merged, vec![(2, 3.0), (7, 3.0), (9, 3.0)]);
    }
}

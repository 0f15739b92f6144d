//! The per-shard backend: one store, one changefeed, one ingest engine,
//! one executor thread.
//!
//! [`ShardBackend`] is the seam between the [`Router`](crate::Router) and
//! a shard's physical home. The trait surface is a set of **serializable
//! leg methods** — `epoch_meta`, `scan_runs`, `entity_docs`,
//! `investor_edges`, `company_edges`, `top_k_prefix`, `shard_stats`,
//! `submit`, `recover` — every one a plain request/response exchange over
//! owned data, so the same seam is implemented by the in-process
//! [`LocalShard`] and by `crowdnet-shardnet`'s `RemoteShard`, which puts
//! each leg on the wire as a length-prefixed JSON frame (and the bulk
//! scan's payload as the sealed column runs behind one). The router never
//! touches a shard's `Store` directly.
//!
//! The in-process [`LocalShard`] owns:
//!
//! * an `Arc<Store>` (memory, or disk behind the `Vfs` seam so fault
//!   injection reaches every shard file);
//! * an [`IngestEngine`] subscribed to that store's changefeed, drained
//!   lazily to publish per-shard [`ShardEpoch`]s — the immutable
//!   graph + entity + sealed-column view every read leg answers from,
//!   bulk scans included (the refresh is also what seals the engine's
//!   pending column appends, so they never outlive one epoch);
//! * a persistent executor thread fed by a **bounded** channel
//!   ([`ShardBackend::offload`]), so N shards give a fan-out query N-way
//!   parallelism without per-request thread spawns (when the queue is
//!   full, the router runs the job inline instead of blocking — the same
//!   never-wait discipline as the serve worker pool).
//!
//! Health is a tri-state flag ([`ShardHealth`]): the router skips shards
//! that are `Down` or `Recovering` and flags the response partial;
//! [`ShardBackend::recover`] replays the store's recovery path, catches
//! the engine up and republishes a fresh epoch.

use crate::error::ShardError;
use crowdnet_graph::BipartiteGraph;
use crowdnet_ingest::column::{merge_runs, ColumnCatalog, ColumnRun};
use crowdnet_ingest::{IngestConfig, IngestEngine};
use crowdnet_json::Value;
use crowdnet_serve::router::rank_investors;
use crowdnet_serve::EntityIndex;
use crowdnet_store::store::NamespaceStats;
use crowdnet_store::{Document, SnapshotId, Store, StoreError, Vfs};
use crowdnet_telemetry::{Counter, Telemetry};
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Work unit for a shard's executor thread.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Executor queue bound: jobs a shard may have waiting before the router
/// falls back to running them inline.
const EXEC_QUEUE: usize = 128;

/// A shard's availability, as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// Mid-recovery: skipped by fan-outs, answers flagged partial.
    Recovering,
    /// Unavailable (crash, kill switch): skipped by fan-outs.
    Down,
}

impl ShardHealth {
    /// Stable wire name (`/healthz` per-shard array).
    pub fn as_str(self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Recovering => "recovering",
            ShardHealth::Down => "down",
        }
    }

    /// Decode from the atomic health byte (inverse of [`as_u8`](Self::as_u8)).
    pub fn from_u8(v: u8) -> ShardHealth {
        match v {
            1 => ShardHealth::Recovering,
            2 => ShardHealth::Down,
            _ => ShardHealth::Healthy,
        }
    }

    /// Encode for the atomic health byte backends store their state in.
    pub fn as_u8(self) -> u8 {
        match self {
            ShardHealth::Healthy => 0,
            ShardHealth::Recovering => 1,
            ShardHealth::Down => 2,
        }
    }
}

/// An immutable per-shard view at one store version: the shard's slice of
/// the investment graph, its entity documents and the sealed column runs
/// of everything it stores. Cheap to share (`Arc`), replaced wholesale
/// when the shard's store moves.
pub struct ShardEpoch {
    /// Store version the epoch is consistent at.
    pub version: u64,
    /// This shard's investors and their full edge sets (co-location
    /// contract: an investor's edges never span shards).
    pub graph: BipartiteGraph,
    /// `"company:{id}"` / `"user:{id}"` → document body.
    pub entities: EntityIndex,
    /// Every `(namespace, snapshot)` of the shard's store as sealed
    /// column runs at `version` — the source of the `scan_runs` leg, in
    /// process and on the wire ([`ColumnCatalog::scan_runs`]: merging a
    /// partition's runs by `(key, run index)` is [`Store::scan_partitions`]
    /// at `version`, and absence fails with the store's own variants —
    /// the router's lockstep rule reads a missing namespace off
    /// `NamespaceNotFound`).
    pub columns: Arc<ColumnCatalog>,
}

/// Summary of a shard's current epoch: the `epoch_meta` leg's reply, and
/// the health probe's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochMeta {
    /// The shard's position in the set (sanity-checked by remote clients).
    pub index: usize,
    /// Store version the epoch is consistent at.
    pub version: u64,
    /// Store partition count (identical across the set by construction).
    pub partitions: usize,
    /// Investors in the shard's graph slice.
    pub investors: usize,
    /// Companies in the shard's graph slice.
    pub companies: usize,
    /// Entity documents in the epoch.
    pub entities: usize,
}

/// One logical write, routed to a shard by the set. Serializable: the
/// remote backend ships it as a JSON frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Append a document to the namespace's latest snapshot.
    Put {
        /// Target namespace.
        ns: String,
        /// The document.
        doc: Document,
    },
    /// Roll a new snapshot (creates the namespace at snapshot 0 when new).
    NewSnapshot {
        /// Target namespace.
        ns: String,
    },
    /// Create the namespace at snapshot 0 iff it does not exist yet.
    EnsureNamespace {
        /// Target namespace.
        ns: String,
    },
}

/// Reply to a [`WriteOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAck {
    /// Latest snapshot id after the op (0 for a plain put on snapshot 0).
    pub snapshot: u32,
    /// Whether `EnsureNamespace` actually created the namespace.
    pub created: bool,
}

/// What the router needs from a shard, wherever it lives: serializable
/// request/response legs plus local health bookkeeping. Implemented
/// in-process by [`LocalShard`] and over the wire by
/// `crowdnet-shardnet::RemoteShard`.
pub trait ShardBackend: Send + Sync {
    /// Position in the shard set (also the partitioner's output domain).
    fn index(&self) -> usize;
    /// Current availability (tracked caller-side; never a remote call).
    fn health(&self) -> ShardHealth;
    /// Flip availability (recovery transitions, test kill switches).
    fn set_health(&self, health: ShardHealth);
    /// Leg: current epoch summary. Doubles as the health probe.
    fn epoch_meta(&self) -> Result<EpochMeta, ShardError>;
    /// Leg: the shard's slice of every partition of `ns` at `snapshot` as
    /// sealed column runs, `[partition][run]` in seal order — the bulk
    /// leg. The router concatenates a partition's run lists in shard
    /// order; one `(key, run index)` merge over that list is the
    /// unsharded partition scan.
    fn scan_runs(
        &self,
        ns: &str,
        snapshot: SnapshotId,
    ) -> Result<Vec<Vec<Arc<ColumnRun>>>, ShardError>;
    /// [`ShardBackend::scan_runs`] merged into documents, in partition
    /// order with per-partition append order preserved. No request path
    /// calls it; `perf-report`'s leg probes time it (ROADMAP 3d).
    fn scan_partitions(
        &self,
        ns: &str,
        snapshot: SnapshotId,
    ) -> Result<Vec<Vec<Document>>, ShardError> {
        self.scan_runs(ns, snapshot)?
            .iter()
            .map(|runs| {
                merge_runs(runs).map_err(|e| {
                    ShardError::Store(StoreError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("column projection: {e}"),
                    )))
                })
            })
            .collect()
    }
    /// Leg: entity bodies for `keys`, positionally (`None` = not here).
    fn entity_docs(&self, keys: &[String]) -> Result<Vec<Option<Value>>, ShardError>;
    /// Leg: company ids investor `id` holds, in edge order (`None` = the
    /// investor does not live on this shard).
    fn investor_edges(&self, id: u32) -> Result<Option<Vec<u32>>, ShardError>;
    /// Leg: investor ids of company `id` on this shard, in edge order
    /// (`None` = the company is unknown here).
    fn company_edges(&self, id: u32) -> Result<Option<Vec<u32>>, ShardError>;
    /// Leg: the shard-local degree ranking, descending, ties by ascending
    /// id, truncated to `k`.
    fn top_k_prefix(&self, k: usize) -> Result<Vec<(u32, f64)>, ShardError>;
    /// Leg: per-namespace store stats.
    fn shard_stats(&self) -> Result<Vec<NamespaceStats>, ShardError>;
    /// Leg: apply one write.
    fn submit(&self, op: &WriteOp) -> Result<WriteAck, ShardError>;
    /// Hand a job to the shard's executor. Returns the job back when it
    /// cannot be queued (bounded queue full, executor gone) — the caller
    /// decides whether to run it inline.
    fn offload(&self, job: Job) -> Result<(), Job>;
    /// Leg: recover the shard — replay the store's recovery path, catch
    /// the ingest engine up, republish the epoch, mark healthy.
    fn recover(&self) -> Result<(), ShardError>;
}

/// In-process shard: store + changefeed + ingest engine + executor.
pub struct LocalShard {
    index: usize,
    store: Arc<Store>,
    engine: Mutex<IngestEngine>,
    epoch: RwLock<Arc<ShardEpoch>>,
    health: AtomicU8,
    exec_tx: Mutex<Option<SyncSender<Job>>>,
    exec_thread: Mutex<Option<JoinHandle<()>>>,
    refreshes: Counter,
}

impl LocalShard {
    /// Open an in-memory shard (tests, benches, `repro serve --shards`).
    pub fn open_memory(
        index: usize,
        partitions: usize,
        telemetry: &Telemetry,
    ) -> Result<LocalShard, ShardError> {
        let store = Arc::new(Store::memory(partitions).with_telemetry(telemetry));
        LocalShard::wrap(index, store, telemetry)
    }

    /// Open a durable shard rooted at `root`, on an explicit [`Vfs`] so
    /// fault injection and recovery reach every shard file.
    pub fn open_with_vfs(
        index: usize,
        root: &Path,
        partitions: usize,
        vfs: Arc<dyn Vfs>,
        telemetry: &Telemetry,
    ) -> Result<LocalShard, ShardError> {
        let store = Store::open_with_vfs(root, partitions, vfs)
            .map_err(crowdnet_store::StoreError::Io)?;
        LocalShard::wrap(index, Arc::new(store.with_telemetry(telemetry)), telemetry)
    }

    /// Wrap an already-open store: subscribe the ingest engine (catching
    /// up on existing content), publish the first epoch, start the
    /// executor thread.
    pub fn wrap(
        index: usize,
        store: Arc<Store>,
        telemetry: &Telemetry,
    ) -> Result<LocalShard, ShardError> {
        let mut engine = IngestEngine::new(
            Arc::clone(&store),
            IngestConfig::default(),
            telemetry.clone(),
        )?;
        let epoch = Arc::new(snapshot_epoch(&mut engine));
        let (tx, rx) = sync_channel::<Job>(EXEC_QUEUE);
        let thread = std::thread::Builder::new()
            .name(format!("shard-exec-{index}"))
            .spawn(move || {
                // Single consumer owns the receiver; exits on disconnect.
                while let Ok(job) = rx.recv() {
                    job();
                }
            })
            .map_err(crowdnet_store::StoreError::Io)?;
        Ok(LocalShard {
            index,
            store,
            engine: Mutex::new(engine),
            epoch: RwLock::new(epoch),
            health: AtomicU8::new(ShardHealth::Healthy.as_u8()),
            exec_tx: Mutex::new(Some(tx)),
            exec_thread: Mutex::new(Some(thread)),
            refreshes: telemetry.counter(&format!("shard.{index}.refreshes")),
        })
    }

    /// The shard's store. Inherent (not on the trait): the store never
    /// crosses the backend seam — the router and set speak legs only.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The current epoch, refreshed first if the store has moved past it.
    pub fn epoch(&self) -> Result<Arc<ShardEpoch>, ShardError> {
        let current = self.store.version();
        {
            let epoch = self.epoch.read();
            if epoch.version == current {
                return Ok(Arc::clone(&epoch));
            }
        }
        // Stale: drain the changefeed and republish. The engine lock
        // serializes refreshes; the epoch RwLock hands the fresh view to
        // concurrent readers without blocking them on the drain.
        let mut engine = self.engine.lock();
        engine.drain()?;
        let fresh = Arc::new(snapshot_epoch(&mut engine));
        swap_epoch(&self.epoch, Arc::clone(&fresh));
        self.refreshes.inc();
        Ok(fresh)
    }
}

/// Publish `fresh` into `slot` and drop the epoch it retires only after
/// the write guard is released, so no reader waits on the lock while the
/// old epoch is freed.
fn swap_epoch<T>(slot: &RwLock<Arc<T>>, fresh: Arc<T>) {
    let retired = std::mem::replace(&mut *slot.write(), fresh);
    drop(retired);
}

/// Freeze the engine's maintained state into an immutable epoch, sealing
/// the column appends that arrived since the last one.
fn snapshot_epoch(engine: &mut IngestEngine) -> ShardEpoch {
    ShardEpoch {
        version: engine.applied_version(),
        graph: engine.graph().graph().clone(),
        entities: engine.entities().snapshot(),
        columns: engine.seal_columns(),
    }
}

impl ShardBackend for LocalShard {
    fn index(&self) -> usize {
        self.index
    }

    fn health(&self) -> ShardHealth {
        ShardHealth::from_u8(self.health.load(Ordering::Acquire))
    }

    fn set_health(&self, health: ShardHealth) {
        self.health.store(health.as_u8(), Ordering::Release);
    }

    fn epoch_meta(&self) -> Result<EpochMeta, ShardError> {
        let epoch = self.epoch()?;
        Ok(EpochMeta {
            index: self.index,
            version: epoch.version,
            partitions: self.store.partitions(),
            investors: epoch.graph.investor_count(),
            companies: epoch.graph.company_count(),
            entities: epoch.entities.len(),
        })
    }

    fn scan_runs(
        &self,
        ns: &str,
        snapshot: SnapshotId,
    ) -> Result<Vec<Vec<Arc<ColumnRun>>>, ShardError> {
        Ok(self.epoch()?.columns.scan_runs(ns, snapshot)?.to_vec())
    }

    fn entity_docs(&self, keys: &[String]) -> Result<Vec<Option<Value>>, ShardError> {
        let epoch = self.epoch()?;
        Ok(keys
            .iter()
            .map(|k| epoch.entities.get(k).cloned())
            .collect())
    }

    fn investor_edges(&self, id: u32) -> Result<Option<Vec<u32>>, ShardError> {
        Ok(self.epoch()?.graph.company_ids_of(id))
    }

    fn company_edges(&self, id: u32) -> Result<Option<Vec<u32>>, ShardError> {
        Ok(self.epoch()?.graph.investor_ids_of(id))
    }

    fn top_k_prefix(&self, k: usize) -> Result<Vec<(u32, f64)>, ShardError> {
        let epoch = self.epoch()?;
        let degrees = epoch.graph.investor_degrees().into_iter().map(|d| d as f64);
        Ok(rank_investors(&epoch.graph, degrees, k))
    }

    fn shard_stats(&self) -> Result<Vec<NamespaceStats>, ShardError> {
        Ok(self.store.stats()?)
    }

    fn submit(&self, op: &WriteOp) -> Result<WriteAck, ShardError> {
        match op {
            WriteOp::Put { ns, doc } => {
                self.store.put(ns, doc.clone())?;
                Ok(WriteAck {
                    snapshot: self.store.latest_snapshot(ns)?.0,
                    created: false,
                })
            }
            WriteOp::NewSnapshot { ns } => {
                let id = self.store.new_snapshot(ns)?;
                Ok(WriteAck {
                    snapshot: id.0,
                    created: false,
                })
            }
            WriteOp::EnsureNamespace { ns } => {
                if self.store.snapshots(ns).is_empty() {
                    let id = self.store.new_snapshot(ns)?;
                    Ok(WriteAck {
                        snapshot: id.0,
                        created: true,
                    })
                } else {
                    Ok(WriteAck {
                        snapshot: self.store.latest_snapshot(ns)?.0,
                        created: false,
                    })
                }
            }
        }
    }

    fn offload(&self, job: Job) -> Result<(), Job> {
        // Clone the sender out of the lock so the channel op runs with no
        // lock held.
        let tx = match self.exec_tx.lock().as_ref() {
            Some(tx) => tx.clone(),
            None => return Err(job),
        };
        match tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => Err(job),
        }
    }

    fn recover(&self) -> Result<(), ShardError> {
        self.set_health(ShardHealth::Recovering);
        self.store.recover()?;
        let mut engine = self.engine.lock();
        engine.catch_up()?;
        let fresh = Arc::new(snapshot_epoch(&mut engine));
        swap_epoch(&self.epoch, fresh);
        drop(engine);
        self.set_health(ShardHealth::Healthy);
        Ok(())
    }
}

impl Drop for LocalShard {
    fn drop(&mut self) {
        // Drop the sender to disconnect the executor, then join it —
        // unless this *is* the executor: a job that owned the last
        // reference runs the drop on `shard-exec-N` itself, where joining
        // would panic (self-join). Detached, the thread exits as soon as
        // the job returns and `recv` sees the disconnect.
        self.exec_tx.lock().take();
        if let Some(thread) = self.exec_thread.lock().take() {
            if thread.thread().id() != std::thread::current().id() {
                let _ = thread.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_json::obj;
    use crowdnet_store::Document;

    #[test]
    fn epoch_refreshes_lazily_on_version_change() {
        let t = Telemetry::new();
        let shard = LocalShard::open_memory(0, 2, &t).unwrap();
        let first = shard.epoch().unwrap();
        assert_eq!(first.version, 0);
        shard
            .store()
            .put(
                "angellist/users",
                Document::new(
                    "user:7",
                    obj! {"id" => 7u64, "role" => "investor", "investments" => Value::Arr(vec![Value::from(1u64)])},
                ),
            )
            .unwrap();
        let fresh = shard.epoch().unwrap();
        assert_eq!(fresh.version, shard.store().version());
        assert_eq!(fresh.graph.investor_count(), 1);
        assert!(fresh.entities.get("user:7").is_some());
        assert_eq!(t.counter("shard.0.refreshes").value(), 1);
        // Unchanged store: the same Arc comes back, no refresh.
        let again = shard.epoch().unwrap();
        assert!(Arc::ptr_eq(&fresh, &again));
        assert_eq!(t.counter("shard.0.refreshes").value(), 1);
    }

    #[test]
    fn leg_methods_answer_from_the_epoch() {
        let t = Telemetry::new();
        let shard = LocalShard::open_memory(0, 2, &t).unwrap();
        shard
            .submit(&WriteOp::Put {
                ns: "angellist/users".into(),
                doc: Document::new(
                    "user:7",
                    obj! {"id" => 7u64, "role" => "investor", "investments" => Value::Arr(vec![Value::from(1u64), Value::from(3u64)])},
                ),
            })
            .unwrap();
        let meta = shard.epoch_meta().unwrap();
        assert_eq!(meta.index, 0);
        assert_eq!(meta.partitions, 2);
        assert_eq!(meta.investors, 1);
        assert_eq!(meta.entities, 1);
        assert_eq!(meta.version, shard.store().version());
        let docs = shard
            .entity_docs(&["user:7".to_string(), "user:8".to_string()])
            .unwrap();
        assert!(docs[0].is_some());
        assert!(docs[1].is_none());
        assert_eq!(shard.investor_edges(7).unwrap(), Some(vec![1, 3]));
        assert_eq!(shard.investor_edges(8).unwrap(), None);
        assert_eq!(shard.company_edges(1).unwrap(), Some(vec![7]));
        assert_eq!(shard.company_edges(99).unwrap(), None);
        assert_eq!(shard.top_k_prefix(5).unwrap(), vec![(7, 2.0)]);
        let stats = shard.shard_stats().unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].documents, 1);
    }

    fn put(shard: &LocalShard, ns: &str, key: &str, body: Value) {
        shard
            .submit(&WriteOp::Put {
                ns: ns.into(),
                doc: Document::new(key, body),
            })
            .unwrap();
    }

    #[test]
    fn every_refresh_seals_the_pending_columns_and_scans_match_the_store() {
        let t = Telemetry::new();
        let shard = LocalShard::open_memory(0, 2, &t).unwrap();
        let ns = "journal/daily";
        for day in 0..6u64 {
            put(&shard, ns, &format!("day:{day}"), obj! {"day" => day, "rev" => 0u64});
        }
        // Appends wait in the engine's pending buffers until an epoch
        // refresh seals them — and no longer than that.
        shard.epoch().unwrap();
        let pending = |shard: &LocalShard| {
            shard.engine.lock().columns().pending_docs()
        };
        assert_eq!(pending(&shard), 0);
        let check = |snap: u32| {
            assert_eq!(
                shard.scan_partitions(ns, SnapshotId(snap)).unwrap(),
                shard.store().scan_partitions(ns, SnapshotId(snap)).unwrap(),
                "snapshot {snap}"
            );
        };
        check(0);
        // A re-appended key lands in a second run; the merge must keep
        // both versions in append order.
        put(&shard, ns, "day:3", obj! {"day" => 3u64, "rev" => 1u64});
        check(0);
        assert_eq!(pending(&shard), 0);
        // A rolled snapshot scans on its own, and snapshot 0 stays put.
        assert_eq!(shard.submit(&WriteOp::NewSnapshot { ns: ns.into() }).unwrap().snapshot, 1);
        put(&shard, ns, "day:3", obj! {"day" => 3u64, "rev" => 2u64});
        put(&shard, ns, "day:9", obj! {"day" => 9u64, "rev" => 0u64});
        check(1);
        check(0);
        assert_eq!(pending(&shard), 0);
        // The scan leg answers from the same epoch as every other leg.
        assert_eq!(shard.epoch().unwrap().columns.version(), shard.store().version());
    }

    #[test]
    fn scan_errors_mirror_the_store() {
        let t = Telemetry::new();
        let shard = LocalShard::open_memory(0, 2, &t).unwrap();
        put(&shard, "journal/daily", "day:1", obj! {"day" => 1u64});
        match shard.scan_partitions("ghost", SnapshotId(0)) {
            Err(ShardError::Store(StoreError::NamespaceNotFound(ns))) => assert_eq!(ns, "ghost"),
            other => panic!("unknown namespace answered {other:?}"),
        }
        match shard.scan_partitions("journal/daily", SnapshotId(7)) {
            Err(ShardError::Store(StoreError::SnapshotNotFound { namespace, snapshot })) => {
                assert_eq!((namespace.as_str(), snapshot), ("journal/daily", 7));
            }
            other => panic!("unknown snapshot answered {other:?}"),
        }
        // Present but empty: a namespace created for lockstep, and a
        // snapshot rolled before its first append.
        shard
            .submit(&WriteOp::EnsureNamespace { ns: "angellist/users".into() })
            .unwrap();
        shard
            .submit(&WriteOp::NewSnapshot { ns: "journal/daily".into() })
            .unwrap();
        for (ns, snap) in [("angellist/users", 0), ("journal/daily", 1)] {
            let parts = shard.scan_partitions(ns, SnapshotId(snap)).unwrap();
            assert_eq!(parts, vec![Vec::new(), Vec::new()], "{ns}[{snap}]");
        }
    }

    #[test]
    fn write_ops_roll_snapshots_and_report_creation() {
        let t = Telemetry::new();
        let shard = LocalShard::open_memory(0, 2, &t).unwrap();
        let ns = "journal/daily".to_string();
        let ack = shard
            .submit(&WriteOp::EnsureNamespace { ns: ns.clone() })
            .unwrap();
        assert!(ack.created);
        assert_eq!(ack.snapshot, 0);
        let ack = shard
            .submit(&WriteOp::EnsureNamespace { ns: ns.clone() })
            .unwrap();
        assert!(!ack.created);
        let ack = shard.submit(&WriteOp::NewSnapshot { ns }).unwrap();
        assert_eq!(ack.snapshot, 1);
    }

    #[test]
    fn executor_runs_submitted_jobs() {
        let t = Telemetry::new();
        let shard = LocalShard::open_memory(1, 2, &t).unwrap();
        let (tx, rx) = sync_channel::<u32>(1);
        shard
            .offload(Box::new(move || {
                let _ = tx.send(42);
            }))
            .unwrap_or_else(|job| job());
        assert_eq!(rx.recv().unwrap(), 42);
    }

    #[test]
    fn last_reference_dropped_on_the_executor_neither_panics_nor_hangs() {
        let t = Telemetry::new();
        let shard = Arc::new(LocalShard::open_memory(4, 2, &t).unwrap());
        let queue = Arc::clone(&shard);
        let (go_tx, go_rx) = sync_channel::<()>(1);
        let (done_tx, rx) = sync_channel::<()>(1);
        queue
            .offload(Box::new(move || {
                // Once the caller has let go, the job owns the last `Arc`:
                // `Drop for LocalShard` runs here, on the shard's own
                // executor thread. A panic in it unwinds past the send
                // and the receiver sees a hang-up.
                let _ = go_rx.recv();
                drop(shard);
                let _ = done_tx.send(());
            }))
            .unwrap_or_else(|_| panic!("executor queue rejected the job"));
        drop(queue);
        go_tx.send(()).unwrap();
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("drop on the executor thread panicked or hung");
    }

    /// An epoch whose drop tries to take the slot it was published in.
    struct DropProbe {
        slot: std::sync::Weak<RwLock<Arc<DropProbe>>>,
        slot_was_free: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Drop for DropProbe {
        fn drop(&mut self) {
            if let Some(slot) = self.slot.upgrade() {
                self.slot_was_free.store(slot.try_write().is_some(), Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn a_refresh_frees_the_retired_epoch_after_releasing_the_slot() {
        use std::sync::atomic::AtomicBool;
        let flag = Arc::new(AtomicBool::new(false));
        let slot = Arc::new_cyclic(|weak| {
            RwLock::new(Arc::new(DropProbe {
                slot: weak.clone(),
                slot_was_free: Arc::clone(&flag),
            }))
        });
        let next = Arc::new(DropProbe {
            slot: Arc::downgrade(&slot),
            slot_was_free: Arc::new(AtomicBool::new(false)),
        });
        swap_epoch(&slot, next);
        assert!(
            flag.load(Ordering::SeqCst),
            "the retired epoch was dropped while the epoch's write lock was held"
        );
    }

    #[test]
    fn health_round_trips_and_kill_is_reversible() {
        let t = Telemetry::new();
        let shard = LocalShard::open_memory(2, 2, &t).unwrap();
        assert_eq!(shard.health(), ShardHealth::Healthy);
        shard.set_health(ShardHealth::Down);
        assert_eq!(shard.health(), ShardHealth::Down);
        shard.recover().unwrap();
        assert_eq!(shard.health(), ShardHealth::Healthy);
    }

    #[test]
    fn offload_after_drop_sender_returns_job() {
        let t = Telemetry::new();
        let shard = LocalShard::open_memory(3, 2, &t).unwrap();
        shard.exec_tx.lock().take();
        let job: Job = Box::new(|| {});
        assert!(shard.offload(job).is_err());
    }
}

//! The unified [`Store`] API over the memory and disk backends.

use crate::changefeed::{ChangeEvent, ChangePayload, FeedHub, Subscription};
use crate::derived::{DerivedKey, DerivedMemo};
use crate::disk::{DiskBackend, RecoveryStats};
use crate::doc::Document;
use crate::error::StoreError;
use crate::frame;
use crate::memory::MemoryBackend;
use crate::vfs::Vfs;
use crowdnet_telemetry::{Counter, Telemetry};
use parking_lot::Mutex;
use std::any::Any;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of one crawl run's snapshot within a namespace.
///
/// Snapshot 0 is created implicitly by the first write; the longitudinal
/// crawler opens a new snapshot per scheduled run (§7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotId(pub u32);

enum Backend {
    Memory(MemoryBackend),
    Disk(DiskBackend),
}

/// Cached handles for the store's telemetry counters (`store.append.*`,
/// `store.scan.*`), resolved once in [`Store::with_telemetry`].
struct StoreMetrics {
    append_docs: Counter,
    append_bytes: Counter,
    scan_calls: Counter,
    scan_docs: Counter,
    recovery_scans: Counter,
    recovery_records_ok: Counter,
    recovery_torn_tails: Counter,
    recovery_torn_bytes: Counter,
    recovery_quarantined: Counter,
    recovery_uncommitted_snapshots: Counter,
    recovery_writer_invalidations: Counter,
}

/// A namespaced, snapshotted, partitioned JSON document store.
///
/// See the crate docs for the model. All methods take `&self` and are safe to
/// call from many threads.
pub struct Store {
    backend: Backend,
    partitions: usize,
    metrics: Option<StoreMetrics>,
    /// Monotonic content version: bumped on every successful append and on
    /// every new snapshot. Consumers (the serving tier's result cache,
    /// [`Store::derived`]) use it to detect that cached derived data is
    /// stale without rescanning.
    version: AtomicU64,
    /// Values derived from the content, tagged with the version they were
    /// built at (see [`Store::derived`]).
    derived: DerivedMemo,
    /// Changefeed publisher; writes fan committed events out to live
    /// [`Subscription`]s (see [`crate::changefeed`] for the contract).
    feed: FeedHub,
    /// Recovery totals already published to the telemetry counters, so
    /// repeated [`Store::recover`] calls emit deltas, not re-counts.
    recovery_published: Mutex<RecoveryStats>,
}

/// FNV-1a over the key bytes: stable partition assignment across runs and
/// backends (document placement must be deterministic for reproducibility).
/// Public so derived structures (the column projection) can mirror
/// placement without holding a `Store`.
pub fn partition_of(key: &str, partitions: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % partitions as u64) as usize
}

/// k-way merge of per-partition canonical (key-sorted) runs into one
/// globally key-sorted vector. Ties between partitions resolve to the
/// lower partition index, which is exactly what a stable sort of the
/// flattened partitions would produce — so this replaces the
/// `flatten-then-re-sort` pattern without changing a single byte of
/// output. Debug builds assert the inputs really are sorted, pinning the
/// invariant to its one producer ([`Store::scan_partitions`]).
pub fn merge_sorted_partitions(partitions: Vec<Vec<Document>>) -> Vec<Document> {
    debug_assert!(
        partitions
            .iter()
            .all(|docs| docs.windows(2).all(|w| w[0].key <= w[1].key)),
        "merge_sorted_partitions: input partition not in canonical key order"
    );
    let total = partitions.iter().map(Vec::len).sum();
    let mut queues: Vec<std::collections::VecDeque<Document>> =
        partitions.into_iter().map(Into::into).collect();
    let mut out: Vec<Document> = Vec::with_capacity(total);
    loop {
        let mut best: Option<usize> = None;
        for i in 0..queues.len() {
            let front = match queues[i].front() {
                Some(d) => d,
                None => continue,
            };
            match best {
                None => best = Some(i),
                Some(b) => {
                    // Strict `<` keeps ties on the earliest partition —
                    // the order a stable sort of the flattened input
                    // would have produced.
                    if let Some(bf) = queues[b].front() {
                        if front.key < bf.key {
                            best = Some(i);
                        }
                    }
                }
            }
        }
        match best {
            Some(b) => {
                if let Some(doc) = queues[b].pop_front() {
                    out.push(doc);
                }
            }
            None => break,
        }
    }
    out
}

impl Store {
    /// In-memory store with `partitions` partitions per snapshot.
    pub fn memory(partitions: usize) -> Store {
        Store {
            partitions: partitions.max(1),
            backend: Backend::Memory(MemoryBackend::new(partitions)),
            metrics: None,
            version: AtomicU64::new(0),
            derived: DerivedMemo::default(),
            feed: FeedHub::new(),
            recovery_published: Mutex::new(RecoveryStats::default()),
        }
    }

    /// Disk store rooted at `root` (real filesystem). Opening runs a
    /// recovery scan over any existing state; see [`Store::recovery_stats`].
    pub fn open(root: impl Into<PathBuf>, partitions: usize) -> io::Result<Store> {
        Self::from_disk(DiskBackend::open(root, partitions)?)
    }

    /// Disk store on an explicit [`Vfs`] — the entry point for
    /// deterministic fault injection (see [`crate::vfs::FailpointFs`]).
    pub fn open_with_vfs(
        root: impl Into<PathBuf>,
        partitions: usize,
        vfs: Arc<dyn Vfs>,
    ) -> io::Result<Store> {
        Self::from_disk(DiskBackend::open_with_vfs(root, partitions, vfs)?)
    }

    fn from_disk(backend: DiskBackend) -> io::Result<Store> {
        Ok(Store {
            partitions: backend.partition_count(),
            backend: Backend::Disk(backend),
            metrics: None,
            version: AtomicU64::new(0),
            derived: DerivedMemo::default(),
            feed: FeedHub::new(),
            recovery_published: Mutex::new(RecoveryStats::default()),
        })
    }

    /// Record `store.append.{docs,bytes}`, `store.scan.{calls,docs}` and
    /// `store.recovery.*` into `telemetry` for every subsequent write,
    /// scan and recovery — including the recovery scan [`Store::open`]
    /// already ran, which is published immediately.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Store {
        self.metrics = Some(StoreMetrics {
            append_docs: telemetry.counter("store.append.docs"),
            append_bytes: telemetry.counter("store.append.bytes"),
            scan_calls: telemetry.counter("store.scan.calls"),
            scan_docs: telemetry.counter("store.scan.docs"),
            recovery_scans: telemetry.counter("store.recovery.scans"),
            recovery_records_ok: telemetry.counter("store.recovery.records_ok"),
            recovery_torn_tails: telemetry.counter("store.recovery.torn_tails"),
            recovery_torn_bytes: telemetry.counter("store.recovery.torn_bytes"),
            recovery_quarantined: telemetry.counter("store.recovery.quarantined"),
            recovery_uncommitted_snapshots: telemetry
                .counter("store.recovery.uncommitted_snapshots"),
            recovery_writer_invalidations: telemetry
                .counter("store.recovery.writer_invalidations"),
        });
        self.publish_recovery();
        self
    }

    /// Cumulative recovery statistics (all zero for the memory backend).
    pub fn recovery_stats(&self) -> RecoveryStats {
        match &self.backend {
            Backend::Memory(_) => RecoveryStats::default(),
            Backend::Disk(b) => b.recovery_stats(),
        }
    }

    /// Run a recovery scan now (no-op for the memory backend): repairs
    /// torn tails, quarantines corrupt records, drops uncommitted
    /// snapshots, invalidates stale cached writers, and publishes the
    /// `store.recovery.*` counter deltas. Bumps the content version so
    /// anything memoized against the pre-recovery state is invalidated.
    pub fn recover(&self) -> Result<(), StoreError> {
        if let Backend::Disk(b) = &self.backend {
            b.recover()?;
            self.bump_version();
            self.publish_recovery();
        }
        Ok(())
    }

    /// Emit the delta between the backend's cumulative recovery stats and
    /// what was already published.
    fn publish_recovery(&self) {
        let Some(m) = &self.metrics else { return };
        let total = self.recovery_stats();
        let mut published = self.recovery_published.lock();
        m.recovery_scans.add(total.scans - published.scans);
        m.recovery_records_ok.add(total.records_ok - published.records_ok);
        m.recovery_torn_tails.add(total.torn_tails - published.torn_tails);
        m.recovery_torn_bytes.add(total.torn_bytes - published.torn_bytes);
        m.recovery_quarantined
            .add(total.quarantined_records - published.quarantined_records);
        m.recovery_uncommitted_snapshots
            .add(total.uncommitted_snapshots - published.uncommitted_snapshots);
        m.recovery_writer_invalidations
            .add(total.writer_invalidations - published.writer_invalidations);
        *published = total;
    }

    /// Partitions per snapshot.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The store's content version: 0 at open, bumped by every successful
    /// append and every new snapshot. Two reads returning the same value
    /// bracket a window with no writes, so anything derived from a scan at
    /// that version is still current.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Bump the content version, returning the version this write produced.
    fn bump_version(&self) -> u64 {
        self.version.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Open a bounded changefeed subscription delivering every committed
    /// write from this point on. See [`crate::changefeed`] for the
    /// overflow / catch-up contract.
    pub fn subscribe(&self, capacity: usize) -> Subscription {
        self.feed.subscribe(capacity)
    }

    #[cfg(test)]
    pub(crate) fn feed_has_subscribers(&self) -> bool {
        self.feed.has_subscribers()
    }

    /// Append a document to the latest snapshot (creating the namespace and
    /// snapshot 0 on first write).
    pub fn put(&self, ns: &str, doc: Document) -> Result<(), StoreError> {
        let snap = self.latest_snapshot_or_zero(ns);
        self.put_snapshot(ns, snap, doc)
    }

    /// Append a document to a specific snapshot.
    pub fn put_snapshot(&self, ns: &str, snap: SnapshotId, doc: Document) -> Result<(), StoreError> {
        let partition = partition_of(&doc.key, self.partitions);
        let line = doc.encode();
        let encoded_bytes = line.len() as u64;
        let ok = match &self.backend {
            Backend::Memory(b) => b.append(ns, snap.0, partition, line),
            Backend::Disk(b) => b.append(ns, snap.0, partition, &line)?,
        };
        if ok {
            let version = self.bump_version();
            if let Some(m) = &self.metrics {
                m.append_docs.inc();
                m.append_bytes.add(encoded_bytes);
            }
            if self.feed.has_subscribers() {
                self.feed.publish(ChangeEvent {
                    version,
                    namespace: ns.to_string(),
                    snapshot: snap,
                    encoded_len: encoded_bytes,
                    payload: ChangePayload::Append(doc),
                });
            }
            Ok(())
        } else {
            Err(StoreError::SnapshotNotFound {
                namespace: ns.to_string(),
                snapshot: snap.0,
            })
        }
    }

    fn latest_snapshot_or_zero(&self, ns: &str) -> SnapshotId {
        SnapshotId(match &self.backend {
            Backend::Memory(b) => b.latest_snapshot(ns).unwrap_or(0),
            Backend::Disk(b) => b.latest_snapshot(ns).unwrap_or(0),
        })
    }

    /// Latest snapshot of a namespace.
    pub fn latest_snapshot(&self, ns: &str) -> Result<SnapshotId, StoreError> {
        let latest = match &self.backend {
            Backend::Memory(b) => b.latest_snapshot(ns),
            Backend::Disk(b) => b.latest_snapshot(ns),
        };
        latest
            .map(SnapshotId)
            .ok_or_else(|| StoreError::NamespaceNotFound(ns.to_string()))
    }

    /// Open a fresh snapshot for a new crawl run.
    pub fn new_snapshot(&self, ns: &str) -> Result<SnapshotId, StoreError> {
        let id = match &self.backend {
            Backend::Memory(b) => b.new_snapshot(ns),
            Backend::Disk(b) => b.new_snapshot(ns)?,
        };
        let version = self.bump_version();
        if self.feed.has_subscribers() {
            self.feed.publish(ChangeEvent {
                version,
                namespace: ns.to_string(),
                snapshot: SnapshotId(id),
                encoded_len: 0,
                payload: ChangePayload::NewSnapshot,
            });
        }
        Ok(SnapshotId(id))
    }

    /// All snapshots of a namespace (empty if the namespace is unknown).
    pub fn snapshots(&self, ns: &str) -> Vec<SnapshotId> {
        let ids = match &self.backend {
            Backend::Memory(b) => b.snapshots(ns),
            Backend::Disk(b) => b.snapshots(ns),
        };
        ids.into_iter().map(SnapshotId).collect()
    }

    /// All namespaces, sorted.
    pub fn namespaces(&self) -> Result<Vec<String>, StoreError> {
        Ok(match &self.backend {
            Backend::Memory(b) => b.namespaces(),
            Backend::Disk(b) => b.namespaces()?,
        })
    }

    /// Scan the latest snapshot into a flat vector (partition order).
    pub fn scan(&self, ns: &str) -> Result<Vec<Document>, StoreError> {
        let snap = self.latest_snapshot(ns)?;
        self.scan_snapshot(ns, snap)
    }

    /// Scan one snapshot into a flat vector.
    pub fn scan_snapshot(&self, ns: &str, snap: SnapshotId) -> Result<Vec<Document>, StoreError> {
        Ok(self.scan_partitions(ns, snap)?.into_iter().flatten().collect())
    }

    /// Scan one snapshot preserving partition boundaries: the serial loop
    /// over [`Store::scan_partition`], keeping each document whole. The
    /// dataflow engine's fused scan runs the same routine once per pool
    /// task instead.
    pub fn scan_partitions(
        &self,
        ns: &str,
        snap: SnapshotId,
    ) -> Result<Vec<Vec<Document>>, StoreError> {
        Ok(self.scan_partitions_framed(ns, snap)?.into_iter().map(|p| p.items).collect())
    }

    /// [`Store::scan_partitions`] keeping each partition's
    /// [`PartitionScan::framed_bytes`] beside its documents — what a
    /// consumer that persists a staleness token per partition (the column
    /// projection) needs from one scan.
    pub fn scan_partitions_framed(
        &self,
        ns: &str,
        snap: SnapshotId,
    ) -> Result<Vec<PartitionScan<Document>>, StoreError> {
        let mut out = Vec::with_capacity(self.partitions);
        let mut docs = 0;
        for p in 0..self.partitions {
            let part =
                self.scan_partition(ns, snap, p, |doc, part| part.push(doc), |doc| &doc.key)?;
            docs += part.docs;
            out.push(part);
        }
        self.record_scan(docs);
        Ok(out)
    }

    /// The one per-partition scan routine: read partition `partition` of a
    /// snapshot, decode each record in write order and hand the
    /// [`Document`] to `emit`, which pushes zero or more items. The items
    /// come back stably sorted by `key` — the canonical order — together
    /// with the number of documents decoded and the framed log bytes the
    /// read accepted. A decode error names the record's line within the
    /// partition.
    ///
    /// Every JSON scan goes through here. Callers that drive it themselves
    /// (one task per partition) report the finished scan with
    /// [`Store::record_scan`].
    pub fn scan_partition<T>(
        &self,
        ns: &str,
        snap: SnapshotId,
        partition: usize,
        mut emit: impl FnMut(Document, &mut Vec<T>),
        key: impl Fn(&T) -> &str,
    ) -> Result<PartitionScan<T>, StoreError> {
        let read = match &self.backend {
            Backend::Memory(b) => b.read_partition(ns, snap.0, partition).map(|lines| {
                let framed = lines.iter().map(|l| frame::frame_len(l.len())).sum();
                (lines, framed)
            }),
            Backend::Disk(b) => b.read_partition(ns, snap.0, partition)?,
        };
        let (lines, framed_bytes) = read.ok_or_else(|| {
            if self.snapshots(ns).is_empty() {
                StoreError::NamespaceNotFound(ns.to_string())
            } else {
                StoreError::SnapshotNotFound {
                    namespace: ns.to_string(),
                    snapshot: snap.0,
                }
            }
        })?;
        let mut items = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            emit(Document::decode(line, ns, i)?, &mut items);
        }
        // Canonical order: sort by key (stable, so same-key appends keep
        // their write order). Concurrent crawl workers interleave appends
        // nondeterministically; sorting at the scan boundary makes
        // everything derived from a scan independent of that interleaving.
        items.sort_by(|a, b| key(a).cmp(key(b)));
        Ok(PartitionScan { items, docs: lines.len(), framed_bytes })
    }

    /// Count one finished scan of `docs` documents into
    /// `store.scan.{calls,docs}`. [`Store::scan_partitions`] calls it
    /// itself; an executor running [`Store::scan_partition`] per task calls
    /// it once after every partition succeeded.
    pub fn record_scan(&self, docs: usize) {
        if let Some(m) = &self.metrics {
            m.scan_calls.inc();
            m.scan_docs.add(docs as u64);
        }
    }

    /// Scan one snapshot into a single globally key-sorted vector by
    /// k-way-merging the per-partition canonical runs. The per-partition
    /// sort inside [`Store::scan_partitions`] is the one place documents
    /// get ordered; consumers that need a global order merge it here
    /// instead of re-sorting flattened output.
    pub fn scan_snapshot_sorted(
        &self,
        ns: &str,
        snap: SnapshotId,
    ) -> Result<Vec<Document>, StoreError> {
        Ok(merge_sorted_partitions(self.scan_partitions(ns, snap)?))
    }

    /// The partition a key routes to in this store — exposed so derived
    /// structures (the column projection) can mirror document placement
    /// when maintaining themselves from the changefeed.
    pub fn partition_index(&self, key: &str) -> usize {
        partition_of(key, self.partitions)
    }

    /// Disk root and [`Vfs`] handle, when this store is disk-backed.
    /// Derived on-disk structures (the column projection) persist next to
    /// the log through the same Vfs so fault injection covers them too.
    pub fn disk_layout(&self) -> Option<(PathBuf, Arc<dyn Vfs>)> {
        match &self.backend {
            Backend::Memory(_) => None,
            Backend::Disk(b) => Some((b.root().to_path_buf(), b.vfs_handle())),
        }
    }

    /// Path of one partition's JSON log file (disk backend only).
    pub fn partition_log_path(
        &self,
        ns: &str,
        snap: SnapshotId,
        partition: usize,
    ) -> Option<PathBuf> {
        match &self.backend {
            Backend::Memory(_) => None,
            Backend::Disk(b) => Some(b.partition_log_path(ns, snap.0, partition)),
        }
    }

    /// Number of documents in the latest snapshot.
    pub fn doc_count(&self, ns: &str) -> Result<usize, StoreError> {
        Ok(self.scan(ns)?.len())
    }

    /// Scan the latest snapshot keeping only documents whose body satisfies
    /// `pred` — the store-side filter the analytics layer uses to avoid
    /// materializing whole namespaces.
    pub fn scan_where<F>(&self, ns: &str, pred: F) -> Result<Vec<Document>, StoreError>
    where
        F: Fn(&Document) -> bool,
    {
        Ok(self.scan(ns)?.into_iter().filter(|d| pred(d)).collect())
    }

    /// The value `build` derives from this store's content, memoised under
    /// `key` per [`Store::version`]: a call at the version the held value
    /// was built at returns it without building; any write since makes the
    /// next call build again.
    ///
    /// - The value is tagged with the version read *before* `build` runs,
    ///   so a write racing the build leaves it stale, never wrong.
    /// - An `Err` from `build` is returned and never memoised.
    /// - The memo's lock is not held while `build` runs: a builder may ask
    ///   for other derived values. Two threads that miss at once both
    ///   build; the value built at the later version is kept.
    /// - A value lives until a lookup sees a newer version or the store is
    ///   dropped. Nothing is written to disk.
    pub fn derived<T, E>(
        &self,
        key: DerivedKey,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E>
    where
        T: Any + Send + Sync,
    {
        let version = self.version();
        if let Some(value) = self.derived.get::<T>(key, version) {
            return Ok(value);
        }
        let value = Arc::new(build()?);
        self.derived.put(key, version, Arc::clone(&value));
        Ok(value)
    }

    /// Per-namespace statistics over the latest snapshots: document count,
    /// encoded bytes, and snapshot count (an `fsck`-style overview).
    ///
    /// A frame walk, not a parse: the count is the records the walk
    /// accepted and the bytes are `framed − docs × frame_len(0)`, the
    /// encoded lines without their frame headers. Memoised through
    /// [`Store::derived`], so a hot `/stats` endpoint costs one lock
    /// acquisition per version, not a walk of the log.
    pub fn stats(&self) -> Result<Vec<NamespaceStats>, StoreError> {
        let stats = self.derived(DerivedKey::new("store.stats"), || {
            self.namespaces()?
                .into_iter()
                .map(|ns| self.namespace_stats(ns))
                .collect::<Result<Vec<_>, StoreError>>()
        })?;
        Ok(stats.as_ref().clone())
    }

    /// One namespace's [`NamespaceStats`], counted as one scan.
    fn namespace_stats(&self, ns: String) -> Result<NamespaceStats, StoreError> {
        let snap = self.latest_snapshot(&ns)?;
        let (mut documents, mut framed) = (0usize, 0u64);
        for p in 0..self.partitions {
            let extent = match &self.backend {
                Backend::Memory(b) => b.partition_extent(&ns, snap.0, p),
                Backend::Disk(b) => b.partition_extent(&ns, snap.0, p)?,
            };
            let (docs, bytes) = extent.ok_or_else(|| StoreError::SnapshotNotFound {
                namespace: ns.clone(),
                snapshot: snap.0,
            })?;
            documents += docs;
            framed += bytes;
        }
        self.record_scan(documents);
        Ok(NamespaceStats {
            snapshots: self.snapshots(&ns).len(),
            namespace: ns,
            documents,
            encoded_bytes: (framed - documents as u64 * frame::frame_len(0)) as usize,
        })
    }
}

/// What one [`Store::scan_partition`] read.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionScan<T> {
    /// The emitted items, stably sorted by key.
    pub items: Vec<T>,
    /// Documents decoded.
    pub docs: usize,
    /// Framed log bytes of the records the read accepted: on disk the sum
    /// of the checksum-clean frames the walk passed, in memory
    /// `HEADER_LEN + line + 1` per line. The log is append-only, so this
    /// is the staleness token derived structures persist per partition —
    /// it equals the file length exactly when the walk accepted every
    /// byte.
    pub framed_bytes: u64,
}

/// Summary of one namespace (see [`Store::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamespaceStats {
    /// Namespace name.
    pub namespace: String,
    /// Documents in the latest snapshot.
    pub documents: usize,
    /// Total encoded size of those documents in bytes.
    pub encoded_bytes: usize,
    /// Number of snapshots.
    pub snapshots: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_json::obj;
    use std::sync::Arc;

    fn doc(i: usize) -> Document {
        Document::new(format!("k:{i}"), obj! {"i" => i})
    }

    #[test]
    fn put_scan_roundtrip_memory() {
        let s = Store::memory(4);
        for i in 0..100 {
            s.put("ns", doc(i)).unwrap();
        }
        let mut got = s.scan("ns").unwrap();
        got.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(got.len(), 100);
        assert_eq!(s.doc_count("ns").unwrap(), 100);
    }

    #[test]
    fn partitioning_is_deterministic_and_total() {
        let s = Store::memory(8);
        for i in 0..200 {
            s.put("ns", doc(i)).unwrap();
        }
        let parts = s.scan_partitions("ns", SnapshotId(0)).unwrap();
        assert_eq!(parts.len(), 8);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 200);
        // Same key always lands in the same partition.
        let p1 = super::partition_of("company:42", 8);
        let p2 = super::partition_of("company:42", 8);
        assert_eq!(p1, p2);
    }

    #[test]
    fn missing_namespace_errors() {
        let s = Store::memory(2);
        assert!(matches!(
            s.scan("ghost").unwrap_err(),
            StoreError::NamespaceNotFound(_)
        ));
        assert!(matches!(
            s.latest_snapshot("ghost").unwrap_err(),
            StoreError::NamespaceNotFound(_)
        ));
    }

    #[test]
    fn snapshot_isolation_and_selection() {
        let s = Store::memory(2);
        s.put("ns", doc(1)).unwrap();
        let snap1 = s.new_snapshot("ns").unwrap();
        s.put("ns", doc(2)).unwrap(); // goes to latest = snap1
        s.put_snapshot("ns", SnapshotId(0), doc(3)).unwrap();
        assert_eq!(s.scan_snapshot("ns", SnapshotId(0)).unwrap().len(), 2);
        assert_eq!(s.scan_snapshot("ns", snap1).unwrap().len(), 1);
        assert_eq!(s.latest_snapshot("ns").unwrap(), snap1);
    }

    #[test]
    fn put_to_unknown_snapshot_errors() {
        let s = Store::memory(2);
        s.put("ns", doc(0)).unwrap();
        let e = s.put_snapshot("ns", SnapshotId(9), doc(1)).unwrap_err();
        assert!(matches!(e, StoreError::SnapshotNotFound { snapshot: 9, .. }));
    }

    #[test]
    fn disk_backend_full_roundtrip() {
        let root = std::env::temp_dir().join(format!("crowdnet-store-api-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let s = Store::open(&root, 4).unwrap();
        for i in 0..50 {
            s.put("angellist/companies", doc(i)).unwrap();
        }
        assert_eq!(s.doc_count("angellist/companies").unwrap(), 50);
        assert_eq!(s.namespaces().unwrap(), vec!["angellist/companies"]);
        // Reopen and verify persistence.
        let s2 = Store::open(&root, 4).unwrap();
        assert_eq!(s2.doc_count("angellist/companies").unwrap(), 50);
    }

    #[test]
    fn concurrent_puts_from_many_threads() {
        let s = Arc::new(Store::memory(8));
        crossbeam::thread::scope(|scope| {
            for t in 0..8usize {
                let s = Arc::clone(&s);
                scope.spawn(move |_| {
                    for i in 0..250usize {
                        s.put("ns", doc(t * 1000 + i)).unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(s.doc_count("ns").unwrap(), 2000);
    }

    #[test]
    fn scan_where_filters_bodies() {
        let s = Store::memory(2);
        for i in 0..20 {
            s.put("ns", doc(i)).unwrap();
        }
        let evens = s
            .scan_where("ns", |d| {
                d.body.get("i").and_then(|v| v.as_i64()).unwrap_or(1) % 2 == 0
            })
            .unwrap();
        assert_eq!(evens.len(), 10);
    }

    #[test]
    fn stats_report_counts_bytes_and_snapshots() {
        let s = Store::memory(2);
        s.put("a", doc(1)).unwrap();
        s.put("a", doc(2)).unwrap();
        s.new_snapshot("a").unwrap();
        s.put("b", doc(3)).unwrap();
        let stats = s.stats().unwrap();
        assert_eq!(stats.len(), 2);
        let a = stats.iter().find(|x| x.namespace == "a").unwrap();
        // Latest snapshot of "a" is the fresh (empty) one.
        assert_eq!(a.documents, 0);
        assert_eq!(a.snapshots, 2);
        let b = stats.iter().find(|x| x.namespace == "b").unwrap();
        assert_eq!(b.documents, 1);
        assert!(b.encoded_bytes > 10);
        assert_eq!(b.snapshots, 1);
    }

    #[test]
    fn version_bumps_on_append_and_snapshot() {
        let s = Store::memory(2);
        assert_eq!(s.version(), 0);
        s.put("a", doc(1)).unwrap();
        assert_eq!(s.version(), 1);
        s.new_snapshot("a").unwrap();
        assert_eq!(s.version(), 2);
        s.put_snapshot("a", SnapshotId(0), doc(2)).unwrap();
        assert_eq!(s.version(), 3);
        // A failed append leaves the version untouched.
        assert!(s.put_snapshot("a", SnapshotId(9), doc(3)).is_err());
        assert_eq!(s.version(), 3);
    }

    #[test]
    fn stats_memoized_until_next_write() {
        let telemetry = Telemetry::new();
        let s = Store::memory(2).with_telemetry(&telemetry);
        s.put("ns", doc(1)).unwrap();
        let first = s.stats().unwrap();
        let scans_after_first = telemetry.counter("store.scan.calls").value();
        // Second call at the same version serves the memo: no new scans.
        let second = s.stats().unwrap();
        assert_eq!(first, second);
        assert_eq!(telemetry.counter("store.scan.calls").value(), scans_after_first);
        // A write invalidates the memo and the next stats() rescans.
        s.put("ns", doc(2)).unwrap();
        let third = s.stats().unwrap();
        assert_eq!(third[0].documents, 2);
        assert!(telemetry.counter("store.scan.calls").value() > scans_after_first);
    }

    #[test]
    fn derived_memoises_per_version_and_rebuilds_after_a_write() {
        let s = Store::memory(2);
        s.put("ns", doc(1)).unwrap();
        let builds = AtomicU64::new(0);
        let count = || {
            builds.fetch_add(1, Ordering::Relaxed);
            s.doc_count("ns")
        };
        let key = DerivedKey::new("test.count");
        let a = s.derived(key, count).unwrap();
        let b = s.derived(key, count).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        // A put moves the version: the next lookup builds again and the
        // stale value leaves the memo.
        s.put("ns", doc(2)).unwrap();
        assert_eq!(*s.derived(key, count).unwrap(), 2);
        assert_eq!(builds.load(Ordering::Relaxed), 2);
        assert_eq!(s.derived.len(), 1);
        // Another parameter digest, or another value type, is another value.
        assert_eq!(*s.derived(key.with(7), count).unwrap(), 2);
        assert_eq!(builds.load(Ordering::Relaxed), 3);
        let as_string = s
            .derived(key, || Ok::<_, StoreError>(String::from("x")))
            .unwrap();
        assert_eq!(*as_string, "x");
        assert_eq!(*s.derived(key, count).unwrap(), 2);
        assert_eq!(builds.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn derived_never_memoises_errors_and_builders_nest() {
        let s = Store::memory(2);
        let key = DerivedKey::new("test.nested");
        // The namespace does not exist yet: the error comes back and is
        // not kept.
        assert!(s.derived(key, || s.doc_count("ns")).is_err());
        s.put("ns", doc(1)).unwrap();
        // A builder that asks for another derived value: the memo's lock
        // is not held across `build`, so this does not deadlock.
        let inner = DerivedKey::new("test.inner");
        let outer = s
            .derived(key, || {
                let n = s.derived(inner, || s.doc_count("ns"))?;
                Ok::<_, StoreError>(*n * 10)
            })
            .unwrap();
        assert_eq!(*outer, 10);
        assert_eq!(
            *s.derived(inner, || Ok::<usize, StoreError>(99)).unwrap(),
            1
        );
    }

    #[test]
    fn derived_keys_digest_their_parameters() {
        let k = DerivedKey::new("fit");
        assert_eq!(k.with(24).with(25), k.with(24).with(25));
        assert_ne!(k.with(24).with(25), k.with(25).with(24));
        assert_ne!(k.with(0.25f64.to_bits()), k.with(0.5f64.to_bits()));
        assert_ne!(k, DerivedKey::new("other"));
    }

    #[test]
    fn telemetry_counts_appends_and_scans() {
        let telemetry = Telemetry::new();
        let s = Store::memory(2).with_telemetry(&telemetry);
        let mut bytes = 0u64;
        for i in 0..10 {
            let d = doc(i);
            bytes += d.encode().len() as u64;
            s.put("ns", d).unwrap();
        }
        assert_eq!(telemetry.counter("store.append.docs").value(), 10);
        assert_eq!(telemetry.counter("store.append.bytes").value(), bytes);
        let docs = s.scan("ns").unwrap();
        assert_eq!(telemetry.counter("store.scan.calls").value(), 1);
        assert_eq!(telemetry.counter("store.scan.docs").value(), docs.len() as u64);
        // The reconciliation identity the integration suite relies on:
        // append.bytes equals the stats() re-encoded byte total.
        let stats_bytes: usize = s.stats().unwrap().iter().map(|n| n.encoded_bytes).sum();
        assert_eq!(stats_bytes as u64, bytes);
    }

    #[test]
    fn partition_scans_report_framed_bytes_on_both_backends() {
        let fs = Arc::new(crate::vfs::MemFs::new());
        let disk = Store::open_with_vfs("/s", 3, fs as Arc<dyn Vfs>).unwrap();
        let mem = Store::memory(3);
        for i in 0..40 {
            for s in [&disk, &mem] {
                s.put("ns", doc(i % 25)).unwrap(); // re-appended keys too
            }
        }
        for p in 0..3 {
            let d = disk.scan_partition("ns", SnapshotId(0), p, |d, v| v.push(d), |d| &d.key);
            let m = mem.scan_partition("ns", SnapshotId(0), p, |d, v| v.push(d), |d| &d.key);
            let (d, m) = (d.unwrap(), m.unwrap());
            assert_eq!(d, m);
            let reencoded: u64 = d.items.iter().map(|x| frame::frame_len(x.encode().len())).sum();
            assert_eq!(d.framed_bytes, reencoded);
            let path = disk.partition_log_path("ns", SnapshotId(0), p).unwrap();
            let (_, vfs) = disk.disk_layout().unwrap();
            assert_eq!(d.framed_bytes, vfs.file_len(&path).unwrap());
        }
    }

    #[test]
    fn bodies_survive_verbatim() {
        let s = Store::memory(2);
        let body = obj! {
            "name" => "Pied Piper",
            "metrics" => obj! {"likes" => 652, "ratio" => 0.25},
            "urls" => crowdnet_json::arr!["https://t.co/x", crowdnet_json::Value::Null],
        };
        s.put("ns", Document::new("c:1", body.clone())).unwrap();
        let got = s.scan("ns").unwrap();
        assert_eq!(got[0].body, body);
    }
}

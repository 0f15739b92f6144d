//! The shard registry: opens, writes, health-tracks and recovers N
//! shards as one logical store.
//!
//! [`ShardSet`] is the write-side and lifecycle half of the subsystem
//! (the read side is [`Router`](crate::Router)). It enforces the two
//! invariants every merge in the router relies on:
//!
//! * **Placement** — every document routes through the
//!   [`Partitioner`], so a key's documents live on exactly one shard,
//!   decided by pure hashing (no directory to keep consistent).
//! * **Snapshot lockstep** — a namespace exists on *all* shards or none,
//!   and all shards always hold the same snapshot ids for it: `put`
//!   creates a missing namespace on every shard before routing the
//!   document, and `new_snapshot` broadcasts the roll. Per-shard scans
//!   at any `SnapshotId` therefore partition the unsharded scan exactly,
//!   which is what makes scatter-gathered `/sql`, `/stats` and artifact
//!   builds byte-identical to the single-store path.
//!
//! Every interaction goes through the [`ShardBackend`] leg methods —
//! never a shard's store directly — so a set assembled from remote
//! backends ([`ShardSet::from_backends`]) behaves identically to one
//! over in-process [`LocalShard`]s.
//!
//! The set also maintains the **logical version**: one bump per logical
//! write (`put`, `new_snapshot`), mirroring what an unsharded
//! [`Store::version`](crowdnet_store::Store::version) would report for
//! the same op sequence. The router stamps its result cache and global
//! artifacts with it.

use crate::backend::{LocalShard, ShardBackend, ShardHealth, WriteOp};
use crate::error::ShardError;
use crate::partitioner::Partitioner;
use crowdnet_store::store::NamespaceStats;
use crowdnet_store::{Document, SnapshotId, Store, Vfs};
use crowdnet_telemetry::{Counter, Telemetry};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// N shards behind one write API, with health tracking and recovery.
pub struct ShardSet {
    shards: Vec<Arc<dyn ShardBackend>>,
    partitioner: Partitioner,
    /// Mirrors an unsharded `Store::version` for the same op sequence.
    version: AtomicU64,
    /// Namespaces known to exist on every shard (snapshot lockstep).
    namespaces: Mutex<BTreeSet<String>>,
    /// Per-shard routed-document counters (`shard.{i}.docs`).
    doc_counters: Vec<Counter>,
    puts: Counter,
    recoveries: Counter,
}

impl ShardSet {
    /// Open `n` in-memory shards, each with `partitions` store partitions.
    pub fn memory(n: usize, partitions: usize, telemetry: &Telemetry) -> Result<ShardSet, ShardError> {
        let shards = (0..n.max(1))
            .map(|i| {
                LocalShard::open_memory(i, partitions, telemetry)
                    .map(|s| Arc::new(s) as Arc<dyn ShardBackend>)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardSet::from_backends(shards, telemetry))
    }

    /// Open `n` durable shards under `root` (one `shard-{i}` subdirectory
    /// each), all on the same [`Vfs`] so fault injection reaches every
    /// shard file. Existing shard directories recover on open.
    pub fn open_durable(
        root: &Path,
        n: usize,
        partitions: usize,
        vfs: Arc<dyn Vfs>,
        telemetry: &Telemetry,
    ) -> Result<ShardSet, ShardError> {
        let shards = (0..n.max(1))
            .map(|i| {
                LocalShard::open_with_vfs(
                    i,
                    &root.join(format!("shard-{i}")),
                    partitions,
                    Arc::clone(&vfs),
                    telemetry,
                )
                .map(|s| Arc::new(s) as Arc<dyn ShardBackend>)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardSet::from_backends(shards, telemetry))
    }

    /// Assemble a set from already-opened backends (the registry seam the
    /// remote backend plugs into). Namespaces present on disk are
    /// re-learned lazily; logical version restarts at 0, like a
    /// freshly-opened store's.
    pub fn from_backends(shards: Vec<Arc<dyn ShardBackend>>, telemetry: &Telemetry) -> ShardSet {
        telemetry.counter("shard.set.opened").add(shards.len() as u64);
        let doc_counters = (0..shards.len())
            .map(|i| telemetry.counter(&format!("shard.{i}.docs")))
            .collect();
        ShardSet {
            partitioner: Partitioner::new(shards.len()),
            shards,
            version: AtomicU64::new(0),
            namespaces: Mutex::new(BTreeSet::new()),
            doc_counters,
            puts: telemetry.counter("shard.set.puts"),
            recoveries: telemetry.counter("shard.set.recoveries"),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True for an empty set (never constructed in practice; `memory` and
    /// `open_durable` clamp to at least one shard).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[Arc<dyn ShardBackend>] {
        &self.shards
    }

    /// The shard at `index`.
    pub fn shard(&self, index: usize) -> Option<&Arc<dyn ShardBackend>> {
        self.shards.get(index)
    }

    /// The placement function.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Logical content version: what an unsharded store's version would be
    /// after the same sequence of `put`/`new_snapshot` calls.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Route one document to its owning shard's latest snapshot.
    pub fn put(&self, ns: &str, doc: Document) -> Result<(), ShardError> {
        self.ensure_namespace(ns)?;
        let idx = self.partitioner.shard_of(ns, &doc.key);
        let shard = self
            .shards
            .get(idx)
            .ok_or(ShardError::NoSuchShard(idx))?;
        shard.submit(&WriteOp::Put {
            ns: ns.to_string(),
            doc,
        })?;
        if let Some(c) = self.doc_counters.get(idx) {
            c.inc();
        }
        self.puts.inc();
        self.version.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Roll a new snapshot on every shard (lockstep: all shards return the
    /// same id). On a namespace no shard has seen, this creates it with
    /// snapshot 0 everywhere — the same semantics as the unsharded store.
    pub fn new_snapshot(&self, ns: &str) -> Result<SnapshotId, ShardError> {
        let mut latest = SnapshotId(0);
        let op = WriteOp::NewSnapshot { ns: ns.to_string() };
        for shard in &self.shards {
            latest = SnapshotId(shard.submit(&op)?.snapshot);
        }
        self.namespaces.lock().insert(ns.to_string());
        self.version.fetch_add(1, Ordering::AcqRel);
        Ok(latest)
    }

    /// Create `ns` (at snapshot 0) on every shard that lacks it, keeping
    /// snapshot ids in lockstep. Not a logical write: mirrors the
    /// unsharded store creating a namespace implicitly on first put.
    fn ensure_namespace(&self, ns: &str) -> Result<(), ShardError> {
        let mut seen = self.namespaces.lock();
        if seen.contains(ns) {
            return Ok(());
        }
        let op = WriteOp::EnsureNamespace { ns: ns.to_string() };
        for shard in &self.shards {
            shard.submit(&op)?;
        }
        seen.insert(ns.to_string());
        Ok(())
    }

    /// Copy every namespace, snapshot and document of `src` into the set,
    /// routing documents through the partitioner and keeping snapshot ids
    /// aligned. Documents arrive in canonical scan order, which preserves
    /// same-key append order (the store's scans are stable).
    pub fn import_store(&self, src: &Store) -> Result<(), ShardError> {
        for ns in src.namespaces()? {
            self.ensure_namespace(&ns)?;
            let latest = src.latest_snapshot(&ns)?;
            for snap in 0..=latest.0 {
                if snap > 0 {
                    self.new_snapshot(&ns)?;
                }
                for doc in src.scan_snapshot(&ns, SnapshotId(snap))? {
                    self.put(&ns, doc)?;
                }
            }
        }
        Ok(())
    }

    /// Mark a shard down (the kill switch recovery tests and the bench's
    /// degradation section flip).
    pub fn kill(&self, index: usize) -> Result<(), ShardError> {
        let shard = self
            .shards
            .get(index)
            .ok_or(ShardError::NoSuchShard(index))?;
        shard.set_health(ShardHealth::Down);
        Ok(())
    }

    /// Recover every unhealthy shard: store recovery, ingest catch-up,
    /// fresh epoch, healthy again. Healthy shards are untouched.
    pub fn recover(&self) -> Result<(), ShardError> {
        for shard in &self.shards {
            if shard.health() != ShardHealth::Healthy {
                shard.recover()?;
                self.recoveries.inc();
            }
        }
        Ok(())
    }

    /// True when any shard is not serving normally.
    pub fn any_unhealthy(&self) -> bool {
        self.shards
            .iter()
            .any(|s| s.health() != ShardHealth::Healthy)
    }
}

/// Associative merge of per-shard namespace stats: document and byte
/// counts sum; snapshot counts agree under lockstep (merged as max so a
/// recovering shard cannot drag the count down). With every shard
/// included this is byte-identical to the unsharded `Store::stats`.
pub fn merge_stats(per_shard: impl IntoIterator<Item = Vec<NamespaceStats>>) -> Vec<NamespaceStats> {
    let mut merged: BTreeMap<String, NamespaceStats> = BTreeMap::new();
    for stats in per_shard {
        for ns in stats {
            match merged.get_mut(&ns.namespace) {
                Some(m) => {
                    m.documents += ns.documents;
                    m.encoded_bytes += ns.encoded_bytes;
                    m.snapshots = m.snapshots.max(ns.snapshots);
                }
                None => {
                    merged.insert(ns.namespace.clone(), ns);
                }
            }
        }
    }
    merged.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_json::{obj, Value};

    const NS: &str = "angellist/users";

    fn doc(id: u32) -> Document {
        Document::new(
            format!("user:{id}"),
            obj! {"id" => u64::from(id), "role" => "investor"},
        )
    }

    /// Everything a shard holds for `ns` at `snap`, via the scan leg.
    fn shard_docs(shard: &Arc<dyn ShardBackend>, ns: &str, snap: u32) -> Vec<Document> {
        shard
            .scan_partitions(ns, SnapshotId(snap))
            .unwrap()
            .into_iter()
            .flatten()
            .collect()
    }

    /// Snapshot count of `ns` on a shard, via the stats leg.
    fn shard_snapshots(shard: &Arc<dyn ShardBackend>, ns: &str) -> usize {
        shard
            .shard_stats()
            .unwrap()
            .into_iter()
            .find(|s| s.namespace == ns)
            .map(|s| s.snapshots)
            .unwrap_or(0)
    }

    #[test]
    fn puts_route_by_partitioner_and_bump_logical_version() {
        let t = Telemetry::new();
        let set = ShardSet::memory(4, 2, &t).unwrap();
        for id in 0..40u32 {
            set.put(NS, doc(id)).unwrap();
        }
        assert_eq!(set.version(), 40);
        let mut total = 0;
        for (i, shard) in set.shards().iter().enumerate() {
            let docs = shard_docs(shard, NS, 0);
            for d in &docs {
                assert_eq!(
                    set.partitioner().shard_of(NS, &d.key),
                    i,
                    "doc {} on wrong shard",
                    d.key
                );
            }
            total += docs.len();
        }
        assert_eq!(total, 40);
        assert_eq!(t.counter("shard.set.puts").value(), 40);
        assert_eq!(t.counter("shard.set.opened").value(), 4);
    }

    #[test]
    fn namespaces_and_snapshots_stay_in_lockstep() {
        let t = Telemetry::new();
        let set = ShardSet::memory(3, 2, &t).unwrap();
        set.put(NS, doc(1)).unwrap();
        // Every shard has the namespace at snapshot 0, docs or not.
        for shard in set.shards() {
            assert_eq!(shard_snapshots(shard, NS), 1);
        }
        assert_eq!(set.new_snapshot(NS).unwrap(), SnapshotId(1));
        for shard in set.shards() {
            assert_eq!(shard_snapshots(shard, NS), 2);
        }
        // A roll on a brand-new namespace creates it everywhere at 0,
        // exactly like the unsharded store.
        assert_eq!(set.new_snapshot("journal/daily").unwrap(), SnapshotId(0));
        for shard in set.shards() {
            assert_eq!(shard_snapshots(shard, "journal/daily"), 1);
        }
        assert_eq!(set.version(), 3); // put + 2 rolls
    }

    #[test]
    fn merged_stats_match_an_unsharded_store() {
        let t = Telemetry::new();
        let set = ShardSet::memory(4, 2, &t).unwrap();
        let reference = Store::memory(2);
        for id in 0..25u32 {
            set.put(NS, doc(id)).unwrap();
            reference.put(NS, doc(id)).unwrap();
        }
        set.new_snapshot(NS).unwrap();
        reference.new_snapshot(NS).unwrap();
        for id in 100..110u32 {
            set.put(NS, doc(id)).unwrap();
            reference.put(NS, doc(id)).unwrap();
        }
        let merged = merge_stats(set.shards().iter().map(|s| s.shard_stats().unwrap()));
        let direct = reference.stats().unwrap();
        assert_eq!(merged.len(), direct.len());
        for (m, d) in merged.iter().zip(&direct) {
            assert_eq!(m.namespace, d.namespace);
            assert_eq!(m.documents, d.documents);
            assert_eq!(m.encoded_bytes, d.encoded_bytes);
            assert_eq!(m.snapshots, d.snapshots);
        }
        assert_eq!(set.version(), reference.version());
    }

    #[test]
    fn import_reproduces_namespaces_snapshots_and_documents() {
        let t = Telemetry::new();
        let src = Store::memory(4);
        for id in 0..12u32 {
            src.put(NS, doc(id)).unwrap();
        }
        src.new_snapshot(NS).unwrap();
        for id in 50..55u32 {
            src.put(NS, doc(id)).unwrap();
        }
        src.put("journal/daily", Document::new("day:1", obj! {"n" => 1u64}))
            .unwrap();

        let set = ShardSet::memory(2, 4, &t).unwrap();
        set.import_store(&src).unwrap();
        for ns in src.namespaces().unwrap() {
            assert_eq!(
                src.latest_snapshot(&ns).unwrap().0 as usize + 1,
                set.shards()
                    .iter()
                    .map(|s| shard_snapshots(s, &ns))
                    .max()
                    .unwrap()
            );
            for snap in 0..=src.latest_snapshot(&ns).unwrap().0 {
                let mut gathered: Vec<Document> = Vec::new();
                for shard in set.shards() {
                    gathered.extend(shard_docs(shard, &ns, snap));
                }
                gathered.sort_by(|a, b| a.key.cmp(&b.key));
                let mut source = src.scan_snapshot(&ns, SnapshotId(snap)).unwrap();
                source.sort_by(|a, b| a.key.cmp(&b.key));
                assert_eq!(gathered.len(), source.len());
                for (g, s) in gathered.iter().zip(&source) {
                    assert_eq!(g.key, s.key);
                    assert_eq!(g.body, s.body);
                }
            }
        }
    }

    #[test]
    fn kill_and_recover_round_trip() {
        let t = Telemetry::new();
        let set = ShardSet::memory(3, 2, &t).unwrap();
        set.put(NS, doc(1)).unwrap();
        assert!(!set.any_unhealthy());
        set.kill(1).unwrap();
        assert!(set.any_unhealthy());
        assert!(set.kill(99).is_err());
        set.recover().unwrap();
        assert!(!set.any_unhealthy());
        assert_eq!(t.counter("shard.set.recoveries").value(), 1);
    }
}

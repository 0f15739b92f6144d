//! The columnar catalog: a set of sealed [`ColumnRun`]s per
//! `(namespace, snapshot, partition)`, maintained incrementally and
//! published to readers as an immutable snapshot.
//!
//! Two types split the write and read sides:
//!
//! * [`ColumnSet`] is the **maintainer** — owned by whoever tracks the
//!   JSON store (the pipeline bootstrap, the ingest engine's changefeed
//!   loop, the `repro column --rebuild` command). It absorbs full scans,
//!   applies changefeed events into per-partition pending buffers, and
//!   seals those buffers into new runs at epoch boundaries.
//! * [`ColumnCatalog`] is the **reader snapshot** — cheap to clone
//!   (`Arc`-shared runs), immutable, published with the same atomic swap
//!   as the serving tier's artifacts. All query paths (document decode,
//!   typed field scans, edge extraction) live here and are panic-free.
//!
//! Reads k-way-merge a partition's runs by `(key, run index)`. Runs are
//! sealed in append order, so that merge reproduces exactly the stable
//! per-partition key sort the JSON scan path performs — decoded output is
//! document-for-document identical to
//! [`crowdnet_store::Store::scan_partitions`].

use crate::error::ColumnError;
use crate::run::{ColumnRun, Cursor, FieldReader};
use crowdnet_json::{Object, Value};
use crowdnet_store::pool::{run_tasks, ExecCtx};
use crowdnet_store::{
    frame, partition_of, ChangeEvent, ChangePayload, Document, PartitionScan, SnapshotId, Store,
    StoreError,
};
use crowdnet_telemetry::{Counter, Gauge, Telemetry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The namespace whose documents carry the bipartite investor→company
/// edges (the paper's AngelList user crawl).
pub const EDGE_NAMESPACE: &str = "angellist/users";

/// Column maintenance knobs.
#[derive(Debug, Clone)]
pub struct ColumnConfig {
    /// Namespace for which edge segments are built at seal time.
    pub edge_namespace: String,
}

impl Default for ColumnConfig {
    fn default() -> ColumnConfig {
        ColumnConfig { edge_namespace: EDGE_NAMESPACE.to_string() }
    }
}

/// Cached `column.*` counter handles.
#[derive(Clone)]
pub(crate) struct ColumnMetrics {
    builds: Counter,
    rebuilds: Counter,
    appends: Counter,
    bytes: Counter,
    scan_docs: Counter,
    dict_entries: Gauge,
}

impl ColumnMetrics {
    pub(crate) fn new(telemetry: &Telemetry) -> ColumnMetrics {
        ColumnMetrics {
            builds: telemetry.counter("column.builds"),
            rebuilds: telemetry.counter("column.rebuilds"),
            appends: telemetry.counter("column.appends"),
            bytes: telemetry.counter("column.bytes"),
            scan_docs: telemetry.counter("column.scan.docs"),
            dict_entries: telemetry.gauge("column.dict.entries"),
        }
    }
}

/// Mutable per-snapshot state: sealed runs per partition plus the pending
/// (not yet sealed) appends the changefeed has delivered.
struct SnapState {
    /// `[partition][run]`, in seal order.
    runs: Vec<Vec<Arc<ColumnRun>>>,
    /// Per-partition appends awaiting the next seal.
    pending: Vec<Vec<Document>>,
    /// Framed bytes of the source JSON log per partition that the
    /// projection reflects — the bytes the store's frame walk accepted
    /// ([`PartitionScan::framed_bytes`]), grown by each applied append.
    /// It is the staleness token persisted in the column manifest: the log
    /// is append-only, so equality of lengths implies equality of content.
    source_len: Vec<u64>,
}

impl SnapState {
    fn new(partitions: usize) -> SnapState {
        SnapState {
            runs: (0..partitions).map(|_| Vec::new()).collect(),
            pending: (0..partitions).map(|_| Vec::new()).collect(),
            source_len: vec![0; partitions],
        }
    }
}

/// One partition's bootstrap: its sealed run (none for an empty
/// partition) and the framed log bytes the scan accepted.
type Bootstrap = (Option<ColumnRun>, u64);

/// The bootstrap run of one canonically ordered partition scan.
fn bootstrap_run(docs: &[Document], build_edges: bool) -> Option<ColumnRun> {
    (!docs.is_empty()).then(|| ColumnRun::from_docs(docs, build_edges))
}

/// The maintainer side of the column projection (see module docs).
pub struct ColumnSet {
    config: ColumnConfig,
    partitions: usize,
    /// Store version the sealed state reflects (stamped onto catalogs).
    version: u64,
    namespaces: BTreeMap<String, BTreeMap<u32, SnapState>>,
    metrics: Option<ColumnMetrics>,
}

impl std::fmt::Debug for ColumnSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnSet")
            .field("partitions", &self.partitions)
            .field("version", &self.version)
            .field("namespaces", &self.namespaces.len())
            .field("pending_docs", &self.pending_docs())
            .finish()
    }
}

impl ColumnSet {
    /// Empty set for a store with `partitions` partitions per snapshot.
    pub fn new(partitions: usize, config: ColumnConfig) -> ColumnSet {
        ColumnSet {
            config,
            partitions: partitions.max(1),
            version: 0,
            namespaces: BTreeMap::new(),
            metrics: None,
        }
    }

    /// Record `column.*` counters for every subsequent build, append and
    /// seal.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> ColumnSet {
        self.metrics = Some(ColumnMetrics::new(telemetry));
        self
    }

    /// Bootstrap a full projection of `store`: one run per non-empty
    /// partition of every `(namespace, snapshot)`.
    pub fn build_from_store(
        store: &Store,
        config: ColumnConfig,
        telemetry: Option<&Telemetry>,
    ) -> Result<ColumnSet, ColumnError> {
        let mut set = ColumnSet::new(store.partitions(), config);
        if let Some(t) = telemetry {
            set = set.with_telemetry(t);
        }
        set.absorb_store(store)?;
        if let Some(m) = &set.metrics {
            m.builds.inc();
        }
        Ok(set)
    }

    /// Re-project the whole store into this set, discarding current state
    /// (the recovery path: corrupt/stale/missing columns are never
    /// repaired, always rebuilt from the JSON log).
    pub fn rebuild_from_store(&mut self, store: &Store) -> Result<(), ColumnError> {
        self.begin_rebuild();
        self.absorb_store(store)
    }

    /// Discard all projected state (keeping config, partition count and
    /// metrics) and count a rebuild. The shared-scan form of
    /// [`ColumnSet::rebuild_from_store`]: a caller that already scans the
    /// store for other consumers feeds the same scans through
    /// [`ColumnSet::absorb_scan`] and stamps [`ColumnSet::set_version`]
    /// itself instead of scanning twice.
    pub fn begin_rebuild(&mut self) {
        self.namespaces.clear();
        if let Some(m) = &self.metrics {
            m.rebuilds.inc();
        }
    }

    /// Scan every namespace/snapshot of `store` into sealed runs, on every
    /// core. The version is read *before* scanning, so a racing write
    /// leaves the set stamped older than the store and consumers rebuild
    /// rather than trusting possibly-stale columns.
    fn absorb_store(&mut self, store: &Store) -> Result<(), ColumnError> {
        self.absorb_store_in(store, ExecCtx::auto())
    }

    /// [`ColumnSet::absorb_store`] on `ctx`: one pool task per
    /// `(namespace, snapshot, partition)` scans that partition and seals
    /// its run, and the results are installed in task order — so the runs,
    /// the source lengths and the telemetry are the same at any thread
    /// count. On failure it returns the first failing task's error in
    /// that order, as a serial scan would.
    fn absorb_store_in(&mut self, store: &Store, ctx: ExecCtx) -> Result<(), ColumnError> {
        let version = store.version();
        let mut snaps: Vec<(String, SnapshotId)> = Vec::new();
        for ns in store.namespaces()? {
            for snap in store.snapshots(&ns) {
                snaps.push((ns.clone(), snap));
            }
        }
        let parts = store.partitions();
        let tasks: Vec<(&str, SnapshotId, usize)> = snaps
            .iter()
            .flat_map(|(ns, snap)| (0..parts).map(move |p| (ns.as_str(), *snap, p)))
            .collect();
        let edge_ns = self.config.edge_namespace.as_str();
        let built = run_tasks(ctx, tasks, |_, (ns, snap, p)| {
            let scan =
                store.scan_partition(ns, snap, p, |doc, docs| docs.push(doc), |doc| &doc.key)?;
            let run = bootstrap_run(&scan.items, ns == edge_ns);
            Ok::<_, StoreError>(((run, scan.framed_bytes), scan.docs))
        });
        let mut built = built.into_iter();
        for (ns, snap) in &snaps {
            let mut docs = 0;
            let mut sealed = Vec::with_capacity(parts);
            for result in built.by_ref().take(parts) {
                let (bootstrap, decoded) = result?;
                docs += decoded;
                sealed.push(bootstrap);
            }
            store.record_scan(docs);
            self.install_bootstrap(ns, *snap, sealed);
        }
        self.version = version;
        self.publish_gauges();
        Ok(())
    }

    /// Seal one full scan of `(ns, snap)` as this snapshot's bootstrap
    /// runs, replacing any previous state for it. `parts` must be the
    /// untouched output of [`Store::scan_partitions_framed`] —
    /// per-partition canonical key order is asserted in debug builds, not
    /// re-sorted here: the scan boundary is the one place documents get
    /// ordered.
    pub fn absorb_scan(&mut self, ns: &str, snap: SnapshotId, parts: Vec<PartitionScan<Document>>) {
        debug_assert!(
            parts
                .iter()
                .all(|part| part.items.windows(2).all(|w| w[0].key <= w[1].key)),
            "absorb_scan: partition not in canonical key order"
        );
        let build_edges = ns == self.config.edge_namespace;
        let sealed = parts
            .into_iter()
            .map(|part| (bootstrap_run(&part.items, build_edges), part.framed_bytes))
            .collect();
        self.install_bootstrap(ns, snap, sealed);
    }

    /// Install per-partition bootstraps, in partition order, as the whole
    /// state of `(ns, snap)`.
    fn install_bootstrap(&mut self, ns: &str, snap: SnapshotId, parts: Vec<Bootstrap>) {
        let mut state = SnapState::new(self.partitions);
        for (p, (run, len)) in parts.into_iter().enumerate().take(self.partitions) {
            if let Some(slot) = state.source_len.get_mut(p) {
                *slot = len;
            }
            let Some(run) = run else { continue };
            if let Some(m) = &self.metrics {
                m.bytes.add(run.encoded_len() as u64);
            }
            if let Some(runs) = state.runs.get_mut(p) {
                runs.push(Arc::new(run));
            }
        }
        self.namespaces.entry(ns.to_string()).or_default().insert(snap.0, state);
    }

    /// Apply one changefeed event to the pending buffers. Appends are
    /// routed to the partition their key hashes to — mirroring the
    /// store's own placement — and sealed into a run at the next
    /// [`ColumnSet::seal`].
    pub fn apply_event(&mut self, ev: &ChangeEvent) {
        let partitions = self.partitions;
        let state = self
            .namespaces
            .entry(ev.namespace.clone())
            .or_default()
            .entry(ev.snapshot.0)
            .or_insert_with(|| SnapState::new(partitions));
        match &ev.payload {
            ChangePayload::Append(doc) => {
                let p = partition_of(&doc.key, partitions);
                if let Some(len) = state.source_len.get_mut(p) {
                    *len += frame::frame_len(ev.encoded_len as usize);
                }
                if let Some(pending) = state.pending.get_mut(p) {
                    pending.push(doc.clone());
                }
                if let Some(m) = &self.metrics {
                    m.appends.inc();
                }
            }
            ChangePayload::NewSnapshot => {}
        }
        self.version = self.version.max(ev.version);
    }

    /// Seal all pending buffers into runs and publish an immutable
    /// [`ColumnCatalog`] of the result. Pending docs are stable-sorted by
    /// key (preserving arrival order for duplicate keys), so the sealed
    /// run joins the read-time merge in canonical order.
    pub fn seal(&mut self) -> Arc<ColumnCatalog> {
        for (ns, snaps) in self.namespaces.iter_mut() {
            let build_edges = *ns == self.config.edge_namespace;
            for state in snaps.values_mut() {
                for (p, pending) in state.pending.iter_mut().enumerate() {
                    if pending.is_empty() {
                        continue;
                    }
                    let mut docs = std::mem::take(pending);
                    docs.sort_by(|a, b| a.key.cmp(&b.key));
                    let run = Arc::new(ColumnRun::from_docs(&docs, build_edges));
                    if let Some(m) = &self.metrics {
                        m.bytes.add(run.encoded_len() as u64);
                    }
                    if let Some(runs) = state.runs.get_mut(p) {
                        runs.push(run);
                    }
                }
            }
        }
        self.publish_gauges();
        Arc::new(self.snapshot_catalog())
    }

    /// Immutable reader snapshot of the sealed state (pending buffers are
    /// not visible — call [`ColumnSet::seal`] to include them).
    pub fn catalog(&self) -> Arc<ColumnCatalog> {
        Arc::new(self.snapshot_catalog())
    }

    fn snapshot_catalog(&self) -> ColumnCatalog {
        let namespaces = self
            .namespaces
            .iter()
            .map(|(ns, snaps)| {
                let snaps = snaps
                    .iter()
                    .map(|(id, state)| (*id, state.runs.clone()))
                    .collect();
                (ns.clone(), snaps)
            })
            .collect();
        ColumnCatalog {
            version: self.version,
            partitions: self.partitions,
            namespaces,
            scan_docs: self.metrics.as_ref().map(|m| m.scan_docs.clone()),
        }
    }

    fn publish_gauges(&self) {
        if let Some(m) = &self.metrics {
            let entries: usize = self
                .namespaces
                .values()
                .flat_map(|snaps| snaps.values())
                .flat_map(|s| s.runs.iter().flatten())
                .map(|r| r.dict_entries())
                .sum();
            m.dict_entries.set(entries as u64);
        }
    }

    /// Stamp the store version the sealed state reflects (the ingest
    /// engine calls this when it knows the exact epoch version).
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Store version the sealed state reflects.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Partitions per snapshot.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Maintenance configuration.
    pub fn config(&self) -> &ColumnConfig {
        &self.config
    }

    /// Pending (unsealed) document count across all buffers.
    pub fn pending_docs(&self) -> usize {
        self.namespaces
            .values()
            .flat_map(|snaps| snaps.values())
            .flat_map(|s| s.pending.iter())
            .map(Vec::len)
            .sum()
    }

    /// Recorded framed byte lengths of the source JSON logs for one
    /// snapshot, per partition (the staleness tokens the disk layer
    /// persists).
    pub(crate) fn source_lens(&self, ns: &str, snap: u32) -> Option<&[u64]> {
        self.namespaces.get(ns)?.get(&snap).map(|s| s.source_len.as_slice())
    }

    /// Iterate `(namespace, snapshot, runs-per-partition)` in name order.
    pub(crate) fn iter_states(
        &self,
    ) -> impl Iterator<Item = (&str, u32, &Vec<Vec<Arc<ColumnRun>>>)> {
        self.namespaces.iter().flat_map(|(ns, snaps)| {
            snaps.iter().map(move |(id, state)| (ns.as_str(), *id, &state.runs))
        })
    }

    /// Install fully-decoded sealed state (the disk layer's load path).
    pub(crate) fn install_loaded(
        &mut self,
        ns: &str,
        snap: u32,
        runs: Vec<Vec<Arc<ColumnRun>>>,
        source_len: Vec<u64>,
    ) {
        let partitions = self.partitions;
        let state = self
            .namespaces
            .entry(ns.to_string())
            .or_default()
            .entry(snap)
            .or_insert_with(|| SnapState::new(partitions));
        state.runs = runs;
        state.source_len = source_len;
        state.pending = (0..partitions).map(|_| Vec::new()).collect();
    }
}

/// Aggregate size figures for diagnostics and the bench report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnStats {
    /// Namespaces with at least one run.
    pub namespaces: usize,
    /// Sealed runs across all partitions.
    pub runs: usize,
    /// Total rows (documents) across all runs.
    pub rows: usize,
    /// Total wire-encoded run bytes.
    pub encoded_bytes: usize,
    /// Total interned dictionary entries.
    pub dict_entries: usize,
}

/// The immutable reader side of the column projection (see module docs).
/// All methods are panic-free: corrupt state surfaces as
/// [`ColumnError`], never as an unwind, because these paths are reachable
/// from the serving tier's request handlers.
pub struct ColumnCatalog {
    version: u64,
    partitions: usize,
    namespaces: BTreeMap<String, BTreeMap<u32, Vec<Vec<Arc<ColumnRun>>>>>,
    scan_docs: Option<Counter>,
}

impl std::fmt::Debug for ColumnCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnCatalog")
            .field("version", &self.version)
            .field("partitions", &self.partitions)
            .field("namespaces", &self.namespaces.len())
            .finish()
    }
}

impl ColumnCatalog {
    /// Store version this catalog reflects.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Partitions per snapshot.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Namespaces present, sorted.
    pub fn namespaces(&self) -> Vec<&str> {
        self.namespaces.keys().map(String::as_str).collect()
    }

    /// Snapshots present for `ns`, sorted.
    pub fn snapshots(&self, ns: &str) -> Vec<SnapshotId> {
        self.namespaces
            .get(ns)
            .map(|snaps| snaps.keys().map(|&id| SnapshotId(id)).collect())
            .unwrap_or_default()
    }

    /// The sealed runs of one snapshot, `[partition][run]` in seal order:
    /// what [`ColumnCatalog::docs_partitioned`] merges, for callers that
    /// move the runs themselves instead of decoding them (a shard's bulk
    /// scan leg ships each partition as [`crate::disk::encode_partition`]
    /// and the far side feeds [`merge_runs`]).
    pub fn partition_runs(
        &self,
        ns: &str,
        snap: SnapshotId,
    ) -> Result<&[Vec<Arc<ColumnRun>>], ColumnError> {
        self.namespaces
            .get(ns)
            .ok_or_else(|| ColumnError::Missing(format!("namespace {ns:?} not projected")))?
            .get(&snap.0)
            .map(Vec::as_slice)
            .ok_or_else(|| {
                ColumnError::Missing(format!("snapshot {} of {ns:?} not projected", snap.0))
            })
    }

    /// [`ColumnCatalog::partition_runs`] for a serving tier's scan source:
    /// absence fails with the store's own variants, exactly as
    /// [`Store::scan_partitions`] would — the endpoint table's 404 and the
    /// router's lockstep rule both read a missing namespace off
    /// `NamespaceNotFound`.
    pub fn scan_runs(
        &self,
        ns: &str,
        snap: SnapshotId,
    ) -> Result<&[Vec<Arc<ColumnRun>>], StoreError> {
        self.partition_runs(ns, snap).map_err(|_| {
            if self.snapshots(ns).is_empty() {
                StoreError::NamespaceNotFound(ns.to_string())
            } else {
                StoreError::SnapshotNotFound {
                    namespace: ns.to_string(),
                    snapshot: snap.0,
                }
            }
        })
    }

    /// True when `(ns, snap)` is present in the projection.
    pub fn has(&self, ns: &str, snap: SnapshotId) -> bool {
        self.partition_runs(ns, snap).is_ok()
    }

    /// Decode one snapshot preserving partition boundaries — the columnar
    /// twin of [`Store::scan_partitions`], with identical output: same
    /// documents, same canonical per-partition order.
    pub fn docs_partitioned(
        &self,
        ns: &str,
        snap: SnapshotId,
    ) -> Result<Vec<Vec<Document>>, ColumnError> {
        let parts = self.partition_runs(ns, snap)?;
        let mut out = Vec::with_capacity(self.partitions);
        for runs in parts {
            out.push(merge_runs(runs)?);
        }
        if let Some(c) = &self.scan_docs {
            c.add(out.iter().map(Vec::len).sum::<usize>() as u64);
        }
        Ok(out)
    }

    /// Decode one snapshot into a single globally key-sorted vector — the
    /// columnar twin of [`Store::scan_snapshot_sorted`].
    pub fn docs_sorted(&self, ns: &str, snap: SnapshotId) -> Result<Vec<Document>, ColumnError> {
        Ok(crowdnet_store::merge_sorted_partitions(self.docs_partitioned(ns, snap)?))
    }

    /// Total rows in one snapshot.
    pub fn rows(&self, ns: &str, snap: SnapshotId) -> Result<usize, ColumnError> {
        Ok(self
            .partition_runs(ns, snap)?
            .iter()
            .flatten()
            .map(|r| r.rows())
            .sum())
    }

    /// The bipartite investor→company edge list in canonical document
    /// order (partition-major, key-sorted within each partition) — read
    /// straight off the sealed edge segments, no JSON decode. Exactly the
    /// pairs the serving tier's document-path extraction produces.
    pub fn edges(&self, ns: &str, snap: SnapshotId) -> Result<Vec<(u32, u32)>, ColumnError> {
        let parts = self.partition_runs(ns, snap)?;
        let mut out = Vec::new();
        for runs in parts {
            merge_partition_edges(runs, &mut out)?;
        }
        Ok(out)
    }

    /// Typed scan of one snapshot: for every document in canonical order
    /// (partition-major), decode only the requested top-level `fields` and
    /// hand `(key, values)` to `f` — `values[i]` is `Some` iff the row's
    /// shape carries `fields[i]`. This is the zero-JSON-parse path the
    /// feature extractors and the bench use.
    pub fn scan_fields<F>(
        &self,
        ns: &str,
        snap: SnapshotId,
        fields: &[&str],
        mut f: F,
    ) -> Result<(), ColumnError>
    where
        F: FnMut(&str, &[Option<Value>]),
    {
        let parts = self.partition_runs(ns, snap)?;
        let mut rows = 0u64;
        for runs in parts {
            rows += merge_partition_fields(runs, fields, &mut |key, vals| f(key, vals))?;
        }
        if let Some(c) = &self.scan_docs {
            c.add(rows);
        }
        Ok(())
    }

    /// Size figures for one projected snapshot — the per-namespace twin of
    /// [`ColumnCatalog::stats`], used by the compression bench to compare
    /// encoded column bytes against the namespace's serialized JSON.
    pub fn snapshot_stats(&self, ns: &str, snap: SnapshotId) -> Result<ColumnStats, ColumnError> {
        let mut stats = ColumnStats { namespaces: 1, ..Default::default() };
        for run in self.partition_runs(ns, snap)?.iter().flatten() {
            stats.runs += 1;
            stats.rows += run.rows();
            stats.encoded_bytes += run.encoded_len();
            stats.dict_entries += run.dict_entries();
        }
        Ok(stats)
    }

    /// Aggregate size figures.
    pub fn stats(&self) -> ColumnStats {
        let mut stats = ColumnStats { namespaces: self.namespaces.len(), ..Default::default() };
        for runs in self.namespaces.values().flat_map(|s| s.values()).flatten() {
            for run in runs {
                stats.runs += 1;
                stats.rows += run.rows();
                stats.encoded_bytes += run.encoded_len();
                stats.dict_entries += run.dict_entries();
            }
        }
        stats
    }
}

/// Pick the next run in the `(key, run index)` merge, or `None` when all
/// runs are exhausted. `rows[i]` is run `i`'s next undecoded row.
fn merge_pick(runs: &[Arc<ColumnRun>], rows: &[usize]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for i in 0..runs.len() {
        let key = match runs.get(i).and_then(|r| r.keys().get(*rows.get(i)?)) {
            Some(k) => k,
            None => continue,
        };
        match best {
            None => best = Some(i),
            Some(b) => {
                let best_key = runs.get(b).and_then(|r| r.keys().get(*rows.get(b)?));
                // Strict `<` keeps duplicate keys on the earliest run —
                // append order, exactly what the stable scan sort yields.
                if best_key.is_some_and(|bk| key < bk) {
                    best = Some(i);
                }
            }
        }
    }
    best
}

/// One partition's documents from its runs: the `(key, run index)` k-way
/// merge (see module docs), so the output is the partition's canonical
/// scan order with append order kept among equal keys.
pub fn merge_runs(runs: &[Arc<ColumnRun>]) -> Result<Vec<Document>, ColumnError> {
    let mut rows: Vec<usize> = vec![0; runs.len()];
    let mut cursors: Vec<(Vec<Cursor>, Cursor)> = runs.iter().map(|r| r.cursors()).collect();
    let total: usize = runs.iter().map(|r| r.rows()).sum();
    let mut out = Vec::with_capacity(total);
    while let Some(b) = merge_pick(runs, &rows) {
        let run = runs.get(b).ok_or_else(|| merge_bug())?;
        let row = *rows.get(b).ok_or_else(|| merge_bug())?;
        let (field_curs, scalar_cur) = cursors.get_mut(b).ok_or_else(|| merge_bug())?;
        out.push(run.decode_row(row, field_curs, scalar_cur)?);
        if let Some(r) = rows.get_mut(b) {
            *r += 1;
        }
    }
    Ok(out)
}

/// The projected scan: `parts` is `[partition][run]`, and the result is
/// `[partition][row]` in each partition's `(key, run index)` merge order —
/// the order of [`merge_runs`], hence of [`Store::scan_partitions`] — where
/// a row is an object holding only those of the top-level `fields` the
/// document carries (`Null` when it carries none, or is not an object).
/// Any `doc.path(..)` whose first segment is in `fields` reads the same
/// from a row as from the whole document, so a query evaluated over the
/// rows answers exactly what it would over the documents, with one field
/// decoded per reference instead of one document parsed per row. A
/// partition's runs may come from several catalogs (shards), concatenated
/// in a fixed order, as long as no key spans two of them.
pub fn project_runs(
    parts: &[Vec<Arc<ColumnRun>>],
    fields: &[&str],
) -> Result<Vec<Vec<Value>>, ColumnError> {
    parts
        .iter()
        .map(|runs| {
            let mut rows = Vec::with_capacity(runs.iter().map(|r| r.rows()).sum());
            merge_partition_fields(runs, fields, &mut |_key, values| {
                let present = values.iter().filter(|v| v.is_some()).count();
                if present == 0 {
                    rows.push(Value::Null);
                    return;
                }
                let mut row = Object::with_capacity(present);
                for (name, value) in fields.iter().zip(values.iter_mut()) {
                    if let Some(v) = value.take() {
                        row.insert(*name, v);
                    }
                }
                rows.push(Value::Obj(row));
            })?;
            Ok(rows)
        })
        .collect()
}

fn merge_partition_edges(
    runs: &[Arc<ColumnRun>],
    out: &mut Vec<(u32, u32)>,
) -> Result<(), ColumnError> {
    let mut rows: Vec<usize> = vec![0; runs.len()];
    let mut offsets: Vec<usize> = vec![0; runs.len()];
    while let Some(b) = merge_pick(runs, &rows) {
        let run = runs.get(b).ok_or_else(|| merge_bug())?;
        let row = *rows.get(b).ok_or_else(|| merge_bug())?;
        let seg = run.edge_segment().ok_or_else(|| {
            ColumnError::Missing("edge segment not built for this namespace".to_string())
        })?;
        let count = *seg
            .counts
            .get(row)
            .ok_or_else(|| ColumnError::Corrupt("edge counts truncated".to_string()))?
            as usize;
        let off = *offsets.get(b).ok_or_else(|| merge_bug())?;
        let end = off
            .checked_add(count)
            .ok_or_else(|| ColumnError::Corrupt("edge offset overflow".to_string()))?;
        let pairs = seg
            .pairs
            .get(off..end)
            .ok_or_else(|| ColumnError::Corrupt("edge pairs truncated".to_string()))?;
        out.extend_from_slice(pairs);
        if let Some(o) = offsets.get_mut(b) {
            *o = end;
        }
        if let Some(r) = rows.get_mut(b) {
            *r += 1;
        }
    }
    Ok(())
}

/// Walk one partition's runs in merge order, decoding only `fields`: `f`
/// sees each row's key and `values[i]`, `Some` iff the row's shape carries
/// `fields[i]` (it may take them — every slot is rewritten per row).
fn merge_partition_fields<F>(
    runs: &[Arc<ColumnRun>],
    fields: &[&str],
    f: &mut F,
) -> Result<u64, ColumnError>
where
    F: FnMut(&str, &mut [Option<Value>]),
{
    let mut rows: Vec<usize> = vec![0; runs.len()];
    let mut readers: Vec<Vec<Option<FieldReader<'_>>>> = runs
        .iter()
        .map(|r| fields.iter().map(|name| r.field_reader(name)).collect())
        .collect();
    let mut row_buf: Vec<Option<Value>> = vec![None; fields.len()];
    let mut seen = 0u64;
    while let Some(b) = merge_pick(runs, &rows) {
        let run = runs.get(b).ok_or_else(|| merge_bug())?;
        let row = *rows.get(b).ok_or_else(|| merge_bug())?;
        let key = run
            .keys()
            .get(row)
            .ok_or_else(|| ColumnError::Corrupt("merge row out of range".to_string()))?;
        let run_readers = readers.get_mut(b).ok_or_else(|| merge_bug())?;
        for (slot, reader) in run_readers.iter_mut().enumerate() {
            let v = match reader {
                Some(r) => r.next_value(row)?,
                None => None,
            };
            if let Some(cell) = row_buf.get_mut(slot) {
                *cell = v;
            }
        }
        f(key, &mut row_buf);
        seen += 1;
        if let Some(r) = rows.get_mut(b) {
            *r += 1;
        }
    }
    Ok(seen)
}

fn merge_bug() -> ColumnError {
    ColumnError::Corrupt("merge cursor out of range".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_json::obj;

    fn investor(i: usize, companies: &[u64]) -> Document {
        let inv = companies.iter().map(|&c| Value::from(c)).collect::<Vec<_>>();
        Document::new(
            format!("user:{i}"),
            obj! {
                "id" => i as u64,
                "role" => "investor",
                "investments" => Value::Arr(inv),
                "follow_count" => (i * 3) as u64,
            },
        )
    }

    fn seeded_store() -> Store {
        let store = Store::memory(4);
        for i in 0..40 {
            let doc = if i % 3 == 0 {
                investor(i, &[(i as u64 + 1) % 7, (i as u64 + 2) % 7])
            } else {
                Document::new(
                    format!("user:{i}"),
                    obj! {"id" => i as u64, "role" => "employee"},
                )
            };
            store.put(EDGE_NAMESPACE, doc).unwrap();
        }
        for c in 0..7 {
            store
                .put(
                    "angellist/companies",
                    Document::new(format!("company:{c}"), obj! {"id" => c as u64, "quality" => 5}),
                )
                .unwrap();
        }
        store
    }

    /// Framed length of one document as the serial rebuild measured it:
    /// by re-encoding the decoded document.
    fn framed_len_reencoded(doc: &Document) -> u64 {
        frame::frame_len(doc.encode().len())
    }

    /// The serial rebuild the parallel one replaced, kept as its oracle:
    /// one `scan_partitions` per `(ns, snap)`, source lengths re-encoded.
    fn absorb_store_serial(set: &mut ColumnSet, store: &Store) {
        let version = store.version();
        for ns in store.namespaces().unwrap() {
            for snap in store.snapshots(&ns) {
                let parts = store.scan_partitions(&ns, snap).unwrap();
                let build_edges = ns == set.config.edge_namespace;
                let mut state = SnapState::new(set.partitions);
                for (p, docs) in parts.into_iter().enumerate() {
                    state.source_len[p] = docs.iter().map(framed_len_reencoded).sum();
                    if !docs.is_empty() {
                        state.runs[p].push(Arc::new(ColumnRun::from_docs(&docs, build_edges)));
                    }
                }
                set.namespaces.entry(ns.clone()).or_default().insert(snap.0, state);
            }
        }
        set.version = version;
    }

    /// `(ns, snap, [partition][run] sealed bytes, source lengths)`.
    type SealedImage = Vec<(String, u32, Vec<Vec<Vec<u8>>>, Vec<u64>)>;

    /// Every sealed run's bytes and every source length, in catalog order.
    fn sealed_image(set: &ColumnSet) -> SealedImage {
        set.iter_states()
            .map(|(ns, snap, runs)| {
                let bytes = runs
                    .iter()
                    .map(|part| part.iter().map(|r| r.sealed_bytes().to_vec()).collect())
                    .collect();
                let lens = set.source_lens(ns, snap).unwrap().to_vec();
                (ns.to_string(), snap, bytes, lens)
            })
            .collect()
    }

    /// A disk store on `MemFs` with everything a rebuild must get right:
    /// re-appended keys, two snapshots, an empty partition, and a
    /// mid-file frame whose CRC fails (written after open, so no recovery
    /// has quarantined it yet).
    fn awkward_disk_store() -> (Arc<crowdnet_store::MemFs>, Store) {
        use crowdnet_store::Vfs;
        let fs = Arc::new(crowdnet_store::MemFs::new());
        let store = Store::open_with_vfs("/s", 4, Arc::clone(&fs) as Arc<dyn Vfs>).unwrap();
        for i in 0..60 {
            store.put(EDGE_NAMESPACE, investor(i % 45, &[i as u64 % 5, 9])).unwrap();
        }
        // One document: three of the four partitions stay empty.
        store
            .put("angellist/companies", Document::new("company:1", obj! {"id" => 1u64}))
            .unwrap();
        let snap1 = store.new_snapshot(EDGE_NAMESPACE).unwrap();
        for i in 0..12 {
            store.put_snapshot(EDGE_NAMESPACE, snap1, investor(i % 7, &[3])).unwrap();
        }
        // Rot the second record of partition 0, snapshot 0.
        let log = store.partition_log_path(EDGE_NAMESPACE, SnapshotId(0), 0).unwrap();
        let mut bytes = fs.bytes(&log).unwrap();
        let second = match frame::step(&bytes, 0) {
            frame::Step::Ok { next, .. } => next,
            other => panic!("{other:?}"),
        };
        bytes[second + frame::HEADER_LEN + 2] ^= 0x01;
        fs.set_bytes(&log, bytes);
        (fs, store)
    }

    #[test]
    fn parallel_rebuild_is_byte_identical_to_the_serial_oracle() {
        let (fs, store) = awkward_disk_store();
        let manifest = std::path::Path::new("/s/.columns/MANIFEST");
        let mut oracle = ColumnSet::new(store.partitions(), ColumnConfig::default());
        absorb_store_serial(&mut oracle, &store);
        crate::disk::save(&store, &oracle).unwrap();
        let oracle_manifest = fs.bytes(manifest).unwrap();
        let want = sealed_image(&oracle);
        assert!(want.iter().any(|(_, _, parts, _)| parts.iter().any(Vec::is_empty)));
        assert_eq!(want.iter().filter(|(ns, ..)| ns == EDGE_NAMESPACE).count(), 2);

        for threads in [1, 2, 4] {
            let mut set = ColumnSet::new(store.partitions(), ColumnConfig::default());
            set.absorb_store_in(&store, ExecCtx::new(threads)).unwrap();
            assert_eq!(sealed_image(&set), want, "{threads} threads");
            crate::disk::save(&store, &set).unwrap();
            assert_eq!(fs.bytes(manifest).unwrap(), oracle_manifest, "{threads} threads");
            // The projection decodes to exactly what the scan returns.
            let cat = set.catalog();
            for ns in store.namespaces().unwrap() {
                for snap in store.snapshots(&ns) {
                    let scan = store.scan_partitions(&ns, snap).unwrap();
                    assert_eq!(cat.docs_partitioned(&ns, snap).unwrap(), scan, "{ns}[{}]", snap.0);
                }
            }
        }
    }

    #[test]
    fn source_lengths_are_the_bytes_the_frame_walk_accepted() {
        use crowdnet_store::Vfs;
        let (fs, store) = awkward_disk_store();
        let set = ColumnSet::build_from_store(&store, ColumnConfig::default(), None).unwrap();
        crate::disk::save(&store, &set).unwrap();
        // The rotted frame is in the log but not in the projection, so the
        // log is longer than the columns reflect: load asks for a rebuild.
        let err = crate::disk::load(&store, ColumnConfig::default(), None).unwrap_err();
        assert!(err.needs_rebuild(), "{err}");
        // Reopening runs recovery, which quarantines the frame: the log is
        // then exactly the accepted bytes, so the saved projection loads
        // as it is.
        drop(store);
        let store = Store::open_with_vfs("/s", 4, Arc::clone(&fs) as Arc<dyn Vfs>).unwrap();
        assert_eq!(store.recovery_stats().quarantined_records, 1);
        let (loaded, rebuilt) =
            crate::disk::open_or_rebuild(&store, ColumnConfig::default(), None).unwrap();
        assert!(!rebuilt);
        assert_eq!(sealed_image(&loaded), sealed_image(&set));
    }

    #[test]
    fn bootstrap_matches_json_scan_exactly() {
        let store = seeded_store();
        let set =
            ColumnSet::build_from_store(&store, ColumnConfig::default(), None).unwrap();
        let cat = set.catalog();
        for ns in store.namespaces().unwrap() {
            let want = store.scan_partitions(&ns, SnapshotId(0)).unwrap();
            let got = cat.docs_partitioned(&ns, SnapshotId(0)).unwrap();
            assert_eq!(got, want, "namespace {ns}");
            let sorted = store.scan_snapshot_sorted(&ns, SnapshotId(0)).unwrap();
            assert_eq!(cat.docs_sorted(&ns, SnapshotId(0)).unwrap(), sorted);
        }
    }

    #[test]
    fn incremental_equals_bootstrap() {
        let store = seeded_store();
        let mut incremental =
            ColumnSet::build_from_store(&store, ColumnConfig::default(), None).unwrap();
        let sub = store.subscribe(1024);
        // More writes after the bootstrap, including duplicate keys.
        for i in 40..70 {
            store.put(EDGE_NAMESPACE, investor(i, &[1, 2])).unwrap();
        }
        store.put(EDGE_NAMESPACE, investor(5, &[6])).unwrap(); // duplicate key
        loop {
            match sub.poll() {
                crowdnet_store::FeedPoll::Event(ev) => incremental.apply_event(&ev),
                crowdnet_store::FeedPoll::Empty => break,
                crowdnet_store::FeedPoll::Lagged { .. } => panic!("unexpected lag"),
            }
        }
        let cat = incremental.seal();
        let fresh = ColumnSet::build_from_store(&store, ColumnConfig::default(), None)
            .unwrap()
            .catalog();
        let want = store.scan_partitions(EDGE_NAMESPACE, SnapshotId(0)).unwrap();
        assert_eq!(cat.docs_partitioned(EDGE_NAMESPACE, SnapshotId(0)).unwrap(), want);
        assert_eq!(
            fresh.docs_partitioned(EDGE_NAMESPACE, SnapshotId(0)).unwrap(),
            want
        );
        assert_eq!(
            cat.edges(EDGE_NAMESPACE, SnapshotId(0)).unwrap(),
            fresh.edges(EDGE_NAMESPACE, SnapshotId(0)).unwrap()
        );
        assert_eq!(cat.version(), store.version());
    }

    #[test]
    fn edges_match_document_extraction() {
        let store = seeded_store();
        let cat = ColumnSet::build_from_store(&store, ColumnConfig::default(), None)
            .unwrap()
            .catalog();
        // Reference: extract from the JSON scan the way the serving tier does.
        let mut want = Vec::new();
        for docs in store.scan_partitions(EDGE_NAMESPACE, SnapshotId(0)).unwrap() {
            for doc in docs {
                if doc.body.get("role").and_then(Value::as_str) == Some("investor") {
                    let id = doc.body.get("id").and_then(Value::as_u64).unwrap_or(0) as u32;
                    if let Some(arr) = doc.body.get("investments").and_then(Value::as_arr) {
                        want.extend(arr.iter().filter_map(Value::as_u64).map(|c| (id, c as u32)));
                    }
                }
            }
        }
        assert_eq!(cat.edges(EDGE_NAMESPACE, SnapshotId(0)).unwrap(), want);
        // The companies namespace has no edge segment.
        assert!(cat.edges("angellist/companies", SnapshotId(0)).is_err());
    }

    #[test]
    fn scan_fields_returns_typed_values_per_row() {
        let store = seeded_store();
        let cat = ColumnSet::build_from_store(&store, ColumnConfig::default(), None)
            .unwrap()
            .catalog();
        let mut got = Vec::new();
        cat.scan_fields(EDGE_NAMESPACE, SnapshotId(0), &["role", "id"], |key, vals| {
            got.push((key.to_string(), vals.to_vec()));
        })
        .unwrap();
        let mut want = Vec::new();
        for docs in store.scan_partitions(EDGE_NAMESPACE, SnapshotId(0)).unwrap() {
            for doc in docs {
                want.push((
                    doc.key.clone(),
                    vec![doc.body.get("role").cloned(), doc.body.get("id").cloned()],
                ));
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn projected_rows_hold_only_the_named_fields_in_merge_order() {
        let store = seeded_store();
        let mut set = ColumnSet::build_from_store(&store, ColumnConfig::default(), None).unwrap();
        let sub = store.subscribe(64);
        // A second run per touched partition: a re-appended key, a new
        // one, and a body that is not an object.
        store.put(EDGE_NAMESPACE, investor(5, &[6])).unwrap();
        store.put(EDGE_NAMESPACE, investor(77, &[1])).unwrap();
        store.put(EDGE_NAMESPACE, Document::new("user:9", Value::from("scalar"))).unwrap();
        while let crowdnet_store::FeedPoll::Event(ev) = sub.poll() {
            set.apply_event(&ev);
        }
        let cat = set.seal();
        let runs = cat.scan_runs(EDGE_NAMESPACE, SnapshotId(0)).unwrap();
        let fields = ["follow_count", "role", "nope"];
        let got = project_runs(runs, &fields).unwrap();
        let want: Vec<Vec<Value>> = store
            .scan_partitions(EDGE_NAMESPACE, SnapshotId(0))
            .unwrap()
            .into_iter()
            .map(|docs| {
                docs.into_iter()
                    .map(|doc| {
                        let mut row = Object::new();
                        for f in fields {
                            if let Some(v) = doc.body.get(f) {
                                row.insert(f, v.clone());
                            }
                        }
                        if row.is_empty() { Value::Null } else { Value::Obj(row) }
                    })
                    .collect()
            })
            .collect();
        assert_eq!(got, want);
        // No field named: one `Null` per document, still in order.
        let bare = project_runs(runs, &[]).unwrap();
        assert_eq!(
            bare.iter().map(Vec::len).collect::<Vec<_>>(),
            want.iter().map(Vec::len).collect::<Vec<_>>()
        );
        assert!(bare.iter().flatten().all(Value::is_null));
        // Absence is the store's own error.
        assert!(matches!(
            cat.scan_runs("ghost", SnapshotId(0)),
            Err(StoreError::NamespaceNotFound(_))
        ));
        assert!(matches!(
            cat.scan_runs(EDGE_NAMESPACE, SnapshotId(3)),
            Err(StoreError::SnapshotNotFound { snapshot: 3, .. })
        ));
    }

    #[test]
    fn counters_track_builds_appends_and_dict() {
        let telemetry = Telemetry::new();
        let store = seeded_store();
        let mut set =
            ColumnSet::build_from_store(&store, ColumnConfig::default(), Some(&telemetry))
                .unwrap();
        assert_eq!(telemetry.counter("column.builds").value(), 1);
        assert!(telemetry.counter("column.bytes").value() > 0);
        assert!(telemetry.gauge("column.dict.entries").value() > 0);
        let sub = store.subscribe(64);
        store.put(EDGE_NAMESPACE, investor(99, &[1])).unwrap();
        if let crowdnet_store::FeedPoll::Event(ev) = sub.poll() {
            set.apply_event(&ev);
        }
        assert_eq!(telemetry.counter("column.appends").value(), 1);
        let cat = set.seal();
        cat.docs_partitioned(EDGE_NAMESPACE, SnapshotId(0)).unwrap();
        assert!(telemetry.counter("column.scan.docs").value() >= 41);
        set.rebuild_from_store(&store).unwrap();
        assert_eq!(telemetry.counter("column.rebuilds").value(), 1);
    }

    #[test]
    fn missing_namespace_is_typed_error() {
        let store = seeded_store();
        let cat = ColumnSet::build_from_store(&store, ColumnConfig::default(), None)
            .unwrap()
            .catalog();
        let err = cat.docs_partitioned("ghost", SnapshotId(0)).unwrap_err();
        assert!(err.needs_rebuild());
        let err = cat.docs_partitioned(EDGE_NAMESPACE, SnapshotId(7)).unwrap_err();
        assert!(matches!(err, ColumnError::Missing(_)));
    }

    #[test]
    fn multi_snapshot_projection() {
        let store = Store::memory(2);
        store.put("ns", Document::new("a", obj! {"v" => 1})).unwrap();
        let snap1 = store.new_snapshot("ns").unwrap();
        store.put("ns", Document::new("b", obj! {"v" => 2})).unwrap();
        let cat = ColumnSet::build_from_store(&store, ColumnConfig::default(), None)
            .unwrap()
            .catalog();
        assert_eq!(cat.snapshots("ns"), vec![SnapshotId(0), snap1]);
        assert_eq!(cat.rows("ns", SnapshotId(0)).unwrap(), 1);
        assert_eq!(cat.rows("ns", snap1).unwrap(), 1);
        assert_eq!(
            cat.docs_sorted("ns", snap1).unwrap(),
            store.scan_snapshot_sorted("ns", snap1).unwrap()
        );
    }
}

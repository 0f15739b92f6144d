//! Disk backend: one directory per namespace, one per snapshot, one framed
//! log per partition — the shape of the authors' HDFS layout, plus the
//! durability guarantees HDFS actually provides and a flat directory copy
//! does not.
//!
//! ```text
//! <root>/
//!   angellist__companies/
//!     snap-0000/
//!       COMMITTED            <- written before the dir is renamed in
//!       part-000.log         <- length+CRC32-framed records (frame.rs)
//!       part-001.log
//!       part-001.quarantine  <- checksum-failed payloads, never dropped
//!     .tmp-snap-0001/        <- uncommitted; removed at recovery
//! ```
//!
//! Durability protocol:
//!
//! * **Records** are framed (`frame::encode`) and written through the
//!   [`Vfs`] seam with no userspace buffering: a put is one `append` on a
//!   cached handle, found by `(namespace, snapshot, partition)` without
//!   formatting a path or touching the filesystem's metadata. A handle
//!   is *dirty* from its first append until its next successful sync;
//!   [`DiskBackend::flush`] fsyncs the dirty handles only, and runs
//!   before every read. A crash can tear at most the last record of each
//!   partition file.
//! * **Snapshots** are committed by building `.tmp-snap-NNNN/` with a
//!   `COMMITTED` marker inside and atomically renaming it into place,
//!   then fsyncing the namespace directory. A snapshot either exists
//!   fully or not at all; ids are derived from the maximum committed id,
//!   never from directory counts. The committed ids of every namespace
//!   are held in memory: the recovery scan fills the set, a commit adds
//!   its id after the directory fsync, and `latest_snapshot`,
//!   `snapshots` and the append path read only the set.
//! * **Recovery** runs at every open (and on demand via
//!   [`DiskBackend::recover`]): uncommitted temp dirs are deleted,
//!   marker-less `snap-*` dirs are quarantined, and every partition log is
//!   scanned — torn tails truncated, checksum-failed records moved to a
//!   `.quarantine` sidecar (counted, never silently dropped). The
//!   committed-snapshot set is rebuilt from what the scan found, and
//!   cached writers for any repaired file or vanished snapshot are
//!   invalidated so post-recovery appends never go through a stale
//!   handle.

use crate::frame;
use crate::vfs::{RealFs, Vfs, VfsFile};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Commit marker filename inside every committed snapshot directory.
const COMMITTED: &str = "COMMITTED";

/// Cumulative counts of what recovery found and repaired (the source of
/// the `store.recovery.*` telemetry counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Full recovery scans performed (one per open / explicit recover).
    pub scans: u64,
    /// Partition files scanned across all recoveries.
    pub partitions: u64,
    /// Checksum-clean records seen by recovery scans.
    pub records_ok: u64,
    /// Torn tails truncated.
    pub torn_tails: u64,
    /// Bytes removed by torn-tail truncation.
    pub torn_bytes: u64,
    /// Records (or unparseable remainders) moved to quarantine sidecars.
    pub quarantined_records: u64,
    /// Uncommitted snapshot dirs removed + marker-less dirs quarantined.
    pub uncommitted_snapshots: u64,
    /// Cached write handles invalidated because their file was repaired.
    pub writer_invalidations: u64,
}

/// One cached append handle.
struct Writer {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Appended to since its last successful sync.
    dirty: bool,
}

/// Committed snapshot ids per namespace (keyed by [`ns_key`]).
type Committed = HashMap<String, BTreeSet<u32>>;

struct Writers {
    /// Open handles by namespace (keyed by [`ns_key`]), then by
    /// `(snapshot, partition)`.
    open: HashMap<String, HashMap<(u32, usize), Writer>>,
    /// Files whose last append errored: the on-disk tail is suspect and
    /// must be repaired before the next append.
    poisoned: HashSet<PathBuf>,
}

impl Writers {
    fn get_mut(&mut self, ns: &str, snapshot: u32, partition: usize) -> Option<&mut Writer> {
        self.open.get_mut(ns)?.get_mut(&(snapshot, partition))
    }

    /// Drop the handle of a file whose tail is now suspect and mark the
    /// file for repair before its next append.
    fn poison(&mut self, ns: &str, snapshot: u32, partition: usize) {
        if let Some(w) = self.open.get_mut(ns).and_then(|m| m.remove(&(snapshot, partition))) {
            self.poisoned.insert(w.path);
        }
    }

    /// Keep only the handles `keep` accepts; returns how many were dropped.
    fn retain(&mut self, mut keep: impl FnMut(&str, u32, &Writer) -> bool) -> u64 {
        let mut dropped = 0;
        for (ns, handles) in self.open.iter_mut() {
            let before = handles.len();
            handles.retain(|&(snap, _), w| keep(ns, snap, w));
            dropped += (before - handles.len()) as u64;
        }
        dropped
    }
}

/// Filesystem-backed framed-log store. All I/O goes through the [`Vfs`]
/// seam; see the module docs for the on-disk protocol.
pub struct DiskBackend {
    root: PathBuf,
    partitions: usize,
    vfs: Arc<dyn Vfs>,
    writers: Mutex<Writers>,
    /// Committed snapshot ids of every namespace: filled by the recovery
    /// scan, extended by commits.
    committed: Mutex<Committed>,
    /// Serializes snapshot commits and recovery scans (the temp-dir +
    /// rename protocol is not idempotent under races, and a recovery
    /// rebuilds the committed set a commit would extend).
    commit_lock: Mutex<()>,
    recovery: Mutex<RecoveryStats>,
}

/// `/` is the namespace separator but not a legal path component.
fn encode_ns(ns: &str) -> String {
    ns.replace('/', "__")
}

/// The namespace a directory name stands for.
fn decode_ns(dir: &str) -> String {
    dir.replace("__", "/")
}

/// The in-memory key of a namespace: the name of its directory decoded
/// again, so a namespace and the directory the recovery scan finds for it
/// share one key. A name without `_` is its own key (encoding only
/// doubles `/` into `__`, and decoding only undoes that).
fn ns_key(ns: &str) -> Cow<'_, str> {
    if ns.contains('_') {
        Cow::Owned(decode_ns(&encode_ns(ns)))
    } else {
        Cow::Borrowed(ns)
    }
}

/// Parse `snap-NNNN` into its id; anything else (temp dirs, quarantine
/// dirs, junk) is `None`.
fn parse_snap_id(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("snap-")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Outcome of repairing one partition file.
#[derive(Default)]
struct FileRepair {
    records_ok: u64,
    quarantined: u64,
    torn_tail: bool,
    torn_bytes: u64,
    modified: bool,
}

impl DiskBackend {
    /// Open (creating if needed) a store rooted at `root` on the real
    /// filesystem, running recovery over any existing state.
    pub fn open(root: impl Into<PathBuf>, partitions: usize) -> io::Result<Self> {
        Self::open_with_vfs(root, partitions, Arc::new(RealFs))
    }

    /// Open on an explicit [`Vfs`] — the entry point fault-injection tests
    /// and the `--fail-at-op` CLI use.
    pub fn open_with_vfs(
        root: impl Into<PathBuf>,
        partitions: usize,
        vfs: Arc<dyn Vfs>,
    ) -> io::Result<Self> {
        let root = root.into();
        vfs.create_dir_all(&root)?;
        let backend = DiskBackend {
            root,
            partitions: partitions.max(1),
            vfs,
            writers: Mutex::new(Writers { open: HashMap::new(), poisoned: HashSet::new() }),
            committed: Mutex::new(HashMap::new()),
            commit_lock: Mutex::new(()),
            recovery: Mutex::new(RecoveryStats::default()),
        };
        backend.recover()?;
        Ok(backend)
    }

    fn ns_dir(&self, ns: &str) -> PathBuf {
        self.root.join(encode_ns(ns))
    }

    fn snap_dir(&self, ns: &str, snapshot: u32) -> PathBuf {
        self.ns_dir(ns).join(format!("snap-{snapshot:04}"))
    }

    fn part_path(&self, ns: &str, snapshot: u32, partition: usize) -> PathBuf {
        self.snap_dir(ns, snapshot)
            .join(format!("part-{:03}.log", partition % self.partitions))
    }

    /// Is this snapshot committed? Reads the in-memory set only.
    fn is_committed(&self, ns: &str, snapshot: u32) -> bool {
        self.committed
            .lock()
            .get(ns_key(ns).as_ref())
            .is_some_and(|ids| ids.contains(&snapshot))
    }

    /// Commit one snapshot directory: temp dir + marker + atomic rename +
    /// directory fsync, then record the id in the committed set.
    /// Idempotent for already-committed ids, including one whose rename
    /// landed but whose commit reported an error.
    fn commit_snapshot(&self, ns: &str, id: u32) -> io::Result<()> {
        let _guard = self.commit_lock.lock();
        if self.is_committed(ns, id) {
            return Ok(());
        }
        let ns_dir = self.ns_dir(ns);
        let snap_dir = self.snap_dir(ns, id);
        if !self.vfs.exists(&snap_dir.join(COMMITTED)) {
            self.vfs.create_dir_all(&ns_dir)?;
            let tmp = ns_dir.join(format!(".tmp-snap-{id:04}"));
            self.vfs.create_dir_all(&tmp)?;
            self.vfs.write_file(&tmp.join(COMMITTED), format!("{id}\n").as_bytes())?;
            self.vfs.rename(&tmp, &snap_dir)?;
        }
        self.vfs.sync_dir(&ns_dir)?;
        self.committed.lock().entry(ns_key(ns).into_owned()).or_default().insert(id);
        Ok(())
    }

    /// Create namespace dir and snapshot 0 if absent.
    pub fn ensure_namespace(&self, ns: &str) -> io::Result<()> {
        self.commit_snapshot(ns, 0)
    }

    /// Open a fresh snapshot; returns its id — the max committed id plus
    /// one, so temp dirs, quarantined dirs and id gaps never skew it.
    pub fn new_snapshot(&self, ns: &str) -> io::Result<u32> {
        let next = self.latest_snapshot(ns).map_or(0, |m| m + 1);
        self.commit_snapshot(ns, next)?;
        Ok(next)
    }

    /// Latest committed snapshot id, if the namespace has any.
    pub fn latest_snapshot(&self, ns: &str) -> Option<u32> {
        self.committed.lock().get(ns_key(ns).as_ref())?.last().copied()
    }

    /// All committed snapshot ids in the namespace, sorted.
    pub fn snapshots(&self, ns: &str) -> Vec<u32> {
        self.committed
            .lock()
            .get(ns_key(ns).as_ref())
            .map(|ids| ids.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Append one record to a partition log (creating the namespace and
    /// snapshot 0 on demand; later snapshots must already be committed).
    /// Returns `Ok(false)` if the target snapshot does not exist.
    ///
    /// A handle opened for this `(namespace, snapshot, partition)` makes
    /// the append one write: no path is formatted and no metadata is
    /// read. Only the first append to a partition (or the first after an
    /// error or a recovery dropped its handle) checks the committed set,
    /// repairs a poisoned file and opens the handle.
    pub fn append(&self, ns: &str, snapshot: u32, partition: usize, line: &str) -> io::Result<bool> {
        let key = ns_key(ns);
        let partition = partition % self.partitions;
        let framed = frame::encode(line.as_bytes());
        let mut writers = self.writers.lock();
        if writers.get_mut(&key, snapshot, partition).is_none() {
            drop(writers);
            if !self.is_committed(&key, snapshot) {
                if snapshot != 0 {
                    return Ok(false);
                }
                self.commit_snapshot(&key, 0)?;
            }
            let path = self.part_path(&key, snapshot, partition);
            writers = self.writers.lock();
            if writers.poisoned.contains(&path) {
                // A previous append to this file errored: its tail is
                // suspect. Repair (truncate the torn record) before
                // writing anything after it.
                let repair = self.repair_file(&path)?;
                let mut stats = self.recovery.lock();
                stats.partitions += 1;
                stats.records_ok += repair.records_ok;
                stats.torn_tails += u64::from(repair.torn_tail);
                stats.torn_bytes += repair.torn_bytes;
                stats.quarantined_records += repair.quarantined;
                drop(stats);
                writers.poisoned.remove(&path);
            }
            let handles = writers.open.entry(key.to_string()).or_default();
            if let Entry::Vacant(e) = handles.entry((snapshot, partition)) {
                let file = self.vfs.open_append(&path)?;
                e.insert(Writer { file, path, dirty: false });
            }
        }
        let Some(handle) = writers.get_mut(&key, snapshot, partition) else {
            return Err(io::Error::other("append handle vanished"));
        };
        match handle.file.append(&framed) {
            Ok(()) => {
                handle.dirty = true;
                Ok(true)
            }
            Err(e) => {
                // The write may have torn: drop the handle and poison the
                // path so the next append repairs before proceeding.
                writers.poison(&key, snapshot, partition);
                Err(e)
            }
        }
    }

    /// Fsync every dirty partition handle (called before every read). A
    /// handle with no append since its last successful sync costs
    /// nothing.
    pub fn flush(&self) -> io::Result<()> {
        let mut writers = self.writers.lock();
        let mut failed = Vec::new();
        let mut first_err = None;
        for (ns, handles) in writers.open.iter_mut() {
            for (&(snapshot, partition), w) in handles.iter_mut().filter(|(_, w)| w.dirty) {
                match w.file.sync() {
                    Ok(()) => w.dirty = false,
                    Err(e) => {
                        failed.push((ns.clone(), snapshot, partition));
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        for (ns, snapshot, partition) in failed {
            writers.poison(&ns, snapshot, partition);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Read every record of one partition, with the framed bytes of the
    /// records the walk accepted. `None` if the snapshot is not
    /// committed; an absent partition file reads as empty. Tolerant of
    /// in-flight damage: stops at a torn tail, skips checksum-failed
    /// records (recovery, not reads, accounts for them).
    pub fn read_partition(
        &self,
        ns: &str,
        snapshot: u32,
        partition: usize,
    ) -> io::Result<Option<(Vec<String>, u64)>> {
        let mut lines = Vec::new();
        let accepted = self.walk_partition(ns, snapshot, partition, |payload| {
            lines.push(String::from_utf8_lossy(payload).into_owned());
        })?;
        Ok(accepted.map(|accepted| (lines, accepted)))
    }

    /// The `(records, framed bytes)` [`DiskBackend::read_partition`] would
    /// return, from the same frame walk but without copying a payload.
    pub fn partition_extent(
        &self,
        ns: &str,
        snapshot: u32,
        partition: usize,
    ) -> io::Result<Option<(usize, u64)>> {
        let mut records = 0;
        let accepted = self.walk_partition(ns, snapshot, partition, |_| records += 1)?;
        Ok(accepted.map(|accepted| (records, accepted)))
    }

    /// The frame walk under both reads: `record` sees every accepted
    /// payload in log order; returns the framed bytes accepted, or `None`
    /// if the snapshot is not committed.
    fn walk_partition(
        &self,
        ns: &str,
        snapshot: u32,
        partition: usize,
        mut record: impl FnMut(&[u8]),
    ) -> io::Result<Option<u64>> {
        self.flush()?;
        if !self.is_committed(ns, snapshot) {
            return Ok(None);
        }
        let path = self.part_path(ns, snapshot, partition);
        if !self.vfs.exists(&path) {
            return Ok(Some(0));
        }
        let bytes = self.vfs.read(&path)?;
        let mut accepted = 0u64;
        let mut offset = 0;
        loop {
            match frame::step(&bytes, offset) {
                frame::Step::Ok { payload, next } => {
                    record(&bytes[payload]);
                    accepted += (next - offset) as u64;
                    offset = next;
                }
                frame::Step::Corrupt { next, .. } => offset = next,
                frame::Step::Torn | frame::Step::Broken | frame::Step::End => break,
            }
        }
        Ok(Some(accepted))
    }

    /// Partition count per snapshot.
    pub fn partition_count(&self) -> usize {
        self.partitions
    }

    /// All namespaces (decoded), sorted.
    pub fn namespaces(&self) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for name in self.vfs.list_dir(&self.root)? {
            if name.starts_with('.') {
                continue;
            }
            if self.vfs.is_dir(&self.root.join(&name)) {
                out.push(decode_ns(&name));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Root directory (for diagnostics).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The [`Vfs`] this backend performs all I/O through — shared with
    /// derived on-disk structures (the column projection) so they inherit
    /// the same fault-injection seam.
    pub fn vfs_handle(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.vfs)
    }

    /// Path of one partition's log file. Derived structures use its byte
    /// length as a staleness probe (the log is append-only, so content
    /// and length move together).
    pub fn partition_log_path(&self, ns: &str, snapshot: u32, partition: usize) -> PathBuf {
        self.part_path(ns, snapshot, partition)
    }

    /// Cumulative recovery statistics since this backend was constructed.
    pub fn recovery_stats(&self) -> RecoveryStats {
        *self.recovery.lock()
    }

    /// Run a full recovery scan: remove uncommitted temp snapshots,
    /// quarantine marker-less snapshot dirs, truncate torn partition
    /// tails, quarantine checksum-failed records, rebuild the committed
    /// snapshot set, and invalidate any cached writer whose file was
    /// repaired or whose snapshot is no longer committed. Safe (and
    /// cheap) on a clean store; runs automatically at open.
    pub fn recover(&self) -> io::Result<()> {
        let _guard = self.commit_lock.lock();
        let mut stats = RecoveryStats { scans: 1, ..RecoveryStats::default() };
        let mut repaired_files: HashSet<PathBuf> = HashSet::new();
        let mut committed = Committed::new();
        for ns_name in self.vfs.list_dir(&self.root)? {
            let ns_dir = self.root.join(&ns_name);
            if !self.vfs.is_dir(&ns_dir) {
                continue;
            }
            for entry in self.vfs.list_dir(&ns_dir)? {
                let entry_path = ns_dir.join(&entry);
                if entry.starts_with(".tmp-snap-") {
                    // A snapshot commit that never reached its rename.
                    self.vfs.remove_dir_all(&entry_path)?;
                    stats.uncommitted_snapshots += 1;
                    continue;
                }
                let Some(id) = parse_snap_id(&entry) else { continue };
                if !self.vfs.exists(&entry_path.join(COMMITTED)) {
                    // A snap-* dir without its marker cannot have come from
                    // our commit protocol: quarantine rather than trust or
                    // delete it.
                    self.vfs.rename(&entry_path, &ns_dir.join(format!("quarantine-{entry}")))?;
                    self.vfs.sync_dir(&ns_dir)?;
                    stats.uncommitted_snapshots += 1;
                    continue;
                }
                committed.entry(decode_ns(&ns_name)).or_default().insert(id);
                for file in self.vfs.list_dir(&entry_path)? {
                    if !(file.starts_with("part-") && file.ends_with(".log")) {
                        continue;
                    }
                    let path = entry_path.join(&file);
                    let repair = self.repair_file(&path)?;
                    stats.partitions += 1;
                    stats.records_ok += repair.records_ok;
                    stats.torn_tails += u64::from(repair.torn_tail);
                    stats.torn_bytes += repair.torn_bytes;
                    stats.quarantined_records += repair.quarantined;
                    if repair.modified {
                        repaired_files.insert(path);
                    }
                }
            }
        }
        // Post-recovery appends must not go through handles whose file
        // changed under them, nor into a snapshot that is gone.
        let mut writers = self.writers.lock();
        stats.writer_invalidations = writers.retain(|ns, snap, w| {
            !repaired_files.contains(&w.path)
                && committed.get(ns).is_some_and(|ids| ids.contains(&snap))
        });
        writers.poisoned.retain(|path| !repaired_files.contains(path));
        drop(writers);
        *self.committed.lock() = committed;
        let mut total = self.recovery.lock();
        total.scans += stats.scans;
        total.partitions += stats.partitions;
        total.records_ok += stats.records_ok;
        total.torn_tails += stats.torn_tails;
        total.torn_bytes += stats.torn_bytes;
        total.quarantined_records += stats.quarantined_records;
        total.uncommitted_snapshots += stats.uncommitted_snapshots;
        total.writer_invalidations += stats.writer_invalidations;
        Ok(())
    }

    /// Scan one partition file, truncating a torn tail and moving
    /// checksum-failed payloads to the `.quarantine` sidecar. Returns what
    /// it found; `modified` is set if the file's bytes changed.
    fn repair_file(&self, path: &Path) -> io::Result<FileRepair> {
        let mut out = FileRepair::default();
        if !self.vfs.exists(path) {
            return Ok(out);
        }
        let bytes = self.vfs.read(path)?;
        let mut clean: Vec<u8> = Vec::with_capacity(bytes.len());
        let mut quarantine: Vec<u8> = Vec::new();
        let mut offset = 0;
        loop {
            match frame::step(&bytes, offset) {
                frame::Step::Ok { next, .. } => {
                    clean.extend_from_slice(&bytes[offset..next]);
                    out.records_ok += 1;
                    offset = next;
                }
                frame::Step::Corrupt { payload, next } => {
                    quarantine.extend_from_slice(&bytes[payload]);
                    quarantine.push(b'\n');
                    out.quarantined += 1;
                    offset = next;
                }
                frame::Step::Torn => {
                    out.torn_tail = true;
                    out.torn_bytes += (bytes.len() - offset) as u64;
                    break;
                }
                frame::Step::Broken => {
                    // Framing is untrusted from here on: preserve the
                    // remainder in quarantine rather than guess at record
                    // boundaries.
                    quarantine.extend_from_slice(&bytes[offset..]);
                    quarantine.push(b'\n');
                    out.quarantined += 1;
                    break;
                }
                frame::Step::End => break,
            }
        }
        if !quarantine.is_empty() {
            let qpath = path.with_extension("quarantine");
            let mut handle = self.vfs.open_append(&qpath)?;
            handle.append(&quarantine)?;
            handle.sync()?;
        }
        if clean.len() != bytes.len() {
            out.modified = true;
            if bytes.starts_with(&clean) {
                // Pure tail damage: truncate in place.
                self.vfs.truncate(path, clean.len() as u64)?;
            } else {
                // Mid-file records were removed: rewrite atomically.
                let tmp = path.with_extension("log.rewrite");
                self.vfs.write_file(&tmp, &clean)?;
                self.vfs.rename(&tmp, path)?;
                if let Some(parent) = path.parent() {
                    self.vfs.sync_dir(parent)?;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemFs;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn mem_backend(partitions: usize) -> (Arc<MemFs>, DiskBackend) {
        let fs = Arc::new(MemFs::new());
        let b = DiskBackend::open_with_vfs("/store", partitions, Arc::clone(&fs) as Arc<dyn Vfs>)
            .unwrap();
        (fs, b)
    }

    #[test]
    fn append_flush_read() {
        let (_fs, b) = mem_backend(2);
        assert!(b.append("a/b", 0, 0, "l1").unwrap());
        assert!(b.append("a/b", 0, 0, "l2").unwrap());
        assert!(b.append("a/b", 0, 1, "l3").unwrap());
        assert_eq!(b.read_partition("a/b", 0, 0).unwrap().unwrap().0, vec!["l1", "l2"]);
        assert_eq!(b.read_partition("a/b", 0, 1).unwrap().unwrap().0, vec!["l3"]);
    }

    #[test]
    fn missing_namespace_reads_none() {
        let (_fs, b) = mem_backend(2);
        assert!(b.read_partition("nope", 0, 0).unwrap().is_none());
        assert_eq!(b.latest_snapshot("nope"), None);
    }

    #[test]
    fn snapshot_lifecycle() {
        let (_fs, b) = mem_backend(1);
        b.append("ns", 0, 0, "v0").unwrap();
        assert_eq!(b.latest_snapshot("ns"), Some(0));
        let s1 = b.new_snapshot("ns").unwrap();
        assert_eq!(s1, 1);
        b.append("ns", 1, 0, "v1").unwrap();
        assert_eq!(b.read_partition("ns", 0, 0).unwrap().unwrap().0, vec!["v0"]);
        assert_eq!(b.read_partition("ns", 1, 0).unwrap().unwrap().0, vec!["v1"]);
        assert_eq!(b.snapshots("ns"), vec![0, 1]);
        // Appending to a snapshot that was never created is refused.
        assert!(!b.append("ns", 7, 0, "x").unwrap());
    }

    #[test]
    fn namespaces_decode_slashes() {
        let (_fs, b) = mem_backend(1);
        b.append("angellist/companies", 0, 0, "x").unwrap();
        b.append("twitter/profiles", 0, 0, "y").unwrap();
        assert_eq!(b.namespaces().unwrap(), vec!["angellist/companies", "twitter/profiles"]);
    }

    #[test]
    fn reopen_sees_existing_data() {
        let fs = Arc::new(MemFs::new());
        {
            let b = DiskBackend::open_with_vfs("/r", 2, Arc::clone(&fs) as Arc<dyn Vfs>).unwrap();
            b.append("ns", 0, 0, "persisted").unwrap();
            b.flush().unwrap();
        }
        let b2 = DiskBackend::open_with_vfs("/r", 2, fs as Arc<dyn Vfs>).unwrap();
        assert_eq!(b2.read_partition("ns", 0, 0).unwrap().unwrap().0, vec!["persisted"]);
    }

    #[test]
    fn real_fs_roundtrip_and_reopen() {
        let root = std::env::temp_dir()
            .join(format!("crowdnet-store-realfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        {
            let b = DiskBackend::open(&root, 2).unwrap();
            b.append("ns", 0, 0, "on real disk").unwrap();
            b.flush().unwrap();
            assert_eq!(
                b.read_partition("ns", 0, 0).unwrap().unwrap().0,
                vec!["on real disk"]
            );
        }
        let b2 = DiskBackend::open(&root, 2).unwrap();
        assert_eq!(b2.read_partition("ns", 0, 0).unwrap().unwrap().0, vec!["on real disk"]);
        assert_eq!(b2.recovery_stats().scans, 1);
        assert_eq!(b2.recovery_stats().torn_tails, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshot_ids_ignore_temp_quarantine_and_junk_dirs() {
        // The regression for `snapshot_count`: any `snap-*`-looking entry
        // used to count, so temp/quarantine dirs and gaps skewed new ids.
        let (fs, b) = mem_backend(1);
        b.append("ns", 0, 0, "x").unwrap();
        let ns_dir = Path::new("/store/ns");
        fs.create_dir_all(&ns_dir.join(".tmp-snap-0005")).unwrap();
        fs.create_dir_all(&ns_dir.join("quarantine-snap-0007")).unwrap();
        fs.create_dir_all(&ns_dir.join("snap-junk")).unwrap();
        assert_eq!(b.snapshots("ns"), vec![0]);
        assert_eq!(b.latest_snapshot("ns"), Some(0));
        assert_eq!(b.new_snapshot("ns").unwrap(), 1);
        // A committed id gap: next id is max+1, not count.
        b.commit_snapshot("ns", 5).unwrap();
        assert_eq!(b.new_snapshot("ns").unwrap(), 6);
        assert_eq!(b.snapshots("ns"), vec![0, 1, 5, 6]);
    }

    #[test]
    fn recovery_truncates_torn_tail() {
        let fs = Arc::new(MemFs::new());
        let part = Path::new("/r/ns/snap-0000/part-000.log");
        {
            let b = DiskBackend::open_with_vfs("/r", 1, Arc::clone(&fs) as Arc<dyn Vfs>).unwrap();
            b.append("ns", 0, 0, "keep-1").unwrap();
            b.append("ns", 0, 0, "keep-2").unwrap();
        }
        // Tear the tail: a half-written third record.
        let mut bytes = fs.bytes(part).unwrap();
        let torn = frame::encode(b"half-written-record");
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        fs.set_bytes(part, bytes.clone());

        let b = DiskBackend::open_with_vfs("/r", 1, Arc::clone(&fs) as Arc<dyn Vfs>).unwrap();
        let stats = b.recovery_stats();
        assert_eq!(stats.torn_tails, 1);
        assert_eq!(stats.torn_bytes, (torn.len() / 2) as u64);
        assert_eq!(stats.records_ok, 2);
        assert_eq!(stats.quarantined_records, 0);
        assert_eq!(b.read_partition("ns", 0, 0).unwrap().unwrap().0, vec!["keep-1", "keep-2"]);
        // The file itself is clean again: appends work and a further
        // reopen finds nothing to repair.
        b.append("ns", 0, 0, "keep-3").unwrap();
        drop(b);
        let b2 = DiskBackend::open_with_vfs("/r", 1, fs as Arc<dyn Vfs>).unwrap();
        assert_eq!(b2.recovery_stats().torn_tails, 0);
        assert_eq!(
            b2.read_partition("ns", 0, 0).unwrap().unwrap().0,
            vec!["keep-1", "keep-2", "keep-3"]
        );
    }

    #[test]
    fn recovery_quarantines_corrupt_records_never_drops_them() {
        let fs = Arc::new(MemFs::new());
        let part = Path::new("/r/ns/snap-0000/part-000.log");
        {
            let b = DiskBackend::open_with_vfs("/r", 1, Arc::clone(&fs) as Arc<dyn Vfs>).unwrap();
            b.append("ns", 0, 0, "good-1").unwrap();
            b.append("ns", 0, 0, "rot-me").unwrap();
            b.append("ns", 0, 0, "good-2").unwrap();
        }
        // Flip one payload byte of the middle record.
        let mut bytes = fs.bytes(part).unwrap();
        let first_len = frame::encode(b"good-1").len();
        bytes[first_len + frame::HEADER_LEN] ^= 0x01;
        fs.set_bytes(part, bytes);

        let b = DiskBackend::open_with_vfs("/r", 1, Arc::clone(&fs) as Arc<dyn Vfs>).unwrap();
        let stats = b.recovery_stats();
        assert_eq!(stats.quarantined_records, 1);
        assert_eq!(stats.records_ok, 2);
        assert_eq!(b.read_partition("ns", 0, 0).unwrap().unwrap().0, vec!["good-1", "good-2"]);
        // The damaged payload survives in the sidecar.
        let q = fs.bytes(Path::new("/r/ns/snap-0000/part-000.quarantine")).unwrap();
        assert_eq!(q, b"sot-me\n");
    }

    #[test]
    fn reads_count_only_the_frames_they_accept() {
        let fs = Arc::new(MemFs::new());
        let part = Path::new("/r/ns/snap-0000/part-000.log");
        let b = DiskBackend::open_with_vfs("/r", 1, Arc::clone(&fs) as Arc<dyn Vfs>).unwrap();
        for line in ["good-1", "rot-me", "good-2"] {
            b.append("ns", 0, 0, line).unwrap();
        }
        let clean = fs.bytes(part).unwrap();
        assert_eq!(b.read_partition("ns", 0, 0).unwrap().unwrap().1, clean.len() as u64);
        // A rotted middle frame (not yet quarantined by a recovery) and a
        // torn tail are both skipped, and neither counts.
        let mut bytes = clean.clone();
        let first_len = frame::encode(b"good-1").len();
        bytes[first_len + frame::HEADER_LEN] ^= 0x01;
        bytes.extend_from_slice(&frame::encode(b"torn")[..7]);
        fs.set_bytes(part, bytes);
        let (lines, accepted) = b.read_partition("ns", 0, 0).unwrap().unwrap();
        assert_eq!(lines, vec!["good-1", "good-2"]);
        assert_eq!(accepted, frame::frame_len(6) * 2);
    }

    #[test]
    fn recovery_removes_uncommitted_and_quarantines_markerless_snapshots() {
        let fs = Arc::new(MemFs::new());
        {
            let b = DiskBackend::open_with_vfs("/r", 1, Arc::clone(&fs) as Arc<dyn Vfs>).unwrap();
            b.append("ns", 0, 0, "x").unwrap();
        }
        // A commit that died before its rename, and a foreign marker-less dir.
        fs.create_dir_all(Path::new("/r/ns/.tmp-snap-0001")).unwrap();
        fs.write_file(Path::new("/r/ns/.tmp-snap-0001/COMMITTED"), b"1\n").unwrap();
        fs.create_dir_all(Path::new("/r/ns/snap-0002")).unwrap();
        fs.write_file(Path::new("/r/ns/snap-0002/part-000.log"), b"??").unwrap();

        let b = DiskBackend::open_with_vfs("/r", 1, Arc::clone(&fs) as Arc<dyn Vfs>).unwrap();
        assert_eq!(b.recovery_stats().uncommitted_snapshots, 2);
        assert!(!fs.exists(Path::new("/r/ns/.tmp-snap-0001")));
        assert!(!fs.exists(Path::new("/r/ns/snap-0002")));
        assert!(fs.is_dir(Path::new("/r/ns/quarantine-snap-0002")));
        assert_eq!(b.snapshots("ns"), vec![0]);
        // New ids continue from the committed max, not the junk.
        assert_eq!(b.new_snapshot("ns").unwrap(), 1);
    }

    #[test]
    fn live_recover_invalidates_cached_writers() {
        let fs = Arc::new(MemFs::new());
        let part = Path::new("/r/ns/snap-0000/part-000.log");
        let b = DiskBackend::open_with_vfs("/r", 1, Arc::clone(&fs) as Arc<dyn Vfs>).unwrap();
        b.append("ns", 0, 0, "before").unwrap(); // caches a writer
        // Damage the file behind the cached handle's back.
        let mut bytes = fs.bytes(part).unwrap();
        bytes.extend_from_slice(b"0000");
        fs.set_bytes(part, bytes);
        b.recover().unwrap();
        let stats = b.recovery_stats();
        assert_eq!(stats.scans, 2); // open + explicit
        assert_eq!(stats.torn_tails, 1);
        assert_eq!(stats.writer_invalidations, 1);
        // Post-recovery append goes through a fresh handle at the repaired
        // offset: both records read back clean.
        b.append("ns", 0, 0, "after").unwrap();
        assert_eq!(b.read_partition("ns", 0, 0).unwrap().unwrap().0, vec!["before", "after"]);
    }

    #[test]
    fn failed_append_poisons_then_self_repairs() {
        use crate::vfs::{FailpointFs, FaultPlan};
        let mem = Arc::new(MemFs::new());
        // Seed the store fault-free, then reopen through a vfs where every
        // write tears.
        let plan = FaultPlan { torn_write: 1.0, ..FaultPlan::none(3) };
        let clean = DiskBackend::open_with_vfs("/r", 1, Arc::clone(&mem) as Arc<dyn Vfs>).unwrap();
        clean.append("ns", 0, 0, "acked-before-fault").unwrap();
        drop(clean);
        let faulty: Arc<dyn Vfs> =
            Arc::new(FailpointFs::new(Arc::clone(&mem) as Arc<dyn Vfs>, plan));
        let b = DiskBackend::open_with_vfs("/r", 1, faulty).unwrap();
        // Every append tears; each error poisons, each retry repairs first.
        let mut failures = 0;
        for i in 0..5 {
            if b.append("ns", 0, 0, &format!("attempt-{i}")).is_err() {
                failures += 1;
            }
        }
        assert_eq!(failures, 5);
        // All torn tails were repaired before the next write: the acked
        // record is intact and nothing half-written is visible.
        drop(b);
        let b2 = DiskBackend::open_with_vfs("/r", 1, mem as Arc<dyn Vfs>).unwrap();
        assert_eq!(
            b2.read_partition("ns", 0, 0).unwrap().unwrap().0,
            vec!["acked-before-fault"]
        );
        assert_eq!(b2.recovery_stats().quarantined_records, 0);
    }

    /// Per-operation counts of everything a backend asks of its [`Vfs`].
    #[derive(Default)]
    struct Ops {
        list_dir: AtomicU64,
        exists: AtomicU64,
        appends: AtomicU64,
        syncs: AtomicU64,
    }

    /// A [`MemFs`] that counts the operations the I/O-budget tests pin.
    struct CountingFs {
        inner: MemFs,
        ops: Arc<Ops>,
    }

    struct CountingFile {
        inner: Box<dyn VfsFile>,
        ops: Arc<Ops>,
    }

    impl VfsFile for CountingFile {
        fn append(&mut self, buf: &[u8]) -> io::Result<()> {
            self.ops.appends.fetch_add(1, Ordering::Relaxed);
            self.inner.append(buf)
        }
        fn sync(&mut self) -> io::Result<()> {
            self.ops.syncs.fetch_add(1, Ordering::Relaxed);
            self.inner.sync()
        }
    }

    impl Vfs for CountingFs {
        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            self.inner.create_dir_all(path)
        }
        fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            let inner = self.inner.open_append(path)?;
            Ok(Box::new(CountingFile { inner, ops: Arc::clone(&self.ops) }))
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn write_file(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
            self.inner.write_file(path, contents)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.rename(from, to)
        }
        fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
            self.inner.truncate(path, len)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.inner.remove_file(path)
        }
        fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
            self.inner.remove_dir_all(path)
        }
        fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
            self.ops.list_dir.fetch_add(1, Ordering::Relaxed);
            self.inner.list_dir(path)
        }
        fn sync_dir(&self, path: &Path) -> io::Result<()> {
            self.inner.sync_dir(path)
        }
        fn exists(&self, path: &Path) -> bool {
            self.ops.exists.fetch_add(1, Ordering::Relaxed);
            self.inner.exists(path)
        }
        fn is_dir(&self, path: &Path) -> bool {
            self.inner.is_dir(path)
        }
    }

    fn counting_backend(partitions: usize) -> (Arc<Ops>, DiskBackend) {
        let ops = Arc::new(Ops::default());
        let fs = CountingFs { inner: MemFs::new(), ops: Arc::clone(&ops) };
        let b = DiskBackend::open_with_vfs("/store", partitions, Arc::new(fs)).unwrap();
        (ops, b)
    }

    fn count(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    #[test]
    fn a_put_is_one_append_and_no_metadata_lookup() {
        let (ops, b) = counting_backend(4);
        // The first put to each (namespace, snapshot, partition) may
        // commit the namespace and open the handle.
        for p in 0..4 {
            assert!(b.append("a/b", 0, p, "first").unwrap());
        }
        let s1 = b.new_snapshot("a/b").unwrap();
        assert!(b.append("a/b", s1, 0, "first").unwrap());
        let (list, exists, appends) = (count(&ops.list_dir), count(&ops.exists), count(&ops.appends));
        // After that, N puts are N appends — through the path the store's
        // put takes, which asks for the latest snapshot first.
        let n = 500;
        for i in 0..n {
            let snap = if i % 5 == 0 { 0 } else { b.latest_snapshot("a/b").unwrap() };
            assert!(b.append("a/b", snap, i % 4, &format!("line-{i}")).unwrap());
        }
        assert_eq!(count(&ops.appends) - appends, n as u64);
        assert_eq!(count(&ops.list_dir) - list, 0);
        assert_eq!(count(&ops.exists) - exists, 0);
        assert_eq!(b.snapshots("a/b"), vec![0, s1]);
    }

    #[test]
    fn reads_sync_only_what_was_appended_since_the_last_sync() {
        let (ops, b) = counting_backend(4);
        for p in 0..4 {
            b.append("ns", 0, p, "x").unwrap();
        }
        // Four dirty handles: the first read syncs each once.
        b.read_partition("ns", 0, 0).unwrap();
        assert_eq!(count(&ops.syncs), 4);
        // Nothing appended since: reads (and flushes) sync nothing.
        for p in 0..4 {
            b.read_partition("ns", 0, p).unwrap();
        }
        b.flush().unwrap();
        assert_eq!(count(&ops.syncs), 4);
        // One append, then a read: exactly that handle is synced.
        b.append("ns", 0, 2, "y").unwrap();
        assert_eq!(b.read_partition("ns", 0, 1).unwrap().unwrap().0, vec!["x"]);
        assert_eq!(count(&ops.syncs), 5);
        b.partition_extent("ns", 0, 2).unwrap();
        assert_eq!(count(&ops.syncs), 5);
    }

    #[test]
    fn a_snapshot_quarantined_out_of_band_leaves_the_set_at_recover() {
        let (fs, b) = mem_backend(1);
        b.append("ns", 0, 0, "v0").unwrap();
        assert_eq!(b.new_snapshot("ns").unwrap(), 1);
        assert_eq!(b.new_snapshot("ns").unwrap(), 2);
        b.append("ns", 2, 0, "v2").unwrap();
        // Another tool strips snapshot 2's marker and deletes snapshot 1:
        // the in-memory set still holds both until a recovery scan.
        fs.remove_file(Path::new("/store/ns/snap-0002/COMMITTED")).unwrap();
        fs.remove_dir_all(Path::new("/store/ns/snap-0001")).unwrap();
        assert_eq!(b.snapshots("ns"), vec![0, 1, 2]);
        b.recover().unwrap();
        assert!(fs.is_dir(Path::new("/store/ns/quarantine-snap-0002")));
        assert_eq!(b.snapshots("ns"), vec![0]);
        assert_eq!(b.latest_snapshot("ns"), Some(0));
        // The handle into the vanished snapshot is gone with it: appends
        // there are refused, and new ids continue from what is committed.
        assert!(!b.append("ns", 2, 0, "late").unwrap());
        assert_eq!(b.new_snapshot("ns").unwrap(), 1);
        assert!(b.append("ns", 1, 0, "v1").unwrap());
        assert_eq!(b.snapshots("ns"), vec![0, 1]);
        assert_eq!(b.read_partition("ns", 1, 0).unwrap().unwrap().0, vec!["v1"]);
        drop(b);
        let reopened = DiskBackend::open_with_vfs("/store", 1, fs as Arc<dyn Vfs>).unwrap();
        assert_eq!(reopened.snapshots("ns"), vec![0, 1]);
    }

    #[test]
    fn namespaces_with_underscores_share_one_set_across_reopen() {
        let fs = Arc::new(MemFs::new());
        let open = || DiskBackend::open_with_vfs("/r", 1, Arc::clone(&fs) as Arc<dyn Vfs>).unwrap();
        let b = open();
        b.append("crawl__state", 0, 0, "a").unwrap();
        drop(b);
        // The recovery scan knows the directory as `crawl/state`; the
        // name the writer used still finds its committed snapshot.
        let b = open();
        assert_eq!(b.latest_snapshot("crawl__state"), Some(0));
        assert!(b.append("crawl__state", 0, 0, "b").unwrap());
        assert_eq!(b.read_partition("crawl__state", 0, 0).unwrap().unwrap().0, vec!["a", "b"]);
    }

    #[test]
    fn parse_snap_id_rejects_lookalikes() {
        assert_eq!(parse_snap_id("snap-0000"), Some(0));
        assert_eq!(parse_snap_id("snap-0123"), Some(123));
        assert_eq!(parse_snap_id("snap-12345"), Some(12345));
        assert_eq!(parse_snap_id(".tmp-snap-0001"), None);
        assert_eq!(parse_snap_id("quarantine-snap-0001"), None);
        assert_eq!(parse_snap_id("snap-"), None);
        assert_eq!(parse_snap_id("snap-junk"), None);
        assert_eq!(parse_snap_id("snapshot-1"), None);
    }
}

//! On-disk persistence for the column projection, living beside the JSON
//! log it is derived from:
//!
//! ```text
//! <store_root>/
//!   angellist__users/          <- the store's own namespace dirs
//!     snap-0000/part-000.log
//!   .columns/                  <- the projection (dot-dir: the store's
//!     MANIFEST                    namespace listing and recovery skip it)
//!     COMMITTED
//!     angellist__users/
//!       snap-0000/
//!         part-000.col         <- CRC-framed run payloads, one frame/run
//!   .columns.tmp/              <- in-flight commit; ignored by load
//! ```
//!
//! All I/O goes through the store's [`Vfs`] handle, so fault injection
//! covers column commits exactly like it covers log appends.
//!
//! ## One partition encoding
//!
//! A `part-NNN.col` file is [`encode_partition`] of that partition's
//! runs — each run's sealed bytes in one CRC frame, in seal order — and
//! [`decode_partition`] is its only reader. The shard wire ships the same
//! bytes as the payload of a bulk scan leg (`crowdnet-shardnet`), so a
//! partition has one serialized form whether it sits on disk or crosses
//! a socket, and a flipped or missing byte fails the same CRC in both.
//!
//! ## Commit protocol
//!
//! A save builds the whole tree under `.columns.tmp/`, writes the
//! `MANIFEST` (a CRC-framed JSON record) and then the `COMMITTED` marker,
//! removes any previous `.columns/`, renames the temp dir into place and
//! fsyncs the store root. A crash at any point leaves either the old
//! projection (intact) or no projection — both of which load handles.
//!
//! ## Staleness contract
//!
//! The manifest records, per `(namespace, snapshot, partition)`, the
//! framed byte length of the source JSON log the projection reflects.
//! Logs are append-only, so `length match ⇒ content match`; on load every
//! length is re-probed via [`Vfs::file_len`] and any divergence — as well
//! as any missing marker, format bump, partition-count change, or decode
//! failure — yields an error whose [`ColumnError::needs_rebuild`] is
//! true. The projection is never repaired and never trusted: it is
//! rebuilt from the log.

use crate::catalog::{ColumnConfig, ColumnSet};
use crate::error::ColumnError;
use crate::run::ColumnRun;
use crowdnet_json::{Object, Value};
use crowdnet_store::vfs::Vfs;
use crowdnet_store::{frame, SnapshotId, Store};
use crowdnet_telemetry::Telemetry;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Directory (under the store root) holding the committed projection.
pub const COLUMNS_DIR: &str = ".columns";
/// Scratch directory for in-flight commits.
const TMP_DIR: &str = ".columns.tmp";
const MANIFEST: &str = "MANIFEST";
const COMMITTED: &str = "COMMITTED";
/// On-disk layout version; a mismatch is a rebuild, never a migration.
const DISK_FORMAT: u64 = 1;

fn encode_ns(ns: &str) -> String {
    ns.replace('/', "__")
}

fn corrupt(what: impl Into<String>) -> ColumnError {
    ColumnError::Corrupt(format!("column dir: {}", what.into()))
}

fn stale(what: impl Into<String>) -> ColumnError {
    ColumnError::Stale(what.into())
}

/// Byte length of `path` through the Vfs, reading an absent file as 0
/// (a partition that never saw an append has no log file).
fn file_len_or_zero(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<u64, ColumnError> {
    match vfs.file_len(path) {
        Ok(n) => Ok(n),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(ColumnError::Io(e)),
    }
}

/// Persist the sealed state of `set` beside `store`'s log. Returns the
/// total column file bytes written. A memory-backed store has no disk to
/// persist to; that case returns `Ok(0)` (the projection stays purely
/// in-memory, which is the contract for memory stores).
pub fn save(store: &Store, set: &ColumnSet) -> Result<u64, ColumnError> {
    let Some((root, vfs)) = store.disk_layout() else {
        return Ok(0);
    };
    let tmp = root.join(TMP_DIR);
    if vfs.is_dir(&tmp) {
        vfs.remove_dir_all(&tmp)?;
    }
    vfs.create_dir_all(&tmp)?;

    let mut bytes_written = 0u64;
    let mut ns_entries: Vec<Value> = Vec::new();
    let mut current_ns: Option<(String, Vec<Value>)> = None;
    for (ns, snap, runs) in set.iter_states() {
        if current_ns.as_ref().is_none_or(|(n, _)| n != ns) {
            if let Some((name, snaps)) = current_ns.take() {
                ns_entries.push(ns_entry(&name, snaps));
            }
            current_ns = Some((ns.to_string(), Vec::new()));
        }
        let lens = set.source_lens(ns, snap).unwrap_or(&[]);
        let snap_dir = tmp.join(encode_ns(ns)).join(format!("snap-{snap:04}"));
        let mut parts: Vec<Value> = Vec::new();
        for (p, part_runs) in runs.iter().enumerate() {
            let mut part = Object::new();
            part.insert("rows", part_runs.iter().map(|r| r.rows()).sum::<usize>() as u64);
            part.insert("runs", part_runs.len() as u64);
            part.insert("source_len", lens.get(p).copied().unwrap_or(0));
            parts.push(Value::Obj(part));
            if part_runs.is_empty() {
                continue;
            }
            vfs.create_dir_all(&snap_dir)?;
            let file = encode_partition(part_runs);
            bytes_written += file.len() as u64;
            vfs.write_file(&snap_dir.join(format!("part-{p:03}.col")), &file)?;
        }
        let mut snap_obj = Object::new();
        snap_obj.insert("snap", u64::from(snap));
        snap_obj.insert("parts", Value::Arr(parts));
        if let Some((_, snaps)) = &mut current_ns {
            snaps.push(Value::Obj(snap_obj));
        }
    }
    if let Some((name, snaps)) = current_ns.take() {
        ns_entries.push(ns_entry(&name, snaps));
    }

    let mut manifest = Object::new();
    manifest.insert("format", DISK_FORMAT);
    manifest.insert("partitions", set.partitions() as u64);
    manifest.insert("version", set.version());
    manifest.insert("namespaces", Value::Arr(ns_entries));
    let manifest_line = Value::Obj(manifest).to_compact();
    vfs.write_file(&tmp.join(MANIFEST), &frame::encode(manifest_line.as_bytes()))?;
    vfs.write_file(&tmp.join(COMMITTED), b"1\n")?;

    let dest = root.join(COLUMNS_DIR);
    if vfs.is_dir(&dest) {
        vfs.remove_dir_all(&dest)?;
    }
    vfs.rename(&tmp, &dest)?;
    vfs.sync_dir(&root)?;
    Ok(bytes_written)
}

fn ns_entry(name: &str, snaps: Vec<Value>) -> Value {
    let mut o = Object::new();
    o.insert("ns", name);
    o.insert("snaps", Value::Arr(snaps));
    Value::Obj(o)
}

/// Load the committed projection beside `store`'s log, validating the
/// full staleness contract (see module docs). Every failure mode that
/// should trigger a rebuild returns an error with
/// [`ColumnError::needs_rebuild`] `== true`.
pub fn load(
    store: &Store,
    config: ColumnConfig,
    telemetry: Option<&Telemetry>,
) -> Result<ColumnSet, ColumnError> {
    let Some((root, vfs)) = store.disk_layout() else {
        return Err(ColumnError::Missing("store is not disk-backed".to_string()));
    };
    // Read the version before probing: a write racing the load leaves the
    // loaded set stamped older than the store, so consumers re-derive.
    let version = store.version();
    let dir = root.join(COLUMNS_DIR);
    if !vfs.is_dir(&dir) {
        return Err(ColumnError::Missing(format!("{} not present", dir.display())));
    }
    if !vfs.exists(&dir.join(COMMITTED)) {
        return Err(corrupt("COMMITTED marker missing"));
    }
    let manifest = read_manifest(&vfs, &dir.join(MANIFEST))?;

    let partitions = field_u64(&manifest, "partitions")? as usize;
    if field_u64(&manifest, "format")? != DISK_FORMAT {
        return Err(stale("on-disk column format version changed"));
    }
    if partitions != store.partitions() {
        return Err(stale(format!(
            "manifest has {partitions} partitions, store has {}",
            store.partitions()
        )));
    }

    let mut set = ColumnSet::new(partitions, config);
    if let Some(t) = telemetry {
        set = set.with_telemetry(t);
    }
    let mut manifest_pairs: Vec<(String, u32)> = Vec::new();
    let ns_entries = manifest
        .get("namespaces")
        .and_then(Value::as_arr)
        .ok_or_else(|| corrupt("manifest missing namespaces"))?;
    for entry in ns_entries {
        let ns = entry
            .get("ns")
            .and_then(Value::as_str)
            .ok_or_else(|| corrupt("namespace entry missing ns"))?;
        let snaps = entry
            .get("snaps")
            .and_then(Value::as_arr)
            .ok_or_else(|| corrupt("namespace entry missing snaps"))?;
        for snap_entry in snaps {
            let snap = snap_entry
                .get("snap")
                .and_then(Value::as_u64)
                .ok_or_else(|| corrupt("snapshot entry missing id"))?
                as u32;
            manifest_pairs.push((ns.to_string(), snap));
            let parts = snap_entry
                .get("parts")
                .and_then(Value::as_arr)
                .ok_or_else(|| corrupt("snapshot entry missing parts"))?;
            if parts.len() != partitions {
                return Err(corrupt("partition entry count mismatch"));
            }
            let mut runs: Vec<Vec<Arc<ColumnRun>>> = Vec::with_capacity(partitions);
            let mut source_len: Vec<u64> = Vec::with_capacity(partitions);
            for (p, part) in parts.iter().enumerate() {
                let want_rows = part
                    .get("rows")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| corrupt("partition entry missing rows"))?;
                let want_runs = part
                    .get("runs")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| corrupt("partition entry missing runs"))?;
                let recorded = part
                    .get("source_len")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| corrupt("partition entry missing source_len"))?;
                let log = store
                    .partition_log_path(ns, SnapshotId(snap), p)
                    .ok_or_else(|| corrupt("store lost its disk layout"))?;
                let actual = file_len_or_zero(&vfs, &log)?;
                if actual != recorded {
                    return Err(stale(format!(
                        "{ns}[{snap}] partition {p}: log is {actual} bytes, columns reflect {recorded}"
                    )));
                }
                let col_path = dir
                    .join(encode_ns(ns))
                    .join(format!("snap-{snap:04}"))
                    .join(format!("part-{p:03}.col"));
                let part_runs = read_runs(&vfs, &col_path, want_runs as usize)?;
                let rows: usize = part_runs.iter().map(|r| r.rows()).sum();
                if rows as u64 != want_rows {
                    return Err(corrupt(format!(
                        "{ns}[{snap}] partition {p}: decoded {rows} rows, manifest says {want_rows}"
                    )));
                }
                runs.push(part_runs);
                source_len.push(recorded);
            }
            set.install_loaded(ns, snap, runs, source_len);
        }
    }

    // The reverse direction: anything in the store the manifest does not
    // cover means writes (new namespaces/snapshots) happened after the
    // save — the projection is stale even though every probed length
    // matched.
    for ns in store.namespaces()? {
        for snap in store.snapshots(&ns) {
            if !manifest_pairs.iter().any(|(n, s)| *n == ns && *s == snap.0) {
                return Err(stale(format!(
                    "store has {ns}[{}] but the column manifest does not",
                    snap.0
                )));
            }
        }
    }

    set.set_version(version);
    Ok(set)
}

/// One partition's runs as `.col` bytes: each run's sealed payload in
/// its own CRC frame, in seal order (see module docs).
pub fn encode_partition(runs: &[Arc<ColumnRun>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        runs.iter().map(|r| frame::HEADER_LEN + r.encoded_len() + 1).sum(),
    );
    for run in runs {
        out.extend_from_slice(&frame::encode(run.sealed_bytes()));
    }
    out
}

/// Inverse of [`encode_partition`]. Zero bytes are an empty partition;
/// a frame that is torn, broken or fails its CRC, or a payload that is
/// not a run, is `Corrupt` — never a partial result.
pub fn decode_partition(bytes: &[u8]) -> Result<Vec<Arc<ColumnRun>>, ColumnError> {
    let mut runs = Vec::new();
    let mut offset = 0usize;
    loop {
        match frame::step(bytes, offset) {
            frame::Step::Ok { payload, next } => {
                let payload = bytes
                    .get(payload)
                    .ok_or_else(|| corrupt("frame payload out of range"))?;
                runs.push(Arc::new(ColumnRun::decode(payload)?));
                offset = next;
            }
            frame::Step::End => return Ok(runs),
            frame::Step::Corrupt { .. } | frame::Step::Torn | frame::Step::Broken => {
                return Err(corrupt(format!("bad run frame at byte {offset}")));
            }
        }
    }
}

/// Read and decode one `.col` file holding `want` runs. An absent file
/// with `want == 0` is an empty partition.
fn read_runs(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
    want: usize,
) -> Result<Vec<Arc<ColumnRun>>, ColumnError> {
    if !vfs.exists(path) {
        if want == 0 {
            return Ok(Vec::new());
        }
        return Err(corrupt(format!("{} missing", path.display())));
    }
    let runs = decode_partition(&vfs.read(path)?)?;
    if runs.len() != want {
        return Err(corrupt(format!(
            "{}: {} runs on disk, manifest says {want}",
            path.display(),
            runs.len()
        )));
    }
    Ok(runs)
}

fn read_manifest(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Object, ColumnError> {
    if !vfs.exists(path) {
        return Err(corrupt("MANIFEST missing"));
    }
    let bytes = vfs.read(path)?;
    let payload = match frame::step(&bytes, 0) {
        frame::Step::Ok { payload, next } if next == bytes.len() => bytes
            .get(payload)
            .ok_or_else(|| corrupt("manifest payload out of range"))?,
        _ => return Err(corrupt("MANIFEST frame invalid")),
    };
    let text =
        std::str::from_utf8(payload).map_err(|_| corrupt("MANIFEST not UTF-8"))?;
    let value = Value::parse(text).map_err(|e| corrupt(format!("MANIFEST json: {e}")))?;
    match value {
        Value::Obj(o) => Ok(o),
        _ => Err(corrupt("MANIFEST is not an object")),
    }
}

fn field_u64(obj: &Object, key: &str) -> Result<u64, ColumnError> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| corrupt(format!("manifest missing {key}")))
}

/// Load the persisted projection if it is present, committed and current;
/// otherwise rebuild it from the JSON log and persist the result. Returns
/// the set and whether a rebuild happened. This is the open path every
/// consumer uses — the projection is *never* trusted past its validation.
pub fn open_or_rebuild(
    store: &Store,
    config: ColumnConfig,
    telemetry: Option<&Telemetry>,
) -> Result<(ColumnSet, bool), ColumnError> {
    match load(store, config.clone(), telemetry) {
        Ok(set) => Ok((set, false)),
        Err(e) if e.needs_rebuild() => {
            let mut set = ColumnSet::new(store.partitions(), config);
            if let Some(t) = telemetry {
                set = set.with_telemetry(t);
            }
            set.rebuild_from_store(store)?;
            save(store, &set)?;
            Ok((set, true))
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_json::obj;
    use crowdnet_store::Document;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("crowdnet-column-{tag}-{}", std::process::id()))
    }

    fn seed(store: &Store, n: usize) {
        for i in 0..n {
            store
                .put(
                    crate::catalog::EDGE_NAMESPACE,
                    Document::new(
                        format!("user:{i}"),
                        obj! {"id" => i as u64, "role" => "investor",
                              "investments" => crowdnet_json::arr![1u64, 2u64]},
                    ),
                )
                .unwrap();
        }
    }

    #[test]
    fn save_load_round_trip() {
        let root = temp_root("roundtrip");
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::open(&root, 4).unwrap();
        seed(&store, 30);
        let set =
            ColumnSet::build_from_store(&store, ColumnConfig::default(), None).unwrap();
        assert!(save(&store, &set).unwrap() > 0);
        let loaded = load(&store, ColumnConfig::default(), None).unwrap();
        let want = store
            .scan_partitions(crate::catalog::EDGE_NAMESPACE, SnapshotId(0))
            .unwrap();
        assert_eq!(
            loaded
                .catalog()
                .docs_partitioned(crate::catalog::EDGE_NAMESPACE, SnapshotId(0))
                .unwrap(),
            want
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn appends_after_save_are_detected_as_stale() {
        let root = temp_root("stale");
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::open(&root, 2).unwrap();
        seed(&store, 10);
        let set =
            ColumnSet::build_from_store(&store, ColumnConfig::default(), None).unwrap();
        save(&store, &set).unwrap();
        // One more doc lands in some partition log.
        store
            .put(
                crate::catalog::EDGE_NAMESPACE,
                Document::new("user:10", obj! {"id" => 10u64, "role" => "employee"}),
            )
            .unwrap();
        let err = load(&store, ColumnConfig::default(), None).unwrap_err();
        assert!(matches!(err, ColumnError::Stale(_)), "{err}");
        assert!(err.needs_rebuild());
        // open_or_rebuild recovers and persists a fresh projection.
        let (set, rebuilt) = open_or_rebuild(&store, ColumnConfig::default(), None).unwrap();
        assert!(rebuilt);
        assert_eq!(
            set.catalog()
                .rows(crate::catalog::EDGE_NAMESPACE, SnapshotId(0))
                .unwrap(),
            11
        );
        assert!(!open_or_rebuild(&store, ColumnConfig::default(), None).unwrap().1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn new_namespace_after_save_is_stale() {
        let root = temp_root("newns");
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::open(&root, 2).unwrap();
        seed(&store, 5);
        let set =
            ColumnSet::build_from_store(&store, ColumnConfig::default(), None).unwrap();
        save(&store, &set).unwrap();
        store
            .put("angellist/companies", Document::new("company:1", obj! {"id" => 1u64}))
            .unwrap();
        let err = load(&store, ColumnConfig::default(), None).unwrap_err();
        assert!(err.needs_rebuild(), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_column_file_triggers_rebuild() {
        let root = temp_root("corrupt");
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::open(&root, 2).unwrap();
        seed(&store, 20);
        let set =
            ColumnSet::build_from_store(&store, ColumnConfig::default(), None).unwrap();
        save(&store, &set).unwrap();
        // Flip a byte in the middle of one column file.
        let dir = root.join(COLUMNS_DIR).join("angellist__users").join("snap-0000");
        let mut damaged = false;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            if bytes.len() > 40 {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xff;
                std::fs::write(&path, bytes).unwrap();
                damaged = true;
                break;
            }
        }
        assert!(damaged);
        let err = load(&store, ColumnConfig::default(), None).unwrap_err();
        assert!(err.needs_rebuild(), "{err}");
        let (set, rebuilt) = open_or_rebuild(&store, ColumnConfig::default(), None).unwrap();
        assert!(rebuilt);
        assert_eq!(
            set.catalog()
                .docs_partitioned(crate::catalog::EDGE_NAMESPACE, SnapshotId(0))
                .unwrap(),
            store
                .scan_partitions(crate::catalog::EDGE_NAMESPACE, SnapshotId(0))
                .unwrap()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn partition_bytes_round_trip_and_reject_damage() {
        let docs = |ids: std::ops::Range<usize>| -> Vec<Document> {
            ids.map(|i| Document::new(format!("user:{i:03}"), obj! {"id" => i as u64}))
                .collect()
        };
        // Two runs with an overlapping key: the second run re-appends it.
        let runs = vec![
            Arc::new(ColumnRun::from_docs(&docs(0..6), false)),
            Arc::new(ColumnRun::from_docs(&docs(4..9), false)),
        ];
        let bytes = encode_partition(&runs);
        let back = decode_partition(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in runs.iter().zip(&back) {
            assert_eq!(a.sealed_bytes(), b.sealed_bytes());
        }
        assert_eq!(
            crate::merge_runs(&back).unwrap(),
            crate::merge_runs(&runs).unwrap()
        );
        assert_eq!(encode_partition(&back), bytes);
        // No runs ⇔ no bytes.
        assert!(encode_partition(&[]).is_empty());
        assert!(decode_partition(&[]).unwrap().is_empty());
        // Every strict prefix that cuts into a frame is an error (a cut
        // on the frame boundary is simply a shorter, valid partition).
        let first_frame = frame::HEADER_LEN + runs[0].encoded_len() + 1;
        for cut in 1..bytes.len() {
            if cut != first_frame {
                assert!(decode_partition(&bytes[..cut]).is_err(), "cut at {cut}");
            }
        }
        // A flipped byte anywhere fails the frame walk or the CRC.
        for at in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[at] ^= 0x20;
            assert!(decode_partition(&damaged).is_err(), "flip at {at}");
        }
    }

    #[test]
    fn memory_store_save_is_noop_and_load_is_missing() {
        let store = Store::memory(2);
        seed(&store, 3);
        let set =
            ColumnSet::build_from_store(&store, ColumnConfig::default(), None).unwrap();
        assert_eq!(save(&store, &set).unwrap(), 0);
        assert!(matches!(
            load(&store, ColumnConfig::default(), None).unwrap_err(),
            ColumnError::Missing(_)
        ));
    }
}

//! `scan_store_with(.., f)` is `scan_store(..)?.flat_map(f)` fused into one
//! pool task per store partition: same partitions, same order, same
//! `store.scan.*` counts and the same error, at any thread count and on
//! either backend.

use crowdnet_dataflow::dataset::{scan_store, scan_store_with};
use crowdnet_dataflow::{Dataset, ExecCtx};
use crowdnet_json::{obj, Value};
use crowdnet_store::{frame, Document, MemFs, SnapshotId, Store, StoreError, Vfs};
use crowdnet_telemetry::Telemetry;
use std::sync::Arc;

const NS: &str = "ns";
const PARTITIONS: usize = 4;
const THREADS: [usize; 3] = [1, 2, 4];

/// 0, 1 or 2 items per document, each carrying the key so order is visible.
fn extract(doc: Document) -> impl Iterator<Item = (String, i64, i64)> {
    let v = doc.body.get("v").and_then(Value::as_i64).unwrap_or(-1);
    let key = doc.key;
    (0..v.rem_euclid(3)).map(move |j| (key.clone(), v, j))
}

/// Documents written out of key order, with some keys re-appended so the
/// canonical (stable) sort has duplicates to keep in write order.
fn fill(store: &Store) {
    for i in (0..40).rev() {
        store
            .put(NS, Document::new(format!("k:{i:02}"), obj! {"v" => i}))
            .unwrap();
    }
    for i in [3, 17, 17, 29, 8] {
        store
            .put(NS, Document::new(format!("k:{i:02}"), obj! {"v" => 51 + i}))
            .unwrap();
    }
}

fn memory_store(telemetry: &Telemetry) -> Store {
    let store = Store::memory(PARTITIONS).with_telemetry(telemetry);
    fill(&store);
    store
}

fn disk_store(telemetry: &Telemetry) -> (Store, Arc<MemFs>) {
    let fs = Arc::new(MemFs::new());
    let store = Store::open_with_vfs("/fused", PARTITIONS, fs.clone() as Arc<dyn Vfs>)
        .unwrap()
        .with_telemetry(telemetry);
    fill(&store);
    (store, fs)
}

/// `(calls, docs)` of `store.scan.*`.
fn scan_counts(telemetry: &Telemetry) -> (u64, u64) {
    (
        telemetry.counter("store.scan.calls").value(),
        telemetry.counter("store.scan.docs").value(),
    )
}

fn delta<T>(telemetry: &Telemetry, run: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = scan_counts(telemetry);
    let out = run();
    let after = scan_counts(telemetry);
    (out, (after.0 - before.0, after.1 - before.1))
}

fn assert_fused_equals_scan_then_flat_map(store: &Store, telemetry: &Telemetry) {
    let serial = store.scan_partitions(NS, SnapshotId(0)).unwrap();
    let docs: usize = serial.iter().map(Vec::len).sum();
    assert_eq!(docs, 45);
    let arities: std::collections::BTreeSet<usize> = serial
        .iter()
        .flatten()
        .map(|d| extract(d.clone()).count())
        .collect();
    assert_eq!(arities.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    for threads in THREADS {
        let ctx = ExecCtx::new(threads);
        let (identity, counts) = delta(telemetry, || {
            scan_store(store, NS, SnapshotId(0), ctx).unwrap()
        });
        assert_eq!(identity.partitions(), &serial[..], "threads={threads}");
        assert_eq!(counts, (1, docs as u64));

        let want = Dataset::from_partitions(serial.clone(), ctx).flat_map(extract);
        // Otherwise `store.scan.docs` could count items and still pass.
        assert_ne!(want.count(), docs);
        let (fused, counts) = delta(telemetry, || {
            scan_store_with(store, NS, SnapshotId(0), ctx, extract).unwrap()
        });
        assert_eq!(counts, (1, docs as u64), "threads={threads}");
        assert_eq!(fused.partition_count(), PARTITIONS);
        assert_eq!(fused.partitions(), want.partitions(), "threads={threads}");
        // Re-appended keys kept their write order.
        let flat = fused.collect();
        let dup: Vec<i64> = flat
            .iter()
            .filter(|(k, ..)| k == "k:17")
            .map(|t| t.1)
            .collect();
        assert_eq!(dup, vec![17, 17, 68, 68, 68, 68]);
    }
}

#[test]
fn fused_scan_equals_scan_then_flat_map_on_memory() {
    let telemetry = Telemetry::new();
    let store = memory_store(&telemetry);
    assert_fused_equals_scan_then_flat_map(&store, &telemetry);
}

#[test]
fn fused_scan_equals_scan_then_flat_map_on_disk() {
    let telemetry = Telemetry::new();
    let (store, _fs) = disk_store(&telemetry);
    assert_fused_equals_scan_then_flat_map(&store, &telemetry);
}

#[test]
fn missing_namespace_and_snapshot_errors_are_unchanged() {
    let telemetry = Telemetry::new();
    let (disk, _fs) = disk_store(&telemetry);
    for store in [memory_store(&telemetry), disk] {
        for threads in THREADS {
            let ctx = ExecCtx::new(threads);
            let ((ghost, snap), counts) = delta(&telemetry, || {
                (
                    scan_store_with(&store, "ghost", SnapshotId(0), ctx, extract).unwrap_err(),
                    scan_store_with(&store, NS, SnapshotId(9), ctx, extract).unwrap_err(),
                )
            });
            assert!(matches!(ghost, StoreError::NamespaceNotFound(ref ns) if ns == "ghost"));
            assert!(matches!(
                snap,
                StoreError::SnapshotNotFound { snapshot: 9, .. }
            ));
            assert_eq!(counts, (0, 0), "a failed scan is not counted");
        }
    }
}

#[test]
fn undecodable_records_fail_with_the_lowest_partitions_error() {
    let telemetry = Telemetry::new();
    let (store, fs) = disk_store(&telemetry);
    let sizes: Vec<usize> = store
        .scan_partitions(NS, SnapshotId(0))
        .unwrap()
        .iter()
        .map(Vec::len)
        .collect();
    // Two partitions whose first bad line numbers differ, so the error
    // says which partition it came from.
    let (lo, hi) = (0..PARTITIONS)
        .flat_map(|lo| (lo + 1..PARTITIONS).map(move |hi| (lo, hi)))
        .find(|&(lo, hi)| sizes[lo] != sizes[hi])
        .expect("two partitions of different size");
    for (p, garbage) in [(hi, &b"{\"k\": oops"[..]), (lo, &b"not json"[..])] {
        let path = store.partition_log_path(NS, SnapshotId(0), p).unwrap();
        fs.open_append(&path)
            .unwrap()
            .append(&frame::encode(garbage))
            .unwrap();
    }
    let serial = store.scan_partitions(NS, SnapshotId(0)).unwrap_err();
    assert!(matches!(serial, StoreError::Corrupt { line, .. } if line == sizes[lo]));
    for threads in THREADS {
        let (err, counts) = delta(&telemetry, || {
            scan_store_with(&store, NS, SnapshotId(0), ExecCtx::new(threads), extract).unwrap_err()
        });
        assert!(matches!(err, StoreError::Corrupt { line, .. } if line == sizes[lo]));
        assert_eq!(err.to_string(), serial.to_string(), "threads={threads}");
        assert_eq!(counts, (0, 0));
    }
}

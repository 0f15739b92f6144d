//! Store ↔ dataflow integration: the disk backend feeding partition-parallel
//! analytics, exactly as the crawl pipeline does with the memory backend.

use crowdnet_dataflow::dataset::scan_store;
use crowdnet_dataflow::ExecCtx;
use crowdnet_json::{obj, Value};
use crowdnet_store::{Document, SnapshotId, Store};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("crowdnet-int-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn disk_store_feeds_dataflow_joins() {
    let store = Store::open(temp_dir("joins"), 4).unwrap();
    for i in 0..200u32 {
        store
            .put(
                "left",
                Document::new(format!("k:{i}"), obj! {"id" => i, "x" => i * 2}),
            )
            .unwrap();
    }
    for i in 0..100u32 {
        store
            .put(
                "right",
                Document::new(format!("k:{i}"), obj! {"id" => i, "y" => i * 3}),
            )
            .unwrap();
    }
    let ctx = ExecCtx::new(4);
    let left = scan_store(&store, "left", SnapshotId(0), ctx)
        .unwrap()
        .map(|d| {
            (
                d.body.get("id").and_then(Value::as_u64).unwrap(),
                d.body.get("x").and_then(Value::as_u64).unwrap(),
            )
        })
        .key_by(|&(id, _)| id)
        .map_values(|(_, x)| x);
    let right = scan_store(&store, "right", SnapshotId(0), ctx)
        .unwrap()
        .map(|d| {
            (
                d.body.get("id").and_then(Value::as_u64).unwrap(),
                d.body.get("y").and_then(Value::as_u64).unwrap(),
            )
        })
        .key_by(|&(id, _)| id)
        .map_values(|(_, y)| y);
    let joined = left.join(right).collect();
    assert_eq!(joined.len(), 100);
    for (id, (x, y)) in joined {
        assert_eq!(x, id * 2);
        assert_eq!(y, id * 3);
    }
}

#[test]
fn snapshots_survive_reopen_and_scan_in_parallel() {
    let root = temp_dir("snapshots");
    {
        let store = Store::open(&root, 2).unwrap();
        store
            .put("ns", Document::new("a", obj! {"day" => 0}))
            .unwrap();
        let snap1 = store.new_snapshot("ns").unwrap();
        store
            .put_snapshot("ns", snap1, Document::new("a", obj! {"day" => 1}))
            .unwrap();
    }
    let store = Store::open(&root, 2).unwrap();
    assert_eq!(store.snapshots("ns").len(), 2);
    let ctx = ExecCtx::new(2);
    for (snap, expected_day) in [(SnapshotId(0), 0), (SnapshotId(1), 1)] {
        let days: Vec<i64> = scan_store(&store, "ns", snap, ctx)
            .unwrap()
            .map(|d| d.body.get("day").and_then(Value::as_i64).unwrap())
            .collect();
        assert_eq!(days, vec![expected_day]);
    }
}

#[test]
fn dataflow_statistics_agree_with_direct_computation() {
    use crowdnet_dataflow::stats::{Ecdf, Summary};
    use crowdnet_dataflow::Dataset;
    let values: Vec<f64> = (0..10_000).map(|i| ((i * 37) % 1000) as f64).collect();
    let ctx = ExecCtx::new(4);
    // Compute sum via the dataset engine, mean via stats, compare.
    let sum = Dataset::from_vec(values.clone(), ctx).reduce(0.0, |a, b| a + b, |a, b| a + b);
    let summary = Summary::of(&values).unwrap();
    assert!((sum / values.len() as f64 - summary.mean).abs() < 1e-9);
    let ecdf = Ecdf::new(values);
    assert_eq!(ecdf.eval(999.0), 1.0);
    assert!((ecdf.eval(499.0) - 0.5).abs() < 0.01);
}

/// The `Store::stats` the frame walk replaced: parse every document of the
/// latest snapshot and sum the lengths of their re-encoded envelopes.
fn parse_and_reencode_stats(store: &Store) -> Vec<crowdnet_store::store::NamespaceStats> {
    store
        .namespaces()
        .unwrap()
        .into_iter()
        .map(|ns| {
            let docs = store.scan(&ns).unwrap();
            crowdnet_store::store::NamespaceStats {
                encoded_bytes: docs
                    .iter()
                    .map(|d| {
                        obj! {"k" => d.key.as_str(), "b" => d.body.clone()}
                            .to_compact()
                            .len()
                    })
                    .sum(),
                documents: docs.len(),
                snapshots: store.snapshots(&ns).len(),
                namespace: ns,
            }
        })
        .collect()
}

#[test]
fn stats_from_the_frame_walk_equal_the_parse_and_reencode_oracle() {
    use crowdnet_core::pipeline::{Pipeline, PipelineConfig};
    use std::sync::Arc;
    for seed in [42, 7] {
        let outcome = Pipeline::new(PipelineConfig::tiny(seed)).run().unwrap();
        let memory = &outcome.store;
        let fs = Arc::new(crowdnet_store::MemFs::new());
        let disk = Store::open_with_vfs("/stats", memory.partitions(), fs).unwrap();
        for ns in memory.namespaces().unwrap() {
            for snap in memory.snapshots(&ns) {
                if snap.0 > 0 {
                    disk.new_snapshot(&ns).unwrap();
                }
                for doc in memory.scan_snapshot(&ns, snap).unwrap() {
                    disk.put_snapshot(&ns, snap, doc).unwrap();
                }
            }
        }
        for store in [memory, &disk] {
            assert_eq!(
                store.stats().unwrap(),
                parse_and_reencode_stats(store),
                "seed {seed}"
            );
        }
        // Further appends (escapes, multi-byte UTF-8, nested and empty
        // bodies) and a fresh snapshot move both stores past the memo.
        let extra = [
            Document::new(
                "user:\"quoted\"\n",
                obj! {"name" => "Zoë 🚀 \\ \u{1}", "tags" => obj! {}},
            ),
            Document::new(
                "user:日本",
                obj! {"nested" => obj! {"a" => crowdnet_json::arr![obj! {}, Value::Null]}},
            ),
        ];
        for store in [memory, &disk] {
            let ns = "angellist/users";
            for doc in &extra {
                store.put(ns, doc.clone()).unwrap();
            }
            store.put("brand/new", extra[0].clone()).unwrap();
            store.new_snapshot("angellist/companies").unwrap();
            assert_eq!(
                store.stats().unwrap(),
                parse_and_reencode_stats(store),
                "seed {seed} after appends"
            );
        }
    }
}

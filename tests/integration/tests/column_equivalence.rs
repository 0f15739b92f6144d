//! Equivalence properties for the columnar projection: for any mix of
//! store writes, the typed columns must decode back to *exactly* the
//! canonical JSON scan — same keys, same documents, same edges — whether
//! the projection was bootstrapped from a scan or maintained incrementally
//! through the ingest changefeed. Dataflow datasets and bipartite graphs
//! built off columns must be byte-identical to the JSON path. And because
//! the column store is derived, a crash in the middle of its on-disk
//! commit must never lose anything: the projection is rebuilt from the
//! JSON log on the next open.

use crowdnet_column::{open_or_rebuild, save, ColumnConfig, ColumnSet};
use crowdnet_crawl::augment::NS_CRUNCHBASE;
use crowdnet_crawl::social::{NS_FACEBOOK, NS_TWITTER};
use crowdnet_crawl::{CrawlConfig, Crawler};
use crowdnet_dataflow::dataset::scan_store;
use crowdnet_dataflow::{Dataset, ExecCtx};
use crowdnet_graph::BipartiteGraph;
use crowdnet_ingest::{IngestConfig, IngestEngine};
use crowdnet_json::{obj, Value};
use crowdnet_serve::artifacts::{NS_COMPANIES, NS_USERS};
use crowdnet_socialsim::{World, WorldConfig};
use crowdnet_store::{Document, FailpointFs, FaultPlan, MemFs, SnapshotId, Store, Vfs};
use crowdnet_telemetry::Telemetry;
use proptest::prelude::*;
use std::sync::Arc;

/// A non-graph namespace whose snapshot rotations exercise per-snapshot
/// projection state.
const NS_JOURNAL: &str = "journal/daily";

/// One random store write. `Odd` documents carry floats, bools, nulls,
/// string lists and nested objects so the typed columns, the integer-list
/// encoder and the JSON-residual fallback all see traffic.
#[derive(Debug, Clone)]
enum Op {
    Company(u32),
    Investor { id: u32, portfolio: Vec<u32> },
    Journal(u32),
    JournalSnapshot,
    Odd { id: u32, score: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..24).prop_map(Op::Company),
        ((100u32..116), proptest::collection::vec(0u32..24, 0..6))
            .prop_map(|(id, portfolio)| Op::Investor { id, portfolio }),
        (0u32..8).prop_map(Op::Journal),
        Just(Op::JournalSnapshot),
        ((0u32..12), (0u32..1000)).prop_map(|(id, score)| Op::Odd { id, score }),
    ]
}

fn apply(store: &Store, op: &Op) {
    match op {
        Op::Company(id) => store
            .put(
                NS_COMPANIES,
                Document::new(
                    format!("company:{id}"),
                    obj! {"id" => u64::from(*id), "name" => format!("c{id}")},
                ),
            )
            .expect("put company"),
        Op::Investor { id, portfolio } => {
            let arr: Vec<Value> =
                portfolio.iter().map(|&c| Value::from(u64::from(c))).collect();
            store
                .put(
                    NS_USERS,
                    Document::new(
                        format!("user:{id}"),
                        obj! {
                            "id" => u64::from(*id),
                            "role" => "investor",
                            "investments" => Value::Arr(arr)
                        },
                    ),
                )
                .expect("put investor")
        }
        Op::Journal(day) => store
            .put(
                NS_JOURNAL,
                Document::new(
                    format!("day:{day}"),
                    obj! {"day" => u64::from(*day), "funded" => u64::from(*day % 3)},
                ),
            )
            .expect("put journal"),
        Op::JournalSnapshot => {
            store.new_snapshot(NS_JOURNAL).expect("rotate snapshot");
        }
        Op::Odd { id, score } => store
            .put(
                NS_JOURNAL,
                Document::new(
                    format!("odd:{id}"),
                    obj! {
                        "id" => u64::from(*id),
                        "score" => f64::from(*score) / 8.0,
                        "flag" => *score % 2 == 0,
                        "gap" => Value::Null,
                        "tags" => Value::Arr(vec![
                            Value::from(format!("t{}", score % 5)),
                            Value::from("fixed"),
                        ]),
                        "meta" => obj! {"nested" => u64::from(*score)}
                    },
                ),
            )
            .expect("put odd"),
    }
}

/// Every `(namespace, snapshot)` the store holds.
fn all_snapshots(store: &Store) -> Vec<(String, SnapshotId)> {
    let mut out = Vec::new();
    let mut namespaces = store.namespaces().expect("namespaces");
    namespaces.sort();
    for ns in namespaces {
        for snap in store.snapshots(&ns) {
            out.push((ns.clone(), snap));
        }
    }
    out
}

/// Encode partitioned docs for byte comparison (partition-major order).
fn image(parts: &[Vec<Document>]) -> Vec<String> {
    parts.iter().flatten().map(Document::encode).collect()
}

/// The serving tier's investor→company edge walk over a canonical scan.
fn edges_json(store: &Store) -> Vec<(u32, u32)> {
    let Ok(parts) = store.scan_partitions(NS_USERS, SnapshotId(0)) else {
        return Vec::new();
    };
    let mut edges = Vec::new();
    for doc in parts.into_iter().flatten() {
        if doc.body.get("role").and_then(Value::as_str) != Some("investor") {
            continue;
        }
        let id = doc.body.get("id").and_then(Value::as_u64).unwrap_or(0) as u32;
        if let Some(arr) = doc.body.get("investments").and_then(Value::as_arr) {
            edges.extend(arr.iter().filter_map(Value::as_u64).map(|c| (id, c as u32)));
        }
    }
    edges
}

/// Assert the catalog is an exact projection of `store`: every snapshot's
/// decoded documents, the edge list, and dataflow/graph consumers all
/// byte-match the JSON path.
fn assert_projection_exact(
    store: &Store,
    catalog: &crowdnet_column::ColumnCatalog,
) -> Result<(), TestCaseError> {
    for (ns, snap) in all_snapshots(store) {
        let json = store.scan_partitions(&ns, snap).expect("json scan");
        let cols = catalog.docs_partitioned(&ns, snap).expect("column decode");
        prop_assert_eq!(image(&json), image(&cols));

        // The dataflow reader sees identical partitions in identical order.
        let ctx = ExecCtx::new(2);
        let via_store: Vec<String> = scan_store(store, &ns, snap, ctx)
            .expect("dataset scan")
            .map(|d| d.encode())
            .collect();
        let via_columns: Vec<String> = Dataset::from_columns(catalog, &ns, snap, ctx)
            .expect("dataset from columns")
            .map(|d| d.encode())
            .collect();
        prop_assert_eq!(via_store, via_columns);
    }

    // Edge segments replay the document-path extraction pair-for-pair, so
    // the graphs built from either side are identical.
    let json_edges = edges_json(store);
    if store.namespaces().expect("namespaces").contains(&NS_USERS.to_string()) {
        let col_edges = catalog.edges(NS_USERS, SnapshotId(0)).expect("edge segments");
        prop_assert_eq!(&json_edges, &col_edges);
        let g_json = BipartiteGraph::from_edges(json_edges);
        let g_cols = BipartiteGraph::from_edge_columns(catalog, NS_USERS, SnapshotId(0))
            .expect("graph from columns");
        prop_assert_eq!(g_json.investor_count(), g_cols.investor_count());
        prop_assert_eq!(g_json.company_count(), g_cols.company_count());
        for i in 0..g_json.investor_count() as u32 {
            prop_assert_eq!(g_json.investor_id(i), g_cols.investor_id(i));
            prop_assert_eq!(g_json.companies_of(i), g_cols.companies_of(i));
        }
    }
    Ok(())
}

proptest! {
    // Scenarios are in-memory store writes: cases are cheap.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bootstrap equivalence: for any op mix, a projection built from one
    /// scan decodes back to exactly the canonical JSON scan.
    #[test]
    fn bootstrapped_columns_decode_to_the_exact_json_scan(
        ops in proptest::collection::vec(op_strategy(), 0..48),
    ) {
        let store = Store::memory(3);
        for op in &ops {
            apply(&store, op);
        }
        let set = ColumnSet::build_from_store(&store, ColumnConfig::default(), None)
            .expect("build");
        prop_assert_eq!(set.version(), store.version());
        assert_projection_exact(&store, &set.catalog())?;
    }

    /// Incremental equivalence: a projection maintained through the ingest
    /// changefeed — any catch-up split and drain cadence — matches the
    /// bootstrap projection and the JSON scan exactly.
    #[test]
    fn incrementally_maintained_columns_match_bootstrap(
        ops in proptest::collection::vec(op_strategy(), 0..40),
        split in 0usize..40,
        drain_every in 1usize..6,
    ) {
        let store = Arc::new(Store::memory(2));
        let split = split.min(ops.len());
        for op in &ops[..split] {
            apply(&store, op);
        }
        let mut engine = IngestEngine::new(
            Arc::clone(&store),
            IngestConfig::default(),
            Telemetry::new(),
        )
        .expect("engine");
        for (i, op) in ops[split..].iter().enumerate() {
            apply(&store, op);
            if i % drain_every == drain_every - 1 {
                engine.drain().expect("drain");
            }
        }
        engine.drain().expect("final drain");
        engine.publish(None);
        let catalog = engine.columns_catalog();
        prop_assert_eq!(catalog.version(), store.version());
        assert_projection_exact(&store, &catalog)?;
    }
}

/// Derived-artifact recovery: crash the on-disk column commit at seeded
/// fault points, reopen over the surviving bytes, and prove the projection
/// is rebuilt from the JSON log — never trusted, nothing lost, and the
/// store itself untouched by the torn `.columns` state.
#[test]
fn crashed_column_commit_is_rebuilt_from_the_log() {
    const ROOT: &str = "/store";
    const PARTITIONS: usize = 2;

    let mut crashes_observed = 0;
    let mut save_crashes = 0;
    for (i, crash_at) in (1u64..80).step_by(3).enumerate() {
        // Seed a fresh store on a plain in-memory fs — these writes burn
        // no fault-plan ops, so the crash-point lands in the reopen or the
        // column commit itself.
        let mem = Arc::new(MemFs::new());
        {
            let store =
                Store::open_with_vfs(ROOT, PARTITIONS, Arc::clone(&mem) as Arc<dyn Vfs>).unwrap();
            for id in 0..40u32 {
                apply(&store, &Op::Company(id % 24));
                apply(
                    &store,
                    &Op::Investor { id: 100 + id % 16, portfolio: vec![id % 24, (id + 7) % 24] },
                );
                apply(&store, &Op::Odd { id: id % 12, score: id * 13 });
            }
        }
        let fs = Arc::new(FailpointFs::new(
            Arc::clone(&mem) as Arc<dyn Vfs>,
            FaultPlan::crash_at(i as u64 + 1, crash_at),
        ));
        let mut opened = false;
        let crashed = (|| {
            let store = Store::open_with_vfs(ROOT, PARTITIONS, Arc::clone(&fs) as Arc<dyn Vfs>)
                .map_err(|e| e.to_string())?;
            opened = true;
            let set = ColumnSet::build_from_store(&store, ColumnConfig::default(), None)
                .map_err(|e| e.to_string())?;
            save(&store, &set).map_err(|e| e.to_string())?;
            Ok::<(), String>(())
        })()
        .is_err();
        if crashed {
            assert!(fs.crashed(), "column commit failed for a non-injected reason");
            crashes_observed += 1;
            if opened {
                save_crashes += 1;
            }
        }

        // Reopen over whatever survived: the JSON log must be intact and
        // open_or_rebuild must hand back an exact projection, rebuilding
        // whenever the torn commit left no trustworthy columns.
        let store = Store::open_with_vfs(ROOT, PARTITIONS, Arc::clone(&mem) as Arc<dyn Vfs>)
            .unwrap_or_else(|e| panic!("store lost to a column crash at op {crash_at}: {e}"));
        let (set, _rebuilt) =
            open_or_rebuild(&store, ColumnConfig::default(), None).expect("open_or_rebuild");
        let catalog = set.catalog();
        assert_eq!(set.version(), store.version());
        for (ns, snap) in all_snapshots(&store) {
            let json = store.scan_partitions(&ns, snap).expect("json scan");
            let cols = catalog.docs_partitioned(&ns, snap).expect("column decode");
            assert_eq!(
                image(&json),
                image(&cols),
                "crash at op {crash_at}: recovered columns diverge for {ns}@{}",
                snap.0
            );
        }
        assert_eq!(edges_json(&store), catalog.edges(NS_USERS, SnapshotId(0)).unwrap());
    }
    assert!(crashes_observed >= 3, "sweep too shallow: only {crashes_observed} crash(es) fired");
    assert!(
        save_crashes >= 1,
        "no crash-point in the sweep landed inside the column commit itself"
    );
}

/// The projection is also the smaller encoding: over a crawled corpus,
/// every corpus namespace's sealed column runs weigh no more than the JSON
/// documents they project.
#[test]
fn crawled_corpus_columns_are_no_larger_than_their_json() {
    let world = Arc::new(World::generate(&WorldConfig::tiny(42)));
    let store = Store::memory(4);
    Crawler::new(world, CrawlConfig::default())
        .run(&store)
        .expect("crawl");
    let set = ColumnSet::build_from_store(&store, ColumnConfig::default(), None).expect("build");
    let catalog = set.catalog();
    for ns in [NS_COMPANIES, NS_USERS, NS_CRUNCHBASE, NS_FACEBOOK, NS_TWITTER] {
        let json_bytes: usize = store
            .scan_snapshot(ns, SnapshotId(0))
            .expect("scan")
            .iter()
            .map(|doc| doc.encode().len())
            .sum();
        let stats = catalog.snapshot_stats(ns, SnapshotId(0)).expect("stats");
        assert!(stats.rows > 0, "{ns}: no rows projected");
        assert!(
            stats.encoded_bytes <= json_bytes,
            "{ns}: columns {} B > JSON {json_bytes} B",
            stats.encoded_bytes
        );
    }
}

//! Serving tier end-to-end: a seeded pipeline feeds an in-process
//! [`Service`]; every endpoint answers, `/stats` reconciles exactly with
//! `Store::stats`, ad-hoc SQL matches `dataflow::sql::query` run directly,
//! and a second identical run produces byte-identical responses.

use crowdnet_core::pipeline::{Pipeline, PipelineConfig};
use crowdnet_dataflow::dataset::scan_store;
use crowdnet_dataflow::sql;
use crowdnet_json::Value;
use crowdnet_serve::{Request, Service, ServiceConfig};
use crowdnet_store::SnapshotId;
use crowdnet_telemetry::Telemetry;
use std::sync::Arc;

/// Seeded config at the default worker count: the store's canonical
/// per-partition key ordering at scan time makes document order (and
/// therefore every served byte) independent of crawl-thread interleaving.
fn seeded_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::tiny(7);
    cfg.crawl.fault_rate = 0.1;
    cfg.crawl.fault_seed = 5;
    cfg
}

fn seeded_service() -> Service {
    let outcome = Pipeline::new(seeded_config()).run().expect("pipeline");
    let mut cfg = ServiceConfig::default();
    cfg.artifacts.seed = 7;
    Service::new(Arc::new(outcome.store), cfg, Telemetry::new())
}

fn get(svc: &Service, target: &str) -> (u16, Value) {
    let resp = svc.handle(&Request::get(target));
    let body = std::str::from_utf8(&resp.body).expect("response is utf-8");
    (resp.status, Value::parse(body).expect("response is JSON"))
}

#[test]
fn every_endpoint_answers_200() {
    let svc = seeded_service();
    let targets = svc.example_targets().expect("targets");
    // The example surface covers every route in the endpoint table.
    for prefix in [
        "/healthz",
        "/stats",
        "/entity/",
        "/investor/",
        "/company/",
        "/communities",
        "/top/investors",
        "/sql",
    ] {
        assert!(
            targets.iter().any(|t| t.starts_with(prefix)),
            "no example target for {prefix}: {targets:?}"
        );
    }
    for target in targets {
        let (status, _) = get(&svc, &target);
        assert_eq!(status, 200, "endpoint {target} failed");
    }
}

#[test]
fn stats_reconciles_exactly_with_store_stats() {
    let svc = seeded_service();
    let (status, served) = get(&svc, "/stats");
    assert_eq!(status, 200);
    let direct = svc.store().stats().expect("store stats");
    let namespaces = served
        .get("namespaces")
        .and_then(Value::as_arr)
        .expect("namespaces array");
    assert_eq!(namespaces.len(), direct.len());
    for (s, d) in namespaces.iter().zip(&direct) {
        assert_eq!(
            s.get("namespace").and_then(Value::as_str),
            Some(d.namespace.as_str())
        );
        assert_eq!(
            s.get("documents").and_then(Value::as_u64),
            Some(d.documents as u64),
            "documents mismatch in {}",
            d.namespace
        );
        assert_eq!(
            s.get("encoded_bytes").and_then(Value::as_u64),
            Some(d.encoded_bytes as u64)
        );
        assert_eq!(
            s.get("snapshots").and_then(Value::as_u64),
            Some(d.snapshots as u64)
        );
    }
    assert_eq!(
        served.get("version").and_then(Value::as_u64),
        Some(svc.store().version())
    );
}

#[test]
fn sql_endpoint_matches_direct_dataflow_query() {
    let svc = seeded_service();
    let query_text = "SELECT role, COUNT(*) AS n FROM docs GROUP BY role ORDER BY n DESC";
    let encoded = "SELECT+role,+COUNT(*)+AS+n+FROM+docs+GROUP+BY+role+ORDER+BY+n+DESC";
    let (status, served) = get(
        &svc,
        &format!("/sql?ns=angellist%2Fusers&q={encoded}"),
    );
    assert_eq!(status, 200);

    let docs = scan_store(
        svc.store(),
        "angellist/users",
        SnapshotId(0),
        crowdnet_dataflow::ExecCtx::new(2),
    )
    .expect("scan");
    let direct = sql::query(query_text, docs.map(|d| d.body)).expect("direct query");

    let served_columns: Vec<&str> = served
        .get("columns")
        .and_then(Value::as_arr)
        .expect("columns")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(served_columns, direct.columns);
    let served_rows = served.get("rows").and_then(Value::as_arr).expect("rows");
    assert_eq!(served_rows.len(), direct.rows.len());
    for (s, d) in served_rows.iter().zip(&direct.rows) {
        assert_eq!(s.as_arr().expect("row is array"), d.as_slice());
    }
    assert_eq!(served.get("truncated"), Some(&Value::Bool(false)));
}

#[test]
fn graph_endpoints_reconcile_with_each_other() {
    let svc = seeded_service();
    let (_, top) = get(&svc, "/top/investors?by=degree&k=3");
    let investors = top.get("investors").and_then(Value::as_arr).expect("rows");
    assert!(!investors.is_empty());
    for row in investors {
        let id = row.get("id").and_then(Value::as_u64).expect("id");
        let degree = row.get("score").and_then(Value::as_u64).expect("score");
        let (status, portfolio) = get(&svc, &format!("/investor/{id}/portfolio"));
        assert_eq!(status, 200);
        assert_eq!(
            portfolio.get("degree").and_then(Value::as_u64),
            Some(degree),
            "top score and portfolio degree disagree for investor {id}"
        );
        // Entity lookup resolves the same investor.
        let (s2, entity) = get(&svc, &format!("/entity/user/{id}"));
        assert_eq!(s2, 200);
        assert_eq!(
            entity.get("body").and_then(|b| b.get("id")).and_then(Value::as_u64),
            Some(id)
        );
    }
}

#[test]
fn community_strength_metrics_are_served() {
    let svc = seeded_service();
    let (status, cover) = get(&svc, "/communities");
    assert_eq!(status, 200);
    let count = cover.get("count").and_then(Value::as_u64).expect("count");
    assert!(count > 0, "seeded world should detect communities");
    let list = cover
        .get("communities")
        .and_then(Value::as_arr)
        .expect("list");
    assert_eq!(list.len(), count as usize);
    // Detail endpoint agrees with the listing for each community.
    for summary in list {
        let id = summary.get("id").and_then(Value::as_u64).expect("id");
        let (s2, detail) = get(&svc, &format!("/communities/{id}"));
        assert_eq!(s2, 200);
        assert_eq!(detail.get("size"), summary.get("size"));
        assert_eq!(
            detail.get("avg_shared_investment"),
            summary.get("avg_shared_investment")
        );
        let members = detail.get("members").and_then(Value::as_arr).expect("members");
        assert_eq!(members.len() as u64, detail.get("size").and_then(Value::as_u64).expect("size"));
        // Every member's membership endpoint points back here.
        if let Some(first) = members.first().and_then(Value::as_u64) {
            let (_, membership) = get(&svc, &format!("/investor/{first}/communities"));
            let cids: Vec<u64> = membership
                .get("communities")
                .and_then(Value::as_arr)
                .expect("communities")
                .iter()
                .filter_map(Value::as_u64)
                .collect();
            assert!(cids.contains(&id));
        }
    }
}

/// Live-update scenario: an [`IngestEngine`] pins an epoch into the
/// service, a store append flows through the changefeed into a new epoch,
/// and every response after the swap reflects the new epoch — the result
/// cache never serves a stale body, and `/stats` reconciles exactly with
/// `Store::stats` frozen at the pinned epoch's version.
#[test]
fn live_append_swaps_epochs_without_serving_stale_responses() {
    use crowdnet_ingest::{IngestConfig, IngestEngine};
    use crowdnet_json::obj;
    use crowdnet_serve::artifacts::NS_USERS;
    use crowdnet_store::Document;

    let outcome = Pipeline::new(seeded_config()).run().expect("pipeline");
    let store = Arc::new(outcome.store);
    let mut cfg = ServiceConfig::default();
    cfg.artifacts.seed = 7;
    let svc = Service::new(Arc::clone(&store), cfg, Telemetry::new());
    let mut engine = IngestEngine::new(
        Arc::clone(&store),
        IngestConfig::default(),
        Telemetry::new(),
    )
    .expect("engine");
    let epoch0 = engine.publish(Some(&svc));

    // Pick a served investor and a company they have not invested in yet.
    let inv_idx = 0u32;
    let inv_id = epoch0.graph.investor_id(inv_idx);
    let held: Vec<u64> = epoch0.graph.companies_of(inv_idx)
        .iter()
        .map(|&c| u64::from(epoch0.graph.company_id(c)))
        .collect();
    let fresh_company = (0..epoch0.graph.company_count() as u32)
        .map(|c| u64::from(epoch0.graph.company_id(c)))
        .find(|cid| !held.contains(cid))
        .expect("an unheld company exists");

    // Warm the cache at epoch 0 and record the pre-append view.
    let (s0, stats0) = get(&svc, "/stats");
    assert_eq!(s0, 200);
    assert_eq!(
        stats0.get("version").and_then(Value::as_u64),
        Some(epoch0.version)
    );
    let (sp, portfolio0) = get(&svc, &format!("/investor/{inv_id}/portfolio"));
    assert_eq!(sp, 200);
    let degree0 = portfolio0.get("degree").and_then(Value::as_u64).expect("degree");
    assert_eq!(degree0, held.len() as u64);

    // Append the grown portfolio (full-array re-append; edges dedup).
    let grown: Vec<Value> = held
        .iter()
        .copied()
        .chain(std::iter::once(fresh_company))
        .map(Value::from)
        .collect();
    store
        .put(
            NS_USERS,
            Document::new(
                format!("user:{inv_id}"),
                obj! {
                    "id" => u64::from(inv_id),
                    "role" => "investor",
                    "investments" => Value::Arr(grown)
                },
            ),
        )
        .expect("append");
    let report = engine.drain().expect("drain");
    assert_eq!(report.docs, 1, "the append flows through the changefeed");
    let epoch1 = engine.publish(Some(&svc));
    assert!(epoch1.version > epoch0.version);
    assert_eq!(epoch1.version, store.version());
    let pinned = svc.pinned_epoch().expect("service is pinned");
    assert!(
        Arc::ptr_eq(&pinned.artifacts, &epoch1),
        "service serves the new epoch"
    );

    // The cached pre-append portfolio must not be served: the response
    // now reflects the extra edge.
    let (sp2, portfolio1) = get(&svc, &format!("/investor/{inv_id}/portfolio"));
    assert_eq!(sp2, 200);
    assert_eq!(
        portfolio1.get("degree").and_then(Value::as_u64),
        Some(degree0 + 1),
        "stale cached portfolio served after epoch swap"
    );

    // `/stats` answers from the new epoch and reconciles exactly with
    // the store at that version.
    let (s1, stats1) = get(&svc, "/stats");
    assert_eq!(s1, 200);
    assert_ne!(stats0, stats1, "stale cached /stats served after epoch swap");
    assert_eq!(
        stats1.get("version").and_then(Value::as_u64),
        Some(epoch1.version)
    );
    let direct = store.stats().expect("store stats");
    let namespaces = stats1
        .get("namespaces")
        .and_then(Value::as_arr)
        .expect("namespaces array");
    assert_eq!(namespaces.len(), direct.len());
    for (s, d) in namespaces.iter().zip(&direct) {
        assert_eq!(
            s.get("namespace").and_then(Value::as_str),
            Some(d.namespace.as_str())
        );
        assert_eq!(
            s.get("documents").and_then(Value::as_u64),
            Some(d.documents as u64),
            "documents mismatch in {}",
            d.namespace
        );
        assert_eq!(
            s.get("encoded_bytes").and_then(Value::as_u64),
            Some(d.encoded_bytes as u64)
        );
        assert_eq!(
            s.get("snapshots").and_then(Value::as_u64),
            Some(d.snapshots as u64)
        );
    }
}

#[test]
fn second_identical_run_is_byte_identical() {
    let collect = || {
        let svc = seeded_service();
        let mut bytes: Vec<u8> = Vec::new();
        for target in svc.example_targets().expect("targets") {
            if target == "/healthz" {
                continue; // reports live cache occupancy, not corpus data
            }
            bytes.extend_from_slice(&svc.handle(&Request::get(&target)).body);
            bytes.push(b'\n');
        }
        bytes
    };
    assert_eq!(collect(), collect(), "served bytes differ across runs");
}

//! Tier-1 coverage of the one endpoint table (`crowdnet_serve::router`):
//! the unsharded `Service`, a 1-shard `Router` and a 2-shard `Router`
//! seeded with the same corpus must answer every endpoint — happy paths,
//! every validation error, a wrong method and a POST-body query — with
//! the same status and the same bytes, and a dead shard must degrade to
//! flagged partials without a single 5xx. `/sql` additionally answers a
//! seeded panel of random queries over random corpora from projected
//! column runs, on every tier, exactly as the JSON-scan oracle does.

mod sql_panel;

use crowdnet_json::{obj, Value};
use crowdnet_serve::artifacts::{NS_COMPANIES, NS_USERS};
use crowdnet_serve::{Request, Service, ServiceConfig};
use crowdnet_shard::column::{ColumnConfig, ColumnSet};
use crowdnet_shard::{Router, RouterConfig, ShardSet};
use crowdnet_store::{Document, FeedPoll, Store};
use crowdnet_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const COMPANIES: u32 = 6;

/// Six companies and nine investors holding four of them each, so every
/// investor clears the ≥4 cleaning filter and communities exist.
fn corpus() -> Vec<(&'static str, Document)> {
    let mut docs = Vec::new();
    for id in 0..COMPANIES {
        docs.push((
            NS_COMPANIES,
            Document::new(
                format!("company:{id}"),
                obj! {"id" => u64::from(id), "name" => format!("c{id}")},
            ),
        ));
    }
    for inv in 0..9u32 {
        let companies: Vec<Value> = (0..COMPANIES)
            .filter(|c| (inv + c) % 3 != 0)
            .map(|c| Value::from(u64::from(c)))
            .collect();
        docs.push((
            NS_USERS,
            Document::new(
                format!("user:{}", 100 + inv),
                obj! {
                    "id" => u64::from(100 + inv),
                    "role" => "investor",
                    "investments" => Value::Arr(companies),
                },
            ),
        ));
    }
    docs
}

fn service() -> Service {
    let store = Store::memory(4);
    for (ns, doc) in corpus() {
        store.put(ns, doc).expect("put");
    }
    Service::new(Arc::new(store), ServiceConfig::default(), Telemetry::new())
}

fn router(shards: usize) -> Router {
    let telemetry = Telemetry::new();
    let set = ShardSet::memory(shards, 4, &telemetry).expect("shard set");
    for (ns, doc) in corpus() {
        set.put(ns, doc).expect("put");
    }
    Router::new(Arc::new(set), RouterConfig::default(), telemetry)
}

fn request(method: &str, target: &str, body: &[u8]) -> Request {
    Request {
        method: method.into(),
        target: target.into(),
        version: "HTTP/1.1".into(),
        headers: Vec::new(),
        body: body.to_vec(),
    }
}

/// Every example target plus one probe per validation and routing error.
fn probes(service: &Service) -> Vec<Request> {
    let mut probes: Vec<Request> = service
        .example_targets()
        .expect("example targets")
        .iter()
        .filter(|t| *t != "/healthz") // reports live per-tier state
        .map(|t| Request::get(t))
        .collect();
    for target in [
        "/entity/company/999",
        "/entity/planet/1",
        "/entity/company/xyz",
        "/investor/9999/portfolio",
        "/company/9999/investors",
        "/investor/9999/communities",
        "/communities/9999",
        "/top/investors?by=fame",
        "/top/investors?k=nope",
        "/top/investors?by=degree&k=3",
        "/sql?q=SELECT+1",
        "/sql?ns=angellist%2Fusers",
        "/sql?ns=ghost&q=SELECT+COUNT(*)+FROM+docs",
        "/sql?ns=angellist%2Fusers&q=NOT+SQL",
        "/no/such/route",
        "/",
    ] {
        probes.push(Request::get(target));
    }
    probes.push(request("DELETE", "/stats", b""));
    probes.push(request(
        "POST",
        "/sql?ns=angellist%2Fusers",
        b"SELECT COUNT(*) AS n FROM docs",
    ));
    probes
}

#[test]
fn every_tier_answers_the_endpoint_table_byte_identically() {
    let service = service();
    let routers = [router(1), router(2)];
    let probes = probes(&service);
    assert!(probes.len() >= 29, "probe surface shrank: {}", probes.len());
    for req in &probes {
        let direct = service.handle(req);
        for (router, shards) in routers.iter().zip([1, 2]) {
            let routed = router.handle(req);
            assert_eq!(
                direct.status, routed.status,
                "status diverged on {} {} with {shards} shard(s)",
                req.method, req.target
            );
            assert_eq!(
                direct.body,
                routed.body,
                "body diverged on {} {} with {shards} shard(s): {} vs {}",
                req.method,
                req.target,
                String::from_utf8_lossy(&direct.body),
                String::from_utf8_lossy(&routed.body),
            );
        }
    }
}

#[test]
fn a_dead_shard_degrades_to_flagged_partials_never_5xx() {
    let service = service();
    let router = router(2);
    router.set().kill(1).expect("kill shard 1");
    for req in probes(&service) {
        let resp = router.handle(&req);
        assert!(
            resp.status < 500,
            "5xx on {} {} with a shard down: {}",
            req.method,
            req.target,
            String::from_utf8_lossy(&resp.body)
        );
    }
    let stats = router.handle(&Request::get("/stats"));
    let body = std::str::from_utf8(&stats.body).expect("utf-8 body");
    let v = Value::parse(body).expect("json body");
    assert_eq!(v.get("partial").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(true));
    let degraded = v.get("degraded_shards").and_then(Value::as_arr);
    assert_eq!(degraded.map(|a| a.len()), Some(1));
}

/// The projection is exact: for random corpora (missing fields, explicit
/// nulls, dotted paths into nested objects, non-object bodies, mixed
/// number types, keys re-appended across sealed runs) and random queries
/// (filters, `IS [NOT] NULL`, GROUP BY with order-sensitive float SUM/AVG,
/// ORDER BY, LIMIT), every tier's `/sql` — rows holding only the
/// referenced fields, merged from runs — answers with the bytes of the
/// oracle that re-parses whole documents.
#[test]
fn sql_over_projected_runs_matches_the_json_scan_oracle_on_every_tier() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x5e1ec7 ^ seed);
        let batches = sql_panel::corpus(&mut rng);

        // Unsharded, lazy: the service projects the log itself (one run
        // per partition). Doubles as the oracle's store.
        let store = Arc::new(Store::memory(4));
        // Unsharded, offered: a maintainer's catalog with one run per
        // batch and partition, the way an ingest tier would hand it over.
        let offered_store = Arc::new(Store::memory(4));
        let feed = offered_store.subscribe(4096);
        let mut maintained = ColumnSet::new(4, ColumnConfig::default());
        // Local shards seal one run per refresh; a request between
        // batches forces the refresh.
        let routers: Vec<Router> = [1, 2, 4]
            .into_iter()
            .map(|shards| {
                let t = Telemetry::new();
                let set = ShardSet::memory(shards, 4, &t).expect("shard set");
                Router::new(Arc::new(set), RouterConfig::default(), t)
            })
            .collect();
        let count = sql_panel::request("SELECT COUNT(*) AS n FROM docs");
        for batch in &batches {
            for doc in batch {
                store.put(sql_panel::NS, doc.clone()).expect("put");
                offered_store.put(sql_panel::NS, doc.clone()).expect("put");
                for router in &routers {
                    router.set().put(sql_panel::NS, doc.clone()).expect("put");
                }
            }
            while let FeedPoll::Event(ev) = feed.poll() {
                maintained.apply_event(&ev);
            }
            maintained.seal();
            for router in &routers {
                assert_eq!(router.handle(&count).status, 200);
            }
        }
        let lazy = Service::new(Arc::clone(&store), ServiceConfig::default(), Telemetry::new());
        let offered = Service::new(offered_store, ServiceConfig::default(), Telemetry::new());
        let catalog = maintained.catalog();
        offered.install_columns(Arc::clone(&catalog));
        let served = offered.epoch().expect("epoch");
        assert!(Arc::ptr_eq(&served.columns, &catalog), "offered runs not served");
        let runs = catalog.stats().runs;
        assert!(runs > 4, "seed {seed}: corpus sealed only {runs} runs over 4 partitions");

        for _ in 0..16 {
            let sql = sql_panel::query(&mut rng);
            let req = sql_panel::request(&sql);
            let want = sql_panel::oracle(&store, &sql);
            let mut answers = vec![("lazy service", lazy.handle(&req))];
            answers.push(("offered multi-run service", offered.handle(&req)));
            for (router, shards) in routers.iter().zip(["1 shard", "2 shards", "4 shards"]) {
                answers.push((shards, router.handle(&req)));
            }
            for (tier, got) in answers {
                sql_panel::assert_answers_like(&format!("seed {seed}, {tier}"), &sql, &got, &want);
            }
        }
    }
}

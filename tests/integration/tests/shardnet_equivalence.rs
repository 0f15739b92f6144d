//! Equivalence property for the **out-of-process** shard tier: a
//! scatter-gather [`Router`] over N [`RemoteShard`] backends — each
//! talking to a real shard server over loopback TCP wire frames — must
//! answer every serve endpoint **byte-identically** to both the
//! in-process [`LocalShard`] deployment and the unsharded [`Service`],
//! for N ∈ {1, 2, 4}, across random interleavings of investor appends,
//! company appends, journal appends and snapshot rotations.
//! (`/healthz` reports live per-shard state by design and is skipped.)
//!
//! A second test interleaves writes with scans — write, scan, write,
//! scan — so every shard seals several column runs per partition with
//! the same keys re-appended across them, and checks the scan leg itself:
//! merged across shards it must equal the unsharded store's scan,
//! same-key documents in append order.
//!
//! A third runs the `/sql` projection panel (random corpora × random
//! queries, `tests/sql_panel`) through remote shards against the
//! JSON-scan oracle, then takes a shard server down: every query must
//! still answer, flagged `partial`, never 5xx.
//!
//! Version lockstep is asserted directly: the remote set's logical
//! version must mirror both the local set's and the unsharded store's
//! for the same op sequence — every write went over the wire through
//! the submit leg and still bumped exactly once.

use crowdnet_json::{obj, Value};
use crowdnet_serve::artifacts::{NS_COMPANIES, NS_USERS};
use crowdnet_serve::{bind, Request, Server, ServerConfig, Service, ServiceConfig, TcpHandle};
use crowdnet_shard::column::{merge_runs, ColumnRun};
use crowdnet_shard::{LocalShard, Router, RouterConfig, ShardBackend, ShardSet};
use crowdnet_shardnet::{RemoteShard, RemoteShardConfig, ShardServer};
use crowdnet_store::{Document, SnapshotId, Store};
use crowdnet_telemetry::Telemetry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[path = "../../sql_panel/mod.rs"]
mod sql_panel;

const NS_JOURNAL: &str = "journal/daily";

#[derive(Debug, Clone)]
enum Op {
    Company(u32),
    Investor { id: u32, portfolio: Vec<u32> },
    Journal(u32),
    JournalSnapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..24).prop_map(Op::Company),
        ((100u32..116), proptest::collection::vec(0u32..24, 0..6))
            .prop_map(|(id, portfolio)| Op::Investor { id, portfolio }),
        (0u32..8).prop_map(Op::Journal),
        Just(Op::JournalSnapshot),
    ]
}

fn doc_for(op: &Op) -> Option<(&'static str, Document)> {
    match op {
        Op::Company(id) => Some((
            NS_COMPANIES,
            Document::new(
                format!("company:{id}"),
                obj! {"id" => u64::from(*id), "name" => format!("c{id}")},
            ),
        )),
        Op::Investor { id, portfolio } => {
            let arr: Vec<Value> = portfolio
                .iter()
                .map(|&c| Value::from(u64::from(c)))
                .collect();
            Some((
                NS_USERS,
                Document::new(
                    format!("user:{id}"),
                    obj! {
                        "id" => u64::from(*id),
                        "role" => "investor",
                        "investments" => Value::Arr(arr)
                    },
                ),
            ))
        }
        Op::Journal(day) => Some((
            NS_JOURNAL,
            Document::new(
                format!("day:{day}"),
                obj! {"day" => u64::from(*day), "funded" => u64::from(*day % 3)},
            ),
        )),
        Op::JournalSnapshot => None,
    }
}

fn apply_store(store: &Store, op: &Op) {
    match doc_for(op) {
        Some((ns, doc)) => store.put(ns, doc).expect("store put"),
        None => {
            store.new_snapshot(NS_JOURNAL).expect("store snapshot");
        }
    }
}

fn apply_set(set: &ShardSet, op: &Op) {
    match doc_for(op) {
        Some((ns, doc)) => set.put(ns, doc).expect("set put"),
        None => {
            set.new_snapshot(NS_JOURNAL).expect("set snapshot");
        }
    }
}

fn base_ops() -> Vec<Op> {
    let mut ops: Vec<Op> = (0..6).map(Op::Company).collect();
    ops.extend((100u32..106).map(|id| Op::Investor {
        id,
        portfolio: (0..6).filter(|c| (id + c) % 3 != 0).collect(),
    }));
    ops.push(Op::Journal(1));
    ops
}

/// Fast-failing client config for loopback tests.
fn client_config() -> RemoteShardConfig {
    RemoteShardConfig {
        retries: 1,
        backoff_base_ms: 1,
        probe_interval_ms: 0,
        ..RemoteShardConfig::default()
    }
}

/// One in-process shard server per shard, listening on loopback, plus a
/// remote set routed at them. The handles keep the listeners alive.
fn remote_deployment(
    shards: usize,
    telemetry: &Telemetry,
) -> (Arc<ShardSet>, Vec<TcpHandle>) {
    let mut handles = Vec::new();
    let mut backends: Vec<Arc<dyn ShardBackend>> = Vec::new();
    for index in 0..shards {
        let server_telemetry = Telemetry::new();
        let shard =
            Arc::new(LocalShard::open_memory(index, 4, &server_telemetry).expect("local shard"));
        let handler = Arc::new(ShardServer::new(shard, &server_telemetry));
        let server = Arc::new(Server::with_handler(
            handler,
            server_telemetry,
            ServerConfig::default(),
        ));
        let handle = bind(server, 0).expect("bind shard server");
        let remote = RemoteShard::new(index, handle.addr(), client_config(), telemetry)
            .expect("remote shard");
        handles.push(handle);
        backends.push(Arc::new(remote));
    }
    (
        Arc::new(ShardSet::from_backends(backends, telemetry)),
        handles,
    )
}

/// Build all three deployments from the same op sequence, asserting
/// version lockstep across them.
fn build_triple(ops: &[Op], shards: usize) -> (Service, Router, Router, Vec<TcpHandle>) {
    let store = Arc::new(Store::memory(4));
    for op in ops {
        apply_store(&store, op);
    }

    let local_telemetry = Telemetry::new();
    let local_set =
        ShardSet::memory(shards, store.partitions(), &local_telemetry).expect("local set");
    for op in ops {
        apply_set(&local_set, op);
    }

    let remote_telemetry = Telemetry::new();
    let (remote_set, handles) = remote_deployment(shards, &remote_telemetry);
    for op in ops {
        apply_set(&remote_set, op);
    }

    assert_eq!(
        remote_set.version(),
        store.version(),
        "remote logical version must mirror the unsharded store"
    );
    assert_eq!(
        remote_set.version(),
        local_set.version(),
        "remote logical version must mirror the in-process set"
    );

    let service = Service::new(store, ServiceConfig::default(), Telemetry::new());
    let local_router = Router::new(Arc::new(local_set), RouterConfig::default(), local_telemetry);
    let remote_router = Router::new(remote_set, RouterConfig::default(), remote_telemetry);
    (service, local_router, remote_router, handles)
}

/// Every example target plus error and edge probes.
fn probe_targets(service: &Service) -> Vec<String> {
    let mut targets = service.example_targets().expect("example targets");
    targets.extend(
        [
            "/entity/company/999",
            "/entity/planet/1",
            "/investor/9999/portfolio",
            "/company/9999/investors",
            "/communities/9999",
            "/top/investors?by=degree&k=3",
            "/sql?ns=ghost&q=SELECT+COUNT(*)+FROM+docs",
            "/sql?ns=journal%2Fdaily&q=SELECT+COUNT(*)+AS+n+FROM+docs",
            "/no/such/route",
        ]
        .into_iter()
        .map(String::from),
    );
    targets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn remote_router_matches_local_and_unsharded_byte_for_byte(
        tail in proptest::collection::vec(op_strategy(), 0..32),
        shards in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    ) {
        let mut ops = base_ops();
        ops.extend(tail);
        let (service, local_router, remote_router, _handles) = build_triple(&ops, shards);
        for target in probe_targets(&service) {
            if target == "/healthz" {
                continue; // reports live per-shard state by design
            }
            let req = Request::get(&target);
            let direct = service.handle(&req);
            let local = local_router.handle(&req);
            let remote = remote_router.handle(&req);
            prop_assert!(
                direct.status == remote.status,
                "status diverged from unsharded on {} with {} remote shards: {} vs {}",
                target, shards, direct.status, remote.status
            );
            prop_assert!(
                direct.body == remote.body,
                "body diverged from unsharded on {} with {} remote shards: {} vs {}",
                target, shards,
                String::from_utf8_lossy(&direct.body),
                String::from_utf8_lossy(&remote.body)
            );
            prop_assert!(
                local.status == remote.status && local.body == remote.body,
                "remote diverged from the in-process shard tier on {} with {} shards",
                target, shards
            );
        }
    }
}

/// The router's merge of one scan leg per shard: per partition, the
/// shards' run lists concatenated in shard order, then one
/// `(key, run index)` merge over the lot.
fn merged_scan(set: &ShardSet, ns: &str, snap: u32) -> Vec<Vec<Document>> {
    let mut gathered: Vec<Vec<Arc<ColumnRun>>> = Vec::new();
    for shard in set.shards() {
        let parts = shard.scan_runs(ns, SnapshotId(snap)).expect("scan leg");
        gathered.resize_with(gathered.len().max(parts.len()), Vec::new);
        for (slot, runs) in gathered.iter_mut().zip(parts) {
            slot.extend(runs);
        }
    }
    gathered
        .iter()
        .map(|runs| merge_runs(runs).expect("sealed runs merge"))
        .collect()
}

#[test]
fn interleaved_writes_and_scans_keep_append_order_across_runs() {
    for shards in [1usize, 2, 4] {
        let store = Arc::new(Store::memory(4));
        let local_telemetry = Telemetry::new();
        let local_set = Arc::new(
            ShardSet::memory(shards, store.partitions(), &local_telemetry).expect("local set"),
        );
        let remote_telemetry = Telemetry::new();
        let (remote_set, _handles) = remote_deployment(shards, &remote_telemetry);
        let service = Service::new(
            Arc::clone(&store),
            ServiceConfig::default(),
            Telemetry::new(),
        );
        let local_router = Router::new(
            Arc::clone(&local_set),
            RouterConfig::default(),
            local_telemetry,
        );
        let remote_router = Router::new(
            Arc::clone(&remote_set),
            RouterConfig::default(),
            remote_telemetry,
        );

        let mut journal_snaps = 0u32;
        for round in 0u32..5 {
            // Each round re-appends keys earlier rounds wrote (a new run
            // on top of the old ones), writes one key twice (duplicates
            // inside one run) and adds fresh keys.
            let mut ops = vec![
                Op::Company(3),
                Op::Company(10 + round),
                Op::Investor { id: 100, portfolio: vec![round, round + 1] },
                Op::Investor { id: 100, portfolio: vec![3] },
                Op::Investor { id: 101 + round, portfolio: (0..round).collect() },
                Op::Journal(1),
                Op::Journal(round),
            ];
            if round == 2 {
                ops.push(Op::JournalSnapshot);
                ops.push(Op::Journal(1));
                journal_snaps += 1;
            }
            for op in &ops {
                apply_store(&store, op);
                apply_set(&local_set, op);
                apply_set(&remote_set, op);
            }

            // Scan between writes: this is what seals a run per touched
            // partition on every shard, local and remote.
            let mut snapshots = vec![(NS_USERS, 0), (NS_COMPANIES, 0)];
            snapshots.extend((0..=journal_snaps).map(|snap| (NS_JOURNAL, snap)));
            for (ns, snap) in snapshots {
                let want = store
                    .scan_partitions(ns, SnapshotId(snap))
                    .expect("store scan");
                assert_eq!(
                    merged_scan(&remote_set, ns, snap),
                    want,
                    "remote scan of {ns}[{snap}] diverged in round {round} at {shards} shard(s)"
                );
                assert_eq!(
                    merged_scan(&local_set, ns, snap),
                    want,
                    "local scan of {ns}[{snap}] diverged in round {round} at {shards} shard(s)"
                );
            }
            for target in probe_targets(&service) {
                if target == "/healthz" {
                    continue;
                }
                let req = Request::get(&target);
                let direct = service.handle(&req);
                let local = local_router.handle(&req);
                let remote = remote_router.handle(&req);
                assert_eq!(
                    (direct.status, &direct.body),
                    (remote.status, &remote.body),
                    "remote diverged from unsharded on {target} in round {round} at {shards} shard(s)"
                );
                assert_eq!(
                    (local.status, &local.body),
                    (remote.status, &remote.body),
                    "remote diverged from local on {target} in round {round} at {shards} shard(s)"
                );
            }
        }
    }
}

#[test]
fn sql_panel_over_remote_shards_matches_the_oracle_and_degrades_when_a_shard_dies() {
    for (seed, shards) in [(1u64, 1usize), (2, 2), (3, 4), (4, 2)] {
        let mut rng = StdRng::seed_from_u64(0x5e1ec7 ^ seed);
        let store = Store::memory(4);
        let telemetry = Telemetry::new();
        let (set, handles) = remote_deployment(shards, &telemetry);
        let router = Router::new(Arc::clone(&set), RouterConfig::default(), telemetry);
        let count = sql_panel::request("SELECT COUNT(*) AS n FROM docs");
        for batch in sql_panel::corpus(&mut rng) {
            for doc in batch {
                store.put(sql_panel::NS, doc.clone()).expect("store put");
                set.put(sql_panel::NS, doc).expect("set put");
            }
            // A scan between batches seals one run per touched partition
            // on every shard server.
            assert_eq!(router.handle(&count).status, 200);
        }
        let queries: Vec<String> = (0..16).map(|_| sql_panel::query(&mut rng)).collect();
        for sql in &queries {
            let got = router.handle(&sql_panel::request(sql));
            let want = sql_panel::oracle(&store, sql);
            let tier = format!("seed {seed}, {shards} remote shard(s)");
            sql_panel::assert_answers_like(&tier, sql, &got, &want);
        }

        // One shard server gone: whatever answers is flagged partial, and
        // nothing is a server error.
        let mut handles = handles;
        handles.pop().expect("a shard server").shutdown();
        for sql in &queries {
            let want = sql_panel::oracle(&store, sql);
            let got = router.handle(&sql_panel::request(sql));
            assert!(got.status < 500, "5xx with a dead shard server: {sql}");
            if want.status == 200 {
                assert_eq!(got.status, 200, "dead shard failed a valid query: {sql}");
                let body = Value::parse(std::str::from_utf8(&got.body).expect("utf-8"))
                    .expect("json body");
                assert_eq!(
                    body.get("partial").and_then(Value::as_bool),
                    Some(true),
                    "dead shard not flagged: {sql}"
                );
            }
        }
    }
}

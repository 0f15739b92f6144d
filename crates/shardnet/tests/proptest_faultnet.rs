//! Chaos-schedule robustness properties: a [`RemoteShard`] dialling
//! through an arbitrary seeded [`FaultNet`] plan must (a) never panic
//! and surface every failure as a typed [`ShardError`], (b) never wedge
//! its circuit breaker — after the network heals, a bounded probe loop
//! always readmits the shard and the breaker closes — and (c) replay
//! byte-identically at the same seed, including the backoff jitter
//! sleeps the retry loop drew along the way.
//!
//! The bulk `scan_partitions` leg gets its own property, one level up:
//! whatever breaks that exchange — a FaultNet fate on the request, or
//! column runs that arrive with a flipped byte or cut short — a
//! [`Router`] over the fleet answers a flagged partial, never a 5xx, and
//! answers whole again once the link is clean.
//!
//! The telemetry clock is left at its frozen default on purpose: leg
//! budgets then never expire mid-retry, so the attempt/backoff sequence
//! is a pure function of the fault schedule and the seeds — which is
//! exactly the replay contract `repro chaos` makes.

use crowdnet_chaos::{FaultNet, NetFaultPlan, Partition};
use crowdnet_json::obj;
use crowdnet_serve::http::{Request, Response};
use crowdnet_serve::server::{bind, RequestHandler, Server, ServerConfig, TcpHandle};
use crowdnet_shard::{
    LocalShard, Router, RouterConfig, ShardBackend, ShardError, ShardHealth, ShardSet, WriteOp,
};
use crowdnet_shardnet::{
    wire, BreakerConfig, BreakerState, RemoteShard, RemoteShardConfig, ShardServer,
};
use crowdnet_store::{Document, SnapshotId};
use crowdnet_telemetry::Telemetry;
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// The idempotent legs a schedule may exercise.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Leg {
    EpochMeta,
    ShardStats,
    EntityDocs,
    TopK,
    InvestorEdges,
}

fn leg_strategy() -> impl Strategy<Value = Leg> {
    prop_oneof![
        Just(Leg::EpochMeta),
        Just(Leg::ShardStats),
        Just(Leg::EntityDocs),
        Just(Leg::TopK),
        Just(Leg::InvestorEdges),
    ]
}

/// Arbitrary fault schedules, bounded so a black-holed read (which must
/// wait out the full leg timeout) cannot stretch a case past a few
/// hundred milliseconds.
fn plan_strategy() -> impl Strategy<Value = NetFaultPlan> {
    (
        (any::<u64>(), 0.0f64..0.3, 0.0f64..0.15, 0.0f64..0.35),
        (0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.2, 0.0f64..0.5, 0u64..40),
        // Mostly unpartitioned; a structural partition fails everything,
        // which the dedicated property below covers head-on.
        (0u8..6).prop_map(|p| match p {
            0 => Partition::DropRequests,
            1 => Partition::DropResponses,
            _ => Partition::None,
        }),
    )
        .prop_map(
            |((seed, refused, hole, reset), (trunc, drip, black, delay, delay_ms), partition)| {
                NetFaultPlan {
                    seed,
                    connect_refused: refused,
                    connect_black_hole: hole,
                    reset,
                    truncate_write: trunc,
                    drip_read: drip,
                    black_hole: black,
                    delay,
                    delay_ms,
                    partition,
                }
            },
        )
}

/// Shard server on an ephemeral port, sized so a connection wedged by a
/// truncated request sheds in 50ms instead of starving the workers.
fn serve_shard(telemetry: &Telemetry) -> (TcpHandle, Arc<LocalShard>) {
    let shard = Arc::new(LocalShard::open_memory(0, 4, telemetry).expect("shard"));
    shard
        .submit(&WriteOp::Put {
            ns: "angellist/users".into(),
            doc: Document::new("user:7", obj! {"id" => 7u64, "name" => "ada"}),
        })
        .expect("seed doc");
    let handler = Arc::new(ShardServer::new(Arc::clone(&shard), telemetry));
    let cfg = ServerConfig {
        workers: 2,
        read_timeout_ms: 50,
        idle_timeout_ms: 2_000,
        ..ServerConfig::default()
    };
    let server = Server::with_handler(handler, telemetry.clone(), cfg);
    (bind(Arc::new(server), 0).expect("bind"), shard)
}

/// Run one schedule end to end and render its transcript: per-leg
/// outcome kinds, the healed-recovery tail, the backoff history and the
/// injected-fault tally. Two runs at the same seeds must produce the
/// same bytes.
fn run_schedule(client_seed: u64, plan: NetFaultPlan, legs: &[Leg]) -> String {
    let telemetry = Telemetry::new();
    let (handle, _shard) = serve_shard(&telemetry);
    let net = Arc::new(FaultNet::over_real(plan, &telemetry));
    let cfg = RemoteShardConfig {
        connect_timeout_ms: 100,
        leg_timeout_ms: 250,
        retries: 1,
        backoff_base_ms: 1,
        seed: client_seed,
        pool_capacity: 2,
        probe_interval_ms: 0,
        breaker: BreakerConfig {
            consecutive_failures: 2,
            ..BreakerConfig::default()
        },
    };
    let remote = RemoteShard::with_transport(
        0,
        handle.addr(),
        cfg,
        Arc::clone(&net) as Arc<dyn crowdnet_chaos::Transport>,
        &telemetry,
    )
    .expect("client");

    let mut transcript = String::new();
    for (i, leg) in legs.iter().enumerate() {
        let result = match leg {
            Leg::EpochMeta => remote.epoch_meta().map(|_| ()),
            Leg::ShardStats => remote.shard_stats().map(|_| ()),
            Leg::EntityDocs => remote
                .entity_docs(&["user:7".to_string(), "user:404".to_string()])
                .map(|_| ()),
            Leg::TopK => remote.top_k_prefix(3).map(|_| ()),
            Leg::InvestorEdges => remote.investor_edges(7).map(|_| ()),
        };
        let kind = match &result {
            Ok(()) => "ok",
            Err(e) if e.is_transport() => "transport",
            Err(_) => "logical",
        };
        let _ = writeln!(transcript, "[{i}] {leg:?} -> {kind}");
    }

    // Heal the network; the breaker must never wedge: a bounded probe
    // loop readmits the shard and one clean leg closes the breaker.
    net.heal();
    let mut probes = 0;
    while remote.health() != ShardHealth::Healthy {
        probes += 1;
        assert!(probes <= 50, "breaker wedged: shard never readmitted");
    }
    remote.epoch_meta().expect("healed leg succeeds");
    assert_eq!(
        remote.breaker_state(),
        BreakerState::Closed,
        "breaker did not close after a successful healed leg"
    );

    let _ = writeln!(transcript, "probes={probes}");
    let _ = writeln!(transcript, "backoff={:?}", remote.backoff_history());
    let _ = writeln!(transcript, "injected: {}", net.injected().summary());
    handle.shutdown();
    transcript
}

const NS_USERS: &str = "angellist/users";

/// An ad-hoc scan no earlier request can have cached.
fn scan_request(nonce: usize) -> Request {
    Request::get(&format!(
        "/sql?ns=angellist%2Fusers&q=SELECT+COUNT(*)+AS+n+FROM+docs&nonce={nonce}"
    ))
}

/// One way to break a bulk exchange.
#[derive(Debug, Clone, Copy)]
enum BulkFault {
    /// FaultNet fate: the link resets partway through the request.
    ResetRequest,
    /// FaultNet fate: the request is silently truncated.
    TruncateRequest,
    /// The reply's column payload arrives with the byte at this relative
    /// position flipped.
    FlipReply(f64),
    /// The reply's column payload is cut at this relative position.
    CutReply(f64),
}

fn bulk_fault_strategy() -> impl Strategy<Value = BulkFault> {
    prop_oneof![
        Just(BulkFault::ResetRequest),
        Just(BulkFault::TruncateRequest),
        (0.0f64..1.0).prop_map(BulkFault::FlipReply),
        (0.0f64..1.0).prop_map(BulkFault::CutReply),
    ]
}

/// A shard server whose `scan_partitions` replies can be damaged behind
/// the envelope frame — what a corrupting link does to the column runs
/// (FaultNet's own fates all act on the request half of an exchange).
struct DamagedScans {
    inner: ShardServer,
    damage: Mutex<Option<BulkFault>>,
}

impl RequestHandler for DamagedScans {
    fn handle(&self, req: &Request) -> Response {
        let mut resp = self.inner.handle(req);
        if req.path() != "/shard/scan_partitions" {
            return resp;
        }
        let damage = *self.damage.lock().expect("damage lock");
        let payload_len = wire::split_frame(&resp.body).map_or(0, |(_, tail)| tail.len());
        let at = |unit: f64| {
            let offset = ((payload_len as f64 * unit) as usize).min(payload_len - 1);
            resp.body.len() - payload_len + offset
        };
        match damage {
            Some(BulkFault::FlipReply(unit)) if payload_len > 0 => {
                let pos = at(unit);
                resp.body[pos] ^= 0x5a;
            }
            Some(BulkFault::CutReply(unit)) if payload_len > 0 => {
                let pos = at(unit);
                resp.body.truncate(pos);
            }
            _ => {}
        }
        resp
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Break the victim's bulk exchange any of four ways: the router
    /// answers 200 with `"partial": true` (the healthy shard's slice),
    /// damaged runs are a counted `Protocol` error on the client, and
    /// with the link clean again the answer is whole and unflagged.
    #[test]
    fn bulk_leg_faults_degrade_to_partials_never_5xx(
        client_seed in any::<u64>(),
        net_seed in any::<u64>(),
        fault in bulk_fault_strategy(),
    ) {
        let telemetry = Telemetry::new();
        let server_cfg = || ServerConfig {
            workers: 2,
            read_timeout_ms: 50,
            idle_timeout_ms: 2_000,
            ..ServerConfig::default()
        };
        let client_cfg = RemoteShardConfig {
            connect_timeout_ms: 100,
            leg_timeout_ms: 250,
            retries: 1,
            backoff_base_ms: 1,
            seed: client_seed,
            pool_capacity: 2,
            probe_interval_ms: 0,
            breaker: BreakerConfig { consecutive_failures: 2, ..BreakerConfig::default() },
        };

        // Shard 0: clean. Shard 1: the victim, behind a FaultNet and a
        // reply-damaging handler, both switched off for now.
        let shard0 = Arc::new(LocalShard::open_memory(0, 4, &telemetry).expect("shard 0"));
        let handle0 = bind(
            Arc::new(Server::with_handler(
                Arc::new(ShardServer::new(shard0, &telemetry)),
                telemetry.clone(),
                server_cfg(),
            )),
            0,
        )
        .expect("bind 0");
        let shard1 = Arc::new(LocalShard::open_memory(1, 4, &telemetry).expect("shard 1"));
        let victim_handler = Arc::new(DamagedScans {
            inner: ShardServer::new(shard1, &telemetry),
            damage: Mutex::new(None),
        });
        let handle1 = bind(
            Arc::new(Server::with_handler(
                Arc::clone(&victim_handler) as Arc<dyn RequestHandler>,
                telemetry.clone(),
                server_cfg(),
            )),
            0,
        )
        .expect("bind 1");
        let net = Arc::new(FaultNet::over_real(NetFaultPlan::none(net_seed), &telemetry));
        let remote0 = Arc::new(
            RemoteShard::new(0, handle0.addr(), client_cfg.clone(), &telemetry).expect("client 0"),
        );
        let victim = Arc::new(
            RemoteShard::with_transport(
                1,
                handle1.addr(),
                client_cfg,
                Arc::clone(&net) as Arc<dyn crowdnet_chaos::Transport>,
                &telemetry,
            )
            .expect("client 1"),
        );
        let set = Arc::new(ShardSet::from_backends(
            vec![
                Arc::clone(&remote0) as Arc<dyn ShardBackend>,
                Arc::clone(&victim) as Arc<dyn ShardBackend>,
            ],
            &telemetry,
        ));
        for id in 0..24u64 {
            set.put(NS_USERS, Document::new(format!("user:{id}"), obj! {"id" => id}))
                .expect("put");
        }
        prop_assert!(
            !victim.scan_partitions(NS_USERS, SnapshotId(0)).expect("clean scan").concat().is_empty(),
            "the victim holds none of the corpus"
        );
        let router = Router::new(Arc::clone(&set), RouterConfig::default(), telemetry.clone());
        let clean = router.handle(&scan_request(0));
        prop_assert_eq!(clean.status, 200);
        prop_assert!(!String::from_utf8_lossy(&clean.body).contains("\"partial\":true"));

        // Break the bulk exchange.
        let malformed_before = telemetry.counter("shardnet.frames.malformed").value();
        match fault {
            BulkFault::ResetRequest => {
                net.set_plan(NetFaultPlan { reset: 1.0, ..NetFaultPlan::none(net_seed) })
            }
            BulkFault::TruncateRequest => {
                net.set_plan(NetFaultPlan { truncate_write: 1.0, ..NetFaultPlan::none(net_seed) })
            }
            damage => *victim_handler.damage.lock().expect("damage lock") = Some(damage),
        }
        if matches!(fault, BulkFault::FlipReply(_) | BulkFault::CutReply(_)) {
            // Damaged runs: a counted protocol error, transport class.
            match victim.scan_partitions(NS_USERS, SnapshotId(0)) {
                Err(e @ ShardError::Protocol(_)) => prop_assert!(e.is_transport()),
                other => prop_assert!(false, "damaged runs answered {other:?}"),
            }
            prop_assert_eq!(
                telemetry.counter("shardnet.frames.malformed").value(),
                malformed_before + 1
            );
        }
        for nonce in 1..4 {
            let degraded = router.handle(&scan_request(nonce));
            prop_assert!(degraded.status == 200, "{fault:?} answered {}", degraded.status);
            prop_assert!(
                String::from_utf8_lossy(&degraded.body).contains("\"partial\":true"),
                "{fault:?} was not flagged partial: {}",
                String::from_utf8_lossy(&degraded.body)
            );
        }

        // Clean link again: the victim is readmitted and answers whole.
        net.heal();
        *victim_handler.damage.lock().expect("damage lock") = None;
        let mut probes = 0;
        while victim.health() != ShardHealth::Healthy {
            probes += 1;
            prop_assert!(probes <= 50, "victim never readmitted");
        }
        let healed = router.handle(&scan_request(4));
        prop_assert_eq!(healed.status, 200);
        prop_assert_eq!(healed.body, clean.body);

        drop(router);
        drop(set);
        drop(remote0);
        drop(victim);
        handle0.shutdown();
        handle1.shutdown();
    }
}

proptest! {
    // Each case spins real sockets and may wait out real read timeouts;
    // a handful of cases already walks every fault class.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the schedule throws, every leg resolves to a typed
    /// outcome, the breaker recovers once the network heals, and the
    /// whole run replays byte-identically at the same seeds.
    #[test]
    fn arbitrary_schedules_recover_and_replay(
        client_seed in any::<u64>(),
        plan in plan_strategy(),
        legs in proptest::collection::vec(leg_strategy(), 4..10),
    ) {
        let first = run_schedule(client_seed, plan.clone(), &legs);
        let second = run_schedule(client_seed, plan, &legs);
        prop_assert_eq!(first, second);
    }

    /// A full partition is the worst schedule: every leg fails, the
    /// breaker opens — and healing still readmits the shard.
    #[test]
    fn full_partitions_open_the_breaker_and_heal(
        client_seed in any::<u64>(),
        net_seed in any::<u64>(),
        drop_responses in any::<bool>(),
    ) {
        let partition = if drop_responses {
            Partition::DropResponses
        } else {
            Partition::DropRequests
        };
        let plan = NetFaultPlan::partitioned(net_seed, partition);
        let transcript = run_schedule(client_seed, plan, &[Leg::EpochMeta; 4]);
        prop_assert!(
            transcript.lines().take(4).all(|l| l.ends_with("-> transport")),
            "partitioned legs answered: {transcript}"
        );
    }
}

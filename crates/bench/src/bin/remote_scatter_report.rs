//! `remote-scatter-report` — machine-readable numbers for the
//! out-of-process shard tier, written as `BENCH_remote_scatter.json`:
//!
//! - **Per-leg latency**: p50/p99 of each serializable leg called
//!   directly on an in-process [`LocalShard`] vs through a
//!   [`RemoteShard`] over loopback TCP wire frames — the cost of the
//!   process boundary itself (connect/pool, HTTP framing, codec) — plus
//!   the bulk `scan_partitions` reply's **bytes on the wire** (sealed
//!   column runs behind the envelope), next to what the same slice
//!   weighed as the JSON document frame it replaced.
//! - **Scatter sweep** (1/2/4 remote shards): closed-loop wall
//!   throughput and latency quantiles for cache-busted `/sql` scans
//!   through the router, every leg of which crosses the wire.
//! - **Degraded mode** (gated): kill one of three shard servers by
//!   shutting its listener down; every response must stay below 500 and
//!   some must carry `"partial": true`. Zero 5xx is a hard gate, as is
//!   at least one flagged partial.
//!
//! ```sh
//! cargo run --release -p crowdnet-bench --bin remote-scatter-report [-- OUT.json]
//! ```

use crowdnet_core::pipeline::{Pipeline, PipelineConfig};
use crowdnet_json::{obj, Value};
use crowdnet_serve::{bind, Request, RequestHandler, Server, ServerConfig, TcpHandle};
use crowdnet_shard::{LocalShard, Router, RouterConfig, ShardBackend, ShardSet};
use crowdnet_shardnet::{wire, RemoteShard, RemoteShardConfig, ShardServer};
use crowdnet_socialsim::Clock;
use crowdnet_store::{SnapshotId, Store};
use crowdnet_telemetry::Telemetry;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SEED: u64 = 42;
/// Front-end worker threads (and closed-loop clients) for every sweep row.
const WORKERS: usize = 4;
/// Requests each closed-loop client issues during the timed window.
const REQUESTS_PER_CLIENT: usize = 60;
/// Timed repetitions of each per-leg latency probe.
const LEG_REPS: usize = 50;
/// Namespace the `/sql` workload (and the leg probes) drains.
const SCAN_NS: &str = "angellist/users";
/// Requests issued against the degraded (one server down) deployment.
const DEGRADED_REQUESTS: usize = 45;

fn wall_telemetry() -> Telemetry {
    let telemetry = Telemetry::new();
    let wall = crowdnet_socialsim::clock::SystemClock;
    telemetry.bind_clock(Arc::new(move || wall.now_ms()));
    telemetry
}

fn quantile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn sql_target(nonce: &str) -> String {
    format!("/sql?ns=angellist%2Fusers&q=SELECT+COUNT(*)+AS+n+FROM+docs&nonce={nonce}")
}

/// One shard server on loopback plus the remote client pointed at it.
/// The handle keeps the listener alive for as long as the caller holds it.
struct RemoteLeg {
    remote: Arc<RemoteShard>,
    handler: Arc<ShardServer>,
    handle: TcpHandle,
}

fn spawn_shard_server(
    index: usize,
    store: &Store,
    client_telemetry: &Telemetry,
) -> Result<RemoteLeg, Box<dyn std::error::Error>> {
    let server_telemetry = Telemetry::new();
    let shard = Arc::new(LocalShard::open_memory(
        index,
        store.partitions(),
        &server_telemetry,
    )?);
    let handler = Arc::new(ShardServer::new(shard, &server_telemetry));
    let server = Arc::new(Server::with_handler(
        Arc::clone(&handler) as Arc<dyn RequestHandler>,
        server_telemetry,
        ServerConfig::default(),
    ));
    let handle = bind(server, 0)?;
    let remote = Arc::new(RemoteShard::new(
        index,
        handle.addr(),
        RemoteShardConfig::default(),
        client_telemetry,
    )?);
    Ok(RemoteLeg { remote, handler, handle })
}

/// Build a remote deployment over `store`: `shards` shard servers on
/// loopback, a set of [`RemoteShard`] backends imported over the wire,
/// and the router behind the bounded worker pool.
fn deploy_remote(
    store: &Store,
    shards: usize,
    telemetry: &Telemetry,
) -> Result<(Arc<ShardSet>, Arc<Server>, Vec<TcpHandle>), Box<dyn std::error::Error>> {
    let mut handles = Vec::new();
    let mut backends: Vec<Arc<dyn ShardBackend>> = Vec::new();
    for index in 0..shards {
        let leg = spawn_shard_server(index, store, telemetry)?;
        backends.push(Arc::clone(&leg.remote) as Arc<dyn ShardBackend>);
        handles.push(leg.handle);
    }
    let set = Arc::new(ShardSet::from_backends(backends, telemetry));
    set.import_store(store)?;
    let router = Router::new(Arc::clone(&set), RouterConfig::default(), telemetry.clone());
    let server = Arc::new(Server::with_handler(
        Arc::new(router),
        telemetry.clone(),
        ServerConfig {
            workers: WORKERS,
            queue_capacity: 256,
            ..ServerConfig::default()
        },
    ));
    Ok((set, server, handles))
}

/// Time `LEG_REPS` calls of each leg against a backend; returns
/// `(leg, p50_us, p99_us)` rows.
fn leg_latencies(
    backend: &dyn ShardBackend,
) -> Result<Vec<(&'static str, u64, u64)>, Box<dyn std::error::Error>> {
    let keys: Vec<String> = (0..4).map(|i| format!("user:{i}")).collect();
    let mut rows = Vec::new();
    let legs: Vec<(&'static str, Box<dyn Fn() -> Result<(), String>>)> = vec![
        (
            "epoch_meta",
            Box::new(|| backend.epoch_meta().map(|_| ()).map_err(|e| e.to_string())),
        ),
        (
            "scan_partitions",
            Box::new(|| {
                backend
                    .scan_partitions(SCAN_NS, SnapshotId(0))
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }),
        ),
        (
            "entity_docs",
            Box::new(|| backend.entity_docs(&keys).map(|_| ()).map_err(|e| e.to_string())),
        ),
        (
            "top_k_prefix",
            Box::new(|| backend.top_k_prefix(5).map(|_| ()).map_err(|e| e.to_string())),
        ),
        (
            "shard_stats",
            Box::new(|| backend.shard_stats().map(|_| ()).map_err(|e| e.to_string())),
        ),
    ];
    for (name, call) in legs {
        let mut us = Vec::with_capacity(LEG_REPS);
        for _ in 0..LEG_REPS {
            let t0 = Instant::now();
            call()?;
            us.push(t0.elapsed().as_micros() as u64);
        }
        us.sort_unstable();
        rows.push((name, quantile(&us, 0.5), quantile(&us, 0.99)));
    }
    Ok(rows)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_remote_scatter.json".into());
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let outcome = Pipeline::new(PipelineConfig::tiny(SEED)).run()?;
    let store = outcome.store;

    // Per-leg latency: the same single-shard corpus behind an in-process
    // LocalShard and behind a shard server reached over loopback.
    let local_telemetry = Telemetry::new();
    let local = LocalShard::open_memory(0, store.partitions(), &local_telemetry)?;
    let local_set = ShardSet::from_backends(
        vec![Arc::new(local) as Arc<dyn ShardBackend>],
        &local_telemetry,
    );
    local_set.import_store(&store)?;

    let remote_telemetry = wall_telemetry();
    let leg0 = spawn_shard_server(0, &store, &remote_telemetry)?;
    let remote_set = ShardSet::from_backends(
        vec![Arc::clone(&leg0.remote) as Arc<dyn ShardBackend>],
        &remote_telemetry,
    );
    remote_set.import_store(&store)?;

    let local_rows = leg_latencies(local_set.shards()[0].as_ref())?;
    let remote_rows = leg_latencies(leg0.remote.as_ref() as &dyn ShardBackend)?;
    let mut leg_values: Vec<Value> = Vec::new();
    for ((leg, lp50, lp99), (_, rp50, rp99)) in local_rows.iter().zip(&remote_rows) {
        eprintln!(
            "leg {leg}: in-process p50 {lp50}us p99 {lp99}us | loopback p50 {rp50}us p99 {rp99}us"
        );
        leg_values.push(obj! {
            "leg" => *leg,
            "in_process_p50_us" => *lp50,
            "in_process_p99_us" => *lp99,
            "loopback_p50_us" => *rp50,
            "loopback_p99_us" => *rp99,
        });
    }

    // Bytes on the wire for one bulk scan reply (HTTP body: envelope
    // frame + column runs), and the JSON document frame the same slice
    // used to travel as.
    let mut scan_request = Request::get("/shard/scan_partitions");
    scan_request.method = "POST".into();
    scan_request.body = wire::encode_frame(&obj! {"ns" => SCAN_NS, "snapshot" => 0u64});
    let scan_reply_bytes = leg0.handler.handle(&scan_request).body.len() as u64;
    let scanned = leg0.remote.scan_partitions(SCAN_NS, SnapshotId(0))?;
    let scan_docs = scanned.iter().map(Vec::len).sum::<usize>() as u64;
    let json_frame_bytes =
        wire::encode_frame(&wire::ok_envelope(wire::partitions_to_value(&scanned))).len() as u64;
    eprintln!(
        "scan leg on the wire: {scan_reply_bytes} B for {scan_docs} docs \
         (JSON document frame: {json_frame_bytes} B)"
    );
    drop(leg0.handle);

    // Closed-loop scatter sweep at 1/2/4 remote shards.
    let mut sweep_rows: Vec<Value> = Vec::new();
    for shards in [1usize, 2, 4] {
        let telemetry = wall_telemetry();
        let (_set, server, handles) = deploy_remote(&store, shards, &telemetry)?;
        let warm = server.call(Request::get("/stats"));
        assert_eq!(warm.status, 200, "warm-up request failed");

        let samples = Mutex::new(Vec::<u64>::new());
        let started = Instant::now();
        std::thread::scope(|scope| {
            for client in 0..WORKERS {
                let server = &server;
                let samples = &samples;
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(REQUESTS_PER_CLIENT);
                    for i in 0..REQUESTS_PER_CLIENT {
                        let target = sql_target(&format!("{client}-{i}"));
                        let t0 = Instant::now();
                        let response = server.call(Request::get(&target));
                        local.push(t0.elapsed().as_micros() as u64);
                        assert_eq!(response.status, 200, "GET {target}");
                    }
                    samples
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .extend(local);
                });
            }
        });
        let elapsed = started.elapsed();
        server.shutdown();
        drop(handles);

        let mut us = samples
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        us.sort_unstable();
        let total = us.len() as u64;
        let throughput = total as f64 / elapsed.as_secs_f64();
        let legs = telemetry.counter("shardnet.legs").value();
        let reuse = telemetry.counter("shardnet.pool.reuse_hits").value();
        eprintln!(
            "remote shards={shards}: {total} reqs in {:.2}s ({throughput:.0} req/s wall), \
             p50 {}us p99 {}us, {legs} wire legs ({reuse} pooled)",
            elapsed.as_secs_f64(),
            quantile(&us, 0.5),
            quantile(&us, 0.99),
        );
        sweep_rows.push(obj! {
            "shards" => shards as u64,
            "workers" => WORKERS as u64,
            "requests" => total,
            "elapsed_ms" => elapsed.as_millis() as u64,
            "wall_throughput_rps" => throughput,
            "p50_us" => quantile(&us, 0.5),
            "p90_us" => quantile(&us, 0.9),
            "p99_us" => quantile(&us, 0.99),
            "wire_legs" => legs,
            "pooled_legs" => reuse,
        });
    }

    // Degraded mode (the gated section): three remote shards, one
    // server's listener shut down mid-deployment — the transport dies
    // like a killed process, connections refused from then on.
    let telemetry = wall_telemetry();
    let (_set, server, mut handles) = deploy_remote(&store, 3, &telemetry)?;
    let warm = server.call(Request::get("/stats"));
    assert_eq!(warm.status, 200, "degraded warm-up failed");
    handles.remove(1).shutdown();
    let mut max_status = 0u16;
    let mut partial_bodies = 0u64;
    for i in 0..DEGRADED_REQUESTS {
        let response = server.call(Request::get(&sql_target(&format!("degraded-{i}"))));
        max_status = max_status.max(response.status);
        if String::from_utf8_lossy(&response.body).contains("\"partial\":true") {
            partial_bodies += 1;
        }
    }
    let degraded_flips = telemetry.counter("shardnet.degraded_flips").value();
    server.shutdown();
    eprintln!(
        "degraded: {DEGRADED_REQUESTS} reqs with server 1 down, max status {max_status}, \
         {partial_bodies} partial bodies, {degraded_flips} degrade flip(s)"
    );

    let report = obj! {
        "bench" => "remote_scatter",
        "world" => obj! { "seed" => SEED, "scale" => "tiny" },
        "host_cores" => host_cores as u64,
        "leg_reps" => LEG_REPS as u64,
        "requests_per_client" => REQUESTS_PER_CLIENT as u64,
        "leg_latency" => Value::Arr(leg_values),
        "scan_leg_wire" => obj! {
            "docs" => scan_docs,
            "reply_bytes" => scan_reply_bytes,
            "reply_bytes_per_doc" => scan_reply_bytes as f64 / scan_docs.max(1) as f64,
            "json_document_frame_bytes" => json_frame_bytes,
        },
        "scatter_sweep" => Value::Arr(sweep_rows),
        "degraded" => obj! {
            "shards" => 3u64,
            "killed_server" => 1u64,
            "requests" => DEGRADED_REQUESTS as u64,
            "max_status" => max_status as u64,
            "zero_5xx" => max_status < 500,
            "partial_bodies" => partial_bodies,
            "degraded_flips" => degraded_flips,
        },
    };
    if max_status >= 500 {
        return Err(format!("degraded remote deployment returned a {max_status}").into());
    }
    if partial_bodies == 0 {
        return Err("degraded remote deployment never flagged a partial response".into());
    }
    if degraded_flips == 0 {
        return Err("the dead server's client never flipped to degraded".into());
    }
    std::fs::write(&out, report.to_pretty() + "\n")?;
    println!("wrote {out}");
    Ok(())
}

//! [`RemoteShard`]: a [`ShardBackend`] whose legs cross a TCP loopback
//! to a shard-server process.
//!
//! The router cannot tell a `RemoteShard` from a `LocalShard` — that is
//! the point of the serializable-leg seam. What this client adds is the
//! failure discipline the out-of-process tier needs:
//!
//! * **Transport seam** — every socket is dialed through a
//!   [`Transport`] (`crowdnet-chaos`): [`RealTcp`] in production, a
//!   seeded `FaultNet` in drills, so network failures are deterministic
//!   inputs instead of flakes. The `transport-only-net` lint rule keeps
//!   stray `TcpStream::connect` calls out.
//! * **Connection pool** — a small stack of keep-alive connections.
//!   A pooled connection may have died since its last use (server
//!   restart, idle timeout), so a failure on a *pooled* connection earns
//!   one immediate fresh-connection retry that does not count against
//!   the retry budget (`shardnet.pool.stale_retries`).
//! * **Deadline budgets** — every socket operation runs under
//!   `leg_timeout_ms`, which the serving layer derives from the router's
//!   request deadline (see [`RemoteShardConfig::for_router_deadline`]):
//!   a leg is never allowed to out-wait the request that needs it.
//! * **Idempotent-only retries** — read legs and `recover` retry with
//!   seeded exponential backoff plus jitter ([`rand::rngs::StdRng`], so
//!   drills replay byte-for-byte); `submit` never retries, because
//!   `NewSnapshot` is not idempotent and a duplicated write must not be
//!   the client's doing. Backoff sleeps are **clamped to the remaining
//!   leg budget** (`shardnet.backoff_ms`): a retrying leg can never
//!   out-sleep the request that needs it.
//! * **Circuit breaker, degrade never 5xx** — call outcomes feed a
//!   per-remote [`CircuitBreaker`] (closed → open on consecutive
//!   failures or windowed error rate → half-open probe, plus
//!   gray-failure detection for shards that answer but chronically blow
//!   their latency budget; `shardnet.breaker.*`). While the breaker is
//!   closed a failing leg degrades only its own request
//!   ([`ShardError::Unavailable`] → the router's flagged partial
//!   response); when it opens, the shard flips to
//!   [`ShardHealth::Down`] (`shardnet.degraded_flips`) and leaves the
//!   fan-out. While Down, [`health`] probes the address at most once per
//!   `probe_interval_ms`; a successful probe half-opens the breaker and
//!   readmits the shard — the next leg's outcome decides whether it
//!   stays (which is how a restarted server rejoins without operator
//!   action).
//!
//! [`health`]: ShardBackend::health

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crowdnet_chaos::{Conn, RealTcp, Transport};
use crowdnet_json::{obj, Value};
use crowdnet_shard::column::ColumnRun;
use crowdnet_shard::{
    EpochMeta, Job, ShardBackend, ShardError, ShardHealth, WriteAck, WriteOp,
};
use crowdnet_store::store::NamespaceStats;
use crowdnet_store::SnapshotId;
use crowdnet_telemetry::{Counter, Telemetry};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker, Verdict};
use crate::wire::{self, ResponseParser, WireResponse};

/// Executor queue bound, mirroring `LocalShard`'s never-wait discipline.
const EXEC_QUEUE: usize = 128;

/// Bound on the recorded backoff history (drills and tests read it; a
/// long-lived client must not grow without limit).
const BACKOFF_LOG_CAP: usize = 4_096;

/// Tuning for one remote shard connection.
#[derive(Debug, Clone)]
pub struct RemoteShardConfig {
    /// TCP connect budget per attempt.
    pub connect_timeout_ms: u64,
    /// Socket read/write budget for one leg exchange — and the whole
    /// leg's retry budget: backoff sleeps are clamped to what is left
    /// of it.
    pub leg_timeout_ms: u64,
    /// Extra attempts after the first, idempotent legs only.
    pub retries: u32,
    /// First backoff step; doubles per retry, plus jitter in `[0, step]`.
    pub backoff_base_ms: u64,
    /// Seed for the backoff jitter — drills replay deterministically.
    pub seed: u64,
    /// Keep-alive connections retained between legs.
    pub pool_capacity: usize,
    /// Minimum spacing between reconnect probes while Down.
    pub probe_interval_ms: u64,
    /// Circuit-breaker thresholds (failure counts, error rate, gray
    /// latency budget).
    pub breaker: BreakerConfig,
}

impl Default for RemoteShardConfig {
    fn default() -> RemoteShardConfig {
        RemoteShardConfig {
            connect_timeout_ms: 250,
            leg_timeout_ms: 1_000,
            retries: 2,
            backoff_base_ms: 10,
            seed: 0x5eed,
            pool_capacity: 4,
            probe_interval_ms: 200,
            breaker: BreakerConfig::default(),
        }
    }
}

impl RemoteShardConfig {
    /// Derive leg budgets from the router's request deadline: a leg gets
    /// the whole deadline (the router already races legs concurrently),
    /// a connect attempt a quarter of it, so even the worst case —
    /// connect, then a stalled exchange — resolves within ~1.25
    /// deadlines instead of hanging a worker. The gray-failure budget is
    /// half the deadline: a shard that *answers* but repeatedly eats
    /// most of the request's patience gets shed proactively.
    pub fn for_router_deadline(deadline_ms: u64) -> RemoteShardConfig {
        let deadline_ms = deadline_ms.max(4);
        RemoteShardConfig {
            connect_timeout_ms: (deadline_ms / 4).max(1),
            leg_timeout_ms: deadline_ms,
            breaker: BreakerConfig {
                gray_latency_ms: (deadline_ms / 2).max(1),
                ..BreakerConfig::default()
            },
            ..RemoteShardConfig::default()
        }
    }
}

/// Client half of the out-of-process shard tier.
pub struct RemoteShard {
    index: usize,
    addr: RwLock<SocketAddr>,
    cfg: RemoteShardConfig,
    telemetry: Telemetry,
    transport: Arc<dyn Transport>,
    health: AtomicU8,
    breaker: CircuitBreaker,
    last_probe_ms: AtomicU64,
    pool: Mutex<Vec<Box<dyn Conn>>>,
    rng: Mutex<StdRng>,
    backoff_log: Mutex<Vec<u64>>,
    exec_tx: Mutex<Option<SyncSender<Job>>>,
    exec_thread: Mutex<Option<JoinHandle<()>>>,
    legs: Counter,
    retries_counter: Counter,
    timeouts: Counter,
    reuse_hits: Counter,
    stale_retries: Counter,
    degraded_flips: Counter,
    malformed: Counter,
}

impl RemoteShard {
    /// Connect-lazily to the shard server at `addr` serving shard
    /// `index`, over the real TCP transport. No I/O happens here; the
    /// first leg dials.
    pub fn new(
        index: usize,
        addr: SocketAddr,
        cfg: RemoteShardConfig,
        telemetry: &Telemetry,
    ) -> Result<RemoteShard, ShardError> {
        RemoteShard::with_transport(index, addr, cfg, Arc::new(RealTcp), telemetry)
    }

    /// Like [`RemoteShard::new`], but dialing through an explicit
    /// [`Transport`] — a `FaultNet` in chaos drills.
    pub fn with_transport(
        index: usize,
        addr: SocketAddr,
        cfg: RemoteShardConfig,
        transport: Arc<dyn Transport>,
        telemetry: &Telemetry,
    ) -> Result<RemoteShard, ShardError> {
        let (tx, rx) = sync_channel::<Job>(EXEC_QUEUE);
        let thread = std::thread::Builder::new()
            .name(format!("remote-shard-exec-{index}"))
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    job();
                }
            })
            .map_err(crowdnet_store::StoreError::Io)?;
        let seed = cfg.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let breaker = CircuitBreaker::new(cfg.breaker.clone(), telemetry);
        Ok(RemoteShard {
            index,
            addr: RwLock::new(addr),
            telemetry: telemetry.clone(),
            transport,
            health: AtomicU8::new(ShardHealth::Healthy.as_u8()),
            breaker,
            last_probe_ms: AtomicU64::new(0),
            pool: Mutex::new(Vec::new()),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            backoff_log: Mutex::new(Vec::new()),
            exec_tx: Mutex::new(Some(tx)),
            exec_thread: Mutex::new(Some(thread)),
            legs: telemetry.counter("shardnet.legs"),
            retries_counter: telemetry.counter("shardnet.retries"),
            timeouts: telemetry.counter("shardnet.timeouts"),
            reuse_hits: telemetry.counter("shardnet.pool.reuse_hits"),
            stale_retries: telemetry.counter("shardnet.pool.stale_retries"),
            degraded_flips: telemetry.counter("shardnet.degraded_flips"),
            malformed: telemetry.counter("shardnet.frames.malformed"),
            cfg,
        })
    }

    /// Point the client at a new address (a supervisor restarting the
    /// server lands it on a fresh ephemeral port). Drops pooled
    /// connections to the old address.
    pub fn set_addr(&self, addr: SocketAddr) {
        *self.addr.write() = addr;
        self.pool.lock().clear();
    }

    /// The address currently dialed.
    pub fn addr(&self) -> SocketAddr {
        *self.addr.read()
    }

    /// The breaker's current state (drills and tests).
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Every backoff sleep actually performed, in order, post-clamp
    /// (bounded at `BACKOFF_LOG_CAP` entries). Same seed + same outcome
    /// sequence ⇒ same history — the replay property drills assert.
    pub fn backoff_history(&self) -> Vec<u64> {
        self.backoff_log.lock().clone()
    }

    // ---- exchange machinery -------------------------------------------

    /// Run one control leg: its reply is the envelope frame and nothing
    /// else.
    fn call(&self, leg: &'static str, params: Value, idempotent: bool) -> Result<Value, ShardError> {
        let (result, tail) = self.call_bulk(leg, params, idempotent)?;
        if !tail.is_empty() {
            return Err(ShardError::Protocol(format!(
                "{leg} reply carries {} byte(s) after its envelope",
                tail.len()
            )));
        }
        Ok(result)
    }

    /// Run one leg with the full failure discipline; records latency and
    /// feeds the breaker with the outcome. Returns the envelope's result
    /// and whatever followed the envelope frame (a bulk leg's payload).
    fn call_bulk(
        &self,
        leg: &'static str,
        params: Value,
        idempotent: bool,
    ) -> Result<(Value, Vec<u8>), ShardError> {
        self.legs.inc();
        let started = self.telemetry.now_ms();
        let result = self.call_with_retries(leg, &params, idempotent);
        let elapsed = self.telemetry.now_ms().saturating_sub(started);
        self.telemetry
            .histogram(&format!("shardnet.leg_ms.{leg}"))
            .record(elapsed);
        match &result {
            Err(e) if e.is_transport() => self.note_transport_failure(),
            // Any completed exchange proves the server is alive — even a
            // logical error had to be computed by the shard.
            _ => self.note_alive(elapsed),
        }
        result
    }

    fn call_with_retries(
        &self,
        leg: &str,
        params: &Value,
        idempotent: bool,
    ) -> Result<(Value, Vec<u8>), ShardError> {
        let attempts = if idempotent {
            self.cfg.retries.saturating_add(1)
        } else {
            1
        };
        let started = self.telemetry.now_ms();
        let budget_ms = self.cfg.leg_timeout_ms.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                let step = self
                    .cfg
                    .backoff_base_ms
                    .saturating_mul(1_u64 << (attempt - 1).min(6))
                    .max(1);
                // Draw the jitter before clamping so the rng stream — and
                // with it, same-seed replay — is independent of how much
                // budget happens to remain.
                let jitter = self.rng.lock().random_range(0..=step);
                let elapsed = self.telemetry.now_ms().saturating_sub(started);
                let remaining = budget_ms.saturating_sub(elapsed);
                if remaining == 0 {
                    // The leg's budget is spent; one more attempt can only
                    // make the request that needs it later.
                    break;
                }
                self.retries_counter.inc();
                let sleep_ms = step.saturating_add(jitter).min(remaining);
                self.record_backoff(sleep_ms);
                std::thread::sleep(Duration::from_millis(sleep_ms));
            }
            match self.exchange_envelope(leg, params) {
                // A well-formed envelope ends the attempt loop: logical
                // errors must not be retried into double execution, and
                // retrying a frame the server called malformed cannot
                // change the answer.
                Ok((envelope, tail)) => {
                    return wire::open_envelope(envelope).map(|result| (result, tail))
                }
                Err(reason) => last = reason,
            }
        }
        Err(ShardError::Unavailable {
            shard: self.index,
            reason: last,
        })
    }

    fn record_backoff(&self, ms: u64) {
        self.telemetry.histogram("shardnet.backoff_ms").record(ms);
        let mut log = self.backoff_log.lock();
        if log.len() < BACKOFF_LOG_CAP {
            log.push(ms);
        }
    }

    /// One transport attempt: pooled connection first (with a free
    /// stale-retry on a fresh one), then decode the reply's envelope
    /// frame and hand back the bytes behind it.
    fn exchange_envelope(&self, leg: &str, params: &Value) -> Result<(Value, Vec<u8>), String> {
        let frame = wire::encode_frame(params);
        // Pop as its own statement: an `if let` on `self.pool.lock().pop()`
        // would hold the pool guard across the exchange — and deadlock
        // when `finish` re-locks to return the connection.
        let pooled = self.pool.lock().pop();
        if let Some(mut conn) = pooled {
            self.reuse_hits.inc();
            match self.exchange_on(conn.as_mut(), leg, &frame) {
                Ok(resp) => return self.finish(conn, resp),
                Err(_stale) => self.stale_retries.inc(),
            }
        }
        let mut conn = self.connect()?;
        let resp = self.exchange_on(conn.as_mut(), leg, &frame)?;
        self.finish(conn, resp)
    }

    fn connect(&self) -> Result<Box<dyn Conn>, String> {
        let addr = *self.addr.read();
        self.transport
            .connect(
                addr,
                Duration::from_millis(self.cfg.connect_timeout_ms.max(1)),
            )
            .map_err(|e| format!("connect {addr}: {e}"))
    }

    /// Write the leg request, read exactly one HTTP response.
    fn exchange_on(
        &self,
        conn: &mut dyn Conn,
        leg: &str,
        frame: &[u8],
    ) -> Result<WireResponse, String> {
        let budget = Some(Duration::from_millis(self.cfg.leg_timeout_ms.max(1)));
        conn.set_read_timeout(budget).map_err(|e| e.to_string())?;
        conn.set_write_timeout(budget).map_err(|e| e.to_string())?;
        let head = format!(
            "POST /shard/{leg} HTTP/1.1\r\nHost: shard\r\nConnection: keep-alive\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            frame.len()
        );
        conn.write_all(head.as_bytes())
            .and_then(|()| conn.write_all(frame))
            .map_err(|e| self.io_reason("write", &e))?;
        let mut parser = ResponseParser::new();
        let mut buf = [0_u8; 4096];
        loop {
            if let Some(resp) = parser.poll()? {
                return Ok(resp);
            }
            let n = conn
                .read(&mut buf)
                .map_err(|e| self.io_reason("read", &e))?;
            if n == 0 {
                return Err("connection closed mid-response".to_string());
            }
            parser.feed(buf.get(..n).unwrap_or_default());
        }
    }

    /// Classify an I/O failure, counting deadline expiries.
    fn io_reason(&self, op: &str, e: &std::io::Error) -> String {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            self.timeouts.inc();
            format!("{op} timed out after {}ms", self.cfg.leg_timeout_ms)
        } else {
            format!("{op}: {e}")
        }
    }

    /// Pool the connection if the server kept it open, then unwrap the
    /// HTTP layer down to the reply's envelope frame and the bytes that
    /// follow it.
    fn finish(
        &self,
        conn: Box<dyn Conn>,
        resp: WireResponse,
    ) -> Result<(Value, Vec<u8>), String> {
        if resp.status != 200 {
            return Err(format!("shard server answered http {}", resp.status));
        }
        if resp.keep_alive {
            let mut pool = self.pool.lock();
            if pool.len() < self.cfg.pool_capacity {
                pool.push(conn);
            }
        }
        let mut body = resp.body;
        let (envelope, tail) = wire::split_frame(&body)?;
        let tail_at = body.len() - tail.len();
        Ok((envelope, body.split_off(tail_at)))
    }

    // ---- health accounting --------------------------------------------

    fn note_alive(&self, latency_ms: u64) {
        match self.breaker.on_success(latency_ms) {
            // Chronic latency: the shard answers but blows its budget —
            // shed it proactively instead of letting it drag every
            // fan-out.
            Verdict::GrayTripped => self.flip_down(),
            _ => {
                self.health
                    .store(ShardHealth::Healthy.as_u8(), Ordering::Release);
            }
        }
    }

    fn note_transport_failure(&self) {
        let verdict = self.breaker.on_transport_failure();
        if verdict == Verdict::Opened || self.breaker.state() == BreakerState::Open {
            self.flip_down();
        }
        // Pooled connections share whatever broke; drop them all.
        self.pool.lock().clear();
    }

    fn flip_down(&self) {
        let prev = self
            .health
            .swap(ShardHealth::Down.as_u8(), Ordering::AcqRel);
        if prev != ShardHealth::Down.as_u8() {
            self.degraded_flips.inc();
        }
        self.pool.lock().clear();
    }
}

impl ShardBackend for RemoteShard {
    fn index(&self) -> usize {
        self.index
    }

    /// While Down, dials the server (rate-limited) so a restarted
    /// process rejoins fan-outs without an explicit operator signal. A
    /// successful probe **half-opens** the breaker: the shard is
    /// readmitted and the next leg's outcome decides whether it stays.
    fn health(&self) -> ShardHealth {
        let current = ShardHealth::from_u8(self.health.load(Ordering::Acquire));
        if current != ShardHealth::Down {
            return current;
        }
        let now = self.telemetry.now_ms();
        let last = self.last_probe_ms.load(Ordering::Relaxed);
        if now.saturating_sub(last) < self.cfg.probe_interval_ms
            || self
                .last_probe_ms
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return current;
        }
        match self.connect() {
            Ok(conn) => {
                let mut pool = self.pool.lock();
                if pool.len() < self.cfg.pool_capacity {
                    pool.push(conn);
                }
                drop(pool);
                self.breaker.begin_probe();
                self.health
                    .store(ShardHealth::Healthy.as_u8(), Ordering::Release);
                ShardHealth::Healthy
            }
            Err(_) => current,
        }
    }

    fn set_health(&self, health: ShardHealth) {
        self.health.store(health.as_u8(), Ordering::Release);
    }

    fn epoch_meta(&self) -> Result<EpochMeta, ShardError> {
        let v = self.call("epoch_meta", obj! {}, true)?;
        wire::meta_from_value(&v).map_err(ShardError::Protocol)
    }

    fn scan_runs(
        &self,
        ns: &str,
        snapshot: SnapshotId,
    ) -> Result<Vec<Vec<Arc<ColumnRun>>>, ShardError> {
        let (result, runs) = self.call_bulk(
            "scan_partitions",
            obj! {"ns" => ns, "snapshot" => u64::from(snapshot.0)},
            true,
        )?;
        // Frames and CRCs are checked here, on the leg's own thread; the
        // router receives exactly the runs a `LocalShard` would hand it.
        wire::decode_scan_reply(&result, &runs).map_err(|reason| {
            self.malformed.inc();
            ShardError::Protocol(reason)
        })
    }

    fn entity_docs(&self, keys: &[String]) -> Result<Vec<Option<Value>>, ShardError> {
        let keys = Value::Arr(keys.iter().map(|k| Value::from(k.as_str())).collect());
        let v = self.call("entity_docs", obj! {"keys" => keys}, true)?;
        wire::docs_from_value(&v).map_err(ShardError::Protocol)
    }

    fn investor_edges(&self, id: u32) -> Result<Option<Vec<u32>>, ShardError> {
        let v = self.call("investor_edges", obj! {"id" => u64::from(id)}, true)?;
        wire::edges_from_value(&v).map_err(ShardError::Protocol)
    }

    fn company_edges(&self, id: u32) -> Result<Option<Vec<u32>>, ShardError> {
        let v = self.call("company_edges", obj! {"id" => u64::from(id)}, true)?;
        wire::edges_from_value(&v).map_err(ShardError::Protocol)
    }

    fn top_k_prefix(&self, k: usize) -> Result<Vec<(u32, f64)>, ShardError> {
        let v = self.call("top_k_prefix", obj! {"k" => k}, true)?;
        wire::ranked_from_value(&v).map_err(ShardError::Protocol)
    }

    fn shard_stats(&self) -> Result<Vec<NamespaceStats>, ShardError> {
        let v = self.call("shard_stats", obj! {}, true)?;
        wire::stats_from_value(&v).map_err(ShardError::Protocol)
    }

    /// The one non-idempotent leg: a transport failure surfaces
    /// immediately instead of risking a doubled `NewSnapshot`.
    fn submit(&self, op: &WriteOp) -> Result<WriteAck, ShardError> {
        let v = self.call("submit", wire::write_op_to_value(op), false)?;
        wire::ack_from_value(&v).map_err(ShardError::Protocol)
    }

    fn offload(&self, job: Job) -> Result<(), Job> {
        let tx = match self.exec_tx.lock().as_ref() {
            Some(tx) => tx.clone(),
            None => return Err(job),
        };
        match tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => Err(job),
        }
    }

    /// Replays the server-side journal; safe to retry.
    fn recover(&self) -> Result<(), ShardError> {
        self.call("recover", obj! {}, true).map(|_| ())
    }
}

impl Drop for RemoteShard {
    fn drop(&mut self) {
        self.exec_tx.lock().take();
        if let Some(thread) = self.exec_thread.lock().take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ShardServer;
    use crowdnet_serve::server::{bind, Server, ServerConfig};
    use crowdnet_shard::LocalShard;
    use crowdnet_store::Document;
    use std::net::TcpListener;

    /// Spin up a real shard server on an ephemeral loopback port.
    fn serve_shard(telemetry: &Telemetry) -> (crowdnet_serve::server::TcpHandle, Arc<LocalShard>) {
        let shard = Arc::new(LocalShard::open_memory(0, 4, telemetry).unwrap());
        shard
            .submit(&WriteOp::Put {
                ns: "angellist/users".into(),
                doc: Document::new("user:7", obj! {"id" => 7u64, "name" => "ada"}),
            })
            .unwrap();
        let handler = Arc::new(ShardServer::new(Arc::clone(&shard), telemetry));
        let server = Server::with_handler(handler, telemetry.clone(), ServerConfig::default());
        let handle = bind(Arc::new(server), 0).unwrap();
        (handle, shard)
    }

    /// Fast-failing client whose breaker trips on the first failed call —
    /// the pre-breaker behavior most of these tests were written against.
    fn client(addr: SocketAddr, telemetry: &Telemetry) -> RemoteShard {
        let cfg = RemoteShardConfig {
            retries: 1,
            backoff_base_ms: 1,
            probe_interval_ms: 0,
            breaker: BreakerConfig {
                consecutive_failures: 1,
                ..BreakerConfig::default()
            },
            ..RemoteShardConfig::default()
        };
        RemoteShard::new(0, addr, cfg, telemetry).unwrap()
    }

    /// A loopback port with nothing listening (bind then drop).
    fn dead_addr() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    }

    #[test]
    fn remote_legs_match_the_local_shard() {
        let t = Telemetry::new();
        let (handle, shard) = serve_shard(&t);
        let remote = client(handle.addr(), &t);

        let local: &dyn ShardBackend = shard.as_ref();
        assert_eq!(remote.epoch_meta().unwrap(), local.epoch_meta().unwrap());
        assert_eq!(
            remote.scan_partitions("angellist/users", SnapshotId(0)).unwrap(),
            local.scan_partitions("angellist/users", SnapshotId(0)).unwrap()
        );
        let keys = vec!["user:7".to_string(), "user:404".to_string()];
        assert_eq!(remote.entity_docs(&keys).unwrap(), local.entity_docs(&keys).unwrap());
        assert_eq!(remote.shard_stats().unwrap(), local.shard_stats().unwrap());
        assert_eq!(remote.top_k_prefix(5).unwrap(), local.top_k_prefix(5).unwrap());
        handle.shutdown();
    }

    #[test]
    fn logical_errors_propagate_without_degrading() {
        use crowdnet_store::StoreError;
        let t = Telemetry::new();
        let (handle, shard) = serve_shard(&t);
        let remote = client(handle.addr(), &t);
        match remote.scan_partitions("ghost", SnapshotId(0)) {
            Err(ShardError::Store(StoreError::NamespaceNotFound(ns))) => assert_eq!(ns, "ghost"),
            other => panic!("missing namespace answered {other:?}"),
        }
        match remote.scan_partitions("angellist/users", SnapshotId(5)) {
            Err(ShardError::Store(StoreError::SnapshotNotFound { snapshot: 5, .. })) => {}
            other => panic!("missing snapshot answered {other:?}"),
        }
        // A snapshot that exists but holds nothing is an answer, not an
        // error: every partition present and empty.
        shard
            .submit(&WriteOp::NewSnapshot { ns: "angellist/users".into() })
            .unwrap();
        assert_eq!(
            remote.scan_partitions("angellist/users", SnapshotId(1)).unwrap(),
            vec![Vec::new(); 4]
        );
        assert_eq!(remote.health(), ShardHealth::Healthy);
        assert_eq!(remote.breaker_state(), BreakerState::Closed);
        handle.shutdown();
    }

    #[test]
    fn keep_alive_pool_is_reused_across_legs() {
        let t = Telemetry::new();
        let (handle, _shard) = serve_shard(&t);
        let remote = client(handle.addr(), &t);
        for _ in 0..3 {
            remote.epoch_meta().unwrap();
        }
        let counters = t.registry().counter_values();
        let hits = counters
            .iter()
            .find(|(n, _)| n == "shardnet.pool.reuse_hits")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(hits >= 2, "pool never reused a connection ({hits} hits)");
        handle.shutdown();
    }

    #[test]
    fn dead_server_degrades_and_restart_recovers() {
        let t = Telemetry::new();
        let (handle, _shard) = serve_shard(&t);
        let addr = handle.addr();
        let remote = client(addr, &t);
        remote.epoch_meta().unwrap();

        handle.shutdown();
        match remote.epoch_meta() {
            Err(e) => assert!(e.is_transport(), "expected transport failure, got {e}"),
            Ok(m) => panic!("dead server answered: {m:?}"),
        }
        assert_eq!(
            ShardHealth::from_u8(remote.health.load(Ordering::Acquire)),
            ShardHealth::Down
        );
        assert_eq!(remote.breaker_state(), BreakerState::Open);

        // Bring a replacement up on a fresh port and repoint the client:
        // the next health() probe readmits the shard to fan-outs.
        let (handle2, _shard2) = serve_shard(&t);
        remote.set_addr(handle2.addr());
        assert_eq!(remote.health(), ShardHealth::Healthy);
        assert_eq!(remote.breaker_state(), BreakerState::HalfOpen);
        remote.epoch_meta().unwrap();
        assert_eq!(remote.breaker_state(), BreakerState::Closed);
        handle2.shutdown();
    }

    #[test]
    fn breaker_holds_shard_in_fanout_until_threshold() {
        // With a threshold of 3, the first two failed calls degrade only
        // their own requests — the shard stays Healthy (and in fan-outs)
        // until the third opens the breaker.
        let t = Telemetry::new();
        let cfg = RemoteShardConfig {
            retries: 0,
            backoff_base_ms: 1,
            connect_timeout_ms: 50,
            probe_interval_ms: 0,
            breaker: BreakerConfig {
                consecutive_failures: 3,
                ..BreakerConfig::default()
            },
            ..RemoteShardConfig::default()
        };
        let remote = RemoteShard::new(0, dead_addr(), cfg, &t).unwrap();
        for expected_health in [ShardHealth::Healthy, ShardHealth::Healthy] {
            assert!(remote.epoch_meta().is_err());
            assert_eq!(
                ShardHealth::from_u8(remote.health.load(Ordering::Acquire)),
                expected_health,
                "breaker tripped before its threshold"
            );
        }
        assert!(remote.epoch_meta().is_err());
        assert_eq!(
            ShardHealth::from_u8(remote.health.load(Ordering::Acquire)),
            ShardHealth::Down
        );
        assert_eq!(remote.breaker_state(), BreakerState::Open);
        assert_eq!(t.counter("shardnet.breaker.opens").value(), 1);
        assert_eq!(t.counter("shardnet.degraded_flips").value(), 1);
    }

    #[test]
    fn backoff_sleeps_are_clamped_to_the_leg_budget() {
        // A plan that would sleep ~10s per retry against a 50ms leg
        // budget: every recorded sleep must be ≤ the budget and the whole
        // call must resolve promptly. (The telemetry clock is the default
        // fixed one, so the remaining budget never shrinks — the clamp
        // alone bounds the sleeps.)
        let t = Telemetry::new();
        let cfg = RemoteShardConfig {
            retries: 3,
            backoff_base_ms: 10_000,
            leg_timeout_ms: 50,
            connect_timeout_ms: 20,
            probe_interval_ms: 0,
            breaker: BreakerConfig {
                consecutive_failures: 1,
                ..BreakerConfig::default()
            },
            ..RemoteShardConfig::default()
        };
        let remote = RemoteShard::new(0, dead_addr(), cfg, &t).unwrap();
        let started = std::time::Instant::now();
        assert!(remote.epoch_meta().is_err());
        let wall = started.elapsed();
        let history = remote.backoff_history();
        assert_eq!(history.len(), 3, "expected one sleep per retry: {history:?}");
        assert!(
            history.iter().all(|&ms| ms <= 50),
            "a backoff outslept the leg budget: {history:?}"
        );
        assert!(
            wall < Duration::from_secs(5),
            "call took {wall:?} against a 50ms leg budget"
        );
    }

    #[test]
    fn backoff_budget_expiry_stops_retrying() {
        // On a wall clock the sleeps themselves consume the budget: a
        // 40ms budget admits the first clamped sleep and then runs dry,
        // so fewer than `retries` sleeps happen.
        let t = Telemetry::new();
        let wall = std::time::Instant::now();
        t.bind_clock(Arc::new(move || wall.elapsed().as_millis() as u64));
        let cfg = RemoteShardConfig {
            retries: 8,
            backoff_base_ms: 30,
            leg_timeout_ms: 40,
            connect_timeout_ms: 20,
            probe_interval_ms: 0,
            breaker: BreakerConfig {
                consecutive_failures: 1,
                ..BreakerConfig::default()
            },
            ..RemoteShardConfig::default()
        };
        let remote = RemoteShard::new(0, dead_addr(), cfg, &t).unwrap();
        assert!(remote.epoch_meta().is_err());
        let history = remote.backoff_history();
        assert!(
            history.len() < 8,
            "budget expiry never cut the retry loop short: {history:?}"
        );
        let slept: u64 = history.iter().sum();
        assert!(
            slept <= 40 + 30,
            "total backoff {slept}ms blew the 40ms leg budget"
        );
    }

    #[test]
    fn same_seed_replays_the_same_backoff_jitter() {
        let t = Telemetry::new();
        let cfg = RemoteShardConfig {
            retries: 3,
            backoff_base_ms: 7,
            leg_timeout_ms: 5_000,
            connect_timeout_ms: 20,
            probe_interval_ms: 0,
            seed: 1234,
            ..RemoteShardConfig::default()
        };
        let addr = dead_addr();
        let a = RemoteShard::new(0, addr, cfg.clone(), &t).unwrap();
        let b = RemoteShard::new(0, addr, cfg, &t).unwrap();
        assert!(a.epoch_meta().is_err());
        assert!(b.epoch_meta().is_err());
        let ha = a.backoff_history();
        assert_eq!(ha, b.backoff_history(), "same seed, different jitter");
        assert!(!ha.is_empty());
    }

    #[test]
    fn gray_failure_sheds_a_slow_but_answering_shard() {
        // Drive the telemetry clock so every now_ms() call advances 25ms:
        // each successful leg "measures" well over the 10ms gray budget.
        let t = Telemetry::new();
        let ticks = Arc::new(AtomicU64::new(0));
        let src = Arc::clone(&ticks);
        t.bind_clock(Arc::new(move || src.fetch_add(25, Ordering::SeqCst)));
        let (handle, _shard) = serve_shard(&Telemetry::new());
        let cfg = RemoteShardConfig {
            retries: 0,
            probe_interval_ms: 0,
            breaker: BreakerConfig {
                gray_latency_ms: 10,
                gray_trip_after: 3,
                ..BreakerConfig::default()
            },
            ..RemoteShardConfig::default()
        };
        let remote = RemoteShard::new(0, handle.addr(), cfg, &t).unwrap();
        for _ in 0..2 {
            remote.epoch_meta().unwrap();
            assert_eq!(
                ShardHealth::from_u8(remote.health.load(Ordering::Acquire)),
                ShardHealth::Healthy
            );
        }
        // Third chronically slow success trips the gray detector.
        remote.epoch_meta().unwrap();
        assert_eq!(
            ShardHealth::from_u8(remote.health.load(Ordering::Acquire)),
            ShardHealth::Down,
            "gray failure never shed the shard"
        );
        assert_eq!(remote.breaker_state(), BreakerState::Open);
        assert_eq!(t.counter("shardnet.breaker.gray_trips").value(), 1);
        // The server is fine, so the probe half-opens and the next (still
        // slow) leg closes the breaker again — gray shedding is a
        // pressure valve, not a permanent bench.
        assert_eq!(remote.health(), ShardHealth::Healthy);
        remote.epoch_meta().unwrap();
        assert_eq!(remote.breaker_state(), BreakerState::Closed);
        handle.shutdown();
    }
}

//! [`FaultNet`]: deterministic network-fault injection behind the
//! [`Transport`] seam — the network twin of the store's `FailpointFs`.
//!
//! Faults fire on a pure `(seed, op-counter)` schedule: an xorshift64*
//! stream (seeded exactly like `FailpointFs`) is advanced once per
//! *connect attempt* and once per *exchange* (the first write after a
//! connect or after a read — one request/response round on the wire).
//! The roll decides the connection's or exchange's **fate** up front, so
//! the number of raw `read` calls a response happens to need — which
//! depends on kernel buffering and is not deterministic — never shifts
//! the schedule. Two `FaultNet`s built from equal plans misbehave
//! identically, which is what lets a drill assert byte-identical replay
//! at the same seed.
//!
//! One-way partitions are structural, not probabilistic: while a
//! [`Partition`] is set it overrides the schedule without consuming
//! rolls, so healing a partition leaves the stream exactly where an
//! unpartitioned run would have it.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use crowdnet_telemetry::{Counter, Telemetry};
use parking_lot::Mutex;

use crate::transport::{Conn, Transport};

/// Ceiling on any simulated stall (black holes, partition drops): the
/// injected stall honors the caller's own read/write budget but never
/// sleeps longer than this, so a drill with a generous budget stays fast.
const HOLE_CAP_MS: u64 = 2_000;

/// Fallback stall when the caller never set a timeout on the faulted op.
const HOLE_DEFAULT_MS: u64 = 100;

/// Which side of a one-way partition is cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// No partition: the probabilistic schedule is in charge.
    None,
    /// Client → server cut: connects and request writes black-hole.
    /// The far side never hears from us.
    DropRequests,
    /// Server → client cut: requests arrive and are processed, the
    /// responses never come back — the gray half of an asymmetric
    /// partition, indistinguishable from a slow shard until a budget
    /// expires.
    DropResponses,
}

/// Which faults a [`FaultNet`] injects, and how often.
///
/// Probabilities are per sample point — `connect_refused` and
/// `connect_black_hole` per connect attempt, the rest per exchange —
/// drawn from an xorshift stream seeded by `seed`: two plans with equal
/// fields produce identical schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultPlan {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability a connect attempt is refused outright.
    pub connect_refused: f64,
    /// Probability a connect attempt black-holes until its budget expires.
    pub connect_black_hole: f64,
    /// Probability an exchange's request is cut mid-frame by a reset:
    /// a strict prefix lands, then the write errors.
    pub reset: f64,
    /// Probability an exchange's request is silently truncated: a strict
    /// prefix lands, the tail vanishes, the write *reports success* —
    /// the failure only surfaces when the response never arrives.
    pub truncate_write: f64,
    /// Probability an exchange's response arrives one byte per read.
    pub drip_read: f64,
    /// Probability an exchange's response is swallowed: the request is
    /// delivered and processed, every read stalls to its budget.
    pub black_hole: f64,
    /// Probability an exchange is delayed by `delay_ms` before the
    /// request goes out.
    pub delay: f64,
    /// Added latency per delayed exchange.
    pub delay_ms: u64,
    /// Structural one-way partition overriding the schedule.
    pub partition: Partition,
}

impl NetFaultPlan {
    /// A plan that injects nothing (useful as a base to tweak).
    pub fn none(seed: u64) -> NetFaultPlan {
        NetFaultPlan {
            seed,
            connect_refused: 0.0,
            connect_black_hole: 0.0,
            reset: 0.0,
            truncate_write: 0.0,
            drip_read: 0.0,
            black_hole: 0.0,
            delay: 0.0,
            delay_ms: 0,
            partition: Partition::None,
        }
    }

    /// A plan that only applies a one-way partition.
    pub fn partitioned(seed: u64, partition: Partition) -> NetFaultPlan {
        NetFaultPlan {
            partition,
            ..NetFaultPlan::none(seed)
        }
    }
}

/// Counts of every fault actually injected — the ground truth drills
/// print and the `chaos.*` counters are checked against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedNetFaults {
    /// Connect attempts that reached the schedule.
    pub connects: u64,
    /// Exchanges (request/response rounds) that reached the schedule.
    pub exchanges: u64,
    /// Connects refused outright.
    pub connect_refused: u64,
    /// Connects stalled to their budget.
    pub connect_holes: u64,
    /// Exchanges reset mid-frame.
    pub resets: u64,
    /// Exchanges whose request tail silently vanished.
    pub truncated_writes: u64,
    /// Exchanges served one byte per read.
    pub dripped: u64,
    /// Exchanges whose response was swallowed.
    pub black_holes: u64,
    /// Exchanges delayed by `delay_ms`.
    pub delays: u64,
    /// Operations dropped by a structural one-way partition.
    pub partition_drops: u64,
}

impl InjectedNetFaults {
    /// One deterministic line for drill transcripts.
    pub fn summary(&self) -> String {
        format!(
            "connects={} exchanges={} refused={} connect_holes={} resets={} truncated={} \
             dripped={} black_holes={} delays={} partition_drops={}",
            self.connects,
            self.exchanges,
            self.connect_refused,
            self.connect_holes,
            self.resets,
            self.truncated_writes,
            self.dripped,
            self.black_holes,
            self.delays,
            self.partition_drops,
        )
    }
}

/// Marker in fault errors so drills (and tests) can tell injected faults
/// from real network problems.
pub const NET_FAULT_MARKER: &str = "[faultnet]";

fn fault_err(kind: io::ErrorKind, what: &str) -> io::Error {
    io::Error::new(kind, format!("{NET_FAULT_MARKER} {what}"))
}

/// Is this error one a [`FaultNet`] injected (as opposed to a real one)?
pub fn is_injected_net_fault(e: &io::Error) -> bool {
    e.to_string().contains(NET_FAULT_MARKER)
}

/// What the schedule decided for one exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Clean,
    /// Reset mid-frame; the roll picks the cut point.
    Reset(f64),
    /// Silent truncation; the roll picks the cut point.
    Truncate(f64),
    Drip,
    BlackHole,
    Delay(u64),
    /// Structural partition: requests never leave.
    PartitionWrite,
    /// Structural partition: responses never return.
    PartitionRead,
}

#[derive(Debug, Clone, Copy)]
enum ConnectFate {
    Proceed,
    Refused,
    Hole,
}

struct ChaosState {
    rng: u64,
    ops: u64,
    injected: InjectedNetFaults,
}

/// Plan + mutable schedule state, shared between the [`FaultNet`] and
/// every connection it has dialed (connections consume the same op
/// stream as connect attempts — the link doesn't care who issued the
/// operation).
struct ChaosCore {
    plan: Mutex<NetFaultPlan>,
    state: Mutex<ChaosState>,
}

impl ChaosCore {
    /// Advance the schedule by one sample point; uniform roll in `[0, 1)`.
    fn tick(&self) -> f64 {
        let mut s = self.state.lock();
        s.ops += 1;
        // xorshift64*: cheap, deterministic, good enough for scheduling.
        s.rng ^= s.rng << 13;
        s.rng ^= s.rng >> 7;
        s.rng ^= s.rng << 17;
        (s.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn note(&self, f: impl FnOnce(&mut InjectedNetFaults)) {
        f(&mut self.state.lock().injected)
    }

    /// Deterministic cut point for a truncated/reset request of `len`
    /// bytes: a strict prefix, derived from the same roll that triggered
    /// the fault (re-hashed so it is independent of the threshold
    /// comparison).
    fn cut(roll: f64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let scaled = (roll * 7919.0).fract();
        ((scaled * len as f64) as usize).min(len - 1)
    }

    fn sample_connect(&self) -> ConnectFate {
        let plan = *self.plan.lock();
        if plan.partition == Partition::DropRequests {
            // Structural: no roll consumed, so healing leaves the stream
            // where an unpartitioned run would have it.
            self.note(|i| i.partition_drops += 1);
            return ConnectFate::Hole;
        }
        self.note(|i| i.connects += 1);
        let roll = self.tick();
        if roll < plan.connect_refused {
            ConnectFate::Refused
        } else if roll < plan.connect_refused + plan.connect_black_hole {
            ConnectFate::Hole
        } else {
            ConnectFate::Proceed
        }
    }

    fn sample_exchange(&self) -> Fate {
        let plan = *self.plan.lock();
        match plan.partition {
            Partition::DropRequests => return Fate::PartitionWrite,
            Partition::DropResponses => return Fate::PartitionRead,
            Partition::None => {}
        }
        self.note(|i| i.exchanges += 1);
        let roll = self.tick();
        let mut threshold = plan.reset;
        if roll < threshold {
            return Fate::Reset(roll);
        }
        threshold += plan.truncate_write;
        if roll < threshold {
            return Fate::Truncate(roll);
        }
        threshold += plan.drip_read;
        if roll < threshold {
            return Fate::Drip;
        }
        threshold += plan.black_hole;
        if roll < threshold {
            return Fate::BlackHole;
        }
        threshold += plan.delay;
        if roll < threshold {
            return Fate::Delay(plan.delay_ms);
        }
        Fate::Clean
    }
}

struct ChaosCounters {
    connects: Counter,
    exchanges: Counter,
    refused: Counter,
    connect_holes: Counter,
    resets: Counter,
    truncated: Counter,
    dripped: Counter,
    black_holes: Counter,
    delays: Counter,
    partition_drops: Counter,
}

impl ChaosCounters {
    fn new(telemetry: &Telemetry) -> ChaosCounters {
        ChaosCounters {
            connects: telemetry.counter("chaos.connects"),
            exchanges: telemetry.counter("chaos.exchanges"),
            refused: telemetry.counter("chaos.injected.connect_refused"),
            connect_holes: telemetry.counter("chaos.injected.connect_holes"),
            resets: telemetry.counter("chaos.injected.resets"),
            truncated: telemetry.counter("chaos.injected.truncated_writes"),
            dripped: telemetry.counter("chaos.injected.dripped_reads"),
            black_holes: telemetry.counter("chaos.injected.black_holes"),
            delays: telemetry.counter("chaos.injected.delays"),
            partition_drops: telemetry.counter("chaos.injected.partition_drops"),
        }
    }
}

/// Deterministic fault-injecting [`Transport`] wrapper. See [`NetFaultPlan`].
pub struct FaultNet {
    inner: Arc<dyn Transport>,
    core: Arc<ChaosCore>,
    counters: Arc<ChaosCounters>,
}

impl FaultNet {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: Arc<dyn Transport>, plan: NetFaultPlan, telemetry: &Telemetry) -> FaultNet {
        FaultNet {
            inner,
            core: Arc::new(ChaosCore {
                plan: Mutex::new(plan),
                state: Mutex::new(ChaosState {
                    // SplitMix64 scramble so nearby seeds give unrelated
                    // streams; force odd to avoid the all-zero fixpoint.
                    rng: plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                    ops: 0,
                    injected: InjectedNetFaults::default(),
                }),
            }),
            counters: Arc::new(ChaosCounters::new(telemetry)),
        }
    }

    /// Convenience: wrap the real TCP transport.
    pub fn over_real(plan: NetFaultPlan, telemetry: &Telemetry) -> FaultNet {
        FaultNet::new(Arc::new(crate::RealTcp), plan, telemetry)
    }

    /// Swap the plan (a drill moving to its next phase). The schedule
    /// stream restarts from the new plan's seed so each phase replays
    /// identically regardless of how many ops the previous phase burned;
    /// injected-fault counts keep accumulating.
    pub fn set_plan(&self, plan: NetFaultPlan) {
        *self.core.plan.lock() = plan;
        self.core.state.lock().rng = plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    }

    /// Stop injecting anything: the link is whole again.
    pub fn heal(&self) {
        let seed = self.core.plan.lock().seed;
        self.set_plan(NetFaultPlan::none(seed));
    }

    /// The plan currently in force.
    pub fn plan(&self) -> NetFaultPlan {
        *self.core.plan.lock()
    }

    /// Ground truth of every fault injected so far.
    pub fn injected(&self) -> InjectedNetFaults {
        self.core.state.lock().injected
    }

    /// Stall for the faulted operation's own budget (capped).
    fn stall(budget_ms: Option<u64>) {
        let ms = budget_ms.unwrap_or(HOLE_DEFAULT_MS).min(HOLE_CAP_MS);
        std::thread::sleep(Duration::from_millis(ms));
    }
}

impl Transport for FaultNet {
    fn connect(&self, addr: SocketAddr, timeout: Duration) -> io::Result<Box<dyn Conn>> {
        match self.core.sample_connect() {
            ConnectFate::Refused => {
                self.core.note(|i| i.connect_refused += 1);
                self.counters.refused.inc();
                Err(fault_err(io::ErrorKind::ConnectionRefused, "connect refused"))
            }
            ConnectFate::Hole => {
                self.core.note(|i| i.connect_holes += 1);
                self.counters.connect_holes.inc();
                FaultNet::stall(Some((timeout.as_millis() as u64).max(1)));
                Err(fault_err(io::ErrorKind::TimedOut, "connect black-holed"))
            }
            ConnectFate::Proceed => {
                self.counters.connects.inc();
                let inner = self.inner.connect(addr, timeout)?;
                Ok(Box::new(FaultConn {
                    inner,
                    core: Arc::clone(&self.core),
                    counters: Arc::clone(&self.counters),
                    fate: Fate::Clean,
                    needs_fate: true,
                    swallow_writes: false,
                    read_timeout_ms: None,
                    write_timeout_ms: None,
                }))
            }
        }
    }
}

/// One faulted connection: holds the fate the schedule dealt its current
/// exchange and replays it across the exchange's writes and reads.
struct FaultConn {
    inner: Box<dyn Conn>,
    core: Arc<ChaosCore>,
    counters: Arc<ChaosCounters>,
    fate: Fate,
    /// The next write starts a new exchange and must sample a fresh fate.
    needs_fate: bool,
    /// After a silent truncation the rest of the request vanishes too.
    swallow_writes: bool,
    read_timeout_ms: Option<u64>,
    write_timeout_ms: Option<u64>,
}

impl FaultConn {
    fn begin_exchange_if_needed(&mut self) {
        if !self.needs_fate {
            return;
        }
        self.needs_fate = false;
        self.swallow_writes = false;
        self.fate = self.core.sample_exchange();
        self.counters.exchanges.inc();
        if let Fate::Delay(ms) = self.fate {
            self.core.note(|i| i.delays += 1);
            self.counters.delays.inc();
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
}

impl Conn for FaultConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // Any read ends the request half of the exchange: the next write
        // starts a new one.
        self.needs_fate = true;
        match self.fate {
            Fate::BlackHole => {
                self.core.note(|i| i.black_holes += 1);
                self.counters.black_holes.inc();
                FaultNet::stall(self.read_timeout_ms);
                Err(fault_err(io::ErrorKind::TimedOut, "response black-holed"))
            }
            Fate::PartitionRead => {
                self.core.note(|i| i.partition_drops += 1);
                self.counters.partition_drops.inc();
                FaultNet::stall(self.read_timeout_ms);
                Err(fault_err(io::ErrorKind::TimedOut, "response dropped by partition"))
            }
            Fate::Drip => {
                let cap = buf.len().min(1);
                match buf.get_mut(..cap) {
                    Some(slice) => self.inner.read(slice),
                    None => Ok(0),
                }
            }
            _ => self.inner.read(buf),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.begin_exchange_if_needed();
        if self.swallow_writes {
            return Ok(());
        }
        match self.fate {
            Fate::Reset(roll) => {
                let cut = ChaosCore::cut(roll, buf.len());
                let _ = self.inner.write_all(buf.get(..cut).unwrap_or_default());
                self.core.note(|i| i.resets += 1);
                self.counters.resets.inc();
                Err(fault_err(io::ErrorKind::ConnectionReset, "reset mid-frame"))
            }
            Fate::Truncate(roll) => {
                let cut = ChaosCore::cut(roll, buf.len());
                self.inner.write_all(buf.get(..cut).unwrap_or_default())?;
                self.swallow_writes = true;
                self.core.note(|i| i.truncated_writes += 1);
                self.counters.truncated.inc();
                // The caller sees success; the failure surfaces when the
                // peer, still waiting for the tail, never answers.
                Ok(())
            }
            Fate::PartitionWrite => {
                self.core.note(|i| i.partition_drops += 1);
                self.counters.partition_drops.inc();
                FaultNet::stall(self.write_timeout_ms);
                Err(fault_err(io::ErrorKind::TimedOut, "request dropped by partition"))
            }
            Fate::Drip => {
                self.core.note(|i| i.dripped += 1);
                self.counters.dripped.inc();
                self.inner.write_all(buf)
            }
            _ => self.inner.write_all(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn set_read_timeout(&mut self, budget: Option<Duration>) -> io::Result<()> {
        self.read_timeout_ms = budget.map(|d| (d.as_millis() as u64).max(1));
        self.inner.set_read_timeout(budget)
    }

    fn set_write_timeout(&mut self, budget: Option<Duration>) -> io::Result<()> {
        self.write_timeout_ms = budget.map(|d| (d.as_millis() as u64).max(1));
        self.inner.set_write_timeout(budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// An echo server that answers each 4-byte request with the same bytes.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            while let Ok((mut sock, _)) = listener.accept() {
                let mut buf = [0u8; 4];
                loop {
                    match Read::read_exact(&mut sock, &mut buf) {
                        Ok(()) => {
                            if Write::write_all(&mut sock, &buf).is_err() {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
                if buf == *b"stop" {
                    break;
                }
            }
        });
        (addr, handle)
    }

    fn exchange(conn: &mut Box<dyn Conn>, msg: &[u8; 4]) -> io::Result<[u8; 4]> {
        conn.write_all(msg)?;
        conn.flush()?;
        let mut back = [0u8; 4];
        let mut got = 0;
        while got < 4 {
            let n = conn.read(&mut back[got..])?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
            }
            got += n;
        }
        Ok(back)
    }

    fn stop(addr: SocketAddr) {
        if let Ok(mut s) = std::net::TcpStream::connect(addr) {
            let _ = Write::write_all(&mut s, b"stop");
            let mut back = [0u8; 4];
            let _ = Read::read_exact(&mut s, &mut back);
        }
    }

    #[test]
    fn clean_plan_injects_nothing() {
        let (addr, server) = echo_server();
        let t = Telemetry::new();
        let net = FaultNet::over_real(NetFaultPlan::none(7), &t);
        let mut conn = net.connect(addr, Duration::from_millis(500)).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        for _ in 0..3 {
            assert_eq!(exchange(&mut conn, b"ping").unwrap(), *b"ping");
        }
        let injected = net.injected();
        assert_eq!(injected.connects, 1);
        assert_eq!(injected.exchanges, 3);
        assert_eq!(
            injected,
            InjectedNetFaults {
                connects: 1,
                exchanges: 3,
                ..InjectedNetFaults::default()
            }
        );
        drop(conn);
        stop(addr);
        server.join().unwrap();
    }

    #[test]
    fn same_seed_same_schedule() {
        // Two FaultNets with equal plans must fire identical fault
        // sequences — the property every drill's replay leans on.
        let run = |seed: u64| -> Vec<String> {
            let (addr, server) = echo_server();
            let t = Telemetry::new();
            let plan = NetFaultPlan {
                reset: 0.3,
                black_hole: 0.2,
                drip_read: 0.2,
                ..NetFaultPlan::none(seed)
            };
            let net = FaultNet::over_real(plan, &t);
            let mut outcomes = Vec::new();
            for _ in 0..12 {
                let mut conn = match net.connect(addr, Duration::from_millis(500)) {
                    Ok(c) => c,
                    Err(e) => {
                        outcomes.push(format!("connect:{}", e.kind() as u8));
                        continue;
                    }
                };
                conn.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
                match exchange(&mut conn, b"ping") {
                    Ok(back) => outcomes.push(format!("ok:{}", String::from_utf8_lossy(&back))),
                    Err(e) => outcomes.push(format!("err:{}", e.kind() as u8)),
                }
            }
            outcomes.push(net.injected().summary());
            stop(addr);
            server.join().unwrap();
            outcomes
        };
        let a = run(99);
        let b = run(99);
        assert_eq!(a, b, "same seed, different fault schedule");
        assert!(
            a.iter().any(|o| o.starts_with("err:")),
            "plan with 70% fault mass never fired: {a:?}"
        );
    }

    #[test]
    fn drop_responses_is_one_way() {
        let (addr, server) = echo_server();
        let t = Telemetry::new();
        let net = FaultNet::over_real(
            NetFaultPlan::partitioned(3, Partition::DropResponses),
            &t,
        );
        let mut conn = net.connect(addr, Duration::from_millis(500)).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(30))).unwrap();
        // The request goes through (the echo server will process it);
        // the response never comes back.
        conn.write_all(b"ping").unwrap();
        let err = conn.read(&mut [0u8; 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(is_injected_net_fault(&err), "not marked injected: {err}");
        assert!(net.injected().partition_drops >= 1);
        // Free the single-threaded echo server for the next connection.
        drop(conn);

        // Heal: the same wrapped transport carries clean exchanges again.
        net.heal();
        let mut conn = net.connect(addr, Duration::from_millis(500)).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        assert_eq!(exchange(&mut conn, b"ping").unwrap(), *b"ping");
        drop(conn);
        stop(addr);
        server.join().unwrap();
    }

    #[test]
    fn drop_requests_black_holes_the_connect() {
        let (addr, server) = echo_server();
        let t = Telemetry::new();
        let net = FaultNet::over_real(
            NetFaultPlan::partitioned(3, Partition::DropRequests),
            &t,
        );
        let err = match net.connect(addr, Duration::from_millis(20)) {
            Err(e) => e,
            Ok(_) => panic!("partitioned connect succeeded"),
        };
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(net.injected().partition_drops >= 1);
        stop(addr);
        server.join().unwrap();
    }

    #[test]
    fn truncated_write_reports_success_but_starves_the_peer() {
        let (addr, server) = echo_server();
        let t = Telemetry::new();
        let net = FaultNet::over_real(
            NetFaultPlan {
                truncate_write: 1.0,
                ..NetFaultPlan::none(11)
            },
            &t,
        );
        let mut conn = net.connect(addr, Duration::from_millis(500)).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(40))).unwrap();
        // The write "succeeds" — the tail silently vanished.
        conn.write_all(b"ping").unwrap();
        // The echo server never got 4 bytes, so the read times out.
        assert!(conn.read(&mut [0u8; 4]).is_err());
        assert_eq!(net.injected().truncated_writes, 1);
        drop(conn);
        stop(addr);
        server.join().unwrap();
    }
}

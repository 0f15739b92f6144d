//! The three serving workloads. They share a deployment recipe — seeded
//! world, durable crawl, recover, load the corpus into the serving tier —
//! and differ in topology and traffic:
//!
//! * `serve_mixed`: one `Service` behind `Server` + `bind`; cache-friendly
//!   Zipf mix, closed loop.
//! * `scatter_remote`: `shard::Router` over two `RemoteShard`s dialling two
//!   `ShardServer`s on loopback; every target unique, every request a
//!   fan-out.
//! * `live_ingest`: a writer (`put` ×64 → `drain` → `publish`) beside one
//!   reader on a `Service` whose epochs an `IngestEngine` owns.

use crate::deploy::{self, Base, Res, ScaleSpec, WorkDir, WORKERS};
use crate::load::{closed_loop, LoadResult, LoadSpec};
use crate::probes;
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{
    sequence_digest, sql_target, Class, Mix, Pools, Zipf, AGGREGATE_PANEL, NS_USERS, SCATTER_PANEL,
    SQL_PANEL,
};
use crate::RunCfg;
use crowdnet_chaos::{Conn, RealTcp, Transport};
use crowdnet_ingest::{IngestConfig, IngestEngine};
use crowdnet_json::{obj, Value};
use crowdnet_serve::{
    bind, Request, RequestHandler, Server, ServerConfig, Service, ServiceConfig, TcpHandle,
};
use crowdnet_shard::{LocalShard, Router, RouterConfig, ShardBackend, ShardSet};
use crowdnet_shardnet::{RemoteShard, RemoteShardConfig, ShardServer};
use crowdnet_store::{Document, Store};
use crowdnet_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One stretch of one mix within a round.
struct SubPhase {
    mix: Mix,
    /// Share of the round's time.
    share: f64,
    /// Client threads, one keep-alive connection each.
    clients: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    ServeMixed,
    ScatterRemote,
    LiveIngest,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeMixed => "serve_mixed",
            Kind::ScatterRemote => "scatter_remote",
            Kind::LiveIngest => "live_ingest",
        }
    }

    /// World size. serve_mixed's ≈57k entity keys overflow the default
    /// 16 MiB result cache, so CLOCK eviction runs; the other two are
    /// cache-blind and sized so three set-ups and the measured phase fit
    /// the run (the wire import is one round trip per document).
    pub fn default_scale(self) -> ScaleSpec {
        match self {
            Kind::ServeMixed => ScaleSpec::fraction("1/32", 32),
            Kind::ScatterRemote | Kind::LiveIngest => ScaleSpec::fraction("1/64", 64),
        }
    }

    /// The workload's traffic: a pattern of sub-phases and how many rounds
    /// of it fill the phase.
    ///
    /// scatter_remote runs its lookups and its scans one after the other:
    /// a shard answers its legs on one executor thread, so under an
    /// interleaved mix a point lookup queues behind a ≈ 30 ms scan leg
    /// four times in ten, p99 sits on that cliff, and no run length the
    /// contract allows steadies it. Apart, the lookups measure the router
    /// and the wire, the scans the bulk legs and the merge. (By count the
    /// interleaved 60 / 30 / 10 was 97 % scan time anyway.) Its lookups
    /// come from one client: a lookup crosses six threads, and with two
    /// request chains on two cores it is the scheduler's placement of
    /// them, not the code, that decides the latency — the median wandered
    /// between 107 and 140 µs from run to run, against 130.4–131.8 µs for
    /// one chain.
    ///
    /// Many short rounds rather than one long one, each with fresh
    /// connections: placement is re-rolled on reconnect, so a run pools
    /// many placements instead of reporting the luck of one.
    fn phases(self) -> (&'static [SubPhase], usize) {
        const SERVE_MIXED: &[SubPhase] = &[SubPhase {
            mix: Mix::SERVE_MIXED,
            share: 1.0,
            clients: WORKERS,
        }];
        const SCATTER_REMOTE: &[SubPhase] = &[
            SubPhase {
                mix: Mix::SCATTER_LOOKUPS,
                share: 0.5,
                clients: 1,
            },
            SubPhase {
                mix: Mix::SCATTER_SCANS,
                share: 0.5,
                clients: WORKERS,
            },
        ];
        // The sizing rule's two threads: one reads, one writes.
        const LIVE_INGEST: &[SubPhase] = &[SubPhase {
            mix: Mix::READ_ONLY,
            share: 1.0,
            clients: 1,
        }];
        match self {
            Kind::ServeMixed => (SERVE_MIXED, 10),
            Kind::ScatterRemote => (SCATTER_REMOTE, 25),
            Kind::LiveIngest => (LIVE_INGEST, 1),
        }
    }

    fn aggregates(self) -> &'static [&'static str] {
        match self {
            Kind::ScatterRemote => &SCATTER_PANEL,
            Kind::ServeMixed | Kind::LiveIngest => &AGGREGATE_PANEL,
        }
    }
}

/// `RealTcp` with byte and dial counts: what crossed the wire between the
/// router and its shard servers.
#[derive(Default)]
pub struct CountingNet {
    pub dials: Arc<AtomicU64>,
    pub bytes: Arc<AtomicU64>,
}

struct CountingConn {
    inner: Box<dyn Conn>,
    bytes: Arc<AtomicU64>,
}

impl Conn for CountingConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.write_all(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
    fn set_read_timeout(&mut self, budget: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(budget)
    }
    fn set_write_timeout(&mut self, budget: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(budget)
    }
}

impl Transport for CountingNet {
    fn connect(&self, addr: SocketAddr, timeout: Duration) -> io::Result<Box<dyn Conn>> {
        let inner = RealTcp.connect(addr, timeout)?;
        self.dials.fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(CountingConn {
            inner,
            bytes: Arc::clone(&self.bytes),
        }))
    }
}

/// Two shard servers on loopback and the router-side clients. Handles
/// stay here, on the driver's side: a `LocalShard` joins its executor
/// thread when dropped, so the last reference must never die on that
/// thread.
pub struct RemoteTier {
    pub set: Arc<ShardSet>,
    pub net: Arc<CountingNet>,
    servers: Vec<TcpHandle>,
}

/// Shard servers and `RemoteShard` clients for `shards` shards, empty.
/// Shard servers keep the default front end (4 workers): every pooled
/// client connection holds a worker there, and the client pools four.
pub fn remote_tier(shards: usize, partitions: usize, telemetry: &Telemetry) -> Res<RemoteTier> {
    let net = Arc::new(CountingNet::default());
    let mut servers = Vec::new();
    let mut backends: Vec<Arc<dyn ShardBackend>> = Vec::new();
    for index in 0..shards {
        let server_telemetry = deploy::wall_telemetry();
        let shard = Arc::new(LocalShard::open_memory(
            index,
            partitions,
            &server_telemetry,
        )?);
        let handler = Arc::new(ShardServer::new(shard, &server_telemetry));
        let server = Arc::new(Server::with_handler(
            handler,
            server_telemetry,
            ServerConfig::default(),
        ));
        let handle = bind(server, 0)?;
        let remote = RemoteShard::with_transport(
            index,
            handle.addr(),
            RemoteShardConfig::default(),
            Arc::clone(&net) as Arc<dyn Transport>,
            telemetry,
        )?;
        backends.push(Arc::new(remote));
        servers.push(handle);
    }
    Ok(RemoteTier {
        set: Arc::new(ShardSet::from_backends(backends, telemetry)),
        net,
        servers,
    })
}

impl RemoteTier {
    /// Drop the clients first (closing their pooled connections), then
    /// stop each server.
    pub fn shutdown(self) {
        let RemoteTier { set, servers, .. } = self;
        drop(set);
        for server in servers {
            server.shutdown();
        }
    }
}

/// The front end every workload's clients talk to: `workers = 2`, every
/// other knob at its default.
pub fn front_end(
    handler: Arc<dyn RequestHandler>,
    telemetry: &Telemetry,
) -> Res<(Arc<Server>, TcpHandle)> {
    let server = Arc::new(Server::with_handler(
        handler,
        telemetry.clone(),
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    ));
    let handle = bind(Arc::clone(&server), 0)?;
    Ok((server, handle))
}

/// What the writer of live_ingest did over one phase.
#[derive(Default)]
pub struct WriterResult {
    pub appends: u64,
    pub wall_s: f64,
    /// Per document: `put` ack to return of the `publish` serving it.
    pub freshness_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
    pub drain_ns: Vec<u64>,
    pub publish_ns: Vec<u64>,
    pub lagged_events: u64,
    /// Keys written, for the end-of-run panel.
    pub touched: Vec<u32>,
}

/// Writer state of live_ingest: the engine and the portfolios it grows.
struct Writer {
    engine: IngestEngine,
    portfolios: HashMap<u32, Vec<u64>>,
    investors: Vec<u32>,
    companies: Vec<u32>,
    next_fresh: u32,
    rng: StdRng,
    written: u64,
}

/// Appends per publish cycle, and how often one introduces a brand-new
/// investor — the shape of `ingest::live`'s daily trickle.
const BATCH: usize = 64;
const NEW_INVESTOR_EVERY: u64 = 4;
/// Fresh investors start far above the simulator's id space.
const FRESH_INVESTOR_BASE: u32 = 900_000;

impl Writer {
    fn new(engine: IngestEngine, pools: &Pools, seed: u64) -> Writer {
        let graph = engine.graph().graph();
        let portfolios = pools
            .investors
            .iter()
            .filter_map(|&id| {
                let index = graph.investor_index(id)?;
                let held = graph
                    .companies_of(index)
                    .iter()
                    .map(|&c| u64::from(graph.company_id(c)));
                Some((id, held.collect()))
            })
            .collect();
        Writer {
            engine,
            portfolios,
            investors: pools.investors.clone(),
            companies: pools.invested_companies.clone(),
            next_fresh: FRESH_INVESTOR_BASE,
            rng: StdRng::seed_from_u64(seed ^ 0x5bd1_e995),
            written: 0,
        }
    }

    fn next_update(&mut self) -> (u32, Document) {
        let fresh = self.written.is_multiple_of(NEW_INVESTOR_EVERY);
        self.written += 1;
        let investor = if fresh {
            self.next_fresh += 1;
            self.next_fresh
        } else {
            self.investors[self.rng.random_range(0..self.investors.len())]
        };
        let company = u64::from(self.companies[self.rng.random_range(0..self.companies.len())]);
        let portfolio = self.portfolios.entry(investor).or_default();
        if !portfolio.contains(&company) {
            portfolio.push(company);
        }
        let investments: Vec<Value> = portfolio.iter().map(|&c| Value::from(c)).collect();
        let body = obj! {
            "id" => u64::from(investor),
            "role" => "investor",
            "investments" => Value::Arr(investments),
        };
        (investor, Document::new(format!("user:{investor}"), body))
    }

    /// Closed loop until `deadline`: 64 `put`s, `drain`, `publish` into
    /// the bound service, repeat.
    fn run(
        &mut self,
        store: &Store,
        service: &Service,
        deadline: Instant,
        tracer: Option<&Tracer>,
    ) -> Res<WriterResult> {
        let started = Instant::now();
        let mut out = WriterResult::default();
        while Instant::now() < deadline {
            let mut acked = Vec::with_capacity(BATCH);
            for _ in 0..BATCH {
                let (id, doc) = self.next_update();
                let t0 = Instant::now();
                store.put(NS_USERS, doc)?;
                let ack = Instant::now();
                out.put_ns.push((ack - t0).as_nanos() as u64);
                acked.push(ack);
                out.touched.push(id);
            }
            let t0 = Instant::now();
            let drained = match tracer {
                Some(tracer) => tracer.stage("ingest.drain", || self.engine.drain()).0?,
                None => self.engine.drain()?,
            };
            let t1 = Instant::now();
            match tracer {
                Some(tracer) => {
                    drop(tracer.stage("ingest.publish", || self.engine.publish(Some(service))))
                }
                None => drop(self.engine.publish(Some(service))),
            }
            let served = Instant::now();
            out.drain_ns.push((t1 - t0).as_nanos() as u64);
            out.publish_ns.push((served - t1).as_nanos() as u64);
            out.lagged_events += drained.lag_drops;
            out.freshness_ns
                .extend(acked.iter().map(|&ack| (served - ack).as_nanos() as u64));
            out.appends += BATCH as u64;
        }
        out.wall_s = started.elapsed().as_secs_f64();
        Ok(out)
    }
}

/// One phase of a serving workload.
pub struct Phase {
    pub load: LoadResult,
    pub writer: Option<WriterResult>,
}

/// A deployed serving workload.
pub struct Serving {
    kind: Kind,
    pub base: Base,
    /// The corpus the serving tier holds (memory store).
    pub corpus: Arc<Store>,
    /// Unsharded service over `corpus`: the deployment itself for
    /// serve_mixed and live_ingest, the byte-for-byte reference for
    /// scatter_remote.
    pub service: Arc<Service>,
    pub telemetry: Telemetry,
    front: Arc<Server>,
    handle: TcpHandle,
    remote: Option<RemoteTier>,
    writer: Option<Writer>,
    pub pools: Pools,
    zipf: Zipf,
    /// Deploy-step timings for the per-layer list.
    pub load_s: f64,
    pub topology_s: f64,
    pub import_s: f64,
    pub catch_up_s: f64,
}

impl Serving {
    fn deploy(
        kind: Kind,
        seed: u64,
        scale: ScaleSpec,
        work: &WorkDir,
        tracer: &Tracer,
    ) -> Res<Serving> {
        let base = deploy::build_base(seed, scale, work, tracer)?;
        let (corpus, load_s) = tracer.stage("store.load_into_memory", || {
            deploy::load_into_memory(&base.recovered.store)
        });
        let corpus = corpus?;
        let telemetry = deploy::wall_telemetry();
        let service = Arc::new(Service::new(
            Arc::clone(&corpus),
            ServiceConfig::default(),
            telemetry.clone(),
        ));
        let pools = Pools::from_store(&corpus, seed)?;
        let zipf = Zipf::new(pools.ranked.len(), 1.0);

        let mut remote = None;
        let mut writer = None;
        let mut import_s = 0.0;
        let mut catch_up_s = 0.0;
        let started = Instant::now();
        let handler: Arc<dyn RequestHandler> = match kind {
            Kind::ServeMixed => {
                tracer
                    .stage("serve.artifacts_build", || service.artifacts())
                    .0?;
                Arc::clone(&service) as Arc<dyn RequestHandler>
            }
            Kind::LiveIngest => {
                let (engine, secs) = tracer.stage("ingest.catch_up", || {
                    IngestEngine::new(
                        Arc::clone(&corpus),
                        IngestConfig::default(),
                        telemetry.clone(),
                    )
                });
                catch_up_s = secs;
                let mut w = Writer::new(engine?, &pools, seed);
                // Cold epoch: PageRank's initial solve and the first CoDA fit.
                tracer.stage("ingest.publish_cold", || w.engine.publish(Some(&service)));
                writer = Some(w);
                Arc::clone(&service) as Arc<dyn RequestHandler>
            }
            Kind::ScatterRemote => {
                let tier = remote_tier(2, corpus.partitions(), &telemetry)?;
                let (imported, secs) =
                    tracer.stage("shard.import_over_wire", || tier.set.import_store(&corpus));
                imported?;
                import_s = secs;
                let router = Router::new(
                    Arc::clone(&tier.set),
                    RouterConfig::default(),
                    telemetry.clone(),
                );
                remote = Some(tier);
                Arc::new(router)
            }
        };
        let (front, handle) = front_end(handler, &telemetry)?;
        let serving = Serving {
            kind,
            base,
            corpus,
            service,
            telemetry,
            front,
            handle,
            remote,
            writer,
            pools,
            zipf,
            load_s,
            topology_s: 0.0,
            import_s,
            catch_up_s,
        };
        // Every panel target must answer 200 before anything is timed; the
        // first aggregate also builds the router's global artifacts.
        tracer
            .stage("serve.validate_panel", || serving.validate_panel())
            .0?;
        Ok(Serving {
            topology_s: started.elapsed().as_secs_f64(),
            ..serving
        })
    }

    fn validate_panel(&self) -> Res<()> {
        let uses_sql_panel = self
            .kind
            .phases()
            .0
            .iter()
            .any(|sub| sub.mix.per_mille[Class::SqlPanel.index()] > 0);
        let sql: Vec<String> = if uses_sql_panel {
            SQL_PANEL.iter().map(|(ns, q)| sql_target(ns, q)).collect()
        } else {
            Vec::new()
        };
        for target in self
            .kind
            .aggregates()
            .iter()
            .map(|t| t.to_string())
            .chain(sql)
        {
            let response = self.front.call(Request::get(&target));
            if response.status != 200 {
                return Err(format!("panel target {target} answered {}", response.status).into());
            }
        }
        Ok(())
    }

    fn load_spec(&self, sub: &SubPhase, seed: u64, first_client: usize) -> LoadSpec<'_> {
        LoadSpec {
            addr: self.handle.addr(),
            pools: &self.pools,
            zipf: &self.zipf,
            mix: sub.mix,
            aggregates: self.kind.aggregates(),
            seed,
            clients: sub.clients,
            first_client,
        }
    }

    /// `seconds` of the workload's traffic: the readers, and beside them
    /// the writer where the workload has one.
    fn phase(
        &mut self,
        seed: u64,
        seconds: f64,
        first_client: usize,
        tracer: Option<&Tracer>,
    ) -> Res<Phase> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut writer = self.writer.take();
        // Taken here, on the driver thread, before the writer opens its
        // own stages: request spans belong to the phase, not to whichever
        // drain or publish is open when a reader hands them over.
        let sink = tracer.and_then(Tracer::sink);
        let readers = || {
            let started = Instant::now();
            let mut load = LoadResult::default();
            let (pattern, rounds) = self.kind.phases();
            for round in 0..rounds {
                for (i, sub) in pattern.iter().enumerate() {
                    // Every sub-phase continues its own per-client streams
                    // under fresh client indices: no target sequence repeats.
                    let spec =
                        self.load_spec(sub, seed, first_client + 2 * (round * pattern.len() + i));
                    load.absorb(closed_loop(
                        &spec,
                        seconds * sub.share / rounds as f64,
                        sink,
                    ));
                }
            }
            load.wall_s = started.elapsed().as_secs_f64();
            load
        };
        let (load, written) = std::thread::scope(|scope| {
            let readers = scope.spawn(readers);
            let written = writer
                .as_mut()
                .map(|w| w.run(&self.corpus, &self.service, deadline, tracer));
            (readers.join().expect("reader phase panicked"), written)
        });
        self.writer = writer;
        Ok(Phase {
            load,
            writer: written.transpose()?,
        })
    }

    fn shutdown(self) {
        let Serving {
            front,
            handle,
            remote,
            writer,
            ..
        } = self;
        handle.shutdown();
        drop(front);
        drop(writer);
        if let Some(tier) = remote {
            tier.shutdown();
        }
    }

    /// Byte-compare the sampled responses with the in-process unsharded
    /// service (for serve_mixed that is the deployment's own
    /// `Service::handle`; for scatter_remote an independent reference).
    /// It applies where the served data holds still: under a writer each
    /// epoch changes the answers and the end-of-run panel takes its place.
    fn check_samples(&self, load: &LoadResult, report: &mut Report) {
        if self.writer.is_some() {
            return;
        }
        for (target, body) in &load.sampled {
            let want = self.service.handle(&Request::get(target));
            report.check(want.status == 200 && want.body == *body, || {
                format!("GET {target}: wire response differs from Service::handle")
            });
        }
    }

    /// After the last epoch: a response panel must equal a fresh
    /// `Service` built from scratch at the same store version. The panel
    /// holds the endpoints the maintainers answer exactly (documents,
    /// edges, degrees, stats); CoDA and PageRank are warm-started
    /// approximations by design.
    fn check_final_epoch(&self, touched: &[u32], report: &mut Report) {
        let fresh = Service::new(
            Arc::clone(&self.corpus),
            ServiceConfig::default(),
            Telemetry::new(),
        );
        let mut panel: Vec<String> = vec!["/stats".into(), "/top/investors?by=degree&k=50".into()];
        for &id in touched.iter().rev().take(24) {
            panel.push(format!("/entity/user/{id}"));
        }
        for &id in self.pools.invested_companies.iter().take(24) {
            panel.push(format!("/company/{id}/investors"));
        }
        for target in panel {
            let served = self.service.handle(&Request::get(&target));
            let rebuilt = fresh.handle(&Request::get(&target));
            report.check(served.status == 200 && served.body == rebuilt.body, || {
                format!("GET {target}: last epoch differs from a from-scratch service")
            });
        }
    }
}

fn nonzero(value: f64) -> f64 {
    value.max(f64::MIN_POSITIVE)
}

/// The workload's end-to-end reading of one phase.
fn end_to_end(kind: Kind, phase: &Phase, report: &mut Report) {
    let point = phase.load.sorted(Class::Point, 1e3);
    report.set("point_p50_us", stats::percentile(&point, 50.0));
    report.set("point_p95_us", stats::percentile(&point, 95.0));
    match (kind, &phase.writer) {
        (Kind::LiveIngest, Some(w)) => {
            report.set("throughput_per_s", w.appends as f64 / w.wall_s);
            report.set(
                "heavy_p50_ms",
                stats::percentile(&stats::sorted_in(&w.freshness_ns, 1e6), 50.0),
            );
        }
        _ => {
            report.set(
                "throughput_per_s",
                phase.load.completed() as f64 / phase.load.wall_s,
            );
            report.set(
                "heavy_p50_ms",
                stats::percentile(&phase.load.sorted(Class::SqlAdhoc, 1e6), 50.0),
            );
        }
    }
}

/// Ascending heavy-class latencies (ms) of a phase.
fn heavy_sorted(phase: &Phase) -> Vec<f64> {
    match &phase.writer {
        Some(w) => stats::sorted_in(&w.freshness_ns, 1e6),
        None => phase.load.sorted(Class::SqlAdhoc, 1e6),
    }
}

/// First client index of the warm-up and of the traced phase (the
/// measured phase starts at 0). A phase uses at most 100 indices (25
/// rounds × 2 sub-phases × 2 clients) and the nonce holds 10 bits of them.
const TRACED_CLIENT: usize = 256;
const WARMUP_CLIENT: usize = 512;

/// Set-ups per untraced run; their median is `setup_s`.
const SETUP_REPS: usize = 3;

pub fn run(kind: Kind, cfg: &RunCfg) -> Res<Report> {
    let work = WorkDir::create()?;
    let tracer = Tracer::new(cfg.trace);
    let scale = cfg.scale(kind.default_scale());
    let mut report = Report::default();

    // Set up several times and keep the last: the median is the metric.
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut recover_s = Vec::new();
    let mut deployed: Option<Serving> = None;
    for _ in 0..reps {
        if let Some(previous) = deployed.take() {
            previous.shutdown();
        }
        let (built, secs) = tracer.stage("setup", || {
            Serving::deploy(kind, cfg.seed, scale, &work, &tracer)
        });
        let built = built?;
        setup_s.push(secs);
        recover_s.push(built.base.recovered.recover_s());
        deployed = Some(built);
    }
    let mut serving = deployed.ok_or("no set-up repetition ran")?;
    let base_docs = serving.base.crawl.docs;

    // Let the cache fill and lazy set-up finish before timing.
    tracer
        .stage("phase.warmup", || {
            serving.phase(cfg.seed, cfg.warmup_s(), WARMUP_CLIENT, None)
        })
        .0?;

    let measured;
    if cfg.trace {
        let plain = serving.phase(cfg.seed, cfg.seconds / 2.0, 0, None)?;
        let before = counters(&serving);
        let traced = tracer
            .stage("phase.traced", || {
                serving.phase(cfg.seed, cfg.seconds / 2.0, TRACED_CLIENT, Some(&tracer))
            })
            .0?;
        let after = counters(&serving);
        let p50 = |p: &Phase| stats::percentile(&p.load.sorted(Class::Point, 1e3), 50.0);
        report.set(
            "harness.trace_overhead_share",
            p50(&traced) / nonzero(p50(&plain)) - 1.0,
        );
        let input = probes::Input {
            world_cfg: &serving.base.world_cfg,
            generate_s: serving.base.generate_s,
            crawl: &serving.base.crawl,
            recovered: &serving.base.recovered,
            corpus: &serving.corpus,
            pools: &serving.pools,
            seed: cfg.seed,
            seconds: cfg.seconds,
            work: &work,
        };
        probes::run(&input, &tracer, &mut report)?;
        // The deployment's own numbers go in last: where the workload runs
        // a layer for real, they replace the probe's.
        phase_layers(&serving, &plain, &traced, (&before, &after), &mut report);
        measured = plain;
        report.count_ops(
            traced.load.attempted,
            traced.load.failed,
            &traced.load.failures,
        );
        serving.check_samples(&traced.load, &mut report);
    } else {
        measured = tracer
            .stage("phase.measured", || {
                serving.phase(cfg.seed, cfg.seconds, 0, None)
            })
            .0?;
        end_to_end(kind, &measured, &mut report);
        report.set("setup_s", stats::median(&setup_s));
        report.set("recover_s", stats::median(&recover_s));
        report.set(
            "disk_bytes_per_doc",
            serving.base.recovered.disk_bytes() as f64 / base_docs as f64,
        );
    }
    report.count_ops(
        measured.load.attempted,
        measured.load.failed,
        &measured.load.failures,
    );
    serving.check_samples(&measured.load, &mut report);
    if let Some(w) = &measured.writer {
        report.count_ops(w.appends, 0, &[]);
        serving.check_final_epoch(&w.touched, &mut report);
    }

    crate::note_corpus(
        &mut report,
        kind.name(),
        scale,
        &serving.base.world_cfg,
        base_docs,
        &serving.pools,
    );
    report.note(
        "setup_breakdown_s",
        obj! {
            "generate" => serving.base.generate_s,
            "crawl" => serving.base.crawl.crawl_s,
            "recover" => serving.base.recovered.recover_s(),
            "load_into_memory" => serving.load_s,
            "topology" => serving.topology_s,
            "wire_import" => serving.import_s,
            "ingest_catch_up" => serving.catch_up_s,
        },
    );
    let digest = kind.phases().0.iter().fold(0u64, |acc, sub| {
        acc.rotate_left(1)
            ^ sequence_digest(
                &serving.pools,
                &serving.zipf,
                sub.mix,
                kind.aggregates(),
                cfg.seed,
                sub.clients,
                4096,
            )
    });
    report.note("target_digest", format!("{digest:016x}"));
    report.note("setup_repetitions", reps);
    let mut samples = crowdnet_json::Object::new();
    for class in Class::ALL {
        samples.insert(class.name(), measured.load.latency_ns[class.index()].len());
    }
    if let Some(w) = &measured.writer {
        samples.insert("freshness", w.freshness_ns.len());
        samples.insert("publish_cycles", w.publish_ns.len());
    }
    report.note("samples", Value::Obj(samples));
    let (tail_pct, _) = stats::tail(&heavy_sorted(&measured));
    report.note("heavy_tail_percentile", tail_pct);

    if !cfg.trace {
        // Peak memory is read last, with every phase behind it.
        report.set("peak_rss_mb", deploy::peak_rss_mb());
    }
    crate::write_trace(&tracer, cfg, kind.name())?;
    serving.shutdown();
    Ok(report)
}

/// Deployment counters read before and after the traced phase.
const COUNTED: [&str; 11] = [
    "serve.cache.hit",
    "serve.cache.miss",
    "serve.cache.evict",
    "serve.shed",
    "shard.router.fanouts",
    "shard.router.deadline_skips",
    "shard.router.partial",
    "shardnet.legs",
    "shardnet.pool.reuse_hits",
    "shardnet.retries",
    "shardnet.breaker.opens",
];
/// Bytes between the router and its shard servers, beside the counters.
const WIRE_BYTES: &str = "wire.bytes";

fn counters(serving: &Serving) -> BTreeMap<&'static str, u64> {
    let mut values: BTreeMap<&'static str, u64> = COUNTED
        .iter()
        .map(|&name| (name, serving.telemetry.counter(name).value()))
        .collect();
    let wire = serving
        .remote
        .as_ref()
        .map_or(0, |tier| tier.net.bytes.load(Ordering::Relaxed));
    values.insert(WIRE_BYTES, wire);
    values
}

/// Per-layer numbers that come from the workload's own deployment: the
/// untraced half for latencies, the traced half's counter deltas for
/// counts. Layers the workload bypasses read 0.
fn phase_layers(
    serving: &Serving,
    plain: &Phase,
    traced: &Phase,
    (before, after): (&BTreeMap<&'static str, u64>, &BTreeMap<&'static str, u64>),
    report: &mut Report,
) {
    let delta = |name: &str| (after[name] - before[name]) as f64;
    let (_, heavy_tail) = stats::tail(&heavy_sorted(plain));
    report.set("phase.heavy_tail_ms", heavy_tail);
    report.set(
        "phase.point_p99_us",
        stats::percentile(&plain.load.sorted(Class::Point, 1e3), 99.0),
    );
    report.set(
        "phase.aggregate_p50_us",
        stats::percentile(&plain.load.sorted(Class::Aggregate, 1e3), 50.0),
    );
    report.set(
        "phase.error_share",
        plain.load.failed as f64 / nonzero(plain.load.attempted as f64),
    );
    report.set("phase.reconnects", plain.load.reconnects as f64);
    let lookups = delta("serve.cache.hit") + delta("serve.cache.miss");
    report.set(
        "serve.cache_hit_ratio",
        delta("serve.cache.hit") / nonzero(lookups),
    );
    report.set("serve.cache_evictions", delta("serve.cache.evict"));
    report.set("serve.shed", delta("serve.shed"));
    report.set(
        "serve.queue_depth_max",
        serving.telemetry.gauge("serve.queue_depth").value() as f64,
    );
    report.set("shard.fanouts", delta("shard.router.fanouts"));
    report.set("shard.deadline_skips", delta("shard.router.deadline_skips"));
    report.set("shard.partial_responses", delta("shard.router.partial"));
    let legs = delta("shardnet.legs");
    report.set(
        "shardnet.pool_hit_ratio",
        delta("shardnet.pool.reuse_hits") / nonzero(legs),
    );
    report.set("shardnet.retries", delta("shardnet.retries"));
    report.set("shardnet.breaker_opens", delta("shardnet.breaker.opens"));
    report.set(
        "shardnet.wire_bytes_per_request",
        delta(WIRE_BYTES) / nonzero(traced.load.attempted as f64),
    );
    if let Some(w) = &plain.writer {
        report.set("ingest.catch_up_s", serving.catch_up_s);
        report.set(
            "ingest.drain_ms",
            stats::percentile(&stats::sorted_in(&w.drain_ns, 1e6), 50.0),
        );
        report.set(
            "ingest.publish_ms",
            stats::percentile(&stats::sorted_in(&w.publish_ns, 1e6), 50.0),
        );
        report.set(
            "ingest.apply_us_per_append",
            w.drain_ns.iter().sum::<u64>() as f64 / 1e3 / nonzero(w.appends as f64),
        );
        report.set(
            "store.put_mem_us",
            stats::percentile(&stats::sorted_in(&w.put_ns, 1e3), 50.0),
        );
        report.set("ingest.lagged_events", w.lagged_events as f64);
        report.set(
            "ingest.pagerank_recomputes",
            serving
                .telemetry
                .counter("ingest.pagerank.recomputes")
                .value() as f64,
        );
    }
}

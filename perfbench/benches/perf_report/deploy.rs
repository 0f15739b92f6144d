//! What every workload starts from: a seeded world, the four-source crawl
//! into a durable store (production fsync-before-ack, `RealFs` behind a
//! counting `Vfs`), and the reopen → recovery scan → column projection
//! that brings the store back. The serving workloads then load the
//! recovered corpus into the topology they measure.

use crowdnet_column::{ColumnConfig, ColumnSet};
use crowdnet_crawl::bfs::NS_CHECKPOINT;
use crowdnet_crawl::{CrawlConfig, CrawlStats, Crawler};
use crowdnet_socialsim::clock::SystemClock;
use crowdnet_socialsim::{Clock, Scale, World, WorldConfig};
use crowdnet_store::vfs::VfsFile;
use crowdnet_store::{RealFs, SnapshotId, Store, Vfs};
use crowdnet_telemetry::Telemetry;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::trace::Tracer;
use crate::workload::{fnv1a, FNV_OFFSET};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Worker threads of every layer that has the knob (crawl, serve front
/// end, dataflow): the sizing rule's `min(nproc, 2)` on a 2-core host.
pub const WORKERS: usize = 2;
/// Store partitions per snapshot (the `small` pipeline preset's value).
pub const PARTITIONS: usize = 8;

/// A telemetry sink on the wall clock (deadlines and latency histograms
/// inside the serving tier read it).
pub fn wall_telemetry() -> Telemetry {
    let telemetry = Telemetry::new();
    telemetry.bind_clock(Arc::new(|| SystemClock.now_ms()));
    telemetry
}

/// Scratch directory inside the checkout, removed when dropped. Build
/// output is already ignored there, so the run leaves nothing behind.
pub struct WorkDir {
    root: PathBuf,
    next: AtomicU64,
}

/// Where build output goes: the driver's `CARGO_TARGET_DIR`, else this
/// package's own `target/`. Both are ignored by git.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
}

impl WorkDir {
    pub fn create() -> io::Result<WorkDir> {
        let root = target_dir()
            .join("perf-work")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh, not yet created, directory path under the scratch root.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{tag}-{n}"))
    }

    /// Where traces go unless `--out` names a directory.
    pub fn trace_dir() -> PathBuf {
        target_dir().join("perf-trace")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// `RealFs` with the device-side counts the store layer is judged by:
/// fsyncs issued and bytes handed to the filesystem.
#[derive(Default)]
pub struct CountingVfs {
    pub syncs: Arc<AtomicU64>,
    pub bytes_written: Arc<AtomicU64>,
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    syncs: Arc<AtomicU64>,
    bytes_written: Arc<AtomicU64>,
}

impl VfsFile for CountingFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.bytes_written
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.append(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
}

impl Vfs for CountingVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealFs.create_dir_all(path)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile {
            inner: RealFs.open_append(path)?,
            syncs: Arc::clone(&self.syncs),
            bytes_written: Arc::clone(&self.bytes_written),
        }))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealFs.read(path)
    }
    fn write_file(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(contents.len() as u64, Ordering::Relaxed);
        RealFs.write_file(path, contents)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealFs.rename(from, to)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        RealFs.truncate(path, len)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealFs.remove_file(path)
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        RealFs.remove_dir_all(path)
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        RealFs.list_dir(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        RealFs.sync_dir(path)
    }
    fn exists(&self, path: &Path) -> bool {
        RealFs.exists(path)
    }
    fn is_dir(&self, path: &Path) -> bool {
        RealFs.is_dir(path)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        RealFs.file_len(path)
    }
}

/// World size of a run.
#[derive(Clone, Copy, Debug)]
pub struct ScaleSpec {
    pub label: &'static str,
    pub scale: Scale,
}

impl ScaleSpec {
    pub const fn fraction(label: &'static str, denominator: u32) -> ScaleSpec {
        ScaleSpec {
            label,
            scale: Scale::Fraction(denominator),
        }
    }

    /// The smoke-test scale: a world of seconds, not a measurement.
    pub const TINY: ScaleSpec = ScaleSpec {
        label: "tiny",
        scale: Scale::Custom {
            companies: 1_500,
            users: 2_200,
        },
    };
}

pub fn generate_world(seed: u64, scale: ScaleSpec) -> (WorldConfig, Arc<World>) {
    let config = WorldConfig::at_scale(seed, scale.scale);
    let world = Arc::new(World::generate(&config));
    (config, world)
}

/// What a finished durable crawl did.
pub struct CrawlSummary {
    pub stats: CrawlStats,
    /// The crawl's telemetry (virtual clock): attempts, retries, waits.
    pub telemetry: Telemetry,
    pub crawl_s: f64,
    pub docs: u64,
    /// Serialized JSON bytes of the crawled documents (user data).
    pub user_bytes: u64,
    pub vfs_syncs: u64,
    pub vfs_bytes_written: u64,
}

impl CrawlSummary {
    pub fn docs_per_s(&self) -> f64 {
        self.docs as f64 / self.crawl_s
    }
}

/// Documents and their encoded bytes over every namespace but the crawl's
/// own checkpoint state.
fn corpus_size(store: &Store) -> Res<(u64, u64)> {
    let mut docs = 0u64;
    let mut bytes = 0u64;
    for ns in store.stats()? {
        if ns.namespace != NS_CHECKPOINT {
            docs += ns.documents as u64;
            bytes += ns.encoded_bytes as u64;
        }
    }
    Ok((docs, bytes))
}

/// Four-source `Crawler::run_resumable` into a fresh durable store under
/// `dir`; the store comes back still open.
pub fn crawl_durable(
    world: &Arc<World>,
    dir: &Path,
    tracer: &Tracer,
) -> Res<(Store, CrawlSummary)> {
    let vfs = Arc::new(CountingVfs::default());
    let telemetry = Telemetry::new();
    let store = Store::open_with_vfs(dir, PARTITIONS, Arc::clone(&vfs) as Arc<dyn Vfs>)?
        .with_telemetry(&telemetry);
    let config = CrawlConfig {
        workers: WORKERS,
        telemetry: telemetry.clone(),
        ..CrawlConfig::default()
    };
    let crawler = Crawler::new(Arc::clone(world), config);
    let (stats, crawl_s) = tracer.stage("crawl.run_resumable", || crawler.run_resumable(&store));
    let stats = stats?;
    let (docs, user_bytes) = corpus_size(&store)?;
    let summary = CrawlSummary {
        stats,
        telemetry,
        crawl_s,
        docs,
        user_bytes,
        vfs_syncs: vfs.syncs.load(Ordering::Relaxed),
        vfs_bytes_written: vfs.bytes_written.load(Ordering::Relaxed),
    };
    Ok((store, summary))
}

/// Deterministic content hash of every data namespace: canonical
/// key-sorted scans of every snapshot, checkpoint state excluded.
pub fn content_hash(store: &Store) -> Res<u64> {
    let mut hash = FNV_OFFSET;
    let mut namespaces = store.namespaces()?;
    namespaces.sort();
    for ns in namespaces {
        if ns == NS_CHECKPOINT {
            continue;
        }
        let latest = store.latest_snapshot(&ns)?;
        for snap in 0..=latest.0 {
            for doc in store.scan_snapshot_sorted(&ns, SnapshotId(snap))? {
                fnv1a(&mut hash, ns.as_bytes());
                fnv1a(&mut hash, &snap.to_le_bytes());
                fnv1a(&mut hash, doc.encode().as_bytes());
            }
        }
    }
    Ok(hash)
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// A store brought back from disk with its column projection.
pub struct Recovered {
    pub dir: PathBuf,
    pub store: Arc<Store>,
    pub columns: ColumnSet,
    /// Reopen and recovery scan.
    pub reopen_s: f64,
    /// `open_or_rebuild` of the projection (a rebuild after a crawl: the
    /// crawler does not maintain columns).
    pub columns_s: f64,
    pub quarantined: u64,
    /// Bytes on disk of the crawled documents' JSON log.
    pub log_bytes: u64,
    /// Bytes on disk of their column projection under `.columns/`.
    pub column_bytes: u64,
}

impl Recovered {
    pub fn recover_s(&self) -> f64 {
        self.reopen_s + self.columns_s
    }

    /// JSON log plus `.columns/`, bytes on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.log_bytes + self.column_bytes
    }
}

/// Bytes under `dir`, leaving out the top-level entry `skip`.
fn data_bytes(dir: &Path, skip: &[&std::ffi::OsStr]) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if skip.contains(&entry.file_name().as_os_str()) {
            continue;
        }
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Reopen the store under `dir` (the previous handle must be dropped):
/// recovery scan, then columns ready.
pub fn recover(dir: &Path, tracer: &Tracer) -> Res<Recovered> {
    let (store, reopen_s) = tracer.stage("store.open_recover", || {
        Store::open_with_vfs(dir, PARTITIONS, Arc::new(RealFs) as Arc<dyn Vfs>)
    });
    let store = Arc::new(store?);
    let (columns, columns_s) = tracer.stage("column.open_or_rebuild", || {
        crowdnet_column::open_or_rebuild(&store, ColumnConfig::default(), None)
    });
    let (columns, _rebuilt) = columns?;
    // Sizes count the crawled documents only. The crawler's own
    // checkpoint namespace holds one copy of the BFS visited set per
    // round, so its size follows the seed's round count, not the store's
    // format; it sits in a directory of its own in both trees.
    let checkpoint_dir = store
        .partition_log_path(NS_CHECKPOINT, SnapshotId(0), 0)
        .and_then(|log| {
            log.parent()?
                .parent()?
                .file_name()
                .map(|name| name.to_os_string())
        })
        .unwrap_or_default();
    let columns_dir = std::ffi::OsString::from(crowdnet_column::COLUMNS_DIR);
    let log_bytes = data_bytes(dir, &[&checkpoint_dir, &columns_dir])?;
    let column_bytes = data_bytes(&dir.join(&columns_dir), &[&checkpoint_dir])?;
    Ok(Recovered {
        dir: dir.to_path_buf(),
        quarantined: store.recovery_stats().quarantined_records,
        store,
        columns,
        reopen_s,
        columns_s,
        log_bytes,
        column_bytes,
    })
}

/// The start of every serving workload: world, durable crawl, recover.
pub struct Base {
    pub world_cfg: WorldConfig,
    pub generate_s: f64,
    pub crawl: CrawlSummary,
    pub recovered: Recovered,
}

pub fn build_base(seed: u64, scale: ScaleSpec, work: &WorkDir, tracer: &Tracer) -> Res<Base> {
    let ((world_cfg, world), generate_s) =
        tracer.stage("socialsim.generate", || generate_world(seed, scale));
    let dir = work.fresh("base");
    let (store, crawl) = crawl_durable(&world, &dir, tracer)?;
    drop(store);
    let recovered = recover(&dir, tracer)?;
    Ok(Base {
        world_cfg,
        generate_s,
        crawl,
        recovered,
    })
}

/// Copy every namespace, snapshot and document of `src` into a fresh
/// memory store, in canonical scan order — the serving tier's corpus.
pub fn load_into_memory(src: &Store) -> Res<Arc<Store>> {
    let dst = Store::memory(PARTITIONS);
    for ns in src.namespaces()? {
        let latest = src.latest_snapshot(&ns)?;
        for snap in 0..=latest.0 {
            if snap > 0 {
                dst.new_snapshot(&ns)?;
            }
            for doc in src.scan_snapshot(&ns, SnapshotId(snap))? {
                dst.put_snapshot(&ns, SnapshotId(snap), doc)?;
            }
        }
    }
    Ok(Arc::new(dst))
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

//! # crowdnet-store
//!
//! The storage substrate of the CrowdNet platform — the stand-in for the
//! Hadoop File System in the paper's architecture (Figure 2).
//!
//! The paper's crawlers write every record "in HDFS as files in the JSON
//! format" and Spark scans them back for analysis. This crate reproduces that
//! contract with a much smaller system:
//!
//! * a [`Store`] holds **namespaces** (one per crawl source, e.g.
//!   `"angellist/companies"`),
//! * each namespace holds **snapshots** (one per crawl run — this is what
//!   makes the §7 longitudinal study possible),
//! * each snapshot is split into **partitions** of append-only JSON lines,
//!   which the dataflow engine consumes partition-parallel, exactly like
//!   Spark reading HDFS blocks.
//!
//! Two backends share the same API: [`Store::memory`] (tests, benches) and
//! [`Store::open`] (JSONL files on disk, one directory per namespace).
//!
//! All operations are thread-safe; crawler workers append concurrently from
//! many threads.
//!
//! ```
//! use crowdnet_store::{Store, Document};
//! use crowdnet_json::obj;
//!
//! let store = Store::memory(4); // 4 partitions per snapshot
//! let ns = "angellist/companies";
//! store.put(ns, Document::new("c:1", obj! {"name" => "Acme", "quality" => 7}))?;
//! store.put(ns, Document::new("c:2", obj! {"name" => "Globex"}))?;
//! assert_eq!(store.doc_count(ns)?, 2);
//! let docs = store.scan(ns)?;
//! assert_eq!(docs.len(), 2);
//! # Ok::<(), crowdnet_store::StoreError>(())
//! ```

pub mod changefeed;
pub mod derived;
pub mod disk;
pub mod doc;
pub mod error;
pub mod frame;
pub mod memory;
pub mod pool;
pub mod store;
pub mod vfs;

pub use changefeed::{ChangeEvent, ChangePayload, FeedPoll, Subscription};
pub use derived::DerivedKey;
pub use disk::RecoveryStats;
pub use doc::Document;
pub use error::StoreError;
pub use pool::ExecCtx;
pub use store::{merge_sorted_partitions, partition_of, PartitionScan, SnapshotId, Store};
pub use vfs::{FailpointFs, FaultPlan, InjectedFaults, MemFs, RealFs, Vfs};

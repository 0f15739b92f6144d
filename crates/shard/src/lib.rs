//! # crowdnet-shard
//!
//! Hash-partitioned multi-shard serving: the horizontal-scale answer to
//! the serve tier's single-store ceiling (DESIGN.md §11).
//!
//! Four pieces, bottom-up:
//!
//! * [`Partitioner`] — deterministic FNV-64 placement over a document's
//!   *entity key*, namespace-aware so corpus documents about one entity
//!   co-locate. Placement is a pure function: the same hash decides
//!   where a write lands and where a query routes, with no directory.
//! * [`ShardBackend`] / [`LocalShard`] — one shard: its own store (memory
//!   or disk behind the `Vfs` seam), its own changefeed and
//!   [`IngestEngine`](crowdnet_ingest::IngestEngine) publishing per-shard
//!   [`ShardEpoch`]s, and a persistent executor thread that gives
//!   fan-outs N-way parallelism over a bounded queue. The trait surface
//!   is a set of *serializable legs* — every method takes and returns
//!   owned plain data — so `crowdnet-shardnet`'s `RemoteShard` can put
//!   the same seam on the wire and the router cannot tell the backends
//!   apart.
//! * [`ShardSet`] — the registry: opens/recovers N shards, routes writes,
//!   keeps namespaces and snapshot ids in **lockstep** across shards (the
//!   invariant every merge relies on), tracks health, and maintains the
//!   logical version an unsharded store would report.
//! * [`Router`] — scatter-gather serving: the sharded data source behind
//!   `crowdnet_serve::router`'s one endpoint table, answering each access
//!   by merging per-shard results (bounded-heap top-k, associative stats,
//!   sealed column runs merged by `(key, run index)` for SQL and
//!   artifacts) under a per-request deadline budget. A dead or recovering
//!   shard is reported as a gap, which the table turns into a flagged
//!   partial instead of a failure.
//!
//! The whole surface is proptest-gated against the unsharded service:
//! for any op sequence, 1-, 2- and 4-shard deployments answer every
//! endpoint byte-identically (`tests/integration/shard_equivalence.rs`).

pub mod backend;
pub mod error;
pub mod partitioner;
pub mod router;
pub mod set;

pub use backend::{
    EpochMeta, Job, LocalShard, ShardBackend, ShardEpoch, ShardHealth, WriteAck, WriteOp,
};
/// The projection crate behind [`ShardEpoch::columns`], re-exported so the
/// wire tier (`crowdnet-shardnet`) frames and decodes the same run types
/// the scan leg is defined over.
pub use crowdnet_ingest::column;
pub use error::ShardError;
pub use partitioner::Partitioner;
pub use crowdnet_serve::ServiceConfig as RouterConfig;
pub use router::Router;
pub use set::{merge_stats, ShardSet};

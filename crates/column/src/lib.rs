//! # crowdnet-column
//!
//! Columnar projection of the JSON document store — the analytical twin
//! of the row-oriented log, playing the role columnar formats (Parquet/
//! ORC) play beside raw JSON in the paper's HDFS + Spark stack.
//!
//! The JSON store stays the durable source of truth. This crate derives
//! from it, per `(namespace, snapshot, partition)`:
//!
//! * **interned string dictionaries** ([`Dict`]) for field names, string
//!   values and residual JSON,
//! * **typed column vectors** per top-level field (varint-delta ints,
//!   raw-bit floats, dictionary ids, delta-encoded integer lists),
//! * **edge segments**: the bipartite investor→company edge list
//!   extracted at seal time with the serving tier's exact rules,
//! * an **on-disk layout** (CRC-framed, written through the store's
//!   [`Vfs`](crowdnet_store::Vfs) seam) committed atomically next to the
//!   JSON log.
//!
//! Projection state is maintained incrementally: a bootstrap scan seals
//! one [`ColumnRun`] per partition, every published ingest epoch seals
//! its changefeed appends as another, and readers k-way-merge runs by
//! `(key, run index)` — reproducing exactly the canonical order of the
//! JSON scan path, so everything derived from columns is byte-identical
//! to the row path.
//!
//! The projection is **never trusted**: on any corruption, staleness
//! (append-only log lengths are the probe) or version mismatch it is
//! rebuilt from the log ([`ColumnError::needs_rebuild`],
//! [`disk::open_or_rebuild`]).

pub mod catalog;
pub mod dict;
pub mod disk;
pub mod error;
pub mod run;
mod varint;

pub use catalog::{
    merge_runs, project_runs, ColumnCatalog, ColumnConfig, ColumnSet, ColumnStats, EDGE_NAMESPACE,
};
pub use dict::Dict;
pub use disk::{decode_partition, encode_partition, load, open_or_rebuild, save, COLUMNS_DIR};
pub use error::ColumnError;
pub use run::{investor_edges, ColumnRun};

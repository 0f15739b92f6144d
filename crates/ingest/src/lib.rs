//! # crowdnet-ingest — incremental ingestion and live artifact maintenance
//!
//! The tier between the crawler and the serving layer (DESIGN.md §8). The
//! paper's platform runs a *daily* collection task; without this crate
//! every new crawl day forced the serving layer to rebuild its artifacts
//! (graph, degree tables, PageRank, CoDA cover) from a full store scan.
//! This crate consumes the store's bounded changefeed and patches those
//! artifacts **in place**:
//!
//! - [`maintain::GraphMaintainer`] — bipartite edge/node insertion, degree
//!   and filtered-degree tables, the co-investment projection
//!   ([`crowdnet_graph::DynamicProjection`]), and per-epoch PageRank by
//!   power iteration warm-started from the previous epoch's scores.
//! - [`maintain::EntityMaintainer`] — the id → document index, a
//!   copy-on-write [`EntityIndex`](crowdnet_serve::EntityIndex) whose
//!   epoch snapshots share every shard the next writes do not touch.
//! - [`maintain::StatsMaintainer`] — per-namespace stats identical to
//!   [`Store::stats`](crowdnet_store::Store::stats), with no scan.
//! - CoDA community refits stay epoch-level but warm-start from the
//!   previous epoch's factors ([`crowdnet_graph::Coda::fit_warm`]).
//!
//! [`engine::IngestEngine`] owns one changefeed subscription and the
//! maintained state; [`IngestEngine::publish`](engine::IngestEngine::publish)
//! assembles it into an immutable [`Artifacts`](crowdnet_serve::Artifacts)
//! epoch and installs it into a [`Service`](crowdnet_serve::Service) behind
//! an atomic swap — requests read one consistent pinned epoch, and the
//! result cache invalidates exactly at the swap.
//!
//! Overflow safety: the changefeed's per-subscriber queue is bounded. When
//! the engine falls too far behind, the feed drops the backlog, reports
//! `Lagged`, and the engine recovers with a catch-up scan — memory stays
//! bounded no matter how far ingest lags the crawler.
//!
//! [`live::run_live`] wires the tier into the paper's longitudinal study:
//! each simulated re-crawl day streams through the engine and publishes an
//! epoch (`repro ingest` demonstrates it end to end).

pub mod engine;
pub mod error;
pub mod live;
pub mod maintain;

/// The projection crate whose [`ColumnSet`](column::ColumnSet) the engine
/// maintains and seals, under the engine's own name so a tier that
/// freezes engine state into epochs (`crowdnet-shard`) names the catalog
/// and run types of [`IngestEngine::seal_columns`] without a dependency
/// edge of its own.
pub use crowdnet_column as column;
pub use engine::{DrainReport, IngestConfig, IngestEngine};
pub use error::IngestError;
pub use live::{epoch_digest, run_live, DayOutcome, LiveConfig};
pub use maintain::{EntityMaintainer, GraphMaintainer, StatsMaintainer};

//! # crowdnet-serve
//!
//! The query-serving tier of the CrowdNet platform — the piece that turns
//! the measurement pipeline into the *exploration service* the paper
//! promises social scientists (§3's "familiar interfaces"), sized for the
//! ROADMAP's "heavy traffic" north star.
//!
//! Three layers (DESIGN.md §7):
//!
//! * [`router`] — the one endpoint table: typed endpoints and ad-hoc SQL
//!   written once over a small data-source trait, with the cache/span/
//!   latency request wrapper; [`service`] is its unsharded source — an
//!   opened [`Store`](crowdnet_store::Store) plus lazily-built,
//!   version-stamped analytic [`artifacts`] (bipartite graph, CoDA cover
//!   with the paper's strength metrics, degree/PageRank tables) — and
//!   `crowdnet-shard`'s `Router` is the sharded one.
//! * [`cache`] — a sharded byte-budgeted LRU over rendered responses,
//!   invalidated by the store's content version: a re-crawl never serves
//!   stale results.
//! * [`server`] — the concurrent front end: a hand-rolled HTTP/1.1
//!   listener on loopback ([`http`] is the parser), a fixed worker pool
//!   fed by a *bounded* queue ([`pool`]), admission control shedding
//!   `503 + Retry-After` when full, per-request deadlines on the injected
//!   telemetry clock, graceful drain on shutdown.
//!
//! Everything is callable in-process — [`Service::handle`] for the
//! unqueued core, [`Server::call`] for the full admission-controlled path
//! — so tests and benches exercise the exact production code without
//! sockets, deterministically.

pub mod artifacts;
pub mod cache;
pub mod error;
pub mod http;
pub mod pool;
pub mod router;
pub mod server;
pub mod service;

pub use artifacts::{Artifacts, ArtifactsConfig, EntityIndex};
pub use cache::{CacheConfig, CacheStats, ResultCache};
pub use error::ServeError;
pub use http::{Request, RequestParser, Response};
pub use pool::WorkerPool;
pub use server::{bind, RequestHandler, Server, ServerConfig, TcpHandle};
pub use service::{Epoch, Service, ServiceConfig};

//! # crowdnet-shardnet
//!
//! The out-of-process shard tier: everything needed to move a shard of
//! the serving fleet into its own process without the router noticing.
//!
//! PR 7 split the serving path into a scatter-gather [`Router`] over
//! [`ShardBackend`] legs — plain request/response methods over owned
//! data, no shared store handles. This crate is the payoff of that seam:
//!
//! * [`wire`] — the leg wire protocol: 4-byte length-prefixed JSON
//!   frames, an `{"ok":…}` reply envelope whose logical errors
//!   (`namespace_not_found`, `snapshot_not_found`) round-trip with
//!   structure, the bulk scan reply (envelope, then each partition's
//!   sealed column runs as CRC-framed `.col` bytes), and a defensive
//!   client-side HTTP response parser.
//! * [`ShardServer`] — a `RequestHandler` serving a [`LocalShard`]'s
//!   legs as `POST /shard/<leg>` through the crowdnet-serve front end,
//!   inheriting its admission control and bounded keep-alive.
//! * [`RemoteShard`] — the client half: a pooled, deadline-budgeted
//!   `ShardBackend` with seeded retry-with-backoff on idempotent legs
//!   only, that degrades the shard (never 5xxs the request) when the
//!   transport fails and probes its way back to Healthy after a restart.
//! * [`ProcessSupervisor`] — test harness for real process death: spawn
//!   `repro shard-server`, SIGKILL it mid-traffic, restart it on a fresh
//!   port.
//!
//! The contract the integration suite enforces: `repro serve --shards N
//! --remote` answers byte-identically to the in-process shard tier and
//! to the unsharded service, and a SIGKILLed shard yields flagged
//! `"partial": true` responses — zero 5xx — until its replacement is
//! probed back in.
//!
//! [`Router`]: crowdnet_shard::Router
//! [`LocalShard`]: crowdnet_shard::LocalShard
//! [`ShardBackend`]: crowdnet_shard::ShardBackend

pub mod breaker;
pub mod client;
pub mod server;
pub mod supervisor;
pub mod wire;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, Verdict};
pub use client::{RemoteShard, RemoteShardConfig};
pub use server::ShardServer;
pub use supervisor::{ProcessSupervisor, LISTEN_PREFIX};

//! # crowdnet-crawl
//!
//! The data-collection half of the CrowdNet platform (Figure 2 of the
//! paper): "a number of high-performance parallel crawlers are used to
//! gather social media inputs from Facebook, Twitter, CrunchBase, and
//! AngelList … We adhere to the Web APIs supplied by each company."
//!
//! Components, in the order the paper describes its collection process (§3):
//!
//! * [`bfs`] — the breadth-first frontier crawl over AngelList: start from
//!   the ~4000 currently-raising startups, expand through startup followers,
//!   then through each user's followed startups and users, "increasing our
//!   knowledge of the entire AngelList graph in every iteration".
//! * [`links`] — the crawled companies' ids, names and outgoing links,
//!   read from the store once after the BFS for the three stages below.
//! * [`augment`] — the one-time CrunchBase augmentation: direct permalink
//!   when the AngelList profile links it, unique-name-search fallback
//!   otherwise.
//! * [`social`] — Facebook Graph API fetches (short→long token exchange) and
//!   Twitter profile fetches with username-from-URL extraction and a
//!   [`tokens::TokenPool`] that shards calls across access tokens to defeat
//!   the 180-calls/15-minutes window.
//! * [`retry`] / [`ratelimit`] — exponential backoff for transient 5xx
//!   errors, client-side token buckets, and rate-limit-aware sleeping, all
//!   against the virtual [`Clock`](crowdnet_socialsim::Clock).
//! * [`pipeline`] — the full four-source crawl writing JSON documents into a
//!   `crowdnet-store` [`Store`](crowdnet_store::Store).
//! * [`longitudinal`] — the §7 extension: scheduled re-crawls into fresh
//!   store snapshots while the simulated world evolves between runs.

pub mod augment;
pub mod bfs;
pub mod error;
pub mod links;
pub mod longitudinal;
pub mod pipeline;
pub mod ratelimit;
pub mod retry;
pub mod social;
pub mod syndicates;
pub mod tokens;

pub use error::CrawlError;
pub use pipeline::{
    load_pipeline_checkpoint, CrawlConfig, CrawlStats, Crawler, PipelineCheckpoint,
    PIPELINE_CHECKPOINT_KEY,
};

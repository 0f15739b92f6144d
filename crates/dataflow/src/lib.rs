//! # crowdnet-dataflow
//!
//! The analytics substrate of the CrowdNet platform — the stand-in for
//! Apache Spark in the paper's architecture (Figure 2).
//!
//! The paper "use[s] Spark primarily for cleaning, extracting and summarizing
//! data from all our social media sources", then feeds the results to
//! statistics modules. This crate reproduces both halves:
//!
//! * [`Dataset`] / [`Pairs`] — a partition-parallel dataset engine with the
//!   Spark operator vocabulary (`map`, `filter`, `flat_map`, `key_by`,
//!   `group_by_key`, `reduce_by_key`, `join`, `distinct`, `sample`, …),
//!   executed on a work-stealing-ish thread pool ([`ExecCtx`]). Partitions
//!   come straight from `crowdnet-store` scans, like Spark reading HDFS
//!   blocks: [`dataset::scan_store_with`] reads, decodes and extracts each
//!   store partition inside one pool task.
//! * [`stats`] — the empirical-statistics toolkit the analyses need: ECDF
//!   with Dvoretzky–Kiefer–Wolfowitz / Glivenko–Cantelli confidence bands
//!   (§5.3 uses an 800 000-pair empirical CDF with a GC bound), Gaussian-KDE
//!   PDF estimation (Figure 5), quantiles, histograms, and the tail-share
//!   computation behind the §5.1 degree-concentration claims.
//!
//! ```
//! use crowdnet_dataflow::{Dataset, ExecCtx};
//!
//! let ctx = ExecCtx::new(4);
//! let squares_of_evens: i64 = Dataset::from_vec((0..1000i64).collect(), ctx)
//!     .filter(|x| x % 2 == 0)
//!     .map(|x| x * x)
//!     .reduce(0, |a, b| a + b, |a, b| a + b);
//! assert_eq!(squares_of_evens, (0..1000i64).filter(|x| x % 2 == 0).map(|x| x * x).sum());
//! ```

pub mod dataset;
pub mod pairs;
pub mod sql;
pub mod stats;

pub use dataset::Dataset;
pub use pairs::Pairs;
/// The worker pool, defined in `crowdnet-store` so the store's own
/// parallel work shares it; re-exported at its historical path.
pub use crowdnet_store::pool;
pub use pool::ExecCtx;

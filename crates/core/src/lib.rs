//! # crowdnet-core
//!
//! The platform facade: the end-to-end [`pipeline`] (simulate → crawl →
//! store → analyze) and one [`experiments`] driver per table/figure of the
//! paper, plus the §7 extensions (causality event study, success
//! prediction).
//!
//! Every analysis consumes only the **crawled store** through the dataflow
//! engine — never the generator's ground truth — so the measured numbers go
//! through exactly the path the paper's Spark jobs did. Ground truth is used
//! solely by the detector ablation (`examples/detector_shootout.rs`).
//!
//! ```
//! use crowdnet_core::pipeline::{Pipeline, PipelineConfig};
//! use crowdnet_core::experiments::fig6;
//!
//! let outcome = Pipeline::new(PipelineConfig::tiny(42)).run().expect("pipeline");
//! let table = fig6::run(&outcome).expect("fig6");
//! assert!(!table.rows.is_empty());
//! ```

pub mod chaosdrill;
pub mod error;
pub mod experiments;
pub mod features;
pub mod pipeline;
pub mod report;

pub use error::CoreError;
pub use pipeline::{Pipeline, PipelineConfig, PipelineOutcome};

//! §5.2: community detection over the cleaned investor graph.
//!
//! "As an initial cleaning step to make the cluster statistically
//! meaningful, we consider only investors that have invested in at least 4
//! companies. We next apply the CoDA community detection algorithm. … we are
//! able to group investors into 96 communities with an average size of
//! 190.2."
//!
//! The community-count target scales with the world (see
//! `WorldConfig::communities`); the cleaning threshold (≥4) is the paper's.

use crate::error::CoreError;
use crate::experiments::investor_graph;
use crate::pipeline::PipelineOutcome;
use crowdnet_graph::{BipartiteGraph, Coda, CodaConfig, Cover};
use crowdnet_store::DerivedKey;
use std::sync::Arc;

/// Minimum investments for an investor to enter community detection (§5.2).
pub const MIN_INVESTMENTS: usize = 4;

/// Detected-communities summary.
#[derive(Debug, Clone)]
pub struct CommunitiesResult {
    /// Non-empty detected communities (paper: 96 at full scale).
    pub communities: usize,
    /// Average community size (paper: 190.2).
    pub avg_size: f64,
    /// Investors that survived the ≥4 cleaning filter.
    pub filtered_investors: usize,
    /// The detected cover (investor indices into the filtered graph).
    pub cover: Cover,
}

/// The one §5.2 fit of an outcome, which Figures 4, 5 and 7 read.
#[derive(Debug)]
pub struct Fitted {
    /// The summary, holding the cover.
    pub result: CommunitiesResult,
    /// The *filtered* graph the cover indexes into.
    pub graph: BipartiteGraph,
    /// The fitted model (Figure 7 needs its H side).
    pub model: Coda,
    /// The configuration it was fitted with.
    pub cfg: CodaConfig,
}

/// The §5.2 pipeline, fitted once per store version and configuration
/// ([`crowdnet_store::Store::derived`], keyed on K, iterations, seed and
/// step): filter the shared investor graph to investors with
/// ≥ [`MIN_INVESTMENTS`] investments and fit CoDA over it.
pub fn fitted(outcome: &PipelineOutcome) -> Result<Arc<Fitted>, CoreError> {
    // The fit runs on the outcome's workers and reports into its telemetry;
    // neither changes the result, so neither is part of the key.
    let cfg = CodaConfig {
        communities: outcome.config.world.communities,
        iterations: 25,
        seed: outcome.config.world.seed,
        telemetry: outcome.telemetry.clone(),
        ctx: outcome.ctx,
        ..CodaConfig::default()
    };
    let key = DerivedKey::new("core.communities.fitted")
        .with(cfg.communities as u64)
        .with(cfg.iterations as u64)
        .with(cfg.seed)
        .with(cfg.step.to_bits());
    outcome.store.derived(key, || {
        let graph = investor_graph::graph(outcome)?.filter_min_investments(MIN_INVESTMENTS);
        if graph.investor_count() == 0 {
            return Err(CoreError::EmptyInput(
                "investors with >=4 investments".into(),
            ));
        }
        let model = Coda::fit(&graph, &cfg);
        let cover = model.investor_communities(&graph, &cfg);
        let sizes: usize = cover.iter().map(|c| c.members.len()).sum();
        let result = CommunitiesResult {
            communities: cover.len(),
            avg_size: sizes as f64 / cover.len().max(1) as f64,
            filtered_investors: graph.investor_count(),
            cover,
        };
        Ok(Fitted {
            result,
            graph,
            model,
            cfg,
        })
    })
}

/// Run the §5.2 pipeline; returns copies of the summary, the *filtered*
/// graph the cover indexes into, the fitted model and its configuration
/// (see [`fitted`], which this clones out of).
pub fn run(
    outcome: &PipelineOutcome,
) -> Result<(CommunitiesResult, BipartiteGraph, Coda, CodaConfig), CoreError> {
    let fitted = fitted(outcome)?;
    Ok((
        fitted.result.clone(),
        fitted.graph.clone(),
        fitted.model.clone(),
        fitted.cfg.clone(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{dataset_stats, fig3, fig4, fig5, fig7};
    use crate::pipeline::{Pipeline, PipelineConfig};
    use crowdnet_crawl::bfs::NS_USERS;
    use crowdnet_dataflow::ExecCtx;
    use crowdnet_json::obj;
    use crowdnet_store::Document;

    /// F, H, the likelihood trace and the stuck count, compared bit for bit.
    fn assert_bitwise_eq(a: &Coda, b: &Coda, what: &str) {
        let bits = |rows: &[f64]| -> Vec<u64> { rows.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&a.f), bits(&b.f), "{what}: F");
        assert_eq!(bits(&a.h), bits(&b.h), "{what}: H");
        let trace = |m: &Coda| -> Vec<u64> { m.ll_trace.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(trace(a), trace(b), "{what}: ll_trace");
        assert_eq!(a.rows_stuck, b.rows_stuck, "{what}: rows_stuck");
    }

    #[test]
    fn the_parallel_fit_of_the_tiny_world_is_bitwise_the_serial_fit() {
        let outcome = Pipeline::new(PipelineConfig::tiny(42)).run().unwrap();
        let fit = fitted(&outcome).unwrap();
        let graph = &fit.graph;
        let serial_cfg = CodaConfig {
            ctx: ExecCtx::serial(),
            telemetry: crowdnet_telemetry::Telemetry::new(),
            ..fit.cfg.clone()
        };
        let cold = Coda::fit(graph, &serial_cfg);
        // The memoised fit ran on the outcome's workers.
        assert_bitwise_eq(&fit.model, &cold, "fitted");
        assert_eq!(
            fit.result.cover,
            cold.investor_communities(graph, &serial_cfg)
        );
        // A warm refit over the graph grown by one investor and one edge
        // from an existing one.
        let mut grown = graph.clone();
        grown.add_edge(u32::MAX, graph.company_id(0));
        grown.add_edge(
            graph.investor_id(0),
            graph.company_id(graph.company_count() as u32 - 1),
        );
        let warm = Coda::fit_warm(&grown, &serial_cfg, &cold, graph);
        for threads in [1, 2, 3] {
            let cfg = CodaConfig {
                ctx: ExecCtx::new(threads),
                ..serial_cfg.clone()
            };
            let par = Coda::fit(graph, &cfg);
            assert_bitwise_eq(&par, &cold, &format!("cold, {threads} threads"));
            assert_eq!(par.investor_communities(graph, &cfg), fit.result.cover);
            let par_warm = Coda::fit_warm(&grown, &cfg, &par, graph);
            assert_bitwise_eq(&par_warm, &warm, &format!("warm, {threads} threads"));
            assert_eq!(
                par_warm.investor_communities(&grown, &cfg),
                warm.investor_communities(&grown, &serial_cfg)
            );
        }
    }

    #[test]
    fn the_suite_reads_the_users_once_and_fits_once() {
        let outcome = Pipeline::new(PipelineConfig::tiny(42)).run().unwrap();
        let scans = outcome.telemetry.counter("store.scan.calls");
        let iterations = outcome.telemetry.counter("coda.iterations");
        let stuck = outcome.telemetry.counter("coda.rows_stuck");
        let (scans0, iterations0, stuck0) = (scans.value(), iterations.value(), stuck.value());
        dataset_stats::run(&outcome).unwrap();
        fig3::run(&outcome).unwrap();
        investor_graph::run(&outcome).unwrap();
        let (_, _, model, cfg) = run(&outcome).unwrap();
        fig4::run(&outcome).unwrap();
        fig5::run(&outcome).unwrap();
        fig7::run(&outcome).unwrap();
        assert_eq!(scans.value() - scans0, 1, "one users scan");
        assert_eq!(
            iterations.value() - iterations0,
            cfg.iterations as u64,
            "one fit"
        );
        assert_eq!(stuck.value() - stuck0, model.rows_stuck);
    }

    #[test]
    fn a_put_or_another_configuration_refits() {
        let mut outcome = Pipeline::new(PipelineConfig::tiny(7)).run().unwrap();
        let iterations = outcome.telemetry.counter("coda.iterations");
        let before = iterations.value();
        let first = fitted(&outcome).unwrap();
        assert!(Arc::ptr_eq(&first, &fitted(&outcome).unwrap()));
        assert_eq!(iterations.value() - before, 25);

        // A put moves the store version: everything downstream rebuilds.
        let version = outcome.store.version();
        outcome
            .store
            .put(
                NS_USERS,
                Document::new("user:new", obj! {"id" => 9_999_999, "role" => "other"}),
            )
            .unwrap();
        assert!(outcome.store.version() > version);
        let refit = fitted(&outcome).unwrap();
        assert!(!Arc::ptr_eq(&first, &refit));
        assert_eq!(iterations.value() - before, 50);
        // A non-investor user changes no edge, so the refit is the same fit.
        assert_eq!(refit.result.cover, first.result.cover);

        // Another K on the same store is another fit; going back is a hit.
        outcome.config.world.communities += 1;
        let wider = fitted(&outcome).unwrap();
        assert_eq!(
            wider.model.community_count(),
            refit.model.community_count() + 1
        );
        assert_eq!(iterations.value() - before, 75);
        outcome.config.world.communities -= 1;
        assert!(Arc::ptr_eq(&refit, &fitted(&outcome).unwrap()));
        assert_eq!(iterations.value() - before, 75);
    }

    #[test]
    fn detects_a_plausible_cover() {
        let outcome = Pipeline::new(PipelineConfig::tiny(42)).run().unwrap();
        let (r, graph, model, _cfg) = run(&outcome).unwrap();
        assert!(r.communities > 0);
        assert!(r.avg_size >= 1.0);
        assert!(r.filtered_investors < outcome.dataset.users);
        assert_eq!(graph.investor_count(), r.filtered_investors);
        // Every member index is valid in the filtered graph.
        for c in &r.cover {
            for &m in &c.members {
                assert!((m as usize) < graph.investor_count());
            }
        }
        // The fit converged upward.
        let t = &model.ll_trace;
        assert!(t.last().unwrap() >= t.first().unwrap());
    }

    #[test]
    fn cleaning_filter_is_applied() {
        let outcome = Pipeline::new(PipelineConfig::tiny(7)).run().unwrap();
        let (r, graph, _, _) = run(&outcome).unwrap();
        let _ = r;
        for i in 0..graph.investor_count() as u32 {
            assert!(graph.companies_of(i).len() >= MIN_INVESTMENTS);
        }
    }
}

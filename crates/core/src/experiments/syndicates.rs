//! Syndicate validation (§2's observable co-investment groups).
//!
//! The paper hypothesizes "herd mentality" from detected communities alone;
//! syndicates give the claim an *observable* anchor: investors who publicly
//! joined the same syndicate should (a) herd by the paper's strength metrics
//! far above randomized groups, and (b) overlap with the communities CoDA
//! detects from investment edges only — the detector never sees syndicate
//! membership.

use crate::error::CoreError;
use crate::experiments::communities;
use crate::pipeline::PipelineOutcome;
use crowdnet_crawl::syndicates::NS_SYNDICATES;
use crowdnet_json::Value;
use crowdnet_store::StoreError;
use crowdnet_graph::eval::best_match_f1;
use crowdnet_graph::metrics::{self, Community};

/// Syndicate-analysis output.
#[derive(Debug, Clone)]
pub struct SyndicatesResult {
    /// Syndicates crawled.
    pub syndicates: usize,
    /// Syndicates with ≥2 backers present in the filtered investor graph.
    pub analyzable: usize,
    /// Mean pairwise shared-investment size within syndicates.
    pub mean_shared: f64,
    /// The same metric for size-matched randomized groups.
    pub randomized_mean_shared: f64,
    /// Best-match F1 between the CoDA cover and the syndicate cover.
    pub coda_agreement_f1: f64,
}

/// Run the syndicate analysis over the crawled store.
pub fn run(outcome: &PipelineOutcome) -> Result<SyndicatesResult, CoreError> {
    let docs = match outcome.store.scan(NS_SYNDICATES) {
        Ok(docs) => docs,
        Err(StoreError::NamespaceNotFound(_)) => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    if docs.is_empty() {
        return Err(CoreError::EmptyInput("crawled syndicates".into()));
    }
    let fitted = communities::fitted(outcome)?;
    let (result, graph) = (&fitted.result, &fitted.graph);

    // Map backer AngelList ids into the filtered graph's dense indices.
    let mut covers = Vec::new();
    for doc in &docs {
        let Some(backers) = doc.body.get("backers").and_then(Value::as_arr) else {
            continue;
        };
        let members: Vec<u32> = backers
            .iter()
            .filter_map(Value::as_u64)
            .filter_map(|id| graph.investor_index(id as u32))
            .collect();
        if members.len() >= 2 {
            covers.push(Community { members });
        }
    }
    if covers.is_empty() {
        return Err(CoreError::EmptyInput(
            "syndicates with >=2 graph-present backers".into(),
        ));
    }

    let mean_of = |cover: &[Community]| {
        let vals: Vec<f64> = cover
            .iter()
            .filter_map(|c| metrics::avg_shared_investment(graph, c))
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let mean_shared = mean_of(&covers);
    let randomized = metrics::randomized_cover(graph, &covers, outcome.config.world.seed ^ 0x55);
    let randomized_mean_shared = mean_of(&randomized);

    Ok(SyndicatesResult {
        syndicates: docs.len(),
        analyzable: covers.len(),
        coda_agreement_f1: best_match_f1(&result.cover, &covers),
        mean_shared,
        randomized_mean_shared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use crowdnet_socialsim::{Scale, WorldConfig};

    #[test]
    fn syndicates_herd_and_overlap_detected_communities() {
        let mut cfg = PipelineConfig::tiny(9);
        cfg.world = WorldConfig::at_scale(
            9,
            Scale::Custom {
                companies: 20_000,
                users: 40_000,
            },
        );
        let outcome = Pipeline::new(cfg).run().unwrap();
        assert!(outcome.crawl.syndicates > 0);
        let r = run(&outcome).unwrap();
        assert_eq!(r.syndicates, outcome.crawl.syndicates);
        assert!(r.analyzable > 0);
        // Syndicate members herd far above chance...
        assert!(
            r.mean_shared > 2.0 * r.randomized_mean_shared.max(0.05),
            "shared {} vs randomized {}",
            r.mean_shared,
            r.randomized_mean_shared
        );
        // ...and the detector (which never saw syndicate membership)
        // overlaps them better than zero by a clear margin.
        assert!(r.coda_agreement_f1 > 0.1, "F1 {}", r.coda_agreement_f1);
    }
}

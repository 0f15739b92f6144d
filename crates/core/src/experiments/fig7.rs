//! Figure 7: visualization of a strong and a weak community.
//!
//! "We observe a strong community where there is significant herd mentality:
//! many investors (blue) are co-investing in several similar companies
//! (blue [sic — red]). Alternatively, Figure 7b shows a weaker community,
//! where each investor tends to invest in its own set of companies
//! independent of other investors." The paper reports the pair: strong has
//! average shared investment size 2.1 / shared-investor percentage 27.9 %;
//! weak has 0.018 / 12.5 %.

use crate::error::CoreError;
use crate::experiments::communities;
use crate::pipeline::PipelineOutcome;
use crowdnet_graph::metrics::{self, Community};
use crowdnet_graph::BipartiteGraph;
use crowdnet_viz::layout::{layout, LayoutConfig};
use crowdnet_viz::svg::render_svg;
use crowdnet_viz::{dot::render_dot, NodeKind, VizGraph};

/// One rendered community.
#[derive(Debug, Clone)]
pub struct CommunityViz {
    /// Investor members.
    pub investors: usize,
    /// Companies they invest in.
    pub companies: usize,
    /// Average shared investment size (paper: 2.1 strong / 0.018 weak).
    pub mean_shared: f64,
    /// Shared-investor percentage at K=2 (paper: 27.9 % / 12.5 %).
    pub shared_pct: f64,
    /// SVG document.
    pub svg: String,
    /// DOT document.
    pub dot: String,
}

/// The Figure 7 pair.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// The strong (herding) community.
    pub strong: CommunityViz,
    /// The weak (independent) community.
    pub weak: CommunityViz,
}

/// Build the bipartite subgraph of a community and render it.
fn render_community(
    graph: &BipartiteGraph,
    community: &Community,
    name: &str,
    seed: u64,
) -> CommunityViz {
    let mut viz = VizGraph::new();
    let mut company_nodes: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    // Cap the drawing at a readable size (the paper's figures show dozens of
    // nodes, not thousands).
    let members: Vec<u32> = community.members.iter().copied().take(60).collect();
    for &m in &members {
        let inv_node = viz.add_node(NodeKind::Investor, format!("investor-{}", graph.investor_id(m)));
        for &c in graph.companies_of(m) {
            let company_node = *company_nodes.entry(c).or_insert_with(|| {
                viz.add_node(NodeKind::Company, format!("company-{}", graph.company_id(c)))
            });
            viz.add_edge(inv_node, company_node);
        }
    }
    let positions = layout(
        &viz,
        &LayoutConfig {
            iterations: 120,
            seed,
            ..LayoutConfig::default()
        },
    );
    CommunityViz {
        investors: members.len(),
        companies: company_nodes.len(),
        mean_shared: metrics::avg_shared_investment(graph, community).unwrap_or(0.0),
        shared_pct: metrics::pct_companies_with_shared_investors(graph, community, 2)
            .unwrap_or(0.0),
        svg: render_svg(&viz, &positions, 800, 600),
        dot: render_dot(&viz, name),
    }
}

/// Run the Figure 7 analysis: pick the strongest and weakest communities by
/// mean shared investment size and render both.
pub fn run(outcome: &PipelineOutcome) -> Result<Fig7Result, CoreError> {
    let fitted = communities::fitted(outcome)?;
    let (result, graph) = (&fitted.result, &fitted.graph);
    let mut scored: Vec<(f64, &Community)> = result
        .cover
        .iter()
        .filter(|c| c.members.len() >= 3)
        .filter_map(|c| metrics::avg_shared_investment(graph, c).map(|m| (m, c)))
        .collect();
    if scored.len() < 2 {
        return Err(CoreError::EmptyInput("at least two communities".into()));
    }
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
    let strong = render_community(graph, scored[0].1, "strong-community", 1);
    let weak = render_community(graph, scored[scored.len() - 1].1, "weak-community", 2);
    Ok(Fig7Result { strong, weak })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};

    #[test]
    fn strong_vs_weak_shape_matches_the_paper() {
        let mut cfg = PipelineConfig::tiny(42);
        cfg.world = crowdnet_socialsim::WorldConfig::at_scale(
            42,
            crowdnet_socialsim::Scale::Custom { companies: 20_000, users: 20_000 },
        );
        let outcome = Pipeline::new(cfg).run().unwrap();
        let r = run(&outcome).unwrap();
        // The strong community herds more by both metrics; the absolute
        // paper values (2.1 vs 0.018) need full scale, the ordering and a
        // clear gap do not.
        assert!(r.strong.mean_shared > 2.0 * r.weak.mean_shared.max(0.05));
        assert!(r.strong.mean_shared >= 1.0, "strong {}", r.strong.mean_shared);
        // Valid drawings with both node colors.
        for viz in [&r.strong, &r.weak] {
            assert!(viz.svg.starts_with("<svg"));
            assert!(viz.svg.contains(crowdnet_viz::svg::INVESTOR_COLOR));
            assert!(viz.svg.contains(crowdnet_viz::svg::COMPANY_COLOR));
            assert!(viz.dot.starts_with("graph"));
            assert!(viz.investors > 0 && viz.companies > 0);
        }
    }
}

//! §5.1: investor graph generation and degree concentration.
//!
//! Paper (full scale): "the final bipartite graph consists of 46,966
//! investor nodes, 59,953 company nodes, and 158,199 investment edges. On
//! average, each company has 2.6 investors. … Only 30% of the investors have
//! out-degree ≥ 3. However, these investment edges account for 75% of all
//! the investment edges. Likewise, 22.2% of the investors have out-degree
//! ≥ 4 but account for 68.3% of all investments. Finally, only 17.0% of the
//! investors have out-degree ≥ 5, accounting for 62.0% of all investments."

use crate::error::CoreError;
use crate::features::investment_edges;
use crate::pipeline::PipelineOutcome;
use crate::report::TextTable;
use crowdnet_graph::BipartiteGraph;
use crowdnet_store::DerivedKey;
use std::fmt;
use std::sync::Arc;

/// One concentration row: investors with ≥ k investments vs edge share.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcentrationRow {
    /// Out-degree threshold.
    pub k: u64,
    /// Fraction of investors at or above the threshold.
    pub investor_share: f64,
    /// Fraction of edges they account for.
    pub edge_share: f64,
    /// The paper's (investor_share, edge_share) for this k.
    pub paper: (f64, f64),
}

/// Measured §5.1 structure.
#[derive(Debug, Clone)]
pub struct InvestorGraphResult {
    /// Investor nodes (paper: 46,966).
    pub investors: usize,
    /// Company nodes (paper: 59,953).
    pub companies: usize,
    /// Investment edges (paper: 158,199).
    pub edges: usize,
    /// Mean investors per company (paper: 2.6).
    pub mean_investors_per_company: f64,
    /// The three concentration rows (k = 3, 4, 5).
    pub concentration: Vec<ConcentrationRow>,
}

/// The §5.1 bipartite graph, built from [`investment_edges`] once per
/// store version ([`crowdnet_store::Store::derived`]) and shared by every
/// §5 experiment.
pub fn graph(outcome: &PipelineOutcome) -> Result<Arc<BipartiteGraph>, CoreError> {
    outcome.store.derived(DerivedKey::new("core.investor_graph"), || {
        let edges = investment_edges(outcome)?;
        if edges.is_empty() {
            return Err(CoreError::EmptyInput("investment edges".into()));
        }
        Ok(BipartiteGraph::from_edges(edges))
    })
}

/// Measure the shared [`graph`]. Returns the result and a copy of the
/// graph itself.
pub fn run(outcome: &PipelineOutcome) -> Result<(InvestorGraphResult, BipartiteGraph), CoreError> {
    let graph = graph(outcome)?;
    let paper_rows = [(3u64, (0.30, 0.75)), (4, (0.222, 0.683)), (5, (0.170, 0.620))];
    let concentration = paper_rows
        .iter()
        .map(|&(k, paper)| {
            let (investor_share, edge_share) = graph.degree_concentration(k);
            ConcentrationRow {
                k,
                investor_share,
                edge_share,
                paper,
            }
        })
        .collect();
    let result = InvestorGraphResult {
        investors: graph.investor_count(),
        companies: graph.company_count(),
        edges: graph.edge_count(),
        mean_investors_per_company: graph.mean_investors_per_company(),
        concentration,
    };
    Ok((result, graph.as_ref().clone()))
}

impl fmt::Display for InvestorGraphResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "bipartite graph: {} investors, {} companies, {} edges ({:.1} investors/company; paper: 46,966 / 59,953 / 158,199 / 2.6)",
            self.investors, self.companies, self.edges, self.mean_investors_per_company
        )?;
        let mut t = TextTable::new(&["out-degree >= k", "% investors", "% edges", "paper"]);
        for row in &self.concentration {
            t.row(&[
                row.k.to_string(),
                format!("{:.1}%", row.investor_share * 100.0),
                format!("{:.1}%", row.edge_share * 100.0),
                format!(
                    "{:.1}% / {:.1}%",
                    row.paper.0 * 100.0,
                    row.paper.1 * 100.0
                ),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};

    #[test]
    fn concentration_shape_matches_the_paper() {
        let outcome = Pipeline::new(PipelineConfig::tiny(42)).run().unwrap();
        let (r, graph) = run(&outcome).unwrap();
        assert!(r.investors > 0 && r.companies > 0);
        assert_eq!(r.edges, graph.edge_count());
        // Companies are at least comparable in number to investors (the
        // paper has more companies than investors; tiny worlds compress the
        // company pool, so allow a wider band).
        assert!(r.companies > r.investors / 4);
        // A small average investor count per company (paper 2.6).
        assert!(r.mean_investors_per_company > 1.0);
        assert!(r.mean_investors_per_company < 8.0);
        // Concentration decreases in k for investors and edges.
        for w in r.concentration.windows(2) {
            assert!(w[1].investor_share <= w[0].investor_share);
            assert!(w[1].edge_share <= w[0].edge_share);
        }
        // The long-tail signature: a minority of investors holds a large
        // majority of edges.
        let k3 = &r.concentration[0];
        assert!(k3.investor_share < 0.6);
        assert!(k3.edge_share > k3.investor_share + 0.2);
    }
}

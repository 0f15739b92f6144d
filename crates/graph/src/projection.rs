//! Investor co-investment projection.
//!
//! The undirected baselines (Louvain, SBM, BigCLAM-on-projection) need a
//! one-mode graph: investors connected by how many companies they co-funded.
//! The projection of a bipartite graph `G` has an edge `(i, j)` with weight
//! `|companies(i) ∩ companies(j)|` for every co-investing pair.
//!
//! Companies with very many investors create quadratic clique blowups and
//! carry little community signal (everyone co-invests with everyone through
//! a mega-deal), so companies above `max_company_degree` are skipped — the
//! usual hub-capping rule for bipartite projections.
//!
//! [`DynamicProjection`] keeps the same projection up to date under
//! single-edge bipartite inserts, for the ingest tier's PageRank.

use crate::bipartite::{BipartiteGraph, EdgeInsert};
use crate::fxhash::FxHashMap;

/// A weighted undirected investor graph.
#[derive(Debug, Clone)]
pub struct Projection {
    /// node → sorted (neighbor, weight) pairs.
    pub adj: Vec<Vec<(u32, f64)>>,
    /// Sum of all edge weights (each undirected edge counted once).
    pub total_weight: f64,
}

impl Projection {
    /// Project `graph` onto investors, skipping companies with more than
    /// `max_company_degree` investors.
    pub fn from_bipartite(graph: &BipartiteGraph, max_company_degree: usize) -> Projection {
        let n = graph.investor_count();
        let mut weights: Vec<FxHashMap<u32, f64>> = vec![FxHashMap::default(); n];
        for c in 0..graph.company_count() as u32 {
            let investors = graph.investors_of(c);
            if investors.len() < 2 || investors.len() > max_company_degree {
                continue;
            }
            for (a_pos, &a) in investors.iter().enumerate() {
                for &b in &investors[a_pos + 1..] {
                    *weights[a as usize].entry(b).or_insert(0.0) += 1.0;
                    *weights[b as usize].entry(a).or_insert(0.0) += 1.0;
                }
            }
        }
        let mut total = 0.0;
        let adj: Vec<Vec<(u32, f64)>> = weights
            .into_iter()
            .map(|m| {
                let mut v: Vec<(u32, f64)> = m.into_iter().collect();
                v.sort_unstable_by_key(|&(n, _)| n);
                total += v.iter().map(|&(_, w)| w).sum::<f64>();
                v
            })
            .collect();
        Projection {
            adj,
            total_weight: total / 2.0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Weighted degree of a node.
    pub fn degree(&self, i: u32) -> f64 {
        self.adj[i as usize].iter().map(|&(_, w)| w).sum()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }
}

/// Incrementally maintained hub-capped co-investment projection: replays
/// the hub-cap rule of [`Projection::from_bipartite`] transition by
/// transition (a company crossing the cap retracts every pair it had
/// contributed).
#[derive(Debug, Clone)]
pub struct DynamicProjection {
    /// node → neighbor → weight (shared-company count).
    weights: Vec<FxHashMap<u32, f64>>,
    max_company_degree: usize,
}

impl DynamicProjection {
    /// Empty projection with the given hub cap.
    pub fn new(max_company_degree: usize) -> DynamicProjection {
        DynamicProjection {
            weights: Vec::new(),
            max_company_degree,
        }
    }

    /// Nodes tracked so far.
    pub fn node_count(&self) -> usize {
        self.weights.len()
    }

    fn bump_pair(&mut self, a: u32, b: u32, delta: f64) {
        for (x, y) in [(a, b), (b, a)] {
            let m = &mut self.weights[x as usize];
            let w = m.entry(y).or_insert(0.0);
            *w += delta;
            if *w <= 0.0 {
                m.remove(&y);
            }
        }
    }

    /// Apply one bipartite edge insertion, given the post-insert `graph`.
    ///
    /// Hub-cap transitions, with `k` the company's post-insert degree:
    /// `k == 1` contributes nothing; `2 ≤ k ≤ cap` adds a pair between
    /// the new investor and each prior one; `k == cap + 1` retracts
    /// every pair among the prior investors (the company just became a
    /// hub); `k > cap + 1` is a no-op (already excluded).
    pub fn apply_insert(&mut self, graph: &BipartiteGraph, ins: &EdgeInsert) {
        if self.weights.len() < graph.investor_count() {
            self.weights.resize_with(graph.investor_count(), FxHashMap::default);
        }
        if !ins.new_edge {
            return;
        }
        let investors = graph.investors_of(ins.company_index);
        let k = investors.len();
        let cap = self.max_company_degree;
        if (2..=cap).contains(&k) {
            for &other in investors {
                if other != ins.investor_index {
                    self.bump_pair(ins.investor_index, other, 1.0);
                }
            }
        } else if k == cap + 1 {
            // The company crossed the cap: retract the pairs its previous
            // `cap` investors contributed. The new edge itself adds none.
            for (a_pos, &a) in investors.iter().enumerate() {
                if a == ins.investor_index {
                    continue;
                }
                for &b in &investors[a_pos + 1..] {
                    if b != ins.investor_index {
                        self.bump_pair(a, b, -1.0);
                    }
                }
            }
        }
    }

    /// Export as a [`Projection`] (sorted adjacency), structurally equal
    /// to [`Projection::from_bipartite`] on the same graph and cap.
    pub fn to_projection(&self) -> Projection {
        let mut total = 0.0;
        let adj: Vec<Vec<(u32, f64)>> = self
            .weights
            .iter()
            .map(|m| {
                let mut v: Vec<(u32, f64)> = m.iter().map(|(&n, &w)| (n, w)).collect();
                v.sort_unstable_by_key(|&(n, _)| n);
                total += v.iter().map(|&(_, w)| w).sum::<f64>();
                v
            })
            .collect();
        Projection {
            adj,
            total_weight: total / 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> BipartiteGraph {
        // Investors 0..3: 0 and 1 co-invest twice; 2 co-invests once with 1.
        BipartiteGraph::from_edges(vec![
            (0, 100),
            (1, 100),
            (0, 101),
            (1, 101),
            (1, 102),
            (2, 102),
            (3, 103), // isolated in the projection
        ])
    }

    #[test]
    fn weights_count_shared_companies() {
        let p = Projection::from_bipartite(&toy(), 100);
        let w01 = p.adj[0].iter().find(|&&(n, _)| n == 1).unwrap().1;
        assert_eq!(w01, 2.0);
        let w12 = p.adj[1].iter().find(|&&(n, _)| n == 2).unwrap().1;
        assert_eq!(w12, 1.0);
        assert!(p.adj[3].is_empty());
        assert_eq!(p.total_weight, 3.0);
        assert_eq!(p.edge_count(), 2);
    }

    #[test]
    fn projection_is_symmetric() {
        let p = Projection::from_bipartite(&toy(), 100);
        for (i, neighbors) in p.adj.iter().enumerate() {
            for &(j, w) in neighbors {
                let back = p.adj[j as usize]
                    .iter()
                    .find(|&&(n, _)| n == i as u32)
                    .map(|&(_, w)| w);
                assert_eq!(back, Some(w));
            }
        }
    }

    #[test]
    fn hub_companies_are_skipped() {
        // One mega-company with 10 investors.
        let mut edges: Vec<(u32, u32)> = (0..10).map(|i| (i, 500)).collect();
        edges.push((0, 501));
        edges.push((1, 501));
        let g = BipartiteGraph::from_edges(edges);
        let capped = Projection::from_bipartite(&g, 5);
        // Only the small company contributes a single pair.
        assert_eq!(capped.edge_count(), 1);
        let full = Projection::from_bipartite(&g, 100);
        assert_eq!(full.edge_count(), 10 * 9 / 2 + 1 - 1); // pair (0,1) merges weights
    }

    #[test]
    fn degree_sums_weights() {
        let p = Projection::from_bipartite(&toy(), 100);
        assert_eq!(p.degree(1), 3.0); // 2 with investor 0, 1 with investor 2
    }

    /// Grow a [`DynamicProjection`] edge by edge beside the graph.
    fn grow(seq: &[(u32, u32)], cap: usize) -> (BipartiteGraph, DynamicProjection) {
        let mut g = BipartiteGraph::from_edges(Vec::<(u32, u32)>::new());
        let mut p = DynamicProjection::new(cap);
        for &(inv, com) in seq {
            let ins = g.add_edge(inv, com);
            p.apply_insert(&g, &ins);
        }
        (g, p)
    }

    #[test]
    fn dynamic_projection_matches_batch_projection() {
        let seq = [
            (0, 100),
            (1, 100),
            (0, 101),
            (1, 101),
            (1, 102),
            (2, 102),
            (3, 103),
            (2, 101),
            (4, 104),
            (0, 104),
            (3, 104),
        ];
        for cap in [2, 3, 50] {
            let (g, p) = grow(&seq, cap);
            let batch = Projection::from_bipartite(&g, cap);
            let inc = p.to_projection();
            assert_eq!(inc.adj, batch.adj, "cap {cap}");
            assert_eq!(inc.total_weight, batch.total_weight);
        }
    }

    #[test]
    fn hub_cap_crossing_retracts_prior_pairs() {
        // Company 500 grows to cap+1 investors: its pairs must vanish.
        let edges: Vec<(u32, u32)> = (0..4u32).map(|i| (i, 500)).collect();
        let (g, p) = grow(&edges, 3);
        let inc = p.to_projection();
        assert_eq!(inc.edge_count(), 0);
        assert_eq!(Projection::from_bipartite(&g, 3).edge_count(), 0);
        assert_eq!(inc.total_weight, 0.0);
        assert_eq!(p.node_count(), 4);
    }
}

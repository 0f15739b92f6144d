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
    /// `max_company_degree` investors. Each investor's row is its sorted
    /// co-investor list (one entry per shared company) run-length encoded
    /// into `(neighbor, count)`.
    pub fn from_bipartite(graph: &BipartiteGraph, max_company_degree: usize) -> Projection {
        let n = graph.investor_count();
        let mut co_investors: Vec<u32> = Vec::new();
        let mut total: u64 = 0;
        let adj: Vec<Vec<(u32, f64)>> = (0..n as u32)
            .map(|a| {
                co_investors.clear();
                for &c in graph.companies_of(a) {
                    let investors = graph.investors_of(c);
                    if (2..=max_company_degree).contains(&investors.len()) {
                        co_investors.extend(investors.iter().filter(|&&b| b != a));
                    }
                }
                co_investors.sort_unstable();
                total += co_investors.len() as u64;
                let mut row: Vec<(u32, f64)> = Vec::new();
                for &b in &co_investors {
                    match row.last_mut() {
                        Some((last, w)) if *last == b => *w += 1.0,
                        _ => row.push((b, 1.0)),
                    }
                }
                row
            })
            .collect();
        Projection {
            adj,
            total_weight: total as f64 / 2.0,
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
/// contributed). The adjacency is kept as the sorted [`Projection`]
/// itself, so a solver reads it in place.
#[derive(Debug, Clone)]
pub struct DynamicProjection {
    proj: Projection,
    max_company_degree: usize,
}

impl DynamicProjection {
    /// The projection of `graph` as it stands, to be followed from here
    /// by [`DynamicProjection::apply_insert`].
    pub fn from_bipartite(graph: &BipartiteGraph, max_company_degree: usize) -> DynamicProjection {
        DynamicProjection {
            proj: Projection::from_bipartite(graph, max_company_degree),
            max_company_degree,
        }
    }

    /// Nodes tracked so far.
    pub fn node_count(&self) -> usize {
        self.proj.node_count()
    }

    /// The maintained projection, equal to [`Projection::from_bipartite`]
    /// on the same graph and cap.
    pub fn projection(&self) -> &Projection {
        &self.proj
    }

    /// Add `delta` (±1) to the weight of pair `(a, b)`, dropping the pair
    /// when its weight reaches zero. Weights and the total stay whole
    /// numbers, so every sum over them is exact.
    fn bump_pair(&mut self, a: u32, b: u32, delta: f64) {
        let mut applied = 0.0;
        for (x, y) in [(a, b), (b, a)] {
            let row = &mut self.proj.adj[x as usize];
            match row.binary_search_by_key(&y, |&(n, _)| n) {
                Ok(i) if row[i].1 + delta > 0.0 => {
                    row[i].1 += delta;
                    applied = delta;
                }
                Ok(i) => applied = -row.remove(i).1,
                Err(i) if delta > 0.0 => {
                    row.insert(i, (y, delta));
                    applied = delta;
                }
                Err(_) => {}
            }
        }
        self.proj.total_weight += applied;
    }

    /// Apply one bipartite edge insertion, given the post-insert `graph`.
    ///
    /// Hub-cap transitions, with `k` the company's post-insert degree:
    /// `k == 1` contributes nothing; `2 ≤ k ≤ cap` adds a pair between
    /// the new investor and each prior one; `k == cap + 1` retracts
    /// every pair among the prior investors (the company just became a
    /// hub); `k > cap + 1` is a no-op (already excluded).
    pub fn apply_insert(&mut self, graph: &BipartiteGraph, ins: &EdgeInsert) {
        if self.proj.adj.len() < graph.investor_count() {
            self.proj.adj.resize_with(graph.investor_count(), Vec::new);
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
        let mut p = DynamicProjection::from_bipartite(&g, cap);
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
            let inc = p.projection();
            assert_eq!(inc.adj, batch.adj, "cap {cap}");
            assert_eq!(inc.total_weight, batch.total_weight);
            // Started from the batch projection half-way, then followed.
            let (half, _) = grow(&seq[..seq.len() / 2], cap);
            let mut g2 = half.clone();
            let mut q = DynamicProjection::from_bipartite(&half, cap);
            for &(inv, com) in &seq[seq.len() / 2..] {
                let ins = g2.add_edge(inv, com);
                q.apply_insert(&g2, &ins);
            }
            assert_eq!(q.projection().adj, batch.adj, "cap {cap}, resumed");
            assert_eq!(q.projection().total_weight, batch.total_weight);
        }
    }

    #[test]
    fn hub_cap_crossing_retracts_prior_pairs() {
        // Company 500 grows to cap+1 investors: its pairs must vanish.
        let edges: Vec<(u32, u32)> = (0..4u32).map(|i| (i, 500)).collect();
        let (g, p) = grow(&edges, 3);
        let inc = p.projection();
        assert_eq!(inc.edge_count(), 0);
        assert_eq!(Projection::from_bipartite(&g, 3).edge_count(), 0);
        assert_eq!(inc.total_weight, 0.0);
        assert_eq!(p.node_count(), 4);
    }
}

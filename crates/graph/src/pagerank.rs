//! PageRank centrality on the weighted investor projection.
//!
//! §7 of the paper: "we further plan to use characteristics such as node
//! degree, connectivity, and **measures of centrality** in each of the
//! graphs in our database to predict the success or failure of a startup."
//! PageRank is the workhorse centrality for that plan; the prediction
//! experiment (`crowdnet-core::experiments::predict`) consumes it as a
//! feature.
//!
//! Standard damped power iteration over the weighted adjacency, with
//! dangling-node mass redistributed uniformly. [`pagerank_from`] is the one
//! solver: a cold start iterates from the uniform vector, and the ingest
//! tier warm-starts each epoch from the previous epoch's scores.

use crate::projection::Projection;

/// PageRank parameters.
#[derive(Debug, Clone)]
pub struct PageRankConfig {
    /// Damping factor (0.85 is the classic choice).
    pub damping: f64,
    /// Maximum iterations.
    pub max_iterations: usize,
    /// L1 convergence threshold.
    pub tolerance: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            max_iterations: 100,
            tolerance: 1e-9,
        }
    }
}

/// What one [`pagerank_from`] solve did.
#[derive(Debug, Clone)]
pub struct PageRankRun {
    /// Scores summing to 1, one per projection node.
    pub ranks: Vec<f64>,
    /// Power-iteration sweeps performed.
    pub sweeps: usize,
}

/// Compute PageRank scores (summing to 1) for every node of the projection.
/// Returns an empty vector for an empty graph. The cold-start case of
/// [`pagerank_from`].
pub fn pagerank(projection: &Projection, cfg: &PageRankConfig) -> Vec<f64> {
    pagerank_from(projection, cfg, Vec::new()).ranks
}

/// Power iteration started from `start`, a previous solve's scores on a
/// projection that has since grown: nodes past `start.len()` enter with
/// the uniform share `1/n` and the vector is renormalized to sum 1. An
/// empty `start` is the cold solve from the uniform vector, bit-identical
/// to [`pagerank`].
pub fn pagerank_from(
    projection: &Projection,
    cfg: &PageRankConfig,
    start: Vec<f64>,
) -> PageRankRun {
    let n = projection.node_count();
    if n == 0 {
        return PageRankRun { ranks: Vec::new(), sweeps: 0 };
    }
    let uniform = 1.0 / n as f64;
    let degrees: Vec<f64> = (0..n).map(|i| projection.degree(i as u32)).collect();
    let mut rank = start;
    if rank.is_empty() {
        rank = vec![uniform; n];
    } else {
        rank.resize(n, uniform);
        let sum: f64 = rank.iter().sum();
        for x in rank.iter_mut() {
            *x /= sum;
        }
    }
    let mut next = vec![0.0; n];
    let mut sweeps = 0;

    for _ in 0..cfg.max_iterations {
        sweeps += 1;
        let mut dangling_mass = 0.0;
        for x in next.iter_mut() {
            *x = 0.0;
        }
        for i in 0..n {
            if degrees[i] <= 0.0 {
                dangling_mass += rank[i];
                continue;
            }
            let share = rank[i] / degrees[i];
            for &(j, w) in &projection.adj[i] {
                next[j as usize] += share * w;
            }
        }
        let base = (1.0 - cfg.damping) * uniform + cfg.damping * dangling_mass * uniform;
        let mut delta = 0.0;
        for i in 0..n {
            let new = base + cfg.damping * next[i];
            delta += (new - rank[i]).abs();
            rank[i] = new;
        }
        if delta < cfg.tolerance {
            break;
        }
    }
    PageRankRun { ranks: rank, sweeps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::BipartiteGraph;

    fn star_projection() -> Projection {
        // Investors 0..=4 all co-invest with hub investor 0 via pairwise
        // companies; build directly for precision.
        Projection {
            adj: vec![
                vec![(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)],
                vec![(0, 1.0)],
                vec![(0, 1.0)],
                vec![(0, 1.0)],
                vec![(0, 1.0)],
            ],
            total_weight: 4.0,
        }
    }

    #[test]
    fn sums_to_one_and_hub_dominates() {
        let ranks = pagerank(&star_projection(), &PageRankConfig::default());
        let total: f64 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        for leaf in 1..5 {
            assert!(ranks[0] > ranks[leaf], "hub must out-rank leaves");
        }
        // Leaves are symmetric.
        for leaf in 2..5 {
            assert!((ranks[1] - ranks[leaf]).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_graph_gives_uniform_ranks() {
        // A 4-cycle with equal weights.
        let p = Projection {
            adj: vec![
                vec![(1, 1.0), (3, 1.0)],
                vec![(0, 1.0), (2, 1.0)],
                vec![(1, 1.0), (3, 1.0)],
                vec![(0, 1.0), (2, 1.0)],
            ],
            total_weight: 4.0,
        };
        let ranks = pagerank(&p, &PageRankConfig::default());
        for r in &ranks {
            assert!((r - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn dangling_nodes_do_not_leak_mass() {
        let p = Projection {
            adj: vec![vec![(1, 1.0)], vec![(0, 1.0)], vec![]],
            total_weight: 1.0,
        };
        let ranks = pagerank(&p, &PageRankConfig::default());
        let total: f64 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(ranks[2] > 0.0); // isolated node keeps teleport mass
    }

    #[test]
    fn empty_graph() {
        let p = Projection {
            adj: vec![],
            total_weight: 0.0,
        };
        assert!(pagerank(&p, &PageRankConfig::default()).is_empty());
    }

    #[test]
    fn weights_matter() {
        // Node 0 links strongly to 1, weakly to 2.
        let p = Projection {
            adj: vec![
                vec![(1, 10.0), (2, 1.0)],
                vec![(0, 10.0)],
                vec![(0, 1.0)],
            ],
            total_weight: 11.0,
        };
        let ranks = pagerank(&p, &PageRankConfig::default());
        assert!(ranks[1] > ranks[2]);
    }

    #[test]
    fn works_on_real_projection() {
        let g = BipartiteGraph::from_edges(vec![
            (0, 100),
            (1, 100),
            (1, 101),
            (2, 101),
            (3, 102),
        ]);
        let p = Projection::from_bipartite(&g, 100);
        let ranks = pagerank(&p, &PageRankConfig::default());
        assert_eq!(ranks.len(), 4);
        // Investor 1 co-invests with both 0 and 2: most central.
        assert!(ranks[1] > ranks[0]);
        assert!(ranks[1] > ranks[2]);
    }

    fn co_investments() -> Vec<(u32, u32)> {
        vec![
            (0, 100),
            (1, 100),
            (1, 101),
            (2, 101),
            (3, 102),
            (0, 103),
            (2, 103),
            (4, 103),
            (5, 104),
        ]
    }

    #[test]
    fn cold_start_is_bit_identical_to_the_uniform_power_iteration() {
        // Bit patterns the uniform-start power iteration produced on this
        // graph before warm starts existed: `Artifacts::build` and the
        // `predict` experiment must not move by a single ulp.
        let want: [u64; 6] = [
            0x3fd1935131f233a4,
            0x3fc8624bbfd42799,
            0x3fd1935131f233a4,
            0x3fa1dc47711dc478,
            0x3fc8624bbfd42799,
            0x3fa1dc47711dc478,
        ];
        let p = Projection::from_bipartite(&BipartiteGraph::from_edges(co_investments()), 100);
        let cold = pagerank_from(&p, &PageRankConfig::default(), Vec::new());
        let bits: Vec<u64> = cold.ranks.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want);
        assert_eq!(cold.ranks, pagerank(&p, &PageRankConfig::default()));
    }

    #[test]
    fn warm_start_on_a_grown_graph_converges_to_the_cold_solve() {
        let cfg = PageRankConfig::default();
        let project = |edges: Vec<(u32, u32)>| {
            Projection::from_bipartite(&BipartiteGraph::from_edges(edges), 100)
        };
        let mut edges = co_investments();
        let before = pagerank(&project(edges.clone()), &cfg);
        // New co-investments among old investors, plus two new investors.
        edges.extend([(3, 100), (5, 101), (6, 104), (7, 102), (6, 103)]);
        let p = project(edges);
        assert!(p.node_count() > before.len());
        let cold = pagerank_from(&p, &cfg, Vec::new());
        let warm = pagerank_from(&p, &cfg, before);
        assert_eq!(warm.ranks.len(), cold.ranks.len());
        for (i, (w, c)) in warm.ranks.iter().zip(&cold.ranks).enumerate() {
            assert!((w - c).abs() < 1e-6, "node {i}: warm {w} vs cold {c}");
        }
        assert!((warm.ranks.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Restarting from the converged answer settles at once.
        let again = pagerank_from(&p, &cfg, cold.ranks.clone());
        assert!(again.sweeps < cold.sweeps, "{} vs {}", again.sweeps, cold.sweeps);
    }
}

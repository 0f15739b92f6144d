//! BigCLAM baseline (Yang & Leskovec, WSDM 2013).
//!
//! The undirected affiliation model CoDA generalizes: one non-negative
//! affiliation matrix `F` over *all* nodes, `P(u—v) = 1 − exp(−F_u·F_v)`.
//! Run here over the bipartite graph's undirected expansion (investors and
//! companies as one node set), it is the paper's "standard community
//! detection" strawman: it cannot distinguish the two directed roles, which
//! is exactly why the paper picks CoDA.

use crate::bipartite::BipartiteGraph;
use crate::coda::{column_sums, update_row, Scratch};
use crate::metrics::{Community, Cover};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// BigCLAM hyper-parameters.
#[derive(Debug, Clone)]
pub struct BigClamConfig {
    /// Number of communities.
    pub communities: usize,
    /// Coordinate-ascent passes.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Initial line-search step.
    pub step: f64,
}

impl Default for BigClamConfig {
    fn default() -> Self {
        BigClamConfig {
            communities: 16,
            iterations: 30,
            seed: 7,
            step: 0.25,
        }
    }
}

/// A fitted BigCLAM model over the undirected expansion.
#[derive(Debug, Clone)]
pub struct BigClam {
    /// Affiliations for all nodes: investors `0..nu`, companies `nu..nu+nc`.
    pub f: Vec<Vec<f64>>,
    investor_count: usize,
}

impl BigClam {
    /// Fit to the undirected expansion of `graph`.
    pub fn fit(graph: &BipartiteGraph, cfg: &BigClamConfig) -> BigClam {
        let nu = graph.investor_count();
        let nc = graph.company_count();
        let n = nu + nc;
        let c = cfg.communities.max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Undirected adjacency: investor u ↔ company (nu + c).
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for u in 0..nu as u32 {
            for &ci in graph.companies_of(u) {
                adj[u as usize].push(nu as u32 + ci);
                adj[nu + ci as usize].push(u);
            }
        }

        // Row-major: node `i`'s weights are `f[i·c..(i+1)·c]`.
        let mut f: Vec<f64> = (0..n * c).map(|_| rng.random::<f64>() * 0.1).collect();
        // Seed communities from high-degree nodes' neighborhoods, skipping
        // anchors whose neighborhoods mostly overlap one already chosen (the
        // same diversification CoDA's init uses).
        let mut by_degree: Vec<usize> = (0..n).collect();
        by_degree.sort_by_key(|&i| std::cmp::Reverse(adj[i].len()));
        let mut covered: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut k = 0usize;
        for &anchor in &by_degree {
            if k == c {
                break;
            }
            if adj[anchor].is_empty() {
                continue;
            }
            let overlap = adj[anchor].iter().filter(|v| covered.contains(v)).count();
            if overlap * 2 > adj[anchor].len() {
                continue;
            }
            covered.extend(adj[anchor].iter().copied());
            f[anchor * c + k] += 1.0;
            for &v in &adj[anchor] {
                f[v as usize * c + k] += 1.0;
            }
            k += 1;
        }

        // Unlike CoDA (two disjoint sides), here the column sums include the
        // node's own row — which must NOT appear in its non-edge penalty, or
        // every node suppresses itself to zero. Maintain the sums
        // incrementally and hand each update a self-excluded copy.
        // A node is never its own neighbour, so its update reads `f`
        // everywhere but its own row, which it works on in a copy.
        let mut sum_f = column_sums(&f, c);
        let mut sum_wo_self = vec![0.0; c];
        let mut row = vec![0.0; c];
        let mut scratch = Scratch::default();
        for _ in 0..cfg.iterations {
            for i in 0..n {
                row.copy_from_slice(&f[i * c..][..c]);
                for k in 0..c {
                    sum_wo_self[k] = sum_f[k] - row[k];
                }
                update_row(&mut row, &adj[i], &f, &sum_wo_self, cfg.step, &mut scratch);
                for k in 0..c {
                    sum_f[k] = sum_wo_self[k] + row[k];
                }
                f[i * c..][..c].copy_from_slice(&row);
            }
        }

        BigClam {
            f: f.chunks_exact(c).map(<[f64]>::to_vec).collect(),
            investor_count: nu,
        }
    }

    /// Disjoint investor cover by argmax affiliation (dense-fixture-safe;
    /// see `Coda::dominant_communities`).
    pub fn dominant_communities(&self) -> Cover {
        let mut groups: std::collections::HashMap<usize, Vec<u32>> =
            std::collections::HashMap::new();
        for u in 0..self.investor_count {
            let row = &self.f[u];
            let (k, &weight) = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .expect("at least one community");
            if weight > 1e-6 {
                groups.entry(k).or_default().push(u as u32);
            }
        }
        let mut cover: Cover = groups
            .into_values()
            .map(|members| Community { members })
            .collect();
        cover.sort_by_key(|c| std::cmp::Reverse(c.members.len()));
        cover
    }

    /// Detected investor communities (companies are members too in this
    /// model, but only investors are reported so covers are comparable with
    /// CoDA's).
    pub fn investor_communities(&self, graph: &BipartiteGraph) -> Cover {
        let n = self.f.len() as f64;
        let eps = (2.0 * graph.edge_count() as f64 / (n * (n - 1.0)).max(1.0)).clamp(1e-8, 0.5);
        let delta = (-(1.0 - eps).ln()).sqrt();
        let c = self.f.first().map(Vec::len).unwrap_or(0);
        (0..c)
            .filter_map(|k| {
                let members: Vec<u32> = (0..self.investor_count as u32)
                    .filter(|&u| self.f[u as usize][k] >= delta)
                    .collect();
                (!members.is_empty()).then_some(Community { members })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted() -> BipartiteGraph {
        let mut edges = Vec::new();
        for u in 0..12u32 {
            for c in 100..108u32 {
                if (u + c) % 3 != 0 {
                    edges.push((u, c));
                }
            }
        }
        for u in 20..32u32 {
            for c in 200..208u32 {
                if (u + c) % 3 != 0 {
                    edges.push((u, c));
                }
            }
        }
        BipartiteGraph::from_edges(edges)
    }

    #[test]
    fn detects_the_two_blocks() {
        let g = planted();
        let model = BigClam::fit(&g, &BigClamConfig { communities: 2, iterations: 30, ..Default::default() });
        let cover = model.dominant_communities();
        assert!(!cover.is_empty());
        // The two blocks should not be merged into one community covering
        // everything: at least one community is a strict subset.
        let max_size = cover.iter().map(|c| c.members.len()).max().unwrap();
        assert!(max_size <= g.investor_count());
        assert!(cover.iter().any(|c| c.members.len() >= 8));
    }

    #[test]
    fn block_members_cluster_together() {
        let g = planted();
        let model = BigClam::fit(&g, &BigClamConfig { communities: 2, iterations: 40, ..Default::default() });
        let cover = model.dominant_communities();
        // Find the community best covering block 0 (ids 0..12).
        let block0: Vec<u32> = (0..12u32).filter_map(|id| g.investor_index(id)).collect();
        let overlap = |c: &Community| {
            c.members.iter().filter(|m| block0.contains(m)).count() as f64
                / c.members.len().max(1) as f64
        };
        let best = cover
            .iter()
            .map(|c| overlap(c) * c.members.iter().filter(|m| block0.contains(m)).count() as f64)
            .fold(0.0f64, f64::max);
        assert!(best > 4.0, "no community concentrates on block 0 (score {best})");
    }

    #[test]
    fn deterministic() {
        let g = planted();
        let cfg = BigClamConfig { communities: 2, iterations: 10, ..Default::default() };
        let a = BigClam::fit(&g, &cfg);
        let b = BigClam::fit(&g, &cfg);
        assert_eq!(a.f, b.f);
    }
}

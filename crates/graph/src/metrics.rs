//! Community-strength metrics (§5.3).
//!
//! Two metrics quantify how strongly a community of investors herds:
//!
//! * **Shared investment size** — "it counts the intersection size of two
//!   investors' investing companies sets … we can hence gain a measure of
//!   the strength of the community by taking the average across all shared
//!   investment sizes between all pairs of investors within the community."
//! * **Percentage of companies with ≥ K shared investors** — "we identify
//!   companies that are co-invested by at least two investors from the same
//!   community, and then we compute the percentage of these companies … over
//!   all companies invested by the community."
//!
//! Figure 8's worked toy examples are encoded as unit tests verbatim:
//! community (a) scores (2+2+1)/3 = 1.67 and 100 %, community (b) scores
//! (1+0+0)/3 = 0.33 and 25 %.

use crate::bipartite::BipartiteGraph;
use crate::fxhash::FxHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One detected community: dense investor indices into a [`BipartiteGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Community {
    /// Member investor indices.
    pub members: Vec<u32>,
}

/// A cover: a set of (possibly overlapping) communities.
pub type Cover = Vec<Community>;

/// Intersection size of two sorted slices.
fn sorted_intersection_size(a: &[u32], b: &[u32]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Shared investment size of one investor pair.
fn shared_investment_size(graph: &BipartiteGraph, a: u32, b: u32) -> usize {
    sorted_intersection_size(graph.companies_of(a), graph.companies_of(b))
}

/// Average pairwise shared investment size within a community.
/// `None` for communities with fewer than two members (no pairs).
pub fn avg_shared_investment(graph: &BipartiteGraph, community: &Community) -> Option<f64> {
    let m = &community.members;
    if m.len() < 2 {
        return None;
    }
    let mut total = 0usize;
    let mut pairs = 0usize;
    for i in 0..m.len() {
        for j in (i + 1)..m.len() {
            total += shared_investment_size(graph, m[i], m[j]);
            pairs += 1;
        }
    }
    Some(total as f64 / pairs as f64)
}

/// All pairwise shared-investment sizes within a community (the per-community
/// CDF series of Figure 4).
pub fn pairwise_shared_sizes(graph: &BipartiteGraph, community: &Community) -> Vec<f64> {
    let m = &community.members;
    let mut out = Vec::with_capacity(m.len() * m.len().saturating_sub(1) / 2);
    for i in 0..m.len() {
        for j in (i + 1)..m.len() {
            out.push(shared_investment_size(graph, m[i], m[j]) as f64);
        }
    }
    out
}

/// Shared-investment sizes of `n` uniformly random investor pairs — the
/// estimated global CDF of Figure 4 ("we pick 800,000 i.i.d. sample pairs of
/// investors"). Deterministic in `seed`.
pub fn sampled_shared_sizes(graph: &BipartiteGraph, n: usize, seed: u64) -> Vec<f64> {
    let investors = graph.investor_count() as u32;
    if investors < 2 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let a = rng.random_range(0..investors);
            let b = rng.random_range(0..investors);
            shared_investment_size(graph, a, b) as f64
        })
        .collect()
}

/// Percentage (0–100) of companies invested by the community that have at
/// least `k` investors *from the community*. `None` if the community invests
/// in no companies.
pub fn pct_companies_with_shared_investors(
    graph: &BipartiteGraph,
    community: &Community,
    k: usize,
) -> Option<f64> {
    let mut counts: FxHashMap<u32, usize> = FxHashMap::default();
    for &m in &community.members {
        for &c in graph.companies_of(m) {
            *counts.entry(c).or_insert(0) += 1;
        }
    }
    if counts.is_empty() {
        return None;
    }
    let shared = counts.values().filter(|&&n| n >= k).count();
    Some(shared as f64 / counts.len() as f64 * 100.0)
}

/// The Figure 5 series: for every community in the cover, the K=2 shared-
/// investor percentage (communities that invest in nothing are skipped).
pub fn cover_shared_investor_pcts(graph: &BipartiteGraph, cover: &Cover, k: usize) -> Vec<f64> {
    cover
        .iter()
        .filter_map(|c| pct_companies_with_shared_investors(graph, c, k))
        .collect()
}

/// Randomized-community control (§5.3's "point of comparison with a
/// randomized community of investors"): communities of the same sizes as
/// `cover`, with members drawn uniformly. Deterministic in `seed`.
pub fn randomized_cover(graph: &BipartiteGraph, cover: &Cover, seed: u64) -> Cover {
    let investors = graph.investor_count() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    cover
        .iter()
        .map(|c| {
            let mut members: Vec<u32> = (0..c.members.len())
                .map(|_| rng.random_range(0..investors.max(1)))
                .collect();
            members.sort_unstable();
            members.dedup();
            Community { members }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 8a: investors {1,2,3} × companies {a,b,c};
    /// 1→{a,b}, 2→{a,b,c}, 3→{b,c}.
    fn toy_strong() -> (BipartiteGraph, Community) {
        let g = BipartiteGraph::from_edges(vec![
            (1, 100),
            (1, 101),
            (2, 100),
            (2, 101),
            (2, 102),
            (3, 101),
            (3, 102),
        ]);
        let members = (0..3).collect();
        (g, Community { members })
    }

    /// Figure 8b: 1→{a}, 2→{a,b}, 3→{c,d}: pairs share (1,0,0).
    fn toy_weak() -> (BipartiteGraph, Community) {
        let g = BipartiteGraph::from_edges(vec![
            (1, 100),
            (2, 100),
            (2, 101),
            (3, 102),
            (3, 103),
        ]);
        let members = (0..3).collect();
        (g, Community { members })
    }

    #[test]
    fn figure8a_shared_investment_size() {
        let (g, c) = toy_strong();
        // Pairs: (1,2) share {a,b}=2, (1,3) share {b}=1... the paper's
        // worked numbers: (2+2+1)/3 = 1.67.
        // Our toy: (1,2)=2, (2,3)=2, (1,3)=1 → same 1.67.
        let avg = avg_shared_investment(&g, &c).unwrap();
        assert!((avg - 5.0 / 3.0).abs() < 1e-12, "avg = {avg}");
    }

    #[test]
    fn figure8a_pct_shared_investors() {
        let (g, c) = toy_strong();
        // All 3 companies have ≥2 community investors → 100%.
        let pct = pct_companies_with_shared_investors(&g, &c, 2).unwrap();
        assert!((pct - 100.0).abs() < 1e-12);
    }

    #[test]
    fn figure8b_shared_investment_size() {
        let (g, c) = toy_weak();
        // (1+0+0)/3 = 0.33.
        let avg = avg_shared_investment(&g, &c).unwrap();
        assert!((avg - 1.0 / 3.0).abs() < 1e-12, "avg = {avg}");
    }

    #[test]
    fn figure8b_pct_shared_investors() {
        let (g, c) = toy_weak();
        // Only company a has 2 community investors, of 4 companies → 25%.
        let pct = pct_companies_with_shared_investors(&g, &c, 2).unwrap();
        assert!((pct - 25.0).abs() < 1e-12, "pct = {pct}");
    }

    #[test]
    fn degenerate_communities() {
        let (g, _) = toy_strong();
        assert!(avg_shared_investment(&g, &Community { members: vec![0] }).is_none());
        assert!(avg_shared_investment(&g, &Community { members: vec![] }).is_none());
        assert!(
            pct_companies_with_shared_investors(&g, &Community { members: vec![] }, 2).is_none()
        );
    }

    #[test]
    fn pairwise_sizes_enumerates_all_pairs() {
        let (g, c) = toy_strong();
        let mut sizes = pairwise_shared_sizes(&g, &c);
        sizes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sizes, vec![1.0, 2.0, 2.0]);
    }

    #[test]
    fn sampled_shared_sizes_deterministic_and_sized() {
        let (g, _) = toy_strong();
        let a = sampled_shared_sizes(&g, 500, 9);
        let b = sampled_shared_sizes(&g, 500, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert!(a.iter().all(|&v| (0.0..=3.0).contains(&v)));
        let c = sampled_shared_sizes(&g, 500, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn randomized_cover_preserves_size_shape() {
        let (g, c) = toy_strong();
        let cover = vec![c.clone(), Community { members: vec![0, 1] }];
        let rnd = randomized_cover(&g, &cover, 3);
        assert_eq!(rnd.len(), 2);
        assert!(rnd[0].members.len() <= cover[0].members.len());
        for m in rnd.iter().flat_map(|c| c.members.iter()) {
            assert!(*m < g.investor_count() as u32);
        }
    }

    #[test]
    fn cover_pcts_skips_empty() {
        let (g, c) = toy_strong();
        let cover = vec![c, Community { members: vec![] }];
        let pcts = cover_shared_investor_pcts(&g, &cover, 2);
        assert_eq!(pcts.len(), 1);
    }
}

//! Property tests for the graph algorithms on randomly generated bipartite
//! graphs: structural invariants, ascent properties, and metric bounds.

use crowdnet_graph::bipartite::BipartiteGraph;
use crowdnet_graph::coda::{Coda, CodaConfig};
use crowdnet_graph::eval::best_match_f1;
use crowdnet_graph::labelprop::{label_propagation, LabelPropConfig};
use crowdnet_graph::louvain::{louvain, LouvainConfig};
use crowdnet_graph::metrics::{self, Community};
use crowdnet_graph::pagerank::{pagerank, PageRankConfig};
use crowdnet_graph::projection::{DynamicProjection, Projection};
use std::collections::BTreeMap;
use proptest::prelude::*;

/// Random edge list over bounded id spaces.
fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..40, 100u32..160), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bipartite_construction_invariants(edges in edges_strategy()) {
        let g = BipartiteGraph::from_edges(edges.clone());
        // Dedup never increases the edge count; adjacency is symmetric.
        prop_assert!(g.edge_count() <= edges.len());
        let out_total: usize = (0..g.investor_count() as u32)
            .map(|i| g.companies_of(i).len())
            .sum();
        let in_total: usize = (0..g.company_count() as u32)
            .map(|c| g.investors_of(c).len())
            .sum();
        prop_assert_eq!(out_total, g.edge_count());
        prop_assert_eq!(in_total, g.edge_count());
        // Every investor has at least one edge (the paper's construction).
        for i in 0..g.investor_count() as u32 {
            prop_assert!(!g.companies_of(i).is_empty());
        }
    }

    #[test]
    fn coda_log_likelihood_never_decreases(edges in edges_strategy(), seed in 0u64..50) {
        let g = BipartiteGraph::from_edges(edges);
        let cfg = CodaConfig { communities: 3, iterations: 8, seed, ..Default::default() };
        let model = Coda::fit(&g, &cfg);
        for w in model.ll_trace.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-6, "LL fell: {} -> {}", w[0], w[1]);
        }
        // Affiliations stay non-negative and finite.
        for &v in model.f.iter().chain(model.h.iter()) {
            prop_assert!(v >= 0.0 && v.is_finite());
        }
    }

    #[test]
    fn metrics_are_bounded(edges in edges_strategy(), k in 1usize..5) {
        let g = BipartiteGraph::from_edges(edges);
        let everyone = Community { members: (0..g.investor_count() as u32).collect() };
        if let Some(pct) = metrics::pct_companies_with_shared_investors(&g, &everyone, k) {
            prop_assert!((0.0..=100.0).contains(&pct));
        }
        if let Some(avg) = metrics::avg_shared_investment(&g, &everyone) {
            prop_assert!(avg >= 0.0);
            // Pairwise intersection can never exceed the smaller portfolio.
            let max_deg = (0..g.investor_count() as u32)
                .map(|i| g.companies_of(i).len())
                .max()
                .unwrap_or(0);
            prop_assert!(avg <= max_deg as f64);
        }
    }

    #[test]
    fn disjoint_detectors_partition_all_investors(edges in edges_strategy()) {
        let g = BipartiteGraph::from_edges(edges);
        let lpa = label_propagation(&g, &LabelPropConfig::default());
        let total: usize = lpa.iter().map(|c| c.members.len()).sum();
        prop_assert_eq!(total, g.investor_count());
        // No duplicates across communities.
        let mut seen = std::collections::HashSet::new();
        for c in &lpa {
            for &m in &c.members {
                prop_assert!(seen.insert(m));
            }
        }
    }

    #[test]
    fn louvain_and_pagerank_are_well_formed(edges in edges_strategy()) {
        let g = BipartiteGraph::from_edges(edges);
        let p = Projection::from_bipartite(&g, 200);
        let cover = louvain(&p, &LouvainConfig::default());
        let total: usize = cover.iter().map(|c| c.members.len()).sum();
        prop_assert_eq!(total, p.node_count());
        let ranks = pagerank(&p, &PageRankConfig::default());
        if !ranks.is_empty() {
            let sum: f64 = ranks.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6, "pagerank sum {sum}");
            prop_assert!(ranks.iter().all(|r| *r >= 0.0 && r.is_finite()));
        }
    }

    #[test]
    fn best_match_f1_bounds_and_identity(edges in edges_strategy()) {
        let g = BipartiteGraph::from_edges(edges);
        let cover = label_propagation(&g, &LabelPropConfig::default());
        if !cover.is_empty() {
            let self_score = best_match_f1(&cover, &cover);
            prop_assert!((self_score - 1.0).abs() < 1e-9);
        }
        let other = vec![Community { members: vec![0] }];
        let score = best_match_f1(&cover, &other);
        prop_assert!((0.0..=1.0).contains(&score));
    }
    #[test]
    fn projections_count_shared_non_hub_companies(edges in edges_strategy(), cap in 1usize..12) {
        let g = BipartiteGraph::from_edges(edges.clone());
        // Oracle: every co-investing pair of every company within the cap.
        let mut pairs: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for c in 0..g.company_count() as u32 {
            let investors = g.investors_of(c);
            if investors.len() < 2 || investors.len() > cap {
                continue;
            }
            for &a in investors {
                for &b in investors {
                    if a != b {
                        *pairs.entry((a, b)).or_insert(0.0) += 1.0;
                    }
                }
            }
        }
        let mut want: Vec<Vec<(u32, f64)>> = vec![Vec::new(); g.investor_count()];
        for (&(a, b), &w) in &pairs {
            want[a as usize].push((b, w));
        }
        let batch = Projection::from_bipartite(&g, cap);
        prop_assert_eq!(&batch.adj, &want);
        prop_assert_eq!(batch.total_weight, pairs.values().sum::<f64>() / 2.0);
        // Grown edge by edge, from empty and from the batch projection of
        // the first half, it is the same projection (in the grown graph's
        // own index order).
        let mut grown = BipartiteGraph::from_edges(Vec::<(u32, u32)>::new());
        let mut dynamic = DynamicProjection::from_bipartite(&grown, cap);
        let mut resumed: Option<(BipartiteGraph, DynamicProjection)> = None;
        for (i, &(inv, com)) in edges.iter().enumerate() {
            if i == edges.len() / 2 {
                resumed = Some((grown.clone(), DynamicProjection::from_bipartite(&grown, cap)));
            }
            let ins = grown.add_edge(inv, com);
            dynamic.apply_insert(&grown, &ins);
            if let Some((g2, p2)) = &mut resumed {
                let ins = g2.add_edge(inv, com);
                p2.apply_insert(g2, &ins);
            }
        }
        let rebuilt = Projection::from_bipartite(&grown, cap);
        prop_assert_eq!(&dynamic.projection().adj, &rebuilt.adj);
        prop_assert_eq!(dynamic.projection().total_weight, rebuilt.total_weight);
        if let Some((_, p2)) = &resumed {
            prop_assert_eq!(&p2.projection().adj, &rebuilt.adj);
            prop_assert_eq!(p2.projection().total_weight, rebuilt.total_weight);
        }
    }
}

//! The directed bipartite investor→company graph (§5.1).
//!
//! "We extract these IDs using Spark, and then generate investment edges of
//! the form 'investor_id vs. company_id'. … Note that we omit from the
//! investor graph generation any investors that have made no investments in
//! the past."
//!
//! External (AngelList) ids are remapped to dense indices; adjacency is kept
//! in both directions. The §5.1 degree analyses and the ≥k filter used
//! before community detection live here.

use crate::fxhash::FxHashMap;

/// Result of one incremental [`BipartiteGraph::add_edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeInsert {
    /// Dense index of the edge's investor.
    pub investor_index: u32,
    /// Dense index of the edge's company.
    pub company_index: u32,
    /// The investor node was created by this insert.
    pub new_investor: bool,
    /// The company node was created by this insert.
    pub new_company: bool,
    /// The edge did not already exist (duplicates report `false` and
    /// leave the graph untouched).
    pub new_edge: bool,
}

/// A directed bipartite graph from investors to companies.
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    /// Original investor ids, indexed by dense investor index.
    investor_ids: Vec<u32>,
    /// Original company ids, indexed by dense company index.
    company_ids: Vec<u32>,
    /// investor id → dense index (kept for incremental insertion).
    inv_index: FxHashMap<u32, u32>,
    /// company id → dense index.
    com_index: FxHashMap<u32, u32>,
    /// investor index → sorted company indices invested in.
    out_adj: Vec<Vec<u32>>,
    /// company index → sorted investor indices.
    in_adj: Vec<Vec<u32>>,
    edges: usize,
}

impl BipartiteGraph {
    /// Build from raw `(investor_id, company_id)` edges. Duplicate edges are
    /// collapsed; investors with no edges never appear (the paper's rule).
    pub fn from_edges(edges: impl IntoIterator<Item = (u32, u32)>) -> BipartiteGraph {
        let mut inv_index: FxHashMap<u32, u32> = FxHashMap::default();
        let mut com_index: FxHashMap<u32, u32> = FxHashMap::default();
        let mut investor_ids = Vec::new();
        let mut company_ids = Vec::new();
        let mut out_adj: Vec<Vec<u32>> = Vec::new();

        for (inv, com) in edges {
            let ii = *inv_index.entry(inv).or_insert_with(|| {
                investor_ids.push(inv);
                out_adj.push(Vec::new());
                (investor_ids.len() - 1) as u32
            });
            let ci = *com_index.entry(com).or_insert_with(|| {
                company_ids.push(com);
                (company_ids.len() - 1) as u32
            });
            out_adj[ii as usize].push(ci);
        }

        let mut edges_total = 0usize;
        let mut in_adj: Vec<Vec<u32>> = vec![Vec::new(); company_ids.len()];
        for (ii, neighbors) in out_adj.iter_mut().enumerate() {
            neighbors.sort_unstable();
            neighbors.dedup();
            edges_total += neighbors.len();
            for &ci in neighbors.iter() {
                in_adj[ci as usize].push(ii as u32);
            }
        }
        for list in &mut in_adj {
            list.sort_unstable();
        }

        BipartiteGraph {
            investor_ids,
            company_ids,
            inv_index,
            com_index,
            out_adj,
            in_adj,
            edges: edges_total,
        }
    }

    /// Build straight off the column projection's sealed edge segments —
    /// no JSON decode, no document materialization. The catalog returns
    /// edges in canonical document order with the serving tier's exact
    /// extraction rules, so the resulting graph is structurally identical
    /// (same dense indices, same adjacency) to
    /// [`BipartiteGraph::from_edges`] over a document scan.
    pub fn from_edge_columns(
        catalog: &crowdnet_column::ColumnCatalog,
        ns: &str,
        snapshot: crowdnet_store::SnapshotId,
    ) -> Result<BipartiteGraph, crowdnet_column::ColumnError> {
        Ok(BipartiteGraph::from_edges(catalog.edges(ns, snapshot)?))
    }

    /// Insert one `(investor_id, company_id)` edge in place, creating
    /// nodes as needed. Adjacency stays sorted (binary-search insert), so
    /// a graph grown edge-by-edge is structurally identical — same dense
    /// indices for the same arrival order, same sorted adjacency — to
    /// [`BipartiteGraph::from_edges`] over the same sequence. Duplicate
    /// edges are no-ops, mirroring the batch builder's dedup.
    pub fn add_edge(&mut self, investor_id: u32, company_id: u32) -> EdgeInsert {
        let mut new_investor = false;
        let ii = *self.inv_index.entry(investor_id).or_insert_with(|| {
            self.investor_ids.push(investor_id);
            self.out_adj.push(Vec::new());
            new_investor = true;
            (self.investor_ids.len() - 1) as u32
        });
        let mut new_company = false;
        let ci = *self.com_index.entry(company_id).or_insert_with(|| {
            self.company_ids.push(company_id);
            self.in_adj.push(Vec::new());
            new_company = true;
            (self.company_ids.len() - 1) as u32
        });
        let out = &mut self.out_adj[ii as usize];
        let new_edge = match out.binary_search(&ci) {
            Ok(_) => false,
            Err(pos) => {
                out.insert(pos, ci);
                let inl = &mut self.in_adj[ci as usize];
                match inl.binary_search(&ii) {
                    Ok(_) => {}
                    Err(p) => inl.insert(p, ii),
                }
                self.edges += 1;
                true
            }
        };
        EdgeInsert {
            investor_index: ii,
            company_index: ci,
            new_investor,
            new_company,
            new_edge,
        }
    }

    /// Number of investor nodes.
    pub fn investor_count(&self) -> usize {
        self.investor_ids.len()
    }

    /// Number of company nodes.
    pub fn company_count(&self) -> usize {
        self.company_ids.len()
    }

    /// Number of (deduplicated) investment edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Mean investors per company (§5.1 reports 2.6).
    pub fn mean_investors_per_company(&self) -> f64 {
        if self.company_ids.is_empty() {
            0.0
        } else {
            self.edges as f64 / self.company_ids.len() as f64
        }
    }

    /// Companies invested in by investor index `i`.
    pub fn companies_of(&self, i: u32) -> &[u32] {
        &self.out_adj[i as usize]
    }

    /// Investors of company index `c`.
    pub fn investors_of(&self, c: u32) -> &[u32] {
        &self.in_adj[c as usize]
    }

    /// Original AngelList id of investor index `i`.
    pub fn investor_id(&self, i: u32) -> u32 {
        self.investor_ids[i as usize]
    }

    /// Original AngelList id of company index `c`.
    pub fn company_id(&self, c: u32) -> u32 {
        self.company_ids[c as usize]
    }

    /// Dense investor index of an original id, if present.
    pub fn investor_index(&self, id: u32) -> Option<u32> {
        self.inv_index.get(&id).copied()
    }

    /// Dense company index of an original id, if present.
    pub fn company_index(&self, id: u32) -> Option<u32> {
        self.com_index.get(&id).copied()
    }

    /// Original ids of the companies investor `id` holds, in adjacency
    /// order; `None` for an unknown investor.
    pub fn company_ids_of(&self, id: u32) -> Option<Vec<u32>> {
        let i = self.investor_index(id)?;
        let companies = self.companies_of(i).iter();
        Some(companies.map(|&c| self.company_id(c)).collect())
    }

    /// Original ids of the investors of company `id`, in adjacency order;
    /// `None` for an unknown company.
    pub fn investor_ids_of(&self, id: u32) -> Option<Vec<u32>> {
        let c = self.company_index(id)?;
        let investors = self.investors_of(c).iter();
        Some(investors.map(|&i| self.investor_id(i)).collect())
    }

    /// Out-degrees of all investors (the Figure 3 sample).
    pub fn investor_degrees(&self) -> Vec<u64> {
        self.out_adj.iter().map(|n| n.len() as u64).collect()
    }

    /// In-degrees of all companies.
    pub fn company_degrees(&self) -> Vec<u64> {
        self.in_adj.iter().map(|n| n.len() as u64).collect()
    }

    /// §5.1 concentration row: `(fraction of investors with out-degree ≥ k,
    /// fraction of all edges they account for)`.
    pub fn degree_concentration(&self, k: u64) -> (f64, f64) {
        let degrees = self.investor_degrees();
        if degrees.is_empty() {
            return (0.0, 0.0);
        }
        let tail: Vec<u64> = degrees.iter().copied().filter(|&d| d >= k).collect();
        let tail_edges: u64 = tail.iter().sum();
        (
            tail.len() as f64 / degrees.len() as f64,
            tail_edges as f64 / (self.edges.max(1)) as f64,
        )
    }

    /// Subgraph keeping only investors with out-degree ≥ `k` (the paper's
    /// "consider only investors that have invested in at least 4 companies"
    /// cleaning step before CoDA). Companies that lose all investors drop
    /// out too. Dense indices are re-assigned.
    pub fn filter_min_investments(&self, k: usize) -> BipartiteGraph {
        let edges = self
            .out_adj
            .iter()
            .enumerate()
            .filter(|(_, n)| n.len() >= k)
            .flat_map(|(i, n)| {
                let inv = self.investor_ids[i];
                n.iter().map(move |&c| (inv, c))
            })
            .map(|(inv, ci)| (inv, self.company_ids[ci as usize]))
            .collect::<Vec<_>>();
        BipartiteGraph::from_edges(edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> BipartiteGraph {
        // investors 10,11,12; companies 100,101,102,103
        BipartiteGraph::from_edges(vec![
            (10, 100),
            (10, 101),
            (11, 100),
            (11, 101),
            (11, 102),
            (12, 103),
            (12, 103), // duplicate collapses
        ])
    }

    #[test]
    fn counts_and_dedup() {
        let g = toy();
        assert_eq!(g.investor_count(), 3);
        assert_eq!(g.company_count(), 4);
        assert_eq!(g.edge_count(), 6);
        assert!((g.mean_investors_per_company() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn adjacency_is_consistent_both_ways() {
        let g = toy();
        for i in 0..g.investor_count() as u32 {
            for &c in g.companies_of(i) {
                assert!(g.investors_of(c).contains(&i));
            }
        }
        for c in 0..g.company_count() as u32 {
            for &i in g.investors_of(c) {
                assert!(g.companies_of(i).contains(&c));
            }
        }
    }

    #[test]
    fn id_round_trip() {
        let g = toy();
        let idx = g.investor_index(11).unwrap();
        assert_eq!(g.investor_id(idx), 11);
        assert!(g.investor_index(99).is_none());
    }

    #[test]
    fn degrees_and_concentration() {
        let g = toy();
        let mut deg = g.investor_degrees();
        deg.sort();
        assert_eq!(deg, vec![1, 2, 3]);
        let (frac_inv, frac_edges) = g.degree_concentration(2);
        assert!((frac_inv - 2.0 / 3.0).abs() < 1e-12);
        assert!((frac_edges - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(g.degree_concentration(100), (0.0, 0.0));
    }

    #[test]
    fn filter_min_investments_drops_small_investors() {
        let g = toy();
        let f = g.filter_min_investments(2);
        assert_eq!(f.investor_count(), 2); // 10 and 11
        assert_eq!(f.company_count(), 3); // 103 drops out with investor 12
        assert_eq!(f.edge_count(), 5);
        // Filtering below the minimum keeps everything.
        let same = g.filter_min_investments(1);
        assert_eq!(same.investor_count(), 3);
        assert_eq!(same.edge_count(), 6);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = BipartiteGraph::from_edges(Vec::<(u32, u32)>::new());
        assert_eq!(g.investor_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.mean_investors_per_company(), 0.0);
        assert_eq!(g.degree_concentration(1), (0.0, 0.0));
    }

    #[test]
    fn add_edge_matches_batch_build() {
        let seq = vec![
            (10, 100),
            (10, 101),
            (11, 100),
            (11, 101),
            (11, 102),
            (12, 103),
            (12, 103), // duplicate
            (10, 100), // duplicate
        ];
        let batch = BipartiteGraph::from_edges(seq.clone());
        let mut inc = BipartiteGraph::from_edges(Vec::<(u32, u32)>::new());
        let mut new_edges = 0;
        for (inv, com) in seq {
            if inc.add_edge(inv, com).new_edge {
                new_edges += 1;
            }
        }
        assert_eq!(new_edges, batch.edge_count());
        assert_eq!(inc.edge_count(), batch.edge_count());
        assert_eq!(inc.investor_count(), batch.investor_count());
        assert_eq!(inc.company_count(), batch.company_count());
        for i in 0..batch.investor_count() as u32 {
            assert_eq!(inc.investor_id(i), batch.investor_id(i));
            assert_eq!(inc.companies_of(i), batch.companies_of(i));
        }
        for c in 0..batch.company_count() as u32 {
            assert_eq!(inc.company_id(c), batch.company_id(c));
            assert_eq!(inc.investors_of(c), batch.investors_of(c));
        }
    }

    #[test]
    fn add_edge_reports_node_and_edge_novelty() {
        let mut g = BipartiteGraph::from_edges(vec![(1, 10)]);
        let dup = g.add_edge(1, 10);
        assert!(!dup.new_edge && !dup.new_investor && !dup.new_company);
        let fresh = g.add_edge(2, 10);
        assert!(fresh.new_edge && fresh.new_investor && !fresh.new_company);
        let grown = g.add_edge(1, 11);
        assert!(grown.new_edge && !grown.new_investor && grown.new_company);
        assert_eq!(g.company_index(11), Some(grown.company_index));
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn investors_without_edges_never_appear() {
        // By construction: only ids appearing in edges are materialized.
        let g = BipartiteGraph::from_edges(vec![(5, 50)]);
        assert_eq!(g.investor_count(), 1);
        assert_eq!(g.investor_id(0), 5);
    }
}

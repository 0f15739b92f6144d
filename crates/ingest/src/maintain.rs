//! Incremental artifact maintainers.
//!
//! Each maintainer owns one family of derived state and exposes a pure
//! in-memory `apply` for the change events it cares about. The contract
//! shared by all of them: **replaying the store's append history through
//! the maintainers yields exactly the state a from-scratch rebuild
//! ([`Artifacts::build`](crowdnet_serve::Artifacts::build)) computes at the
//! same version** — in id space; dense index assignment may differ because
//! incremental insertion discovers nodes in event order while a rebuild
//! discovers them in canonical scan order. The integration suite's
//! equivalence proptest pins this down.
//!
//! Routing (which namespaces/snapshots feed which maintainer) mirrors the
//! rebuild's extraction: the investment graph and the entity index read
//! snapshot 0 of the AngelList companies/users namespaces; namespace stats
//! watch every event.

use crowdnet_column::investor_edges;
use crowdnet_graph::fxhash::FxHashMap;
use crowdnet_graph::pagerank::{pagerank_from, PageRankConfig};
use crowdnet_graph::{BipartiteGraph, DynamicProjection};
use crowdnet_serve::artifacts::{EntityIndex, NS_COMPANIES, NS_USERS};
use crowdnet_store::{frame, ChangeEvent, ChangePayload, Document, PartitionScan, SnapshotId};
use crowdnet_store::store::NamespaceStats;
use std::collections::BTreeMap;

/// The bipartite investment graph plus everything derived edge-by-edge
/// from it: degree tables, the filtered-investor count and the dynamic
/// co-investment projection — and, once per epoch, PageRank over that
/// projection, warm-started from the previous epoch's scores.
pub struct GraphMaintainer {
    graph: BipartiteGraph,
    /// Investor out-degree, index-aligned with `graph`'s investors.
    degrees: Vec<u64>,
    /// Company in-degree, index-aligned with `graph`'s companies.
    company_degrees: Vec<u64>,
    /// Investors at or above the cleaning threshold (would survive
    /// [`BipartiteGraph::filter_min_investments`]).
    filtered_investors: usize,
    min_investments: usize,
    proj: DynamicProjection,
    /// The last [`GraphMaintainer::refresh_pagerank`]'s scores (empty
    /// before the first: that solve starts cold).
    rank: Vec<f64>,
    sweeps: u64,
    cold_solves: u64,
    edges_applied: u64,
}

impl GraphMaintainer {
    /// Empty maintainer; `min_investments` and `max_company_degree` must
    /// match the serving tier's [`ArtifactsConfig`](crowdnet_serve::ArtifactsConfig)
    /// for published epochs to agree with rebuilds.
    pub fn new(min_investments: usize, max_company_degree: usize) -> GraphMaintainer {
        GraphMaintainer {
            graph: BipartiteGraph::from_edges([]),
            degrees: Vec::new(),
            company_degrees: Vec::new(),
            filtered_investors: 0,
            min_investments,
            proj: DynamicProjection::new(max_company_degree),
            rank: Vec::new(),
            sweeps: 0,
            cold_solves: 0,
            edges_applied: 0,
        }
    }

    /// Does this event feed the graph? (Snapshot 0 of the users namespace,
    /// matching the rebuild's extraction.)
    pub fn wants(ev: &ChangeEvent) -> bool {
        ev.namespace == NS_USERS
            && ev.snapshot == SnapshotId(0)
            && matches!(ev.payload, ChangePayload::Append(_))
    }

    /// Apply one appended user document: every `(investor, company)` pair
    /// in an investor's `investments` array becomes an edge insert.
    /// Duplicate edges (re-appended portfolios) are no-ops, so replaying a
    /// superset portfolio converges to the same graph as a rebuild that
    /// scans both document versions. Returns the number of new edges.
    pub fn apply_doc(&mut self, doc: &Document) -> u64 {
        let Some((id, companies)) = investor_edges(&doc.body) else {
            return 0;
        };
        let mut added = 0u64;
        for company in companies {
            let ins = self.graph.add_edge(id, company);
            if ins.new_investor {
                self.degrees.push(0);
            }
            if ins.new_company {
                self.company_degrees.push(0);
            }
            if !ins.new_edge {
                continue;
            }
            added += 1;
            let d = &mut self.degrees[ins.investor_index as usize];
            *d += 1;
            if *d as usize == self.min_investments {
                self.filtered_investors += 1;
            }
            self.company_degrees[ins.company_index as usize] += 1;
            self.proj.apply_insert(&self.graph, &ins);
        }
        self.edges_applied += added;
        added
    }

    /// PageRank over the current projection, aligned with the graph's
    /// investors: the power iteration of [`pagerank_from`], started from
    /// the previous call's scores (investors added since enter at the
    /// uniform share), so an epoch that changed little converges in a few
    /// sweeps. The first call solves cold.
    pub fn refresh_pagerank(&mut self) -> Vec<f64> {
        if self.rank.is_empty() && self.proj.node_count() > 0 {
            self.cold_solves += 1;
        }
        let start = std::mem::take(&mut self.rank);
        let run = pagerank_from(&self.proj.to_projection(), &PageRankConfig::default(), start);
        self.sweeps += run.sweeps as u64;
        self.rank = run.ranks;
        self.rank.clone()
    }

    /// The maintained graph.
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// Investor out-degree table, index-aligned with the graph.
    pub fn degrees(&self) -> &[u64] {
        &self.degrees
    }

    /// Company in-degree table, index-aligned with the graph.
    pub fn company_degrees(&self) -> &[u64] {
        &self.company_degrees
    }

    /// Investors currently at/above the cleaning threshold.
    pub fn filtered_investor_count(&self) -> usize {
        self.filtered_investors
    }

    /// Power-iteration sweeps over the maintainer's lifetime.
    pub fn pagerank_sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Cold PageRank solves (from the uniform vector) so far: one per
    /// maintainer that has ever solved over a non-empty projection.
    pub fn pagerank_recomputes(&self) -> u64 {
        self.cold_solves
    }

    /// New edges applied over the maintainer's lifetime.
    pub fn edges_applied(&self) -> u64 {
        self.edges_applied
    }
}

/// The `"company:{id}"` / `"user:{id}"` → document-body index the entity
/// endpoints answer from. Last append wins, matching the rebuild (which
/// scans docs in append order within a key).
#[derive(Default)]
pub struct EntityMaintainer {
    entities: EntityIndex,
    applied: u64,
}

impl EntityMaintainer {
    /// Does this event feed the entity index?
    pub fn wants(ev: &ChangeEvent) -> bool {
        (ev.namespace == NS_USERS || ev.namespace == NS_COMPANIES)
            && ev.snapshot == SnapshotId(0)
            && matches!(ev.payload, ChangePayload::Append(_))
    }

    /// Index one appended document.
    pub fn apply_doc(&mut self, doc: &Document) {
        self.entities.insert(doc.key.clone(), doc.body.clone());
        self.applied += 1;
    }

    /// The maintained index.
    pub fn entities(&self) -> &EntityIndex {
        &self.entities
    }

    /// The index as of now, for epoch assembly: shares every shard with
    /// the maintainer, so it costs a pointer copy per shard, and the next
    /// writes copy only the shards they touch.
    pub fn snapshot(&self) -> EntityIndex {
        self.entities.snapshot()
    }

    /// Documents indexed over the maintainer's lifetime.
    pub fn applied(&self) -> u64 {
        self.applied
    }
}

/// Per-snapshot accumulation for one namespace.
#[derive(Default)]
struct NsAcc {
    max_snapshot: u32,
    /// snapshot id → (documents, encoded bytes).
    per_snapshot: FxHashMap<u32, (usize, usize)>,
}

/// Per-namespace statistics maintained from the feed, reproducing
/// [`Store::stats`](crowdnet_store::Store::stats) (documents and encoded
/// bytes of the **latest** snapshot, total snapshot count) without a scan.
#[derive(Default)]
pub struct StatsMaintainer {
    namespaces: BTreeMap<String, NsAcc>,
}

impl StatsMaintainer {
    /// Fold one event in (every event is relevant: appends grow a
    /// snapshot's counts, `NewSnapshot` rolls the namespace's latest).
    pub fn apply_event(&mut self, ev: &ChangeEvent) {
        let acc = self.namespaces.entry(ev.namespace.clone()).or_default();
        acc.max_snapshot = acc.max_snapshot.max(ev.snapshot.0);
        if let ChangePayload::Append(_) = &ev.payload {
            let cell = acc.per_snapshot.entry(ev.snapshot.0).or_default();
            cell.0 += 1;
            cell.1 += ev.encoded_len as usize;
        }
    }

    /// Fold a catch-up scan of one partition of a snapshot in. Encoded
    /// bytes come from the scan's framed bytes (each record is its line
    /// plus a fixed frame), not from re-encoding the documents.
    pub fn absorb_scan(&mut self, ns: &str, snap: SnapshotId, part: &PartitionScan<Document>) {
        let acc = self.namespaces.entry(ns.to_string()).or_default();
        acc.max_snapshot = acc.max_snapshot.max(snap.0);
        let cell = acc.per_snapshot.entry(snap.0).or_default();
        cell.0 += part.docs;
        cell.1 += (part.framed_bytes - part.docs as u64 * frame::frame_len(0)) as usize;
    }

    /// Render as the same sorted `Vec<NamespaceStats>` `Store::stats`
    /// returns (BTreeMap iteration gives the sorted namespace order).
    pub fn to_stats(&self) -> Vec<NamespaceStats> {
        self.namespaces
            .iter()
            .map(|(ns, acc)| {
                let (documents, encoded_bytes) = acc
                    .per_snapshot
                    .get(&acc.max_snapshot)
                    .copied()
                    .unwrap_or((0, 0));
                NamespaceStats {
                    namespace: ns.clone(),
                    documents,
                    encoded_bytes,
                    snapshots: acc.max_snapshot as usize + 1,
                }
            })
            .collect()
    }

    /// Namespaces seen so far.
    pub fn namespace_count(&self) -> usize {
        self.namespaces.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_json::{obj, Value};
    use crowdnet_store::Store;

    fn investor_doc(id: u32, companies: &[u64]) -> Document {
        let arr = companies.iter().map(|&c| Value::from(c)).collect::<Vec<_>>();
        Document::new(
            format!("user:{id}"),
            obj! {"id" => u64::from(id), "role" => "investor", "investments" => Value::Arr(arr)},
        )
    }

    #[test]
    fn graph_maintainer_tracks_degrees_and_filter_crossings() {
        let mut m = GraphMaintainer::new(2, 50);
        assert_eq!(m.apply_doc(&investor_doc(10, &[0, 1])), 2);
        assert_eq!(m.apply_doc(&investor_doc(11, &[1])), 1);
        // Duplicate edges are no-ops.
        assert_eq!(m.apply_doc(&investor_doc(10, &[0, 1])), 0);
        assert_eq!(m.degrees(), &[2, 1]);
        assert_eq!(m.company_degrees(), &[1, 2]);
        assert_eq!(m.filtered_investor_count(), 1); // only investor 10 has ≥2
        assert_eq!(
            m.filtered_investor_count(),
            m.graph().filter_min_investments(2).investor_count()
        );
        // Superset re-append converges, crossing the filter.
        assert_eq!(m.apply_doc(&investor_doc(11, &[1, 0])), 1);
        assert_eq!(m.filtered_investor_count(), 2);
    }

    #[test]
    fn non_investor_docs_contribute_nothing() {
        let mut m = GraphMaintainer::new(2, 50);
        let founder = Document::new("user:7", obj! {"id" => 7u64, "role" => "founder"});
        assert_eq!(m.apply_doc(&founder), 0);
        assert_eq!(m.graph().investor_count(), 0);
    }

    #[test]
    fn stats_maintainer_matches_store_stats() {
        let store = Store::memory(2);
        let mut m = StatsMaintainer::default();
        let sub = store.subscribe(64);
        store.put("a/ns", Document::new("k1", obj! {"x" => 1u64})).unwrap();
        store.put("b/ns", Document::new("k2", obj! {"y" => 2u64})).unwrap();
        let snap = store.new_snapshot("a/ns").unwrap();
        store
            .put_snapshot("a/ns", snap, Document::new("k3", obj! {"z" => 3u64}))
            .unwrap();
        while let crowdnet_store::FeedPoll::Event(ev) = sub.poll() {
            m.apply_event(&ev);
        }
        assert_eq!(m.to_stats(), store.stats().unwrap());
    }

    #[test]
    fn stats_absorb_scan_matches_event_replay() {
        let store = Store::memory(2);
        let sub = store.subscribe(64);
        for i in 0..5u32 {
            store
                .put("ns/x", Document::new(format!("k{i}"), obj! {"i" => u64::from(i)}))
                .unwrap();
        }
        let mut replayed = StatsMaintainer::default();
        while let crowdnet_store::FeedPoll::Event(ev) = sub.poll() {
            replayed.apply_event(&ev);
        }
        let mut scanned = StatsMaintainer::default();
        for snap in store.snapshots("ns/x") {
            for part in store.scan_partitions_framed("ns/x", snap).unwrap() {
                scanned.absorb_scan("ns/x", snap, &part);
            }
        }
        assert_eq!(replayed.to_stats(), scanned.to_stats());
    }
}

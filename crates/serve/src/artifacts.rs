//! Version-stamped analytic artifacts built lazily from the store.
//!
//! The typed endpoints (§7 of DESIGN.md) answer from derived structures —
//! the bipartite investment graph, the CoDA cover with strength metrics,
//! degree and PageRank tables, an id → document index — that are expensive
//! to build and cheap to query. [`Artifacts::build`] computes them all in
//! one pass over the store and stamps the result with
//! [`Store::version`](crowdnet_store::Store::version) *read before the
//! scans*: if a crawl appends concurrently, the stamp is conservative and
//! the service rebuilds on the next request rather than serving from a
//! half-updated view.
//!
//! Edges come from [`crowdnet_column::investor_edges`], the rule shared
//! with the column sealer, the ingest maintainers and
//! `crowdnet-core::features`.

use crate::error::ServeError;
use crowdnet_column::investor_edges;
use crowdnet_dataflow::dataset::scan_store;
use crowdnet_dataflow::ExecCtx;
use crowdnet_graph::fxhash::{FxHashMap, FxHasher};
use crowdnet_graph::metrics::{self, Community};
use crowdnet_graph::pagerank::{pagerank, PageRankConfig};
use crowdnet_graph::projection::Projection;
use crowdnet_graph::{BipartiteGraph, Coda, CodaConfig, Cover};
use crowdnet_json::Value;
use crowdnet_store::store::NamespaceStats;
use crowdnet_store::{Document, SnapshotId, Store, StoreError};
use crowdnet_telemetry::Telemetry;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Namespaces of the crawled corpus (string-identical to the constants in
/// `crowdnet-crawl`, which serve cannot depend on without pulling in the
/// whole simulator).
pub const NS_COMPANIES: &str = "angellist/companies";
/// AngelList user profiles.
pub const NS_USERS: &str = "angellist/users";

/// Knobs for the artifact build.
#[derive(Debug, Clone)]
pub struct ArtifactsConfig {
    /// Minimum investments for an investor to enter community detection
    /// (the paper's ≥4 cleaning rule).
    pub min_investments: usize,
    /// CoDA community count; `0` picks `√(filtered investors)` (min 2).
    pub communities: usize,
    /// CoDA gradient-ascent iterations.
    pub iterations: usize,
    /// Seed for CoDA initialization.
    pub seed: u64,
    /// Hub cap for the PageRank co-investment projection.
    pub max_company_degree: usize,
}

impl Default for ArtifactsConfig {
    fn default() -> Self {
        ArtifactsConfig {
            min_investments: 4,
            communities: 0,
            iterations: 25,
            seed: 7,
            max_company_degree: 50,
        }
    }
}

/// One community, pre-summarized for the `/communities` endpoint.
#[derive(Debug, Clone)]
pub struct CommunitySummary {
    /// Index into the cover.
    pub id: usize,
    /// Member count.
    pub size: usize,
    /// Average pairwise shared-investment size (paper metric 1).
    pub avg_shared_investment: Option<f64>,
    /// % of invested companies with ≥2 community investors (paper metric 2).
    pub shared_investor_pct: Option<f64>,
}

/// Shards of an [`EntityIndex`]: enough that a publish rewriting a few
/// dozen keys copies a few dozen small maps, not the corpus.
const ENTITY_SHARD_BITS: u32 = 12;
const ENTITY_SHARDS: usize = 1 << ENTITY_SHARD_BITS;

/// The shard owning `key`: bits 45..57 of its Fx hash. The inner map
/// places a key by the low bits of the same hash and tags it with the top
/// seven, so shard bits drawn from either end would give every key of a
/// shard the same bucket or the same tag.
fn entity_shard(key: &str) -> usize {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    (h.finish() >> (64 - 7 - ENTITY_SHARD_BITS)) as usize & (ENTITY_SHARDS - 1)
}

/// The `"company:{id}"` / `"user:{id}"` → document-body index, copy on
/// write: a fixed array of `Arc`'d hash-map shards. A
/// [`snapshot`](EntityIndex::snapshot) copies the pointers, and a write
/// copies only the shard it lands in, and only while a snapshot still
/// shares it — so handing an epoch its index, and later freeing that
/// epoch, costs what changed since the last one.
pub struct EntityIndex {
    shards: Vec<Arc<FxHashMap<String, Value>>>,
    len: usize,
}

impl Default for EntityIndex {
    fn default() -> Self {
        // Every shard starts as the same empty map; the first write to a
        // shard gives it its own.
        let empty = Arc::new(FxHashMap::default());
        EntityIndex { shards: vec![empty; ENTITY_SHARDS], len: 0 }
    }
}

impl EntityIndex {
    /// Index `entries` in order (a repeated key keeps its last body),
    /// grouping them by shard first so each shard is built once and
    /// wrapped in one `Arc`.
    fn from_entries(entries: impl IntoIterator<Item = (String, Value)>) -> EntityIndex {
        let mut entries: Vec<(usize, String, Value)> = entries
            .into_iter()
            .map(|(key, body)| (entity_shard(&key), key, body))
            .collect();
        // Stable: a repeated key's bodies stay in order, the last winning.
        entries.sort_by_key(|&(shard, _, _)| shard);
        let mut entries = entries.into_iter().peekable();
        let empty = Arc::new(FxHashMap::default());
        let mut len = 0;
        let shards = (0..ENTITY_SHARDS)
            .map(|shard| {
                let mut map = FxHashMap::default();
                while let Some((_, key, body)) = entries.next_if(|e| e.0 == shard) {
                    map.insert(key, body);
                }
                len += map.len();
                if map.is_empty() {
                    Arc::clone(&empty)
                } else {
                    Arc::new(map)
                }
            })
            .collect();
        EntityIndex { shards, len }
    }

    /// The body stored under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.shards.get(entity_shard(key))?.get(key)
    }

    /// Store `body` under `key`, replacing any previous body.
    pub fn insert(&mut self, key: String, body: Value) {
        let Some(shard) = self.shards.get_mut(entity_shard(&key)) else {
            unreachable!("entity_shard is masked to the shard count")
        };
        if Arc::make_mut(shard).insert(key, body).is_none() {
            self.len += 1;
        }
    }

    /// Indexed keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The index as it is now, sharing every shard with `self`: a
    /// pointer-vector copy, whatever the corpus size.
    pub fn snapshot(&self) -> EntityIndex {
        EntityIndex { shards: self.shards.clone(), len: self.len }
    }
}

/// The incrementally maintained inputs to [`Artifacts::assemble`] — what
/// the ingest tier keeps patched in place between epoch publishes.
pub struct ArtifactParts {
    /// Store version the parts are consistent at.
    pub version: u64,
    /// Full investor→company graph.
    pub graph: BipartiteGraph,
    /// `"company:{id}"` / `"user:{id}"` → document body.
    pub entities: EntityIndex,
    /// PageRank scores index-aligned with `graph`'s investors.
    pub pagerank: Vec<f64>,
    /// Per-namespace stats at `version` (None = read live from the store).
    pub stats: Option<Vec<NamespaceStats>>,
}

/// Everything derived from one consistent view of the store.
pub struct Artifacts {
    /// [`Store::version`] observed before the scans began.
    pub version: u64,
    /// Full investor→company graph.
    pub graph: BipartiteGraph,
    /// Graph after the ≥`min_investments` cleaning filter.
    pub filtered: BipartiteGraph,
    /// CoDA cover over `filtered` (investor indices into `filtered`).
    pub cover: Cover,
    /// Per-community strength summaries, index-aligned with `cover`.
    pub communities: Vec<CommunitySummary>,
    /// PageRank over the co-investment projection of the full graph,
    /// index-aligned with its investors.
    pub pagerank: Vec<f64>,
    /// Per-namespace stats frozen at `version` (set by the epoch
    /// publisher so `/stats` answers from the pinned epoch; `None` on
    /// lazily built artifacts, where `/stats` reads the store live).
    pub stats: Option<Vec<NamespaceStats>>,
    /// `"company:{id}"` / `"user:{id}"` → document body.
    entities: EntityIndex,
    /// Dense `filtered` index → community ids.
    membership: FxHashMap<u32, Vec<usize>>,
}

impl Artifacts {
    /// Scan the store and build every artifact. Missing namespaces (an
    /// empty or partial crawl) yield empty-but-valid artifacts rather than
    /// an error, so a freshly-opened service still serves `/stats`.
    pub fn build(
        store: &Store,
        ctx: ExecCtx,
        telemetry: &Telemetry,
        cfg: &ArtifactsConfig,
    ) -> Result<Artifacts, ServeError> {
        let _span = telemetry.span("serve.artifacts.build");
        let version = store.version();

        let mut scans: Vec<(&str, Vec<Document>)> = Vec::new();
        for ns in [NS_COMPANIES, NS_USERS] {
            match scan_store(store, ns, SnapshotId(0), ctx) {
                Ok(d) => scans.push((ns, d.collect())),
                Err(StoreError::NamespaceNotFound(_)) => continue,
                Err(e) => return Err(ServeError::Store(e)),
            }
        }
        Ok(Artifacts::from_scans(version, scans, None, telemetry, cfg))
    }

    /// Build every artifact from the columnar projection instead of the
    /// JSON log. The decoded column rows reproduce the canonical scan
    /// exactly and the pre-extracted edge segments reproduce the
    /// investor-edge walk, so the result is byte-identical to
    /// [`Artifacts::build`] at the catalog's version. Absent namespaces
    /// are skipped like `build` skips `NamespaceNotFound`; any decode
    /// error surfaces so the caller can fall back to the JSON path —
    /// the projection is derived data and never trusted over the log.
    pub fn from_columns(
        catalog: &crowdnet_column::ColumnCatalog,
        telemetry: &Telemetry,
        cfg: &ArtifactsConfig,
    ) -> Result<Artifacts, crowdnet_column::ColumnError> {
        let _span = telemetry.span("serve.artifacts.build");
        let version = catalog.version();

        let mut scans: Vec<(&str, Vec<Document>)> = Vec::new();
        for ns in [NS_COMPANIES, NS_USERS] {
            if !catalog.has(ns, SnapshotId(0)) {
                continue;
            }
            let docs = catalog
                .docs_partitioned(ns, SnapshotId(0))?
                .into_iter()
                .flatten()
                .collect();
            scans.push((ns, docs));
        }
        let edges = if catalog.has(NS_USERS, SnapshotId(0)) {
            catalog.edges(NS_USERS, SnapshotId(0))?
        } else {
            Vec::new()
        };
        let edges = Some(edges);
        Ok(Artifacts::from_scans(version, scans, edges, telemetry, cfg))
    }

    /// Build every artifact from already-gathered canonical scans of the
    /// corpus namespaces (each `Vec<Document>` in store scan order). This
    /// is [`Artifacts::build`] minus the store access, so a sharded router
    /// can gather the per-shard scans, merge them back into canonical
    /// order, and assemble byte-identical artifacts.
    pub fn from_documents(
        version: u64,
        scans: Vec<(&str, Vec<Document>)>,
        telemetry: &Telemetry,
        cfg: &ArtifactsConfig,
    ) -> Artifacts {
        Artifacts::from_scans(version, scans, None, telemetry, cfg)
    }

    /// The one constructor behind the three entry points above: index the
    /// scanned documents by key, take the investment edges as given
    /// (sealed column segments) or walk them out of the user documents,
    /// then graph → PageRank → [`Artifacts::assemble`].
    fn from_scans(
        version: u64,
        scans: Vec<(&str, Vec<Document>)>,
        sealed_edges: Option<Vec<(u32, u32)>>,
        telemetry: &Telemetry,
        cfg: &ArtifactsConfig,
    ) -> Artifacts {
        let walk_edges = sealed_edges.is_none();
        let mut edges = sealed_edges.unwrap_or_default();
        let docs = scans
            .into_iter()
            .flat_map(|(ns, docs)| docs.into_iter().map(move |doc| (ns, doc)));
        let entities = EntityIndex::from_entries(docs.map(|(ns, doc)| {
            if walk_edges && ns == NS_USERS {
                if let Some((id, companies)) = investor_edges(&doc.body) {
                    edges.extend(companies.map(|c| (id, c)));
                }
            }
            (doc.key, doc.body)
        }));

        let graph = BipartiteGraph::from_edges(edges);
        let pagerank = pagerank(
            &Projection::from_bipartite(&graph, cfg.max_company_degree),
            &PageRankConfig::default(),
        );
        let (artifacts, _) = Artifacts::assemble(
            ArtifactParts {
                version,
                graph,
                entities,
                pagerank,
                stats: None,
            },
            cfg,
            telemetry,
            None,
        );
        artifacts
    }

    /// Assemble servable artifacts from incrementally maintained parts —
    /// the epoch publisher's constructor. Derives the filtered graph, the
    /// CoDA cover (warm-started from a previous epoch's model when
    /// `warm = Some((model, its_filtered_graph))`), strength summaries
    /// and the membership map. Returns the fitted CoDA model alongside so
    /// the caller can warm-start the *next* epoch.
    pub fn assemble(
        parts: ArtifactParts,
        cfg: &ArtifactsConfig,
        telemetry: &Telemetry,
        warm: Option<(&Coda, &BipartiteGraph)>,
    ) -> (Artifacts, Option<Coda>) {
        let ArtifactParts {
            version,
            graph,
            entities,
            pagerank,
            stats,
        } = parts;
        let filtered = graph.filter_min_investments(cfg.min_investments);

        let (cover, model): (Cover, Option<Coda>) = if filtered.investor_count() == 0 {
            (Vec::new(), None)
        } else {
            let communities = if cfg.communities > 0 {
                cfg.communities
            } else {
                ((filtered.investor_count() as f64).sqrt().ceil() as usize).max(2)
            };
            let coda_cfg = CodaConfig {
                communities,
                iterations: cfg.iterations,
                seed: cfg.seed,
                telemetry: telemetry.clone(),
                ..CodaConfig::default()
            };
            let model = match warm {
                Some((prev, prev_graph)) => Coda::fit_warm(&filtered, &coda_cfg, prev, prev_graph),
                None => Coda::fit(&filtered, &coda_cfg),
            };
            let cover = model.investor_communities(&filtered, &coda_cfg);
            (cover, Some(model))
        };

        let communities = cover
            .iter()
            .enumerate()
            .map(|(id, c)| CommunitySummary {
                id,
                size: c.members.len(),
                avg_shared_investment: metrics::avg_shared_investment(&filtered, c),
                shared_investor_pct: metrics::pct_companies_with_shared_investors(&filtered, c, 2),
            })
            .collect();

        let mut membership: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
        for (cid, community) in cover.iter().enumerate() {
            for &m in &community.members {
                membership.entry(m).or_default().push(cid);
            }
        }

        (
            Artifacts {
                version,
                graph,
                filtered,
                cover,
                communities,
                pagerank,
                stats,
                entities,
                membership,
            },
            model,
        )
    }

    /// The document body stored under `"{kind}:{id}"`, if any.
    pub fn entity(&self, kind: &str, id: u32) -> Option<&Value> {
        self.entities.get(&format!("{kind}:{id}"))
    }

    /// Dense index of an AngelList investor id in the full graph.
    pub fn investor_index(&self, id: u32) -> Option<u32> {
        self.graph.investor_index(id)
    }

    /// Community ids an investor (by AngelList id) belongs to, with its
    /// dense index in the filtered graph. `None` when the investor did not
    /// survive the ≥k cleaning filter.
    pub fn investor_membership(&self, id: u32) -> Option<(u32, &[usize])> {
        let idx = self.filtered.investor_index(id)?;
        let communities = self
            .membership
            .get(&idx)
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        Some((idx, communities))
    }

    /// The community at `id`, as `(summary, members as AngelList ids)`.
    pub fn community(&self, id: usize) -> Option<(&CommunitySummary, Vec<u32>)> {
        let summary = self.communities.get(id)?;
        let members = self
            .cover
            .get(id)?
            .members
            .iter()
            .map(|&m| self.filtered.investor_id(m))
            .collect();
        Some((summary, members))
    }

    /// Strength metrics recomputable for ad-hoc member sets (used by
    /// tests to cross-check the cached summaries).
    pub fn strength_of(&self, members: &[u32]) -> (Option<f64>, Option<f64>) {
        let community = Community {
            members: members.to_vec(),
        };
        (
            metrics::avg_shared_investment(&self.filtered, &community),
            metrics::pct_companies_with_shared_investors(&self.filtered, &community, 2),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_graph::fxhash::FxHashSet;
    use crowdnet_json::obj;

    fn seeded_store() -> Store {
        let store = Store::memory(4);
        for id in 0..6u32 {
            store
                .put(
                    NS_COMPANIES,
                    Document::new(
                        format!("company:{id}"),
                        obj! {"id" => u64::from(id), "name" => format!("c{id}")},
                    ),
                )
                .unwrap();
        }
        // Investors 100..104: two "herds" investing in overlapping companies,
        // each with >= 4 investments so they survive the cleaning filter.
        let portfolios: &[(u32, &[u64])] = &[
            (100, &[0, 1, 2, 3]),
            (101, &[0, 1, 2, 3]),
            (102, &[0, 1, 2, 4]),
            (103, &[2, 3, 4, 5]),
            (104, &[1, 2]), // below the filter
        ];
        for (id, inv) in portfolios {
            let arr = inv.iter().map(|&c| Value::from(c)).collect::<Vec<_>>();
            store
                .put(
                    NS_USERS,
                    Document::new(
                        format!("user:{id}"),
                        obj! {
                            "id" => u64::from(*id),
                            "role" => "investor",
                            "investments" => Value::Arr(arr),
                        },
                    ),
                )
                .unwrap();
        }
        // A non-investor user contributes no edges.
        store
            .put(
                NS_USERS,
                Document::new(
                    "user:200",
                    obj! {"id" => 200u64, "role" => "founder"},
                ),
            )
            .unwrap();
        store
    }

    fn build(store: &Store) -> Artifacts {
        Artifacts::build(
            store,
            ExecCtx::new(2),
            &Telemetry::new(),
            &ArtifactsConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn builds_graph_and_indices_from_documents() {
        let store = seeded_store();
        let a = build(&store);
        assert_eq!(a.version, store.version());
        assert_eq!(a.graph.investor_count(), 5);
        assert_eq!(a.graph.company_count(), 6);
        assert_eq!(a.filtered.investor_count(), 4); // 104 filtered out
        let idx = a.investor_index(100).unwrap();
        assert_eq!(a.graph.investor_id(idx), 100);
        assert!(a.investor_index(999).is_none());
        assert!(a.graph.company_index(5).is_some());
        assert_eq!(a.pagerank.len(), a.graph.investor_count());
    }

    #[test]
    fn entities_are_addressable_by_kind_and_id() {
        let a = build(&seeded_store());
        let c = a.entity("company", 3).unwrap();
        assert_eq!(c.get("name").and_then(Value::as_str), Some("c3"));
        assert!(a.entity("user", 104).is_some());
        assert!(a.entity("company", 77).is_none());
    }

    #[test]
    fn cover_and_membership_agree() {
        let a = build(&seeded_store());
        assert_eq!(a.communities.len(), a.cover.len());
        for summary in &a.communities {
            let (s2, members) = a.community(summary.id).unwrap();
            assert_eq!(s2.size, members.len());
            // Every member id maps back into at least this community.
            for id in members {
                let (_, cids) = a.investor_membership(id).unwrap();
                assert!(cids.contains(&summary.id));
            }
        }
        // Filtered-out investors have no membership.
        assert!(a.investor_membership(104).is_none());
    }

    #[test]
    fn empty_store_builds_empty_artifacts() {
        let store = Store::memory(2);
        let a = build(&store);
        assert_eq!(a.graph.investor_count(), 0);
        assert!(a.cover.is_empty());
        assert!(a.entity("company", 0).is_none());
    }

    fn body(n: u64) -> Value {
        obj! {"n" => n}
    }

    #[test]
    fn entity_index_inserts_replaces_and_counts() {
        let mut index = EntityIndex::default();
        assert!(index.is_empty());
        for id in 0..1000u64 {
            index.insert(format!("user:{id}"), body(id));
        }
        assert_eq!(index.len(), 1000);
        index.insert("user:7".to_string(), body(70));
        assert_eq!(index.len(), 1000, "a replacement is not a new key");
        assert_eq!(index.get("user:7"), Some(&body(70)));
        assert_eq!(index.get("user:8"), Some(&body(8)));
        assert!(index.get("user:1000").is_none());
        // The bucketed build agrees, last body winning for a repeated key.
        let built = EntityIndex::from_entries(
            (0..1000u64)
                .map(|id| (format!("user:{id}"), body(id)))
                .chain([("user:7".to_string(), body(70))]),
        );
        assert_eq!(built.len(), 1000);
        for id in 0..1000u64 {
            let key = format!("user:{id}");
            assert_eq!(built.get(&key), index.get(&key), "{key}");
        }
    }

    #[test]
    fn a_snapshot_shares_every_shard_the_writer_did_not_touch() {
        let mut index = EntityIndex::from_entries(
            (0..20_000u64).map(|id| (format!("company:{id}"), body(id))),
        );
        let snapshot = index.snapshot();
        let touched: FxHashSet<usize> = (0..64u64)
            .map(|id| {
                let key = format!("company:{}", id * 301);
                index.insert(key.clone(), body(0));
                entity_shard(&key)
            })
            .collect();
        index.insert("company:fresh".to_string(), body(1));
        let fresh_shard = entity_shard("company:fresh");
        let shared = index
            .shards
            .iter()
            .zip(&snapshot.shards)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        let rewritten = touched.len() + usize::from(!touched.contains(&fresh_shard));
        assert_eq!(shared, ENTITY_SHARDS - rewritten);
        // The snapshot still reads the bodies it was taken with.
        assert_eq!(snapshot.get("company:301"), Some(&body(301)));
        assert_eq!(index.get("company:301"), Some(&body(0)));
        assert_eq!((snapshot.len(), index.len()), (20_000, 20_001));
    }

    #[test]
    fn entity_shards_spread_keys() {
        // 30k corpus keys over 4096 shards: about 7 per shard, none piled up.
        let mut sizes = vec![0usize; ENTITY_SHARDS];
        for id in 0..15_000u32 {
            sizes[entity_shard(&format!("user:{id}"))] += 1;
            sizes[entity_shard(&format!("company:{id}"))] += 1;
        }
        let max = sizes.iter().copied().max().unwrap_or(0);
        assert!(max <= 32, "fullest shard holds {max} keys");
        assert!(sizes.iter().filter(|&&n| n == 0).count() < ENTITY_SHARDS / 50);
    }

    #[test]
    fn summaries_match_recomputed_metrics() {
        let a = build(&seeded_store());
        for summary in &a.communities {
            let (_, members_ids) = a.community(summary.id).unwrap();
            let members: Vec<u32> = members_ids
                .iter()
                .filter_map(|&id| a.investor_membership(id).map(|(idx, _)| idx))
                .collect();
            let (avg, pct) = a.strength_of(&members);
            assert_eq!(avg, summary.avg_shared_investment);
            assert_eq!(pct, summary.shared_investor_pct);
        }
    }
}

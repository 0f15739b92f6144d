//! CoDA: Communities through Directed Affiliations (Yang, McAuley &
//! Leskovec, WSDM 2014) — the community-detection algorithm the paper runs
//! over its bipartite investor graph (§5.2), reimplemented from the model.
//!
//! **Model.** Every source node (investor) `u` carries a non-negative
//! *outgoing* affiliation vector `F_u ∈ ℝ^C`, every target node (company)
//! `c` an *incoming* affiliation vector `H_c ∈ ℝ^C`. A directed edge u→c
//! appears with probability `P(u→c) = 1 − exp(−F_u · H_c)` — the directed
//! affiliation-graph model. Fitting maximizes the log-likelihood
//!
//! ```text
//! L = Σ_{(u,c)∈E} log(1 − exp(−F_u·H_c)) − Σ_{(u,c)∉E} F_u·H_c
//! ```
//!
//! **Fitting.** Projected block-coordinate gradient ascent with per-node
//! backtracking line search, using the BigCLAM cache trick: the non-edge
//! term for node `u` is `F_u · (ΣH − Σ_{c∈N(u)} H_c)`, so a full pass is
//! `O(|E|·C)` rather than `O(|V|²·C)`.
//!
//! **Parallelism.** Within one half-iteration every `F` row is updated
//! against the same `H` and `ΣH` (and every `H` row against the same `F`
//! and `ΣF`), so rows are independent: [`CodaConfig::ctx`] runs contiguous
//! row blocks as pool tasks. The column sums and the log-likelihood stay
//! serial, so `F`, `H` and `ll_trace` are bit-identical at any thread count.
//!
//! **Membership.** Node `u` belongs to community `k` when `F_uk ≥ δ`, with
//! `δ = sqrt(−log(1 − ε))` and `ε` the background edge density — the same
//! rule the CoDA/BigCLAM papers use.

use crate::bipartite::BipartiteGraph;
use crate::metrics::{Community, Cover};
use crowdnet_store::pool::{run_tasks, ExecCtx};
use crowdnet_telemetry::{Level, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// CoDA hyper-parameters.
#[derive(Debug, Clone)]
pub struct CodaConfig {
    /// Number of communities `C`.
    pub communities: usize,
    /// Full block-coordinate passes.
    pub iterations: usize,
    /// RNG seed (initialization).
    pub seed: u64,
    /// Initial line-search step.
    pub step: f64,
    /// Override the membership threshold δ (None = density-derived).
    pub min_membership: Option<f64>,
    /// Observability sink: per-iteration progress events (visible only at
    /// debug verbosity — the fit is silent by default) and the
    /// `coda.iterations` and `coda.rows_stuck` counters.
    pub telemetry: Telemetry,
    /// Workers for the row updates. The fit is bit-identical at any
    /// thread count; the default is serial.
    pub ctx: ExecCtx,
}

impl Default for CodaConfig {
    fn default() -> Self {
        CodaConfig {
            communities: 16,
            iterations: 30,
            seed: 7,
            step: 0.25,
            min_membership: None,
            telemetry: Telemetry::new(),
            ctx: ExecCtx::serial(),
        }
    }
}

/// A fitted CoDA model.
#[derive(Debug, Clone)]
pub struct Coda {
    /// Outgoing affiliations: investor index → C weights.
    pub f: Vec<Vec<f64>>,
    /// Incoming affiliations: company index → C weights.
    pub h: Vec<Vec<f64>>,
    /// Log-likelihood after every iteration (for convergence checks).
    pub ll_trace: Vec<f64>,
    /// Row updates, over the whole fit, whose line search found no
    /// improving step (the row stayed where it was).
    pub rows_stuck: u64,
    communities: usize,
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `log(1 − exp(−x))`, clamped for numerical stability.
#[inline]
pub(crate) fn log1mexp(x: f64) -> f64 {
    let x = x.max(1e-10);
    if x < 1e-5 {
        x.ln() // log(1−e^{−x}) ≈ log(x) for small x
    } else {
        (-(-x).exp()).ln_1p()
    }
}

/// `exp(−x) / (1 − exp(−x)) = 1 / (e^x − 1)`, clamped.
#[inline]
fn edge_weight(x: f64) -> f64 {
    let x = x.max(1e-10);
    1.0 / x.exp_m1().max(1e-12)
}

impl Coda {
    /// Fit the model to a bipartite graph.
    pub fn fit(graph: &BipartiteGraph, cfg: &CodaConfig) -> Coda {
        let nu = graph.investor_count();
        let nc = graph.company_count();
        let c = cfg.communities.max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Random small init, then seed each community from the neighborhood
        // of a distinct high-in-degree company (conductance-style seeding).
        let mut f: Vec<Vec<f64>> = (0..nu)
            .map(|_| (0..c).map(|_| rng.random::<f64>() * 0.1).collect())
            .collect();
        let mut h: Vec<Vec<f64>> = (0..nc)
            .map(|_| (0..c).map(|_| rng.random::<f64>() * 0.1).collect())
            .collect();
        for (k, anchor) in pick_anchors(graph, c).into_iter().enumerate() {
            h[anchor as usize][k] += 1.0;
            for &inv in graph.investors_of(anchor) {
                f[inv as usize][k] += 1.0;
            }
        }
        Coda::fit_from(graph, cfg, f, h)
    }

    /// Fit warm-started from a previously fitted model: rows of `F`/`H`
    /// are carried over for nodes present in both graphs (matched by
    /// original id through `prev_graph`'s index maps), and only genuinely
    /// new nodes get the cold random init. The epoch refit then needs far
    /// fewer passes to return to a good optimum than a cold fit — the
    /// affiliation structure of the surviving nodes is already in place.
    ///
    /// Falls back to a cold [`Coda::fit`] when the community count
    /// changed (rows would not be comparable).
    pub fn fit_warm(
        graph: &BipartiteGraph,
        cfg: &CodaConfig,
        prev: &Coda,
        prev_graph: &BipartiteGraph,
    ) -> Coda {
        let c = cfg.communities.max(1);
        if prev.communities != c {
            return Coda::fit(graph, cfg);
        }
        let nu = graph.investor_count();
        let nc = graph.company_count();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let cold = |rng: &mut StdRng| -> Vec<f64> {
            (0..c).map(|_| rng.random::<f64>() * 0.1).collect()
        };
        let mut f: Vec<Vec<f64>> = Vec::with_capacity(nu);
        for u in 0..nu as u32 {
            f.push(match prev_graph.investor_index(graph.investor_id(u)) {
                Some(pu) => prev.f[pu as usize].clone(),
                None => cold(&mut rng),
            });
        }
        let mut h: Vec<Vec<f64>> = Vec::with_capacity(nc);
        for ci in 0..nc as u32 {
            h.push(match prev_graph.company_index(graph.company_id(ci)) {
                Some(pc) => prev.h[pc as usize].clone(),
                None => cold(&mut rng),
            });
        }
        Coda::fit_from(graph, cfg, f, h)
    }

    /// Shared block-coordinate ascent loop over a prepared init.
    fn fit_from(graph: &BipartiteGraph, cfg: &CodaConfig, f: Vec<Vec<f64>>, h: Vec<Vec<f64>>) -> Coda {
        let c = cfg.communities.max(1);
        let mut model = Coda {
            f,
            h,
            ll_trace: Vec::with_capacity(cfg.iterations),
            rows_stuck: 0,
            communities: c,
        };

        let _span = cfg.telemetry.span("coda.fit");
        let iter_counter = cfg.telemetry.counter("coda.iterations");
        let stuck_counter = cfg.telemetry.counter("coda.rows_stuck");
        for it in 0..cfg.iterations {
            // Update investors (F) against fixed H.
            let sum_h = column_sums(&model.h, c);
            let stuck_f = update_rows(cfg, &mut model.f, &model.h, &sum_h, |u| {
                graph.companies_of(u)
            });
            // Update companies (H) against fixed F.
            let sum_f = column_sums(&model.f, c);
            let stuck_h = update_rows(cfg, &mut model.h, &model.f, &sum_f, |ci| {
                graph.investors_of(ci)
            });
            let ll = model.log_likelihood(graph);
            model.ll_trace.push(ll);
            model.rows_stuck += stuck_f + stuck_h;
            iter_counter.inc();
            stuck_counter.add(stuck_f + stuck_h);
            cfg.telemetry.event(
                Level::Debug,
                "coda",
                format!("iteration {}/{}: ll {ll:.4}", it + 1, cfg.iterations),
            );
        }
        model
    }

    /// Number of communities `C`.
    pub fn community_count(&self) -> usize {
        self.communities
    }

    /// Full-data log-likelihood under the directed AGM.
    pub fn log_likelihood(&self, graph: &BipartiteGraph) -> f64 {
        let c = self.communities;
        let sum_f = column_sums(&self.f, c);
        let sum_h = column_sums(&self.h, c);
        let mut ll = 0.0;
        let mut edge_dot_total = 0.0;
        for u in 0..graph.investor_count() {
            for &ci in graph.companies_of(u as u32) {
                let d = dot(&self.f[u], &self.h[ci as usize]);
                ll += log1mexp(d);
                edge_dot_total += d;
            }
        }
        // Non-edge penalty: (ΣF)·(ΣH) − Σ_edges F·H.
        ll -= dot(&sum_f, &sum_h) - edge_dot_total;
        ll
    }

    /// The density-derived membership threshold δ.
    pub fn delta(&self, graph: &BipartiteGraph) -> f64 {
        let nu = graph.investor_count() as f64;
        let nc = graph.company_count() as f64;
        let eps = (graph.edge_count() as f64 / (nu * nc).max(1.0)).clamp(1e-8, 0.5);
        (-(1.0 - eps).ln()).sqrt()
    }

    /// Detected investor communities: `{u : F_uk ≥ δ}` per community `k`.
    /// Empty communities are dropped.
    pub fn investor_communities(&self, graph: &BipartiteGraph, cfg: &CodaConfig) -> Cover {
        let delta = cfg.min_membership.unwrap_or_else(|| self.delta(graph));
        (0..self.communities)
            .filter_map(|k| {
                let members: Vec<u32> = (0..self.f.len() as u32)
                    .filter(|&u| self.f[u as usize][k] >= delta)
                    .collect();
                (!members.is_empty()).then_some(Community { members })
            })
            .collect()
    }

    /// Disjoint cover: every investor assigned to its strongest community
    /// (argmax over `F_u`). Investors whose whole row is ~0 are dropped.
    /// The δ-threshold cover is the faithful CoDA output on sparse graphs;
    /// this variant is the right comparison object for disjoint baselines
    /// and for dense test fixtures where δ under-separates.
    pub fn dominant_communities(&self) -> Cover {
        let mut groups: std::collections::HashMap<usize, Vec<u32>> = std::collections::HashMap::new();
        for (u, row) in self.f.iter().enumerate() {
            // Manual argmax: affiliations are clamped finite, and a NaN (or
            // an empty row) simply never wins, so no comparator can panic.
            let mut k = 0usize;
            let mut weight = f64::NEG_INFINITY;
            for (i, &w) in row.iter().enumerate() {
                if w > weight {
                    weight = w;
                    k = i;
                }
            }
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

    /// Companies affiliated with community `k` (for visualization).
    pub fn community_companies(&self, graph: &BipartiteGraph, cfg: &CodaConfig, k: usize) -> Vec<u32> {
        let delta = cfg.min_membership.unwrap_or_else(|| self.delta(graph));
        (0..self.h.len() as u32)
            .filter(|&c| self.h[c as usize][k] >= delta)
            .collect()
    }
}

/// Choose the community count `C` by held-out edge likelihood, the model
/// selection the CoDA/BigCLAM papers recommend: hold out a fraction of the
/// edges, fit on the rest for each candidate `C`, and keep the `C` whose
/// model scores the held-out edges highest (mean per-edge
/// `log P(edge)` under the fitted affiliations).
///
/// The paper reports "96 communities" as an output of the tool at their
/// scale; this function is how a user of CrowdNet picks the equivalent
/// number for a new dataset.
pub fn choose_communities(
    graph: &BipartiteGraph,
    candidates: &[usize],
    base: &CodaConfig,
    holdout_fraction: f64,
    seed: u64,
) -> (usize, Vec<(usize, f64)>) {
    assert!(!candidates.is_empty(), "need at least one candidate C");
    let holdout_fraction = holdout_fraction.clamp(0.01, 0.5);
    // Deterministic edge split: hash each (u, c) pair.
    let mut train_edges = Vec::new();
    let mut held = Vec::new();
    for u in 0..graph.investor_count() as u32 {
        for &ci in graph.companies_of(u) {
            let mut z = seed
                ^ (u64::from(graph.investor_id(u)) << 32)
                ^ u64::from(graph.company_id(ci));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 31;
            if (z as f64 / u64::MAX as f64) < holdout_fraction {
                held.push((u, ci));
            } else {
                train_edges.push((graph.investor_id(u), graph.company_id(ci)));
            }
        }
    }
    if held.is_empty() || train_edges.is_empty() {
        return (candidates[0], vec![(candidates[0], 0.0)]);
    }
    let train = BipartiteGraph::from_edges(train_edges);

    // Held-out *non*-edges, same count as held-out edges: without them a
    // C = 1 model could saturate every pair's probability and win. This is
    // standard balanced link-prediction scoring.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4E45_4741);
    let nu = graph.investor_count() as u32;
    let nc = graph.company_count() as u32;
    let mut negatives = Vec::with_capacity(held.len());
    let mut guard = 0;
    while negatives.len() < held.len() && guard < held.len() * 20 {
        guard += 1;
        let u = rng.random_range(0..nu);
        let ci = rng.random_range(0..nc);
        if graph.companies_of(u).binary_search(&ci).is_err() {
            negatives.push((u, ci));
        }
    }

    let mut scores = Vec::with_capacity(candidates.len());
    for &c in candidates {
        let cfg = CodaConfig {
            communities: c,
            ..base.clone()
        };
        let model = Coda::fit(&train, &cfg);
        // Affiliation dot product for a pair, through the train index maps;
        // nodes absent from the train graph score the background rate.
        let pair_dot = |u: u32, ci: u32| -> f64 {
            let fu = train
                .investor_index(graph.investor_id(u))
                .map(|i| model.f[i as usize].as_slice());
            let hc = find_company(&train, graph.company_id(ci))
                .map(|i| model.h[i as usize].as_slice());
            match (fu, hc) {
                (Some(f), Some(h)) => dot(f, h),
                _ => 1e-4,
            }
        };
        let mut ll = 0.0;
        for &(u, ci) in &held {
            ll += log1mexp(pair_dot(u, ci)); // log P(edge)
        }
        for &(u, ci) in &negatives {
            ll -= pair_dot(u, ci); // log P(no edge) = −F·H
        }
        scores.push((c, ll / (held.len() + negatives.len()) as f64));
    }
    // Manual argmax over the (non-empty, finite) score list: avoids a
    // panicking comparator and keeps the first candidate on ties.
    let mut best = scores[0].0;
    let mut best_score = scores[0].1;
    for &(cand, score) in &scores[1..] {
        if score > best_score {
            best_score = score;
            best = cand;
        }
    }
    (best, scores)
}

/// Dense company index of an original id in a graph (linear scan; model
/// selection is not a hot path).
fn find_company(graph: &BipartiteGraph, id: u32) -> Option<u32> {
    (0..graph.company_count() as u32).find(|&c| graph.company_id(c) == id)
}

/// Pick up to `c` seed companies: by descending in-degree, but skipping
/// candidates whose investor neighborhoods overlap an already-chosen anchor
/// by more than half — otherwise several communities initialize onto the
/// same dense block and the others never recover.
fn pick_anchors(graph: &BipartiteGraph, c: usize) -> Vec<u32> {
    let mut by_degree: Vec<u32> = (0..graph.company_count() as u32).collect();
    by_degree.sort_by_key(|&ci| std::cmp::Reverse(graph.investors_of(ci).len()));
    let mut covered: crate::fxhash::FxHashSet<u32> = crate::fxhash::FxHashSet::default();
    let mut anchors = Vec::with_capacity(c);
    for &cand in &by_degree {
        if anchors.len() == c {
            break;
        }
        let investors = graph.investors_of(cand);
        if investors.is_empty() {
            continue;
        }
        let overlap = investors.iter().filter(|i| covered.contains(i)).count();
        if overlap * 2 > investors.len() {
            continue;
        }
        covered.extend(investors.iter().copied());
        anchors.push(cand);
    }
    // Fewer diverse anchors than communities: fill with top-degree repeats.
    for &cand in &by_degree {
        if anchors.len() == c {
            break;
        }
        if !anchors.contains(&cand) {
            anchors.push(cand);
        }
    }
    anchors
}

pub(crate) fn column_sums(rows: &[Vec<f64>], c: usize) -> Vec<f64> {
    let mut out = vec![0.0; c];
    for row in rows {
        for (o, v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
    out
}

/// Pool tasks per worker in one half-iteration: a few blocks per worker
/// let a block of heavy rows finish while the others keep going.
const BLOCKS_PER_WORKER: usize = 4;

/// One half-iteration: [`update_node`] over every row of `rows` against the
/// fixed `other` side and its column sums. Rows are cut into contiguous
/// blocks of about equal work (degree + 1) and each block is one
/// [`run_tasks`] task. A row's update reads only `other`, `sum_other` and
/// its own neighbours, so every row ends bit-identical to the serial loop.
/// Returns the rows that found no improving step, summed over the blocks
/// in block order.
fn update_rows<'g>(
    cfg: &CodaConfig,
    rows: &mut [Vec<f64>],
    other: &[Vec<f64>],
    sum_other: &[f64],
    neighbors: impl Fn(u32) -> &'g [u32] + Sync,
) -> u64 {
    let blocks = match cfg.ctx.threads() {
        1 => 1,
        threads => threads * BLOCKS_PER_WORKER,
    };
    let work: usize = (0..rows.len() as u32).map(|r| neighbors(r).len() + 1).sum();
    let per_block = work.div_ceil(blocks).max(1);
    let mut tasks = Vec::with_capacity(blocks);
    let mut rest = rows;
    let mut start = 0usize;
    while !rest.is_empty() {
        let (mut len, mut weight) = (0, 0);
        while len < rest.len() && weight < per_block {
            weight += neighbors((start + len) as u32).len() + 1;
            len += 1;
        }
        let (block, tail) = std::mem::take(&mut rest).split_at_mut(len);
        tasks.push((start, block));
        start += len;
        rest = tail;
    }
    let stuck = run_tasks(cfg.ctx, tasks, |_, (start, block)| {
        let mut stuck = 0u64;
        for (i, row) in block.iter_mut().enumerate() {
            let adjacent = neighbors((start + i) as u32);
            if !update_node(row, adjacent, other, sum_other, cfg.step) {
                stuck += 1;
            }
        }
        stuck
    });
    stuck.into_iter().sum()
}

/// One projected-gradient update with backtracking line search of a single
/// node's affiliation row against the fixed other side. Returns whether an
/// improving step was found (otherwise the row is left unchanged).
pub(crate) fn update_node(
    row: &mut [f64],
    neighbors: &[u32],
    other: &[Vec<f64>],
    sum_other: &[f64],
    step0: f64,
) -> bool {
    let c = row.len();
    // Cached neighbor sum: Σ_{v∈N} other_v.
    let mut sum_neighbors = vec![0.0; c];
    for &v in neighbors {
        for (s, o) in sum_neighbors.iter_mut().zip(&other[v as usize]) {
            *s += o;
        }
    }

    // Local objective for this node.
    let local_ll = |r: &[f64]| -> f64 {
        let mut ll = 0.0;
        for &v in neighbors {
            ll += log1mexp(dot(r, &other[v as usize]));
        }
        for k in 0..c {
            ll -= r[k] * (sum_other[k] - sum_neighbors[k]);
        }
        ll
    };

    // Gradient: Σ_{v∈N} other_v · w(dot) − (Σother − Σ_{v∈N} other_v).
    let mut grad = vec![0.0; c];
    for &v in neighbors {
        let w = edge_weight(dot(row, &other[v as usize]));
        for (g, o) in grad.iter_mut().zip(&other[v as usize]) {
            *g += o * w;
        }
    }
    for k in 0..c {
        grad[k] -= sum_other[k] - sum_neighbors[k];
    }

    let base = local_ll(row);
    let mut step = step0;
    let mut candidate = vec![0.0; c];
    for _ in 0..6 {
        for k in 0..c {
            candidate[k] = (row[k] + step * grad[k]).clamp(0.0, 1_000.0);
        }
        if local_ll(&candidate) > base {
            row.copy_from_slice(&candidate);
            return true;
        }
        step *= 0.5;
    }
    // No improving step found: leave the row unchanged (ascent property).
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two dense planted blocks with light cross-noise.
    fn planted(seed: u64) -> (BipartiteGraph, Vec<Vec<u32>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        // Block 0: investors 0..15 ↔ companies 100..110.
        for u in 0..15u32 {
            for c in 100..110u32 {
                if rng.random::<f64>() < 0.7 {
                    edges.push((u, c));
                }
            }
        }
        // Block 1: investors 20..35 ↔ companies 200..210.
        for u in 20..35u32 {
            for c in 200..210u32 {
                if rng.random::<f64>() < 0.7 {
                    edges.push((u, c));
                }
            }
        }
        // Sparse noise.
        for _ in 0..20 {
            let u = rng.random_range(0..35u32);
            let c = if rng.random::<bool>() {
                rng.random_range(100..110)
            } else {
                rng.random_range(200..210)
            };
            edges.push((u, c));
        }
        let g = BipartiteGraph::from_edges(edges);
        let block0: Vec<u32> = (0..15u32).filter_map(|id| g.investor_index(id)).collect();
        let block1: Vec<u32> = (20..35u32).filter_map(|id| g.investor_index(id)).collect();
        (g, vec![block0, block1])
    }

    fn jaccard(a: &[u32], b: &[u32]) -> f64 {
        let sa: std::collections::HashSet<_> = a.iter().collect();
        let sb: std::collections::HashSet<_> = b.iter().collect();
        let inter = sa.intersection(&sb).count() as f64;
        let union = sa.union(&sb).count() as f64;
        if union == 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    #[test]
    fn likelihood_is_nondecreasing() {
        let (g, _) = planted(1);
        let cfg = CodaConfig {
            communities: 2,
            iterations: 25,
            ..CodaConfig::default()
        };
        let model = Coda::fit(&g, &cfg);
        for w in model.ll_trace.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-6,
                "LL decreased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn recovers_planted_blocks() {
        let (g, blocks) = planted(2);
        let cfg = CodaConfig {
            communities: 2,
            iterations: 40,
            seed: 3,
            ..CodaConfig::default()
        };
        let model = Coda::fit(&g, &cfg);
        // The toy fixture is far denser than any real investment graph, so
        // the sparse-regime δ threshold under-separates; score recovery on
        // the argmax assignment instead.
        let cover = model.dominant_communities();
        assert!(!cover.is_empty());
        // Every planted block must be well matched by some detected community.
        for block in &blocks {
            let best = cover
                .iter()
                .map(|c| jaccard(&c.members, block))
                .fold(0.0f64, f64::max);
            assert!(best > 0.7, "block poorly recovered: jaccard {best}");
        }
    }

    #[test]
    fn fit_is_deterministic() {
        let (g, _) = planted(4);
        let cfg = CodaConfig {
            communities: 3,
            iterations: 10,
            ..CodaConfig::default()
        };
        let a = Coda::fit(&g, &cfg);
        let b = Coda::fit(&g, &cfg);
        assert_eq!(a.ll_trace, b.ll_trace);
        assert_eq!(a.f, b.f);
    }

    /// F, H, the likelihood trace and the stuck count, compared bit for bit.
    fn assert_bitwise_eq(a: &Coda, b: &Coda, what: &str) {
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect()
        };
        assert_eq!(bits(&a.f), bits(&b.f), "{what}: F");
        assert_eq!(bits(&a.h), bits(&b.h), "{what}: H");
        let trace = |m: &Coda| -> Vec<u64> { m.ll_trace.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(trace(a), trace(b), "{what}: ll_trace");
        assert_eq!(a.rows_stuck, b.rows_stuck, "{what}: rows_stuck");
    }

    #[test]
    fn parallel_fit_is_bitwise_the_serial_fit() {
        let (g, _) = planted(11);
        let mut grown = g.clone();
        grown.add_edge(999, 100);
        grown.add_edge(998, 205);
        let serial_cfg = CodaConfig {
            communities: 3,
            iterations: 12,
            ..CodaConfig::default()
        };
        let cold = Coda::fit(&g, &serial_cfg);
        let warm = Coda::fit_warm(&grown, &serial_cfg, &cold, &g);
        let cover = cold.investor_communities(&g, &serial_cfg);
        for threads in [1, 2, 3] {
            let telemetry = Telemetry::new();
            let cfg = CodaConfig {
                ctx: ExecCtx::new(threads),
                telemetry: telemetry.clone(),
                ..serial_cfg.clone()
            };
            let par = Coda::fit(&g, &cfg);
            assert_bitwise_eq(&par, &cold, &format!("cold fit, {threads} threads"));
            assert_eq!(par.investor_communities(&g, &cfg), cover);
            assert_eq!(telemetry.counter("coda.iterations").value(), 12);
            assert_eq!(telemetry.counter("coda.rows_stuck").value(), cold.rows_stuck);
            let par_warm = Coda::fit_warm(&grown, &cfg, &par, &g);
            assert_bitwise_eq(&par_warm, &warm, &format!("warm fit, {threads} threads"));
        }
    }

    #[test]
    fn rows_stuck_counts_row_updates_without_an_improving_step() {
        let (g, _) = planted(12);
        let cfg = CodaConfig {
            communities: 2,
            iterations: 30,
            ..CodaConfig::default()
        };
        let model = Coda::fit(&g, &cfg);
        let updates = (cfg.iterations * (g.investor_count() + g.company_count())) as u64;
        assert!(model.rows_stuck <= updates);
        // A converged fit stops finding improving steps: by 30 passes over
        // the planted fixture some row updates have stalled.
        assert!(model.rows_stuck > 0);
        // With zero passes nothing was updated.
        let frozen = Coda::fit(&g, &CodaConfig { iterations: 0, ..cfg });
        assert_eq!(frozen.rows_stuck, 0);
    }

    #[test]
    fn delta_reflects_density() {
        let (g, _) = planted(5);
        let model = Coda::fit(&g, &CodaConfig { iterations: 2, ..CodaConfig::default() });
        let delta = model.delta(&g);
        assert!(delta > 0.0 && delta < 1.5, "delta = {delta}");
    }

    #[test]
    fn min_membership_override_narrows_communities() {
        let (g, _) = planted(6);
        let cfg = CodaConfig {
            communities: 2,
            iterations: 25,
            ..CodaConfig::default()
        };
        let model = Coda::fit(&g, &cfg);
        let loose = model.investor_communities(&g, &cfg);
        let strict_cfg = CodaConfig {
            min_membership: Some(5.0),
            ..cfg
        };
        let strict = model.investor_communities(&g, &strict_cfg);
        let loose_total: usize = loose.iter().map(|c| c.members.len()).sum();
        let strict_total: usize = strict.iter().map(|c| c.members.len()).sum();
        assert!(strict_total <= loose_total);
    }

    #[test]
    fn community_companies_align_with_members() {
        let (g, _) = planted(7);
        let cfg = CodaConfig {
            communities: 2,
            iterations: 40,
            seed: 3,
            ..CodaConfig::default()
        };
        let model = Coda::fit(&g, &cfg);
        let cover = model.dominant_communities();
        // For the largest community, most members' investments hit the
        // community's companies. dominant_communities sorts by size but we
        // need the community *index*; find it via the strongest member row.
        let biggest = &cover[0];
        let k = model.f[biggest.members[0] as usize]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        // Dense fixture again: take companies by argmax of H rather than the
        // sparse-regime δ rule.
        let companies: std::collections::HashSet<u32> = (0..model.h.len() as u32)
            .filter(|&c| {
                let row = &model.h[c as usize];
                let best = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap();
                best.0 == k && *best.1 > 1e-6
            })
            .collect();
        assert!(!companies.is_empty());
        let mut hits = 0usize;
        let mut total = 0usize;
        for &m in &biggest.members {
            for c in g.companies_of(m) {
                total += 1;
                if companies.contains(c) {
                    hits += 1;
                }
            }
        }
        assert!(hits as f64 / total.max(1) as f64 > 0.5);
    }

    #[test]
    fn choose_communities_prefers_the_planted_count() {
        let (g, _) = planted(8);
        let base = CodaConfig {
            iterations: 20,
            ..CodaConfig::default()
        };
        let (best, scores) = choose_communities(&g, &[1, 2, 8], &base, 0.15, 3);
        assert_eq!(scores.len(), 3);
        // Two planted blocks: C = 2 should beat C = 1 (and usually C = 8,
        // but over-parameterization can tie; requiring ≥2 guards the floor).
        assert!(best >= 2, "chose C = {best}, scores {scores:?}");
        let c1 = scores.iter().find(|(c, _)| *c == 1).unwrap().1;
        let c2 = scores.iter().find(|(c, _)| *c == 2).unwrap().1;
        assert!(c2 > c1, "C=2 ({c2}) should beat C=1 ({c1})");
    }

    #[test]
    fn choose_communities_is_deterministic() {
        let (g, _) = planted(9);
        let base = CodaConfig {
            iterations: 8,
            ..CodaConfig::default()
        };
        let a = choose_communities(&g, &[2, 4], &base, 0.2, 7);
        let b = choose_communities(&g, &[2, 4], &base, 0.2, 7);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn warm_start_carries_factors_over_by_id() {
        let (g, _) = planted(3);
        let cfg = CodaConfig {
            communities: 2,
            iterations: 15,
            ..CodaConfig::default()
        };
        let prev = Coda::fit(&g, &cfg);
        // Zero refit passes: warm init must be exactly the previous factors.
        let frozen = Coda::fit_warm(&g, &CodaConfig { iterations: 0, ..cfg.clone() }, &prev, &g);
        assert_eq!(frozen.f, prev.f);
        assert_eq!(frozen.h, prev.h);
        // A grown graph keeps surviving rows and inits only the new node.
        let mut g2 = g.clone();
        g2.add_edge(999, 100);
        let warm = Coda::fit_warm(&g2, &CodaConfig { iterations: 0, ..cfg.clone() }, &prev, &g);
        for u in 0..g.investor_count() as u32 {
            let wu = g2.investor_index(g.investor_id(u)).unwrap();
            assert_eq!(warm.f[wu as usize], prev.f[u as usize]);
        }
        let nu = g2.investor_index(999).unwrap() as usize;
        assert!(warm.f[nu].iter().all(|&v| (0.0..0.1).contains(&v)));
        // And a real refit improves (or keeps) the likelihood.
        let refit = Coda::fit_warm(&g2, &CodaConfig { iterations: 5, ..cfg.clone() }, &prev, &g);
        assert!(refit.log_likelihood(&g2) >= warm.log_likelihood(&g2) - 1e-6);
    }

    #[test]
    fn warm_start_with_changed_community_count_falls_back_cold() {
        let (g, _) = planted(3);
        let prev = Coda::fit(
            &g,
            &CodaConfig { communities: 2, iterations: 5, ..CodaConfig::default() },
        );
        let cfg3 = CodaConfig { communities: 3, iterations: 5, ..CodaConfig::default() };
        let warm = Coda::fit_warm(&g, &cfg3, &prev, &g);
        let cold = Coda::fit(&g, &cfg3);
        assert_eq!(warm.f, cold.f);
        assert_eq!(warm.ll_trace, cold.ll_trace);
    }

    #[test]
    fn numerical_helpers_are_stable() {
        assert!(log1mexp(1e-12).is_finite());
        assert!(log1mexp(50.0).abs() < 1e-10); // ≈ 0
        assert!(edge_weight(1e-12).is_finite());
        assert!(edge_weight(50.0) < 1e-20);
    }

    #[test]
    fn handles_trivial_graphs() {
        let g = BipartiteGraph::from_edges(vec![(1, 2)]);
        let cfg = CodaConfig {
            communities: 2,
            iterations: 5,
            ..CodaConfig::default()
        };
        let model = Coda::fit(&g, &cfg);
        assert!(model.log_likelihood(&g).is_finite());
        let _ = model.investor_communities(&g, &cfg);
    }
}

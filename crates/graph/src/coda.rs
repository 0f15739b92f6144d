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
    /// Outgoing affiliations, row-major: investor `u`'s `C` weights are
    /// `f[u·C..(u+1)·C]` ([`Coda::f_row`]).
    pub f: Vec<f64>,
    /// Incoming affiliations, row-major by company ([`Coda::h_row`]).
    pub h: Vec<f64>,
    /// Log-likelihood after every iteration (for convergence checks).
    pub ll_trace: Vec<f64>,
    /// Row updates, over the whole fit, whose line search found no
    /// improving step (the row stayed where it was).
    pub rows_stuck: u64,
    /// Line-search candidates whose local likelihood was evaluated, over
    /// the whole fit (candidates equal to the row are not evaluated).
    pub line_search_evaluations: u64,
    /// Of those, the ones rejected by a partial-sum bound before their
    /// last neighbour.
    pub line_search_early_exits: u64,
    communities: usize,
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `log(1 − exp(−x))`, clamped for numerical stability. Never positive:
/// the line search's early exit rests on that.
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

/// `C` weights of the cold init, one uniform draw in `[0, 0.1)` each.
fn cold_row(rng: &mut StdRng, c: usize) -> impl Iterator<Item = f64> + '_ {
    (0..c).map(|_| rng.random::<f64>() * 0.1)
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
        let mut f: Vec<f64> = Vec::with_capacity(nu * c);
        for _ in 0..nu {
            f.extend(cold_row(&mut rng, c));
        }
        let mut h: Vec<f64> = Vec::with_capacity(nc * c);
        for _ in 0..nc {
            h.extend(cold_row(&mut rng, c));
        }
        for (k, anchor) in pick_anchors(graph, c).into_iter().enumerate() {
            h[anchor as usize * c + k] += 1.0;
            for &inv in graph.investors_of(anchor) {
                f[inv as usize * c + k] += 1.0;
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
    /// changed (rows would not be comparable), counted as
    /// `coda.warm_fallbacks`.
    pub fn fit_warm(
        graph: &BipartiteGraph,
        cfg: &CodaConfig,
        prev: &Coda,
        prev_graph: &BipartiteGraph,
    ) -> Coda {
        let c = cfg.communities.max(1);
        if prev.communities != c {
            cfg.telemetry.counter("coda.warm_fallbacks").inc();
            return Coda::fit(graph, cfg);
        }
        let nu = graph.investor_count();
        let nc = graph.company_count();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut f: Vec<f64> = Vec::with_capacity(nu * c);
        for u in 0..nu as u32 {
            match prev_graph.investor_index(graph.investor_id(u)) {
                Some(pu) => f.extend_from_slice(prev.f_row(pu)),
                None => f.extend(cold_row(&mut rng, c)),
            }
        }
        let mut h: Vec<f64> = Vec::with_capacity(nc * c);
        for ci in 0..nc as u32 {
            match prev_graph.company_index(graph.company_id(ci)) {
                Some(pc) => h.extend_from_slice(prev.h_row(pc)),
                None => h.extend(cold_row(&mut rng, c)),
            }
        }
        Coda::fit_from(graph, cfg, f, h)
    }

    /// Shared block-coordinate ascent loop over a prepared init.
    fn fit_from(graph: &BipartiteGraph, cfg: &CodaConfig, f: Vec<f64>, h: Vec<f64>) -> Coda {
        let c = cfg.communities.max(1);
        let mut model = Coda {
            f,
            h,
            ll_trace: Vec::with_capacity(cfg.iterations),
            rows_stuck: 0,
            line_search_evaluations: 0,
            line_search_early_exits: 0,
            communities: c,
        };

        let _span = cfg.telemetry.span("coda.fit");
        let iter_counter = cfg.telemetry.counter("coda.iterations");
        let stuck_counter = cfg.telemetry.counter("coda.rows_stuck");
        let evaluations_counter = cfg.telemetry.counter("coda.line_search.evaluations");
        let early_exits_counter = cfg.telemetry.counter("coda.line_search.early_exits");
        for it in 0..cfg.iterations {
            // Update investors (F) against fixed H, then companies (H)
            // against fixed F.
            let sum_h = column_sums(&model.h, c);
            let mut tally = update_rows(cfg, c, &mut model.f, &model.h, &sum_h, |u| {
                graph.companies_of(u)
            });
            let sum_f = column_sums(&model.f, c);
            tally += update_rows(cfg, c, &mut model.h, &model.f, &sum_f, |ci| {
                graph.investors_of(ci)
            });
            let ll = model.log_likelihood(graph);
            model.ll_trace.push(ll);
            model.rows_stuck += tally.stuck;
            model.line_search_evaluations += tally.evaluations;
            model.line_search_early_exits += tally.early_exits;
            iter_counter.inc();
            stuck_counter.add(tally.stuck);
            evaluations_counter.add(tally.evaluations);
            early_exits_counter.add(tally.early_exits);
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

    /// Investor `u`'s outgoing affiliation row.
    pub fn f_row(&self, u: u32) -> &[f64] {
        &self.f[u as usize * self.communities..][..self.communities]
    }

    /// Company `c`'s incoming affiliation row.
    pub fn h_row(&self, c: u32) -> &[f64] {
        &self.h[c as usize * self.communities..][..self.communities]
    }

    /// Full-data log-likelihood under the directed AGM.
    pub fn log_likelihood(&self, graph: &BipartiteGraph) -> f64 {
        let c = self.communities;
        let sum_f = column_sums(&self.f, c);
        let sum_h = column_sums(&self.h, c);
        let mut ll = 0.0;
        let mut edge_dot_total = 0.0;
        for u in 0..graph.investor_count() as u32 {
            for &ci in graph.companies_of(u) {
                let d = dot(self.f_row(u), self.h_row(ci));
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
        let investors = (self.f.len() / self.communities) as u32;
        (0..self.communities)
            .filter_map(|k| {
                let members: Vec<u32> = (0..investors)
                    .filter(|&u| self.f_row(u)[k] >= delta)
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
        for (u, row) in self.f.chunks_exact(self.communities).enumerate() {
            // Manual argmax: affiliations are clamped finite, and a NaN
            // simply never wins, so no comparator can panic.
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
        (0..(self.h.len() / self.communities) as u32)
            .filter(|&c| self.h_row(c)[k] >= delta)
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
                .map(|i| model.f_row(i));
            let hc = find_company(&train, graph.company_id(ci)).map(|i| model.h_row(i));
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

/// Column sums of a row-major buffer of `c`-wide rows, accumulated row by
/// row in order.
pub(crate) fn column_sums(rows: &[f64], c: usize) -> Vec<f64> {
    let mut out = vec![0.0; c];
    for row in rows.chunks_exact(c) {
        for (o, v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
    out
}

/// Pool tasks per worker in one half-iteration: a few blocks per worker
/// let a block of heavy rows finish while the others keep going.
const BLOCKS_PER_WORKER: usize = 4;

/// What a run of row updates did, summed over rows.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Updates whose line search found no improving step.
    stuck: u64,
    /// Candidates whose local likelihood was evaluated.
    evaluations: u64,
    /// Evaluations cut short by the partial-sum bound.
    early_exits: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.stuck += other.stuck;
        self.evaluations += other.evaluations;
        self.early_exits += other.early_exits;
    }
}

/// One half-iteration: [`update_row`] over every `c`-wide row of the
/// row-major `rows` against the fixed `other` side and its column sums.
/// Rows are cut into contiguous blocks of about equal work (degree + 1)
/// and each block is one [`run_tasks`] task with its own [`Scratch`]. A
/// row's update reads only `other`, `sum_other` and its own neighbours,
/// so every row ends bit-identical to the serial loop. The tallies are
/// summed over the blocks.
fn update_rows<'g>(
    cfg: &CodaConfig,
    c: usize,
    rows: &mut [f64],
    other: &[f64],
    sum_other: &[f64],
    neighbors: impl Fn(u32) -> &'g [u32] + Sync,
) -> Tally {
    let blocks = match cfg.ctx.threads() {
        1 => 1,
        threads => threads * BLOCKS_PER_WORKER,
    };
    let n = rows.len() / c;
    let work: usize = (0..n as u32).map(|r| neighbors(r).len() + 1).sum();
    let per_block = work.div_ceil(blocks).max(1);
    let mut tasks = Vec::with_capacity(blocks);
    let mut rest = rows;
    let mut start = 0usize;
    while start < n {
        let (mut len, mut weight) = (0, 0);
        while start + len < n && weight < per_block {
            weight += neighbors((start + len) as u32).len() + 1;
            len += 1;
        }
        let (block, tail) = std::mem::take(&mut rest).split_at_mut(len * c);
        tasks.push((start, block));
        start += len;
        rest = tail;
    }
    let tallies = run_tasks(cfg.ctx, tasks, |_, (start, block)| {
        let mut scratch = Scratch::default();
        for (i, row) in block.chunks_exact_mut(c).enumerate() {
            let adjacent = neighbors((start + i) as u32);
            if !update_row(row, adjacent, other, sum_other, cfg.step, &mut scratch) {
                scratch.tally.stuck += 1;
            }
        }
        scratch.tally
    });
    tallies
        .into_iter()
        .fold(Tally::default(), |mut total, tally| {
            total += tally;
            total
        })
}

/// Neighbours per step of a candidate's likelihood sum: their dot products
/// are computed together, and the early-exit bound is checked before each
/// step.
const STRIDE: usize = 4;

/// Per-task buffers of [`update_row`], reused across rows, and the tally
/// of the rows it updated.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// `Σother − Σ_{v∈N} other_v`: the non-edge weight of each community.
    rest: Vec<f64>,
    grad: Vec<f64>,
    candidate: Vec<f64>,
    /// `candidate_k · rest_k`: the candidate's non-edge penalty terms.
    penalty: Vec<f64>,
    /// `row · other_v` for every neighbour `v`, at the current row.
    dots: Vec<f64>,
    tally: Tally,
}

/// Hand `row · other_v` for each `v` of `vs` to `out`, in order, reading
/// `other` as row-major `row.len()`-wide rows. Four dot products are
/// summed side by side, each over `k` in order from `−0.0` (the neutral
/// element `Iterator::sum` folds from), so every value equals [`dot`] bit
/// for bit.
#[inline]
fn dots(row: &[f64], vs: &[u32], other: &[f64], mut out: impl FnMut(f64)) {
    let c = row.len();
    let other_row = |v: u32| &other[v as usize * c..][..c];
    let mut chunks = vs.chunks_exact(4);
    for four in &mut chunks {
        let (a, b, d, e) = (
            other_row(four[0]),
            other_row(four[1]),
            other_row(four[2]),
            other_row(four[3]),
        );
        let mut s = [-0.0f64; 4];
        for k in 0..c {
            let x = row[k];
            s[0] += x * a[k];
            s[1] += x * b[k];
            s[2] += x * d[k];
            s[3] += x * e[k];
        }
        s.into_iter().for_each(&mut out);
    }
    for &v in chunks.remainder() {
        out(dot(row, other_row(v)));
    }
}

/// `ll − Σ_k penalty_k`, subtracted in `k` order: the last step of a local
/// likelihood, and monotone non-decreasing in `ll`.
#[inline]
fn penalized(ll: f64, penalty: &[f64]) -> f64 {
    penalty.iter().fold(ll, |ll, p| ll - p)
}

/// One projected-gradient update with backtracking line search of a single
/// node's affiliation row against the fixed other side (row-major, the
/// row's width per node). Returns whether an improving step was found
/// (otherwise the row is left unchanged).
///
/// The row's local likelihood is `Σ_{v∈N} log1mexp(row·other_v) −
/// Σ_k row_k·rest_k`. Up to six candidates `clamp(row + step·grad)` are
/// tried at halving steps, and the first whose likelihood exceeds the
/// row's is taken. Every edge term is ≤ 0 and rounding is monotone, so a
/// candidate's partial sum over its first `j` neighbours, passed through
/// the same penalty subtractions, bounds its final likelihood from above:
/// once that bound is ≤ the row's, the candidate is rejected without the
/// remaining neighbours. A candidate equal to the row is rejected without
/// evaluation. Both shortcuts give the decision the full evaluation would.
pub(crate) fn update_row(
    row: &mut [f64],
    neighbors: &[u32],
    other: &[f64],
    sum_other: &[f64],
    step0: f64,
    scratch: &mut Scratch,
) -> bool {
    let c = row.len();
    let Scratch {
        rest,
        grad,
        candidate,
        penalty,
        dots: base_dots,
        tally,
    } = scratch;
    rest.clear();
    rest.resize(c, 0.0);
    for &v in neighbors {
        for (s, o) in rest.iter_mut().zip(&other[v as usize * c..][..c]) {
            *s += o;
        }
    }
    for (r, total) in rest.iter_mut().zip(sum_other) {
        *r = total - *r;
    }

    // The row's dot products serve both the gradient and its likelihood.
    base_dots.clear();
    dots(row, neighbors, other, |d| base_dots.push(d));
    // Gradient: Σ_{v∈N} other_v · w(dot) − rest.
    grad.clear();
    grad.resize(c, 0.0);
    for (&v, &d) in neighbors.iter().zip(base_dots.iter()) {
        let w = edge_weight(d);
        for (g, o) in grad.iter_mut().zip(&other[v as usize * c..][..c]) {
            *g += o * w;
        }
    }
    for (g, r) in grad.iter_mut().zip(rest.iter()) {
        *g -= r;
    }
    let mut base = 0.0;
    for &d in base_dots.iter() {
        base += log1mexp(d);
    }
    penalty.clear();
    penalty.extend(row.iter().zip(rest.iter()).map(|(x, r)| x * r));
    let base = penalized(base, penalty);

    candidate.resize(c, 0.0);
    let mut step = step0;
    'candidates: for _ in 0..6 {
        for ((x, &r), &g) in candidate.iter_mut().zip(row.iter()).zip(grad.iter()) {
            *x = (r + step * g).clamp(0.0, 1_000.0);
        }
        step *= 0.5;
        if candidate
            .iter()
            .zip(row.iter())
            .all(|(x, r)| x.to_bits() == r.to_bits())
        {
            continue;
        }
        tally.evaluations += 1;
        for ((p, x), r) in penalty.iter_mut().zip(candidate.iter()).zip(rest.iter()) {
            *p = x * r;
        }
        let mut ll = 0.0;
        for vs in neighbors.chunks(STRIDE) {
            if penalized(ll, penalty) <= base {
                tally.early_exits += 1;
                continue 'candidates;
            }
            dots(candidate, vs, other, |d| ll += log1mexp(d));
        }
        if penalized(ll, penalty) > base {
            row.copy_from_slice(candidate);
            return true;
        }
    }
    // No improving step found: leave the row unchanged (ascent property).
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The row update before the early-exit line search and the flat
    /// layout: every candidate's full local likelihood, fresh buffers per
    /// call, `other` as one `Vec` per node. [`update_row`] must agree with
    /// it bit for bit.
    fn update_node(
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

    /// Rows of a row-major buffer, one `Vec` each.
    fn unflatten(flat: &[f64], c: usize) -> Vec<Vec<f64>> {
        flat.chunks_exact(c).map(<[f64]>::to_vec).collect()
    }

    /// The fit as it was, serially through [`update_node`] on one `Vec`
    /// per row, from `init`'s factors (a zero-pass fit, cold or warm)
    /// for `iterations` passes.
    fn oracle_fit(graph: &BipartiteGraph, init: &Coda, iterations: usize, step: f64) -> Coda {
        let c = init.community_count();
        let mut f = unflatten(&init.f, c);
        let mut h = unflatten(&init.h, c);
        let sums = |rows: &[Vec<f64>]| -> Vec<f64> {
            let mut out = vec![0.0; c];
            for row in rows {
                for (o, v) in out.iter_mut().zip(row) {
                    *o += v;
                }
            }
            out
        };
        let mut ll_trace = Vec::new();
        let mut stuck = 0;
        for _ in 0..iterations {
            let sum_h = sums(&h);
            for (u, row) in f.iter_mut().enumerate() {
                let neighbors = graph.companies_of(u as u32);
                stuck += u64::from(!update_node(row, neighbors, &h, &sum_h, step));
            }
            let sum_f = sums(&f);
            for (ci, row) in h.iter_mut().enumerate() {
                let neighbors = graph.investors_of(ci as u32);
                stuck += u64::from(!update_node(row, neighbors, &f, &sum_f, step));
            }
            let mut ll = 0.0;
            let mut edge_dot_total = 0.0;
            for (u, row) in f.iter().enumerate() {
                for &ci in graph.companies_of(u as u32) {
                    let d = dot(row, &h[ci as usize]);
                    ll += log1mexp(d);
                    edge_dot_total += d;
                }
            }
            ll -= dot(&sums(&f), &sums(&h)) - edge_dot_total;
            ll_trace.push(ll);
        }
        Coda {
            f: f.concat(),
            h: h.concat(),
            ll_trace,
            rows_stuck: stuck,
            line_search_evaluations: 0,
            line_search_early_exits: 0,
            communities: c,
        }
    }

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

    /// One affiliation weight: zero, the upper clamp, a subnormal or tiny
    /// value, or an ordinary one.
    fn weight() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(1_000.0),
            Just(f64::MIN_POSITIVE / 4.0),
            1e-300f64..1e-6,
            0.0f64..3.0,
        ]
    }

    /// Widest `C` the kernel cases draw.
    const MAX_C: usize = 40;

    /// `(row, other rows, neighbour list with repeats, extra non-edge
    /// weight per community, initial step)` at `C` in 1..=40, over 1 to
    /// 11 other rows.
    #[allow(clippy::type_complexity)]
    fn kernel_case() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<f64>>, Vec<u32>, Vec<f64>, f64)> {
        let width = || MAX_C..MAX_C + 1;
        (
            (
                1..MAX_C + 1,
                proptest::collection::vec(weight(), width()),
                proptest::collection::vec(proptest::collection::vec(weight(), width()), 1..12),
            ),
            (
                proptest::collection::vec(0u32..64, 0..20),
                proptest::collection::vec(0.0f64..50.0, width()),
                prop_oneof![Just(0.25), 1e-3f64..2.0],
            ),
        )
            .prop_map(|((c, mut row, mut other), (neighbors, mut extra, step))| {
                row.truncate(c);
                extra.truncate(c);
                for o in &mut other {
                    o.truncate(c);
                }
                let n = other.len() as u32;
                let neighbors = neighbors.into_iter().map(|v| v % n).collect();
                (row, other, neighbors, extra, step)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_kernel_is_bitwise_the_oracle(case in kernel_case()) {
            let (row, other, neighbors, extra, step) = case;
            let c = row.len();
            let mut sum_other = vec![0.0; c];
            for o in &other {
                for (s, v) in sum_other.iter_mut().zip(o) {
                    *s += v;
                }
            }
            for (s, e) in sum_other.iter_mut().zip(&extra) {
                *s += e;
            }
            let mut want = row.clone();
            let improved = update_node(&mut want, &neighbors, &other, &sum_other, step);
            let mut got = row.clone();
            let mut scratch = Scratch::default();
            let flat = other.concat();
            let got_improved = update_row(&mut got, &neighbors, &flat, &sum_other, step, &mut scratch);
            prop_assert_eq!(got_improved, improved);
            let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
            // The scratch is reused: a second row through it agrees too.
            let mut again = row.clone();
            let again_improved =
                update_row(&mut again, &neighbors, &flat, &sum_other, step, &mut scratch);
            prop_assert_eq!(again_improved, improved);
            prop_assert_eq!(bits(&again), bits(&want));
            prop_assert!(scratch.tally.early_exits <= scratch.tally.evaluations);
            prop_assert!(scratch.tally.evaluations <= 12);
        }
    }

    /// The fit equals the oracle fit bit for bit, cold and warm, serial and
    /// on two workers, and its line search mostly exits early.
    fn assert_fit_is_the_oracle(g: &BipartiteGraph, grown: &BipartiteGraph, cfg: &CodaConfig) {
        let frozen = CodaConfig { iterations: 0, ..cfg.clone() };
        let cold_oracle = oracle_fit(g, &Coda::fit(g, &frozen), cfg.iterations, cfg.step);
        for threads in [1, 2] {
            let cfg = CodaConfig { ctx: ExecCtx::new(threads), ..cfg.clone() };
            let cold = Coda::fit(g, &cfg);
            assert_bitwise_eq(&cold, &cold_oracle, &format!("cold fit, {threads} threads"));
            assert!(cold.line_search_early_exits <= cold.line_search_evaluations);
            let warm = Coda::fit_warm(grown, &cfg, &cold, g);
            let frozen = CodaConfig { iterations: 0, ..cfg.clone() };
            let init = Coda::fit_warm(grown, &frozen, &cold, g);
            let warm_oracle = oracle_fit(grown, &init, cfg.iterations, cfg.step);
            assert_bitwise_eq(&warm, &warm_oracle, &format!("warm fit, {threads} threads"));
        }
    }

    #[test]
    fn the_fit_is_bitwise_the_oracle_fit_on_the_planted_fixture() {
        let (g, _) = planted(13);
        let mut grown = g.clone();
        grown.add_edge(999, 100);
        grown.add_edge(3, 207);
        let cfg = CodaConfig { communities: 3, iterations: 15, ..CodaConfig::default() };
        assert_fit_is_the_oracle(&g, &grown, &cfg);
    }

    #[test]
    fn the_fit_is_bitwise_the_oracle_fit_on_the_tiny_world() {
        // The tiny world's investment graph, filtered and sized the way the
        // serving tier fits it.
        let world = crowdnet_socialsim::World::generate(&crowdnet_socialsim::WorldConfig::tiny(42));
        let edges = world
            .users
            .iter()
            .flat_map(|u| u.investments.iter().map(move |c| (u.id.0, c.0)));
        let full = BipartiteGraph::from_edges(edges);
        let g = full.filter_min_investments(4);
        assert!(g.investor_count() > 5, "{} filtered investors", g.investor_count());
        let mut grown = g.clone();
        grown.add_edge(u32::MAX, g.company_id(0));
        grown.add_edge(g.investor_id(0), g.company_id(g.company_count() as u32 - 1));
        let communities = ((g.investor_count() as f64).sqrt().ceil() as usize).max(2);
        let telemetry = Telemetry::new();
        let cfg = CodaConfig {
            communities,
            iterations: 25,
            telemetry: telemetry.clone(),
            ..CodaConfig::default()
        };
        assert_fit_is_the_oracle(&g, &grown, &cfg);
        // Some candidates are ruled out early, and the counters saw them.
        let evaluations = telemetry.counter("coda.line_search.evaluations").value();
        let early = telemetry.counter("coda.line_search.early_exits").value();
        assert!(early > 0 && early <= evaluations, "{early} early exits of {evaluations}");
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
        let bits = |rows: &[f64]| -> Vec<u64> { rows.iter().map(|v| v.to_bits()).collect() };
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
            assert_eq!(
                telemetry.counter("coda.line_search.evaluations").value(),
                cold.line_search_evaluations
            );
            assert_eq!(
                telemetry.counter("coda.line_search.early_exits").value(),
                cold.line_search_early_exits
            );
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
        let k = model
            .f_row(biggest.members[0])
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        // Dense fixture again: take companies by argmax of H rather than the
        // sparse-regime δ rule.
        let companies: std::collections::HashSet<u32> = (0..g.company_count() as u32)
            .filter(|&c| {
                let row = model.h_row(c);
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
            assert_eq!(warm.f_row(wu), prev.f_row(u));
        }
        let nu = g2.investor_index(999).unwrap();
        assert!(warm.f_row(nu).iter().all(|&v| (0.0..0.1).contains(&v)));
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
        let telemetry = Telemetry::new();
        let cfg3 = CodaConfig {
            communities: 3,
            iterations: 5,
            telemetry: telemetry.clone(),
            ..CodaConfig::default()
        };
        let warm = Coda::fit_warm(&g, &cfg3, &prev, &g);
        assert_eq!(telemetry.counter("coda.warm_fallbacks").value(), 1);
        // A warm fit at the same community count is no fallback.
        Coda::fit_warm(&g, &CodaConfig { communities: 2, ..cfg3.clone() }, &prev, &g);
        assert_eq!(telemetry.counter("coda.warm_fallbacks").value(), 1);
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

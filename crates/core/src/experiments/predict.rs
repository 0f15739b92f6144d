//! §7 extension: predicting fundraising success from profile and graph
//! features.
//!
//! "We further plan to use characteristics such as node degree,
//! connectivity, and measures of centrality … to predict the success or
//! failure of a startup. … We will use feature selection methods for
//! high-dimensional regression to identify the graph statistics that are the
//! most useful for performing prediction."
//!
//! Implementation: ℓ2-regularized logistic regression (batch gradient
//! descent, standardized features) with greedy **forward feature selection**
//! scored by held-out AUC.

use crate::error::CoreError;
use crate::experiments::investor_graph;
use crate::features::company_records;
use crate::pipeline::PipelineOutcome;
use crowdnet_graph::betweenness::betweenness_sampled;
use crowdnet_graph::pagerank::{pagerank, PageRankConfig};
use crowdnet_graph::projection::Projection;
use crowdnet_graph::BipartiteGraph;
use std::collections::HashMap;

/// Names of the candidate features, in column order.
pub const FEATURES: &[&str] = &[
    "log_follower_count",
    "has_facebook",
    "has_twitter",
    "log_fb_likes",
    "log_tw_followers",
    "log_tweets",
    "has_demo_video",
    "log_investor_degree",
    "pagerank_centrality",
    "betweenness_centrality",
];

/// Prediction-experiment output.
#[derive(Debug, Clone)]
pub struct PredictResult {
    /// Held-out AUC of the full model.
    pub auc_full: f64,
    /// Held-out AUC using only the single best feature.
    pub auc_best_single: f64,
    /// Features in the order forward selection picked them, with the AUC
    /// after adding each.
    pub selection_path: Vec<(String, f64)>,
    /// Training rows.
    pub train_rows: usize,
    /// Test rows.
    pub test_rows: usize,
    /// Base rate of the positive class.
    pub positive_rate: f64,
}

/// A simple logistic-regression model.
#[derive(Debug, Clone)]
pub struct Logit {
    /// Weights (one per feature).
    pub weights: Vec<f64>,
    /// Intercept.
    pub bias: f64,
}

impl Logit {
    /// Fit by batch gradient descent with L2 regularization. Features must
    /// already be standardized.
    pub fn fit(x: &[Vec<f64>], y: &[f64], epochs: usize, lr: f64, l2: f64) -> Logit {
        let n = x.len().max(1);
        let d = x.first().map(Vec::len).unwrap_or(0);
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        for _ in 0..epochs {
            let mut gw = vec![0.0; d];
            let mut gb = 0.0;
            for (xi, &yi) in x.iter().zip(y) {
                let z: f64 = xi.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() + b;
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - yi;
                for (g, &f) in gw.iter_mut().zip(xi) {
                    *g += err * f;
                }
                gb += err;
            }
            for (wk, gk) in w.iter_mut().zip(&gw) {
                *wk -= lr * (gk / n as f64 + l2 * *wk);
            }
            b -= lr * gb / n as f64;
        }
        Logit { weights: w, bias: b }
    }

    /// Predicted probability for one standardized row.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let z: f64 = x.iter().zip(&self.weights).map(|(a, b)| a * b).sum::<f64>() + self.bias;
        1.0 / (1.0 + (-z).exp())
    }
}

/// Area under the ROC curve via the rank statistic (ties get half credit).
pub fn auc(scores: &[f64], labels: &[f64]) -> f64 {
    let mut pairs: Vec<(f64, f64)> = scores.iter().copied().zip(labels.iter().copied()).collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));
    let pos = labels.iter().filter(|&&l| l > 0.5).count() as f64;
    let neg = labels.len() as f64 - pos;
    if pos == 0.0 || neg == 0.0 {
        return 0.5;
    }
    // Sum of ranks of positives, with average ranks for ties.
    let mut rank_sum = 0.0;
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i;
        while j < pairs.len() && pairs[j].0 == pairs[i].0 {
            j += 1;
        }
        let avg_rank = (i + j + 1) as f64 / 2.0; // 1-based average rank
        for pair in &pairs[i..j] {
            if pair.1 > 0.5 {
                rank_sum += avg_rank;
            }
        }
        i = j;
    }
    (rank_sum - pos * (pos + 1.0) / 2.0) / (pos * neg)
}

fn standardize(x: &mut [Vec<f64>]) {
    let n = x.len().max(1) as f64;
    let d = x.first().map(Vec::len).unwrap_or(0);
    for k in 0..d {
        let mean = x.iter().map(|r| r[k]).sum::<f64>() / n;
        let var = x.iter().map(|r| (r[k] - mean).powi(2)).sum::<f64>() / n;
        let sd = var.sqrt().max(1e-9);
        for row in x.iter_mut() {
            row[k] = (row[k] - mean) / sd;
        }
    }
}

fn columns(x: &[Vec<f64>], cols: &[usize]) -> Vec<Vec<f64>> {
    x.iter()
        .map(|row| cols.iter().map(|&c| row[c]).collect())
        .collect()
}

/// Run the prediction experiment.
pub fn run(outcome: &PipelineOutcome) -> Result<PredictResult, CoreError> {
    let records = company_records(outcome)?;
    let graph = investor_graph::graph(outcome)?;
    // In-degree (number of investors) per company AngelList id.
    let mut degree: HashMap<u32, usize> = HashMap::new();
    for c in 0..graph.company_count() as u32 {
        degree.insert(graph.company_id(c), graph.investors_of(c).len());
    }
    // Company-side PageRank centrality (§7: "measures of centrality … to
    // predict the success or failure of a startup"): project companies onto
    // a shared-investor graph by swapping the bipartite roles.
    let swapped = BipartiteGraph::from_edges(
        (0..graph.investor_count() as u32).flat_map(|u| {
            graph
                .companies_of(u)
                .iter()
                .map(|&ci| (graph.company_id(ci), graph.investor_id(u)))
                .collect::<Vec<_>>()
        }),
    );
    let company_projection = Projection::from_bipartite(&swapped, 500);
    let ranks = pagerank(&company_projection, &PageRankConfig::default());
    // Brandes from a sampled source set keeps this linear-ish in edges.
    let sources = (company_projection.node_count() / 4).clamp(16, 256);
    let bridge = betweenness_sampled(&company_projection, sources, 17);
    let mut centrality: HashMap<u32, f64> = HashMap::new();
    let mut bridging: HashMap<u32, f64> = HashMap::new();
    for i in 0..swapped.investor_count() as u32 {
        // In the swapped graph the "investor" side is the companies.
        centrality.insert(swapped.investor_id(i), ranks[i as usize]);
        bridging.insert(swapped.investor_id(i), bridge[i as usize]);
    }

    let ln1p = |v: u64| ((v + 1) as f64).ln();
    let mut x: Vec<Vec<f64>> = Vec::with_capacity(records.len());
    let mut y: Vec<f64> = Vec::with_capacity(records.len());
    for r in &records {
        x.push(vec![
            ln1p(r.follower_count),
            f64::from(u8::from(r.has_facebook)),
            f64::from(u8::from(r.has_twitter)),
            ln1p(r.fb_likes.unwrap_or(0)),
            ln1p(r.tw_followers.unwrap_or(0)),
            ln1p(r.tw_statuses.unwrap_or(0)),
            f64::from(u8::from(r.has_demo_video)),
            ln1p(degree.get(&r.id).copied().unwrap_or(0) as u64),
            centrality.get(&r.id).copied().unwrap_or(0.0) * 1e4,
            (bridging.get(&r.id).copied().unwrap_or(0.0) + 1.0).ln(),
        ]);
        y.push(f64::from(u8::from(r.funded)));
    }
    if x.is_empty() {
        return Err(CoreError::EmptyInput("company records".into()));
    }
    standardize(&mut x);

    // Deterministic 70/30 split by row-index hash.
    let mut train_x = Vec::new();
    let mut train_y = Vec::new();
    let mut test_x = Vec::new();
    let mut test_y = Vec::new();
    for (i, (xi, &yi)) in x.iter().zip(&y).enumerate() {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        if h % 10 < 7 {
            train_x.push(xi.clone());
            train_y.push(yi);
        } else {
            test_x.push(xi.clone());
            test_y.push(yi);
        }
    }

    let eval = |cols: &[usize]| -> f64 {
        let model = Logit::fit(&columns(&train_x, cols), &train_y, 150, 0.5, 1e-4);
        let scores: Vec<f64> = columns(&test_x, cols)
            .iter()
            .map(|row| model.predict(row))
            .collect();
        auc(&scores, &test_y)
    };

    // Forward selection.
    let d = FEATURES.len();
    let mut chosen: Vec<usize> = Vec::new();
    let mut path: Vec<(String, f64)> = Vec::new();
    let mut best_so_far = 0.0;
    for _ in 0..d {
        let mut best: Option<(usize, f64)> = None;
        for cand in 0..d {
            if chosen.contains(&cand) {
                continue;
            }
            let mut cols = chosen.clone();
            cols.push(cand);
            let score = eval(&cols);
            if best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((cand, score));
            }
        }
        let Some((cand, score)) = best else { break };
        // Stop when an additional feature no longer helps.
        if !path.is_empty() && score <= best_so_far + 1e-4 {
            break;
        }
        chosen.push(cand);
        best_so_far = score;
        path.push((FEATURES[cand].to_string(), score));
    }

    let auc_full = eval(&(0..d).collect::<Vec<_>>());
    let auc_best_single = path.first().map(|&(_, s)| s).unwrap_or(0.5);
    Ok(PredictResult {
        auc_full,
        auc_best_single,
        selection_path: path,
        train_rows: train_x.len(),
        test_rows: test_x.len(),
        positive_rate: y.iter().sum::<f64>() / y.len() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use crowdnet_socialsim::{Scale, WorldConfig};

    #[test]
    fn auc_of_perfect_and_random_scores() {
        assert_eq!(auc(&[0.1, 0.2, 0.8, 0.9], &[0.0, 0.0, 1.0, 1.0]), 1.0);
        assert_eq!(auc(&[0.9, 0.8, 0.2, 0.1], &[0.0, 0.0, 1.0, 1.0]), 0.0);
        assert_eq!(auc(&[0.5, 0.5, 0.5, 0.5], &[0.0, 1.0, 0.0, 1.0]), 0.5);
        assert_eq!(auc(&[0.3], &[1.0]), 0.5); // degenerate single-class
    }

    #[test]
    fn logit_learns_a_separable_problem() {
        let x: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![if i < 100 { -1.0 } else { 1.0 } + (i % 7) as f64 * 0.01])
            .collect();
        let y: Vec<f64> = (0..200).map(|i| f64::from(u8::from(i >= 100))).collect();
        let model = Logit::fit(&x, &y, 300, 0.5, 1e-4);
        assert!(model.predict(&[1.0]) > 0.9);
        assert!(model.predict(&[-1.0]) < 0.1);
    }

    #[test]
    fn engagement_features_predict_funding() {
        let mut cfg = PipelineConfig::tiny(42);
        cfg.world = WorldConfig::at_scale(
            42,
            Scale::Custom {
                companies: 12_000,
                users: 3_000,
            },
        );
        let outcome = Pipeline::new(cfg).run().unwrap();
        let r = run(&outcome).unwrap();
        assert!(r.train_rows > r.test_rows);
        assert!(r.positive_rate > 0.002 && r.positive_rate < 0.2);
        // Engagement genuinely drives success in the generator, so the model
        // must beat chance clearly.
        assert!(r.auc_full > 0.65, "AUC {}", r.auc_full);
        assert!(!r.selection_path.is_empty());
        // Forward selection's path is non-decreasing in AUC.
        for w in r.selection_path.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }
}

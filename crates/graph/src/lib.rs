//! # crowdnet-graph
//!
//! The investor-graph analytics of §5 of the paper, implemented from
//! scratch:
//!
//! * [`bipartite`] — the directed bipartite investor→company graph ("46,966
//!   investor nodes, 59,953 company nodes, and 158,199 investment edges"),
//!   degree analyses, and the ≥k-investment filter used before community
//!   detection.
//! * [`coda`] — CoDA (Communities through Directed Affiliations; Yang,
//!   McAuley & Leskovec, WSDM'14), the detector the paper runs from SNAP,
//!   reimplemented: a directed affiliation model `P(u→c) = 1 − exp(Fᵤ·Hc)⁻`
//!   fit by projected block-coordinate gradient ascent.
//! * [`bigclam`], [`labelprop`], [`louvain`], [`sbm`] — baseline detectors
//!   (the "standard community detection algorithms" the paper positions CoDA
//!   against, plus the stochastic block model of its §7 future work).
//! * [`metrics`] — the paper's two community-strength metrics: average
//!   pairwise **shared investment size** and **percentage of companies with
//!   ≥ K shared investors**, with the Figure 8 toy examples as unit tests.
//! * [`eval`] — recovery scoring of detected covers against planted ground
//!   truth (average best-match F1), used by the detector ablation bench.
//! * [`projection`] — the weighted investor co-investment projection that
//!   the undirected baselines consume.
//! * [`fxhash`] — FxHash-style maps for the hot integer-keyed paths.

pub mod betweenness;
pub mod bigclam;
pub mod bipartite;
pub mod coda;
pub mod dynamic;
pub mod eval;
pub mod fxhash;
pub mod labelprop;
pub mod louvain;
pub mod metrics;
pub mod pagerank;
pub mod projection;
pub mod sbm;

/// Sample `k` distinct indices from `0..n` (Floyd's algorithm); used by the
/// sampled centrality estimators.
pub(crate) fn sample_indices<R: rand::Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    use std::collections::HashSet;
    let k = k.min(n);
    let mut chosen: HashSet<usize> = HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.random_range(0..=j);
        let pick = if chosen.contains(&t) { j } else { t };
        chosen.insert(pick);
        out.push(pick);
    }
    out
}

pub use bipartite::{BipartiteGraph, EdgeInsert};
pub use projection::DynamicProjection;
pub use coda::{Coda, CodaConfig};
pub use metrics::Cover;

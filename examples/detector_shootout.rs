//! Detector ablation: run CoDA against the four baselines on the same
//! crawled world and score each cover three ways — recovery of the planted
//! ground truth (best-match F1), the paper's own community-strength metric,
//! and wall time — over three world seeds, then average per detector.
//!
//! ```sh
//! cargo run --release --example detector_shootout
//! ```

use crowdnet::core::experiments::communities::MIN_INVESTMENTS;
use crowdnet::core::features::investment_edges;
use crowdnet::core::pipeline::{Pipeline, PipelineConfig};
use crowdnet::graph::bigclam::{BigClam, BigClamConfig};
use crowdnet::graph::eval::best_match_f1;
use crowdnet::graph::labelprop::{label_propagation, LabelPropConfig};
use crowdnet::graph::louvain::{louvain, LouvainConfig};
use crowdnet::graph::metrics::{self, Community};
use crowdnet::graph::projection::Projection;
use crowdnet::graph::sbm::{self, SbmConfig};
use crowdnet::graph::{BipartiteGraph, Coda, CodaConfig, Cover};
use crowdnet::socialsim::clock::SystemClock;
use crowdnet::socialsim::{Clock, Scale, WorldConfig};

const SEEDS: [u64; 3] = [11, 23, 47];
const COMPANIES: u32 = 20_000;
const USERS: u32 = 30_000;
const DETECTORS: [&str; 5] = ["CoDA", "BigCLAM", "LabelProp", "Louvain", "SBM"];

/// One detector's score on one world.
struct Row {
    f1: f64,
    shared_pct: f64,
    communities: usize,
    ms: u64,
}

fn measure(graph: &BipartiteGraph, truth: &Cover, detect: impl FnOnce() -> Cover) -> Row {
    let wall = SystemClock;
    let t0 = wall.now_ms();
    let cover = detect();
    let ms = wall.now_ms() - t0;
    let pcts = metrics::cover_shared_investor_pcts(graph, &cover, 2);
    Row {
        f1: best_match_f1(&cover, truth),
        shared_pct: pcts.iter().sum::<f64>() / pcts.len().max(1) as f64,
        communities: cover.len(),
        ms,
    }
}

/// Score every detector on the world generated from `seed`, in
/// [`DETECTORS`] order.
fn shootout(seed: u64) -> Result<Vec<Row>, Box<dyn std::error::Error>> {
    let mut config = PipelineConfig::tiny(seed);
    config.world = WorldConfig::at_scale(
        seed,
        Scale::Custom {
            companies: COMPANIES,
            users: USERS,
        },
    );
    let outcome = Pipeline::new(config).run()?;

    // The graph every detector sees: investors with ≥4 investments (§5.2).
    let graph =
        BipartiteGraph::from_edges(investment_edges(&outcome)?).filter_min_investments(MIN_INVESTMENTS);
    // Planted ground truth, restricted to investors present in the graph.
    let truth: Cover = outcome
        .world
        .planted_communities
        .iter()
        .filter_map(|pc| {
            let members: Vec<u32> = pc
                .investors
                .iter()
                .filter_map(|u| graph.investor_index(u.0))
                .collect();
            (members.len() >= 3).then_some(Community { members })
        })
        .collect();
    println!(
        "seed {seed}: {} investors / {} companies / {} edges; {} planted communities with ≥3 surviving members",
        graph.investor_count(),
        graph.company_count(),
        graph.edge_count(),
        truth.len()
    );

    let k = outcome.config.world.communities;
    let projection = Projection::from_bipartite(&graph, 500);
    Ok(vec![
        measure(&graph, &truth, || {
            let cfg = CodaConfig { communities: k, iterations: 25, ..Default::default() };
            Coda::fit(&graph, &cfg).investor_communities(&graph, &cfg)
        }),
        measure(&graph, &truth, || {
            let cfg = BigClamConfig { communities: k, iterations: 25, ..Default::default() };
            BigClam::fit(&graph, &cfg).investor_communities(&graph)
        }),
        measure(&graph, &truth, || label_propagation(&graph, &LabelPropConfig::default())),
        measure(&graph, &truth, || louvain(&projection, &LouvainConfig::default())),
        measure(&graph, &truth, || {
            sbm::cover_of(&sbm::fit(&projection, &SbmConfig { blocks: k, ..Default::default() }), k)
        }),
    ])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("crawling {} {COMPANIES}-company / {USERS}-user worlds…", SEEDS.len());
    let mut sums = [(0.0, 0.0, 0u64); DETECTORS.len()];
    for seed in SEEDS {
        for (i, row) in shootout(seed)?.into_iter().enumerate() {
            println!(
                "  {:<10} F1 {:.3}  shared-investor {:>5.1}%  {:>3} communities  {:>6} ms",
                DETECTORS[i], row.f1, row.shared_pct, row.communities, row.ms
            );
            sums[i].0 += row.f1;
            sums[i].1 += row.shared_pct;
            sums[i].2 += row.ms;
        }
    }

    println!("\nmeans over seeds {SEEDS:?}:");
    let n = SEEDS.len() as f64;
    for (name, (f1, pct, ms)) in DETECTORS.iter().zip(sums) {
        println!(
            "  {name:<10} F1 {:.3}  shared-investor {:>5.1}%  {:>6} ms",
            f1 / n,
            pct / n,
            ms / SEEDS.len() as u64
        );
    }
    println!(
        "\nCoDA is the paper's pick because it models the *directed bipartite*\n\
         structure natively; the undirected baselines must project or expand it."
    );
    Ok(())
}

//! Live longitudinal ingestion: the paper's daily re-crawl task wired
//! through the ingest tier.
//!
//! Each simulated day the driver (1) advances a step-wise
//! [`Study`](crowdnet_crawl::longitudinal::Study) — the scheduled re-crawl
//! that writes a fresh longitudinal snapshot; (2) appends a configurable
//! trickle of investor-portfolio updates (new investments discovered
//! between crawls — the part of the feed that actually mutates the graph);
//! (3) drains the changefeed through the maintainers; and (4) publishes an
//! epoch, atomically swapping what a pinned [`Service`] serves. The
//! serving layer therefore tracks the simulated world day by day without a
//! single from-scratch rebuild.

use crate::engine::IngestEngine;
use crate::error::IngestError;
use crowdnet_crawl::longitudinal::{Study, StudyConfig};
use crowdnet_json::{obj, Value};
use crowdnet_serve::artifacts::NS_USERS;
use crowdnet_graph::Coda;
use crowdnet_serve::{Artifacts, Service};
use crowdnet_socialsim::World;
use crowdnet_store::{Document, Store};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fresh synthetic investors introduced by the live trickle start here,
/// far above the simulator's user-id space, so they never collide with
/// crawled profiles.
const FRESH_INVESTOR_BASE: u32 = 900_000;

/// Live-ingestion knobs.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// The longitudinal study schedule (days, interval, evolution seed).
    pub study: StudyConfig,
    /// Investor-portfolio updates appended per scheduled day.
    pub appends_per_day: usize,
    /// Every Nth update introduces a brand-new investor instead of growing
    /// an existing portfolio (0 = never).
    pub new_investor_every: usize,
    /// Seed for the update trickle.
    pub seed: u64,
    /// Maintainer threads for each drain (see
    /// [`IngestEngine::drain_with_threads`]).
    pub threads: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            study: StudyConfig::default(),
            appends_per_day: 16,
            new_investor_every: 4,
            seed: 17,
            threads: 1,
        }
    }
}

/// What one live day did.
#[derive(Debug, Clone)]
pub struct DayOutcome {
    /// Simulated day.
    pub day: u32,
    /// Watchlist companies observed funded by this day.
    pub funded_count: usize,
    /// Feed events applied.
    pub events: u64,
    /// Documents applied.
    pub docs: u64,
    /// New graph edges inserted.
    pub edges: u64,
    /// Store version of the epoch published at end of day.
    pub epoch_version: u64,
    /// [`epoch_digest`] of that epoch.
    pub epoch_digest: u64,
}

/// FNV-1a over an epoch's fitted outputs: its CoDA cover (community
/// count, then each community's size and members), the bits of every
/// PageRank score, and the bits of the fitted model's `F`, `H` and
/// likelihood trace, so a single moved bit in any of them moves it.
pub fn epoch_digest(epoch: &Artifacts, model: Option<&Coda>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| {
        for b in word.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    feed(epoch.cover.len() as u64);
    for community in &epoch.cover {
        feed(community.members.len() as u64);
        community.members.iter().for_each(|&m| feed(u64::from(m)));
    }
    let mut floats: Vec<&[f64]> = vec![&epoch.pagerank];
    if let Some(model) = model {
        floats.extend([&model.f[..], &model.h[..], &model.ll_trace[..]]);
    }
    for values in floats {
        feed(values.len() as u64);
        values.iter().for_each(|v| feed(v.to_bits()));
    }
    hash
}

/// Run the study with the ingest tier in the loop. `store` must be the
/// same store `engine` subscribes to; `service`, when given, receives
/// every published epoch. Returns one outcome per scheduled day.
pub fn run_live(
    world: World,
    store: &Store,
    engine: &mut IngestEngine,
    service: Option<&Service>,
    cfg: &LiveConfig,
) -> Result<Vec<DayOutcome>, IngestError> {
    let mut study = Study::new(world, store, &cfg.study)?;
    let watchlist: Vec<u32> = study.watchlist().to_vec();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Portfolio state for the update trickle, seeded from the engine's
    // already-caught-up graph so updates extend real crawled portfolios.
    let graph = engine.graph().graph();
    let mut ids: Vec<u32> = (0..graph.investor_count() as u32)
        .map(|i| graph.investor_id(i))
        .collect();
    ids.sort_unstable();
    let mut portfolios: std::collections::HashMap<u32, Vec<u64>> = ids
        .iter()
        .map(|&id| {
            let idx = graph.investor_index(id).unwrap_or(0);
            let companies: Vec<u64> = graph
                .companies_of(idx)
                .iter()
                .map(|&c| u64::from(graph.company_id(c)))
                .collect();
            (id, companies)
        })
        .collect();
    let mut next_fresh = FRESH_INVESTOR_BASE;

    let mut out = Vec::new();
    while let Some(record) = study.advance()? {
        for k in 0..cfg.appends_per_day {
            let fresh = ids.is_empty()
                || (cfg.new_investor_every > 0 && k % cfg.new_investor_every == 0);
            let investor = if fresh {
                let id = next_fresh;
                next_fresh += 1;
                ids.push(id);
                id
            } else {
                ids[rng.random_range(0..ids.len())]
            };
            let company = u64::from(watchlist[rng.random_range(0..watchlist.len())]);
            let portfolio = portfolios.entry(investor).or_default();
            if !portfolio.contains(&company) {
                portfolio.push(company);
            }
            let investments: Vec<Value> =
                portfolio.iter().map(|&c| Value::from(c)).collect();
            store.put(
                NS_USERS,
                Document::new(
                    format!("user:{investor}"),
                    obj! {
                        "id" => u64::from(investor),
                        "role" => "investor",
                        "investments" => Value::Arr(investments),
                    },
                ),
            )?;
        }
        let report = engine.drain_with_threads(cfg.threads)?;
        let epoch = engine.publish(service);
        out.push(DayOutcome {
            day: record.day,
            funded_count: record.funded_count,
            events: report.events,
            docs: report.docs,
            edges: report.edges,
            epoch_version: epoch.version,
            epoch_digest: epoch_digest(&epoch, engine.model()),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IngestConfig;
    use crowdnet_socialsim::{Scale, WorldConfig};
    use crowdnet_telemetry::Telemetry;
    use std::sync::Arc;

    fn tiny_world() -> World {
        World::generate(&WorldConfig::at_scale(
            21,
            Scale::Custom { companies: 20_000, users: 800 },
        ))
    }

    #[test]
    fn live_study_publishes_one_epoch_per_day() {
        let store = Arc::new(Store::memory(2));
        let telemetry = Telemetry::new();
        let mut engine =
            IngestEngine::new(Arc::clone(&store), IngestConfig::default(), telemetry.clone())
                .unwrap();
        let cfg = LiveConfig {
            study: StudyConfig { days: 4, interval_days: 1, evolution_seed: 3 },
            appends_per_day: 8,
            ..LiveConfig::default()
        };
        let days = run_live(tiny_world(), &store, &mut engine, None, &cfg).unwrap();
        assert_eq!(days.len(), 5); // days 0..=4
        assert_eq!(engine.epochs_published(), 5);
        assert_eq!(telemetry.counter("ingest.epochs").value(), 5);
        // Every day both crawled longitudinal docs and the investor
        // trickle flowed through the feed.
        for day in &days {
            assert!(day.docs > 8, "day {} applied only {} docs", day.day, day.docs);
            assert!(day.edges > 0);
        }
        // Epoch versions strictly increase and end at the store version.
        for pair in days.windows(2) {
            assert!(pair[1].epoch_version > pair[0].epoch_version);
        }
        assert_eq!(days.last().unwrap().epoch_version, store.version());
        // The maintained graph saw the trickle's fresh investors.
        assert!(engine.graph().graph().investor_count() > 0);
        assert!(engine.applied_version() == store.version());
    }

    #[test]
    fn live_runs_are_deterministic() {
        let run = || {
            let store = Arc::new(Store::memory(2));
            let mut engine = IngestEngine::new(
                Arc::clone(&store),
                IngestConfig::default(),
                Telemetry::new(),
            )
            .unwrap();
            let cfg = LiveConfig {
                study: StudyConfig { days: 3, interval_days: 1, evolution_seed: 3 },
                appends_per_day: 6,
                ..LiveConfig::default()
            };
            let days = run_live(tiny_world(), &store, &mut engine, None, &cfg).unwrap();
            let epoch = engine.publish(None);
            (
                days.iter().map(|d| (d.day, d.docs, d.edges)).collect::<Vec<_>>(),
                epoch.pagerank.clone(),
                epoch.graph.edge_count(),
            )
        };
        assert_eq!(run(), run());
    }
}

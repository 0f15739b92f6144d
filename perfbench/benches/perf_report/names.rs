//! The normative names. `BENCHMARK.json` at the repository root is the
//! one place the workloads and metrics (name, unit, direction, bound) are
//! written down; it is compiled in and parsed at start-up, so the program
//! cannot report a name the contract does not hold. `../../baseline.json`
//! beside it holds what the contract's fixed schema has no key for: the
//! end-to-end metric and workload each per-layer metric should move, the
//! frozen open-loop ladder, and the recorded baseline.

use crowdnet_json::Value;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");
const BASELINE_JSON: &str = include_str!("../../baseline.json");

/// One metric of the contract.
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// End-to-end only (0 per layer): the share of the parent's median by
    /// which the metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// Per-layer only: the end-to-end metrics, with their workloads, this
    /// one should move, as `baseline.json` words it.
    pub moves: String,
}

pub struct Contract {
    /// The four workloads; one process runs one of them.
    pub workloads: Vec<String>,
    /// Every workload reports every one of these with `--trace 0`.
    pub end_to_end: Vec<MetricDef>,
    /// Every workload reports every one of these with `--trace 1`
    /// (layer = crate name, `phase`/`harness` = the benchmark itself).
    pub per_layer: Vec<MetricDef>,
    /// Open-loop ladder, requests/s, lowest first.
    pub ladder_rps: Vec<f64>,
    /// `(workload, contract name, ISSUE 11's name)` of the end-to-end
    /// slots whose reading the workload fixes.
    pub readings: Vec<(String, String, String)>,
}

fn text(value: &Value, key: &str) -> String {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key:?} missing in {}", value.to_compact()))
        .to_string()
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("list {key:?} missing"))
}

fn metrics(doc: &Value, key: &str, moves: &Value) -> Vec<MetricDef> {
    list(doc, key)
        .iter()
        .map(|m| {
            let name = text(m, "name");
            MetricDef {
                unit: text(m, "unit"),
                better: text(m, "better"),
                bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                moves: moves
                    .get(&name)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                name,
            }
        })
        .collect()
}

fn parse() -> Contract {
    let benchmark = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let baseline = Value::parse(BASELINE_JSON).expect("baseline.json parses");
    let moves = baseline.get("moves").expect("baseline.json: moves");
    Contract {
        workloads: list(&benchmark, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect(),
        end_to_end: metrics(&benchmark, "end_to_end", moves),
        per_layer: metrics(&benchmark, "per_layer", moves),
        ladder_rps: list(&baseline, "open_loop_ladder_rps")
            .iter()
            .filter_map(Value::as_f64)
            .collect(),
        readings: list(&baseline, "readings")
            .iter()
            .map(|r| (text(r, "workload"), text(r, "metric"), text(r, "issue_name")))
            .collect(),
    }
}

pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(parse)
}

/// The contract's entry for `name`, from either list.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    let contract = contract();
    contract
        .end_to_end
        .iter()
        .chain(&contract.per_layer)
        .find(|m| m.name == name)
}

/// Shard legs probed locally and over loopback.
pub const LEGS: [&str; 6] = [
    "epoch_meta",
    "scan_partitions",
    "entity_docs",
    "investor_edges",
    "top_k_prefix",
    "shard_stats",
];

/// The paper suite, in run order.
pub const SUITE: [&str; 8] = [
    "dataset_stats",
    "fig3",
    "fig6",
    "investor_graph",
    "communities",
    "fig4",
    "fig5",
    "fig7",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_per_layer_metric_names_what_it_should_move() {
        let contract = contract();
        assert_eq!(contract.workloads.len(), 4);
        assert_eq!(contract.ladder_rps.len(), 3);
        // Every identifier in a `moves` entry is a metric or a workload
        // of the contract (`-` stands for the harness's own numbers).
        let known = |word: &str| {
            contract.end_to_end.iter().any(|m| m.name == word)
                || contract.workloads.iter().any(|w| w == word)
                || contract.per_layer.iter().any(|m| m.name == word)
        };
        for metric in &contract.per_layer {
            assert!(!metric.moves.is_empty(), "{}: no moves entry", metric.name);
            for word in metric
                .moves
                .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
                .filter(|w| w.contains('_'))
            {
                assert!(known(word), "{}: moves names {word:?}", metric.name);
            }
        }
        let moves = Value::parse(BASELINE_JSON).expect("parses");
        let moves = moves.get("moves").and_then(Value::as_obj).expect("moves");
        for (name, _) in moves.iter() {
            assert!(
                contract.per_layer.iter().any(|m| m.name == *name),
                "moves entry {name} is not a per-layer metric"
            );
        }
    }

    #[test]
    fn readings_name_contract_metrics_and_workloads() {
        let contract = contract();
        for (workload, metric, issue_name) in &contract.readings {
            assert!(contract.workloads.contains(workload), "{workload}");
            assert!(contract.end_to_end.iter().any(|m| m.name == *metric));
            assert!(!issue_name.is_empty());
        }
    }
}

//! Smoke test of the benchmark contract at tiny scale with ~1 s phases:
//! every workload, untraced and traced, must exit 0, report itself
//! correct, and emit exactly the metric names and units `BENCHMARK.json`
//! declares, every end-to-end one above 0.

use crowdnet_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn contract() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list of the contract, in order.
fn declared(contract: &Value, list: &str) -> Vec<(String, String)> {
    contract
        .get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .and_then(Value::as_str)
                    .expect("metric field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one workload from the repository root; returns its result object.
fn run(workload: &str, trace: &str) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_perf-report"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "42",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--tiny",
        ])
        .output()
        .expect("perf-report starts");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    Value::parse(stdout.lines().last().expect("a result line"))
        .expect("the last line is one JSON object")
}

fn emitted(result: &Value) -> Vec<(String, String)> {
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object");
    metrics
        .iter()
        .map(|(name, m)| {
            (
                name.to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let contract = contract();
    let workloads: Vec<String> = contract
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert_eq!(
        workloads,
        [
            "batch_pipeline",
            "serve_mixed",
            "scatter_remote",
            "live_ingest"
        ]
    );
    let end_to_end = declared(&contract, "end_to_end");
    let per_layer = declared(&contract, "per_layer");
    assert!(end_to_end
        .iter()
        .any(|(name, unit)| name == "setup_s" && unit == "s"));

    for workload in &workloads {
        for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
            let result = run(workload, trace);
            let keys: Vec<&str> = result.as_obj().expect("result object").keys().collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{workload} --trace {trace}"
            );
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload} --trace {trace}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result
                .get("attempted")
                .and_then(Value::as_u64)
                .is_some_and(|n| n >= 1));
            assert_eq!(
                &emitted(&result),
                want,
                "{workload} --trace {trace}: names or units differ from BENCHMARK.json"
            );
            if trace == "0" {
                for (name, _) in want {
                    let value = result
                        .path(&format!("metrics.{name}.value"))
                        .and_then(Value::as_f64);
                    assert!(
                        value.is_some_and(|v| v > 0.0),
                        "{workload}: end-to-end metric {name} is {value:?}"
                    );
                }
            }
        }
    }
}

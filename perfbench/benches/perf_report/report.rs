//! What one run hands back: named metrics, operation counts, the failed
//! correctness checks, and the envelope that says where the numbers came
//! from.

use crate::names;
use crowdnet_json::{Object, Value};
use std::collections::BTreeMap;

#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed over the measured phase, failed
    /// correctness checks included (`error_share` = failed ÷ attempted).
    pub attempted: u64,
    pub failed: u64,
    /// What failed, first few.
    pub failures: Vec<String>,
    pub envelope: Object,
}

impl Report {
    /// Record a metric. The name must be one `BENCHMARK.json` declares:
    /// a number nobody declared would never reach the result line.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = names::lookup(name)
            .unwrap_or_else(|| panic!("metric {name} is not in BENCHMARK.json"));
        self.metrics.insert(&def.name, value);
    }

    /// Record a correctness check: one attempted operation, failed unless
    /// `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    pub fn count_ops(&mut self, attempted: u64, failed: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        for f in failures {
            if self.failures.len() < 16 {
                self.failures.push(f.clone());
            }
        }
    }

    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.envelope.insert(key, value.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, with every metric of `defs` and no other.
    pub fn result_line(&self, defs: &[names::MetricDef]) -> String {
        let mut metrics = Object::new();
        for def in defs {
            let mut entry = Object::new();
            entry.insert(
                "value",
                Value::from(self.metrics.get(def.name.as_str()).copied().unwrap_or(0.0)),
            );
            entry.insert("unit", Value::from(def.unit.as_str()));
            metrics.insert(def.name.as_str(), Value::Obj(entry));
        }
        let mut line = Object::new();
        line.insert("correct", Value::Bool(self.correct()));
        line.insert("attempted", Value::from(self.attempted.max(1)));
        line.insert("failed", Value::from(self.failed));
        line.insert("metrics", Value::Obj(metrics));
        Value::Obj(line).to_compact()
    }

    /// Every metric of `defs` by name with its unit, one per line; a
    /// per-layer metric also says what it should move.
    pub fn render(&self, defs: &[names::MetricDef]) -> String {
        let mut out = String::new();
        for def in defs {
            let value = self.metrics.get(def.name.as_str()).copied().unwrap_or(0.0);
            out.push_str(&format!(
                "  {:<44} {:>16.4} {:<6} ({} is better)",
                def.name, value, def.unit, def.better
            ));
            if !def.moves.is_empty() {
                out.push_str(&format!(" -> {}", def.moves));
            }
            out.push('\n');
        }
        out
    }
}

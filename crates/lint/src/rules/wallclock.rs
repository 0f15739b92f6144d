//! `no-wallclock`: simulation and pipeline code must take an injected
//! [`Clock`] rather than reading ambient time or randomness —
//! `Instant::now()`, `SystemTime::now()` and `rand::thread_rng()` make
//! runs irreproducible. The clock module itself (which wraps the system
//! clock behind the trait) is the only sanctioned call site; code that
//! genuinely measures wall time reads it through `SystemClock`.

use crate::{Analysis, Diagnostic};

pub const ID: &str = "no-wallclock";

/// The one file allowed to touch the wall clock directly.
fn exempt(path: &str) -> bool {
    path == "crates/socialsim/src/clock.rs"
}

pub fn check(a: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &a.files {
        if exempt(&f.rel_path) || f.is_test_path() {
            continue;
        }
        for (i, t) in f.tokens.iter().enumerate() {
            let found = if t.is_ident("now") {
                // `Instant::now` / `SystemTime::now` — look back over `::`.
                let qualifier = (i >= 3
                    && f.tokens[i - 1].is_punct(':')
                    && f.tokens[i - 2].is_punct(':'))
                .then(|| f.tokens[i - 3].text.as_str());
                match qualifier {
                    Some("Instant") => Some("Instant::now()"),
                    Some("SystemTime") => Some("SystemTime::now()"),
                    _ => None,
                }
            } else if t.is_ident("thread_rng") {
                Some("rand::thread_rng()")
            } else {
                None
            };
            let Some(what) = found else { continue };
            if f.in_test(t.line) {
                continue;
            }
            out.push(Diagnostic {
                rule: ID,
                file: f.rel_path.clone(),
                line: t.line,
                message: format!("{what} in deterministic code — inject a Clock/seeded Rng instead"),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::testutil::analysis;

    #[test]
    fn flags_all_three_ambient_sources() {
        let a = analysis(&[(
            "crates/crawl/src/x.rs",
            "fn f() { let t = Instant::now(); let s = SystemTime::now(); let r = rand::thread_rng(); }",
        )]);
        let d = check(&a);
        assert_eq!(d.len(), 3);
        assert!(d.iter().all(|d| d.rule == ID));
    }

    #[test]
    fn ingest_crate_is_covered_not_exempt() {
        // The ingest tier timestamps batches via telemetry's injected
        // clock; ambient time there would make epochs irreproducible.
        let a = analysis(&[(
            "crates/ingest/src/engine.rs",
            "fn f() { let t = Instant::now(); }",
        )]);
        assert_eq!(check(&a).len(), 1);
    }

    #[test]
    fn only_the_clock_module_is_exempt() {
        let a = analysis(&[
            (
                "crates/socialsim/src/clock.rs",
                "fn f() { Instant::now(); }",
            ),
            ("crates/bench/src/lib.rs", "fn f() { Instant::now(); }"),
        ]);
        let d = check(&a);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].file, "crates/bench/src/lib.rs");
    }

    #[test]
    fn unqualified_or_differently_qualified_now_is_fine() {
        let a = analysis(&[(
            "crates/x/src/lib.rs",
            "fn f(clock: &dyn Clock) { let t = clock.now(); let u = self.clock.now_ms(); }",
        )]);
        assert!(check(&a).is_empty());
    }
}

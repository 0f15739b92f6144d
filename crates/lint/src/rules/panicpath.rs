//! `panic-on-request-path`: no panic site may be transitively reachable
//! from the serve front end.
//!
//! Roots are every method of `impl Service` in `crates/serve`,
//! `Server::call`, every method of `impl Router` in `crates/shard`, and
//! every method of `impl ShardServer` / `impl RemoteShard` in
//! `crates/shardnet` (the out-of-process leg handler and its client) —
//! the functions a client request enters through. Trait impls count
//! (`impl DataSource for Service` / `for Router` are roots like any
//! inherent method), and the endpoint bodies — free functions generic
//! over `<S: DataSource>` in `serve::router` — are reached from
//! `Service::handle` / `Router::handle` through `router::respond`; their
//! `s.method()` calls fan out to every impl of the bound, in any crate.
//! `/sql`'s column reader is on that path the same way: `sql_endpoint`
//! calls `crowdnet_column::project_runs`, whose per-row closure and the
//! merge walk under it (`merge_partition_fields`, `merge_pick`) are
//! swept like any other callee.
//! From those roots the workspace call graph is swept, and inside every
//! reachable function (any crate) the rule flags:
//!
//! * `.unwrap()` / `.expect(…)` calls,
//! * `panic!` / `todo!` / `unimplemented!` invocations (`unreachable!`
//!   is allowed: it documents an invariant, and rewriting it as an error
//!   return would hide logic bugs), and
//! * direct index expressions `expr[…]` — but only in `crates/serve`,
//!   `crates/shard` and `crates/shardnet` themselves: the graph/dataflow
//!   numeric kernels index dense arrays by construction, while the
//!   handler layers must use checked access on client-controlled ids.
//!
//! The resolver under-approximates (see [`callgraph`](crate::callgraph)),
//! so this is a best-effort reachability argument, not a proof — but it
//! catches exactly the regressions code review misses: a helper three
//! crates away growing an `unwrap` that a request can now hit.

use crate::callgraph::CallGraph;
use crate::parse::EventKind;
use crate::symbols::SymbolTable;
use crate::{Analysis, Diagnostic};

pub const ID: &str = "panic-on-request-path";

/// Panic macros flagged on the request path (`unreachable` excluded).
const FLAGGED_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

pub fn check(a: &Analysis) -> Vec<Diagnostic> {
    let table = SymbolTable::build(a);
    let graph = CallGraph::build(a, &table);

    let mut roots = Vec::new();
    for id in 0..table.fns.len() {
        let info = &table.fns[id];
        if a.files[info.file].is_test_path() {
            continue;
        }
        let decl = table.decl(id);
        let is_endpoint = match info.krate.as_str() {
            "serve" => {
                decl.impl_type.as_deref() == Some("Service")
                    || (decl.impl_type.as_deref() == Some("Server") && decl.name == "call")
            }
            "shard" => decl.impl_type.as_deref() == Some("Router"),
            "shardnet" => matches!(
                decl.impl_type.as_deref(),
                Some("ShardServer") | Some("RemoteShard")
            ),
            _ => false,
        };
        if is_endpoint {
            roots.push(id);
        }
    }
    if roots.is_empty() {
        return Vec::new(); // nothing serves requests in this workspace
    }

    let reach = graph.reachable(&roots);
    let mut out = Vec::new();
    for id in 0..table.fns.len() {
        if !reach.seen[id] {
            continue;
        }
        let info = &table.fns[id];
        let file = &a.files[info.file];
        if file.is_test_path() {
            continue;
        }
        let decl = table.decl(id);
        for ev in &decl.events {
            if file.in_test(ev.line) {
                continue;
            }
            let what = match &ev.kind {
                EventKind::Method { name, .. } if name == "unwrap" || name == "expect" => {
                    format!(".{name}()")
                }
                EventKind::PanicMacro { name } if FLAGGED_MACROS.contains(&name.as_str()) => {
                    format!("{name}!")
                }
                EventKind::Index
                    if info.krate == "serve"
                        || info.krate == "shard"
                        || info.krate == "shardnet" =>
                {
                    "direct indexing".to_string()
                }
                _ => continue,
            };
            out.push(Diagnostic {
                rule: ID,
                file: file.rel_path.clone(),
                line: ev.line,
                message: format!(
                    "{what} reachable from a request handler via {}",
                    reach.chain(&table, id)
                ),
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
    fn unwrap_in_a_transitively_called_helper_is_flagged() {
        let a = analysis(&[
            (
                "crates/serve/src/service.rs",
                "impl Service { pub fn handle(&self) { router::respond(self); } }\n",
            ),
            (
                "crates/serve/src/router.rs",
                "pub fn respond(s: &Service) { helper(); }\nfn helper() { v.unwrap(); }\n",
            ),
        ]);
        let d = check(&a);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "crates/serve/src/router.rs");
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("Service::handle"), "{}", d[0].message);
    }

    #[test]
    fn generic_endpoint_bodies_and_both_trait_impls_are_swept() {
        // The merged endpoint table's shape: root method → generic free
        // fn → trait-method fan-out → one impl per crate.
        let a = analysis(&[
            (
                "crates/serve/src/service.rs",
                "impl Service { pub fn handle(&self) { router::respond(self); } }\n\
                 impl DataSource for Service { fn scan(&self) { self.store.scan(); } }\n",
            ),
            (
                "crates/serve/src/router.rs",
                "pub fn respond<S: DataSource>(s: &S) { stats(s); }\n\
                 fn stats<S: DataSource>(s: &S) { s.scan(); v.unwrap(); }\n",
            ),
            (
                "crates/shard/src/router.rs",
                "impl DataSource for Router {\n    fn scan(&self) { legs.unwrap(); }\n}\n",
            ),
        ]);
        let d = check(&a);
        assert_eq!(d.len(), 2, "{d:?}");
        let generic = d
            .iter()
            .find(|d| d.file == "crates/serve/src/router.rs")
            .expect("unwrap in the generic endpoint body");
        assert_eq!(generic.line, 2);
        let chain = "Service::handle → respond → stats";
        assert!(generic.message.contains(chain), "{}", generic.message);
        let second_impl = d
            .iter()
            .find(|d| d.file == "crates/shard/src/router.rs")
            .expect("unwrap in the second crate's impl");
        assert_eq!(second_impl.line, 2);
        let message = &second_impl.message;
        assert!(message.contains("Router::scan"), "{message}");
    }

    #[test]
    fn trait_fan_out_reaches_impls_that_are_not_roots_themselves() {
        let a = analysis(&[
            (
                "crates/serve/src/service.rs",
                "impl Service { pub fn handle(&self) { router::respond(self); } }\n",
            ),
            (
                "crates/serve/src/router.rs",
                "pub fn respond<S: DataSource>(s: &S) { s.scan(); }\n",
            ),
            (
                "crates/ingest/src/live.rs",
                "impl DataSource for LiveView { fn scan(&self) { v.unwrap(); } }\n",
            ),
        ]);
        let d = check(&a);
        assert_eq!(d.len(), 1, "{d:?}");
        let chain = "Service::handle → respond → LiveView::scan";
        assert!(d[0].message.contains(chain), "{}", d[0].message);
    }

    #[test]
    fn the_projected_column_reader_is_on_the_request_path() {
        // `/sql`'s read path: generic endpoint body → a free function
        // imported from another crate → a per-row closure handed to the
        // merge walk → the merge's run picker.
        let a = analysis(&[
            (
                "crates/serve/src/service.rs",
                "impl Service { pub fn handle(&self) { router::respond(self); } }\n",
            ),
            (
                "crates/serve/src/router.rs",
                "use crowdnet_column::project_runs;\n\
                 pub fn respond<S: DataSource>(s: &S) { sql_endpoint(s); }\n\
                 fn sql_endpoint<S: DataSource>(s: &S) { project_runs(&s.scan_runs(), &fields); }\n",
            ),
            (
                "crates/column/src/catalog.rs",
                "pub fn project_runs(parts: &[Runs], fields: &[&str]) {\n\
                 merge_partition_fields(parts, fields, &mut |_key, values| {\n\
                 rows.push(values.first().unwrap());\n\
                 });\n\
                 }\n\
                 fn merge_partition_fields<F>(runs: &Runs, fields: &[&str], f: &mut F) {\n\
                 while let Some(b) = merge_pick(runs, &rows) { f(key, &mut row_buf); }\n\
                 }\n\
                 fn merge_pick(runs: &Runs, rows: &[usize]) -> Option<usize> {\n\
                 rows.first().unwrap();\n\
                 }\n",
            ),
        ]);
        let d = check(&a);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.file == "crates/column/src/catalog.rs"));
        let row_closure = d.iter().find(|d| d.line == 3).expect("unwrap in the row closure");
        let chain = "Service::handle → respond → sql_endpoint → project_runs";
        assert!(row_closure.message.contains(chain), "{}", row_closure.message);
        let picker = d.iter().find(|d| d.line == 10).expect("unwrap in merge_pick");
        let chain = "project_runs → merge_partition_fields → merge_pick";
        assert!(picker.message.contains(chain), "{}", picker.message);
    }

    #[test]
    fn panics_off_the_request_path_are_ignored() {
        let a = analysis(&[(
            "crates/serve/src/service.rs",
            "impl Service { pub fn handle(&self) { ok(); } }\n\
             fn ok() {}\n\
             fn cold_start() { v.unwrap(); panic!(\"boot\"); }\n",
        )]);
        assert!(check(&a).is_empty());
    }

    #[test]
    fn indexing_flagged_in_serve_but_not_in_kernels() {
        let a = analysis(&[
            (
                "crates/serve/src/service.rs",
                "impl Service { pub fn handle(&self) { let x = scores[i]; crowdnet_graph::rank(); } }\n",
            ),
            (
                "crates/graph/src/lib.rs",
                "pub fn rank() { let y = dense[j]; }\n",
            ),
        ]);
        let d = check(&a);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "crates/serve/src/service.rs");
    }

    #[test]
    fn unreachable_macro_is_allowed_on_the_path() {
        let a = analysis(&[(
            "crates/serve/src/service.rs",
            "impl Service { pub fn handle(&self) { unreachable!(\"covered above\"); } }\n",
        )]);
        assert!(check(&a).is_empty());
    }

    #[test]
    fn shard_router_methods_are_roots() {
        let a = analysis(&[
            (
                "crates/shard/src/router.rs",
                "impl Router { pub fn handle(&self) { let x = shards[i]; merge(); } }\n\
                 fn merge() { v.unwrap(); }\n",
            ),
            (
                "crates/shard/src/set.rs",
                "impl ShardSet { pub fn offline(&self) { y.unwrap(); } }\n",
            ),
        ]);
        let d = check(&a);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.message.contains("direct indexing")));
        assert!(d.iter().any(|d| d.message.contains(".unwrap()")));
        assert!(
            d.iter().all(|d| d.file == "crates/shard/src/router.rs"),
            "ShardSet write path is not a request root: {d:?}"
        );
    }

    #[test]
    fn shardnet_server_and_client_methods_are_roots() {
        let a = analysis(&[(
            "crates/shardnet/src/server.rs",
            "impl ShardServer { pub fn handle(&self) { let x = legs[i]; } }\n\
             impl RemoteShard { pub fn epoch_meta(&self) { v.unwrap(); } }\n\
             impl Pool { pub fn take(&self) { y.unwrap(); } }\n",
        )]);
        let d = check(&a);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.message.contains("direct indexing")));
        assert!(
            d.iter().all(|d| !d.message.contains("Pool::take")),
            "pool internals are only flagged when reachable from a leg: {d:?}"
        );
    }

    #[test]
    fn server_call_is_a_root() {
        let a = analysis(&[(
            "crates/serve/src/server.rs",
            "impl Server { pub fn call(&self) { self.dispatch(); } fn dispatch(&self) { x.expect(\"live\"); } }\n",
        )]);
        let d = check(&a);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains(".expect()"));
    }
}

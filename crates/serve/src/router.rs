//! The endpoint table: the one place in the workspace that parses a
//! path, validates parameters, maps errors to statuses and builds a
//! response envelope.
//!
//! | Endpoint | Answers |
//! |---|---|
//! | `GET /healthz` | liveness + cache occupancy (uncached) |
//! | `GET /stats` | per-namespace store stats, reconciling with `Store::stats` |
//! | `GET /entity/{company\|user}/{id}` | the crawled document body |
//! | `GET /investor/{id}/portfolio` | companies, degree, PageRank |
//! | `GET /investor/{id}/communities` | community membership |
//! | `GET /company/{id}/investors` | inbound investor neighbors |
//! | `GET /communities` | cover summary with both strength metrics |
//! | `GET /communities/{id}` | one community, members + metrics |
//! | `GET /top/investors?by=degree\|pagerank&k=N` | ranked investors |
//! | `GET\|POST /sql?ns=…&q=…` | ad-hoc SQL over the projected column runs |
//!
//! Every endpoint is a free function generic over [`DataSource`], the
//! handful of data accesses that differ between an unsharded
//! [`Service`](crate::Service) and `crowdnet-shard`'s scatter-gather
//! `Router`. Both enter through [`respond`] — cache probe, span, route,
//! render, cache put, latency — so a new endpoint is one function and one
//! `match` arm, answered byte-identically by every tier.
//!
//! A source that could not reach all of its data says so by recording
//! the missing shards in [`QueryCtx::degraded`]. The table turns a
//! non-empty set into the degraded contract: `"partial": true` plus
//! `"degraded_shards"` on the envelope, `"body": null` / bare `{"id": …}`
//! envelopes where a 404 cannot be told from a gap, and no cache put.
//! An unsharded service never records any, so it never degrades.

use crate::artifacts::{Artifacts, NS_USERS};
use crate::cache::ResultCache;
use crate::error::ServeError;
use crate::http::{parse_query, Request, Response};
use crate::service::ServiceConfig;
use crowdnet_column::{project_runs, ColumnRun};
use crowdnet_dataflow::{sql, Dataset, ExecCtx};
use crowdnet_graph::BipartiteGraph;
use crowdnet_json::{obj, Value};
use crowdnet_store::store::NamespaceStats;
use crowdnet_telemetry::{Counter, Histogram, Telemetry};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Per-request state shared between the table and its data source.
#[derive(Debug, Default)]
pub struct QueryCtx {
    /// Clock reading after which a source stops starting new fan-out legs
    /// (request start + the `x-deadline-ms` header); `None` = no budget.
    pub deadline_at: Option<u64>,
    /// Shards that could not contribute to this response (down,
    /// recovering, past the budget, or reply lost).
    pub degraded: BTreeSet<usize>,
}

/// The data accesses behind the endpoint table — everything that differs
/// between answering from one store and answering from N shards.
pub trait DataSource {
    /// `(cache epoch, key suffix)` for this request, or `None` while the
    /// result cache must not participate.
    fn cache_scope(&self) -> Option<(u64, &'static str)>;
    /// True while the tier flags itself degraded (`/healthz`, `/stats`).
    fn tier_degraded(&self) -> bool;
    /// The live content version `/healthz` reports.
    fn live_version(&self) -> u64;
    /// An extra `/healthz` field, placed before the cache block.
    fn health_detail(&self) -> Option<(&'static str, Value)>;
    /// The artifacts requests answer from right now.
    fn current_artifacts(&self, ctx: &mut QueryCtx) -> Result<Arc<Artifacts>, ServeError>;
    /// Per-namespace stats and the version they are consistent at.
    fn namespace_stats(&self, ctx: &mut QueryCtx)
        -> Result<(Vec<NamespaceStats>, u64), ServeError>;
    /// The document stored under `"{kind}:{id}"`, if any.
    fn entity_body(
        &self,
        ctx: &mut QueryCtx,
        kind: &str,
        id: u32,
    ) -> Result<Option<Value>, ServeError>;
    /// Company ids investor `id` holds (`None` = unknown investor).
    fn investor_companies(
        &self,
        ctx: &mut QueryCtx,
        id: u32,
    ) -> Result<Option<Vec<u32>>, ServeError>;
    /// Investor ids of company `id` (`None` = unknown company).
    fn company_investors(
        &self,
        ctx: &mut QueryCtx,
        id: u32,
    ) -> Result<Option<Vec<u32>>, ServeError>;
    /// The `k` highest-degree investors, ranked like [`rank_investors`].
    fn top_by_degree(&self, ctx: &mut QueryCtx, k: usize) -> Result<Vec<(u32, f64)>, ServeError>;
    /// The sealed column runs of `ns` at snapshot 0, `[partition][run]`:
    /// merging each partition's runs by `(key, run index)` yields the
    /// canonical partition scan.
    fn scan_runs(
        &self,
        ctx: &mut QueryCtx,
        ns: &str,
    ) -> Result<Vec<Vec<Arc<ColumnRun>>>, ServeError>;
}

/// What a serving tier owns around its data source: the knobs, the
/// result cache and the request metrics.
pub struct Surface {
    cfg: ServiceConfig,
    telemetry: Telemetry,
    cache: ResultCache,
    requests: Counter,
    latency: Histogram,
    span_prefix: &'static str,
}

impl Surface {
    /// `requests` counts every call to [`respond`]; endpoint spans are
    /// named `{span_prefix}.{first path segment}`.
    pub fn new(
        cfg: ServiceConfig,
        telemetry: Telemetry,
        requests: Counter,
        span_prefix: &'static str,
    ) -> Surface {
        Surface {
            cache: ResultCache::new(&cfg.cache, &telemetry),
            latency: telemetry.histogram("serve.latency_ms"),
            cfg,
            telemetry,
            requests,
            span_prefix,
        }
    }

    /// The serving knobs.
    pub fn cfg(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The telemetry handle every request reports into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

/// Serve one request end to end against `source`. Never panics; every
/// failure is a status-coded JSON response. `ctx` is the caller's so it
/// can see afterwards which shards the response went without.
pub fn respond<S: DataSource>(
    surface: &Surface,
    source: &S,
    ctx: &mut QueryCtx,
    req: &Request,
) -> Response {
    surface.requests.inc();
    let started = surface.telemetry.now_ms();
    // Health checks bypass the cache (they report live occupancy).
    let cached = source
        .cache_scope()
        .filter(|_| req.method == "GET" && req.path() != "/healthz")
        .map(|(epoch, suffix)| (format!("{} {}{suffix}", req.method, req.target), epoch));
    if let Some((key, epoch)) = &cached {
        if let Some(hit) = surface.cache.get(key, *epoch) {
            surface.latency.record(surface.telemetry.now_ms() - started);
            return hit;
        }
    }
    ctx.deadline_at = req
        .header("x-deadline-ms")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|ms| started.saturating_add(ms));
    let result = {
        let _span = surface.telemetry.span(&format!(
            "{}.{}",
            surface.span_prefix,
            endpoint_name(req.path())
        ));
        route(surface, source, ctx, req)
    };
    let response = match result {
        Ok(mut value) => {
            if !ctx.degraded.is_empty() {
                if let Some(o) = value.as_obj_mut() {
                    o.insert("partial", Value::Bool(true));
                    let shards = ctx.degraded.iter().map(|&i| Value::from(i as u64));
                    o.insert("degraded_shards", Value::Arr(shards.collect()));
                }
            }
            Response::json(200, &value)
        }
        Err(e) => error_response(&e),
    };
    // A partial answer reflects whichever shards were up: never cached.
    if let Some((key, epoch)) = cached {
        if response.status == 200 && ctx.degraded.is_empty() {
            surface.cache.put(&key, epoch, response.clone());
        }
    }
    surface.latency.record(surface.telemetry.now_ms() - started);
    response
}

/// Render a [`ServeError`] with its status and (for 503s) a `Retry-After`.
pub fn error_response(e: &ServeError) -> Response {
    let resp = Response::error(e.status(), &e.to_string());
    match e {
        ServeError::Shed { retry_after_secs } => {
            resp.with_header("Retry-After", &retry_after_secs.to_string())
        }
        ServeError::DeadlineExceeded { .. } | ServeError::ShuttingDown => {
            resp.with_header("Retry-After", "1")
        }
        _ => resp,
    }
}

/// One representative target per endpoint, with real ids from the
/// source's current artifacts — the smoke-test surface used by
/// `check.sh` and `repro serve --smoke`.
pub fn example_targets<S: DataSource>(source: &S) -> Result<Vec<String>, ServeError> {
    let artifacts = source.current_artifacts(&mut QueryCtx::default())?;
    let mut targets = vec!["/healthz".to_string(), "/stats".to_string()];
    if artifacts.graph.investor_count() > 0 {
        let inv = artifacts.graph.investor_id(0);
        let com = artifacts.graph.company_id(0);
        targets.push(format!("/entity/user/{inv}"));
        targets.push(format!("/entity/company/{com}"));
        targets.push(format!("/investor/{inv}/portfolio"));
        targets.push(format!("/investor/{inv}/communities"));
        targets.push(format!("/company/{com}/investors"));
    }
    targets.push("/communities".to_string());
    if !artifacts.cover.is_empty() {
        targets.push("/communities/0".to_string());
    }
    targets.push("/top/investors?by=degree&k=5".to_string());
    targets.push("/top/investors?by=pagerank&k=5".to_string());
    targets.push(format!(
        "/sql?ns={}&q=SELECT+COUNT(*)+AS+n+FROM+docs",
        NS_USERS.replace('/', "%2F")
    ));
    Ok(targets)
}

/// Pair each investor of `graph` with its index-aligned score and keep
/// the top `k`, descending, ties broken by ascending id so the ranking is
/// deterministic.
pub fn rank_investors(
    graph: &BipartiteGraph,
    scores: impl IntoIterator<Item = f64>,
    k: usize,
) -> Vec<(u32, f64)> {
    let mut ranked: Vec<(u32, f64)> = scores
        .into_iter()
        .enumerate()
        .map(|(i, s)| (graph.investor_id(i as u32), s))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

/// First path segment, for span naming (`serve.stats`, `shard.sql`, …).
fn endpoint_name(path: &str) -> &str {
    let trimmed = path.trim_start_matches('/');
    let seg = trimmed.split('/').next().unwrap_or_default();
    if seg.is_empty() {
        "root"
    } else {
        seg
    }
}

fn route<S: DataSource>(
    surface: &Surface,
    s: &S,
    ctx: &mut QueryCtx,
    req: &Request,
) -> Result<Value, ServeError> {
    let path = req.path().to_string();
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let is_sql_post = req.method == "POST" && segs.as_slice() == ["sql"];
    if req.method != "GET" && !is_sql_post {
        return Err(ServeError::MethodNotAllowed(format!(
            "{} {}",
            req.method, path
        )));
    }
    match segs.as_slice() {
        ["healthz"] => healthz(surface, s),
        ["stats"] => stats(s, ctx),
        ["entity", kind, id] => entity(s, ctx, kind, parse_id(id)?),
        ["investor", id, "portfolio"] => portfolio(s, ctx, parse_id(id)?),
        ["investor", id, "communities"] => investor_communities(s, ctx, parse_id(id)?),
        ["company", id, "investors"] => company_investors(s, ctx, parse_id(id)?),
        ["communities"] => communities(s, ctx),
        ["communities", id] => community(s, ctx, id),
        ["top", "investors"] => top_investors(s, ctx, req),
        ["sql"] => sql_endpoint(surface, s, ctx, req),
        _ => Err(ServeError::NotFound(path)),
    }
}

fn parse_id(s: &str) -> Result<u32, ServeError> {
    s.parse::<u32>()
        .map_err(|_| ServeError::BadRequest(format!("bad id: {s:?}")))
}

/// First query parameter named `name`, percent-decoded.
fn param(req: &Request, name: &str) -> Option<String> {
    parse_query(req.query().unwrap_or_default())
        .into_iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
}

/// A lookup that found nothing: a 404 when every shard answered; when one
/// could not, the id alone (the miss may be the gap, not the data).
fn missing(ctx: &QueryCtx, what: &str, id: u32) -> Result<Value, ServeError> {
    if ctx.degraded.is_empty() {
        Err(ServeError::NotFound(format!("{what} {id}")))
    } else {
        Ok(obj! {"id" => u64::from(id)})
    }
}

fn healthz<S: DataSource>(surface: &Surface, s: &S) -> Result<Value, ServeError> {
    let cache = surface.cache.stats();
    let mut health = obj! {
        "ok" => true,
        "degraded" => s.tier_degraded(),
        "version" => s.live_version(),
    };
    if let Some(o) = health.as_obj_mut() {
        if let Some((name, detail)) = s.health_detail() {
            o.insert(name, detail);
        }
        o.insert(
            "cache",
            obj! {
                "entries" => cache.entries,
                "bytes" => cache.bytes,
                "capacity_bytes" => cache.capacity_bytes,
            },
        );
    }
    Ok(health)
}

fn stats<S: DataSource>(s: &S, ctx: &mut QueryCtx) -> Result<Value, ServeError> {
    let (stats, version) = s.namespace_stats(ctx)?;
    let namespaces = stats
        .iter()
        .map(|n| {
            obj! {
                "namespace" => n.namespace.as_str(),
                "documents" => n.documents,
                "encoded_bytes" => n.encoded_bytes,
                "snapshots" => n.snapshots,
            }
        })
        .collect();
    Ok(obj! {
        "version" => version,
        "namespaces" => Value::Arr(namespaces),
        "degraded" => s.tier_degraded() || !ctx.degraded.is_empty(),
    })
}

fn entity<S: DataSource>(
    s: &S,
    ctx: &mut QueryCtx,
    kind: &str,
    id: u32,
) -> Result<Value, ServeError> {
    if kind != "company" && kind != "user" {
        return Err(ServeError::BadRequest(format!(
            "unknown entity kind: {kind:?} (company|user)"
        )));
    }
    let body = match s.entity_body(ctx, kind, id)? {
        Some(body) => body,
        None if ctx.degraded.is_empty() => {
            return Err(ServeError::NotFound(format!("{kind}:{id}")))
        }
        // The owner is out: a null body instead of guessing between 404
        // and 500.
        None => Value::Null,
    };
    Ok(obj! {"kind" => kind, "id" => u64::from(id), "body" => body})
}

fn portfolio<S: DataSource>(s: &S, ctx: &mut QueryCtx, id: u32) -> Result<Value, ServeError> {
    let artifacts = s.current_artifacts(ctx)?;
    let Some(mut ids) = s.investor_companies(ctx, id)? else {
        return missing(ctx, "investor", id);
    };
    // Sorted by id so the listing is canonical regardless of dense-index
    // assignment order (and therefore identical under sharding).
    ids.sort_unstable();
    let pagerank = artifacts
        .investor_index(id)
        .and_then(|i| artifacts.pagerank.get(i as usize).copied())
        .unwrap_or(0.0);
    Ok(obj! {
        "id" => u64::from(id),
        "degree" => ids.len(),
        "pagerank" => pagerank,
        "companies" => ids,
    })
}

fn investor_communities<S: DataSource>(
    s: &S,
    ctx: &mut QueryCtx,
    id: u32,
) -> Result<Value, ServeError> {
    let artifacts = s.current_artifacts(ctx)?;
    if artifacts.investor_index(id).is_none() {
        return Err(ServeError::NotFound(format!("investor {id}")));
    }
    let (filtered, communities) = match artifacts.investor_membership(id) {
        Some((_, cids)) => (true, cids.to_vec()),
        None => (false, Vec::new()),
    };
    Ok(obj! {
        "id" => u64::from(id),
        // Investors below the >=k cleaning threshold carry no communities.
        "in_filtered_graph" => filtered,
        "communities" => Value::Arr(communities.into_iter().map(Value::from).collect()),
    })
}

fn company_investors<S: DataSource>(
    s: &S,
    ctx: &mut QueryCtx,
    id: u32,
) -> Result<Value, ServeError> {
    let Some(mut ids) = s.company_investors(ctx, id)? else {
        return missing(ctx, "company", id);
    };
    // Sorted by id: canonical independent of dense-index assignment order.
    ids.sort_unstable();
    Ok(obj! {
        "id" => u64::from(id),
        "degree" => ids.len(),
        "investors" => ids,
    })
}

fn community_summary(artifacts: &Artifacts, id: usize) -> Option<Value> {
    let s = artifacts.communities.get(id)?;
    Some(obj! {
        "id" => s.id,
        "size" => s.size,
        "avg_shared_investment" => s.avg_shared_investment,
        "shared_investor_pct" => s.shared_investor_pct,
    })
}

fn communities<S: DataSource>(s: &S, ctx: &mut QueryCtx) -> Result<Value, ServeError> {
    let artifacts = s.current_artifacts(ctx)?;
    let list = (0..artifacts.communities.len())
        .filter_map(|i| community_summary(&artifacts, i))
        .collect();
    Ok(obj! {
        "count" => artifacts.communities.len(),
        "filtered_investors" => artifacts.filtered.investor_count(),
        "communities" => Value::Arr(list),
    })
}

fn community<S: DataSource>(s: &S, ctx: &mut QueryCtx, raw_id: &str) -> Result<Value, ServeError> {
    let id = raw_id
        .parse::<usize>()
        .map_err(|_| ServeError::BadRequest(format!("bad community id: {raw_id:?}")))?;
    let artifacts = s.current_artifacts(ctx)?;
    let (_, members) = artifacts
        .community(id)
        .ok_or_else(|| ServeError::NotFound(format!("community {id}")))?;
    let mut summary = community_summary(&artifacts, id)
        .ok_or_else(|| ServeError::NotFound(format!("community {id}")))?;
    if let Some(o) = summary.as_obj_mut() {
        o.insert("members", Value::from(members));
    }
    Ok(summary)
}

fn top_investors<S: DataSource>(
    s: &S,
    ctx: &mut QueryCtx,
    req: &Request,
) -> Result<Value, ServeError> {
    let by = param(req, "by").unwrap_or_else(|| "degree".into());
    let k = match param(req, "k") {
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| ServeError::BadRequest(format!("bad k: {raw:?}")))?,
        None => 10,
    };
    let ranked = match by.as_str() {
        "degree" => s.top_by_degree(ctx, k)?,
        // PageRank is a whole-graph score: always ranked from the
        // source's (global) artifacts.
        "pagerank" => {
            let artifacts = s.current_artifacts(ctx)?;
            rank_investors(&artifacts.graph, artifacts.pagerank.iter().copied(), k)
        }
        other => {
            return Err(ServeError::BadRequest(format!(
                "unknown ranking: {other:?} (degree|pagerank)"
            )))
        }
    };
    let rows = ranked
        .into_iter()
        .map(|(id, score)| obj! {"id" => u64::from(id), "score" => score})
        .collect();
    Ok(obj! {"by" => by, "k" => k, "investors" => Value::Arr(rows)})
}

fn sql_endpoint<S: DataSource>(
    surface: &Surface,
    s: &S,
    ctx: &mut QueryCtx,
    req: &Request,
) -> Result<Value, ServeError> {
    let ns = param(req, "ns")
        .ok_or_else(|| ServeError::BadRequest("missing ?ns= namespace".into()))?;
    // Parse first: a bad query costs no scan, and the parsed query names
    // the only top-level fields execution can read, so the scan decodes
    // just those columns instead of whole documents.
    let from_param;
    let text = if req.method == "POST" && !req.body.is_empty() {
        std::str::from_utf8(&req.body)
            .map_err(|_| ServeError::BadRequest("sql body is not utf-8".into()))?
    } else {
        from_param = param(req, "q")
            .ok_or_else(|| ServeError::BadRequest("missing ?q= query".into()))?;
        &from_param
    };
    let query = sql::parse_query(text)?;
    let rows = project_runs(&s.scan_runs(ctx, &ns)?, &query.referenced_fields())?;
    // On this worker's own thread: the server's worker pool is the serving
    // tier's parallelism, and a scan of a few milliseconds that fanned
    // every stage out again would only take cores from the lookups
    // running beside it.
    let table = sql::execute(&query, Dataset::from_partitions(rows, ExecCtx::serial()))?;
    let total = table.rows.len();
    let limit = surface.cfg.sql_row_limit;
    let rows = table
        .rows
        .into_iter()
        .take(limit)
        .map(Value::Arr)
        .collect();
    Ok(obj! {
        "columns" => Value::Arr(table.columns.into_iter().map(Value::from).collect()),
        "rows" => Value::Arr(rows),
        "row_count" => total,
        "truncated" => total > limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::seeded_service;
    use crate::Service;

    fn get(svc: &Service, target: &str) -> (u16, Value) {
        let resp = svc.handle(&Request::get(target));
        let body = std::str::from_utf8(&resp.body).unwrap();
        (resp.status, Value::parse(body).unwrap())
    }

    #[test]
    fn stats_reconciles_with_store() {
        let svc = seeded_service();
        let (status, v) = get(&svc, "/stats");
        assert_eq!(status, 200);
        let direct = svc.store().stats().unwrap();
        let served = v.get("namespaces").and_then(Value::as_arr).unwrap();
        assert_eq!(served.len(), direct.len());
        for (s, d) in served.iter().zip(&direct) {
            assert_eq!(s.get("namespace").and_then(Value::as_str), Some(d.namespace.as_str()));
            assert_eq!(
                s.get("documents").and_then(Value::as_u64),
                Some(d.documents as u64)
            );
            assert_eq!(
                s.get("encoded_bytes").and_then(Value::as_u64),
                Some(d.encoded_bytes as u64)
            );
        }
    }

    #[test]
    fn entity_lookup_hits_and_misses() {
        let svc = seeded_service();
        let (status, v) = get(&svc, "/entity/company/1");
        assert_eq!(status, 200);
        assert_eq!(
            v.get("body").and_then(|b| b.get("name")).and_then(Value::as_str),
            Some("c1")
        );
        assert_eq!(get(&svc, "/entity/company/999").0, 404);
        assert_eq!(get(&svc, "/entity/planet/1").0, 400);
        assert_eq!(get(&svc, "/entity/company/xyz").0, 400);
    }

    #[test]
    fn neighbor_queries_are_mutually_consistent() {
        let svc = seeded_service();
        let (_, portfolio) = get(&svc, "/investor/10/portfolio");
        let companies = portfolio.get("companies").and_then(Value::as_arr).unwrap();
        assert_eq!(companies.len(), 4);
        for c in companies {
            let cid = c.as_u64().unwrap();
            let (_, investors) = get(&svc, &format!("/company/{cid}/investors"));
            let ids: Vec<u64> = investors
                .get("investors")
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .filter_map(Value::as_u64)
                .collect();
            assert!(ids.contains(&10), "company {cid} lost investor 10");
        }
        assert_eq!(get(&svc, "/investor/9999/portfolio").0, 404);
    }

    #[test]
    fn communities_listing_and_membership() {
        let svc = seeded_service();
        let (status, v) = get(&svc, "/communities");
        assert_eq!(status, 200);
        let count = v.get("count").and_then(Value::as_u64).unwrap();
        if count > 0 {
            let (s2, one) = get(&svc, "/communities/0");
            assert_eq!(s2, 200);
            assert!(one.get("members").and_then(Value::as_arr).is_some());
        }
        assert_eq!(get(&svc, &format!("/communities/{}", count + 10)).0, 404);
        let (s3, m) = get(&svc, "/investor/10/communities");
        assert_eq!(s3, 200);
        assert_eq!(m.get("in_filtered_graph"), Some(&Value::Bool(true)));
    }

    #[test]
    fn top_investors_rankings() {
        let svc = seeded_service();
        let (status, v) = get(&svc, "/top/investors?by=degree&k=2");
        assert_eq!(status, 200);
        let rows = v.get("investors").and_then(Value::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        // All three investors have degree 4; ties break by id.
        assert_eq!(rows[0].get("id").and_then(Value::as_u64), Some(10));
        assert_eq!(rows[1].get("id").and_then(Value::as_u64), Some(11));
        assert_eq!(get(&svc, "/top/investors?by=pagerank&k=3").0, 200);
        assert_eq!(get(&svc, "/top/investors?by=fame").0, 400);
        assert_eq!(get(&svc, "/top/investors?k=nope").0, 400);
    }

    #[test]
    fn sql_get_and_post_agree() {
        let svc = seeded_service();
        let (status, v) = get(
            &svc,
            "/sql?ns=angellist%2Fusers&q=SELECT+COUNT(*)+AS+n+FROM+docs",
        );
        assert_eq!(status, 200);
        assert_eq!(v.get("rows").and_then(Value::as_arr).unwrap().len(), 1);
        let post = svc.handle(&Request {
            method: "POST".into(),
            target: "/sql?ns=angellist%2Fusers".into(),
            version: "HTTP/1.1".into(),
            headers: Vec::new(),
            body: b"SELECT COUNT(*) AS n FROM docs".to_vec(),
        });
        assert_eq!(post.status, 200);
        assert_eq!(post.body, svc.handle(&Request::get(
            "/sql?ns=angellist%2Fusers&q=SELECT+COUNT(*)+AS+n+FROM+docs",
        )).body);
        // Errors map to statuses.
        assert_eq!(get(&svc, "/sql?q=SELECT+1").0, 400); // missing ns
        assert_eq!(get(&svc, "/sql?ns=angellist%2Fusers").0, 400); // missing q
        assert_eq!(get(&svc, "/sql?ns=ghost&q=SELECT+COUNT(*)+FROM+docs").0, 404);
        assert_eq!(get(&svc, "/sql?ns=angellist%2Fusers&q=NOT+SQL").0, 400);
    }

    #[test]
    fn unknown_routes_and_methods() {
        let svc = seeded_service();
        assert_eq!(get(&svc, "/nope").0, 404);
        assert_eq!(get(&svc, "/").0, 404);
        let resp = svc.handle(&Request {
            method: "DELETE".into(),
            target: "/stats".into(),
            version: "HTTP/1.1".into(),
            headers: Vec::new(),
            body: Vec::new(),
        });
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn shed_errors_carry_retry_after() {
        let resp = error_response(&ServeError::Shed { retry_after_secs: 3 });
        assert_eq!(resp.status, 503);
        assert!(resp
            .headers
            .iter()
            .any(|(k, v)| k == "Retry-After" && v == "3"));
    }
}

//! The `/sql` projection panel: seeded random corpora and queries drawn
//! from the SQL grammar, with the JSON-scan oracle every serving tier's
//! projected column scan must match byte for byte. Shared by
//! `tests/serving_surface.rs` (unsharded and local shards) and the
//! integration suite's `shardnet_equivalence.rs` (remote shards).

use crowdnet_dataflow::{sql, Dataset, ExecCtx};
use crowdnet_json::{obj, Object, Value};
use crowdnet_serve::{Request, Response, ServeError};
use crowdnet_store::{Document, SnapshotId, Store};
use rand::rngs::StdRng;
use rand::Rng;

/// The namespace the panel writes and queries.
pub const NS: &str = "journal/mixed";

/// Rows `ServiceConfig::default()` returns before truncating.
const ROW_LIMIT: usize = 1000;

/// Keys the corpus draws from: fewer than it writes, so later batches
/// re-append keys of earlier ones.
const KEYS: u32 = 40;

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.random_range(0..options.len())]
}

/// An int, a uint past `i64::MAX`, a float, a numeric-looking string, an
/// explicit null or (`None`) no field at all.
fn mixed_number(rng: &mut StdRng) -> Option<Value> {
    Some(match rng.random_range(0..8u32) {
        0 => return None,
        1 => Value::Null,
        2 => Value::from(u64::MAX - rng.random_range(0..5u64)),
        3 | 4 => Value::from(rng.random_range(-20..20i64)),
        5 => Value::from("7"),
        _ => Value::from(rng.random_range(-40..40i64) as f64 / 4.0),
    })
}

fn body(rng: &mut StdRng) -> Value {
    match rng.random_range(0..12u32) {
        0 => return Value::from("not an object"),
        1 => return Value::Arr(vec![Value::from(1u64), Value::Null]),
        2 => return Value::Null,
        _ => {}
    }
    let mut o = Object::new();
    if let Some(n) = mixed_number(rng) {
        o.insert("n", n);
    }
    // Tenths: sums of these round differently in different orders.
    if rng.random_bool(0.8) {
        o.insert("f", rng.random_range(1..1000u64) as f64 / 10.0);
    }
    match rng.random_range(0..6u32) {
        0 => {}
        1 => drop(o.insert("g", Value::Null)),
        2 => drop(o.insert("g", rng.random_bool(0.5))),
        _ => drop(o.insert("g", pick(rng, &["red", "green", "blue"]))),
    }
    o.insert("k", rng.random_range(0..4u64));
    match rng.random_range(0..5u32) {
        0 => {}
        1 => drop(o.insert("nest", "flat")),
        _ => {
            let mut nest = Object::new();
            if let Some(x) = mixed_number(rng) {
                nest.insert("x", x);
            }
            if rng.random_bool(0.7) {
                nest.insert("y", obj! {"z" => pick(rng, &["p", "q"])});
            }
            o.insert("nest", nest);
        }
    }
    if rng.random_bool(0.5) {
        let items = (0..rng.random_range(0..3u32))
            .map(|_| obj! {"v" => rng.random_range(0..9u64)})
            .collect();
        o.insert("arr", Value::Arr(items));
    }
    Value::Obj(o)
}

/// Two to four write batches over one small key pool: missing fields,
/// explicit nulls, nested objects, non-object bodies, int/uint/float/
/// string mixes in one field, and keys re-appended across batches.
pub fn corpus(rng: &mut StdRng) -> Vec<Vec<Document>> {
    (0..rng.random_range(2..5u32))
        .map(|_| {
            (0..rng.random_range(5..40u32))
                .map(|_| {
                    let key = format!("doc:{:02}", rng.random_range(0..KEYS));
                    Document::new(key, body(rng))
                })
                .collect()
        })
        .collect()
}

const PATHS: [&str; 8] = ["n", "f", "g", "k", "nest.x", "nest.y.z", "arr[0].v", "absent"];
/// Group columns never hold two numerically equal values of different
/// types (`5` vs `5.0` are distinct groups that sort as equal, and tied
/// groups come out in hash order — on any path).
const GROUP_PATHS: [&str; 3] = ["g", "k", "nest.y.z"];

fn literal(rng: &mut StdRng) -> String {
    match rng.random_range(0..6u32) {
        0 => format!("'{}'", pick(rng, &["red", "blue", "p", "7", "flat"])),
        1 => pick(rng, &["TRUE", "FALSE"]).to_string(),
        2 => format!("{:.2}", rng.random_range(-40..400i64) as f64 / 4.0),
        _ => rng.random_range(-20..20i64).to_string(),
    }
}

fn predicate(rng: &mut StdRng, depth: u32) -> String {
    match rng.random_range(0..if depth == 0 { 2u32 } else { 6 }) {
        0 => {
            let op = pick(rng, &["=", "!=", "<>", "<", "<=", ">", ">="]);
            format!("{} {op} {}", pick(rng, &PATHS), literal(rng))
        }
        1 => {
            let not = if rng.random_bool(0.5) { " NOT" } else { "" };
            format!("{} IS{not} NULL", pick(rng, &PATHS))
        }
        2 => format!("NOT {}", predicate(rng, depth - 1)),
        3 => format!("({} OR {})", predicate(rng, depth - 1), predicate(rng, depth - 1)),
        _ => format!("{} AND {}", predicate(rng, depth - 1), predicate(rng, depth - 1)),
    }
}

/// One query: a projection with filter / ORDER BY / LIMIT, or aggregates
/// with optional GROUP BY, ordered (when ordered at all) down to the
/// group columns so the row order is total.
pub fn query(rng: &mut StdRng) -> String {
    let filter = if rng.random_bool(0.7) {
        format!(" WHERE {}", predicate(rng, 2))
    } else {
        String::new()
    };
    let limit = if rng.random_bool(0.4) {
        format!(" LIMIT {}", rng.random_range(0..12u32))
    } else {
        String::new()
    };
    let desc = |rng: &mut StdRng| if rng.random_bool(0.5) { " DESC" } else { "" };
    if rng.random_bool(0.4) {
        let mut cols: Vec<&str> = (0..rng.random_range(1..4u32)).map(|_| pick(rng, &PATHS)).collect();
        cols.dedup();
        let order = if rng.random_bool(0.5) {
            format!(" ORDER BY {}{}", pick(rng, &cols), desc(rng))
        } else {
            String::new()
        };
        return format!("SELECT {} FROM docs{filter}{order}{limit}", cols.join(", "));
    }
    let groups: Vec<&str> = match rng.random_range(0..3u32) {
        0 => Vec::new(),
        1 => vec![pick(rng, &GROUP_PATHS)],
        _ => vec!["g", "k"],
    };
    // Grouping by columns the SELECT list leaves out is legal; with the
    // groups anonymous no ORDER BY can separate them, so only aggregates
    // whose result type is fixed keep tied rows byte-identical.
    let anonymous = !groups.is_empty() && rng.random_bool(0.25);
    let mut select: Vec<String> = match anonymous {
        true => Vec::new(),
        false => groups.iter().map(|g| g.to_string()).collect(),
    };
    let aggs = rng.random_range(1..4usize);
    for i in 0..aggs {
        let path = pick(rng, &PATHS);
        select.push(match rng.random_range(0..if anonymous { 4u32 } else { 6 }) {
            0 => format!("COUNT(*) AS a{i}"),
            1 => format!("COUNT({path}) AS a{i}"),
            2 => format!("SUM({path}) AS a{i}"),
            3 => format!("AVG({path}) AS a{i}"),
            4 => format!("MIN({path}) AS a{i}"),
            _ => format!("MAX({path}) AS a{i}"),
        });
    }
    let group_by = if groups.is_empty() {
        String::new()
    } else {
        format!(" GROUP BY {}", groups.join(", "))
    };
    let order = if !groups.is_empty() && !anonymous && rng.random_bool(0.6) {
        let lead = format!("a{}{}", rng.random_range(0..aggs), desc(rng));
        format!(" ORDER BY {lead}, {}", groups.join(", "))
    } else {
        String::new()
    };
    format!("SELECT {} FROM docs{filter}{group_by}{order}{limit}", select.join(", "))
}

/// `POST /sql` with the query as the body (never cached, nothing to
/// percent-encode).
pub fn request(sql: &str) -> Request {
    Request {
        method: "POST".into(),
        target: format!("/sql?ns={}", NS.replace('/', "%2F")),
        version: "HTTP/1.1".into(),
        headers: Vec::new(),
        body: sql.as_bytes().to_vec(),
    }
}

/// What `/sql` must answer, computed the pre-column way: re-parse every
/// stored document (`Store::scan_partitions`) and run the query over the
/// whole bodies.
pub fn oracle(store: &Store, sql: &str) -> Response {
    let docs = store.scan_partitions(NS, SnapshotId(0)).expect("oracle scan");
    let data = Dataset::from_partitions(docs, ExecCtx::new(2)).map(|d| d.body);
    match sql::query(sql, data) {
        Ok(table) => {
            let total = table.rows.len();
            let rows = table.rows.into_iter().take(ROW_LIMIT).map(Value::Arr).collect();
            Response::json(
                200,
                &obj! {
                    "columns" => Value::Arr(table.columns.into_iter().map(Value::from).collect()),
                    "rows" => Value::Arr(rows),
                    "row_count" => total,
                    "truncated" => total > ROW_LIMIT,
                },
            )
        }
        Err(e) => {
            let e = ServeError::Sql(e);
            Response::error(e.status(), &e.to_string())
        }
    }
}

/// `got` must be `want` — status and bytes — for `sql` on `tier`.
pub fn assert_answers_like(tier: &str, sql: &str, got: &Response, want: &Response) {
    assert_eq!(got.status, want.status, "{tier}: {sql}");
    assert_eq!(
        got.body,
        want.body,
        "{tier}: {sql}\n got {}\nwant {}",
        String::from_utf8_lossy(&got.body),
        String::from_utf8_lossy(&want.body),
    );
}

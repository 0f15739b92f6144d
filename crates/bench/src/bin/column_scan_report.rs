//! `column-scan-report` — columnar-vs-JSON scan numbers, written as
//! `BENCH_column_scan.json` for tracking across commits:
//!
//! - **Feature-path scan** (the gated signal): the dataflow investor
//!   extraction (`role == "investor"` filter, id/investments/follow_count
//!   projection) timed over the JSON re-parse scan
//!   (`Store::scan_partitions` decodes every framed line into a `Value`
//!   tree) versus the typed column projection
//!   (`ColumnCatalog::scan_fields` decodes only the four columns the
//!   feature touches). The records must be identical and the columnar
//!   path must be ≥ 5× faster — the parse tax is the dominant per-epoch
//!   analytics cost the column store exists to remove.
//! - **Full-document decode**: `docs_partitioned` versus the JSON scan,
//!   with every decoded document re-encoded and compared byte-for-byte.
//!   Reported, not gated on speed — materializing whole `Value` trees is
//!   the floor both paths share.
//! - **Projected scan** (`/sql`'s read path): `project_runs` rows holding
//!   one and three top-level fields versus the full column decode versus
//!   the JSON scan, in documents per second. Each projected row must hold
//!   exactly what the JSON-scanned document holds under those fields.
//! - **Edge extraction**: the serving tier's investor→company edge walk
//!   versus the sealed delta-encoded edge segments; identical pairs
//!   required.
//! - **Compression**: encoded column bytes per document versus serialized
//!   JSON bytes per document, per namespace. Gated ≥ 1× on the corpus
//!   namespaces (the analytics working set); operational namespaces like
//!   `crawl/state` are reported but not gated.
//!
//! ```sh
//! cargo run --release -p crowdnet-bench --bin column-scan-report [-- OUT.json]
//! ```

use crowdnet_column::{project_runs, ColumnConfig, ColumnSet};
use crowdnet_core::pipeline::{Pipeline, PipelineConfig};
use crowdnet_crawl::augment::NS_CRUNCHBASE;
use crowdnet_crawl::bfs::{NS_COMPANIES, NS_USERS};
use crowdnet_crawl::social::{NS_FACEBOOK, NS_TWITTER};
use crowdnet_json::{obj, Value};
use crowdnet_store::{SnapshotId, Store};
use std::time::Instant;

const SEED: u64 = 42;
/// Timed repetitions of every scan variant.
const REPS: usize = 30;
/// Required columnar speedup over the JSON re-parse scan on the feature path.
const MIN_FEATURE_SPEEDUP: f64 = 5.0;
/// Namespaces whose compression ratio is gated (the analytics corpus).
const CORPUS: &[&str] = &[NS_COMPANIES, NS_USERS, NS_CRUNCHBASE, NS_FACEBOOK, NS_TWITTER];

/// The dataflow investor extraction's output row.
type InvestorRow = (u32, Vec<u32>, u64);

type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// JSON path: re-parse every framed user document, then filter and project.
fn investors_json(store: &Store) -> BenchResult<Vec<InvestorRow>> {
    let docs = store.scan_partitions(NS_USERS, SnapshotId(0))?;
    let mut out = Vec::new();
    for doc in docs.into_iter().flatten() {
        if doc.body.get("role").and_then(Value::as_str) != Some("investor") {
            continue;
        }
        out.push(investor_row(&doc.body));
    }
    Ok(out)
}

/// Columnar path: decode only the four columns the feature touches.
fn investors_columnar(
    catalog: &crowdnet_column::ColumnCatalog,
) -> BenchResult<Vec<InvestorRow>> {
    let mut out = Vec::new();
    catalog.scan_fields(
        NS_USERS,
        SnapshotId(0),
        &["role", "id", "investments", "follow_count"],
        |_key, values| {
            if values[0].as_ref().and_then(Value::as_str) != Some("investor") {
                return;
            }
            out.push((
                values[1].as_ref().and_then(Value::as_u64).unwrap_or(0) as u32,
                values[2]
                    .as_ref()
                    .and_then(Value::as_arr)
                    .map(|arr| {
                        arr.iter().filter_map(Value::as_u64).map(|v| v as u32).collect()
                    })
                    .unwrap_or_default(),
                values[3].as_ref().and_then(Value::as_u64).unwrap_or(0),
            ));
        },
    )?;
    Ok(out)
}

/// Project one already-parsed user body into the feature row.
fn investor_row(body: &Value) -> InvestorRow {
    (
        body.get("id").and_then(Value::as_u64).unwrap_or(0) as u32,
        body.get("investments")
            .and_then(Value::as_arr)
            .map(|arr| arr.iter().filter_map(Value::as_u64).map(|v| v as u32).collect())
            .unwrap_or_default(),
        body.get("follow_count").and_then(Value::as_u64).unwrap_or(0),
    )
}

/// The serving tier's investor→company edge extraction over a JSON scan.
fn edges_json(store: &Store) -> BenchResult<Vec<(u32, u32)>> {
    let docs = store.scan_partitions(NS_USERS, SnapshotId(0))?;
    let mut edges = Vec::new();
    for doc in docs.into_iter().flatten() {
        if doc.body.get("role").and_then(Value::as_str) != Some("investor") {
            continue;
        }
        let id = doc.body.get("id").and_then(Value::as_u64).unwrap_or(0) as u32;
        if let Some(arr) = doc.body.get("investments").and_then(Value::as_arr) {
            edges.extend(arr.iter().filter_map(Value::as_u64).map(|c| (id, c as u32)));
        }
    }
    Ok(edges)
}

/// Mean wall micros of `f` over [`REPS`] runs (result returned once).
fn timed<T>(mut f: impl FnMut() -> BenchResult<T>) -> BenchResult<(T, f64)> {
    let mut out = None;
    let t0 = Instant::now();
    for _ in 0..REPS {
        out = Some(std::hint::black_box(f()?));
    }
    let us = t0.elapsed().as_micros() as f64 / REPS as f64;
    match out {
        Some(v) => Ok((v, us)),
        None => Err("REPS must be > 0".into()),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_column_scan.json".into());

    let outcome = Pipeline::new(PipelineConfig::tiny(SEED)).run()?;
    let store = outcome.store;
    let set = ColumnSet::build_from_store(&store, ColumnConfig::default(), None)?;
    let catalog = set.catalog();

    // Feature-path scan: JSON re-parse versus typed column projection.
    let (json_rows, json_us) = timed(|| investors_json(&store))?;
    let (col_rows, col_us) = timed(|| investors_columnar(&catalog))?;
    if json_rows != col_rows {
        return Err("feature-path records differ between JSON and columnar scans".into());
    }
    let feature_speedup = json_us / col_us;
    eprintln!(
        "feature path: {} investors, JSON {json_us:.0}us vs columnar {col_us:.0}us \
         ({feature_speedup:.1}x)",
        col_rows.len(),
    );

    // Full-document decode: byte-identical materialization, timed.
    let (json_docs, json_docs_us) =
        timed(|| Ok(store.scan_partitions(NS_USERS, SnapshotId(0))?))?;
    let (col_docs, col_docs_us) =
        timed(|| Ok(catalog.docs_partitioned(NS_USERS, SnapshotId(0))?))?;
    let encode = |parts: &Vec<Vec<crowdnet_store::Document>>| -> Vec<u8> {
        let mut buf = Vec::new();
        for doc in parts.iter().flatten() {
            buf.extend_from_slice(doc.encode().as_bytes());
            buf.push(b'\n');
        }
        buf
    };
    if encode(&json_docs) != encode(&col_docs) {
        return Err("full-document decode is not byte-identical to the JSON scan".into());
    }
    let doc_speedup = json_docs_us / col_docs_us;
    eprintln!(
        "full decode: JSON {json_docs_us:.0}us vs columnar {col_docs_us:.0}us ({doc_speedup:.1}x)"
    );

    // Projected scan: rows of one and three fields straight off the runs.
    let docs = col_docs.iter().map(Vec::len).sum::<usize>();
    let runs = catalog.scan_runs(NS_USERS, SnapshotId(0))?;
    let one_field = ["follow_count"];
    let three_fields = ["follow_count", "id", "role"];
    let (one_rows, one_us) = timed(|| Ok(project_runs(runs, &one_field)?))?;
    let (three_rows, three_us) = timed(|| Ok(project_runs(runs, &three_fields)?))?;
    for (rows, fields) in [(&one_rows, &one_field[..]), (&three_rows, &three_fields[..])] {
        let exact = rows.iter().flatten().zip(json_docs.iter().flatten()).all(|(row, doc)| {
            fields.iter().all(|f| row.get(f) == doc.body.get(f))
        });
        if !exact || rows.iter().map(Vec::len).sum::<usize>() != docs {
            return Err(format!("projected rows over {fields:?} differ from the JSON scan").into());
        }
    }
    let docs_per_s = |us: f64| docs as f64 / (us / 1e6);
    eprintln!(
        "projected scan: 1 field {:.0} docs/s, 3 fields {:.0} docs/s, full decode {:.0} docs/s, \
         JSON {:.0} docs/s",
        docs_per_s(one_us),
        docs_per_s(three_us),
        docs_per_s(col_docs_us),
        docs_per_s(json_docs_us),
    );

    // Edge extraction: sealed segments versus the document walk.
    let (json_edges, edges_json_us) = timed(|| edges_json(&store))?;
    let (col_edges, edges_col_us) =
        timed(|| Ok(catalog.edges(NS_USERS, SnapshotId(0))?))?;
    if json_edges != col_edges {
        return Err("edge lists differ between JSON and columnar extraction".into());
    }
    let edge_speedup = edges_json_us / edges_col_us;
    eprintln!(
        "edges: {} pairs, JSON {edges_json_us:.0}us vs segments {edges_col_us:.0}us \
         ({edge_speedup:.1}x)",
        col_edges.len(),
    );

    // Per-namespace compression: encoded column bytes versus serialized JSON.
    let mut compression_rows: Vec<Value> = Vec::new();
    let mut corpus_ratios: Vec<(String, f64)> = Vec::new();
    for ns in store.namespaces()? {
        let snap = SnapshotId(0);
        if !catalog.has(&ns, snap) {
            continue;
        }
        let json_bytes: usize = store
            .scan_snapshot(&ns, snap)?
            .iter()
            .map(|d| d.encode().len())
            .sum();
        let stats = catalog.snapshot_stats(&ns, snap)?;
        if stats.rows == 0 {
            continue;
        }
        let ratio = json_bytes as f64 / stats.encoded_bytes as f64;
        let gated = CORPUS.contains(&ns.as_str());
        eprintln!(
            "{ns}: {} docs, {:.0} JSON B/doc vs {:.0} column B/doc ({ratio:.2}x{})",
            stats.rows,
            json_bytes as f64 / stats.rows as f64,
            stats.encoded_bytes as f64 / stats.rows as f64,
            if gated { ", gated" } else { "" },
        );
        if gated {
            corpus_ratios.push((ns.clone(), ratio));
        }
        compression_rows.push(obj! {
            "namespace" => ns.clone(),
            "docs" => stats.rows as u64,
            "json_bytes" => json_bytes as u64,
            "column_bytes" => stats.encoded_bytes as u64,
            "json_bytes_per_doc" => json_bytes as f64 / stats.rows as f64,
            "column_bytes_per_doc" => stats.encoded_bytes as f64 / stats.rows as f64,
            "compression_ratio" => ratio,
            "dict_entries" => stats.dict_entries as u64,
            "gated" => gated,
        });
    }

    let report = obj! {
        "bench" => "column_scan",
        "world" => obj! { "seed" => SEED, "scale" => "tiny" },
        "reps" => REPS as u64,
        "host_cores" => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u64,
        "feature_path" => obj! {
            "investors" => col_rows.len() as u64,
            "json_reparse_us" => json_us,
            "columnar_us" => col_us,
            "speedup" => feature_speedup,
            "min_speedup" => MIN_FEATURE_SPEEDUP,
            "outputs_identical" => true,
        },
        "full_decode" => obj! {
            "docs" => docs as u64,
            "json_reparse_us" => json_docs_us,
            "columnar_us" => col_docs_us,
            "speedup" => doc_speedup,
            "byte_identical" => true,
        },
        "projected_scan" => obj! {
            "docs" => docs as u64,
            "one_field_docs_per_s" => docs_per_s(one_us),
            "three_field_docs_per_s" => docs_per_s(three_us),
            "full_decode_docs_per_s" => docs_per_s(col_docs_us),
            "json_scan_docs_per_s" => docs_per_s(json_docs_us),
            "rows_identical" => true,
        },
        "edges" => obj! {
            "pairs" => col_edges.len() as u64,
            "json_walk_us" => edges_json_us,
            "segment_us" => edges_col_us,
            "speedup" => edge_speedup,
            "outputs_identical" => true,
        },
        "compression" => Value::Arr(compression_rows),
    };

    if feature_speedup < MIN_FEATURE_SPEEDUP {
        return Err(format!(
            "feature-path speedup {feature_speedup:.2}x below the required \
             {MIN_FEATURE_SPEEDUP:.0}x (JSON {json_us:.0}us, columnar {col_us:.0}us)"
        )
        .into());
    }
    if let Some((ns, ratio)) = corpus_ratios.iter().find(|(_, r)| *r < 1.0) {
        return Err(format!(
            "corpus namespace {ns} does not compress: {ratio:.2}x (columns larger than JSON)"
        )
        .into());
    }
    std::fs::write(&out, report.to_pretty() + "\n")?;
    println!("wrote {out}");
    Ok(())
}

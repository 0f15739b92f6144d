//! The `Dataset` abstraction: a partitioned collection with Spark-style
//! parallel operators.

use crate::pairs::Pairs;
use crate::pool::{run_stage, run_stage_metered, run_tasks, ExecCtx};
use crowdnet_store::{Document, SnapshotId, Store, StoreError};
use crowdnet_telemetry::Telemetry;
use std::collections::HashSet;
use std::hash::Hash;

/// A partitioned, immutable, eagerly-evaluated parallel collection.
///
/// Every transformation runs partition-parallel on the context's thread pool
/// and yields a new `Dataset`. The engine is eager (each operator
/// materializes its output) — simpler than Spark's lazy DAG and sufficient
/// for the paper's pipelines, which are linear scans-joins-aggregations.
#[derive(Debug, Clone)]
pub struct Dataset<T> {
    partitions: Vec<Vec<T>>,
    ctx: ExecCtx,
    telemetry: Option<Telemetry>,
}

impl<T: Send> Dataset<T> {
    /// Build from a flat vector, splitting into the context's default
    /// partition count (round-robin chunks, preserving order).
    pub fn from_vec(items: Vec<T>, ctx: ExecCtx) -> Dataset<T> {
        let n = ctx.default_partitions().max(1);
        let chunk = items.len().div_ceil(n).max(1);
        let mut partitions: Vec<Vec<T>> = Vec::with_capacity(n);
        let mut cur = Vec::with_capacity(chunk);
        for item in items {
            cur.push(item);
            if cur.len() == chunk {
                partitions.push(std::mem::replace(&mut cur, Vec::with_capacity(chunk)));
            }
        }
        if !cur.is_empty() {
            partitions.push(cur);
        }
        Dataset { partitions, ctx, telemetry: None }
    }

    /// Build from pre-existing partitions (e.g. a store scan).
    pub fn from_partitions(partitions: Vec<Vec<T>>, ctx: ExecCtx) -> Dataset<T> {
        Dataset { partitions, ctx, telemetry: None }
    }

    /// Attach a telemetry sink: every subsequent operator records a
    /// `dataflow.<op>` span, task counts, queue depth and per-partition
    /// output sizes. Derived datasets inherit the sink.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Dataset<T> {
        self.telemetry = Some(telemetry.clone());
        self
    }

    /// The execution context this dataset runs on.
    pub fn ctx(&self) -> ExecCtx {
        self.ctx
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of elements.
    pub fn count(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// Flatten into a single vector (partition order).
    pub fn collect(self) -> Vec<T> {
        self.partitions.into_iter().flatten().collect()
    }

    /// Borrow the partitions.
    pub fn partitions(&self) -> &[Vec<T>] {
        &self.partitions
    }

    /// Apply `f` to every element.
    pub fn map<U: Send, F>(self, f: F) -> Dataset<U>
    where
        F: Fn(T) -> U + Sync,
    {
        let ctx = self.ctx;
        let telemetry = self.telemetry;
        let partitions = run_stage_metered(ctx, telemetry.as_ref(), "map", self.partitions, |_, part| {
            part.into_iter().map(&f).collect()
        });
        Dataset { partitions, ctx, telemetry }
    }

    /// Keep elements satisfying `pred`.
    pub fn filter<F>(self, pred: F) -> Dataset<T>
    where
        F: Fn(&T) -> bool + Sync,
    {
        let ctx = self.ctx;
        let telemetry = self.telemetry;
        let partitions = run_stage_metered(ctx, telemetry.as_ref(), "filter", self.partitions, |_, part| {
            part.into_iter().filter(|t| pred(t)).collect()
        });
        Dataset { partitions, ctx, telemetry }
    }

    /// Map each element to zero or more outputs.
    pub fn flat_map<U: Send, I, F>(self, f: F) -> Dataset<U>
    where
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Sync,
    {
        let ctx = self.ctx;
        let telemetry = self.telemetry;
        let partitions = run_stage_metered(ctx, telemetry.as_ref(), "flat_map", self.partitions, |_, part| {
            part.into_iter().flat_map(&f).collect()
        });
        Dataset { partitions, ctx, telemetry }
    }

    /// Key every element, producing a [`Pairs`] for grouped operations.
    pub fn key_by<K, F>(self, f: F) -> Pairs<K, T>
    where
        K: Send + Hash + Eq + Clone,
        F: Fn(&T) -> K + Sync,
    {
        let ctx = self.ctx;
        let partitions = run_stage(ctx, self.partitions, |_, part| {
            part.into_iter().map(|t| (f(&t), t)).collect()
        });
        Pairs::from_partitions(partitions, ctx)
    }

    /// Two-level reduction: fold each partition with `seq` from `zero`, then
    /// combine the per-partition results with `comb` (Spark's `aggregate`).
    pub fn reduce<A, FS, FC>(self, zero: A, seq: FS, comb: FC) -> A
    where
        A: Send + Sync + Clone,
        FS: Fn(A, T) -> A + Sync,
        FC: Fn(A, A) -> A,
    {
        let ctx = self.ctx;
        let partials = run_stage_metered(ctx, self.telemetry.as_ref(), "reduce", self.partitions, |_, part| {
            vec![part.into_iter().fold(zero.clone(), &seq)]
        });
        partials
            .into_iter()
            .flatten()
            .fold(zero, comb)
    }

    /// Concatenate two datasets (keeps both partition sets).
    pub fn union(mut self, other: Dataset<T>) -> Dataset<T> {
        self.partitions.extend(other.partitions);
        self
    }

    /// First `n` elements in partition order.
    pub fn take(self, n: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(n);
        for part in self.partitions {
            for item in part {
                if out.len() == n {
                    return out;
                }
                out.push(item);
            }
        }
        out
    }
}

impl<T: Send + Clone> Dataset<T> {
    /// Deterministic hash-based subsample keeping roughly `fraction` of
    /// elements. Uses a splitmix of the element index and `seed`, so the same
    /// `(data, seed, fraction)` always selects the same rows.
    pub fn sample(self, fraction: f64, seed: u64) -> Dataset<T> {
        let fraction = fraction.clamp(0.0, 1.0);
        let threshold = (fraction * u64::MAX as f64) as u64;
        let ctx = self.ctx;
        let telemetry = self.telemetry;
        let partitions = run_stage_metered(ctx, telemetry.as_ref(), "sample", self.partitions, |pidx, part| {
            part.into_iter()
                .enumerate()
                .filter(|(i, _)| {
                    let mut z = seed
                        .wrapping_add((pidx as u64) << 32)
                        .wrapping_add(*i as u64)
                        .wrapping_add(0x9E37_79B9_7F4A_7C15);
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    z <= threshold
                })
                .map(|(_, t)| t)
                .collect()
        });
        Dataset { partitions, ctx, telemetry }
    }
}

impl<T: Send + Hash + Eq + Clone> Dataset<T> {
    /// Remove duplicates: hash-shuffle so equal elements land in the same
    /// bucket, then dedup each bucket.
    pub fn distinct(self) -> Dataset<T> {
        let ctx = self.ctx;
        let telemetry = self.telemetry;
        let keyed: Vec<Vec<(T, ())>> = run_stage(ctx, self.partitions, |_, part| {
            part.into_iter().map(|t| (t, ())).collect()
        });
        let shuffled = crate::pairs::shuffle(keyed, ctx);
        let partitions = run_stage_metered(ctx, telemetry.as_ref(), "distinct", shuffled, |_, part| {
            let mut seen: HashSet<T> = HashSet::with_capacity(part.len());
            let mut out = Vec::new();
            for (t, ()) in part {
                if seen.insert(t.clone()) {
                    out.push(t);
                }
            }
            out
        });
        Dataset { partitions, ctx, telemetry }
    }
}

impl<T: Send + Ord> Dataset<T> {
    /// Globally sort (collects, sorts, re-partitions — adequate for the
    /// result-set sizes the analyses produce).
    pub fn sorted(self) -> Dataset<T> {
        let ctx = self.ctx;
        let telemetry = self.telemetry.clone();
        let mut flat = self.collect();
        flat.sort();
        let mut out = Dataset::from_vec(flat, ctx);
        out.telemetry = telemetry;
        out
    }

    /// Minimum element.
    pub fn min(self) -> Option<T> {
        self.collect().into_iter().min()
    }

    /// Maximum element.
    pub fn max(self) -> Option<T> {
        self.collect().into_iter().max()
    }
}

impl Dataset<crowdnet_store::Document> {
    /// Build a document dataset straight off the column projection — the
    /// zero-JSON-parse twin of [`scan_store`]. One store partition per
    /// dataset partition, identical documents in identical order, so every
    /// downstream operator produces byte-identical results to the row path.
    pub fn from_columns(
        catalog: &crowdnet_column::ColumnCatalog,
        ns: &str,
        snapshot: SnapshotId,
        ctx: ExecCtx,
    ) -> Result<Dataset<crowdnet_store::Document>, crowdnet_column::ColumnError> {
        Ok(Dataset::from_partitions(
            catalog.docs_partitioned(ns, snapshot)?,
            ctx,
        ))
    }
}

/// Scan a store namespace snapshot into a dataset of documents, one store
/// partition per dataset partition (the HDFS-block → RDD-partition mapping).
/// The identity case of [`scan_store_with`].
pub fn scan_store(
    store: &Store,
    ns: &str,
    snapshot: SnapshotId,
    ctx: ExecCtx,
) -> Result<Dataset<Document>, StoreError> {
    scan_store_with(store, ns, snapshot, ctx, std::iter::once)
}

/// Fused scan + `flat_map`: one pool task per store partition reads,
/// decodes and applies `f`, so a parsed document dies inside the task
/// that decoded it and at most one tree per worker is alive at a time.
///
/// Returns exactly what `scan_store(..)?.flat_map(f)` returns: one dataset
/// partition per store partition in the same order, items in canonical
/// key order (each document's outputs sorted by its key, stably, which is
/// the order sorting the documents first gives), one `store.scan.calls`
/// increment and the same `store.scan.docs`. On failure it returns the
/// lowest failing partition's error, as the serial scan would.
pub fn scan_store_with<U, I, F>(
    store: &Store,
    ns: &str,
    snapshot: SnapshotId,
    ctx: ExecCtx,
    f: F,
) -> Result<Dataset<U>, StoreError>
where
    U: Send,
    I: IntoIterator<Item = U>,
    F: Fn(Document) -> I + Sync,
{
    let scanned = run_tasks(ctx, (0..store.partitions()).collect(), |_, p| {
        let scan = store.scan_partition(
            ns,
            snapshot,
            p,
            |doc, pairs| {
                let key = doc.key.clone();
                pairs.extend(f(doc).into_iter().map(|item| (key.clone(), item)));
            },
            |(key, _): &(String, U)| key,
        )?;
        Ok::<_, StoreError>((scan.items.into_iter().map(|(_, item)| item).collect(), scan.docs))
    });
    let mut partitions = Vec::with_capacity(scanned.len());
    let mut docs = 0;
    for result in scanned {
        let (items, decoded) = result?;
        partitions.push(items);
        docs += decoded;
    }
    store.record_scan(docs);
    Ok(Dataset::from_partitions(partitions, ctx))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExecCtx {
        ExecCtx::new(4)
    }

    #[test]
    fn from_vec_partitions_everything() {
        let d = Dataset::from_vec((0..100).collect::<Vec<i32>>(), ctx());
        assert_eq!(d.count(), 100);
        assert!(d.partition_count() >= 1);
        let mut all = d.collect();
        all.sort();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn from_vec_preserves_order_on_collect() {
        let d = Dataset::from_vec((0..57).collect::<Vec<i32>>(), ctx());
        assert_eq!(d.collect(), (0..57).collect::<Vec<_>>());
    }

    #[test]
    fn map_filter_flat_map() {
        let d = Dataset::from_vec((1..=10).collect::<Vec<i64>>(), ctx());
        let out = d
            .map(|x| x * 2)
            .filter(|x| x % 3 == 0)
            .flat_map(|x| vec![x, -x])
            .collect();
        let expected: Vec<i64> = (1..=10i64)
            .map(|x| x * 2)
            .filter(|x| x % 3 == 0)
            .flat_map(|x| vec![x, -x])
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn reduce_matches_sequential_fold() {
        let d = Dataset::from_vec((1..=1000u64).collect(), ctx());
        let sum = d.reduce(0u64, |a, b| a + b, |a, b| a + b);
        assert_eq!(sum, 500_500);
    }

    #[test]
    fn union_keeps_both_partition_sets() {
        let a = Dataset::from_vec(vec![1, 2], ctx());
        let b = Dataset::from_vec(vec![3, 4], ctx());
        let parts = a.partition_count() + b.partition_count();
        let u = a.union(b);
        assert_eq!(u.partition_count(), parts);
        let mut all = u.collect();
        all.sort();
        assert_eq!(all, vec![1, 2, 3, 4]);
    }

    #[test]
    fn take_respects_limit() {
        let d = Dataset::from_vec((0..100).collect::<Vec<i32>>(), ctx());
        assert_eq!(d.clone().take(5).len(), 5);
        assert_eq!(d.clone().take(0).len(), 0);
        assert_eq!(d.take(1000).len(), 100);
    }

    #[test]
    fn sample_is_deterministic_and_proportional() {
        let d = Dataset::from_vec((0..10_000).collect::<Vec<i32>>(), ctx());
        let s1 = d.clone().sample(0.3, 7).collect();
        let s2 = d.clone().sample(0.3, 7).collect();
        assert_eq!(s1, s2);
        let frac = s1.len() as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "got {frac}");
        let s3 = d.clone().sample(0.3, 8).collect();
        assert_ne!(s1, s3);
        assert_eq!(d.clone().sample(0.0, 1).count(), 0);
        assert_eq!(d.sample(1.0, 1).count(), 10_000);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let mut items = Vec::new();
        for i in 0..100 {
            items.push(i % 10);
        }
        let d = Dataset::from_vec(items, ctx()).distinct();
        let mut got = d.collect();
        got.sort();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sorted_is_globally_sorted() {
        let d = Dataset::from_vec(vec![5, 3, 9, 1, 7, 2, 8], ctx());
        assert_eq!(d.sorted().collect(), vec![1, 2, 3, 5, 7, 8, 9]);
    }

    #[test]
    fn min_max() {
        let d = Dataset::from_vec(vec![5, -2, 9, 0], ctx());
        assert_eq!(d.clone().min(), Some(-2));
        assert_eq!(d.max(), Some(9));
        let empty: Dataset<i32> = Dataset::from_vec(vec![], ctx());
        assert_eq!(empty.min(), None);
    }

    #[test]
    fn telemetry_follows_derived_datasets() {
        let telemetry = Telemetry::new();
        let d = Dataset::from_vec((0..64).collect::<Vec<i64>>(), ctx())
            .with_telemetry(&telemetry);
        let out = d
            .map(|x| x * 2)
            .filter(|x| x % 4 == 0)
            .flat_map(|x| vec![x])
            .sorted()
            .collect();
        assert_eq!(out.len(), 32);
        // map + filter + flat_map each ran through the metered path; the
        // tasks counter saw every partition of every stage.
        assert!(telemetry.counter("dataflow.tasks").value() >= 3);
        let names: Vec<String> = telemetry
            .span_records()
            .into_iter()
            .map(|s| s.name)
            .collect();
        for op in ["dataflow.map", "dataflow.filter", "dataflow.flat_map"] {
            assert!(names.iter().any(|n| n == op), "missing span {op}");
        }
        assert!(telemetry.histogram("dataflow.task_rows").count() > 0);
    }

    #[test]
    fn scan_store_maps_partitions() {
        use crowdnet_json::obj;
        use crowdnet_store::Document;
        let store = Store::memory(4);
        for i in 0..40 {
            store.put("ns", Document::new(format!("k:{i}"), obj! {"v" => i})).unwrap();
        }
        let d = scan_store(&store, "ns", SnapshotId(0), ctx()).unwrap();
        assert_eq!(d.partition_count(), 4);
        assert_eq!(d.count(), 40);
        let total: i64 = d
            .map(|doc| doc.body.get("v").and_then(|v| v.as_i64()).unwrap())
            .reduce(0, |a, b| a + b, |a, b| a + b);
        assert_eq!(total, (0..40).sum::<i64>());
    }
}

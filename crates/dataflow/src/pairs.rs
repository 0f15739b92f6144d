//! Keyed datasets: the shuffle, grouping and join operators.
//!
//! `Pairs<K, V>` mirrors Spark's pair-RDD API. Wide operations first
//! **shuffle**: every input partition splits its pairs into `N` hash buckets,
//! buckets with the same index are concatenated across partitions, and each
//! resulting bucket becomes an output partition — so all pairs with equal
//! keys are co-located, exactly like Spark's hash partitioning.

use crate::dataset::Dataset;
use crate::pool::{run_stage, ExecCtx};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Stable hash used for bucket assignment.
pub(crate) fn hash_of<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// Hash-shuffle keyed partitions so equal keys share an output partition.
pub(crate) fn shuffle<K, V>(partitions: Vec<Vec<(K, V)>>, ctx: ExecCtx) -> Vec<Vec<(K, V)>>
where
    K: Send + Hash,
    V: Send,
{
    let n = partitions.len().max(ctx.threads()).max(1);
    // Map side: split each partition into n buckets.
    type Bucketed<K, V> = Vec<Vec<(usize, Vec<(K, V)>)>>;
    let bucketed: Bucketed<K, V> = run_stage(ctx, partitions, |_, part| {
        let mut buckets: Vec<Vec<(K, V)>> = (0..n).map(|_| Vec::new()).collect();
        for (k, v) in part {
            let b = (hash_of(&k) % n as u64) as usize;
            buckets[b].push((k, v));
        }
        buckets.into_iter().enumerate().collect()
    });
    // Reduce side: concatenate bucket b from every input partition.
    let mut out: Vec<Vec<(K, V)>> = (0..n).map(|_| Vec::new()).collect();
    for part in bucketed {
        for (b, pairs) in part {
            out[b].extend(pairs);
        }
    }
    out
}

/// A partitioned collection of key/value pairs.
#[derive(Debug, Clone)]
pub struct Pairs<K, V> {
    partitions: Vec<Vec<(K, V)>>,
    ctx: ExecCtx,
}

impl<K, V> Pairs<K, V>
where
    K: Send + Hash + Eq + Clone,
    V: Send,
{
    /// Build from raw pair partitions.
    pub fn from_partitions(partitions: Vec<Vec<(K, V)>>, ctx: ExecCtx) -> Self {
        Pairs { partitions, ctx }
    }

    /// Build from a flat pair vector, chunked like [`Dataset::from_vec`].
    pub fn from_vec(pairs: Vec<(K, V)>, ctx: ExecCtx) -> Self {
        let n = ctx.default_partitions().max(1);
        let chunk = pairs.len().div_ceil(n).max(1);
        let mut partitions: Vec<Vec<(K, V)>> = Vec::with_capacity(n);
        let mut cur = Vec::with_capacity(chunk);
        for pair in pairs {
            cur.push(pair);
            if cur.len() == chunk {
                partitions.push(std::mem::replace(&mut cur, Vec::with_capacity(chunk)));
            }
        }
        if !cur.is_empty() {
            partitions.push(cur);
        }
        Pairs { partitions, ctx }
    }

    /// Total number of pairs.
    pub fn count(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// Flatten into a vector of pairs.
    pub fn collect(self) -> Vec<(K, V)> {
        self.partitions.into_iter().flatten().collect()
    }

    /// Drop the keys.
    pub fn values(self) -> Dataset<V> {
        let ctx = self.ctx;
        Dataset::from_partitions(
            run_stage(ctx, self.partitions, |_, part| {
                part.into_iter().map(|(_, v)| v).collect()
            }),
            ctx,
        )
    }

    /// Drop the values.
    pub fn keys(self) -> Dataset<K> {
        let ctx = self.ctx;
        Dataset::from_partitions(
            run_stage(ctx, self.partitions, |_, part| {
                part.into_iter().map(|(k, _)| k).collect()
            }),
            ctx,
        )
    }

    /// Transform values, keeping keys.
    pub fn map_values<U: Send, F>(self, f: F) -> Pairs<K, U>
    where
        F: Fn(V) -> U + Sync,
    {
        let ctx = self.ctx;
        Pairs {
            partitions: run_stage(ctx, self.partitions, |_, part| {
                part.into_iter().map(|(k, v)| (k, f(v))).collect()
            }),
            ctx,
        }
    }

    /// Keep pairs whose key/value satisfy `pred`.
    pub fn filter<F>(self, pred: F) -> Pairs<K, V>
    where
        F: Fn(&K, &V) -> bool + Sync,
    {
        let ctx = self.ctx;
        Pairs {
            partitions: run_stage(ctx, self.partitions, |_, part| {
                part.into_iter().filter(|(k, v)| pred(k, v)).collect()
            }),
            ctx,
        }
    }

    /// Group all values per key (wide: shuffles).
    pub fn group_by_key(self) -> Pairs<K, Vec<V>> {
        let ctx = self.ctx;
        let shuffled = shuffle(self.partitions, ctx);
        Pairs {
            partitions: run_stage(ctx, shuffled, |_, part| {
                let mut groups: HashMap<K, Vec<V>> = HashMap::new();
                for (k, v) in part {
                    groups.entry(k).or_default().push(v);
                }
                groups.into_iter().collect()
            }),
            ctx,
        }
    }

    /// Merge values per key with an associative `f` (wide: shuffles, but
    /// pre-aggregates map-side like Spark's combiners).
    pub fn reduce_by_key<F>(self, f: F) -> Pairs<K, V>
    where
        V: Clone,
        F: Fn(V, V) -> V + Sync,
    {
        let ctx = self.ctx;
        // Map-side combine first: shrinks the shuffle for skewed keys.
        let combined = run_stage(ctx, self.partitions, |_, part| {
            let mut acc: HashMap<K, V> = HashMap::new();
            for (k, v) in part {
                match acc.remove(&k) {
                    Some(prev) => {
                        acc.insert(k, f(prev, v));
                    }
                    None => {
                        acc.insert(k, v);
                    }
                }
            }
            acc.into_iter().collect::<Vec<_>>()
        });
        let shuffled = shuffle(combined, ctx);
        Pairs {
            partitions: run_stage(ctx, shuffled, |_, part| {
                let mut acc: HashMap<K, V> = HashMap::new();
                for (k, v) in part {
                    match acc.remove(&k) {
                        Some(prev) => {
                            acc.insert(k, f(prev, v));
                        }
                        None => {
                            acc.insert(k, v);
                        }
                    }
                }
                acc.into_iter().collect()
            }),
            ctx,
        }
    }

    /// Count pairs per key.
    pub fn count_by_key(self) -> Pairs<K, usize> {
        self.map_values(|_| 1usize).reduce_by_key(|a, b| a + b)
    }

    /// Inner hash join: pairs `(k, (v, w))` for every `(k, v)` here and
    /// `(k, w)` in `other` (wide: shuffles both sides).
    pub fn join<W>(self, other: Pairs<K, W>) -> Pairs<K, (V, W)>
    where
        V: Clone,
        W: Send + Clone,
    {
        let ctx = self.ctx;
        let left = shuffle(self.partitions, ctx);
        let right = shuffle(other.partitions, ctx);
        // Both shuffles use the same hash and the same partition count only
        // if the inputs had equal partition counts; align by re-bucketing the
        // right side into the left's count when they differ.
        let right = if right.len() == left.len() {
            right
        } else {
            let flat: Vec<(K, W)> = right.into_iter().flatten().collect();
            let n = left.len().max(1);
            let mut out: Vec<Vec<(K, W)>> = (0..n).map(|_| Vec::new()).collect();
            for (k, w) in flat {
                let b = (hash_of(&k) % n as u64) as usize;
                out[b].push((k, w));
            }
            out
        };
        type Zipped<K, V, W> = Vec<(Vec<(K, V)>, Vec<(K, W)>)>;
        let zipped: Zipped<K, V, W> = left.into_iter().zip(right).collect();
        let partitions = crate::pool::run_tasks(ctx, zipped, |_, (lpart, rpart)| {
            let mut table: HashMap<K, Vec<W>> = HashMap::new();
            for (k, w) in rpart {
                table.entry(k).or_default().push(w);
            }
            let mut out = Vec::new();
            for (k, v) in lpart {
                if let Some(ws) = table.get(&k) {
                    for w in ws {
                        out.push((k.clone(), (v.clone(), w.clone())));
                    }
                }
            }
            out
        });
        Pairs { partitions, ctx }
    }

    /// Left outer hash join: every left pair appears once per match, or once
    /// with `None` when the right side has no such key.
    pub fn left_join<W>(self, other: Pairs<K, W>) -> Pairs<K, (V, Option<W>)>
    where
        V: Clone,
        W: Send + Clone,
    {
        let ctx = self.ctx;
        let left = shuffle(self.partitions, ctx);
        let right = shuffle(other.partitions, ctx);
        let right = if right.len() == left.len() {
            right
        } else {
            let flat: Vec<(K, W)> = right.into_iter().flatten().collect();
            let n = left.len().max(1);
            let mut out: Vec<Vec<(K, W)>> = (0..n).map(|_| Vec::new()).collect();
            for (k, w) in flat {
                let b = (hash_of(&k) % n as u64) as usize;
                out[b].push((k, w));
            }
            out
        };
        type Zipped<K, V, W> = Vec<(Vec<(K, V)>, Vec<(K, W)>)>;
        let zipped: Zipped<K, V, W> = left.into_iter().zip(right).collect();
        let partitions = crate::pool::run_tasks(ctx, zipped, |_, (lpart, rpart)| {
            let mut table: HashMap<K, Vec<W>> = HashMap::new();
            for (k, w) in rpart {
                table.entry(k).or_default().push(w);
            }
            let mut out = Vec::new();
            for (k, v) in lpart {
                match table.get(&k) {
                    Some(ws) if !ws.is_empty() => {
                        for w in ws {
                            out.push((k.clone(), (v.clone(), Some(w.clone()))));
                        }
                    }
                    _ => out.push((k, (v, None))),
                }
            }
            out
        });
        Pairs { partitions, ctx }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExecCtx {
        ExecCtx::new(4)
    }

    fn pairs(data: Vec<(u32, i64)>) -> Pairs<u32, i64> {
        Pairs::from_vec(data, ctx())
    }

    #[test]
    fn shuffle_colocates_keys() {
        let parts: Vec<Vec<(u32, u32)>> = (0..8).map(|p| (0..100).map(|i| (i % 10, p)).collect()).collect();
        let shuffled = shuffle(parts, ctx());
        // For each key, exactly one partition contains it.
        for key in 0..10u32 {
            let holders = shuffled
                .iter()
                .filter(|part| part.iter().any(|(k, _)| *k == key))
                .count();
            assert_eq!(holders, 1, "key {key} split across partitions");
        }
        let total: usize = shuffled.iter().map(Vec::len).sum();
        assert_eq!(total, 800);
    }

    #[test]
    fn group_by_key_collects_all_values() {
        let p = pairs(vec![(1, 10), (2, 20), (1, 11), (3, 30), (1, 12)]);
        let grouped: HashMap<_, _> = p.group_by_key().collect().into_iter().collect();
        let mut ones = grouped[&1].clone();
        ones.sort();
        assert_eq!(ones, vec![10, 11, 12]);
        assert_eq!(grouped[&2], vec![20]);
        assert_eq!(grouped.len(), 3);
    }

    #[test]
    fn reduce_by_key_matches_group_then_fold() {
        let data: Vec<(u32, i64)> = (0..1000).map(|i| (i % 7, i as i64)).collect();
        let reduced: HashMap<_, _> =
            pairs(data.clone()).reduce_by_key(|a, b| a + b).collect().into_iter().collect();
        let mut expected: HashMap<u32, i64> = HashMap::new();
        for (k, v) in data {
            *expected.entry(k).or_insert(0) += v;
        }
        assert_eq!(reduced, expected);
    }

    #[test]
    fn count_by_key_counts() {
        let data: Vec<(u32, i64)> = (0..90).map(|i| (i % 3, 0)).collect();
        let counts: HashMap<_, _> = pairs(data).count_by_key().collect().into_iter().collect();
        assert_eq!(counts[&0], 30);
        assert_eq!(counts[&1], 30);
        assert_eq!(counts[&2], 30);
    }

    #[test]
    fn join_inner_semantics() {
        let left = pairs(vec![(1, 10), (2, 20), (2, 21), (4, 40)]);
        let right = Pairs::from_vec(vec![(1, "a"), (2, "b"), (3, "c")], ctx());
        let mut joined = left.join(right).collect();
        joined.sort();
        assert_eq!(
            joined,
            vec![(1, (10, "a")), (2, (20, "b")), (2, (21, "b"))]
        );
    }

    #[test]
    fn join_produces_cross_product_per_key() {
        let left = pairs(vec![(1, 10), (1, 11)]);
        let right = Pairs::from_vec(vec![(1, "x"), (1, "y")], ctx());
        let joined = left.join(right).collect();
        assert_eq!(joined.len(), 4);
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let left = pairs(vec![(1, 10), (9, 90)]);
        let right = Pairs::from_vec(vec![(1, "a")], ctx());
        let mut joined = left.left_join(right).collect();
        joined.sort_by_key(|(k, _)| *k);
        assert_eq!(joined, vec![(1, (10, Some("a"))), (9, (90, None))]);
    }

    #[test]
    fn join_with_mismatched_partition_counts() {
        let left = Pairs::from_partitions(vec![(0..50).map(|i| (i % 5, i)).collect()], ctx());
        let right = Pairs::from_partitions(
            (0..7).map(|p| vec![(p % 5, p * 100)]).collect(),
            ctx(),
        );
        let joined = left.join(right).collect();
        assert!(!joined.is_empty());
        for (k, (_, w)) in &joined {
            assert_eq!(w / 100 % 5, *k);
        }
    }

    #[test]
    fn keys_values_projections() {
        let p = pairs(vec![(5, 50), (6, 60)]);
        let mut ks = p.clone().keys().collect();
        ks.sort();
        assert_eq!(ks, vec![5, 6]);
        let mut vs = p.values().collect();
        vs.sort();
        assert_eq!(vs, vec![50, 60]);
    }

    #[test]
    fn map_values_and_filter() {
        let p = pairs(vec![(1, 1), (2, 2), (3, 3)]);
        let out: HashMap<_, _> = p
            .map_values(|v| v * 10)
            .filter(|k, v| *k != 2 && *v > 5)
            .collect()
            .into_iter()
            .collect();
        assert_eq!(out.len(), 2);
        assert_eq!(out[&1], 10);
        assert_eq!(out[&3], 30);
    }

    #[test]
    fn dataset_key_by_feeds_pairs() {
        let d = Dataset::from_vec((0..100u32).collect(), ctx());
        let by_mod: HashMap<_, _> =
            d.key_by(|x| x % 4).count_by_key().collect().into_iter().collect();
        assert_eq!(by_mod[&0], 25);
        assert_eq!(by_mod[&3], 25);
    }
}

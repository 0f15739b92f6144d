//! In-memory backend: the default for tests, benches and the simulated
//! single-machine deployments. Holds encoded lines, not parsed values, so the
//! memory and disk backends exercise identical (de)serialization paths.

use crate::frame;
use parking_lot::RwLock;
use std::collections::HashMap;

/// ns → snapshots → partitions → encoded document lines.
type Namespaces = HashMap<String, Vec<Vec<Vec<String>>>>;

/// Thread-safe in-memory line store.
#[derive(Default)]
pub struct MemoryBackend {
    partitions: usize,
    data: RwLock<Namespaces>,
}

impl MemoryBackend {
    /// New backend with `partitions` partitions per snapshot.
    pub fn new(partitions: usize) -> Self {
        MemoryBackend {
            partitions: partitions.max(1),
            data: RwLock::new(HashMap::new()),
        }
    }

    fn empty_snapshot(&self) -> Vec<Vec<String>> {
        vec![Vec::new(); self.partitions]
    }

    /// Create the namespace with snapshot 0 if absent.
    pub fn ensure_namespace(&self, ns: &str) {
        let mut data = self.data.write();
        if !data.contains_key(ns) {
            let snap = self.empty_snapshot();
            data.insert(ns.to_string(), vec![snap]);
        }
    }

    /// Open a fresh snapshot; returns its id.
    pub fn new_snapshot(&self, ns: &str) -> u32 {
        let mut data = self.data.write();
        let snaps = data.entry(ns.to_string()).or_default();
        snaps.push(vec![Vec::new(); self.partitions]);
        (snaps.len() - 1) as u32
    }

    /// Latest snapshot id, if the namespace exists.
    pub fn latest_snapshot(&self, ns: &str) -> Option<u32> {
        self.data
            .read()
            .get(ns)
            .and_then(|s| s.len().checked_sub(1))
            .map(|i| i as u32)
    }

    /// All snapshot ids in the namespace.
    pub fn snapshots(&self, ns: &str) -> Vec<u32> {
        self.data
            .read()
            .get(ns)
            .map(|s| (0..s.len() as u32).collect())
            .unwrap_or_default()
    }

    /// Append one encoded line. Creates the namespace/snapshot on demand for
    /// snapshot 0; later snapshots must be created via [`Self::new_snapshot`].
    pub fn append(&self, ns: &str, snapshot: u32, partition: usize, line: String) -> bool {
        let mut data = self.data.write();
        let snaps = data.entry(ns.to_string()).or_default();
        if snaps.is_empty() && snapshot == 0 {
            snaps.push(vec![Vec::new(); self.partitions]);
        }
        match snaps.get_mut(snapshot as usize) {
            Some(parts) => {
                parts[partition % self.partitions.max(1)].push(line);
                true
            }
            None => false,
        }
    }

    /// Read every line of one partition.
    pub fn read_partition(&self, ns: &str, snapshot: u32, partition: usize) -> Option<Vec<String>> {
        self.data
            .read()
            .get(ns)?
            .get(snapshot as usize)?
            .get(partition)
            .cloned()
    }

    /// `(lines, framed bytes)` of one partition — what a disk log holding
    /// the same lines would measure — without copying a line.
    pub fn partition_extent(
        &self,
        ns: &str,
        snapshot: u32,
        partition: usize,
    ) -> Option<(usize, u64)> {
        let data = self.data.read();
        let lines = data.get(ns)?.get(snapshot as usize)?.get(partition)?;
        Some((
            lines.len(),
            lines.iter().map(|l| frame::frame_len(l.len())).sum(),
        ))
    }

    /// Partition count per snapshot.
    pub fn partition_count(&self) -> usize {
        self.partitions
    }

    /// All namespaces, sorted.
    pub fn namespaces(&self) -> Vec<String> {
        let mut v: Vec<String> = self.data.read().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn append_and_read_across_partitions() {
        let b = MemoryBackend::new(3);
        assert!(b.append("ns", 0, 0, "a".into()));
        assert!(b.append("ns", 0, 1, "b".into()));
        assert!(b.append("ns", 0, 4, "c".into())); // wraps to partition 1
        assert_eq!(b.read_partition("ns", 0, 0), Some(vec!["a".to_string()]));
        assert_eq!(
            b.read_partition("ns", 0, 1),
            Some(vec!["b".to_string(), "c".to_string()])
        );
        assert_eq!(b.read_partition("ns", 0, 2), Some(vec![]));
        assert_eq!(b.read_partition("other", 0, 0), None);
    }

    #[test]
    fn snapshots_are_isolated() {
        let b = MemoryBackend::new(1);
        b.append("ns", 0, 0, "old".into());
        let s1 = b.new_snapshot("ns");
        assert_eq!(s1, 1);
        b.append("ns", 1, 0, "new".into());
        assert_eq!(b.read_partition("ns", 0, 0), Some(vec!["old".to_string()]));
        assert_eq!(b.read_partition("ns", 1, 0), Some(vec!["new".to_string()]));
        assert_eq!(b.latest_snapshot("ns"), Some(1));
        assert_eq!(b.snapshots("ns"), vec![0, 1]);
    }

    #[test]
    fn append_to_missing_snapshot_fails() {
        let b = MemoryBackend::new(1);
        assert!(!b.append("ns", 5, 0, "x".into()));
    }

    #[test]
    fn concurrent_appends_lose_nothing() {
        let b = Arc::new(MemoryBackend::new(4));
        let threads = 8;
        let per = 500;
        crossbeam::thread::scope(|s| {
            for t in 0..threads {
                let b = Arc::clone(&b);
                s.spawn(move |_| {
                    for i in 0..per {
                        b.append("ns", 0, t * per + i, format!("{t}:{i}"));
                    }
                });
            }
        })
        .unwrap();
        let total: usize = (0..4)
            .map(|p| b.read_partition("ns", 0, p).unwrap().len())
            .sum();
        assert_eq!(total, threads * per);
    }
}

//! Sharded in-memory result cache with byte-budgeted LRU-approximate
//! eviction and a read-mostly hit path.
//!
//! Keys are canonical request strings (`"GET /stats"`); values are fully
//! rendered [`Response`]s. Every entry is stamped with the store's content
//! version at the time it was computed — a lookup under a newer version
//! treats the entry as absent and removes it, so **a re-crawl can never
//! serve stale results** (DESIGN.md §7).
//!
//! Shards are independent `parking_lot` RwLocks selected by FNV-1a of the
//! key. The hot path — a hit — takes only the *read* lock: recency is
//! recorded by storing a global atomic tick into the entry's
//! `last_access`, not by relinking the LRU list (which would need the
//! write lock). The previous mutex-per-shard design inverted worker
//! scaling (~70k rps at 1 worker down to ~50k at 4–8) because every hit
//! serialized on the shard mutex; with shared read locks, concurrent hits
//! on the same shard no longer contend.
//!
//! Eviction is CLOCK-style second chance: entries are linked in insertion
//! order, and the evictor walks from the tail; an entry whose
//! `last_access` moved past the tick it was last linked at has been hit
//! since — it is relinked to the front (one second chance per resident
//! entry per eviction pass) instead of evicted. Misses, inserts and
//! evictions take the write lock as before.
//!
//! The list is intrusive: entries live in a slab (`Vec<Option<Entry>>`
//! plus a free list) and carry `prev`/`next` slab indices, so relinking
//! and eviction are O(1) with no per-operation allocation.

use crate::http::Response;
use crowdnet_telemetry::{Counter, Telemetry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// "Null pointer" of the intrusive list.
const NIL: usize = usize::MAX;
/// Accounting overhead charged per entry on top of key + body bytes
/// (slab slot, map entry, headers).
const ENTRY_OVERHEAD: usize = 128;

/// Cache sizing.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total byte budget across all shards.
    pub capacity_bytes: usize,
    /// Shard count (rounded up to at least 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 16 * 1024 * 1024,
            shards: 8,
        }
    }
}

/// Point-in-time cache occupancy, summed over shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Live entries.
    pub entries: usize,
    /// Charged bytes (key + body + [`ENTRY_OVERHEAD`] per entry).
    pub bytes: usize,
    /// Total byte budget.
    pub capacity_bytes: usize,
}

struct Entry {
    key: String,
    version: u64,
    value: Response,
    cost: usize,
    /// Global tick when the entry was last (re-)linked into the list.
    linked_tick: u64,
    /// Global tick of the most recent hit; written under the *read* lock,
    /// which is why it is atomic. `> linked_tick` means "hit since linked"
    /// — the CLOCK reference bit.
    last_access: AtomicU64,
    prev: usize,
    next: usize,
}

struct Shard {
    map: HashMap<String, usize>,
    slab: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// Most-recently-linked slab index.
    head: usize,
    /// Eviction candidate end of the list.
    tail: usize,
    bytes: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            capacity,
        }
    }

    fn slot(&self, idx: usize) -> Option<&Entry> {
        self.slab.get(idx).and_then(Option::as_ref)
    }

    fn slot_mut(&mut self, idx: usize) -> Option<&mut Entry> {
        self.slab.get_mut(idx).and_then(Option::as_mut)
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = match self.slot(idx) {
            Some(e) => (e.prev, e.next),
            None => return,
        };
        match prev {
            NIL => self.head = next,
            p => {
                if let Some(e) = self.slot_mut(p) {
                    e.next = next;
                }
            }
        }
        match next {
            NIL => self.tail = prev,
            n => {
                if let Some(e) = self.slot_mut(n) {
                    e.prev = prev;
                }
            }
        }
    }

    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        if let Some(e) = self.slot_mut(idx) {
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            if let Some(e) = self.slot_mut(old_head) {
                e.prev = idx;
            }
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn remove(&mut self, idx: usize) -> Option<Entry> {
        self.unlink(idx);
        let entry = self.slab.get_mut(idx)?.take()?;
        self.map.remove(&entry.key);
        self.bytes -= entry.cost;
        self.free.push(idx);
        Some(entry)
    }

    fn insert(&mut self, entry: Entry) {
        self.bytes += entry.cost;
        let key = entry.key.clone();
        let idx = match self.free.pop().filter(|&i| i < self.slab.len()) {
            Some(i) => {
                if let Some(slot) = self.slab.get_mut(i) {
                    *slot = Some(entry);
                }
                i
            }
            None => {
                self.slab.push(Some(entry));
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Evict from the tail until under budget; returns evictions
    /// performed. CLOCK second chance: a tail entry hit since it was last
    /// linked is relinked to the front (its reference "bit" consumed by
    /// advancing `linked_tick` to `now_tick`) instead of evicted — at most
    /// once per resident entry per pass, so the sweep always terminates.
    fn evict_to_fit(&mut self, now_tick: u64) -> u64 {
        let mut evicted = 0;
        let mut second_chances = self.map.len();
        while self.bytes > self.capacity && self.tail != NIL {
            let tail = self.tail;
            let touched = self.slot(tail).is_some_and(|e| {
                e.last_access.load(Ordering::Relaxed) > e.linked_tick
            });
            if touched && second_chances > 0 {
                second_chances -= 1;
                self.unlink(tail);
                if let Some(e) = self.slot_mut(tail) {
                    e.linked_tick = now_tick;
                }
                self.push_front(tail);
            } else {
                self.remove(tail);
                evicted += 1;
            }
        }
        evicted
    }
}

/// The sharded, version-stamped result cache.
pub struct ResultCache {
    shards: Vec<parking_lot::RwLock<Shard>>,
    /// Global recency clock; bumped per hit and per insert.
    tick: AtomicU64,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    capacity_bytes: usize,
}

impl ResultCache {
    /// Build with `cfg` sizing; counters register as
    /// `serve.cache.{hit,miss,evict}` on `telemetry`.
    pub fn new(cfg: &CacheConfig, telemetry: &Telemetry) -> ResultCache {
        let shards = cfg.shards.max(1);
        let per_shard = (cfg.capacity_bytes / shards).max(1);
        ResultCache {
            shards: (0..shards)
                .map(|_| parking_lot::RwLock::new(Shard::new(per_shard)))
                .collect(),
            tick: AtomicU64::new(0),
            hits: telemetry.counter("serve.cache.hit"),
            misses: telemetry.counter("serve.cache.miss"),
            evictions: telemetry.counter("serve.cache.evict"),
            capacity_bytes: per_shard * shards,
        }
    }

    fn shard_of(&self, key: &str) -> usize {
        // FNV-1a, the same cheap hash the store uses for partitioning.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Look up `key` computed at store-content `version`. An entry stamped
    /// with a different version counts as a miss and is dropped on sight.
    /// A hit touches only the shard's read lock.
    pub fn get(&self, key: &str, version: u64) -> Option<Response> {
        let slot = self.shards.get(self.shard_of(key))?;
        {
            let shard = slot.read();
            match shard.map.get(key).and_then(|&i| shard.slot(i)) {
                Some(e) if e.version == version => {
                    let t = self.next_tick();
                    e.last_access.fetch_max(t, Ordering::Relaxed);
                    let value = e.value.clone();
                    drop(shard);
                    self.hits.inc();
                    return Some(value);
                }
                Some(_) => {} // stale: fall through to the write path
                None => {
                    drop(shard);
                    self.misses.inc();
                    return None;
                }
            }
        }
        // Version mismatch: take the write lock to drop the stale entry.
        // Re-check under it — a racing put may have refreshed the entry.
        let mut shard = slot.write();
        if let Some(&idx) = shard.map.get(key) {
            match shard.slot(idx) {
                Some(e) if e.version == version => {
                    let t = self.next_tick();
                    e.last_access.fetch_max(t, Ordering::Relaxed);
                    let value = e.value.clone();
                    drop(shard);
                    self.hits.inc();
                    return Some(value);
                }
                _ => {
                    shard.remove(idx);
                }
            }
        }
        drop(shard);
        self.misses.inc();
        None
    }

    /// Insert `key → value` stamped with `version`. Values whose charged
    /// cost exceeds a whole shard's budget are not cached at all (they
    /// would evict everything and then be evicted themselves).
    pub fn put(&self, key: &str, version: u64, value: Response) {
        let cost = key.len() + value.body.len() + ENTRY_OVERHEAD;
        let Some(slot) = self.shards.get(self.shard_of(key)) else {
            return;
        };
        let mut shard = slot.write();
        if cost > shard.capacity {
            return;
        }
        if let Some(&old) = shard.map.get(key) {
            shard.remove(old);
        }
        let now_tick = self.next_tick();
        shard.insert(Entry {
            key: key.to_string(),
            version,
            value,
            cost,
            linked_tick: now_tick,
            last_access: AtomicU64::new(now_tick),
            prev: NIL,
            next: NIL,
        });
        let evicted = shard.evict_to_fit(now_tick);
        drop(shard);
        if evicted > 0 {
            self.evictions.add(evicted);
        }
    }

    /// Occupancy summed over shards.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut bytes = 0;
        for slot in &self.shards {
            let shard = slot.read();
            entries += shard.map.len();
            bytes += shard.bytes;
        }
        CacheStats {
            entries,
            bytes,
            capacity_bytes: self.capacity_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(body: &str) -> Response {
        Response {
            status: 200,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn cache(capacity: usize, shards: usize) -> (ResultCache, Telemetry) {
        let t = Telemetry::new();
        let c = ResultCache::new(
            &CacheConfig {
                capacity_bytes: capacity,
                shards,
            },
            &t,
        );
        (c, t)
    }

    #[test]
    fn get_put_roundtrip_and_counters() {
        let (c, t) = cache(1 << 20, 4);
        assert!(c.get("GET /a", 1).is_none());
        c.put("GET /a", 1, resp("hello"));
        assert_eq!(c.get("GET /a", 1).unwrap().body, b"hello");
        assert_eq!(t.counter("serve.cache.hit").value(), 1);
        assert_eq!(t.counter("serve.cache.miss").value(), 1);
    }

    #[test]
    fn version_mismatch_is_a_miss_and_drops_the_entry() {
        let (c, t) = cache(1 << 20, 1);
        c.put("k", 1, resp("v1"));
        assert!(c.get("k", 2).is_none());
        assert_eq!(c.stats().entries, 0);
        // Even asking for the original version misses now.
        assert!(c.get("k", 1).is_none());
        assert_eq!(t.counter("serve.cache.hit").value(), 0);
        assert_eq!(t.counter("serve.cache.miss").value(), 2);
    }

    #[test]
    fn lru_evicts_least_recent_first() {
        // One shard; room for ~2 entries of this size.
        let (c, t) = cache(2 * (1 + 4 + ENTRY_OVERHEAD), 1);
        c.put("a", 1, resp("aaaa"));
        c.put("b", 1, resp("bbbb"));
        // Touch "a" so "b" is the eviction victim.
        assert!(c.get("a", 1).is_some());
        c.put("c", 1, resp("cccc"));
        assert!(c.get("b", 1).is_none(), "LRU entry should be evicted");
        assert!(c.get("a", 1).is_some());
        assert!(c.get("c", 1).is_some());
        assert_eq!(t.counter("serve.cache.evict").value(), 1);
    }

    #[test]
    fn hits_do_not_take_the_write_lock() {
        // A held read lock would deadlock a hit that needed the write
        // lock; it must not block the read-only hit path.
        let (c, _t) = cache(1 << 20, 1);
        c.put("k", 1, resp("v"));
        let slot = c.shards.first().unwrap();
        let _read_guard = slot.read();
        assert_eq!(c.get("k", 1).unwrap().body, b"v");
    }

    #[test]
    fn second_chance_spares_entries_hit_since_linked() {
        // Room for 3 entries; hit "p" and "q", then overflow: the
        // untouched "r" must be the victim even though it is not the
        // list tail's natural LRU order after relinks.
        let (c, t) = cache(3 * (1 + 2 + ENTRY_OVERHEAD), 1);
        c.put("p", 1, resp("xy"));
        c.put("q", 1, resp("xy"));
        c.put("r", 1, resp("xy"));
        assert!(c.get("p", 1).is_some());
        assert!(c.get("q", 1).is_some());
        c.put("s", 1, resp("xy"));
        assert!(c.get("p", 1).is_some(), "hit entry evicted");
        assert!(c.get("q", 1).is_some(), "hit entry evicted");
        assert!(c.get("s", 1).is_some(), "fresh insert evicted");
        assert!(c.get("r", 1).is_none(), "untouched entry should go first");
        assert_eq!(t.counter("serve.cache.evict").value(), 1);
    }

    #[test]
    fn oversized_values_are_not_cached() {
        let (c, _t) = cache(256, 1);
        c.put("big", 1, resp(&"x".repeat(1024)));
        assert_eq!(c.stats().entries, 0);
        assert!(c.get("big", 1).is_none());
    }

    #[test]
    fn overwrite_replaces_in_place() {
        let (c, _t) = cache(1 << 20, 2);
        c.put("k", 1, resp("old"));
        c.put("k", 1, resp("new"));
        assert_eq!(c.get("k", 1).unwrap().body, b"new");
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let (c, _t) = cache(3 * (1 + 2 + ENTRY_OVERHEAD), 1);
        for round in 0..10u64 {
            for k in ["p", "q", "r", "s"] {
                c.put(k, round, resp("xy"));
            }
        }
        let stats = c.stats();
        assert!(stats.entries <= 3);
        assert!(stats.bytes <= stats.capacity_bytes);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let (c, _t) = cache(1 << 16, 8);
        let c = std::sync::Arc::new(c);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..500u64 {
                        let key = format!("k{}", (t * 7 + i) % 50);
                        if c.get(&key, i % 3).is_none() {
                            c.put(&key, i % 3, resp("payload"));
                        }
                    }
                });
            }
        });
        let stats = c.stats();
        assert!(stats.bytes <= stats.capacity_bytes);
    }
}

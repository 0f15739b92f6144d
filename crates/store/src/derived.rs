//! Values derived from a store's content, memoised per store version.
//!
//! [`Store::derived`](crate::Store::derived) keeps one value per
//! [`DerivedKey`] and value type, tagged with the store version read
//! before the value was built. A lookup at the same version returns the
//! shared value; any write moves the version and the next lookup rebuilds.
//! Errors are never memoised, and the memo's lock is never held while a
//! value is built, so a builder may itself ask for other derived values.

use parking_lot::Mutex;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Names one derived value: a name plus a digest of every parameter the
/// value depends on besides the store's content (a model's K, seed, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DerivedKey {
    name: &'static str,
    params: u64,
}

impl DerivedKey {
    /// A key with no parameters.
    pub const fn new(name: &'static str) -> DerivedKey {
        DerivedKey {
            name,
            params: FNV_OFFSET,
        }
    }

    /// Fold one parameter into the digest (FNV-1a over its bytes). Floats
    /// go in as `f64::to_bits`.
    pub fn with(mut self, param: u64) -> DerivedKey {
        for b in param.to_le_bytes() {
            self.params = (self.params ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self
    }
}

type Slot = (DerivedKey, TypeId);

struct Entry {
    version: u64,
    value: Arc<dyn Any + Send + Sync>,
}

/// The memo itself: one entry per (key, value type).
#[derive(Default)]
pub(crate) struct DerivedMemo {
    entries: Mutex<HashMap<Slot, Entry>>,
}

impl DerivedMemo {
    /// The value stored for `T` under `key` at `version`, if any. Entries
    /// tagged with an older version are removed first and dropped after
    /// the lock is released.
    pub(crate) fn get<T: Any + Send + Sync>(
        &self,
        key: DerivedKey,
        version: u64,
    ) -> Option<Arc<T>> {
        let (found, stale) = {
            let mut entries = self.entries.lock();
            let old: Vec<Slot> = entries
                .iter()
                .filter(|(_, e)| e.version < version)
                .map(|(slot, _)| *slot)
                .collect();
            let stale: Vec<Entry> = old.iter().filter_map(|slot| entries.remove(slot)).collect();
            let found = entries
                .get(&(key, TypeId::of::<T>()))
                .filter(|e| e.version == version)
                .map(|e| Arc::clone(&e.value));
            (found, stale)
        };
        drop(stale);
        found.and_then(|value| value.downcast::<T>().ok())
    }

    /// Store `value` as built at `version`, unless a racing builder
    /// already stored one built at a later version.
    pub(crate) fn put<T: Any + Send + Sync>(&self, key: DerivedKey, version: u64, value: Arc<T>) {
        let mut entries = self.entries.lock();
        let slot = (key, TypeId::of::<T>());
        if entries.get(&slot).is_some_and(|e| e.version > version) {
            return;
        }
        let replaced = entries.insert(slot, Entry { version, value });
        drop(entries);
        drop(replaced);
    }

    /// Values currently held (any version).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().len()
    }
}

//! Bounded changefeed over store appends.
//!
//! A [`Subscription`] delivers every committed write — one
//! [`ChangeEvent`] per appended document or opened snapshot, stamped
//! with the [`Store::version`](crate::Store::version) the write
//! produced — to an incremental consumer (the ingest tier's artifact
//! maintainers) without the consumer polling `version()` and rescanning.
//!
//! # Overflow policy (the contract)
//!
//! Each subscription owns a queue bounded at the capacity it asked for.
//! When a publish finds the queue full, the feed **clears the whole
//! queue and discards the new event too**, recording how many events
//! vanished. The next [`Subscription::poll`] then reports
//! [`FeedPoll::Lagged`] *before* any event published after the gap, so
//! a consumer can never silently apply a post-gap delta to pre-gap
//! state. A lagged consumer recovers by a **catch-up scan**: rebuild
//! derived state from [`Store::scan_partitions`](crate::Store::scan_partitions)
//! at the current version, then resume draining, skipping events at or
//! below the rebuilt version. Memory is therefore bounded by
//! `capacity × subscribers` regardless of how far a consumer falls
//! behind — the feed never buffers unboundedly and never blocks a
//! writer.
//!
//! Events carry the version assigned by the triggering write. With a
//! single writer they arrive in strictly increasing version order;
//! concurrent writers may interleave publishes, so consumers treat the
//! version stamp, not arrival order, as authoritative (the ingest
//! engine skips any event at or below its applied version).

use crate::doc::Document;
use crate::store::SnapshotId;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What changed in the store.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangePayload {
    /// A document was appended to `snapshot`.
    Append(Document),
    /// A fresh snapshot was opened (subsequent appends target it).
    NewSnapshot,
}

/// One committed store mutation, as delivered to subscribers.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeEvent {
    /// The store version this write produced (see [`crate::Store::version`]).
    pub version: u64,
    /// Namespace the write targeted.
    pub namespace: String,
    /// Snapshot the write targeted (for [`ChangePayload::NewSnapshot`],
    /// the id of the snapshot that was opened).
    pub snapshot: SnapshotId,
    /// Length of the appended document's encoded line
    /// ([`Document::encode`]), as the write computed it — its framed log
    /// size is [`crate::frame::frame_len`] of this. 0 for
    /// [`ChangePayload::NewSnapshot`].
    pub encoded_len: u64,
    /// The mutation itself.
    pub payload: ChangePayload,
}

/// Result of one [`Subscription::poll`].
#[derive(Debug, Clone, PartialEq)]
pub enum FeedPoll {
    /// The next buffered event.
    Event(ChangeEvent),
    /// The queue overflowed since the last poll: `dropped` events were
    /// discarded. The consumer must perform a catch-up scan before
    /// applying any further events.
    Lagged {
        /// Number of events discarded by the overflow policy.
        dropped: u64,
    },
    /// Nothing buffered.
    Empty,
}

struct SubQueue {
    events: VecDeque<ChangeEvent>,
    /// Events discarded since the last `Lagged` delivery; reported (and
    /// reset) by the next poll before any post-gap event.
    pending_lag: u64,
}

struct SubShared {
    queue: Mutex<SubQueue>,
    capacity: usize,
    closed: AtomicBool,
    dropped_total: AtomicU64,
}

/// A bounded subscription to a store's changefeed.
///
/// Obtained from [`crate::Store::subscribe`]; dropping it detaches the
/// consumer (the publisher garbage-collects closed subscriptions on the
/// next write).
pub struct Subscription {
    shared: Arc<SubShared>,
}

impl Subscription {
    /// Take the next item without blocking.
    pub fn poll(&self) -> FeedPoll {
        let mut q = self.shared.queue.lock();
        if q.pending_lag > 0 {
            let dropped = q.pending_lag;
            q.pending_lag = 0;
            return FeedPoll::Lagged { dropped };
        }
        match q.events.pop_front() {
            Some(ev) => FeedPoll::Event(ev),
            None => FeedPoll::Empty,
        }
    }

    /// Events currently buffered and not yet polled — the consumer's lag.
    pub fn lag(&self) -> usize {
        self.shared.queue.lock().events.len()
    }

    /// Total events discarded by the overflow policy over the
    /// subscription's lifetime.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped_total.load(Ordering::Relaxed)
    }

    /// The bound this subscription was opened with.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
    }
}

/// Publisher side of the feed, owned by the [`crate::Store`].
pub(crate) struct FeedHub {
    subs: Mutex<Vec<Arc<SubShared>>>,
}

impl FeedHub {
    pub(crate) fn new() -> FeedHub {
        FeedHub {
            subs: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn subscribe(&self, capacity: usize) -> Subscription {
        let shared = Arc::new(SubShared {
            queue: Mutex::new(SubQueue {
                events: VecDeque::with_capacity(capacity.max(1)),
                pending_lag: 0,
            }),
            capacity: capacity.max(1),
            closed: AtomicBool::new(false),
            dropped_total: AtomicU64::new(0),
        });
        self.subs.lock().push(Arc::clone(&shared));
        Subscription { shared }
    }

    /// Cheap check so writers skip the event clone when nobody listens.
    pub(crate) fn has_subscribers(&self) -> bool {
        !self.subs.lock().is_empty()
    }

    /// Deliver `event` to every live subscription, applying the
    /// overflow policy per subscriber.
    pub(crate) fn publish(&self, event: ChangeEvent) {
        let mut subs = self.subs.lock();
        subs.retain(|s| !s.closed.load(Ordering::Acquire));
        for shared in subs.iter() {
            let mut q = shared.queue.lock();
            if q.events.len() >= shared.capacity {
                let discarded = q.events.len() as u64 + 1;
                q.events.clear();
                q.pending_lag += discarded;
                shared.dropped_total.fetch_add(discarded, Ordering::Relaxed);
            } else {
                q.events.push_back(event.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Store;
    use crowdnet_json::obj;

    fn doc(i: usize) -> Document {
        Document::new(format!("k:{i}"), obj! {"i" => i})
    }

    #[test]
    fn events_carry_versions_namespaces_and_docs() {
        let s = Store::memory(2);
        let sub = s.subscribe(16);
        s.put("ns", doc(1)).unwrap();
        let snap = s.new_snapshot("ns").unwrap();
        s.put("ns", doc(2)).unwrap();
        match sub.poll() {
            FeedPoll::Event(ev) => {
                assert_eq!(ev.version, 1);
                assert_eq!(ev.namespace, "ns");
                assert_eq!(ev.snapshot, SnapshotId(0));
                assert_eq!(ev.payload, ChangePayload::Append(doc(1)));
            }
            other => panic!("expected append event, got {other:?}"),
        }
        match sub.poll() {
            FeedPoll::Event(ev) => {
                assert_eq!(ev.version, 2);
                assert_eq!(ev.snapshot, snap);
                assert_eq!(ev.payload, ChangePayload::NewSnapshot);
            }
            other => panic!("expected snapshot event, got {other:?}"),
        }
        match sub.poll() {
            FeedPoll::Event(ev) => {
                assert_eq!(ev.version, 3);
                assert_eq!(ev.snapshot, snap);
            }
            other => panic!("expected append event, got {other:?}"),
        }
        assert_eq!(sub.poll(), FeedPoll::Empty);
    }

    #[test]
    fn overflow_clears_queue_and_reports_lag_before_new_events() {
        let s = Store::memory(2);
        let sub = s.subscribe(4);
        for i in 0..5 {
            s.put("ns", doc(i)).unwrap(); // fifth write overflows
        }
        s.put("ns", doc(99)).unwrap(); // post-gap event
        assert_eq!(sub.lag(), 1, "queue holds only the post-gap event");
        assert_eq!(sub.poll(), FeedPoll::Lagged { dropped: 5 });
        match sub.poll() {
            FeedPoll::Event(ev) => assert_eq!(ev.version, 6),
            other => panic!("expected post-gap event, got {other:?}"),
        }
        assert_eq!(sub.dropped(), 5);
    }

    #[test]
    fn lag_counts_buffered_events_and_drop_detaches() {
        let s = Store::memory(2);
        let sub = s.subscribe(8);
        s.put("ns", doc(1)).unwrap();
        s.put("ns", doc(2)).unwrap();
        assert_eq!(sub.lag(), 2);
        drop(sub);
        // Publishing after the subscriber is gone reaps it.
        s.put("ns", doc(3)).unwrap();
        assert!(!s.feed_has_subscribers());
    }

    #[test]
    fn failed_writes_publish_nothing() {
        let s = Store::memory(2);
        let sub = s.subscribe(8);
        s.put("ns", doc(0)).unwrap();
        assert!(s.put_snapshot("ns", SnapshotId(9), doc(1)).is_err());
        assert!(matches!(sub.poll(), FeedPoll::Event(_)));
        assert_eq!(sub.poll(), FeedPoll::Empty);
    }
}

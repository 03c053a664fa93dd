//! Garbage collection of obsolete versions (§2.3).
//!
//! Every update or delete eventually turns the old version into garbage: once
//! its end timestamp is older than the begin timestamp of every active
//! transaction it can no longer be visible to anyone and may be unlinked from
//! the indexes and reclaimed. Aborted transactions' new versions become
//! garbage immediately (their Begin field is set to infinity so they are
//! invisible), but they are reclaimed under the same watermark rule so that a
//! transaction that speculatively read them can never observe freed memory.
//!
//! Collection is *cooperative*: worker threads push garbage onto one FIFO
//! queue as part of postprocessing and periodically run a bounded collection
//! step ([`MvStore::collect_garbage`](crate::store::MvStore::collect_garbage))
//! that drains the queue from its head. Items arrive in postprocessing order,
//! which is end-timestamp order apart from the few commits in flight at the
//! same moment, so the step stops at the first head that is not yet
//! reclaimable: that holds an item back only until the one in front of it
//! becomes reclaimable too.

use std::collections::VecDeque;

use parking_lot::Mutex;

use mmdb_common::ids::{TableId, Timestamp};

use crate::table::VersionPtr;

/// One piece of garbage: a version that is obsolete once the watermark passes
/// `reclaimable_at`.
#[derive(Debug, Clone, Copy)]
pub struct GcItem {
    /// Table the version belongs to.
    pub table: TableId,
    /// The obsolete version.
    pub version: VersionPtr,
    /// The version may be reclaimed once every active transaction began after
    /// this timestamp.
    pub reclaimable_at: Timestamp,
}

/// The not-yet-reclaimed garbage, oldest first.
#[derive(Debug, Default)]
pub struct GcQueue {
    queue: Mutex<VecDeque<GcItem>>,
}

impl GcQueue {
    /// Create an empty queue.
    pub fn new() -> GcQueue {
        GcQueue::default()
    }

    /// Enqueue a piece of garbage at the back.
    pub fn push(&self, item: GcItem) {
        self.queue.lock().push_back(item);
    }

    /// Dequeue the head if it is reclaimable under `watermark`
    /// (`reclaimable_at < watermark`); otherwise leave the queue as it is.
    pub fn pop_before(&self, watermark: Timestamp) -> Option<GcItem> {
        let mut queue = self.queue.lock();
        if queue.front()?.reclaimable_at < watermark {
            queue.pop_front()
        } else {
            None
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use crossbeam::epoch;
    use mmdb_common::row::{rowbuf, TableSpec};
    use mmdb_common::INFINITY_TS;

    fn some_version_ptr() -> VersionPtr {
        // Build a real version through a throwaway table so the pointer is a
        // valid allocation (the queue itself never dereferences it).
        let table = Table::new(TableId(0), TableSpec::keyed_u64("t", 4)).unwrap();
        let guard = epoch::pin();
        table.link_version(
            table
                .make_committed_version(Timestamp(1), rowbuf::keyed_row(1, 16, 0))
                .unwrap(),
            &guard,
        )
        // NOTE: the Table is dropped here and frees the version; tests below
        // only compare queue bookkeeping, never dereference.
    }

    #[test]
    fn pop_before_drains_the_reclaimable_prefix_in_push_order() {
        let q = GcQueue::new();
        assert!(q.is_empty());
        assert!(q.pop_before(INFINITY_TS).is_none());
        let ptr = some_version_ptr();
        for i in 0..10u64 {
            q.push(GcItem {
                table: TableId(0),
                version: ptr,
                reclaimable_at: Timestamp(i),
            });
        }
        assert_eq!(q.len(), 10);
        let mut popped = Vec::new();
        while let Some(item) = q.pop_before(Timestamp(5)) {
            popped.push(item.reclaimable_at.raw());
        }
        assert_eq!(popped, [0, 1, 2, 3, 4], "exactly the prefix below 5");
        assert_eq!(q.len(), 5, "a head at the watermark stays queued");
        assert!(q.pop_before(Timestamp(5)).is_none());
        while let Some(item) = q.pop_before(INFINITY_TS) {
            popped.push(item.reclaimable_at.raw());
        }
        assert_eq!(popped, (0..10).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn concurrent_producers_consumers_balance() {
        use std::sync::Arc;
        let q = Arc::new(GcQueue::new());
        let ptr = some_version_ptr();
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        q.push(GcItem {
                            table: TableId(1),
                            version: ptr,
                            reclaimable_at: Timestamp(i),
                        });
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(q.len(), 2000);
        assert!(
            q.pop_before(Timestamp::ZERO).is_none(),
            "nothing is reclaimable below zero"
        );
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut n = 0usize;
                    while q.pop_before(INFINITY_TS).is_some() {
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 2000);
        assert!(q.is_empty());
    }
}

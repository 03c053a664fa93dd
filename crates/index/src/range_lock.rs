//! Range locks: §4.1.2 bucket locks generalized to ordered-index predicates.
//!
//! A serializable pessimistic transaction that range-scans an ordered index
//! cannot lock "the bucket it scanned" — a skip list has no buckets. Instead
//! it locks the scanned predicate `[lo, hi]` itself. As with bucket locks,
//! the lock does **not** block inserters; it only forces an inserter whose
//! key falls inside a locked range to take a *wait-for dependency* on every
//! holder, so the insert cannot precommit (and thus cannot become visible)
//! until the scanners have committed or aborted.
//!
//! Mirroring [`crate::BucketLockTable`]'s `LockCount` fast path, the table
//! keeps one atomic count of live range locks per index: the inserter's hot
//! path ("is anyone range-locking this index at all?") is a single load, and
//! only when it is non-zero does the inserter take the mutex to intersect
//! its key with the held ranges. Ranges are kept in a flat vector — scan
//! predicates per index are few (one entry per live serializable scanner),
//! so linear intersection beats an interval tree at this scale.

use std::sync::atomic::{AtomicU32, Ordering};

use parking_lot::Mutex;

use mmdb_common::ids::{Key, TxnId};

/// One held range lock.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RangeLock {
    lo: Key,
    hi: Key,
    txn: TxnId,
}

/// Range-lock table for one ordered index.
pub struct RangeLockTable {
    /// Number of range locks currently held on this index (the fast path).
    count: AtomicU32,
    /// The held ranges. Guarded by a plain mutex: entries exist only while a
    /// serializable scanner is live, and inserters consult the list only
    /// when `count` is non-zero.
    ranges: Mutex<Vec<RangeLock>>,
}

impl RangeLockTable {
    /// Create an empty range-lock table.
    pub fn new() -> Self {
        RangeLockTable {
            count: AtomicU32::new(0),
            ranges: Mutex::new(Vec::new()),
        }
    }

    /// Acquire a lock on the inclusive range `[lo, hi]` for `txn`. Multiple
    /// transactions can lock overlapping ranges; the same transaction may
    /// lock the same range repeatedly (re-scans) — duplicates are not added.
    ///
    /// Returns `true` if this call actually added an entry.
    pub fn lock(&self, lo: Key, hi: Key, txn: TxnId) -> bool {
        let entry = RangeLock { lo, hi, txn };
        let mut ranges = self.ranges.lock();
        if ranges.contains(&entry) {
            return false;
        }
        ranges.push(entry);
        self.count.fetch_add(1, Ordering::Release);
        true
    }

    /// Release `txn`'s lock on `[lo, hi]`. Idempotent: releasing a lock that
    /// is not held is a no-op.
    pub fn unlock(&self, lo: Key, hi: Key, txn: TxnId) {
        let entry = RangeLock { lo, hi, txn };
        let mut ranges = self.ranges.lock();
        if let Some(pos) = ranges.iter().position(|r| *r == entry) {
            ranges.swap_remove(pos);
            self.count.fetch_sub(1, Ordering::Release);
        }
    }

    /// Release every lock held by `txn` (commit/abort cleanup).
    pub fn unlock_all(&self, txn: TxnId) {
        let mut ranges = self.ranges.lock();
        let before = ranges.len();
        ranges.retain(|r| r.txn != txn);
        let removed = (before - ranges.len()) as u32;
        if removed > 0 {
            self.count.fetch_sub(removed, Ordering::Release);
        }
    }

    /// Fast check: does anyone hold a range lock on this index?
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.count.load(Ordering::Acquire) > 0
    }

    /// Number of range locks currently held.
    #[inline]
    pub fn lock_count(&self) -> u32 {
        self.count.load(Ordering::Acquire)
    }

    /// Append a snapshot of the transactions whose locked range contains
    /// `key` to `out` (the caller's reusable buffer), each once. An inserter
    /// uses this to take wait-for dependencies on every holder (§4.2.2
    /// generalized); as with bucket locks the snapshot may be slightly
    /// stale, and the wait-for installation re-checks each holder's state.
    pub fn holders_of_into(&self, key: Key, out: &mut Vec<TxnId>) {
        let start = out.len();
        let ranges = self.ranges.lock();
        for range in ranges.iter().filter(|r| r.lo <= key && key <= r.hi) {
            if !out[start..].contains(&range.txn) {
                out.push(range.txn);
            }
        }
    }
}

impl Default for RangeLockTable {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for RangeLockTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RangeLockTable")
            .field("held", &self.lock_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    impl RangeLockTable {
        fn holders_of(&self, key: Key) -> Vec<TxnId> {
            let mut out = Vec::new();
            self.holders_of_into(key, &mut out);
            out.sort_unstable_by_key(|t| t.0);
            out
        }
    }

    #[test]
    fn lock_unlock_roundtrip() {
        let table = RangeLockTable::new();
        assert!(!table.is_locked());
        assert!(table.lock(10, 20, TxnId(1)));
        assert!(table.is_locked());
        assert_eq!(table.lock_count(), 1);
        assert_eq!(table.holders_of(15), vec![TxnId(1)]);
        assert_eq!(table.holders_of(10), vec![TxnId(1)], "lo is inclusive");
        assert_eq!(table.holders_of(20), vec![TxnId(1)], "hi is inclusive");
        assert!(table.holders_of(9).is_empty());
        assert!(table.holders_of(21).is_empty());
        table.unlock(10, 20, TxnId(1));
        assert!(!table.is_locked());
    }

    #[test]
    fn overlapping_ranges_and_dedup() {
        let table = RangeLockTable::new();
        assert!(table.lock(0, 50, TxnId(1)));
        assert!(table.lock(40, 90, TxnId(2)));
        assert!(table.lock(45, 45, TxnId(1)));
        assert_eq!(table.lock_count(), 3);
        // Key 45 is covered by all three entries, but txn 1 appears once.
        assert_eq!(table.holders_of(45), vec![TxnId(1), TxnId(2)]);
        assert_eq!(table.holders_of(10), vec![TxnId(1)]);
        assert_eq!(table.holders_of(80), vec![TxnId(2)]);
    }

    #[test]
    fn relocking_same_range_is_idempotent() {
        let table = RangeLockTable::new();
        assert!(table.lock(5, 9, TxnId(7)));
        assert!(!table.lock(5, 9, TxnId(7)));
        assert_eq!(table.lock_count(), 1);
        table.unlock(5, 9, TxnId(7));
        assert_eq!(table.lock_count(), 0);
    }

    #[test]
    fn unlock_all_releases_every_range_of_a_txn() {
        let table = RangeLockTable::new();
        table.lock(0, 9, TxnId(1));
        table.lock(20, 29, TxnId(1));
        table.lock(5, 25, TxnId(2));
        table.unlock_all(TxnId(1));
        assert_eq!(table.lock_count(), 1);
        assert_eq!(table.holders_of(7), vec![TxnId(2)]);
        table.unlock_all(TxnId(2));
        assert!(!table.is_locked());
        // Releasing for a txn holding nothing is a no-op.
        table.unlock_all(TxnId(3));
        assert_eq!(table.lock_count(), 0);
    }

    #[test]
    fn unlocking_unheld_range_is_noop() {
        let table = RangeLockTable::new();
        table.unlock(1, 2, TxnId(9));
        assert_eq!(table.lock_count(), 0);
        table.lock(1, 2, TxnId(1));
        table.unlock(1, 2, TxnId(9));
        assert_eq!(table.lock_count(), 1);
    }

    #[test]
    fn concurrent_lock_unlock_is_consistent() {
        let table = Arc::new(RangeLockTable::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let table = Arc::clone(&table);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let lo = (t * 10 + i) % 64;
                    table.lock(lo, lo + 5, TxnId(t + 1));
                    assert!(table.lock_count() >= 1);
                    table.unlock(lo, lo + 5, TxnId(t + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(table.lock_count(), 0);
        assert!(table.holders_of(32).is_empty());
    }
}

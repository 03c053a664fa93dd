//! Bucket locks for phantom protection in the pessimistic scheme (§4.1.2).
//!
//! A serializable pessimistic transaction locks every hash bucket it scans.
//! A bucket lock does **not** prevent other transactions from inserting new
//! versions into the bucket; it only prevents those insertions from becoming
//! visible to the scanner: an inserter must take a *wait-for dependency* on
//! every transaction holding a lock on the bucket and may not precommit until
//! those locks are released (§4.2.2).
//!
//! Per the paper, the implementation keeps a `LockCount` per bucket (so the
//! hot-path check "is this bucket locked at all?" is a single atomic load)
//! and the `LockList` of holding transactions in a separate sharded hash
//! table keyed by bucket number.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

use parking_lot::Mutex;

use mmdb_common::ids::TxnId;

/// Number of shards for the lock-list side table.
const LIST_SHARDS: usize = 32;

/// Emptied lock lists a shard keeps for reuse.
const SPARE_LISTS: usize = 4;

/// One shard of the `LockList` map.
#[derive(Default)]
struct LockLists {
    /// Bucket number → lock-holding transactions.
    held: HashMap<usize, Vec<TxnId>>,
    /// Storage of lists whose bucket became unlocked, so that locking the
    /// next bucket allocates nothing (a serializable scan locks and unlocks
    /// a bucket per lookup).
    spare: Vec<Vec<TxnId>>,
}

/// Bucket-lock table for one hash index.
pub struct BucketLockTable {
    /// `LockCount` per bucket: number of serializable transactions currently
    /// holding a lock on the bucket.
    counts: Box<[AtomicU32]>,
    /// `LockList` per locked bucket, sharded by bucket number.
    lists: Box<[Mutex<LockLists>]>,
}

impl BucketLockTable {
    /// Create a lock table covering `bucket_count` buckets.
    pub fn new(bucket_count: usize) -> Self {
        let counts = (0..bucket_count)
            .map(|_| AtomicU32::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let lists = (0..LIST_SHARDS)
            .map(|_| Mutex::new(LockLists::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        BucketLockTable { counts, lists }
    }

    #[inline]
    fn shard(&self, bucket: usize) -> &Mutex<LockLists> {
        &self.lists[bucket % LIST_SHARDS]
    }

    /// Number of buckets covered.
    #[inline]
    pub fn bucket_count(&self) -> usize {
        self.counts.len()
    }

    /// Acquire a lock on `bucket` for `txn`. Multiple transactions can hold
    /// the same bucket locked; the same transaction may call this repeatedly
    /// (re-scans) — duplicates are not added to the lock list.
    ///
    /// Returns `true` if this call actually added the transaction to the
    /// lock list (i.e. it did not already hold the bucket).
    pub fn lock(&self, bucket: usize, txn: TxnId) -> bool {
        let mut shard = self.shard(bucket).lock();
        let LockLists { held, spare } = &mut *shard;
        let list = held
            .entry(bucket)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        if list.contains(&txn) {
            return false;
        }
        list.push(txn);
        self.counts[bucket].fetch_add(1, Ordering::Release);
        true
    }

    /// Release `txn`'s lock on `bucket`. Idempotent: releasing a lock that is
    /// not held is a no-op (this can happen if an abort races with normal
    /// release).
    pub fn unlock(&self, bucket: usize, txn: TxnId) {
        let mut shard = self.shard(bucket).lock();
        let LockLists { held, spare } = &mut *shard;
        if let Some(list) = held.get_mut(&bucket) {
            if let Some(pos) = list.iter().position(|t| *t == txn) {
                list.swap_remove(pos);
                self.counts[bucket].fetch_sub(1, Ordering::Release);
                if list.is_empty() {
                    let list = held.remove(&bucket).expect("present above");
                    if spare.len() < SPARE_LISTS {
                        spare.push(list);
                    }
                }
            }
        }
    }

    /// Fast check: is the bucket locked by anyone?
    #[inline]
    pub fn is_locked(&self, bucket: usize) -> bool {
        self.counts[bucket].load(Ordering::Acquire) > 0
    }

    /// Current `LockCount` of the bucket.
    #[inline]
    pub fn lock_count(&self, bucket: usize) -> u32 {
        self.counts[bucket].load(Ordering::Acquire)
    }

    /// Append a snapshot of the transactions holding a lock on `bucket` to
    /// `out` (the caller's reusable buffer: the inserter's hot path
    /// allocates nothing).
    ///
    /// An inserter uses this to take wait-for dependencies on every holder
    /// (§4.2.2). The snapshot may be slightly stale by the time the caller
    /// uses it; the wait-for installation re-checks each holder's state.
    pub fn holders_into(&self, bucket: usize, out: &mut Vec<TxnId>) {
        let shard = self.shard(bucket).lock();
        if let Some(list) = shard.held.get(&bucket) {
            out.extend_from_slice(list);
        }
    }
}

impl std::fmt::Debug for BucketLockTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let locked: usize = (0..self.counts.len())
            .filter(|&b| self.is_locked(b))
            .count();
        f.debug_struct("BucketLockTable")
            .field("buckets", &self.counts.len())
            .field("locked_buckets", &locked)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    impl BucketLockTable {
        fn holders(&self, bucket: usize) -> Vec<TxnId> {
            let mut out = Vec::new();
            self.holders_into(bucket, &mut out);
            out
        }
    }

    #[test]
    fn lock_unlock_roundtrip() {
        let table = BucketLockTable::new(8);
        assert!(!table.is_locked(3));
        assert!(table.lock(3, TxnId(1)));
        assert!(table.is_locked(3));
        assert_eq!(table.lock_count(3), 1);
        assert_eq!(table.holders(3), vec![TxnId(1)]);
        table.unlock(3, TxnId(1));
        assert!(!table.is_locked(3));
        assert!(table.holders(3).is_empty());
    }

    #[test]
    fn multiple_holders_coexist() {
        let table = BucketLockTable::new(4);
        assert!(table.lock(0, TxnId(1)));
        assert!(table.lock(0, TxnId(2)));
        assert!(table.lock(0, TxnId(3)));
        assert_eq!(table.lock_count(0), 3);
        table.unlock(0, TxnId(2));
        let mut holders = table.holders(0);
        holders.sort_by_key(|t| t.0);
        assert_eq!(holders, vec![TxnId(1), TxnId(3)]);
    }

    #[test]
    fn relocking_is_idempotent() {
        let table = BucketLockTable::new(4);
        assert!(table.lock(1, TxnId(7)));
        assert!(
            !table.lock(1, TxnId(7)),
            "second lock by same txn must not double-count"
        );
        assert_eq!(table.lock_count(1), 1);
        table.unlock(1, TxnId(7));
        assert_eq!(table.lock_count(1), 0);
    }

    #[test]
    fn unlocking_unheld_bucket_is_noop() {
        let table = BucketLockTable::new(4);
        table.unlock(2, TxnId(9));
        assert_eq!(table.lock_count(2), 0);
        table.lock(2, TxnId(1));
        table.unlock(2, TxnId(9));
        assert_eq!(table.lock_count(2), 1);
    }

    #[test]
    fn distinct_buckets_are_independent() {
        let table = BucketLockTable::new(64);
        for b in 0..64 {
            assert!(table.lock(b, TxnId(b as u64 + 1)));
        }
        for b in (0..64).step_by(2) {
            table.unlock(b, TxnId(b as u64 + 1));
        }
        for b in 0..64 {
            assert_eq!(table.is_locked(b), b % 2 == 1, "bucket {b}");
        }
    }

    #[test]
    fn concurrent_lock_unlock_is_consistent() {
        let table = Arc::new(BucketLockTable::new(16));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let table = Arc::clone(&table);
            handles.push(std::thread::spawn(move || {
                for i in 0..200usize {
                    let bucket = (t as usize + i) % 16;
                    table.lock(bucket, TxnId(t + 1));
                    assert!(table.lock_count(bucket) >= 1);
                    table.unlock(bucket, TxnId(t + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for b in 0..16 {
            assert_eq!(table.lock_count(b), 0, "bucket {b} should end unlocked");
            assert!(table.holders(b).is_empty());
        }
    }
}

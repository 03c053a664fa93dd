//! # mmdb-index
//!
//! Latch-free chained hash index used by the mmdb multiversion storage
//! engine, plus the bucket-lock table the pessimistic scheme uses for
//! phantom protection.
//!
//! The paper (§2.1): *"Our prototype currently supports only hash indexes
//! which are implemented using lock-free hash tables. A table can have many
//! indexes, and records are always accessed via an index lookup."* Versions
//! that hash to the same bucket are linked together through a per-index
//! pointer embedded in the version itself (the `Hash ptr` field of Figure 1).
//!
//! This crate provides that structure generically:
//!
//! * [`ChainNode`] — implemented by the storage engine's version type (one
//!   intrusive next-pointer per index of its table) and by its transaction
//!   handle (one, for the transaction table, which is the same hash keyed by
//!   transaction id).
//! * [`HashIndex`] — a fixed-size bucket array of lock-free singly-linked
//!   chains. Insertion is a CAS push at the bucket head; lookups traverse
//!   under a `crossbeam_epoch` guard and never block; garbage versions and
//!   finished transactions are unlinked with a CAS on the predecessor pointer
//!   (serialized per bucket by the caller) and reclaimed through the epoch
//!   mechanism.
//! * [`BucketLockTable`] — the serializable-scan bucket locks of §4.1.2:
//!   a lock count per bucket (fast "is it locked?" checks) plus a lock list
//!   stored in a sharded side table keyed by bucket number.
//! * [`OrderedIndex`] — a lock-free skip list over the same intrusive
//!   version chains, serving the inclusive range predicates hash indexes
//!   cannot.
//! * [`RangeLockTable`] — §4.1.2's bucket locks generalized to ordered-index
//!   range predicates, so MV/L serializable range scans get the same
//!   wait-for-based phantom protection.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bucket_lock;
pub mod chain;
pub mod ordered;
pub mod range_lock;

pub use bucket_lock::BucketLockTable;
pub use chain::{BucketIter, ChainNode, HashIndex};
pub use ordered::{OrderedIndex, RangeIter};
pub use range_lock::RangeLockTable;

/// Support for this workspace's tests (unit tests here and in the crates
/// layered on top); not part of the index API.
#[doc(hidden)]
pub mod test_support {
    /// Run pin-and-flush rounds on the calling thread until `done` reports
    /// that the epoch-deferred work being waited for (frees, version
    /// recycling) has happened. Each round can move the global epoch one
    /// step, and deferred calls run two steps after they were retired, so a
    /// handful of rounds suffice unless another thread's guard holds the
    /// epoch back — hence the yield. Returns `done()`'s final answer after a
    /// bounded number of rounds, so a reclamation regression fails the
    /// caller's assertion instead of hanging it.
    pub fn flush_epochs_until(mut done: impl FnMut() -> bool) -> bool {
        for _ in 0..100_000 {
            if done() {
                return true;
            }
            crossbeam::epoch::pin().flush();
            std::thread::yield_now();
        }
        done()
    }
}

//! Global monotonic timestamp counter and transaction-ID allocator.
//!
//! The paper (§2.4): *"Timestamps are drawn from a global, monotonically
//! increasing counter. A transaction gets a unique timestamp by atomically
//! reading and incrementing the counter."* Acquiring a timestamp is the only
//! critical section in either MVCC scheme (§6), so the implementation is a
//! single `fetch_add` on a cache-padded atomic.
//!
//! Transaction IDs come from a second counter so that the ID space (54 bits,
//! constrained by the lock-word layout) is independent of the timestamp
//! space.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::ids::{Timestamp, TxnId, MAX_TXN_ID};

/// Global clock handing out begin/end timestamps and transaction IDs.
///
/// One instance is shared (via `Arc`) by every transaction in a database.
#[derive(Debug)]
pub struct GlobalClock {
    /// Next timestamp to hand out. Starts at 1; timestamp 0 is reserved so
    /// that `Timestamp::ZERO` is strictly earlier than any commit.
    ts: crossbeam_pad::CachePadded<AtomicU64>,
    /// Next transaction ID to hand out. Starts at 1.
    txid: crossbeam_pad::CachePadded<AtomicU64>,
}

/// Minimal stand-in for `crossbeam_utils::CachePadded` so this crate stays
/// dependency-free; aligns the wrapped atomic to a cache line to avoid false
/// sharing between the two counters.
mod crossbeam_pad {
    /// Aligns `T` to a 128-byte boundary (two 64-byte lines, which also
    /// covers adjacent-line prefetching).
    #[derive(Debug, Default)]
    #[repr(align(128))]
    pub struct CachePadded<T>(pub T);

    impl<T> std::ops::Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }
}

impl Default for GlobalClock {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalClock {
    /// Create a clock starting at timestamp 1 and transaction ID 1.
    pub fn new() -> Self {
        GlobalClock {
            ts: crossbeam_pad::CachePadded(AtomicU64::new(1)),
            txid: crossbeam_pad::CachePadded(AtomicU64::new(1)),
        }
    }

    /// Atomically read-and-increment the timestamp counter.
    ///
    /// Used both for begin timestamps (when a transaction starts) and end
    /// timestamps (at precommit).
    #[inline]
    pub fn next_timestamp(&self) -> Timestamp {
        Timestamp(self.ts.fetch_add(1, Ordering::SeqCst))
    }

    /// Current value of the timestamp counter — the *next* timestamp to be
    /// issued — without advancing it. An upper bound on everything issued so
    /// far (GC sweep floors); reads that want "the latest
    /// committed version" (§3.4) use [`Self::last_issued`] instead.
    #[inline]
    pub fn now(&self) -> Timestamp {
        Timestamp(self.ts.load(Ordering::SeqCst))
    }

    /// The latest timestamp already handed out (`now() - 1`).
    ///
    /// Every transaction with an end timestamp at or below it has drawn that
    /// timestamp, hence finished linking its versions, so a reader that takes
    /// this as its read time and *then* walks an index finds every version
    /// its snapshot contains. `now()` lacks that property: the next writer to
    /// precommit is issued exactly `now()`, and may link its new version
    /// after the reader loaded the chain head.
    #[inline]
    pub fn last_issued(&self) -> Timestamp {
        Timestamp(self.ts.load(Ordering::SeqCst) - 1)
    }

    /// Advance the timestamp counter so every future draw is strictly later
    /// than `ts`. Used after recovery: checkpoint images and replayed log
    /// records carry timestamps from the previous process lifetime, and
    /// delta checkpoints compare them against freshly drawn snapshot
    /// timestamps (a delta's window is bounded below by its parent's
    /// snapshot), so the new clock must not restart below them.
    pub fn advance_past(&self, ts: Timestamp) {
        self.ts.fetch_max(ts.raw() + 1, Ordering::SeqCst);
    }

    /// Allocate a fresh transaction ID.
    ///
    /// # Panics
    /// Panics if the 54-bit ID space is exhausted (2^54 transactions — in
    /// practice unreachable; at 10 million transactions per second it would
    /// take over 57 years).
    #[inline]
    pub fn next_txn_id(&self) -> TxnId {
        let id = self.txid.fetch_add(1, Ordering::Relaxed);
        assert!(id <= MAX_TXN_ID, "transaction ID space exhausted");
        TxnId(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn timestamps_are_strictly_increasing() {
        let clock = GlobalClock::new();
        let a = clock.next_timestamp();
        let b = clock.next_timestamp();
        let c = clock.next_timestamp();
        assert!(a < b && b < c);
    }

    #[test]
    fn now_does_not_advance() {
        let clock = GlobalClock::new();
        let t0 = clock.now();
        let t1 = clock.now();
        assert_eq!(t0, t1);
        let drawn = clock.next_timestamp();
        assert!(drawn >= t0);
        assert!(clock.now() > drawn);
    }

    #[test]
    fn last_issued_trails_now_by_one() {
        let clock = GlobalClock::new();
        let drawn = clock.next_timestamp();
        assert_eq!(clock.last_issued(), drawn);
        assert_eq!(clock.last_issued().raw() + 1, clock.now().raw());
        let read_time = clock.last_issued();
        assert!(clock.next_timestamp() > read_time);
    }

    #[test]
    fn advance_past_makes_future_draws_later() {
        let clock = GlobalClock::new();
        clock.advance_past(Timestamp(500));
        assert!(clock.next_timestamp() > Timestamp(500));
        // Never moves backwards.
        clock.advance_past(Timestamp(3));
        assert!(clock.next_timestamp() > Timestamp(500));
    }

    #[test]
    fn txn_ids_are_unique() {
        let clock = GlobalClock::new();
        let a = clock.next_txn_id();
        let b = clock.next_txn_id();
        assert_ne!(a, b);
    }

    #[test]
    fn concurrent_draws_are_unique() {
        let clock = Arc::new(GlobalClock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let clock = Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                (0..1000)
                    .map(|_| clock.next_timestamp().raw())
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate timestamps handed out");
    }

    #[test]
    fn zero_timestamp_is_never_handed_out() {
        let clock = GlobalClock::new();
        assert!(clock.next_timestamp().raw() >= 1);
    }
}

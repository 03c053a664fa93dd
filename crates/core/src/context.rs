//! The recyclable part of a transaction and the per-thread pool it lives in
//! between transactions.
//!
//! `begin` and `commit` of a transaction that meets no other transaction
//! take no engine-global lock: the [`TxnContext`] — one heap block holding the
//! shared [`TxnHandle`] and the private [`TxnBuffers`] — comes from and
//! returns to a `thread_local!` queue. A context carries no engine pointer
//! ([`TxnHandle::reset_for`] and [`TxnBuffers::clear`] make it
//! engine-agnostic), so one pool per thread serves every engine in the
//! process.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use mmdb_common::ids::{Timestamp, TxnId};
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_storage::txn_table::TxnHandle;

use crate::txn::TxnBuffers;

/// Idle contexts a thread keeps. A context is reusable only once its handle's
/// reference count has drained to one, which the epoch-deferred release of
/// the transaction table's reference delays by two to three collection periods
/// of the epoch shim — just under a hundred of the shortest (empty)
/// transactions on one thread, fewer of any longer kind. The pool has to be
/// that deep for a warmed `begin` to allocate nothing; the cap bounds idle
/// memory when a thread finishes transactions that other threads began.
const CONTEXTS_PER_THREAD: usize = 128;

thread_local! {
    /// Recycled contexts, oldest first: a finished transaction's context
    /// goes in at the back and `begin` reuses the one at the front, which is
    /// the first whose release by the transaction table has run.
    static POOL: RefCell<VecDeque<Box<ContextParts>>> = const { RefCell::new(VecDeque::new()) };
}

/// Everything of a transaction that outlives it: the handle other
/// transactions reach through the transaction table, and the read/scan/write
/// sets, lock lists and scratch buffers (cleared, capacity retained). A
/// warmed begin → commit cycle allocates nothing because both halves are
/// recycled together (`crates/core/tests/alloc_free.rs`).
#[derive(Debug)]
pub(crate) struct ContextParts {
    pub(crate) handle: Arc<TxnHandle>,
    pub(crate) bufs: TxnBuffers,
}

/// A transaction's hold on its [`ContextParts`]: one heap block, so that
/// beginning, returning and committing a transaction move a pointer rather
/// than three hundred bytes of vector headers (measured: 130 ns of `memcpy`
/// per empty transaction with the parts inline). Dereferences to the parts
/// until [`TxnContext::recycle`] hands them to the pool at the very end of
/// commit or abort processing; nothing may touch the context after that.
#[derive(Debug)]
pub(crate) struct TxnContext(Option<Box<ContextParts>>);

impl Deref for TxnContext {
    type Target = ContextParts;

    #[inline]
    fn deref(&self) -> &ContextParts {
        self.0.as_deref().expect("context used after recycle")
    }
}

impl DerefMut for TxnContext {
    #[inline]
    fn deref_mut(&mut self) -> &mut ContextParts {
        self.0.as_deref_mut().expect("context used after recycle")
    }
}

impl TxnContext {
    /// A context for a new transaction, its begin timestamp not yet drawn:
    /// the current thread's oldest pooled one when it is exclusively ours,
    /// else a fresh allocation.
    pub(crate) fn take(id: TxnId, mode: ConcurrencyMode, isolation: IsolationLevel) -> TxnContext {
        let pooled = POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            let mut parts = pool.pop_front()?;
            // `Arc::get_mut` is the reset guard: a handle still borrowed by
            // a lock-free lookup or walked through as an unlinked chain node
            // (the transaction table's reference is released through the
            // epoch machinery), or held by a deadlock-detector snapshot, can
            // never be reset.
            if let Some(exclusive) = Arc::get_mut(&mut parts.handle) {
                exclusive.reset_for(id, mode, isolation);
            } else if pool.len() + 1 < CONTEXTS_PER_THREAD {
                // Back of the queue, and allocate: the pool is one context
                // short of covering the reclamation lag.
                pool.push_back(parts);
                return None;
            } else {
                // A full pool with nothing ready means reclamation is
                // stalled (a long pin somewhere — a checkpoint walk, a
                // descheduled thread). Keep the warmed buffers and replace
                // only the handle; the table's release frees the old one.
                parts.handle = TxnHandle::new(id, Timestamp::ZERO, mode, isolation);
            }
            Some(parts)
        });
        // `Err`: the thread is tearing down and its pool is gone.
        let parts = pooled.ok().flatten().unwrap_or_else(|| {
            Box::new(ContextParts {
                handle: TxnHandle::new(id, Timestamp::ZERO, mode, isolation),
                bufs: TxnBuffers::default(),
            })
        });
        TxnContext(Some(parts))
    }

    /// Return the parts to the pool of the *current* thread — the one that
    /// finished the transaction, whichever began it. Past the cap, and
    /// during thread teardown, they are simply freed.
    pub(crate) fn recycle(&mut self) {
        let Some(mut parts) = self.0.take() else {
            return;
        };
        parts.bufs.clear();
        let _ = POOL.try_with(move |pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < CONTEXTS_PER_THREAD {
                pool.push_back(parts);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::sync::{Arc, Weak};

    use mmdb_common::engine::{Engine, EngineTxn};
    use mmdb_common::ids::{IndexId, TableId};
    use mmdb_common::isolation::IsolationLevel;
    use mmdb_common::row::{rowbuf, TableSpec};
    use mmdb_storage::txn_table::TxnHandle;

    use super::{CONTEXTS_PER_THREAD, POOL};
    use crate::{MvConfig, MvEngine, MvTransaction};

    fn engine() -> (MvEngine, TableId) {
        let mut config = MvConfig::optimistic();
        config.deadlock_detector = false;
        let engine = MvEngine::new(config);
        let table = engine.create_table(TableSpec::keyed_u64("t", 64)).unwrap();
        engine
            .populate(table, (0..16u64).map(|k| rowbuf::keyed_row(k, 16, 1)))
            .unwrap();
        (engine, table)
    }

    fn pooled_here() -> usize {
        POOL.with(|pool| pool.borrow().len())
    }

    /// Run the epoch-deferred table releases of finished transactions, then
    /// require that nothing refers to any of `handles` any more.
    fn assert_all_dropped(handles: &[Weak<TxnHandle>], what: &str) {
        mmdb_index::test_support::flush_epochs_until(|| {
            handles.iter().all(|h| h.strong_count() == 0)
        });
        let alive = handles.iter().filter(|h| h.strong_count() > 0).count();
        assert_eq!(
            alive,
            0,
            "{what}: {alive} of {} contexts leaked",
            handles.len()
        );
    }

    #[test]
    fn a_context_returns_to_the_thread_that_finishes_the_transaction() {
        let (engine, table) = engine();
        let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
        let handle = Arc::downgrade(&txn.ctx.handle);
        assert!(txn
            .update(table, IndexId(0), 3, rowbuf::keyed_row(3, 16, 9))
            .unwrap());
        let before = pooled_here();
        let (pooled_there, handle) = std::thread::spawn(move || {
            let before = pooled_here();
            txn.commit().unwrap();
            (pooled_here() - before, handle)
        })
        .join()
        .unwrap();
        assert_eq!(pooled_there, 1, "the committing thread pooled the context");
        assert_eq!(pooled_here(), before, "the beginning thread did not");
        let mut check = engine.begin(IsolationLevel::SnapshotIsolation);
        assert_eq!(
            rowbuf::fill_of(&check.read(table, IndexId(0), 3).unwrap().unwrap()),
            9
        );
        check.commit().unwrap();
        // That thread has exited; its pool went with it.
        assert_all_dropped(&[handle], "cross-thread commit");
    }

    #[test]
    fn more_open_transactions_than_the_cap() {
        let (engine, table) = engine();
        let open = CONTEXTS_PER_THREAD + 40;
        let (handles, pooled) = std::thread::spawn(move || {
            let mut txns: Vec<MvTransaction> = (0..open)
                .map(|_| engine.begin(IsolationLevel::SnapshotIsolation))
                .collect();
            let handles: Vec<_> = txns
                .iter()
                .map(|txn| Arc::downgrade(&txn.ctx.handle))
                .collect();
            for (i, txn) in txns.iter_mut().enumerate() {
                assert!(txn
                    .read(table, IndexId(0), i as u64 % 16)
                    .unwrap()
                    .is_some());
            }
            for txn in txns {
                txn.commit().unwrap();
            }
            // The pool is full, not overfull, and still serves `begin`.
            let pooled = pooled_here();
            let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
            assert!(txn.read(table, IndexId(0), 1).unwrap().is_some());
            txn.commit().unwrap();
            (handles, pooled)
        })
        .join()
        .unwrap();
        assert_eq!(pooled, CONTEXTS_PER_THREAD);
        assert_all_dropped(&handles, "over the cap");
    }

    #[test]
    fn a_thread_that_exits_frees_its_pooled_contexts() {
        let (engine, table) = engine();
        let handles = std::thread::spawn(move || {
            let mut handles = Vec::new();
            for i in 0..50u64 {
                let mut txn = engine.begin(IsolationLevel::ReadCommitted);
                handles.push(Arc::downgrade(&txn.ctx.handle));
                assert!(txn.read(table, IndexId(0), i % 16).unwrap().is_some());
                if i % 5 == 0 {
                    txn.abort();
                } else {
                    txn.commit().unwrap();
                }
            }
            assert!(pooled_here() > 0);
            handles
        })
        .join()
        .unwrap();
        assert_all_dropped(&handles, "thread exit");
    }

    thread_local! {
        /// A transaction left open until the thread's destructors run.
        static LEFT_OPEN: RefCell<Option<MvTransaction>> = const { RefCell::new(None) };
    }

    /// A transaction dropped by a thread-local destructor aborts and
    /// recycles while the pool may already be gone (`try_with` fails), or
    /// lands in a pool that is destroyed right after. Destructor order
    /// follows first use, so run both orders.
    #[test]
    fn a_transaction_dropped_during_thread_teardown_is_freed() {
        for pool_first in [true, false] {
            let (engine, table) = engine();
            let handles = std::thread::spawn(move || {
                let mut handles = Vec::new();
                if pool_first {
                    let txn = engine.begin(IsolationLevel::SnapshotIsolation);
                    handles.push(Arc::downgrade(&txn.ctx.handle));
                    txn.commit().unwrap();
                } else {
                    LEFT_OPEN.with(|slot| assert!(slot.borrow().is_none()));
                }
                let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
                handles.push(Arc::downgrade(&txn.ctx.handle));
                assert!(txn
                    .update(table, IndexId(0), 2, rowbuf::keyed_row(2, 16, 7))
                    .unwrap());
                LEFT_OPEN.with(|slot| *slot.borrow_mut() = Some(txn));
                (handles, engine)
            })
            .join()
            .expect("teardown must not panic");
            let (handles, engine) = handles;
            // The abandoned update rolled back.
            let mut check = engine.begin(IsolationLevel::SnapshotIsolation);
            assert_eq!(
                rowbuf::fill_of(&check.read(table, IndexId(0), 2).unwrap().unwrap()),
                1
            );
            check.commit().unwrap();
            assert_all_dropped(&handles, "teardown");
        }
    }
}

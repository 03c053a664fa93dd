//! The multiversion store: tables + clock + transaction table + garbage
//! queue + redo log, bundled behind one handle shared by every transaction.
//!
//! The store is purely structural: it knows nothing about optimistic or
//! pessimistic concurrency control. The `mmdb-core` crate layers the paper's
//! two CC schemes on top of it.

use std::sync::Arc;

use crossbeam::epoch::{self, Guard};

use mmdb_common::clock::GlobalClock;
use mmdb_common::error::{MmdbError, Result};
use mmdb_common::ids::TableId;
use mmdb_common::row::{Row, TableSpec};
use mmdb_common::stats::EngineStats;

use crate::catalog::Catalog;
use crate::gc::{GcItem, GcQueue};
use crate::log::{NullLogger, RedoLogger};
use crate::table::Table;
use crate::txn_table::TxnTable;

/// Shared multiversion storage state.
pub struct MvStore {
    clock: GlobalClock,
    /// Epoch-published append-only table registry: per-operation lookups
    /// ([`MvStore::table_in`]) are a lock-free load of the published slice —
    /// no `RwLock`, no `Arc` clone (tables are never removed, §2.1).
    tables: Catalog<Table>,
    txns: TxnTable,
    gc: GcQueue,
    logger: Arc<dyn RedoLogger>,
    stats: EngineStats,
}

impl Default for MvStore {
    fn default() -> Self {
        Self::new(Arc::new(NullLogger::new()))
    }
}

impl MvStore {
    /// Create a store writing redo records to `logger`.
    pub fn new(logger: Arc<dyn RedoLogger>) -> MvStore {
        MvStore {
            clock: GlobalClock::new(),
            tables: Catalog::new(),
            txns: TxnTable::new(),
            gc: GcQueue::new(),
            logger,
            stats: EngineStats::new(),
        }
    }

    /// The global clock.
    #[inline]
    pub fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    /// The transaction table.
    #[inline]
    pub fn txns(&self) -> &TxnTable {
        &self.txns
    }

    /// Engine statistics counters.
    #[inline]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The redo logger.
    #[inline]
    pub fn logger(&self) -> &Arc<dyn RedoLogger> {
        &self.logger
    }

    /// The garbage queue.
    #[inline]
    pub fn gc_queue(&self) -> &GcQueue {
        &self.gc
    }

    /// Create a table. Publication is a single atomic swap of the catalog
    /// slice; concurrent lookups never block on it.
    pub fn create_table(&self, spec: TableSpec) -> Result<TableId> {
        let idx = self
            .tables
            .push_with(|idx| Table::new(TableId(idx as u32), spec))?;
        Ok(TableId(idx as u32))
    }

    /// Look up a table without taking any lock or touching its reference
    /// count: a lock-free load of the epoch-published catalog slice. This is
    /// the per-operation entry point — every read, scan, insert, update and
    /// delete resolves its table here.
    #[inline]
    pub fn table_in<'g>(&self, id: TableId, guard: &'g Guard) -> Result<&'g Table> {
        self.tables
            .get_in(id.0 as usize, guard)
            .ok_or(MmdbError::TableNotFound(id))
    }

    /// Look up a table, returning an owned handle (an `Arc` clone; still
    /// lock-free). For the one caller that must hold the table past its
    /// epoch guard: garbage collection's deferred version recycling.
    /// Everything else resolves tables through [`MvStore::table_in`].
    pub fn table(&self, id: TableId) -> Result<Arc<Table>> {
        self.tables
            .get(id.0 as usize)
            .ok_or(MmdbError::TableNotFound(id))
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Bulk-load committed rows into a table, bypassing concurrency control
    /// and the redo log. Intended for initial database population (workload
    /// setup) before any transactions run. Rows loaded after a checkpoint
    /// chain's base image reach the chain only at the next base image, since
    /// delta checkpoints are computed from the log.
    pub fn populate<I>(&self, table_id: TableId, rows: I) -> Result<usize>
    where
        I: IntoIterator<Item = Row>,
    {
        let guard = epoch::pin();
        let table = self.table_in(table_id, &guard)?;
        let ts = self.clock.next_timestamp();
        let mut n = 0;
        for row in rows {
            let version = table.make_committed_version(ts, row)?;
            table.link_version(version, &guard);
            n += 1;
        }
        EngineStats::add(&self.stats.versions_created, n as u64);
        Ok(n)
    }

    /// Enqueue an obsolete version for collection.
    pub fn enqueue_garbage(&self, item: GcItem) {
        self.gc.push(item);
    }

    /// Run one bounded garbage-collection step: pop queued items from the
    /// head while their end timestamp lies below the visibility watermark,
    /// up to `limit`, and reclaim them. Returns the number reclaimed.
    ///
    /// Any thread may call this at any time (cooperative collection); unlinks
    /// are serialized per table via the table's GC lock.
    pub fn collect_garbage(&self, limit: usize) -> usize {
        if limit == 0 || self.gc.is_empty() {
            return 0;
        }
        // Versions are reclaimable when every registered transaction began
        // after their retirement timestamp. With no active transactions,
        // everything already queued is reclaimable.
        //
        // `sweep_floor` is the clock read *before* the bucket-by-bucket
        // sweep of `min_active_begin`, which is not atomic. It still sees
        // every transaction whose snapshot could need a version below the
        // floor, because `begin_with` registers the handle (a CAS) *before*
        // it draws the begin timestamp (a `SeqCst` read-modify-write of the
        // clock):
        // - a transaction that drew a begin timestamp below `sweep_floor` made
        //   that draw before our `SeqCst` load of the clock, so its
        //   registration, sequenced before the draw, happened before our
        //   sweep began, and the sweep sees it;
        // - if the sweep sees it before its begin timestamp is published,
        //   the handle still reads 0 and the watermark is zero;
        // - a transaction the sweep misses draws at or above `sweep_floor`,
        //   later than every item reclaimed under it.
        // Drawing before registering breaks the first point: a thread
        // preempted between the two steps is invisible to the sweep while
        // its timestamp is already old, so versions its snapshot needs get
        // reclaimed and its reads come up empty (`begin_regression` pins
        // that interleaving).
        let sweep_floor = self.clock.now();
        let watermark = match self.txns.min_active_begin() {
            Some(m) => m.min(sweep_floor),
            None => sweep_floor,
        };
        let guard = epoch::pin();
        let mut reclaimed = 0;
        for _ in 0..limit {
            let Some(item) = self.gc.pop_before(watermark) else {
                break;
            };
            let Ok(table) = self.table(item.table) else {
                continue;
            };
            let shared = item.version.as_shared(&guard);
            {
                let _gc_lock = table.gc_guard();
                table.unlink_version(shared, &guard);
            }
            // The version is unreachable from every index and no active
            // transaction can still hold an interest in it (watermark rule);
            // the epoch machinery delays what happens next until all current
            // readers unpin. Instead of freeing it we feed it back to the
            // table's version pool, so steady-state writes reuse the
            // allocation (`Table::make_version_with`). The closure captures
            // the table `Arc` (keeping the pool alive) and the raw address —
            // small enough for the epoch layer's inline deferred storage, so
            // this defers without allocating.
            let raw = shared.as_raw() as usize;
            // SAFETY: unlinked above; `recycle_version`'s contract
            // (exclusive, past the grace period) holds when the deferred
            // closure runs.
            unsafe {
                guard.defer_unchecked(move || {
                    table.recycle_version(raw as *mut crate::version::Version);
                });
            }
            reclaimed += 1;
        }
        if reclaimed > 0 {
            EngineStats::add(&self.stats.versions_collected, reclaimed as u64);
        }
        EngineStats::bump(&self.stats.gc_passes);
        reclaimed
    }
}

impl std::fmt::Debug for MvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvStore")
            .field("tables", &self.table_count())
            .field("active_txns", &self.txns.len())
            .field("gc_pending", &self.gc.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::MemoryLogger;
    use mmdb_common::ids::{IndexId, Timestamp, TxnId};
    use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
    use mmdb_common::row::rowbuf;
    use mmdb_common::word::{BeginWord, EndWord};

    fn store_with_table(rows: u64) -> (MvStore, TableId) {
        let store = MvStore::new(Arc::new(MemoryLogger::new()));
        let t = store.create_table(TableSpec::keyed_u64("t", 128)).unwrap();
        store
            .populate(t, (0..rows).map(|k| rowbuf::keyed_row(k, 16, 1)))
            .unwrap();
        (store, t)
    }

    #[test]
    fn create_and_populate() {
        let (store, t) = store_with_table(100);
        assert_eq!(store.table_count(), 1);
        let table = store.table(t).unwrap();
        assert_eq!(table.version_count(), 100);
        assert!(store.table(TableId(7)).is_err());
        let guard = epoch::pin();
        let hits: Vec<_> = table
            .candidate_ptrs(IndexId(0), 42, &guard)
            .unwrap()
            .collect();
        assert_eq!(hits.len(), 1);
        assert!(matches!(
            hits[0].get().begin_word(),
            BeginWord::Timestamp(_)
        ));
        assert!(hits[0].get().end_word().is_latest());
    }

    /// Retire the versions of `keys`, one fresh timestamp each, pushing them
    /// onto the garbage queue in key order. Returns the timestamps.
    fn retire(store: &MvStore, t: TableId, keys: std::ops::Range<u64>) -> Vec<Timestamp> {
        let table = store.table(t).unwrap();
        let guard = epoch::pin();
        keys.map(|key| {
            let ptr = table
                .candidate_ptrs(IndexId(0), key, &guard)
                .unwrap()
                .next()
                .unwrap();
            let ts = store.clock().next_timestamp();
            ptr.get().set_end(EndWord::Timestamp(ts));
            store.enqueue_garbage(GcItem {
                table: t,
                version: ptr,
                reclaimable_at: ts,
            });
            ts
        })
        .collect()
    }

    fn register_blocker(store: &MvStore, id: u64, begin: Timestamp) {
        store.txns().register(crate::txn_table::TxnHandle::new(
            TxnId(id),
            begin,
            ConcurrencyMode::Optimistic,
            IsolationLevel::Serializable,
        ));
    }

    fn reachable(table: &Table, key: u64) -> bool {
        let guard = epoch::pin();
        let found = table
            .candidate_ptrs(IndexId(0), key, &guard)
            .unwrap()
            .next()
            .is_some();
        found
    }

    #[test]
    fn gc_respects_watermark() {
        for n in [1u64, 1_000] {
            let (store, t) = store_with_table(n);
            let table = store.table(t).unwrap();
            let retired = retire(&store, t, 0..n);

            // An active transaction that began before every retirement blocks
            // the whole pass and leaves the queue as it was.
            register_blocker(&store, 999, Timestamp(retired[0].raw() - 1));
            assert_eq!(store.collect_garbage(2 * n as usize), 0);
            assert_eq!(store.gc_queue().len(), n as usize, "items stay queued");
            assert_eq!(table.version_count(), n as usize);
            store.txns().remove(TxnId(999));

            // One that began in the middle lets exactly the prefix retired
            // before it out, in push order.
            let mid = n / 2;
            register_blocker(&store, 1000, retired[mid as usize]);
            assert_eq!(store.collect_garbage(2 * n as usize), mid as usize);
            assert_eq!(store.gc_queue().len(), (n - mid) as usize);
            assert!((0..n).all(|key| reachable(&table, key) == (key >= mid)));
            store.txns().remove(TxnId(1000));

            // Once it goes away too (and a newer transaction exists), the
            // rest is reclaimed.
            register_blocker(&store, 1001, store.clock().next_timestamp());
            assert_eq!(store.collect_garbage(2 * n as usize), (n - mid) as usize);
            assert_eq!(store.gc_queue().len(), 0);
            assert_eq!(table.version_count(), 0);
            assert_eq!(store.stats().snapshot().versions_collected, n);
        }
    }

    #[test]
    fn gc_with_no_active_transactions_reclaims_everything_queued() {
        let (store, t) = store_with_table(5);
        let table = store.table(t).unwrap();
        retire(&store, t, 0..5);
        // Bounded step: only collect 2 at a time.
        assert_eq!(store.collect_garbage(2), 2);
        assert_eq!(store.collect_garbage(16), 3);
        assert_eq!(table.version_count(), 0);
    }

    #[test]
    fn table_in_is_a_lock_free_published_slice_load() {
        let (store, t) = store_with_table(4);
        let guard = epoch::pin();
        let table = store.table_in(t, &guard).unwrap();
        assert_eq!(table.id(), t);
        assert!(store.table_in(TableId(9), &guard).is_err());
        // The borrow survives later catalog publications (append-only).
        let t2 = store.create_table(TableSpec::keyed_u64("t2", 8)).unwrap();
        assert_eq!(table.id(), t);
        assert_eq!(store.table_in(t2, &guard).unwrap().id(), t2);
    }

    /// What the lock-free catalog must guarantee: `create_table` racing
    /// readers must never make an already-published table unreachable, and
    /// readers never block (they run under nothing but an epoch pin).
    #[test]
    fn create_table_races_lock_free_readers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let store = Arc::new(MvStore::default());
        let first = store.create_table(TableSpec::keyed_u64("t0", 8)).unwrap();
        store
            .populate(first, (0..4u64).map(|k| rowbuf::keyed_row(k, 16, 1)))
            .unwrap();
        let published = AtomicUsize::new(1);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let store = Arc::clone(&store);
                let published = &published;
                scope.spawn(move || loop {
                    let n = published.load(Ordering::Acquire);
                    let guard = epoch::pin();
                    // Every table published so far must resolve, with its
                    // contents reachable.
                    for id in 0..n as u32 {
                        let table = store
                            .table_in(TableId(id), &guard)
                            .expect("published tables never disappear");
                        assert_eq!(table.id(), TableId(id));
                    }
                    assert_eq!(
                        store
                            .table_in(first, &guard)
                            .unwrap()
                            .candidate_ptrs(IndexId(0), 2, &guard)
                            .unwrap()
                            .count(),
                        1
                    );
                    if n >= 200 {
                        break;
                    }
                });
            }
            {
                let store = Arc::clone(&store);
                let published = &published;
                scope.spawn(move || {
                    for i in 1..200usize {
                        let id = store
                            .create_table(TableSpec::keyed_u64(format!("t{i}"), 8))
                            .unwrap();
                        assert_eq!(id, TableId(i as u32));
                        published.store(i + 1, Ordering::Release);
                    }
                    published.store(200, Ordering::Release);
                });
            }
        });
        assert_eq!(store.table_count(), 200);
    }

    #[test]
    fn gc_recycles_versions_into_the_table_pool() {
        let (store, t) = store_with_table(8);
        let table = store.table(t).unwrap();
        retire(&store, t, 0..8);
        assert_eq!(store.collect_garbage(16), 8);
        // Recycling is epoch-deferred: it runs two epochs on.
        mmdb_index::test_support::flush_epochs_until(|| table.pooled_versions() == 8);
        assert_eq!(
            table.pooled_versions(),
            8,
            "reclaimed versions feed the table's pool instead of the allocator"
        );
        // And the pool is consumed by new version creation.
        let v = table
            .make_version_with(TxnId(77), rowbuf::keyed_row(100, 16, 1), &[100])
            .unwrap();
        assert_eq!(table.pooled_versions(), 7);
        assert_eq!(v.begin_word().as_txn(), Some(TxnId(77)));
        assert!(v.end_word().is_latest());
        assert_eq!(v.index_key(0), 100);
        table.link_version(v, &epoch::pin());
    }

    #[test]
    fn populate_validates_rows() {
        let store = MvStore::default();
        let t = store.create_table(TableSpec::keyed_u64("t", 8)).unwrap();
        let bad = Row::from(vec![1u8, 2]);
        assert!(store.populate(t, vec![bad]).is_err());
    }
}

//! Zero-allocation regression tests for the hot read **and write** paths.
//!
//! The paper's central performance claim is that normal processing keeps the
//! hot paths nearly free of overhead: an MV read is a hash lookup plus
//! timestamp comparisons (§3), and MV writes stay cheap under contention
//! because the hot path touches no shared mutable state beyond the version
//! chain itself (§2.6, Figs. 7–9). These tests pin the engineering
//! consequence in this codebase:
//!
//! * steady-state **point reads** and **short secondary scans** on a warmed
//!   MV engine, through the visitor API (`read_with` / `scan_key_with`),
//!   perform **zero heap allocations** — each version is judged in place as
//!   the walk along the index chain reaches it (nothing is copied out), the
//!   payload is visited by reference, and the `TxnTable` visibility lookup
//!   is a lock-free walk of one epoch-protected bucket chain (`get_in` — no
//!   `RwLock`, no `Arc` clone; there is no lock of any kind left in
//!   `txn_table.rs` lookups to acquire);
//! * warmed **write transactions** — a whole begin → update → commit, and
//!   insert-then-delete pairs — perform **zero heap allocations** on both MV
//!   schemes at read committed and snapshot isolation: the transaction
//!   handle and its buffer set come, as one context, from the thread's pool
//!   (warmed per thread — a spawned thread is measured too), key extraction
//!   fills a reusable `KeyScratch`, the new version is recycled from the
//!   table's GC-fed pool, the redo record is framed into a reusable encode
//!   buffer, and the transaction table links the handle itself and holds a
//!   raw strong reference (registration is a refcount bump and a CAS);
//! * the **1V comparison**: the single-version engine stages lookups,
//!   undo images and log ops per operation — neither its read nor its write
//!   path is allocation-free, which is part of why the paper's multiversion
//!   schemes win.
//!
//! The counting allocator is thread-local, so background threads (the
//! group-commit flusher) cannot pollute the measurement. The tests
//! additionally serialize on one mutex: the write-path measurements depend
//! on epoch-deferred recycling keeping its steady two-epoch lag, which a
//! concurrently pinned sibling test would stretch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::ids::IndexId;
use mmdb_common::isolation::IsolationLevel;
use mmdb_common::row::{rowbuf, IndexSpec};
use mmdb_core::{MvConfig, MvEngine};

/// Serializes the tests in this binary (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Counts allocations (alloc + realloc) made by the *current thread*.
struct CountingAllocator;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to the system allocator; the counter is
// a plain thread-local side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_on_this_thread() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// Run `f` and return how many allocations the current thread made in it.
fn count_allocations(f: impl FnOnce()) -> u64 {
    let before = allocations_on_this_thread();
    f();
    allocations_on_this_thread() - before
}

const ROWS: u64 = 1_024;

/// The read-path fixture (`rowbuf::grouped_row` / `grouped_spec`): a unique
/// primary key plus an 8-row secondary group, the paper's point-read and
/// short-scan shapes.
use mmdb_common::row::rowbuf::{grouped_row, grouped_spec, GROUP_SIZE};

fn warmed_mv_engine() -> (MvEngine, mmdb_common::ids::TableId) {
    let mut config = MvConfig::optimistic();
    // Keep the measurement deterministic: no cooperative GC kicking in
    // mid-read (nothing would be enqueued anyway — the workload below is
    // read-only on a populated table).
    config.gc_every_n_commits = 0;
    let engine = MvEngine::with_logger(
        config,
        std::sync::Arc::new(mmdb_storage::log::NullLogger::new()),
    );
    let table = engine.create_table(grouped_spec(ROWS)).unwrap();
    engine.populate(table, (0..ROWS).map(grouped_row)).unwrap();
    (engine, table)
}

/// The acceptance bar of the allocation-free read path: after one
/// warm-up operation (which sizes the scratch buffer), point reads and short
/// scans perform zero heap allocations at read committed and snapshot
/// isolation.
#[test]
fn warmed_mv_reads_and_scans_allocate_nothing() {
    let _serial = serial();
    let (engine, table) = warmed_mv_engine();
    for isolation in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::SnapshotIsolation,
    ] {
        let mut txn = engine.begin(isolation);
        // Warm-up: the first operations may grow the transaction's scratch
        // buffer (and the thread's epoch bookkeeping) once.
        let mut checksum = 0u64;
        txn.read_with(table, IndexId(0), 1, &mut |row| {
            checksum += rowbuf::key_of(row)
        })
        .unwrap();
        txn.scan_key_with(table, IndexId(1), 1, &mut |row| {
            checksum += rowbuf::key_of(row)
        })
        .unwrap();

        let allocs = count_allocations(|| {
            for i in 0..1_000u64 {
                let key = (i * 31) % ROWS;
                let found = txn
                    .read_with(table, IndexId(0), key, &mut |row| {
                        checksum += rowbuf::key_of(row);
                    })
                    .unwrap();
                assert!(found, "populated key {key} must be visible");
                let group = (i * 7) % (ROWS / GROUP_SIZE);
                let visited = txn
                    .scan_key_with(table, IndexId(1), group, &mut |row| {
                        checksum += rowbuf::key_of(row);
                    })
                    .unwrap();
                assert_eq!(visited, GROUP_SIZE as usize, "short scan of group {group}");
            }
        });
        assert_eq!(
            allocs, 0,
            "steady-state reads/scans at {isolation:?} must not allocate \
             (checksum {checksum})"
        );
        txn.commit().unwrap();
    }
}

/// The materializing wrappers stay allocation-cheap but not allocation-free:
/// `read` clones the payload handle into an `Option<Row>` (refcount bump, no
/// heap allocation with `Bytes`), while `scan_key` builds a `Vec<Row>`. This
/// documents exactly where the remaining allocations on the legacy API come
/// from.
#[test]
fn materializing_scan_allocates_where_the_visitor_does_not() {
    let _serial = serial();
    let (engine, table) = warmed_mv_engine();
    let mut txn = engine.begin(IsolationLevel::ReadCommitted);
    let _ = txn.scan_key(table, IndexId(1), 1).unwrap();
    let mut sink = 0u64;
    let _ = txn
        .scan_key_with(table, IndexId(1), 1, &mut |row| sink += rowbuf::key_of(row))
        .unwrap();

    let visitor_allocs = count_allocations(|| {
        for group in 0..64u64 {
            txn.scan_key_with(table, IndexId(1), group, &mut |row| {
                sink += rowbuf::key_of(row);
            })
            .unwrap();
        }
    });
    let materializing_allocs = count_allocations(|| {
        for group in 0..64u64 {
            sink += txn.scan_key(table, IndexId(1), group).unwrap().len() as u64;
        }
    });
    assert_eq!(visitor_allocs, 0, "visitor scans are allocation-free");
    assert!(
        materializing_allocs >= 64,
        "each materializing scan builds at least its Vec<Row> \
         ({materializing_allocs} allocations over 64 scans, sink {sink})"
    );
    txn.abort();
}

/// The documented 1V comparison: the single-version engine's secondary-index
/// read path stages primary keys and therefore allocates even through the
/// visitor API. (Its primary-index point read visits the row in place under
/// the bucket lock — cheap, but the lock acquisition itself is exactly what
/// the multiversion schemes avoid.)
#[test]
fn onev_secondary_scans_allocate_by_design() {
    let _serial = serial();
    use mmdb_onev::{SvConfig, SvEngine};
    let engine = SvEngine::new(SvConfig::default());
    let table = engine.create_table(grouped_spec(ROWS)).unwrap();
    engine.populate(table, (0..ROWS).map(grouped_row)).unwrap();

    let mut txn = engine.begin(IsolationLevel::ReadCommitted);
    let mut sink = 0u64;
    txn.scan_key_with(table, IndexId(1), 1, &mut |row| sink += rowbuf::key_of(row))
        .unwrap();
    let allocs = count_allocations(|| {
        for group in 0..64u64 {
            txn.scan_key_with(table, IndexId(1), group, &mut |row| {
                sink += rowbuf::key_of(row);
            })
            .unwrap();
        }
    });
    assert!(
        allocs > 0,
        "1V secondary lookups stage primary keys; an allocation-free 1V scan \
         would mean this documentation is stale (sink {sink})"
    );
    txn.abort();
}

// ---------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------

use mmdb_common::isolation::ConcurrencyMode;
use mmdb_common::row::Row;

/// Warmed-write fixture: cooperative GC off (collection is driven explicitly
/// between warmup and measurement so the measured region itself never runs
/// a GC step).
fn write_engine(mode: ConcurrencyMode) -> (MvEngine, mmdb_common::ids::TableId) {
    let mut config = match mode {
        ConcurrencyMode::Optimistic => MvConfig::optimistic(),
        ConcurrencyMode::Pessimistic => MvConfig::pessimistic(),
    };
    config.gc_every_n_commits = 0;
    let engine = MvEngine::with_logger(
        config,
        std::sync::Arc::new(mmdb_storage::log::NullLogger::new()),
    );
    let table = engine.create_table(grouped_spec(ROWS)).unwrap();
    engine.populate(table, (0..ROWS).map(grouped_row)).unwrap();
    (engine, table)
}

/// Drain the GC queue and run *all* the epoch-deferred recycling it produced
/// (not just `want` of it: a recycle that lands later, inside the measured
/// region, could grow the pool's vector there), then check the table's
/// version pool holds at least `want` spare allocations.
fn drain_into_pool(engine: &MvEngine, table: mmdb_common::ids::TableId, want: usize) {
    while engine.collect_garbage() > 0 {}
    mmdb_index::test_support::flush_epochs_until(|| crossbeam::epoch::pending_deferred() == 0);
    let pooled = engine.store().table(table).unwrap().pooled_versions();
    assert!(
        pooled >= want,
        "version pool holds {pooled} spares, wanted {want} — recycling broke"
    );
}

const WARM_TXNS: u64 = 1_000;
const MEASURED_TXNS: u64 = 400;

/// The write-path acceptance bar: a warmed single-row update
/// transaction — the whole begin → update → commit — performs **zero** heap
/// allocations at read committed and snapshot isolation on both MV schemes.
/// Also asserts the single-transaction shape explicitly (one measured
/// begin→update→commit in isolation).
#[test]
fn warmed_mv_update_txns_allocate_nothing() {
    let _serial = serial();
    for mode in [ConcurrencyMode::Optimistic, ConcurrencyMode::Pessimistic] {
        let (engine, table) = write_engine(mode);
        for isolation in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::SnapshotIsolation,
        ] {
            // Warm every pool: transaction handles, buffer sets, the
            // transaction-table slots, the GC queue's ring capacity, and —
            // via the drain below — the table's version pool.
            for i in 0..WARM_TXNS {
                let key = (i * 31) % ROWS;
                let mut txn = engine.begin(isolation);
                assert!(txn
                    .update(table, IndexId(0), key, grouped_row(key))
                    .unwrap());
                txn.commit().unwrap();
            }
            drain_into_pool(&engine, table, MEASURED_TXNS as usize + 1);

            // Rows are pre-built: the payload is the caller's input, not part
            // of the write path (cloning `Bytes` is a refcount bump).
            let keys: Vec<u64> = (0..MEASURED_TXNS).map(|i| (i * 37) % ROWS).collect();
            let rows: Vec<Row> = keys.iter().map(|&k| grouped_row(k)).collect();

            let allocs = count_allocations(|| {
                for (i, &key) in keys.iter().enumerate() {
                    let mut txn = engine.begin(isolation);
                    assert!(txn.update(table, IndexId(0), key, rows[i].clone()).unwrap());
                    txn.commit().unwrap();
                }
            });
            assert_eq!(
                allocs, 0,
                "warmed update transactions at {isolation:?} on {mode:?} must not allocate"
            );

            // The acceptance shape, stated singular: one warmed
            // begin→update→commit transaction, zero allocations.
            let row = grouped_row(7);
            let single = count_allocations(|| {
                let mut txn = engine.begin(isolation);
                assert!(txn.update(table, IndexId(0), 7, row.clone()).unwrap());
                txn.commit().unwrap();
            });
            assert_eq!(
                single, 0,
                "a single warmed update txn at {isolation:?} on {mode:?} must not allocate"
            );
        }
    }
}

/// The thread-local context pool is warmed per thread: a freshly spawned
/// thread starts with an empty pool, and after *its own* warm-up — enough
/// transactions for the pool to cover the reclamation lag and for every
/// context in rotation to have sized its buffers — its whole begin → update →
/// commit cycles allocate nothing, exactly like the first thread's.
#[test]
fn a_fresh_thread_is_allocation_free_after_its_own_warm_up() {
    let _serial = serial();
    for mode in [ConcurrencyMode::Optimistic, ConcurrencyMode::Pessimistic] {
        let (engine, table) = write_engine(mode);
        let isolation = IsolationLevel::SnapshotIsolation;
        // Warm the *engine* (version pool, GC queue, txn-table slots) here,
        // so that what the spawned thread still has to warm is its own pool.
        for i in 0..WARM_TXNS {
            let key = (i * 31) % ROWS;
            let mut txn = engine.begin(isolation);
            assert!(txn
                .update(table, IndexId(0), key, grouped_row(key))
                .unwrap());
            txn.commit().unwrap();
        }
        let (cold, warmed) = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let keys: Vec<u64> = (0..MEASURED_TXNS).map(|i| (i * 37) % ROWS).collect();
                    let rows: Vec<Row> = keys.iter().map(|&k| grouped_row(k)).collect();
                    let run = |n: u64| {
                        for i in 0..n as usize {
                            let at = i % keys.len();
                            let mut txn = engine.begin(isolation);
                            assert!(txn
                                .update(table, IndexId(0), keys[at], rows[at].clone())
                                .unwrap());
                            txn.commit().unwrap();
                        }
                    };
                    // The thread's first transaction finds its pool empty.
                    let cold = count_allocations(|| run(1));
                    run(WARM_TXNS);
                    drain_into_pool(&engine, table, MEASURED_TXNS as usize + 1);
                    let warmed = count_allocations(|| run(MEASURED_TXNS));
                    (cold, warmed)
                })
                .join()
                .unwrap()
        });
        assert!(
            cold > 0,
            "a new thread's first transaction allocates its context on {mode:?}; \
             zero would mean the pool is not per thread any more"
        );
        assert_eq!(
            warmed, 0,
            "after its own warm-up a spawned thread's update transactions on \
             {mode:?} must not allocate"
        );
    }
}

/// Wait-for registration rides on recycled capacity too: a serializable
/// MV/L scanner probes an absent key (taking the bucket lock), an inserter
/// of that key finds the lock and registers in the scanner's
/// `WaitingTxnList`, the scanner commits (draining the list and releasing
/// the inserter), the inserter commits, a third transaction deletes the row
/// again. Warmed, the whole round allocates nothing: the handle's list is
/// drained into the context's reusable buffer instead of being taken (which
/// dropped its capacity at every drain), the bucket-lock table recycles its
/// lock lists, and the lock holders are snapshotted into that same buffer.
#[test]
fn warmed_mvl_wait_for_registration_allocates_nothing() {
    let _serial = serial();
    let (engine, table) = write_engine(ConcurrencyMode::Pessimistic);
    let mut next_key = ROWS;
    let round = |engine: &MvEngine, row: Row, key: u64| {
        let mut scanner = engine.begin(IsolationLevel::Serializable);
        assert!(scanner.read(table, IndexId(0), key).unwrap().is_none());
        let mut inserter = engine.begin(IsolationLevel::ReadCommitted);
        inserter.insert(table, row).unwrap();
        scanner.commit().unwrap();
        inserter.commit().unwrap();
        let mut deleter = engine.begin(IsolationLevel::ReadCommitted);
        assert!(deleter.delete(table, IndexId(0), key).unwrap());
        deleter.commit().unwrap();
    };
    let waits_before = engine.stats().snapshot().wait_for_dependencies;
    for i in 0..WARM_TXNS {
        // Shift which pooled context plays the scanner from round to round,
        // so that every context in rotation has held a waiter once.
        for _ in 0..i % 3 {
            engine
                .begin(IsolationLevel::ReadCommitted)
                .commit()
                .unwrap();
        }
        next_key += 1;
        round(&engine, grouped_row(next_key), next_key);
    }
    assert_eq!(
        engine.stats().snapshot().wait_for_dependencies - waits_before,
        WARM_TXNS,
        "every inserter registered a wait-for dependency on its scanner"
    );
    drain_into_pool(&engine, table, MEASURED_TXNS as usize + 1);

    let base = next_key;
    let rows: Vec<Row> = (1..=MEASURED_TXNS).map(|i| grouped_row(base + i)).collect();
    let allocs = count_allocations(|| {
        for (i, row) in rows.iter().enumerate() {
            round(&engine, row.clone(), base + 1 + i as u64);
        }
    });
    assert_eq!(
        allocs, 0,
        "warmed scanner / waiting inserter rounds on MV/L must not allocate"
    );
}

/// Insert-then-delete churn: a warmed insert transaction followed by a
/// delete transaction of the same (fresh) key allocates nothing on either
/// MV scheme — the insert's version comes from the pool the earlier deletes
/// refilled through GC.
#[test]
fn warmed_mv_insert_delete_txns_allocate_nothing() {
    let _serial = serial();
    for mode in [ConcurrencyMode::Optimistic, ConcurrencyMode::Pessimistic] {
        let (engine, table) = write_engine(mode);
        let mut next_key = ROWS;
        for isolation in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::SnapshotIsolation,
        ] {
            for _ in 0..WARM_TXNS {
                next_key += 1;
                let mut txn = engine.begin(isolation);
                txn.insert(table, grouped_row(next_key)).unwrap();
                txn.commit().unwrap();
                let mut txn = engine.begin(isolation);
                assert!(txn.delete(table, IndexId(0), next_key).unwrap());
                txn.commit().unwrap();
            }
            drain_into_pool(&engine, table, MEASURED_TXNS as usize + 1);

            let base = next_key;
            let rows: Vec<Row> = (1..=MEASURED_TXNS).map(|i| grouped_row(base + i)).collect();
            next_key += MEASURED_TXNS;

            let allocs = count_allocations(|| {
                for (i, row) in rows.iter().enumerate() {
                    let key = base + 1 + i as u64;
                    let mut txn = engine.begin(isolation);
                    txn.insert(table, row.clone()).unwrap();
                    txn.commit().unwrap();
                    let mut txn = engine.begin(isolation);
                    assert!(txn.delete(table, IndexId(0), key).unwrap());
                    txn.commit().unwrap();
                }
            });
            assert_eq!(
                allocs, 0,
                "warmed insert+delete transactions at {isolation:?} on {mode:?} must not allocate"
            );
        }
    }
}

/// The ordered index must not tax the equality hot paths: with an ordered
/// index wired into the table, warmed point reads, short secondary scans
/// **and whole update transactions** stay allocation-free on both MV
/// schemes. Every write now additionally relinks its version into the skip
/// list, but updates of existing keys reuse the key's skip-list node — the
/// intrusive version chain absorbs the new version without touching the
/// allocator.
///
/// The documented contrast (measured, not assumed):
///
/// * warmed **range scans** through `scan_range_with` are allocation-free
///   below serializable too — versions are judged straight off the skip
///   list, one at a time;
/// * an insert of a **novel key** allocates by design: the skip-list key
///   node (and its tower) has no pool to come from. Key nodes are retired
///   only by GC after the last version dies, so steady-state churn over a
///   stable key population reuses them; only key-space growth pays.
#[test]
fn ordered_index_keeps_equality_paths_allocation_free() {
    let _serial = serial();
    let ordered_spec = || grouped_spec(ROWS).with_index(IndexSpec::ordered_u64("pk_ordered", 0));
    const ORDERED: IndexId = IndexId(2);

    for mode in [ConcurrencyMode::Optimistic, ConcurrencyMode::Pessimistic] {
        let mut config = match mode {
            ConcurrencyMode::Optimistic => MvConfig::optimistic(),
            ConcurrencyMode::Pessimistic => MvConfig::pessimistic(),
        };
        config.gc_every_n_commits = 0;
        let engine = MvEngine::with_logger(
            config,
            std::sync::Arc::new(mmdb_storage::log::NullLogger::new()),
        );
        let table = engine.create_table(ordered_spec()).unwrap();
        engine.populate(table, (0..ROWS).map(grouped_row)).unwrap();

        let isolation = IsolationLevel::SnapshotIsolation;

        // Equality reads and short hash scans: identical bar to the
        // hash-only fixture, now with the ordered index present.
        let mut txn = engine.begin(isolation);
        let mut checksum = 0u64;
        txn.read_with(table, IndexId(0), 1, &mut |row| {
            checksum += rowbuf::key_of(row)
        })
        .unwrap();
        txn.scan_key_with(table, IndexId(1), 1, &mut |row| {
            checksum += rowbuf::key_of(row)
        })
        .unwrap();
        txn.scan_range_with(table, ORDERED, 1, 1 + GROUP_SIZE, &mut |row| {
            checksum += rowbuf::key_of(row)
        })
        .unwrap();
        let read_allocs = count_allocations(|| {
            for i in 0..1_000u64 {
                let key = (i * 31) % ROWS;
                txn.read_with(table, IndexId(0), key, &mut |row| {
                    checksum += rowbuf::key_of(row);
                })
                .unwrap();
                let group = (i * 7) % (ROWS / GROUP_SIZE);
                txn.scan_key_with(table, IndexId(1), group, &mut |row| {
                    checksum += rowbuf::key_of(row);
                })
                .unwrap();
            }
        });
        assert_eq!(
            read_allocs, 0,
            "equality reads/scans on an ordered-indexed table must not allocate \
             on {mode:?} (checksum {checksum})"
        );

        // Warmed range scans below serializable: also allocation-free.
        let mut visited = 0u64;
        let range_allocs = count_allocations(|| {
            for i in 0..1_000u64 {
                let lo = (i * 13) % ROWS;
                let hi = lo + GROUP_SIZE;
                visited += txn
                    .scan_range_with(table, ORDERED, lo, hi, &mut |row| {
                        checksum += rowbuf::key_of(row);
                    })
                    .unwrap() as u64;
            }
        });
        assert!(visited > 0, "range scans must visit rows");
        assert_eq!(
            range_allocs, 0,
            "warmed range scans on {mode:?} must stream off the skip list \
             without allocating (checksum {checksum})"
        );
        txn.commit().unwrap();

        // Whole update transactions: warm, drain into the pool, measure.
        for i in 0..WARM_TXNS {
            let key = (i * 31) % ROWS;
            let mut txn = engine.begin(isolation);
            assert!(txn
                .update(table, IndexId(0), key, grouped_row(key))
                .unwrap());
            txn.commit().unwrap();
        }
        drain_into_pool(&engine, table, MEASURED_TXNS as usize + 1);
        let keys: Vec<u64> = (0..MEASURED_TXNS).map(|i| (i * 37) % ROWS).collect();
        let rows: Vec<Row> = keys.iter().map(|&k| grouped_row(k)).collect();
        let write_allocs = count_allocations(|| {
            for (i, &key) in keys.iter().enumerate() {
                let mut txn = engine.begin(isolation);
                assert!(txn.update(table, IndexId(0), key, rows[i].clone()).unwrap());
                txn.commit().unwrap();
            }
        });
        assert_eq!(
            write_allocs, 0,
            "warmed update transactions on an ordered-indexed table must not \
             allocate on {mode:?}"
        );

        // The contrast: inserting a novel key grows the skip list and must
        // allocate its key node — there is no pool for new key space.
        let novel = grouped_row(ROWS + 1);
        let novel_allocs = count_allocations(|| {
            let mut txn = engine.begin(isolation);
            txn.insert(table, novel.clone()).unwrap();
            txn.commit().unwrap();
        });
        assert!(
            novel_allocs > 0,
            "a novel-key insert into an ordered index allocates its skip-list \
             node; zero would mean this documentation is stale"
        );
    }
}

/// The adaptive-policy acceptance bar: consulting the contention
/// monitor at `begin()` and recording outcomes at commit are relaxed atomic
/// reads and writes on fixed slots — switching the engine to
/// `CcPolicy::Adaptive` must not put a single allocation back on the hot
/// paths. Warmed point reads, short scans and whole update transactions all
/// stay at zero.
#[test]
fn adaptive_policy_keeps_hot_paths_allocation_free() {
    let _serial = serial();
    use mmdb_core::CcPolicy;
    let config = MvConfig {
        cc: CcPolicy::ADAPTIVE,
        gc_every_n_commits: 0,
        ..MvConfig::default()
    };
    let engine = MvEngine::with_logger(
        config,
        std::sync::Arc::new(mmdb_storage::log::NullLogger::new()),
    );
    let table = engine.create_table(grouped_spec(ROWS)).unwrap();
    engine.populate(table, (0..ROWS).map(grouped_row)).unwrap();
    let isolation = IsolationLevel::SnapshotIsolation;

    // Read path: warm one transaction, then measure fresh per-op work —
    // including the policy consultation in `begin()` — across many txns.
    let mut checksum = 0u64;
    {
        let mut txn = engine.begin(isolation);
        txn.read_with(table, IndexId(0), 1, &mut |row| {
            checksum += rowbuf::key_of(row)
        })
        .unwrap();
        txn.scan_key_with(table, IndexId(1), 1, &mut |row| {
            checksum += rowbuf::key_of(row)
        })
        .unwrap();
        txn.commit().unwrap();
    }
    // More whole transactions so every engine pool (buffer sets, and enough
    // handles to cover the two-epoch lag of their release by the transaction
    // table) is warm before counting.
    for _ in 0..256 {
        let mut txn = engine.begin(isolation);
        txn.read_with(table, IndexId(0), 2, &mut |row| {
            checksum += rowbuf::key_of(row)
        })
        .unwrap();
        txn.commit().unwrap();
    }
    let read_allocs = count_allocations(|| {
        for i in 0..200u64 {
            let key = (i * 31) % ROWS;
            let mut txn = engine.begin(isolation);
            txn.read_with(table, IndexId(0), key, &mut |row| {
                checksum += rowbuf::key_of(row);
            })
            .unwrap();
            txn.commit().unwrap();
        }
    });
    assert_eq!(
        read_allocs, 0,
        "warmed read transactions under CcPolicy::Adaptive must not allocate \
         (checksum {checksum})"
    );

    // Write path: same bar as the static-mode fixture — the adaptive
    // begin() consultation, the touched-table note and the commit-side
    // telemetry record must all ride on recycled capacity.
    for i in 0..WARM_TXNS {
        let key = (i * 31) % ROWS;
        let mut txn = engine.begin(isolation);
        assert!(txn
            .update(table, IndexId(0), key, grouped_row(key))
            .unwrap());
        txn.commit().unwrap();
    }
    drain_into_pool(&engine, table, MEASURED_TXNS as usize + 1);
    let keys: Vec<u64> = (0..MEASURED_TXNS).map(|i| (i * 37) % ROWS).collect();
    let rows: Vec<Row> = keys.iter().map(|&k| grouped_row(k)).collect();
    let write_allocs = count_allocations(|| {
        for (i, &key) in keys.iter().enumerate() {
            let mut txn = engine.begin(isolation);
            assert!(txn.update(table, IndexId(0), key, rows[i].clone()).unwrap());
            txn.commit().unwrap();
        }
    });
    assert_eq!(
        write_allocs, 0,
        "warmed update transactions under CcPolicy::Adaptive must not allocate"
    );
}

/// The documented 1V contrast, write-path edition: the single-version
/// engine's update transaction materializes lookups, undo images and log
/// ops — it allocates by design, exactly the overhead the MV write path
/// sheds.
#[test]
fn onev_update_txns_allocate_by_design() {
    let _serial = serial();
    use mmdb_onev::{SvConfig, SvEngine};
    let engine = SvEngine::new(SvConfig::default());
    let table = engine.create_table(grouped_spec(ROWS)).unwrap();
    engine.populate(table, (0..ROWS).map(grouped_row)).unwrap();

    for i in 0..64u64 {
        let key = i % ROWS;
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        assert!(txn
            .update(table, IndexId(0), key, grouped_row(key))
            .unwrap());
        txn.commit().unwrap();
    }
    let row = grouped_row(5);
    let allocs = count_allocations(|| {
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        assert!(txn.update(table, IndexId(0), 5, row.clone()).unwrap());
        txn.commit().unwrap();
    });
    assert!(
        allocs > 0,
        "1V update transactions stage lookups, undo and log ops; an \
         allocation-free 1V write would mean this documentation is stale"
    );
}

/// The group-commit acceptance bar for the async path: warmed update
/// transactions stay allocation-free when the engine logs through a
/// `GroupCommitLog` — the commit frames its write set into the transaction's
/// reusable encode buffer and `append_frame_ticketed` copies it into the
/// shared batch buffer, whose capacity (pre-reserved and recycled by the
/// flusher's buffer swap) absorbs steady-state batches without growing. The
/// background flusher thread does the write+sync; its (zero) allocations are
/// on its own thread and would not be counted anyway.
#[test]
fn warmed_async_commits_through_group_commit_log_allocate_nothing() {
    let _serial = serial();
    use mmdb_storage::group_commit::GroupCommitLog;
    use mmdb_storage::log::RedoLogger as _;

    let path = std::env::temp_dir().join(format!(
        "mmdb-alloc-free-groupcommit-{}.log",
        std::process::id()
    ));
    let mut config = MvConfig::optimistic();
    config.gc_every_n_commits = 0;
    let logger = std::sync::Arc::new(
        GroupCommitLog::with_tick(&path, std::time::Duration::from_millis(1)).unwrap(),
    );
    let engine = MvEngine::with_logger(config, logger.clone());
    let table = engine.create_table(grouped_spec(ROWS)).unwrap();
    engine.populate(table, (0..ROWS).map(grouped_row)).unwrap();

    for i in 0..WARM_TXNS {
        let key = (i * 31) % ROWS;
        let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
        assert!(txn
            .update(table, IndexId(0), key, grouped_row(key))
            .unwrap());
        txn.commit().unwrap();
    }
    drain_into_pool(&engine, table, MEASURED_TXNS as usize + 1);

    let keys: Vec<u64> = (0..MEASURED_TXNS).map(|i| (i * 37) % ROWS).collect();
    let rows: Vec<Row> = keys.iter().map(|&k| grouped_row(k)).collect();
    let allocs = count_allocations(|| {
        for (i, &key) in keys.iter().enumerate() {
            let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
            assert!(txn.update(table, IndexId(0), key, rows[i].clone()).unwrap());
            txn.commit().unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "warmed async commits through the group-commit log must not allocate"
    );

    // And the log really carried every frame: flush and count.
    logger.flush().unwrap();
    assert_eq!(
        logger.records_written(),
        WARM_TXNS + MEASURED_TXNS,
        "every committed write transaction appended exactly one frame"
    );
    drop(engine);
    drop(logger);
    let _ = std::fs::remove_file(&path);
}

//! Behavioural tests of paper-specific mechanisms that the crate-level unit
//! tests do not cover: lower isolation levels, read-lock saturation, commit
//! dependencies and cascaded aborts, eager updates, bucket-lock phantom
//! prevention for MV/L, and garbage-collection interaction with snapshots.

use std::sync::Arc;
use std::time::Duration;

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::error::MmdbError;
use mmdb_common::ids::IndexId;
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_common::row::{rowbuf, TableSpec};
use mmdb_core::{MvConfig, MvEngine};
use mmdb_storage::durable::Durable;

const FILLER: usize = 16;

fn engine_with_rows(mode: ConcurrencyMode, rows: u64) -> (MvEngine, mmdb_common::ids::TableId) {
    let engine = match mode {
        ConcurrencyMode::Optimistic => MvEngine::optimistic(MvConfig::default()),
        ConcurrencyMode::Pessimistic => MvEngine::pessimistic(MvConfig::default()),
    };
    let table = engine
        .create_table(TableSpec::keyed_u64("t", (rows as usize).max(16)))
        .unwrap();
    engine
        .populate(table, (0..rows).map(|k| rowbuf::keyed_row(k, FILLER, 1)))
        .unwrap();
    (engine, table)
}

// ---------------------------------------------------------------------------
// Lower isolation levels (§3.4): the requester bears the cost, bystanders are
// unaffected, and weaker levels skip the work entirely.
// ---------------------------------------------------------------------------

#[test]
fn read_committed_never_fails_validation() {
    let (engine, t) = engine_with_rows(ConcurrencyMode::Optimistic, 50);
    let mut txn = engine.begin(IsolationLevel::ReadCommitted);
    assert!(txn.read(t, IndexId(0), 7).unwrap().is_some());

    // Another transaction overwrites the row we read and commits.
    let mut writer = engine.begin(IsolationLevel::ReadCommitted);
    writer
        .update(t, IndexId(0), 7, rowbuf::keyed_row(7, FILLER, 99))
        .unwrap();
    writer.commit().unwrap();

    // Read committed does not track reads, so commit succeeds.
    txn.update(t, IndexId(0), 8, rowbuf::keyed_row(8, FILLER, 2))
        .unwrap();
    txn.commit().expect("read committed has no read validation");
}

#[test]
fn repeatable_read_validates_reads_but_not_phantoms() {
    let (engine, t) = engine_with_rows(ConcurrencyMode::Optimistic, 50);

    // Phantom scenario: a repeatable-read transaction scans a missing key,
    // another transaction inserts it. RR does not repeat scans, so it commits.
    let mut rr = engine.begin(IsolationLevel::RepeatableRead);
    assert!(rr.read(t, IndexId(0), 999).unwrap().is_none());
    let mut ins = engine.begin(IsolationLevel::ReadCommitted);
    ins.insert(t, rowbuf::keyed_row(999, FILLER, 5)).unwrap();
    ins.commit().unwrap();
    rr.commit()
        .expect("repeatable read does not detect phantoms");

    // Read-stability scenario: RR must still detect a changed read.
    let mut rr = engine.begin(IsolationLevel::RepeatableRead);
    assert!(rr.read(t, IndexId(0), 3).unwrap().is_some());
    let mut w = engine.begin(IsolationLevel::ReadCommitted);
    w.update(t, IndexId(0), 3, rowbuf::keyed_row(3, FILLER, 7))
        .unwrap();
    w.commit().unwrap();
    assert_eq!(rr.commit().unwrap_err(), MmdbError::ReadValidationFailed);
}

#[test]
fn snapshot_isolation_skips_all_tracking_but_keeps_first_writer_wins() {
    let (engine, t) = engine_with_rows(ConcurrencyMode::Optimistic, 20);
    let mut a = engine.begin(IsolationLevel::SnapshotIsolation);
    let mut b = engine.begin(IsolationLevel::SnapshotIsolation);
    assert!(a.read(t, IndexId(0), 1).unwrap().is_some());
    assert!(b.read(t, IndexId(0), 1).unwrap().is_some());
    // Concurrent writes to the same row: the second writer loses immediately.
    assert!(a
        .update(t, IndexId(0), 1, rowbuf::keyed_row(1, FILLER, 2))
        .unwrap());
    let err = b
        .update(t, IndexId(0), 1, rowbuf::keyed_row(1, FILLER, 3))
        .unwrap_err();
    assert!(matches!(err, MmdbError::WriteWriteConflict { .. }));
    b.abort();
    a.commit().unwrap();
}

// ---------------------------------------------------------------------------
// Pessimistic record locks (§4.1.1, §4.2.1)
// ---------------------------------------------------------------------------

#[test]
fn read_lock_count_saturates_at_255_readers() {
    let (engine, t) = engine_with_rows(ConcurrencyMode::Pessimistic, 10);
    // 255 concurrent repeatable-read transactions read-lock the same row.
    let mut readers: Vec<_> = (0..255)
        .map(|_| {
            let mut txn = engine.begin(IsolationLevel::RepeatableRead);
            assert!(txn.read(t, IndexId(0), 4).unwrap().is_some());
            txn
        })
        .collect();
    // The 256th reader cannot acquire a read lock and aborts.
    let mut unlucky = engine.begin(IsolationLevel::RepeatableRead);
    let err = unlucky.read(t, IndexId(0), 4).unwrap_err();
    assert_eq!(err, MmdbError::ReadLockUnavailable);
    unlucky.abort();
    // Readers finish fine and release their locks; afterwards locking works again.
    for txn in readers.drain(..) {
        txn.commit().unwrap();
    }
    let mut again = engine.begin(IsolationLevel::RepeatableRead);
    assert!(again.read(t, IndexId(0), 4).unwrap().is_some());
    again.commit().unwrap();
}

#[test]
fn eager_update_of_read_locked_version_waits_for_reader() {
    let (engine, t) = engine_with_rows(ConcurrencyMode::Pessimistic, 10);
    let mut reader = engine.begin(IsolationLevel::RepeatableRead);
    assert!(reader.read(t, IndexId(0), 2).unwrap().is_some());

    // The writer performs its update during normal processing without
    // blocking (eager update) ...
    let mut writer = engine.begin(IsolationLevel::ReadCommitted);
    assert!(writer
        .update(t, IndexId(0), 2, rowbuf::keyed_row(2, FILLER, 9))
        .unwrap());

    // ... but its commit can only complete after the reader releases its
    // read lock. Run the commit on another thread and make sure it finishes
    // only after we let the reader go.
    let handle = std::thread::spawn(move || writer.commit());
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !handle.is_finished(),
        "writer must wait for the read lock to drain"
    );
    reader.commit().unwrap();
    assert!(handle.join().unwrap().is_ok());
}

#[test]
fn serializable_pessimistic_scans_prevent_phantoms_via_wait_for() {
    let (engine, t) = engine_with_rows(ConcurrencyMode::Pessimistic, 10);
    // The scanner locks the bucket of key 777 (which does not exist).
    let mut scanner = engine.begin(IsolationLevel::Serializable);
    assert!(scanner.read(t, IndexId(0), 777).unwrap().is_none());

    // The inserter may insert eagerly but cannot commit before the scanner
    // finishes (wait-for dependency on the bucket lock).
    let mut inserter =
        engine.begin_with(ConcurrencyMode::Pessimistic, IsolationLevel::ReadCommitted);
    inserter
        .insert(t, rowbuf::keyed_row(777, FILLER, 1))
        .unwrap();
    let inserter_thread = std::thread::spawn(move || inserter.commit());
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !inserter_thread.is_finished(),
        "inserter must wait for the bucket lock holder"
    );

    // The scanner repeats its scan and still sees nothing (no phantom), then
    // commits, releasing the inserter.
    assert!(scanner.read(t, IndexId(0), 777).unwrap().is_none());
    scanner.commit().unwrap();
    assert!(inserter_thread.join().unwrap().is_ok());

    // Now the row is visible.
    let mut check = engine.begin(IsolationLevel::ReadCommitted);
    assert!(check.read(t, IndexId(0), 777).unwrap().is_some());
    check.commit().unwrap();
}

// ---------------------------------------------------------------------------
// Commit dependencies and cascaded aborts (§2.7)
// ---------------------------------------------------------------------------

#[test]
fn speculative_read_of_preparing_writer_creates_commit_dependency() {
    // A pessimistic writer that must wait for a read lock sits in its
    // pre-precommit wait; during that window its new version is visible only
    // speculatively. We exercise the path where the dependency target
    // ultimately commits.
    let (engine, t) = engine_with_rows(ConcurrencyMode::Pessimistic, 10);
    let mut reader_hold = engine.begin(IsolationLevel::RepeatableRead);
    assert!(reader_hold.read(t, IndexId(0), 5).unwrap().is_some());

    let mut writer = engine.begin(IsolationLevel::ReadCommitted);
    writer
        .update(t, IndexId(0), 5, rowbuf::keyed_row(5, FILLER, 42))
        .unwrap();
    let writer_thread = std::thread::spawn(move || writer.commit());
    std::thread::sleep(Duration::from_millis(50));

    // A read-committed reader (reads at "now") encounters the write-locked
    // version while the writer is still active/waiting: it must see the old
    // value, not block, and not error.
    let mut rc = engine.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        rc.read(t, IndexId(0), 5)
            .unwrap()
            .map(|r| rowbuf::fill_of(&r)),
        Some(1)
    );
    rc.commit().unwrap();

    reader_hold.commit().unwrap();
    writer_thread.join().unwrap().unwrap();

    let mut after = engine.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        after
            .read(t, IndexId(0), 5)
            .unwrap()
            .map(|r| rowbuf::fill_of(&r)),
        Some(42)
    );
    after.commit().unwrap();
}

#[test]
fn abort_now_flag_cascades_into_commit_failure() {
    let (engine, t) = engine_with_rows(ConcurrencyMode::Optimistic, 10);
    let mut txn = engine.begin(IsolationLevel::ReadCommitted);
    txn.update(t, IndexId(0), 1, rowbuf::keyed_row(1, FILLER, 9))
        .unwrap();
    // Simulate a dependency abort: another party sets our AbortNow flag.
    engine
        .store()
        .txns()
        .get_in(txn.id(), &crossbeam::epoch::pin())
        .unwrap()
        .request_abort();
    let err = txn.commit().unwrap_err();
    assert_eq!(err, MmdbError::CommitDependencyFailed);
    // The write is rolled back.
    let mut check = engine.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        check
            .read(t, IndexId(0), 1)
            .unwrap()
            .map(|r| rowbuf::fill_of(&r)),
        Some(1)
    );
    check.commit().unwrap();
}

// ---------------------------------------------------------------------------
// Garbage collection and version chains
// ---------------------------------------------------------------------------

#[test]
fn gc_never_reclaims_versions_visible_to_an_open_snapshot() {
    let (engine, t) = engine_with_rows(ConcurrencyMode::Optimistic, 20);
    let mut snapshot = engine.begin(IsolationLevel::SnapshotIsolation);
    assert_eq!(
        snapshot
            .read(t, IndexId(0), 3)
            .unwrap()
            .map(|r| rowbuf::fill_of(&r)),
        Some(1)
    );

    // Overwrite row 3 five times, committing each time, and try to collect.
    for fill in 2..=6u8 {
        let mut w = engine.begin(IsolationLevel::ReadCommitted);
        w.update(t, IndexId(0), 3, rowbuf::keyed_row(3, FILLER, fill))
            .unwrap();
        w.commit().unwrap();
        engine.collect_garbage();
    }
    // The open snapshot must still see its original version.
    assert_eq!(
        snapshot
            .read(t, IndexId(0), 3)
            .unwrap()
            .map(|r| rowbuf::fill_of(&r)),
        Some(1)
    );
    snapshot.commit().unwrap();

    // After the snapshot ends, the superseded versions become collectible.
    let mut reclaimed = 0;
    for _ in 0..10 {
        reclaimed += engine.collect_garbage();
    }
    assert!(
        reclaimed >= 4,
        "old versions of row 3 must eventually be reclaimed, got {reclaimed}"
    );
    let mut check = engine.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        check
            .read(t, IndexId(0), 3)
            .unwrap()
            .map(|r| rowbuf::fill_of(&r)),
        Some(6)
    );
    check.commit().unwrap();
}

#[test]
fn version_chains_grow_and_shrink_as_expected() {
    let (engine, t) = engine_with_rows(ConcurrencyMode::Optimistic, 8);
    assert_eq!(engine.version_count(t).unwrap(), 8);
    for round in 0..3u8 {
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        for key in 0..8u64 {
            txn.update(
                t,
                IndexId(0),
                key,
                rowbuf::keyed_row(key, FILLER, round + 2),
            )
            .unwrap();
        }
        txn.commit().unwrap();
    }
    assert_eq!(
        engine.version_count(t).unwrap(),
        32,
        "8 live + 24 superseded"
    );
    while engine.collect_garbage() > 0 {}
    assert_eq!(engine.version_count(t).unwrap(), 8);

    // Deletes leave only the (eventually collectible) deleted versions.
    let mut txn = engine.begin(IsolationLevel::ReadCommitted);
    for key in 0..4u64 {
        assert!(txn.delete(t, IndexId(0), key).unwrap());
    }
    txn.commit().unwrap();
    while engine.collect_garbage() > 0 {}
    assert_eq!(engine.version_count(t).unwrap(), 4);
}

// ---------------------------------------------------------------------------
// Mixed-mode interaction (§4.5): optimistic writers honor pessimistic locks.
// ---------------------------------------------------------------------------

#[test]
fn optimistic_writer_waits_for_pessimistic_read_lock() {
    let engine = MvEngine::optimistic(MvConfig::default());
    let t = engine.create_table(TableSpec::keyed_u64("t", 32)).unwrap();
    engine
        .populate(t, (0..8u64).map(|k| rowbuf::keyed_row(k, FILLER, 1)))
        .unwrap();

    // A pessimistic repeatable-read transaction read-locks row 1.
    let mut pess_reader =
        engine.begin_with(ConcurrencyMode::Pessimistic, IsolationLevel::RepeatableRead);
    assert!(pess_reader.read(t, IndexId(0), 1).unwrap().is_some());

    // An optimistic writer updates the same row eagerly but must not commit
    // before the read lock is released.
    let mut opt_writer =
        engine.begin_with(ConcurrencyMode::Optimistic, IsolationLevel::ReadCommitted);
    assert!(opt_writer
        .update(t, IndexId(0), 1, rowbuf::keyed_row(1, FILLER, 50))
        .unwrap());
    let writer_thread = std::thread::spawn(move || opt_writer.commit());
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !writer_thread.is_finished(),
        "optimistic writers honor pessimistic read locks (§4.5)"
    );

    pess_reader.commit().unwrap();
    assert!(writer_thread.join().unwrap().is_ok());
}

// ---------------------------------------------------------------------------
// Redo-log replay: a fresh engine fed the old engine's log reaches the same
// visible state.
// ---------------------------------------------------------------------------

#[test]
fn replaying_the_redo_log_rebuilds_the_database() {
    use mmdb_storage::{MemoryLogger, RedoLogger};

    let logger = Arc::new(MemoryLogger::new());
    let engine = MvEngine::with_logger(
        MvConfig::default(),
        Arc::clone(&logger) as Arc<dyn RedoLogger>,
    );
    let t = engine.create_table(TableSpec::keyed_u64("t", 64)).unwrap();

    // All data arrives through logged transactions (populate bypasses the log).
    let mut load = engine.begin(IsolationLevel::ReadCommitted);
    for k in 0..32u64 {
        load.insert(t, rowbuf::keyed_row(k, FILLER, 1)).unwrap();
    }
    load.commit().unwrap();

    // A mix of updates, deletes, an aborted transaction and a second update
    // of the same key (later timestamp must win on replay).
    let mut txn = engine.begin(IsolationLevel::ReadCommitted);
    txn.update(t, IndexId(0), 3, rowbuf::keyed_row(3, FILLER, 7))
        .unwrap();
    txn.delete(t, IndexId(0), 4).unwrap();
    txn.commit().unwrap();

    let mut aborted = engine.begin(IsolationLevel::ReadCommitted);
    aborted
        .update(t, IndexId(0), 5, rowbuf::keyed_row(5, FILLER, 99))
        .unwrap();
    aborted.abort();

    let mut txn = engine.begin(IsolationLevel::ReadCommitted);
    txn.update(t, IndexId(0), 3, rowbuf::keyed_row(3, FILLER, 9))
        .unwrap();
    txn.insert(t, rowbuf::keyed_row(100, FILLER, 2)).unwrap();
    txn.commit().unwrap();

    // Recover into a fresh engine with the same table layout.
    let recovered = MvEngine::optimistic(MvConfig::default());
    let t2 = recovered
        .create_table(TableSpec::keyed_u64("t", 64))
        .unwrap();
    assert_eq!(t2, t, "table ids must match for replay");
    let applied = recovered
        .recover_bytes(&logger.encoded_bytes())
        .unwrap()
        .records_applied;
    assert_eq!(applied, 3, "only committed transactions are in the log");

    // The recovered database matches the original's visible state.
    let mut orig = engine.begin(IsolationLevel::ReadCommitted);
    let mut copy = recovered.begin(IsolationLevel::ReadCommitted);
    for k in 0..=100u64 {
        let a = orig.read(t, IndexId(0), k).unwrap();
        let b = copy.read(t2, IndexId(0), k).unwrap();
        assert_eq!(a, b, "key {k} differs after replay");
    }
    orig.commit().unwrap();
    copy.commit().unwrap();
}

// ---------------------------------------------------------------------------
// Failure injection: engine shared across threads with frequent forced aborts
// keeps its data structures consistent.
// ---------------------------------------------------------------------------

#[test]
fn random_forced_aborts_leave_the_database_consistent() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let (engine, t) = engine_with_rows(ConcurrencyMode::Pessimistic, 32);
    let engine = Arc::new(engine);
    std::thread::scope(|scope| {
        for w in 0..3u64 {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(w);
                for i in 0..200u64 {
                    let mode = if rng.gen_bool(0.5) {
                        ConcurrencyMode::Optimistic
                    } else {
                        ConcurrencyMode::Pessimistic
                    };
                    let mut txn = engine.begin_with(mode, IsolationLevel::Serializable);
                    let key = rng.gen_range(0..32u64);
                    let _ = txn.read(t, IndexId(0), key);
                    let _ = txn.update(t, IndexId(0), key, rowbuf::keyed_row(key, FILLER, i as u8));
                    if rng.gen_bool(0.3) {
                        // Forced abort, sometimes even via the AbortNow flag.
                        if rng.gen_bool(0.5) {
                            let guard = crossbeam::epoch::pin();
                            if let Some(h) = engine.store().txns().get_in(txn.id(), &guard) {
                                h.request_abort()
                            }
                        }
                        txn.abort();
                    } else {
                        let _ = txn.commit();
                    }
                }
            });
        }
    });
    // Every key still has exactly one visible version and GC can run to
    // completion without upsetting that.
    while engine.collect_garbage() > 0 {}
    let mut check = engine.begin(IsolationLevel::ReadCommitted);
    for key in 0..32u64 {
        assert!(
            check.read(t, IndexId(0), key).unwrap().is_some(),
            "key {key} lost"
        );
    }
    check.commit().unwrap();
    assert_eq!(engine.version_count(t).unwrap(), 32);
}

// ---------------------------------------------------------------------------
// Commit durability (§5 + the group-commit subsystem): Async never waits for
// log I/O, Sync returns only once the redo bytes are on durable storage, and
// a log that can no longer confirm durability fails the Sync commit cleanly.
// ---------------------------------------------------------------------------

/// A group-commit tick longer than any test here: the log's ticker never
/// fires, so only Sync committers and explicit flushes harden.
const LONG_TICK: Duration = Duration::from_secs(3600);

#[test]
fn sync_commit_is_durable_on_return_while_async_commit_is_not_yet() {
    use mmdb_common::durability::Durability;
    use mmdb_storage::group_commit::GroupCommitLog;
    use mmdb_storage::log::read_log_file;

    let path = std::env::temp_dir().join(format!(
        "mmdb-behaviors-durability-{}.log",
        std::process::id()
    ));
    // A tick longer than the test: nothing hardens unless a Sync committer
    // (or an explicit flush) drives it — which makes the semantic
    // difference observable.
    let logger = Arc::new(GroupCommitLog::with_tick(&path, LONG_TICK).unwrap());
    let engine = MvEngine::with_logger(MvConfig::optimistic(), logger.clone());
    let t = engine.create_table(TableSpec::keyed_u64("t", 16)).unwrap();
    engine
        .populate(t, (0..4u64).map(|k| rowbuf::keyed_row(k, FILLER, 1)))
        .unwrap();

    // Async (the default): commit returns without the frame being hardened.
    let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
    assert_eq!(txn.durability(), Durability::Async);
    assert!(txn
        .update(t, IndexId(0), 0, rowbuf::keyed_row(0, FILLER, 2))
        .unwrap());
    txn.commit().unwrap();
    assert_eq!(
        read_log_file(&path).unwrap().records.len(),
        0,
        "async commit must not wait for (or force) a flush"
    );

    // Sync: by the time commit returns, the bytes are on disk — both the
    // async transaction's frame (lower LSN, same stream) and our own.
    let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
    txn.set_durability(Durability::Sync);
    assert!(txn
        .update(t, IndexId(0), 1, rowbuf::keyed_row(1, FILLER, 3))
        .unwrap());
    txn.commit().unwrap();
    let records = read_log_file(&path).unwrap().records;
    assert_eq!(
        records.len(),
        2,
        "sync commit hardens every lower ticket along with its own"
    );
    drop(engine);
    drop(logger);
    let _ = std::fs::remove_file(&path);
}

#[cfg(target_os = "linux")]
#[test]
fn sync_commit_on_a_failed_log_rolls_back_and_reports_log_io() {
    use mmdb_common::durability::Durability;
    use mmdb_storage::group_commit::GroupCommitLog;

    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    // /dev/full fails every write with ENOSPC: durability can never be
    // confirmed, so the Sync commit must fail — and roll back in memory, so
    // the reported outcome matches the (empty) durable log.
    let logger = Arc::new(GroupCommitLog::with_tick("/dev/full", LONG_TICK).unwrap());
    let engine = MvEngine::with_logger(MvConfig::optimistic(), logger);
    let t = engine.create_table(TableSpec::keyed_u64("t", 16)).unwrap();
    engine
        .populate(t, (0..4u64).map(|k| rowbuf::keyed_row(k, FILLER, 1)))
        .unwrap();

    let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
    txn.set_durability(Durability::Sync);
    assert!(txn
        .update(t, IndexId(0), 2, rowbuf::keyed_row(2, FILLER, 9))
        .unwrap());
    let result = txn.commit();
    assert!(
        matches!(result, Err(MmdbError::LogIo(_))),
        "sync commit must surface the sticky log error, got {result:?}"
    );

    // The update was rolled back and the engine stays usable.
    let mut check = engine.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        check
            .read(t, IndexId(0), 2)
            .unwrap()
            .map(|r| rowbuf::fill_of(&r)),
        Some(1),
        "a sync commit that could not confirm durability must not be visible"
    );
    check.commit().unwrap();
}

#[test]
fn onev_sync_commit_waits_for_the_group_commit_flush() {
    use mmdb_common::durability::Durability;
    use mmdb_onev::{SvConfig, SvEngine};
    use mmdb_storage::group_commit::GroupCommitLog;
    use mmdb_storage::log::read_log_file;

    let path = std::env::temp_dir().join(format!(
        "mmdb-behaviors-durability-1v-{}.log",
        std::process::id()
    ));
    // A tick longer than the test, so the Async frame below stays buffered.
    let logger = Arc::new(GroupCommitLog::with_tick(&path, LONG_TICK).unwrap());
    let engine = SvEngine::with_logger(
        SvConfig::default().with_durability(Durability::Sync),
        logger.clone(),
    );
    let t = engine.create_table(TableSpec::keyed_u64("t", 16)).unwrap();
    engine
        .populate(t, (0..4u64).map(|k| rowbuf::keyed_row(k, FILLER, 1)))
        .unwrap();

    // The engine default (from SvConfig) applies without a per-transaction
    // override.
    let mut txn = engine.begin(IsolationLevel::ReadCommitted);
    assert!(txn
        .update(t, IndexId(0), 0, rowbuf::keyed_row(0, FILLER, 7))
        .unwrap());
    txn.commit().unwrap();
    assert_eq!(read_log_file(&path).unwrap().records.len(), 1);

    // And a per-transaction opt-out back to Async skips the wait.
    let mut txn = engine.begin(IsolationLevel::ReadCommitted);
    txn.set_durability(Durability::Async);
    assert!(txn
        .update(t, IndexId(0), 1, rowbuf::keyed_row(1, FILLER, 8))
        .unwrap());
    txn.commit().unwrap();
    assert_eq!(
        read_log_file(&path).unwrap().records.len(),
        1,
        "the async transaction's frame stays buffered until the next flush"
    );
    drop(engine);
    drop(logger);
    let _ = std::fs::remove_file(&path);
}

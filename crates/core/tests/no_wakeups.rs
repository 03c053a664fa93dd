//! A transaction that meets no other transaction wakes nobody: from `begin`
//! to `commit` (or abort) it makes not one real condition-variable
//! notification — on the `std` condition variable underneath the
//! `parking_lot` shim each of those is a `futex` system call.
//!
//! A state transition (`TxnHandle::set_state`) is one plain store to the
//! handle's status word (its doc comment says who sleeps on a handle and on
//! what), and the shim's `Condvar` forwards a
//! notification only when a waiter is registered, which also covers the
//! wait-for releases, the commit-dependency resolutions and the group-commit
//! flusher's `durable_cv`. Before that change every commit made at least
//! three notifications.
//!
//! The count is process-wide, so this file holds one test.

use std::sync::Arc;

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::ids::IndexId;
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_common::row::{rowbuf, TableSpec};
use mmdb_core::{MvConfig, MvEngine};
use mmdb_storage::group_commit::GroupCommitLog;
use mmdb_storage::log::RedoLogger as _;

const ROWS: u64 = 64;
const ROUNDS: u64 = 400;

/// One begin → read / update / insert / delete → commit cycle per
/// isolation level, plus a user abort and an abort by drop.
fn lifecycle_round(engine: &MvEngine, table: mmdb_common::ids::TableId, round: u64) {
    let key = round % ROWS;
    let fresh = ROWS + round;
    for isolation in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::RepeatableRead,
        IsolationLevel::Serializable,
    ] {
        let mut txn = engine.begin(isolation);
        assert!(txn.read(table, IndexId(0), key).unwrap().is_some());
        txn.commit().unwrap();

        let mut txn = engine.begin(isolation);
        assert!(txn
            .update(table, IndexId(0), key, rowbuf::keyed_row(key, 16, 2))
            .unwrap());
        txn.insert(table, rowbuf::keyed_row(fresh, 16, 3)).unwrap();
        txn.commit().unwrap();

        let mut txn = engine.begin(isolation);
        assert!(txn.read(table, IndexId(0), fresh).unwrap().is_some());
        assert!(txn.delete(table, IndexId(0), fresh).unwrap());
        txn.commit().unwrap();

        let mut txn = engine.begin(isolation);
        assert!(txn
            .update(table, IndexId(0), key, rowbuf::keyed_row(key, 16, 4))
            .unwrap());
        txn.abort();

        let mut txn = engine.begin(isolation);
        txn.insert(table, rowbuf::keyed_row(fresh, 16, 5)).unwrap();
        drop(txn);
    }
}

#[test]
fn no_wakeups_in_uncontended_transactions() {
    let path = std::env::temp_dir().join(format!("mmdb-no-wakeups-{}.log", std::process::id()));
    for mode in [ConcurrencyMode::Optimistic, ConcurrencyMode::Pessimistic] {
        let config = match mode {
            ConcurrencyMode::Optimistic => MvConfig::optimistic(),
            ConcurrencyMode::Pessimistic => MvConfig::pessimistic(),
        };

        // Default configuration: discarding logger, cooperative GC on.
        let engine = MvEngine::new(config.clone());
        let table = engine.create_table(TableSpec::keyed_u64("t", 256)).unwrap();
        engine
            .populate(table, (0..ROWS).map(|k| rowbuf::keyed_row(k, 16, 1)))
            .unwrap();
        let before = parking_lot::std_notifications();
        for round in 0..ROUNDS {
            lifecycle_round(&engine, table, round);
        }
        let commits = engine.stats().snapshot().commits;
        assert!(commits >= ROUNDS * 12, "the cycles really committed");
        assert_eq!(
            parking_lot::std_notifications() - before,
            0,
            "{mode:?}: {commits} uncontended commits must not notify anyone"
        );

        // The same through a ticking group-commit log with asynchronous
        // durability: the flusher publishes its watermark to `durable_cv`
        // once per batch, and nobody waits on it.
        let logger = Arc::new(
            GroupCommitLog::with_tick(&path, std::time::Duration::from_millis(1)).unwrap(),
        );
        let engine = MvEngine::with_logger(config, logger.clone());
        let table = engine.create_table(TableSpec::keyed_u64("t", 256)).unwrap();
        engine
            .populate(table, (0..ROWS).map(|k| rowbuf::keyed_row(k, 16, 1)))
            .unwrap();
        let before = parking_lot::std_notifications();
        for round in 0..ROUNDS / 4 {
            lifecycle_round(&engine, table, round);
        }
        logger.flush().unwrap();
        assert!(logger.records_written() > 0, "the flusher had work");
        assert_eq!(
            parking_lot::std_notifications() - before,
            0,
            "{mode:?}: asynchronous commits through the group-commit log must not notify anyone"
        );
        drop(engine);
        drop(logger);
        let _ = std::fs::remove_file(&path);
    }
}

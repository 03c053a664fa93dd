//! # mmdb-core
//!
//! The paper's primary contribution: two multiversion concurrency-control
//! schemes for main-memory databases — an **optimistic** scheme based on
//! validation (MV/O, §3) and a **pessimistic** scheme based on multiversion
//! locking (MV/L, §4) — built on the shared storage substrate of
//! `mmdb-storage` and mutually compatible (§4.5), so a single database can
//! run both kinds of transactions concurrently.
//!
//! ## Quick tour
//!
//! ```
//! use mmdb_common::engine::{Engine, EngineTxn};
//! use mmdb_common::row::rowbuf;
//! use mmdb_common::{IndexId, IsolationLevel, TableSpec};
//! use mmdb_core::{MvConfig, MvEngine};
//!
//! let engine = MvEngine::optimistic(MvConfig::default());
//! let table = engine.create_table(TableSpec::keyed_u64("accounts", 1024)).unwrap();
//! engine.populate(table, (0..100u64).map(|k| rowbuf::keyed_row(k, 16, 10))).unwrap();
//!
//! let mut txn = engine.begin(IsolationLevel::Serializable);
//! let row = txn.read(table, IndexId(0), 7).unwrap().unwrap();
//! txn.update(table, IndexId(0), 7, rowbuf::keyed_row(7, 16, rowbuf::fill_of(&row) + 1)).unwrap();
//! txn.commit().unwrap();
//! ```
//!
//! ## Module map
//!
//! | Module | Paper | Contents |
//! |---|---|---|
//! | [`config`] | — | [`MvConfig`] |
//! | [`engine`] | — | [`MvEngine`], cooperative maintenance step (GC, then an automatic checkpoint when due), the deadlock-detection pass a blocked transaction runs |
//! | [`txn`] | §2.4, §3.1, §4.3.1 | [`MvTransaction`], normal-processing operations, read/bucket locks, wait-for and commit dependencies |
//! | [`commit`] | §3.2–3.3, §4.3.2–4.3.3, §4.4 | wait-for wait (with detection passes), precommit, optimistic validation, logging, postprocessing, abort |
//! | [`visibility`] | §2.5, §2.6 | version visibility and updatability (Tables 1 & 2), uniqueness on the latest state |
//! | [`deadlock`] | §4.4 | wait-for graph construction and Tarjan-based cycle detection |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(test)]
mod begin_regression;
pub mod commit;
pub mod config;
mod context;
pub mod deadlock;
#[cfg(test)]
mod delta_regression;
pub mod engine;
#[cfg(test)]
mod phantom_regression;
#[cfg(test)]
mod precommit_regression;
#[cfg(test)]
mod read_time_regression;
pub mod txn;
#[cfg(test)]
mod unique_regression;
pub mod visibility;

pub use config::{CcPolicy, MvConfig};
pub use engine::MvEngine;
pub use txn::MvTransaction;
pub use visibility::{check_updatable, check_visibility, Updatability, Visibility};

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_common::engine::{Engine, EngineTxn};
    use mmdb_common::error::MmdbError;
    use mmdb_common::ids::IndexId;
    use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
    use mmdb_common::row::{rowbuf, TableSpec};

    fn engine(mode: ConcurrencyMode) -> (MvEngine, mmdb_common::ids::TableId) {
        let engine = match mode {
            ConcurrencyMode::Optimistic => MvEngine::optimistic(MvConfig::default()),
            ConcurrencyMode::Pessimistic => MvEngine::pessimistic(MvConfig::default()),
        };
        let table = engine.create_table(TableSpec::keyed_u64("t", 256)).unwrap();
        engine
            .populate(table, (0..100u64).map(|k| rowbuf::keyed_row(k, 16, 1)))
            .unwrap();
        (engine, table)
    }

    fn both_modes() -> Vec<ConcurrencyMode> {
        vec![ConcurrencyMode::Optimistic, ConcurrencyMode::Pessimistic]
    }

    #[test]
    fn read_your_own_writes() {
        for mode in both_modes() {
            let (engine, t) = engine(mode);
            let mut txn = engine.begin(IsolationLevel::Serializable);
            assert_eq!(
                txn.read(t, IndexId(0), 5)
                    .unwrap()
                    .map(|r| rowbuf::fill_of(&r)),
                Some(1)
            );
            txn.update(t, IndexId(0), 5, rowbuf::keyed_row(5, 16, 99))
                .unwrap();
            assert_eq!(
                txn.read(t, IndexId(0), 5)
                    .unwrap()
                    .map(|r| rowbuf::fill_of(&r)),
                Some(99)
            );
            txn.commit().unwrap();

            let mut check = engine.begin(IsolationLevel::ReadCommitted);
            assert_eq!(
                check
                    .read(t, IndexId(0), 5)
                    .unwrap()
                    .map(|r| rowbuf::fill_of(&r)),
                Some(99)
            );
            check.commit().unwrap();
        }
    }

    #[test]
    fn aborted_writes_are_invisible() {
        for mode in both_modes() {
            let (engine, t) = engine(mode);
            let mut txn = engine.begin(IsolationLevel::Serializable);
            txn.update(t, IndexId(0), 5, rowbuf::keyed_row(5, 16, 99))
                .unwrap();
            txn.insert(t, rowbuf::keyed_row(1000, 16, 7)).unwrap();
            txn.abort();

            let mut check = engine.begin(IsolationLevel::ReadCommitted);
            assert_eq!(
                check
                    .read(t, IndexId(0), 5)
                    .unwrap()
                    .map(|r| rowbuf::fill_of(&r)),
                Some(1)
            );
            assert!(check.read(t, IndexId(0), 1000).unwrap().is_none());
            check.commit().unwrap();
        }
    }

    #[test]
    fn insert_then_read_and_delete() {
        for mode in both_modes() {
            let (engine, t) = engine(mode);
            let mut txn = engine.begin(IsolationLevel::ReadCommitted);
            txn.insert(t, rowbuf::keyed_row(500, 16, 42)).unwrap();
            txn.commit().unwrap();

            let mut txn = engine.begin(IsolationLevel::ReadCommitted);
            assert_eq!(
                txn.read(t, IndexId(0), 500)
                    .unwrap()
                    .map(|r| rowbuf::fill_of(&r)),
                Some(42)
            );
            assert!(txn.delete(t, IndexId(0), 500).unwrap());
            assert!(txn.read(t, IndexId(0), 500).unwrap().is_none());
            txn.commit().unwrap();

            let mut txn = engine.begin(IsolationLevel::ReadCommitted);
            assert!(txn.read(t, IndexId(0), 500).unwrap().is_none());
            assert!(!txn.delete(t, IndexId(0), 500).unwrap());
            txn.commit().unwrap();
        }
    }

    #[test]
    fn duplicate_insert_rejected() {
        for mode in both_modes() {
            let (engine, t) = engine(mode);
            let mut txn = engine.begin(IsolationLevel::ReadCommitted);
            let err = txn.insert(t, rowbuf::keyed_row(5, 16, 3)).unwrap_err();
            assert!(matches!(err, MmdbError::DuplicateKey { .. }));
            txn.abort();
        }
    }

    #[test]
    fn write_write_conflict_first_writer_wins() {
        for mode in both_modes() {
            let (engine, t) = engine(mode);
            let mut t1 = engine.begin(IsolationLevel::ReadCommitted);
            let mut t2 = engine.begin(IsolationLevel::ReadCommitted);
            assert!(t1
                .update(t, IndexId(0), 10, rowbuf::keyed_row(10, 16, 2))
                .unwrap());
            let err = t2
                .update(t, IndexId(0), 10, rowbuf::keyed_row(10, 16, 3))
                .unwrap_err();
            assert!(
                matches!(err, MmdbError::WriteWriteConflict { .. }),
                "{mode:?}: {err:?}"
            );
            t2.abort();
            t1.commit().unwrap();

            let mut check = engine.begin(IsolationLevel::ReadCommitted);
            assert_eq!(
                check
                    .read(t, IndexId(0), 10)
                    .unwrap()
                    .map(|r| rowbuf::fill_of(&r)),
                Some(2)
            );
            check.commit().unwrap();
        }
    }

    #[test]
    fn snapshot_isolation_reads_as_of_begin() {
        for mode in both_modes() {
            let (engine, t) = engine(mode);
            let mut snapshot = engine.begin(IsolationLevel::SnapshotIsolation);
            // Touch the snapshot so its begin time is pinned by a read.
            assert_eq!(
                snapshot
                    .read(t, IndexId(0), 3)
                    .unwrap()
                    .map(|r| rowbuf::fill_of(&r)),
                Some(1)
            );

            // A later writer commits a change.
            let mut writer = engine.begin(IsolationLevel::ReadCommitted);
            writer
                .update(t, IndexId(0), 3, rowbuf::keyed_row(3, 16, 77))
                .unwrap();
            writer.commit().unwrap();

            // The snapshot still sees the old value; a read-committed reader
            // sees the new one.
            assert_eq!(
                snapshot
                    .read(t, IndexId(0), 3)
                    .unwrap()
                    .map(|r| rowbuf::fill_of(&r)),
                Some(1)
            );
            snapshot.commit().unwrap();

            let mut rc = engine.begin(IsolationLevel::ReadCommitted);
            assert_eq!(
                rc.read(t, IndexId(0), 3)
                    .unwrap()
                    .map(|r| rowbuf::fill_of(&r)),
                Some(77)
            );
            rc.commit().unwrap();
        }
    }

    #[test]
    fn optimistic_serializable_detects_non_repeatable_read() {
        let (engine, t) = engine(ConcurrencyMode::Optimistic);
        let mut reader = engine.begin(IsolationLevel::Serializable);
        assert!(reader.read(t, IndexId(0), 20).unwrap().is_some());

        let mut writer = engine.begin(IsolationLevel::ReadCommitted);
        writer
            .update(t, IndexId(0), 20, rowbuf::keyed_row(20, 16, 9))
            .unwrap();
        writer.commit().unwrap();

        let err = reader.commit().unwrap_err();
        assert_eq!(err, MmdbError::ReadValidationFailed);
    }

    #[test]
    fn optimistic_serializable_detects_phantom() {
        let (engine, t) = engine(ConcurrencyMode::Optimistic);
        let mut scanner = engine.begin(IsolationLevel::Serializable);
        // Key 1234 does not exist yet; the scan is registered.
        assert!(scanner.read(t, IndexId(0), 1234).unwrap().is_none());

        let mut inserter = engine.begin(IsolationLevel::ReadCommitted);
        inserter.insert(t, rowbuf::keyed_row(1234, 16, 1)).unwrap();
        inserter.commit().unwrap();

        let err = scanner.commit().unwrap_err();
        assert_eq!(err, MmdbError::PhantomDetected);
    }

    #[test]
    fn pessimistic_read_lock_blocks_writer_until_reader_finishes() {
        let (engine, t) = engine(ConcurrencyMode::Pessimistic);
        let mut reader = engine.begin(IsolationLevel::RepeatableRead);
        assert!(reader.read(t, IndexId(0), 30).unwrap().is_some());

        // The writer eagerly updates but must wait for the reader at commit.
        let engine2 = engine.clone();
        let writer_thread = std::thread::spawn(move || {
            let mut writer =
                engine2.begin_with(ConcurrencyMode::Pessimistic, IsolationLevel::ReadCommitted);
            writer
                .update(t, IndexId(0), 30, rowbuf::keyed_row(30, 16, 55))
                .unwrap();
            writer.commit()
        });

        // Give the writer time to reach its commit wait, then finish reading.
        std::thread::sleep(std::time::Duration::from_millis(50));
        reader.commit().unwrap();
        let commit_result = writer_thread.join().unwrap();
        assert!(
            commit_result.is_ok(),
            "writer should commit after the read lock drains: {commit_result:?}"
        );

        let mut check = engine.begin(IsolationLevel::ReadCommitted);
        assert_eq!(
            check
                .read(t, IndexId(0), 30)
                .unwrap()
                .map(|r| rowbuf::fill_of(&r)),
            Some(55)
        );
        check.commit().unwrap();
    }

    #[test]
    fn mixed_modes_share_one_database() {
        let (engine, t) = engine(ConcurrencyMode::Optimistic);
        let mut opt = engine.begin_with(ConcurrencyMode::Optimistic, IsolationLevel::Serializable);
        let mut pes = engine.begin_with(ConcurrencyMode::Pessimistic, IsolationLevel::Serializable);
        opt.update(t, IndexId(0), 40, rowbuf::keyed_row(40, 16, 2))
            .unwrap();
        pes.update(t, IndexId(0), 41, rowbuf::keyed_row(41, 16, 3))
            .unwrap();
        opt.commit().unwrap();
        pes.commit().unwrap();

        let mut check = engine.begin(IsolationLevel::ReadCommitted);
        assert_eq!(
            check
                .read(t, IndexId(0), 40)
                .unwrap()
                .map(|r| rowbuf::fill_of(&r)),
            Some(2)
        );
        assert_eq!(
            check
                .read(t, IndexId(0), 41)
                .unwrap()
                .map(|r| rowbuf::fill_of(&r)),
            Some(3)
        );
        check.commit().unwrap();
    }

    #[test]
    fn garbage_collection_reclaims_superseded_versions() {
        let (engine, t) = engine(ConcurrencyMode::Optimistic);
        assert_eq!(engine.version_count(t).unwrap(), 100);
        for round in 0..5u8 {
            let mut txn = engine.begin(IsolationLevel::ReadCommitted);
            for key in 0..20u64 {
                txn.update(t, IndexId(0), key, rowbuf::keyed_row(key, 16, round + 2))
                    .unwrap();
            }
            txn.commit().unwrap();
        }
        // 100 rows + 100 superseded versions linger until GC runs.
        assert_eq!(engine.version_count(t).unwrap(), 200);
        let mut reclaimed = 0;
        for _ in 0..10 {
            reclaimed += engine.collect_garbage();
        }
        assert_eq!(reclaimed, 100);
        assert_eq!(engine.version_count(t).unwrap(), 100);
        // Data is intact after collection.
        let mut check = engine.begin(IsolationLevel::ReadCommitted);
        for key in 0..20u64 {
            assert_eq!(
                check
                    .read(t, IndexId(0), key)
                    .unwrap()
                    .map(|r| rowbuf::fill_of(&r)),
                Some(6)
            );
        }
        check.commit().unwrap();
    }

    #[test]
    fn dropping_a_transaction_aborts_it() {
        let (engine, t) = engine(ConcurrencyMode::Optimistic);
        {
            let mut txn = engine.begin(IsolationLevel::ReadCommitted);
            txn.update(t, IndexId(0), 50, rowbuf::keyed_row(50, 16, 123))
                .unwrap();
            // Dropped without commit.
        }
        let mut check = engine.begin(IsolationLevel::ReadCommitted);
        assert_eq!(
            check
                .read(t, IndexId(0), 50)
                .unwrap()
                .map(|r| rowbuf::fill_of(&r)),
            Some(1)
        );
        check.commit().unwrap();
        assert!(engine.stats().snapshot().aborts >= 1);
    }

    #[test]
    fn adaptive_engine_flips_to_pessimistic_under_conflicts_and_back() {
        let config = MvConfig::default().with_cc(crate::config::CcPolicy::Adaptive {
            window: 8,
            enter: 0.2,
            exit: 0.05,
        });
        let engine = MvEngine::new(config);
        let t = engine.create_table(TableSpec::keyed_u64("t", 256)).unwrap();
        engine
            .populate(t, (0..8u64).map(|k| rowbuf::keyed_row(k, 16, 1)))
            .unwrap();
        assert_eq!(engine.label(), "MV/A");
        let probe = engine.begin(IsolationLevel::ReadCommitted);
        assert_eq!(probe.mode(), ConcurrencyMode::Optimistic);
        probe.abort();

        // Synthetic hotspot: every round a winner commits and a loser takes
        // a first-writer-wins conflict on key 0 (~50% conflict rate).
        for round in 0..64u8 {
            let mut w1 =
                engine.begin_with(ConcurrencyMode::Optimistic, IsolationLevel::ReadCommitted);
            let mut w2 =
                engine.begin_with(ConcurrencyMode::Optimistic, IsolationLevel::ReadCommitted);
            w1.update(t, IndexId(0), 0, rowbuf::keyed_row(0, 16, round))
                .unwrap();
            assert!(w2
                .update(t, IndexId(0), 0, rowbuf::keyed_row(0, 16, round))
                .is_err());
            w2.abort();
            w1.commit().unwrap();
        }
        let hot = engine.begin(IsolationLevel::ReadCommitted);
        assert_eq!(
            hot.mode(),
            ConcurrencyMode::Pessimistic,
            "hotspot must flip default transactions to MV/L"
        );
        hot.abort();
        // Read-only transactions stay optimistic even during the hotspot.
        let ro = engine.begin_hinted(true, &[], IsolationLevel::Serializable);
        assert_eq!(ro.mode(), ConcurrencyMode::Optimistic);
        ro.abort();

        // Hotspot drains: conflict-free traffic decays the score below exit.
        for i in 0..400u64 {
            let mut txn =
                engine.begin_with(ConcurrencyMode::Optimistic, IsolationLevel::ReadCommitted);
            txn.update(t, IndexId(0), i % 8, rowbuf::keyed_row(i % 8, 16, 1))
                .unwrap();
            txn.commit().unwrap();
        }
        let cooled = engine.begin(IsolationLevel::ReadCommitted);
        assert_eq!(
            cooled.mode(),
            ConcurrencyMode::Optimistic,
            "drained hotspot must flip default transactions back to MV/O"
        );
        cooled.abort();
    }

    #[test]
    fn stats_track_commits_and_aborts() {
        let (engine, t) = engine(ConcurrencyMode::Optimistic);
        let before = engine.stats().snapshot();
        let mut ok = engine.begin(IsolationLevel::ReadCommitted);
        ok.update(t, IndexId(0), 60, rowbuf::keyed_row(60, 16, 2))
            .unwrap();
        ok.commit().unwrap();
        let bad = engine.begin(IsolationLevel::ReadCommitted);
        bad.abort();
        let delta = engine.stats().snapshot().delta_since(&before);
        assert_eq!(delta.commits, 1);
        assert_eq!(delta.aborts, 1);
        assert!(delta.versions_created >= 1);
    }
}

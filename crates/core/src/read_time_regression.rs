//! Deterministic regression tests for the "latest" read that saw *no* version
//! of a live row.
//!
//! **The bug**: read-committed reads, and the pessimistic scheme's
//! repeatable-read reads, used `GlobalClock::now()` — the *next* timestamp to
//! be issued — as their read time. A reader drew `rt = T` and
//! staged the key's candidate versions; an updater then linked its new
//! version (too late to be staged), precommitted and was issued exactly `T`
//! as its end timestamp. Back in the reader the staged old version ended at
//! `T` (`rt < end` fails) and the new one, valid from `T`, was never looked
//! at: a point read of a row that is only ever updated returned `None`, and
//! an update of it `Ok(false)`. On two cores the workload drivers hit this
//! every few thousand transactions (`.expect("warehouse exists")`).
//!
//! **The fix**: those reads take `GlobalClock::last_issued()`. Whoever ends at
//! or before that has already drawn its timestamp, hence linked everything
//! it wrote, before the reader stages; whoever precommits later ends
//! strictly after the read time and leaves the staged version visible (a
//! locking read then finds it superseded and aborts, which is honest).
//!
//! **Why the test is deterministic**: same device as
//! [`crate::phantom_regression`] — the reader parks on a
//! [`crate::txn::race_hooks`] callback between staging and judging its
//! candidates while the test thread runs the complete update and commit.

use std::sync::mpsc;
use std::time::Duration;

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::error::MmdbError;
use mmdb_common::ids::IndexId;
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_common::row::{rowbuf, TableSpec};

use crate::config::MvConfig;
use crate::engine::MvEngine;
use crate::txn::race_hooks;

/// The pinned interleaving, returning what the reader's point read of key 1
/// (fill byte 1, updated to 2 inside the window) produced:
///
/// 1. the updater begins (so no timestamp is drawn between the reader's read
///    time and the updater's end timestamp);
/// 2. the reader draws its read time, stages key 1's one version and parks;
/// 3. the updater links the new version, commits and postprocesses;
/// 4. the reader resumes and judges the candidates it staged.
fn read_with_update_committed_in_the_stage_visit_gap(
    mode: ConcurrencyMode,
    isolation: IsolationLevel,
) -> Result<Option<u8>, MmdbError> {
    let engine = MvEngine::new(MvConfig::default().with_wait_timeout(Duration::from_secs(30)));
    let table = engine.create_table(TableSpec::keyed_u64("t", 16)).unwrap();
    engine
        .populate(table, [rowbuf::keyed_row(1, 16, 1)])
        .unwrap();

    let mut updater = engine.begin_with(ConcurrencyMode::Optimistic, IsolationLevel::ReadCommitted);

    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let engine2 = engine.clone();
    let reader = std::thread::spawn(move || {
        let mut txn = engine2.begin_with(mode, isolation);
        race_hooks::set_stage_visit_gap(Box::new(move || {
            let _ = entered_tx.send(());
            let _ = resume_rx.recv();
        }));
        let seen = txn.read(table, IndexId(0), 1);
        race_hooks::clear_stage_visit_gap();
        match seen {
            Ok(row) => {
                txn.commit().unwrap();
                Ok(row.map(|r| rowbuf::fill_of(&r)))
            }
            Err(e) => {
                txn.abort();
                Err(e)
            }
        }
    });

    entered_rx.recv().unwrap();
    assert!(updater
        .update(table, IndexId(0), 1, rowbuf::keyed_row(1, 16, 2))
        .unwrap());
    updater.commit().unwrap();
    resume_tx.send(()).unwrap();
    reader.join().unwrap()
}

#[test]
fn read_committed_read_never_misses_a_row_updated_after_staging() {
    for mode in [ConcurrencyMode::Optimistic, ConcurrencyMode::Pessimistic] {
        assert_eq!(
            read_with_update_committed_in_the_stage_visit_gap(mode, IsolationLevel::ReadCommitted),
            Ok(Some(1)),
            "{mode:?}: the version current when the read time was drawn must be visible"
        );
    }
}

#[test]
fn pessimistic_repeatable_read_aborts_rather_than_misses_a_row_updated_after_staging() {
    // The staged version is visible but no longer the latest, so it cannot be
    // read-locked: the reader aborts (and would retry) — it must not report
    // the row as absent. (A serializable reader's bucket lock keeps the
    // updater from precommitting inside the window in the first place.)
    assert_eq!(
        read_with_update_committed_in_the_stage_visit_gap(
            ConcurrencyMode::Pessimistic,
            IsolationLevel::RepeatableRead
        ),
        Err(MmdbError::ReadLockUnavailable)
    );
}

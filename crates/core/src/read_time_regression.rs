//! Deterministic regression tests for the "latest" read that saw *no* version
//! of a live row.
//!
//! **The bug**: read-committed reads, and the pessimistic scheme's
//! repeatable-read reads, used `GlobalClock::now()` — the *next* timestamp to
//! be issued — as their read time. A reader drew `rt = T` and loaded the
//! key's bucket head; an updater then linked its new version (at the head,
//! behind the walk), precommitted and was issued exactly `T` as its end
//! timestamp. Back in the reader the old version the walk stood on ended at
//! `T` (`rt < end` fails) and the new one, valid from `T`, was never reached:
//! a point read of a row that is only ever updated returned `None`, and an
//! update of it `Ok(false)`. On two cores the workload drivers hit this every
//! few thousand transactions (`.expect("warehouse exists")`).
//!
//! **The fix**: those reads take `GlobalClock::last_issued()`. Whoever ends at
//! or before that has already drawn its timestamp, hence linked everything
//! it wrote, before the reader loads the chain head; whoever precommits later
//! ends strictly after the read time and leaves the old version visible (a
//! locking read then finds it superseded and aborts, which is honest).
//!
//! **Why the test is deterministic**: same device as
//! [`crate::phantom_regression`] — the reader parks on a
//! [`crate::txn::race_hooks`] callback between building its chain iterator
//! and judging the first version while the test thread runs the complete
//! update and commit.

use std::sync::mpsc;
use std::time::Duration;

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::error::MmdbError;
use mmdb_common::ids::IndexId;
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_common::row::{rowbuf, IndexSpec, Row, TableSpec};

use crate::config::MvConfig;
use crate::engine::MvEngine;
use crate::txn::race_hooks::{self, Gap};

/// How the reader looks key 1 up. All three go through the one scan routine
/// (`MvTransaction::scan_visible_with`), so all three must survive the window.
#[derive(Debug, Clone, Copy)]
enum Lookup {
    /// `read_with` on the hash primary index.
    Point,
    /// `scan_key_with` on the hash primary index.
    KeyScan,
    /// `scan_range_with` over `[0, 9]` on the ordered secondary index (the
    /// walk stands on key 1's key node, its chain head not yet loaded).
    RangeScan,
}

const LOOKUPS: [Lookup; 3] = [Lookup::Point, Lookup::KeyScan, Lookup::RangeScan];

/// The pinned interleaving, returning what the reader's lookup of key 1
/// (fill byte 1, updated to 2 inside the window) produced:
///
/// 1. the updater begins (so no timestamp is drawn between the reader's read
///    time and the updater's end timestamp);
/// 2. the reader draws its read time, builds the chain iterator (a bucket
///    walk has loaded the bucket head) and parks;
/// 3. the updater links the new version, commits and postprocesses;
/// 4. the reader resumes and judges the chain as it walks it.
fn lookup_with_update_committed_in_the_head_visit_gap(
    lookup: Lookup,
    mode: ConcurrencyMode,
    isolation: IsolationLevel,
) -> Result<Option<u8>, MmdbError> {
    let engine = MvEngine::new(MvConfig::default().with_wait_timeout(Duration::from_secs(30)));
    let spec = TableSpec::keyed_u64("t", 16).with_index(IndexSpec::ordered_u64("pk_ordered", 0));
    let table = engine.create_table(spec).unwrap();
    engine
        .populate(table, [rowbuf::keyed_row(1, 16, 1)])
        .unwrap();

    let mut updater = engine.begin_with(ConcurrencyMode::Optimistic, IsolationLevel::ReadCommitted);

    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let engine2 = engine.clone();
    let reader = std::thread::spawn(move || {
        let mut txn = engine2.begin_with(mode, isolation);
        race_hooks::set(
            Gap::HeadVisit,
            Box::new(move || {
                let _ = entered_tx.send(());
                let _ = resume_rx.recv();
            }),
        );
        let mut seen = None;
        let mut visit = |row: &Row| seen = Some(rowbuf::fill_of(row));
        let outcome = match lookup {
            Lookup::Point => txn.read_with(table, IndexId(0), 1, &mut visit).map(drop),
            Lookup::KeyScan => txn
                .scan_key_with(table, IndexId(0), 1, &mut visit)
                .map(drop),
            Lookup::RangeScan => txn
                .scan_range_with(table, IndexId(1), 0, 9, &mut visit)
                .map(drop),
        };
        race_hooks::clear(Gap::HeadVisit);
        match outcome {
            Ok(()) => {
                txn.commit().unwrap();
                Ok(seen)
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
fn read_committed_lookup_never_misses_a_row_updated_behind_its_walk() {
    for lookup in LOOKUPS {
        for mode in [ConcurrencyMode::Optimistic, ConcurrencyMode::Pessimistic] {
            assert_eq!(
                lookup_with_update_committed_in_the_head_visit_gap(
                    lookup,
                    mode,
                    IsolationLevel::ReadCommitted
                ),
                Ok(Some(1)),
                "{lookup:?} {mode:?}: the version current when the read time was drawn must be visible"
            );
        }
    }
}

#[test]
fn pessimistic_repeatable_read_aborts_rather_than_misses_a_row_updated_behind_its_walk() {
    // The old version is visible but no longer the latest, so it cannot be
    // read-locked: the reader aborts (and would retry) — it must not report
    // the row as absent. (A serializable reader's bucket lock keeps the
    // updater from precommitting inside the window in the first place.)
    for lookup in LOOKUPS {
        assert_eq!(
            lookup_with_update_committed_in_the_head_visit_gap(
                lookup,
                ConcurrencyMode::Pessimistic,
                IsolationLevel::RepeatableRead
            ),
            Err(MmdbError::ReadLockUnavailable),
            "{lookup:?}"
        );
    }
}

//! Deterministic regression test for the precommit window.
//!
//! **The hazard**: precommit draws the end timestamp first and publishes it
//! second. In between, the timestamp is already ordered in the global clock.
//! A reader that begins after the draw reads at a later time, so it must see
//! the writer's new version. If the writer still looked Active there, the
//! reader would take the old row, and the writer would then commit in the
//! reader's logical past: a torn snapshot.
//!
//! **The guard**: precommit stores `TxnState::Precommitting` before the
//! draw, and visibility re-reads a `Precommitting` transaction until its
//! `Preparing(ts)` appears. The reader then sees the new row speculatively,
//! with a commit dependency on the writer.
//!
//! **Why the test is deterministic**: same device as
//! [`crate::read_time_regression`]. The writer parks on a
//! [`crate::txn::race_hooks`] callback between its end-timestamp draw and
//! the `Preparing(ts)` store. The reader begins on another thread and
//! signals from its own hook just before it judges the first version; the
//! test waits ≈ 20 ms more and then lets the writer publish. The writer
//! parks again before its log append, still `Preparing`, until the read has
//! returned, so the reader cannot find it already `Committed`.

use std::sync::mpsc;
use std::time::Duration;

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::error::MmdbError;
use mmdb_common::ids::IndexId;
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_common::row::{rowbuf, Row, TableSpec};

use crate::config::MvConfig;
use crate::engine::MvEngine;
use crate::txn::race_hooks::{self, Gap};

/// Run the pinned interleaving under `mode` and return what the reader's
/// point read of key 1 (fill byte 1, updated to 2 by the parked writer)
/// produced, with the number of commit dependencies the read took.
fn read_beside_a_writer_parked_before_publication(
    mode: ConcurrencyMode,
) -> Result<(Option<u8>, u64), MmdbError> {
    let engine = MvEngine::new(MvConfig::default().with_wait_timeout(Duration::from_secs(30)));
    let table = engine.create_table(TableSpec::keyed_u64("t", 16)).unwrap();
    engine
        .populate(table, [rowbuf::keyed_row(1, 16, 1)])
        .unwrap();

    let (parked_tx, parked_rx) = mpsc::channel::<()>();
    let (publish_tx, publish_rx) = mpsc::channel::<()>();
    let (append_tx, append_rx) = mpsc::channel::<()>();
    let writer = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            let mut txn = engine.begin_with(mode, IsolationLevel::Serializable);
            assert!(txn
                .update(table, IndexId(0), 1, rowbuf::keyed_row(1, 16, 2))
                .unwrap());
            race_hooks::set(
                Gap::EndTsPublish,
                Box::new(move || {
                    let _ = parked_tx.send(());
                    let _ = publish_rx.recv();
                }),
            );
            race_hooks::set(
                Gap::EndTsAppend,
                Box::new(move || {
                    let _ = append_rx.recv();
                }),
            );
            let outcome = txn.commit();
            race_hooks::clear(Gap::EndTsPublish);
            race_hooks::clear(Gap::EndTsAppend);
            outcome.expect("writer commits");
        })
    };
    parked_rx.recv().unwrap();

    let (judging_tx, judging_rx) = mpsc::channel::<()>();
    let (read_tx, read_rx) = mpsc::channel::<()>();
    let reader = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            let mut txn = engine.begin_with(mode, IsolationLevel::Serializable);
            race_hooks::set(
                Gap::HeadVisit,
                Box::new(move || {
                    let _ = judging_tx.send(());
                }),
            );
            let deps_before = engine.stats().snapshot().commit_dependencies;
            let mut seen = None;
            let outcome = txn.read_with(table, IndexId(0), 1, &mut |row: &Row| {
                seen = Some(rowbuf::fill_of(row))
            });
            race_hooks::clear(Gap::HeadVisit);
            let deps = engine.stats().snapshot().commit_dependencies - deps_before;
            let _ = read_tx.send(());
            match outcome {
                Ok(_) => txn.commit().map(|_| (seen, deps)),
                Err(e) => {
                    txn.abort();
                    Err(e)
                }
            }
        })
    };
    judging_rx.recv().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    publish_tx.send(()).unwrap();
    read_rx.recv().unwrap();
    append_tx.send(()).unwrap();
    writer.join().unwrap();
    reader.join().unwrap()
}

#[test]
fn a_reader_that_begins_after_the_end_ts_draw_sees_the_new_row() {
    for mode in [ConcurrencyMode::Optimistic, ConcurrencyMode::Pessimistic] {
        assert_eq!(
            read_beside_a_writer_parked_before_publication(mode),
            Ok((Some(2), 1)),
            "{mode:?}: a reader that began after the writer drew its end \
             timestamp must read the new row, with one commit dependency"
        );
    }
}

//! Deterministic regression test for the begin / garbage-collection race.
//!
//! **The hazard**: a snapshot reads as of its begin timestamp, and the
//! collector reclaims a version once its end timestamp lies below the begin
//! timestamp of every registered transaction. A `begin` that drew its
//! timestamp and only then registered could be preempted between the two
//! steps: invisible to the collector, yet with a timestamp older than
//! versions the collector then reclaims. Its first read of an updated key
//! finds the old version gone and the new one too young, and comes up empty.
//!
//! **The guard**: `MvEngine::begin_with` registers the handle with its begin
//! timestamp unset (0) and draws the timestamp afterwards, so a transaction
//! between the two steps holds the watermark at zero
//! (`MvStore::collect_garbage` has the full argument).
//!
//! **Why the test is deterministic**: same device as
//! [`crate::delta_regression`]. The reader parks on a
//! [`crate::txn::race_hooks`] callback in that gap; meanwhile this thread
//! updates the key, commits and runs the collector to exhaustion. Only then
//! is the reader released to read the key.

use std::sync::mpsc;

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::ids::IndexId;
use mmdb_common::isolation::IsolationLevel;
use mmdb_common::row::{rowbuf, TableSpec};

use crate::config::MvConfig;
use crate::engine::MvEngine;
use crate::txn::race_hooks::{self, Gap};

#[test]
fn a_reader_parked_between_registration_and_its_begin_draw_keeps_its_versions() {
    const KEY: u64 = 3;
    let engine = MvEngine::optimistic(MvConfig::optimistic().with_gc_every(0));
    let table = engine
        .create_table(TableSpec::keyed_u64("t", 16))
        .expect("create table");
    engine
        .populate(table, (0..8).map(|k| rowbuf::keyed_row(k, 16, 1)))
        .expect("populate");

    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let reader = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            race_hooks::set(
                Gap::BeginDraw,
                Box::new(move || {
                    let _ = entered_tx.send(());
                    let _ = resume_rx.recv();
                }),
            );
            let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
            race_hooks::clear(Gap::BeginDraw);
            let row = txn.read(table, IndexId(0), KEY).expect("read");
            txn.commit().expect("read-only commit");
            row
        })
    };

    entered_rx.recv().unwrap();
    let mut writer = engine.begin(IsolationLevel::SnapshotIsolation);
    writer
        .update(table, IndexId(0), KEY, rowbuf::keyed_row(KEY, 16, 2))
        .expect("update");
    writer.commit().expect("writer commits");
    let mut reclaimed = 0;
    loop {
        let n = engine.collect_garbage();
        if n == 0 {
            break;
        }
        reclaimed += n;
    }
    resume_tx.send(()).unwrap();
    let row = reader.join().unwrap();
    assert_eq!(
        reclaimed, 0,
        "the collector reclaimed a version while a transaction sat between \
         registering and drawing its begin timestamp"
    );
    assert!(
        row.is_some(),
        "the released reader found no version of a key that always exists"
    );
}

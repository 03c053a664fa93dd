//! Deterministic regression tests for the MV/L serializable phantom race.
//!
//! **The bug**: `add_new_version` used to honor scan locks *before* linking
//! the new version into the indexes. A serializable pessimistic scanner
//! could lock the bucket/range and complete its entire chain walk inside
//! that window: the scanner's §4.3.1 wait-for could not fire (the version
//! was not yet reachable), and the inserter's lock check had already come up
//! empty — so neither side delayed the other, the inserter drew an *earlier*
//! end timestamp than the scanner, and commit-timestamp order stopped being
//! a valid serialization order. The differential harness observed this as a
//! replayed history containing a key the live scan never saw (a phantom),
//! roughly once per couple hundred seeded runs on multicore hardware.
//!
//! **Why the tests are deterministic**: the window is a handful of
//! instructions wide and this project's CI container is single-core —
//! thousands of seeded stochastic runs never preempt inside it. Instead the
//! inserter thread installs a [`crate::txn::race_hooks`] callback that fires
//! exactly between `link_version` and `honor_scan_locks`, parks there on a
//! rendezvous channel, and the test runs a *complete* serializable scan
//! while it is parked — the precise interleaving the old code lost. With
//! the link-first ordering the scanner finds the (invisible) linked version
//! and imposes a wait-for dependency, and the resumed inserter additionally
//! sees the scanner's bucket/range lock; either mechanism alone forces the
//! inserter to precommit after the scanner.
//!
//! Two variants pin both insert paths: the hash-bucket lock path (equality
//! probe of a missing key) and the ordered-index range lock path (range
//! scan), the latter being the hole the ordered index would have reopened.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::ids::IndexId;
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_common::row::{rowbuf, IndexSpec, TableSpec};

use crate::config::MvConfig;
use crate::engine::MvEngine;
use crate::txn::race_hooks::{self, Gap};

/// Which scan shape the scanner uses (and therefore which lock table the
/// inserter must honor).
#[derive(Clone, Copy)]
enum ScanShape {
    /// Equality probe of a missing key on the hash primary index.
    HashBucket,
    /// Range scan `[15, 35]` on an ordered secondary index.
    OrderedRange,
}

/// The pinned interleaving:
///
/// 1. inserter links its version for key 25, then parks in the
///    link→honor window;
/// 2. the scanner runs its complete serializable scan (25 is absent /
///    outside the committed keys) while the inserter is parked;
/// 3. the inserter resumes, honors the scan locks, and calls `commit()`;
/// 4. the scanner re-runs its scan (must be unchanged), then commits;
/// 5. the inserter's commit completes — with a *later* end timestamp.
fn pinned_insert_scan_interleaving(shape: ScanShape) {
    let config = MvConfig::pessimistic().with_wait_timeout(Duration::from_secs(30));
    let engine = MvEngine::new(config);
    let spec = match shape {
        ScanShape::HashBucket => TableSpec::keyed_u64("t", 64),
        ScanShape::OrderedRange => {
            TableSpec::keyed_u64("t", 64).with_index(IndexSpec::ordered_u64("by_key", 0))
        }
    };
    let table = engine.create_table(spec).unwrap();
    engine
        .populate(
            table,
            [10u64, 20, 30].map(|k| rowbuf::keyed_row(k, 16, k as u8)),
        )
        .unwrap();

    let (entered_tx, entered_rx) = mpsc::channel::<mmdb_common::ids::TxnId>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let (linked_tx, linked_rx) = mpsc::channel::<()>();
    // Inserter's end timestamp once its commit returns; 0 = still blocked.
    let committed_at = Arc::new(AtomicU64::new(0));

    let engine2 = engine.clone();
    let committed_at2 = Arc::clone(&committed_at);
    let inserter = std::thread::spawn(move || {
        let mut txn =
            engine2.begin_with(ConcurrencyMode::Pessimistic, IsolationLevel::ReadCommitted);
        let me = txn.id();
        race_hooks::set(
            Gap::LinkHonor,
            Box::new(move || {
                let _ = entered_tx.send(me);
                let _ = resume_rx.recv();
            }),
        );
        txn.insert(table, rowbuf::keyed_row(25, 16, 99)).unwrap();
        race_hooks::clear(Gap::LinkHonor);
        let _ = linked_tx.send(());
        let end_ts = txn.commit().unwrap();
        committed_at2.store(end_ts.0, Ordering::SeqCst);
        end_ts
    });

    // Wait until the inserter is parked with its version linked but the
    // scan locks not yet honored.
    let inserter_id = entered_rx.recv().unwrap();

    // Run the complete serializable scan inside the window.
    let mut scanner = engine.begin_with(ConcurrencyMode::Pessimistic, IsolationLevel::Serializable);
    let scan_once = |scanner: &mut crate::txn::MvTransaction| -> Vec<u64> {
        match shape {
            ScanShape::HashBucket => {
                assert!(
                    scanner.read(table, IndexId(0), 25).unwrap().is_none(),
                    "the uncommitted insert of key 25 must not be visible"
                );
                Vec::new()
            }
            ScanShape::OrderedRange => scanner
                .scan_range(table, IndexId(1), 15, 35)
                .unwrap()
                .iter()
                .map(|row| rowbuf::key_of(row))
                .collect(),
        }
    };
    let first = scan_once(&mut scanner);
    if matches!(shape, ScanShape::OrderedRange) {
        assert_eq!(first, vec![20, 30], "only committed keys in [15, 35]");
    }
    // §4.3.1: the scanner saw the linked-but-uncommitted version and must
    // have delayed its creator's precommit.
    assert!(
        scanner.ctx.handle.waiting_txns_contain(inserter_id),
        "scanner must have imposed a wait-for on the pending inserter"
    );

    // Resume the inserter: it honors our scan lock and calls commit().
    resume_tx.send(()).unwrap();
    linked_rx.recv().unwrap();

    // The inserter is now stuck in its pre-precommit wait. Give it ample
    // time to misbehave: with the old check-locks-then-link ordering its
    // commit sailed through right here.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        committed_at.load(Ordering::SeqCst),
        0,
        "inserter committed while a serializable scanner that missed its row \
         was still live — the §4.3 phantom window is open again"
    );

    // The scan must repeat exactly (the serializable guarantee the locks
    // exist to provide).
    let repeat = scan_once(&mut scanner);
    assert_eq!(
        first, repeat,
        "scan stopped being repeatable mid-transaction"
    );

    let scanner_end = scanner.commit().unwrap();
    let inserter_end = inserter.join().unwrap();
    assert!(
        inserter_end > scanner_end,
        "the delayed inserter must serialize after the scanner \
         (inserter {inserter_end:?} vs scanner {scanner_end:?})"
    );

    // And afterwards the insert is an ordinary, visible row.
    let mut check = engine.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        check
            .read(table, IndexId(0), 25)
            .unwrap()
            .map(|r| rowbuf::fill_of(&r)),
        Some(99)
    );
    check.commit().unwrap();
}

#[test]
fn mvl_serializable_insert_cannot_slip_past_bucket_scanner_in_link_honor_window() {
    pinned_insert_scan_interleaving(ScanShape::HashBucket);
}

#[test]
fn mvl_serializable_insert_cannot_slip_past_range_scanner_in_link_honor_window() {
    pinned_insert_scan_interleaving(ScanShape::OrderedRange);
}

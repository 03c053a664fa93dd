//! Deterministic regression test for two inserters of one unique key.
//!
//! **The hazard**: inserters A and B of key k both pass the uniqueness
//! early-out before either has linked its version, so the check after the
//! link is what must stop the second one. That check used to judge each
//! same-key version by its visibility at a read time drawn from the clock.
//! If A committed after B drew that time, postprocessing finalized A's Begin
//! word to a timestamp above it: invisible, and no longer a transaction id
//! that could be pending. B passed and committed too, leaving two rows of k.
//!
//! **The guard**: uniqueness is judged on the latest state, with no read
//! time (`visibility::check_uniqueness`). A version with a committed Begin
//! and an End of infinity is a duplicate, whatever its Begin timestamp.
//!
//! **Why the test is deterministic**: B parks on [`crate::txn::race_hooks`]
//! callbacks twice: after its early-out and before its link, then after the
//! link and before its walk. In the first window A inserts k. In the second
//! a third transaction draws a timestamp and A commits; then B walks the
//! chain and meets A's finalized version.

use std::sync::mpsc;

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::error::MmdbError;
use mmdb_common::ids::IndexId;
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_common::row::{rowbuf, TableSpec};

use crate::config::MvConfig;
use crate::engine::MvEngine;
use crate::txn::race_hooks::{self, Gap};

const KEY: u64 = 7;

/// Run the pinned interleaving and return B's outcome (its insert, then its
/// commit) with the fill bytes a read-committed key scan of k returns
/// afterwards. A inserts fill 1, B fill 2.
fn second_inserter_meets_a_committed_first(
    mode: ConcurrencyMode,
    iso: IsolationLevel,
) -> (Result<(), MmdbError>, Vec<u8>) {
    let engine = MvEngine::new(MvConfig::default());
    let table = engine.create_table(TableSpec::keyed_u64("t", 16)).unwrap();

    let (checked_tx, checked_rx) = mpsc::channel::<()>();
    let (link_tx, link_rx) = mpsc::channel::<()>();
    let (linked_tx, linked_rx) = mpsc::channel::<()>();
    let (walk_tx, walk_rx) = mpsc::channel::<()>();
    let b = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            let mut txn = engine.begin_with(mode, iso);
            race_hooks::set(
                Gap::UniqueLink,
                Box::new(move || {
                    let _ = checked_tx.send(());
                    let _ = link_rx.recv();
                }),
            );
            race_hooks::set(
                Gap::UniqueWalk,
                Box::new(move || {
                    let _ = linked_tx.send(());
                    let _ = walk_rx.recv();
                }),
            );
            let outcome = txn.insert(table, rowbuf::keyed_row(KEY, 16, 2));
            race_hooks::clear(Gap::UniqueLink);
            race_hooks::clear(Gap::UniqueWalk);
            match outcome {
                Ok(()) => txn.commit().map(|_| ()),
                Err(e) => {
                    txn.abort();
                    Err(e)
                }
            }
        })
    };
    // 1. B's early-out found nothing.
    checked_rx.recv().unwrap();
    // 2. A links its version; its own check finds no B yet.
    let mut a = engine.begin_with(mode, iso);
    a.insert(table, rowbuf::keyed_row(KEY, 16, 1)).unwrap();
    // 3. B links its version.
    link_tx.send(()).unwrap();
    linked_rx.recv().unwrap();
    // 4. Another transaction draws a timestamp.
    engine.begin_with(mode, iso).commit().unwrap();
    // 5. A commits above it and finalizes its Begin word.
    a.commit().unwrap();
    // 6. B walks k's chain.
    walk_tx.send(()).unwrap();
    let outcome = b.join().unwrap();

    let mut check = engine.begin(IsolationLevel::ReadCommitted);
    let fills = check
        .scan_key(table, IndexId(0), KEY)
        .unwrap()
        .iter()
        .map(|row| rowbuf::fill_of(row))
        .collect();
    check.commit().unwrap();
    (outcome, fills)
}

#[test]
fn the_second_of_two_inserters_of_one_key_fails() {
    for mode in [ConcurrencyMode::Optimistic, ConcurrencyMode::Pessimistic] {
        for iso in [IsolationLevel::Serializable, IsolationLevel::ReadCommitted] {
            let (outcome, fills) = second_inserter_meets_a_committed_first(mode, iso);
            assert!(
                matches!(&outcome, Err(MmdbError::DuplicateKey { .. }))
                    || outcome.as_ref().is_err_and(MmdbError::is_retryable),
                "{mode:?} {iso:?}: B must fail, got {outcome:?}"
            );
            assert_eq!(fills, [1], "{mode:?} {iso:?}: k must hold A's row alone");
        }
    }
}

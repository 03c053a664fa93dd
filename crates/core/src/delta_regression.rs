//! Deterministic regression test for the multiversion delta-checkpoint
//! barrier.
//!
//! **The hazard**: a delta is the log window `(P, R]` collapsed per key, read
//! from the log prefix below `read_limit_lsn`. A committer draws its end
//! timestamp and only then appends its redo frame. If it draws `end <= R`
//! but appends after the barrier took `read_limit_lsn`, its frame is outside
//! the delta; it lands in the tail, whose records at or below `R` recovery
//! skips as already inside the chain. The commit would be lost.
//!
//! **The guard**: the barrier runs `quiesce_precommits(R)` between drawing
//! `R` and taking `read_limit_lsn`. It waits until every transaction with an
//! end timestamp at or below `R` reads `Committed` or `Aborted`; a commit
//! stores `Committed` only after its frame is appended.
//!
//! **Why the test is deterministic**: same device as
//! [`crate::read_time_regression`]. The writer parks on a
//! [`crate::txn::race_hooks`] callback between its end-timestamp draw and
//! its frame append. The delta checkpoint starts on another thread; the test
//! waits until that thread has drawn `R` above the writer's end timestamp,
//! and then for ≈ 50 ms more, before it lets the writer append.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::ids::IndexId;
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_common::row::{rowbuf, TableSpec};
use mmdb_storage::checkpoint::CheckpointStore;
use mmdb_storage::log::{NullLogger, RedoLogger};

use crate::config::MvConfig;
use crate::engine::MvEngine;
use crate::txn::race_hooks::{self, Gap};

fn config(mode: ConcurrencyMode) -> MvConfig {
    match mode {
        ConcurrencyMode::Optimistic => MvConfig::optimistic(),
        ConcurrencyMode::Pessimistic => MvConfig::pessimistic(),
    }
}

/// Run the pinned interleaving under `mode` and return whether chain + tail
/// recovery into a fresh engine finds the parked writer's row.
fn writer_parked_across_the_barrier_is_recovered(mode: ConcurrencyMode) -> bool {
    let dir = std::env::temp_dir().join(format!(
        "mmdb-delta-regression-{}-{mode:?}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // A tick longer than the test: only the checkpoints and the final
    // flush harden the log.
    let store = Arc::new(
        CheckpointStore::create_with_tick(&dir, Duration::from_secs(3600))
            .expect("create checkpoint store"),
    );
    let engine = MvEngine::with_logger(config(mode), store.logger().clone());
    let table = engine
        .create_table(TableSpec::keyed_u64("t", 16))
        .expect("create table");
    let mut setup = engine.begin(IsolationLevel::ReadCommitted);
    setup.insert(table, rowbuf::keyed_row(1, 16, 1)).unwrap();
    setup.commit().unwrap();
    engine.checkpoint(&store).expect("base checkpoint");

    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let writer = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            let mut txn = engine.begin(IsolationLevel::ReadCommitted);
            txn.insert(table, rowbuf::keyed_row(7, 16, 7)).unwrap();
            race_hooks::set(
                Gap::EndTsAppend,
                Box::new(move || {
                    let _ = entered_tx.send(());
                    let _ = resume_rx.recv();
                }),
            );
            let outcome = txn.commit();
            race_hooks::clear(Gap::EndTsAppend);
            outcome.expect("writer commits");
        })
    };

    entered_rx.recv().unwrap();
    // The writer's end timestamp is the last one issued; the checkpointer's
    // `R` is the next draw.
    let writer_end = engine.store().clock().last_issued();
    let checkpointer = {
        let (engine, store) = (engine.clone(), Arc::clone(&store));
        std::thread::spawn(move || engine.checkpoint_delta(&store).map(drop))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.store().clock().last_issued() == writer_end {
        assert!(
            Instant::now() < deadline,
            "the delta never drew its read_ts"
        );
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(50));
    resume_tx.send(()).unwrap();
    writer.join().unwrap();
    checkpointer
        .join()
        .unwrap()
        .expect("delta checkpoint succeeds");

    store.logger().flush().expect("flush tail");
    drop(engine);
    drop(store);
    let plan = CheckpointStore::plan(&dir).expect("plan");
    assert_eq!(plan.chain.len(), 2, "base + one delta");
    let target = MvEngine::with_logger(config(mode), Arc::new(NullLogger::new()));
    target
        .create_table(TableSpec::keyed_u64("t", 16))
        .expect("create table");
    target.recover_from_checkpoint(&plan).expect("recover");
    let mut check = target.begin(IsolationLevel::ReadCommitted);
    let found = check.read(table, IndexId(0), 7).unwrap().is_some();
    check.commit().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    found
}

#[test]
fn a_commit_parked_between_end_ts_and_append_reaches_the_delta() {
    for mode in [ConcurrencyMode::Optimistic, ConcurrencyMode::Pessimistic] {
        assert!(
            writer_parked_across_the_barrier_is_recovered(mode),
            "{mode:?}: a commit at or below the delta's read_ts whose frame \
             was appended after the barrier was lost by chain + tail recovery"
        );
    }
}

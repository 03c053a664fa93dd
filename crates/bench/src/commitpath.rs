//! Shared fixture for the commit-durability measurements: the `repro
//! perf-commit` experiment ([`crate::experiments::commitpath_perf`],
//! recorded into `BENCH_groupcommit.json`).
//!
//! The measured unit is **committed single-row update transactions per
//! second** with a real redo log underneath: `threads` workers update
//! disjoint key ranges of a warmed MV/O table (no concurrency-control
//! conflicts — the log is the only shared resource under test) while every
//! commit runs at the requested [`Durability`]. The swept variable is how
//! the [`GroupCommitLog`] is
//! flushed: tickless (a lone Sync committer pays one `write`+sync per
//! transaction; concurrent ones elect a leader and share it) or with a
//! background tick.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mmdb_common::durability::Durability;
use mmdb_common::engine::{Engine as _, EngineTxn as _};
use mmdb_common::ids::IndexId;
use mmdb_common::row::rowbuf::{grouped_row, grouped_spec};
use mmdb_core::{MvConfig, MvEngine};
use mmdb_storage::group_commit::GroupCommitLog;
use mmdb_storage::log::RedoLogger;

/// Transactions each worker commits before the measured window opens:
/// enough to warm the thread's context pool, the log file and (for the group-commit
/// loggers) the shared batch buffer.
pub const WARMUP_TXNS: u64 = 64;

/// A fresh scratch log path for one measurement.
pub fn scratch_log(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mmdb-perf-commit-{}-{tag}.log", std::process::id()))
}

/// Committed-transactions-per-second of `threads` workers updating disjoint
/// key ranges at the given durability, on a fresh MV/O engine wired to a
/// group-commit log at a scratch path — tickless for `tick == None`. The
/// scratch log file is removed afterwards.
pub fn commit_throughput(
    tag: &str,
    rows: u64,
    threads: usize,
    duration: Duration,
    durability: Durability,
    tick: Option<Duration>,
) -> f64 {
    let path = scratch_log(tag);
    let logger = Arc::new(
        match tick {
            None => GroupCommitLog::create(&path),
            Some(tick) => GroupCommitLog::with_tick(&path, tick),
        }
        .expect("create group-commit log"),
    );
    let engine = MvEngine::with_logger(
        MvConfig::optimistic().with_deadlock_detector(false),
        logger.clone(),
    );
    let table = engine
        .create_table(grouped_spec(rows))
        .expect("create table");
    engine
        .populate(table, (0..rows).map(grouped_row))
        .expect("populate");

    let span = rows / threads as u64;
    assert!(span > 0, "need at least one key per worker");
    let stop = AtomicBool::new(false);
    let committed = AtomicU64::new(0);
    // Workers + the timekeeper all release together, after every warmup.
    let barrier = Barrier::new(threads + 1);
    let elapsed = std::thread::scope(|scope| {
        for t in 0..threads {
            let engine = engine.clone();
            let (stop, committed, barrier) = (&stop, &committed, &barrier);
            scope.spawn(move || {
                let base = t as u64 * span;
                let mut key = base;
                let commit_one = |key: u64| {
                    let mut txn =
                        engine.begin(mmdb_common::isolation::IsolationLevel::SnapshotIsolation);
                    txn.set_durability(durability);
                    assert!(txn
                        .update(table, IndexId(0), key, grouped_row(key))
                        .expect("update"));
                    txn.commit().expect("commit");
                };
                for _ in 0..WARMUP_TXNS {
                    key = base + (key - base + 31) % span;
                    commit_one(key);
                }
                barrier.wait();
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    key = base + (key - base + 31) % span;
                    commit_one(key);
                    n += 1;
                }
                committed.fetch_add(n, Ordering::Relaxed);
            });
        }
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        // Scope join: the elapsed time covers the stragglers' final
        // (possibly syncing) commits, so throughput is never overstated.
        start
    })
    .elapsed();
    // Leave the log clean (drop order: engine still holds the logger, but
    // removal only unlinks the path — the final drop-flush writes into the
    // unlinked file harmlessly).
    let _ = logger.flush();
    let _ = std::fs::remove_file(&path);
    committed.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_positive_for_every_logger_shape() {
        let cases = [
            ("test-gc-sync", Durability::Sync, None),
            (
                "test-gc-async",
                Durability::Async,
                Some(Duration::from_micros(200)),
            ),
        ];
        for (tag, durability, tick) in cases {
            let tps = commit_throughput(tag, 512, 2, Duration::from_millis(40), durability, tick);
            assert!(tps > 0.0, "{tag}: no transactions committed");
        }
    }
}

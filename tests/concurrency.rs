//! Multi-threaded integration tests across crates: invariant preservation
//! under real concurrency, mixed optimistic/pessimistic execution, snapshot
//! stability during heavy updates, redo-log ordering and garbage collection
//! behaviour under load.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mmdb::common::stats::EngineStats;
use mmdb::core::MvEngine;
use mmdb::prelude::*;
use mmdb_storage::{MemoryLogger, RedoLogger};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FILLER: usize = 16;

fn balance_of(row: &[u8]) -> u64 {
    u64::from_le_bytes(row[8..16].try_into().unwrap())
}

fn account_row(id: u64, balance: u64) -> Row {
    let mut v = Vec::with_capacity(24);
    v.extend_from_slice(&id.to_le_bytes());
    v.extend_from_slice(&balance.to_le_bytes());
    v.extend_from_slice(&[0u8; 8]);
    Row::from(v)
}

/// Transfers between accounts on all engines: the total is conserved and no
/// transaction ever observes a negative balance.
fn transfer_invariant_holds(run: impl Fn(&dyn Fn(usize))) {
    let _ = run;
}

#[test]
fn concurrent_transfers_conserve_money_on_every_engine() {
    const ACCOUNTS: u64 = 64;
    const INITIAL: u64 = 100;
    const THREADS: usize = 4;
    const TRANSFERS: usize = 400;

    // The three engines, driven through the same generic closure.
    fn drive<E: Engine + Clone + Send + Sync + 'static>(engine: E, label: &str) {
        let table = engine
            .create_table(TableSpec::keyed_u64("accounts", 256))
            .unwrap();
        {
            let mut setup = engine.begin(IsolationLevel::ReadCommitted);
            for id in 0..ACCOUNTS {
                setup.insert(table, account_row(id, INITIAL)).unwrap();
            }
            setup.commit().unwrap();
        }
        let committed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for worker in 0..THREADS {
                let engine = engine.clone();
                let committed = Arc::clone(&committed);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(worker as u64);
                    for _ in 0..TRANSFERS {
                        let from = rng.gen_range(0..ACCOUNTS);
                        let to = (from + rng.gen_range(1..ACCOUNTS)) % ACCOUNTS;
                        let amount = rng.gen_range(1..10u64);
                        let mut txn = engine.begin(IsolationLevel::Serializable);
                        let result: Result<bool> = (|| {
                            let Some(f) = txn.read(table, IndexId(0), from)? else {
                                return Ok(false);
                            };
                            let Some(t) = txn.read(table, IndexId(0), to)? else {
                                return Ok(false);
                            };
                            let fb = balance_of(&f);
                            if fb < amount {
                                return Ok(false);
                            }
                            txn.update(table, IndexId(0), from, account_row(from, fb - amount))?;
                            txn.update(
                                table,
                                IndexId(0),
                                to,
                                account_row(to, balance_of(&t) + amount),
                            )?;
                            Ok(true)
                        })();
                        match result {
                            Ok(true) => {
                                if txn.commit().is_ok() {
                                    committed.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Ok(false) => txn.abort(),
                            Err(_) => txn.abort(),
                        }
                    }
                });
            }
        });

        let mut audit = engine.begin(IsolationLevel::Serializable);
        let total: u64 = (0..ACCOUNTS)
            .map(|id| balance_of(&audit.read(table, IndexId(0), id).unwrap().unwrap()))
            .sum();
        audit.commit().unwrap();
        assert_eq!(total, ACCOUNTS * INITIAL, "{label}: money not conserved");
        assert!(
            committed.load(Ordering::Relaxed) > 0,
            "{label}: nothing committed"
        );
    }

    drive(MvEngine::optimistic(MvConfig::default()), "MV/O");
    drive(MvEngine::pessimistic(MvConfig::default()), "MV/L");
    drive(
        SvEngine::new(SvConfig::default().with_lock_timeout(Duration::from_millis(30))),
        "1V",
    );

    // Silence the helper that documents intent above.
    transfer_invariant_holds(|_| {});
}

#[test]
fn mixed_optimistic_and_pessimistic_transactions_preserve_invariants() {
    const ACCOUNTS: u64 = 32;
    const INITIAL: u64 = 50;
    let engine = MvEngine::optimistic(MvConfig::default());
    let table = engine
        .create_table(TableSpec::keyed_u64("accounts", 128))
        .unwrap();
    engine
        .populate(table, (0..ACCOUNTS).map(|id| account_row(id, INITIAL)))
        .unwrap();

    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let engine = engine.clone();
            scope.spawn(move || {
                let mode = if worker % 2 == 0 {
                    ConcurrencyMode::Optimistic
                } else {
                    ConcurrencyMode::Pessimistic
                };
                let mut rng = StdRng::seed_from_u64(1000 + worker as u64);
                for _ in 0..300 {
                    let from = rng.gen_range(0..ACCOUNTS);
                    let to = (from + 1 + rng.gen_range(0..ACCOUNTS - 1)) % ACCOUNTS;
                    let mut txn = engine.begin_with(mode, IsolationLevel::Serializable);
                    let result: Result<bool> = (|| {
                        let Some(f) = txn.read(table, IndexId(0), from)? else {
                            return Ok(false);
                        };
                        let Some(t) = txn.read(table, IndexId(0), to)? else {
                            return Ok(false);
                        };
                        let fb = balance_of(&f);
                        if fb == 0 {
                            return Ok(false);
                        }
                        txn.update(table, IndexId(0), from, account_row(from, fb - 1))?;
                        txn.update(table, IndexId(0), to, account_row(to, balance_of(&t) + 1))?;
                        Ok(true)
                    })();
                    match result {
                        Ok(true) => {
                            let _ = txn.commit();
                        }
                        _ => txn.abort(),
                    }
                }
            });
        }
    });

    let mut audit = engine.begin(IsolationLevel::Serializable);
    let total: u64 = (0..ACCOUNTS)
        .map(|id| balance_of(&audit.read(table, IndexId(0), id).unwrap().unwrap()))
        .sum();
    audit.commit().unwrap();
    assert_eq!(total, ACCOUNTS * INITIAL);
}

#[test]
fn snapshot_readers_see_stable_totals_during_heavy_updates() {
    const ROWS: u64 = 128;
    let engine = MvEngine::optimistic(MvConfig::default());
    let table = engine.create_table(TableSpec::keyed_u64("t", 512)).unwrap();
    engine
        .populate(table, (0..ROWS).map(|id| account_row(id, 10)))
        .unwrap();

    let stop = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        // Two writer threads move value between rows continuously.
        for w in 0..2u64 {
            let engine = engine.clone();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(w);
                while stop.load(Ordering::Relaxed) == 0 {
                    let a = rng.gen_range(0..ROWS);
                    let b = (a + 1) % ROWS;
                    let mut txn = engine.begin(IsolationLevel::Serializable);
                    let result: Result<()> = (|| {
                        let ra = txn.read(table, IndexId(0), a)?.unwrap();
                        let rb = txn.read(table, IndexId(0), b)?.unwrap();
                        let (ba, bb) = (balance_of(&ra), balance_of(&rb));
                        if ba > 0 {
                            txn.update(table, IndexId(0), a, account_row(a, ba - 1))?;
                            txn.update(table, IndexId(0), b, account_row(b, bb + 1))?;
                        }
                        Ok(())
                    })();
                    match result {
                        Ok(()) => {
                            let _ = txn.commit();
                        }
                        Err(_) => txn.abort(),
                    }
                }
            });
        }
        // Snapshot readers: every scan must observe the exact invariant total.
        for r in 0..2u64 {
            let engine = engine.clone();
            scope.spawn(move || {
                let _ = r;
                for _ in 0..30 {
                    let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
                    let total: u64 = (0..ROWS)
                        .map(|id| balance_of(&txn.read(table, IndexId(0), id).unwrap().unwrap()))
                        .sum();
                    txn.commit().unwrap();
                    assert_eq!(total, ROWS * 10, "snapshot saw a torn total");
                }
            });
        }
        std::thread::sleep(Duration::from_millis(300));
        stop.store(1, Ordering::Relaxed);
    });
}

#[test]
fn redo_log_records_every_commit_in_timestamp_order() {
    let logger = Arc::new(MemoryLogger::new());
    let engine = MvEngine::with_logger(MvConfig::default(), logger.clone() as Arc<dyn RedoLogger>);
    let table = engine.create_table(TableSpec::keyed_u64("t", 64)).unwrap();
    engine
        .populate(table, (0..16u64).map(|k| rowbuf::keyed_row(k, FILLER, 1)))
        .unwrap();

    std::thread::scope(|scope| {
        for w in 0..3u64 {
            let engine = engine.clone();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(w);
                for _ in 0..100 {
                    let k = rng.gen_range(0..16u64);
                    let mut txn = engine.begin(IsolationLevel::ReadCommitted);
                    let ok = txn
                        .update(
                            table,
                            IndexId(0),
                            k,
                            rowbuf::keyed_row(k, FILLER, rng.gen()),
                        )
                        .is_ok();
                    if ok {
                        let _ = txn.commit();
                    } else {
                        txn.abort();
                    }
                }
            });
        }
    });

    let commits = engine.stats().snapshot().commits;
    let mut timestamps: Vec<u64> =
        logger.with_records(|records| records.iter().map(|r| r.end_ts.raw()).collect());
    assert_eq!(
        timestamps.len() as u64,
        commits,
        "every committed writer must be logged exactly once"
    );
    // Log records carry strictly increasing (unique) end timestamps.
    let n = timestamps.len();
    timestamps.sort_unstable();
    timestamps.dedup();
    assert_eq!(timestamps.len(), n, "commit timestamps must be unique");
    // Deletes are logged by key.
    let mut txn = engine.begin(IsolationLevel::ReadCommitted);
    txn.delete(table, IndexId(0), 3).unwrap();
    txn.commit().unwrap();
    logger.with_records(|records| {
        let last = records.last().unwrap();
        assert!(matches!(
            last.ops[0],
            mmdb_storage::LogOp::Delete { key: 3, .. }
        ));
    });
}

#[test]
fn cooperative_gc_keeps_version_count_bounded_under_update_load() {
    let engine = MvEngine::optimistic(MvConfig::default().with_gc_every(16));
    let table = engine.create_table(TableSpec::keyed_u64("t", 256)).unwrap();
    engine
        .populate(table, (0..64u64).map(|k| rowbuf::keyed_row(k, FILLER, 1)))
        .unwrap();

    std::thread::scope(|scope| {
        for w in 0..3u64 {
            let engine = engine.clone();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(w);
                for _ in 0..500 {
                    let k = rng.gen_range(0..64u64);
                    let mut txn = engine.begin(IsolationLevel::ReadCommitted);
                    if txn
                        .update(
                            table,
                            IndexId(0),
                            k,
                            rowbuf::keyed_row(k, FILLER, rng.gen()),
                        )
                        .is_ok()
                    {
                        let _ = txn.commit();
                    } else {
                        txn.abort();
                    }
                }
            });
        }
    });
    // Let the collector finish whatever is still queued.
    while engine.collect_garbage() > 0 {}
    let stats = engine.stats().snapshot();
    assert!(
        stats.versions_collected > 0,
        "GC must have reclaimed versions: {stats:?}"
    );
    assert_eq!(
        engine.version_count(table).unwrap(),
        64,
        "only the live versions remain"
    );

    // Statistics helper sanity.
    let _ = EngineStats::new();
}

/// ROADMAP north-star 3, "memory stays bounded under sustained load": two
/// threads update a hot set back-to-back — their epoch pins overlap all the
/// time, there is no quiet moment for anything to wait for — and neither the
/// versions reachable from the table nor the calls parked in the epoch layer
/// may grow with the number of transactions. Runs for `MMDB_GC_STRESS_MS`
/// (default 600 ms) split over MV/O and MV/L, and in any case until enough
/// transactions committed for the bounds to mean something. The bounds are
/// on the *median* sample: a worker descheduled in the middle of an
/// operation holds the GC watermark and the epoch back for its time slice,
/// and what piles up meanwhile (a burst, gone a moment later) says nothing
/// about growth.
#[test]
fn sustained_update_load_keeps_versions_and_epoch_garbage_bounded() {
    const ROWS: u64 = 256;
    /// Unreclaimed versions allowed on top of the live rows: the collector
    /// runs every 128 commits and takes 256 items a step, so the backlog
    /// hovers in the hundreds however long the run.
    const VERSION_MARGIN: usize = 4_096;
    /// Deferred calls allowed in the epoch layer, process-wide (the sibling
    /// tests in this binary contribute a few thousand of their own).
    const PENDING_BOUND: usize = 16_384;
    /// Every commit retires a version and a handle reference; this many
    /// commits would overshoot both bounds several times over if either
    /// kind of garbage accumulated.
    const MIN_COMMITS: u64 = 100_000;

    let budget_ms: u64 = std::env::var("MMDB_GC_STRESS_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(600);
    let per_engine = Duration::from_millis(budget_ms / 2);

    for engine in [
        MvEngine::optimistic(MvConfig::default()),
        MvEngine::pessimistic(MvConfig::default()),
    ] {
        let table = engine
            .create_table(TableSpec::keyed_u64("hot", 256))
            .unwrap();
        engine
            .populate(table, (0..ROWS).map(|k| rowbuf::keyed_row(k, FILLER, 1)))
            .unwrap();
        let commits = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let (mut versions, mut pending) = (Vec::new(), Vec::new());

        std::thread::scope(|scope| {
            for w in 0..2u64 {
                let (engine, commits, stop) = (&engine, &commits, &stop);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(w);
                    while !stop.load(Ordering::Relaxed) {
                        let k = rng.gen_range(0..ROWS);
                        let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
                        let row = rowbuf::keyed_row(k, FILLER, rng.gen());
                        // Write-write conflicts on the hot set abort; the
                        // loser simply moves on.
                        if txn.update(table, IndexId(0), k, row).is_ok() && txn.commit().is_ok() {
                            commits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            // Sample once the pools and the collector have reached their
            // steady state, i.e. after the first tenth of the work.
            let started = std::time::Instant::now();
            loop {
                std::thread::sleep(Duration::from_millis(5));
                let done = commits.load(Ordering::Relaxed);
                if done >= MIN_COMMITS / 10 {
                    versions.push(engine.version_count(table).unwrap());
                    pending.push(crossbeam::epoch::pending_deferred());
                }
                if done >= MIN_COMMITS && started.elapsed() >= per_engine {
                    break;
                }
            }
            stop.store(true, Ordering::Relaxed);
        });

        let committed = commits.load(Ordering::Relaxed);
        let median = |samples: &mut Vec<usize>| {
            samples.sort_unstable();
            samples[samples.len() / 2]
        };
        let (versions, pending) = (median(&mut versions), median(&mut pending));
        assert!(
            versions <= ROWS as usize + VERSION_MARGIN,
            "{versions} versions reachable for {ROWS} rows (median) over {committed} commits: \
             version garbage grows with the load"
        );
        assert!(
            pending <= PENDING_BOUND,
            "{pending} deferred calls pending (median) over {committed} commits: \
             epoch garbage grows with the load"
        );
    }
}

#[test]
fn reader_writer_wait_for_dependencies_resolve_without_deadlock() {
    // Transactions read row A then update row B and vice versa. Because read
    // locks are released at the end of normal processing *before* waiting,
    // these wait-for dependencies resolve themselves and the system keeps
    // committing (no deadlock-victim storm).
    let engine =
        MvEngine::pessimistic(MvConfig::default().with_wait_timeout(Duration::from_secs(5)));
    let table = engine.create_table(TableSpec::keyed_u64("t", 16)).unwrap();
    engine
        .populate(table, (0..2u64).map(|k| rowbuf::keyed_row(k, FILLER, 1)))
        .unwrap();

    // Each worker keeps going until it has committed its quota. A loser backs
    // off before retrying: a peer descheduled mid-commit holds
    // `NoMoreReadLocks` for its whole time slice, and without the pause the
    // other worker burns every attempt it has on `ReadLockUnavailable`
    // inside that slice.
    const QUOTA: u64 = 25;
    const MAX_ATTEMPTS: u64 = 2_000;
    let committed = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for w in 0..2u64 {
            let engine = engine.clone();
            let committed = Arc::clone(&committed);
            scope.spawn(move || {
                let mut mine = 0;
                for i in 0..MAX_ATTEMPTS {
                    let (read_key, write_key) = if w == 0 { (0, 1) } else { (1, 0) };
                    let mut txn = engine.begin(IsolationLevel::RepeatableRead);
                    let result: Result<()> = (|| {
                        txn.read(table, IndexId(0), read_key)?;
                        txn.update(
                            table,
                            IndexId(0),
                            write_key,
                            rowbuf::keyed_row(write_key, FILLER, i as u8),
                        )?;
                        Ok(())
                    })();
                    let ok = match result {
                        Ok(()) => txn.commit().is_ok(),
                        Err(_) => {
                            txn.abort();
                            false
                        }
                    };
                    if !ok {
                        std::thread::sleep(Duration::from_micros(50));
                        continue;
                    }
                    mine += 1;
                    if mine == QUOTA {
                        break;
                    }
                }
                committed.fetch_add(mine, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(
        committed.load(Ordering::Relaxed),
        2 * QUOTA,
        "the system must keep committing: a worker ran out of attempts"
    );
}

#[test]
fn deadlock_detector_breaks_bucket_lock_cycles() {
    // A genuine wait-for cycle (§4.2.2): two serializable pessimistic
    // transactions each scan a key the other then inserts. Each insert takes
    // a wait-for dependency on the other transaction's bucket lock, and those
    // dependencies are only released after the holder precommits — which it
    // cannot do while it is itself waiting. Only the deadlock detector (or
    // the wait timeout) can break the cycle; with the detector enabled both
    // threads keep making progress quickly.
    let engine = MvEngine::pessimistic(
        MvConfig::default()
            .with_wait_timeout(Duration::from_secs(10))
            .with_deadlock_detector(true),
    );
    let table = engine.create_table(TableSpec::keyed_u64("t", 64)).unwrap();
    engine
        .populate(table, (0..4u64).map(|k| rowbuf::keyed_row(k, FILLER, 1)))
        .unwrap();

    let committed = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    let rounds = 30u64;
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        let barrier = Arc::new(std::sync::Barrier::new(2));
        for w in 0..2u64 {
            let engine = engine.clone();
            let committed = Arc::clone(&committed);
            let aborted = Arc::clone(&aborted);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                for round in 0..rounds {
                    // Fresh keys every round so uniqueness never interferes.
                    let base = 1_000 + round * 2;
                    let (scan_key, insert_key) = if w == 0 {
                        (base, base + 1)
                    } else {
                        (base + 1, base)
                    };
                    barrier.wait();
                    let mut txn = engine.begin(IsolationLevel::Serializable);
                    let result: Result<()> = (|| {
                        // Scan (and bucket-lock) a key that does not exist.
                        txn.read(table, IndexId(0), scan_key)?;
                        // Insert the key the other transaction scanned.
                        txn.insert(table, rowbuf::keyed_row(insert_key, FILLER, w as u8))?;
                        Ok(())
                    })();
                    match result {
                        Ok(()) => match txn.commit() {
                            Ok(_) => {
                                committed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                aborted.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        Err(_) => {
                            txn.abort();
                            aborted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let committed = committed.load(Ordering::Relaxed);
    let aborted = aborted.load(Ordering::Relaxed);
    assert_eq!(committed + aborted, rounds * 2);
    assert!(
        committed >= rounds,
        "at least one transaction per round commits: {committed}"
    );
    // With a 10s wait timeout, finishing quickly proves the detector (not the
    // timeout) resolved the conflicts.
    assert!(
        elapsed < Duration::from_secs(8),
        "cycles should be broken by the detector well before the wait timeout (took {elapsed:?})"
    );
}

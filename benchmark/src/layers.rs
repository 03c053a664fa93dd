//! Per-layer micro fixtures: each times calls into one layer's public
//! functions, from outside the layer, on an MV/O engine holding the
//! workload's own populated tables (so table sizes and row lengths are the
//! workload's). A fixture reports the median ns per call of [`SAMPLES`]
//! batches. The two ladders add the parts of a point read and of an update
//! transaction and report how far the sum is from the whole.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::epoch::{self, Atomic, Shared};
use rand::SeedableRng;

use mmdb_common::clock::GlobalClock;
use mmdb_common::contention::ContentionMonitor;
use mmdb_common::durability::Durability;
use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::ids::{IndexId, Key, TableId, Timestamp, TxnId};
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_common::row::{rowbuf, IndexSpec, Row, TableSpec};
use mmdb_common::stats::EngineStats;
use mmdb_core::{check_visibility, MvConfig, MvEngine};
use mmdb_index::bucket_lock::BucketLockTable;
use mmdb_index::chain::{ChainNode, HashIndex};
use mmdb_index::ordered::OrderedIndex;
use mmdb_storage::checkpoint::CheckpointStore;
use mmdb_storage::group_commit::GroupCommitLog;
use mmdb_storage::log::{encode_frame_into, LogOpRef, RedoLogger};
use mmdb_storage::txn_table::{TxnHandle, TxnTable};

use crate::child::ChildSpec;
use crate::client::{attempt_one, client_rng};
use crate::hist::{median, Histogram};
use crate::json::Json;
use crate::workloads::{Populated, CLIENTS};

/// Timed batches per fixture; the fixture reports their median.
const SAMPLES: usize = 5;
/// Odd stride that walks a key space in a well-mixed order.
const STRIDE: u64 = 0x9E37_79B9;

/// Times fixtures: [`SAMPLES`] batches of about `batch` each.
#[derive(Clone, Copy)]
pub struct Timer {
    batch: Duration,
}

impl Timer {
    /// A timer that spends about `budget` on one fixture.
    pub fn with_budget(budget: Duration) -> Timer {
        Timer {
            batch: (budget / SAMPLES as u32).max(Duration::from_millis(1)),
        }
    }

    /// Median ns per call of `op`. `max_calls` caps one batch for fixtures
    /// that consume something per call (memory, disk).
    fn capped(self, max_calls: u64, mut op: impl FnMut()) -> f64 {
        // Calibrate: grow the trial until it is long enough to time.
        let mut calls = 64u64;
        let per_call = loop {
            let started = Instant::now();
            for _ in 0..calls {
                op();
            }
            let elapsed = started.elapsed();
            if elapsed >= Duration::from_millis(2) || calls >= max_calls {
                break elapsed.as_nanos() as f64 / calls as f64;
            }
            calls *= 4;
        };
        let calls = ((self.batch.as_nanos() as f64 / per_call.max(0.1)) as u64).clamp(1, max_calls);
        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..calls {
                    op();
                }
                started.elapsed().as_nanos() as f64 / calls as f64
            })
            .collect();
        median(&mut samples)
    }

    fn ns(self, op: impl FnMut()) -> f64 {
        self.capped(u64::MAX, op)
    }

    /// Time `op` on this thread while `CLIENTS - 1` other threads run
    /// `other` flat out: what a call costs when both clients make it at once.
    fn contended(self, other: impl Fn() + Sync, max_calls: u64, op: impl FnMut()) -> f64 {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 1..CLIENTS {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        other();
                    }
                });
            }
            let ns = self.capped(max_calls, op);
            stop.store(true, Ordering::Relaxed);
            ns
        })
    }

    /// How long a fixture that times itself should run.
    fn budget(self) -> Duration {
        self.batch * SAMPLES as u32
    }
}

/// A minimal intrusive node for the standalone index fixtures.
struct Node {
    key: Key,
    next: Atomic<Node>,
}

impl ChainNode for Node {
    fn next_ptr(&self, _slot: usize) -> &Atomic<Node> {
        &self.next
    }
    fn key(&self, _slot: usize) -> Key {
        self.key
    }
}

/// `mmdb-index` on its own: a hash index and an ordered index holding one
/// node per row of the workload's main table, and a bucket-lock table.
fn index_fixtures(timer: Timer, rows: u64, out: &mut Json) {
    let nodes: Vec<Box<Node>> = (0..rows)
        .map(|key| {
            Box::new(Node {
                key,
                next: Atomic::null(),
            })
        })
        .collect();
    let guard = epoch::pin();
    {
        let hash: HashIndex<Node> = HashIndex::new(0, rows as usize);
        for node in &nodes {
            hash.insert(Shared::from(&**node as *const Node), &guard);
        }
        let mut key = 0u64;
        out.set(
            "index.chain.probe_ns",
            timer.ns(|| {
                key = key.wrapping_add(STRIDE) % rows;
                black_box(hash.iter_key(key, &guard).next());
            }),
        );
    }
    // The hash index is gone; the same nodes can now thread the ordered one.
    for node in &nodes {
        node.next.store(Shared::null(), Ordering::Relaxed);
    }
    let ordered: OrderedIndex<Node> = OrderedIndex::new(0);
    for node in &nodes {
        ordered.insert(Shared::from(&**node as *const Node), &guard);
    }
    let mut key = 0u64;
    out.set(
        "index.ordered.seek_ns",
        timer.ns(|| {
            key = key.wrapping_add(STRIDE) % rows;
            black_box(ordered.iter_range(key, u64::MAX, &guard).next());
        }),
    );
    {
        let mut iter = ordered.iter_all(&guard);
        out.set(
            "index.ordered.next_ns",
            timer.ns(|| {
                if black_box(iter.next()).is_none() {
                    iter = ordered.iter_all(&guard);
                }
            }),
        );
    }
    // The ordered index must not outlive the nodes it points at.
    drop(ordered);

    let locks = BucketLockTable::new(rows as usize);
    let mut bucket = 0usize;
    out.set(
        "index.bucket_lock.lock_unlock_ns",
        timer.ns(|| {
            bucket = (bucket + STRIDE as usize) % rows as usize;
            black_box(locks.lock(bucket, TxnId(7)));
            locks.unlock(bucket, TxnId(7));
        }),
    );
}

/// `shims/crossbeam` epoch and `mmdb-common` on their own.
fn epoch_and_common_fixtures(timer: Timer, tables: &[TableId], out: &mut Json) {
    out.set("epoch.pin_ns", timer.ns(|| drop(black_box(epoch::pin()))));
    out.set(
        "epoch.pin_2t_ns",
        timer.contended(
            || drop(black_box(epoch::pin())),
            u64::MAX,
            || drop(black_box(epoch::pin())),
        ),
    );

    let clock = GlobalClock::new();
    out.set(
        "common.clock.next_ts_ns",
        timer.ns(|| {
            black_box(clock.next_timestamp());
        }),
    );
    out.set(
        "common.clock.next_ts_2t_ns",
        timer.contended(
            || {
                black_box(clock.next_timestamp());
            },
            u64::MAX,
            || {
                black_box(clock.next_timestamp());
            },
        ),
    );

    // Two clients bumping neighbouring counters of one `EngineStats`: the
    // shared cache lines every begin and commit touches.
    let stats = EngineStats::new();
    out.set(
        "common.stats.bump_2t_ns",
        timer.contended(
            || EngineStats::bump(&stats.aborts),
            u64::MAX,
            || EngineStats::bump(&stats.commits),
        ),
    );

    let monitor = ContentionMonitor::new();
    out.set(
        "common.contention.recommend_ns",
        timer.ns(|| {
            black_box(monitor.recommend(false, tables));
        }),
    );
    out.set(
        "common.contention.record_ns",
        timer.ns(|| monitor.record(tables, false)),
    );
}

/// Point read and single-row update transaction on any engine, on the
/// workload's main table. The update writes back the row it replaces, so
/// the table's contents (and every oracle over them) are unchanged.
pub fn engine_probes<E: Engine>(timer: Timer, engine: &E, workload: &Populated) -> Json {
    let main = workload.main_table();
    let mut out = Json::obj();

    let mut reader = engine.begin_hinted(true, &[main.table], IsolationLevel::ReadCommitted);
    let mut i = 0u64;
    out.set(
        "read_point_ns",
        timer.ns(|| {
            i = i.wrapping_add(STRIDE) % main.rows;
            let found = reader
                .read_with(main.table, IndexId(0), workload.main_key(i), &mut |row| {
                    black_box(row[0]);
                })
                .expect("point read");
            assert!(found, "main-table row {i} must exist");
        }),
    );
    reader.commit().expect("read-only commit");

    // Pre-read the rows to write back, so the timed transaction is
    // begin → update → commit with no read of its own.
    let sample = main.rows.min(16_384);
    let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
    let rows: Vec<(u64, Row)> = (0..sample)
        .map(|n| {
            let key = workload.main_key(n.wrapping_mul(STRIDE) % main.rows);
            let row = txn
                .read(main.table, IndexId(0), key)
                .expect("read")
                .expect("main-table row exists");
            (key, row)
        })
        .collect();
    txn.commit().expect("read-only commit");
    let mut n = 0usize;
    out.set(
        "update_txn_ns",
        timer.ns(|| {
            n = (n + 1) % rows.len();
            let (key, row) = &rows[n];
            let mut txn =
                engine.begin_hinted(false, &[main.table], IsolationLevel::SnapshotIsolation);
            assert!(txn
                .update(main.table, IndexId(0), *key, row.clone())
                .expect("update"));
            txn.commit().expect("commit");
        }),
    );
    out
}

/// `mmdb-storage` pieces reachable through an engine's store, and the
/// `mmdb-core` transaction fixtures.
fn storage_and_core_fixtures(
    timer: Timer,
    engine: &MvEngine,
    workload: &Populated,
    out: &mut Json,
) {
    let main = workload.main_table();
    let store = engine.store();

    {
        let guard = epoch::pin();
        out.set(
            "storage.catalog.table_in_ns",
            timer.ns(|| {
                black_box(store.table_in(main.table, &guard).expect("table").id());
            }),
        );
        let table = store.table_in(main.table, &guard).expect("table");
        let mut i = 0u64;
        out.set(
            "storage.table.candidates_ns",
            timer.ns(|| {
                i = i.wrapping_add(STRIDE) % main.rows;
                let first = table
                    .candidate_ptrs(IndexId(0), workload.main_key(i), &guard)
                    .expect("index")
                    .next();
                black_box(first.expect("row exists").addr());
            }),
        );
        // A committed version as every steady-state read finds it: both
        // words hold timestamps, so the transaction table is not consulted.
        let version = table
            .candidate_ptrs(IndexId(0), workload.main_key(0), &guard)
            .expect("index")
            .next()
            .expect("row exists");
        let read_ts = store.clock().now();
        out.set(
            "core.visibility.check_ns",
            timer.ns(|| {
                black_box(check_visibility(
                    version.get(),
                    read_ts,
                    TxnId(u64::MAX >> 8),
                    store.txns(),
                    &guard,
                ));
            }),
        );
    }

    {
        let txns = TxnTable::new();
        let handle = |id: u64| {
            TxnHandle::new(
                TxnId(id),
                Timestamp(id),
                ConcurrencyMode::Optimistic,
                IsolationLevel::SnapshotIsolation,
            )
        };
        for id in 1..=64 {
            txns.register(handle(id));
        }
        let guard = epoch::pin();
        let mut id = 1u64;
        out.set(
            "storage.txn_table.get_in_ns",
            timer.ns(|| {
                id = id % 64 + 1;
                black_box(txns.get_in(TxnId(id), &guard).expect("registered").id());
            }),
        );
        drop(guard);
        let churn = handle(1_000);
        out.set(
            "storage.txn_table.register_remove_ns",
            timer.ns(|| {
                txns.register(Arc::clone(&churn));
                txns.remove(TxnId(1_000));
            }),
        );
        for id in 1..=64 {
            txns.remove(TxnId(id));
        }
    }

    // Version allocation + linking into a scratch table of the same row
    // length. Capped: every call leaves a version behind.
    {
        let scratch = store
            .create_table(TableSpec::keyed_u64("layer_scratch", 1 << 16))
            .expect("scratch table");
        let guard = epoch::pin();
        let table = store.table_in(scratch, &guard).expect("scratch table");
        let mut key = 0u64;
        out.set(
            "storage.version.make_link_ns",
            timer.capped(50_000, || {
                key += 1;
                let row = rowbuf::keyed_row(key, main.row_len - 8, 1);
                let version = table
                    .make_version_with(TxnId(1), row, &[key])
                    .expect("make version");
                black_box(table.link_version(version, &guard).addr());
            }),
        );
    }

    // One frame as an update of the main table encodes it.
    {
        let row = rowbuf::keyed_row(1, main.row_len - 8, 1);
        let mut buf = Vec::with_capacity(256);
        out.set(
            "storage.log.encode_ns",
            timer.ns(|| {
                buf.clear();
                encode_frame_into(
                    &mut buf,
                    Timestamp(9),
                    std::iter::once(LogOpRef::Write {
                        table: main.table,
                        row: &row,
                    }),
                );
                black_box(buf.len());
            }),
        );
    }

    out.set(
        "core.txn.begin_commit_ns",
        timer.ns(|| {
            let txn = engine.begin_hinted(true, &[main.table], IsolationLevel::ReadCommitted);
            black_box(txn.commit().expect("empty commit"));
        }),
    );

    let probes = engine_probes(timer, engine, workload);
    out.set("core.read.point_ns", probes.num("read_point_ns"));
    out.set("core.update.txn_ns", probes.num("update_txn_ns"));

    // A fixture table with an ordered index over the primary key, sized and
    // shaped like the main table, for range scans.
    let fixture = engine
        .create_table(
            TableSpec::keyed_u64("layer_fixture", main.rows as usize)
                .with_index(IndexSpec::ordered_u64("pk_ordered", 0)),
        )
        .expect("fixture table");
    engine
        .populate(
            fixture,
            (0..main.rows).map(|k| rowbuf::keyed_row(k, main.row_len - 8, 1)),
        )
        .expect("populate fixture");
    {
        let mut txn = engine.begin_hinted(true, &[fixture], IsolationLevel::ReadCommitted);
        let mut lo = 0u64;
        out.set(
            "core.read.scan_range8_ns",
            timer.ns(|| {
                lo = lo.wrapping_add(STRIDE) % (main.rows - 8);
                let seen = txn
                    .scan_range_with(fixture, IndexId(1), lo, lo + 7, &mut |row| {
                        black_box(row[0]);
                    })
                    .expect("range scan");
                assert_eq!(seen, 8);
            }),
        );
        txn.commit().expect("read-only commit");
    }
    {
        // Insert + delete pairs on a plain hash-indexed table of the same
        // size. (Not the ordered fixture above: there such pairs now and
        // then take milliseconds each for their first few hundred, which
        // would make this fixture report one of two unrelated numbers; see
        // the README's observations.)
        let plain = engine
            .create_table(TableSpec::keyed_u64("layer_plain", main.rows as usize))
            .expect("plain table");
        engine
            .populate(
                plain,
                (0..main.rows).map(|k| rowbuf::keyed_row(k, main.row_len - 8, 1)),
            )
            .expect("populate plain table");
        let mut key = main.rows;
        out.set(
            "core.insert_delete.txn_ns",
            timer.ns(|| {
                key += 1;
                let mut txn =
                    engine.begin_hinted(false, &[plain], IsolationLevel::SnapshotIsolation);
                txn.insert(plain, rowbuf::keyed_row(key, main.row_len - 8, 2))
                    .expect("insert");
                txn.commit().expect("commit insert");
                let mut txn =
                    engine.begin_hinted(false, &[plain], IsolationLevel::SnapshotIsolation);
                assert!(txn.delete(plain, IndexId(0), key).expect("delete"));
                txn.commit().expect("commit delete");
            }) / 2.0,
        );
    }
    {
        // commit() of a 50-read transaction: Serializable validates its read
        // set, Read Committed has nothing to validate.
        const READS: u64 = 50;
        let commit_ns = |isolation: IsolationLevel| {
            let mut i = 0u64;
            let mut in_commit = Duration::ZERO;
            let mut commits = 0u32;
            let started = Instant::now();
            while started.elapsed() < timer.budget() {
                let mut txn = engine.begin_hinted(true, &[main.table], isolation);
                for _ in 0..READS {
                    i = i.wrapping_add(STRIDE) % main.rows;
                    txn.read_with(main.table, IndexId(0), workload.main_key(i), &mut |row| {
                        black_box(row[0]);
                    })
                    .expect("read");
                }
                let before = Instant::now();
                txn.commit().expect("commit");
                in_commit += before.elapsed();
                commits += 1;
            }
            in_commit.as_nanos() as f64 / commits as f64
        };
        let serializable = commit_ns(IsolationLevel::Serializable);
        let read_committed = commit_ns(IsolationLevel::ReadCommitted);

        out.set(
            "core.commit.validate_ns_per_read",
            (serializable - read_committed) / READS as f64,
        );
    }
}

/// Garbage collection on its own engine: cooperative GC is switched off so
/// the timed `collect_garbage` calls find the whole backlog.
fn gc_fixture(row_len: usize, out: &mut Json) {
    const KEYS: u64 = 4_096;
    const UPDATES: u64 = 20_000;
    let engine = MvEngine::new(MvConfig::optimistic().with_gc_every(0));
    let table = engine
        .create_table(TableSpec::keyed_u64("gc", KEYS as usize))
        .expect("gc table");
    engine
        .populate(
            table,
            (0..KEYS).map(|k| rowbuf::keyed_row(k, row_len - 8, 1)),
        )
        .expect("populate");
    let mut per_version: Vec<f64> = (0..SAMPLES)
        .map(|round| {
            for n in 0..UPDATES {
                let key = n.wrapping_mul(STRIDE) % KEYS;
                let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
                txn.update(
                    table,
                    IndexId(0),
                    key,
                    rowbuf::keyed_row(key, row_len - 8, round as u8),
                )
                .expect("update");
                txn.commit().expect("commit");
            }
            let started = Instant::now();
            let mut reclaimed = 0usize;
            loop {
                let n = engine.collect_garbage();
                if n == 0 {
                    break;
                }
                reclaimed += n;
            }
            started.elapsed().as_nanos() as f64 / reclaimed.max(1) as f64
        })
        .collect();
    out.set(
        "storage.gc.collect_ns_per_version",
        median(&mut per_version),
    );
}

/// The group-commit log on a real file: append cost alone and contended,
/// and what a `Durability::Sync` commit waits with both clients committing.
fn group_commit_fixtures(
    timer: Timer,
    spec: &ChildSpec,
    row_len: usize,
    out: &mut Json,
) -> Result<(), String> {
    let path = spec
        .out_dir
        .join(format!("layers-{}.log", std::process::id()));
    let tick = Duration::from_millis(1);
    let open =
        || GroupCommitLog::with_tick(&path, tick).map_err(|e| format!("open log fixture: {e}"));

    let mut frame = Vec::new();
    let row = rowbuf::keyed_row(1, row_len - 8, 1);
    encode_frame_into(
        &mut frame,
        Timestamp(9),
        std::iter::once(LogOpRef::Write {
            table: TableId(0),
            row: &row,
        }),
    );
    // Capped: every append is bytes the flusher writes and syncs.
    const MAX_APPENDS: u64 = 20_000;
    {
        let log = open()?;
        out.set(
            "storage.group_commit.append_ns",
            timer.capped(MAX_APPENDS, || log.append_frame(&frame)),
        );
    }
    {
        let log = open()?;
        out.set(
            "storage.group_commit.append_2t_ns",
            timer.contended(
                || log.append_frame(&frame),
                MAX_APPENDS,
                || log.append_frame(&frame),
            ),
        );
    }
    {
        const KEYS: u64 = 4_096;
        let log: Arc<dyn RedoLogger> = Arc::new(open()?);
        let engine = MvEngine::with_logger(MvConfig::optimistic(), log);
        let table = engine
            .create_table(TableSpec::keyed_u64("sync_commit", KEYS as usize))
            .expect("table");
        engine
            .populate(
                table,
                (0..KEYS).map(|k| rowbuf::keyed_row(k, row_len - 8, 1)),
            )
            .expect("populate");
        let deadline = Instant::now() + timer.budget();
        let mut latency = Histogram::default();
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS as u64)
                .map(|c| {
                    let engine = &engine;
                    scope.spawn(move || {
                        // Disjoint keys: the log is the only thing shared.
                        let mut hist = Histogram::default();
                        let mut n = 0u64;
                        while Instant::now() < deadline {
                            n += 1;
                            let key = (n * CLIENTS as u64 + c) % KEYS;
                            let started = Instant::now();
                            let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
                            txn.set_durability(Durability::Sync);
                            txn.update(
                                table,
                                IndexId(0),
                                key,
                                rowbuf::keyed_row(key, row_len - 8, n as u8),
                            )
                            .expect("update");
                            txn.commit().expect("sync commit");
                            hist.record(started.elapsed().as_nanos() as u64);
                        }
                        hist
                    })
                })
                .collect();
            for c in clients {
                latency.merge(&c.join().expect("sync-commit client"));
            }
        });
        out.set(
            "storage.group_commit.sync_commit_us",
            latency.quantile(0.5) / 1_000.0,
        );
    }
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// Full and delta checkpoint of the workload's tables on an engine attached
/// to `store` with no background checkpointer.
pub fn checkpoint_probes(
    engine: &MvEngine,
    store: &CheckpointStore,
    workload: &Populated,
    seed: u64,
) -> Result<Json, String> {
    let started = Instant::now();
    engine
        .checkpoint(store)
        .map_err(|e| format!("full checkpoint: {e:?}"))?;
    let full_s = started.elapsed().as_secs_f64();
    // What the delta has to pick up: a couple of thousand transactions of
    // the workload's own mix (the update client's, where clients differ).
    let worker = CLIENTS - 1;
    let mut rng = client_rng(seed, worker);
    let mut ledger = 0i64;
    for _ in 0..2_000 {
        attempt_one(engine, workload, &mut rng, worker, &mut ledger);
    }
    let started = Instant::now();
    engine
        .checkpoint_delta(store)
        .map_err(|e| format!("delta checkpoint: {e:?}"))?;
    let delta_s = started.elapsed().as_secs_f64();
    Ok(Json::obj()
        .with("checkpoint_full_s", full_s)
        .with("checkpoint_delta_s", delta_s))
}

/// The layers child: every MV/O micro fixture on the workload's tables.
pub fn run(spec: &ChildSpec) -> Result<Json, String> {
    // The layers child's `--window-ms` is the budget of one fixture.
    let timer = Timer::with_budget(Duration::from_millis(spec.window_ms));
    let engine = MvEngine::new(MvConfig::optimistic());
    let workload = Populated::setup(spec.workload, spec.quick, &engine)
        .map_err(|e| format!("populate: {e:?}"))?;
    let main = workload.main_table();
    let mut out = Json::obj();

    epoch_and_common_fixtures(timer, &workload.table_ids(), &mut out);
    index_fixtures(timer, main.rows, &mut out);
    storage_and_core_fixtures(timer, &engine, &workload, &mut out);
    gc_fixture(main.row_len, &mut out);
    group_commit_fixtures(timer, spec, main.row_len, &mut out)?;

    let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed);
    out.set(
        "workload.draw_ns",
        timer.ns(|| {
            black_box(workload.draw(&mut rng));
        }),
    );

    // The ladders: how much of the whole the separately timed parts explain.
    let whole = out.num("core.read.point_ns");
    let parts = out.num("epoch.pin_ns")
        + out.num("storage.catalog.table_in_ns")
        + out.num("storage.table.candidates_ns")
        + out.num("core.visibility.check_ns");
    out.set("ladder.read.residual_share", (whole - parts).abs() / whole);
    let whole = out.num("core.update.txn_ns");
    let parts = out.num("core.txn.begin_commit_ns")
        + out.num("core.read.point_ns")
        + out.num("storage.version.make_link_ns")
        + out.num("storage.log.encode_ns")
        + out.num("storage.gc.collect_ns_per_version");
    out.set(
        "ladder.update.residual_share",
        (whole - parts).abs() / whole,
    );
    crate::child::leak(engine);
    Ok(out)
}

//! Crash–recovery differential tests.
//!
//! The paper's durability story (§3.2, §5): every committed transaction
//! emits one redo record carrying its end timestamp and after-images, and
//! replaying the log in commit-timestamp order reconstructs the committed
//! state. These tests drive that claim end to end for all three engines
//! (MV/O, MV/L, 1V):
//!
//! 1. run a seeded concurrent multi-table history against an engine wired to
//!    a tickless [`GroupCommitLog`];
//! 2. "crash" by truncating the log bytes at randomized offsets — including
//!    offsets in the middle of a record frame;
//! 3. recover into a fresh engine via `recover_bytes` and assert the
//!    recovered state equals the committed prefix the surviving log records
//!    describe, with **every** index (primary and secondary) consistent with
//!    a full scan.
//!
//! The oracle for a crash at offset X is computed from the decoded surviving
//! records themselves (sorted by end timestamp, after-images upserted,
//! deletes applied) — the engine's recovery, a newest-wins fold per primary
//! key bulk-loaded into every index, must reach the same state.
//!
//! Failures print a grep-able `MMDB-REPRO:` line with the seed and crash
//! offset and save the history + log bytes under `target/test-artifacts/`.

mod support;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mmdb::prelude::*;
use mmdb_common::durability::CheckpointPolicy;
use mmdb_storage::checkpoint::{
    read_checkpoint, CheckpointContents, CheckpointRef, CheckpointStore, RecoveryPlan,
};
use mmdb_storage::durable::Durable;
use mmdb_storage::group_commit::GroupCommitLog;
use mmdb_storage::log::{
    read_log_bytes, read_log_file_from, LogOp, LogRecord, Lsn, MemoryLogger, NullLogger, RedoLogger,
};
use support::{
    assert_indexes_consistent, create_diff_tables, dump, generate_history, populate,
    run_concurrent, run_sequential, with_repro_artifacts, HistoryParams, TxnRecord,
};

const TABLES: usize = 2;
const KEY_SPACE: u64 = 24;
const INITIAL_ROWS: u64 = 16;
const DUMP_BOUND: u64 = KEY_SPACE * 2;
const WORKERS: usize = 3;

const PARAMS: HistoryParams = HistoryParams {
    tables: TABLES,
    key_space: KEY_SPACE,
    txns: 20,
    max_ops: 5,
    abort_probability: 0.1,
};

fn seeds() -> Vec<u64> {
    match std::env::var("MMDB_DIFF_SEED") {
        Ok(v) => vec![v.trim().parse().expect("MMDB_DIFF_SEED must be a u64")],
        Err(_) => vec![0x4EC0_0001, 0x4EC0_0002, 0x4EC0_0003],
    }
}

/// One engine kind the suite runs on: its label (for failure messages and
/// scratch paths) and how to build it over a redo logger. Every test body is
/// generic over `E: Durable` and runs once per kind.
struct Kind<E> {
    label: &'static str,
    make: fn(Arc<dyn RedoLogger>) -> E,
}

// Recovery targets and workload sources alike are driven by at most a few
// worker threads; the background deadlock detector only adds noise here.
const MVO: Kind<MvEngine> = Kind {
    label: "MV/O",
    make: |logger| {
        MvEngine::with_logger(MvConfig::optimistic().with_deadlock_detector(false), logger)
    },
};
const MVL: Kind<MvEngine> = Kind {
    label: "MV/L",
    make: |logger| {
        MvEngine::with_logger(
            MvConfig::pessimistic().with_deadlock_detector(false),
            logger,
        )
    },
};
const SV: Kind<SvEngine> = Kind {
    label: "1V",
    make: |logger| SvEngine::with_logger(SvConfig::default(), logger),
};

/// Call a generic test body once per engine kind.
macro_rules! for_all_engines {
    ($body:ident $(, $arg:expr)*) => {{
        $body(&MVO $(, $arg)*);
        $body(&MVL $(, $arg)*);
        $body(&SV $(, $arg)*);
    }};
}

impl<E: Durable> Kind<E> {
    fn engine(&self, logger: Arc<dyn RedoLogger>) -> E {
        (self.make)(logger)
    }

    /// A fresh recovery target (discarding logger) with its tables
    /// re-created.
    fn target(&self) -> (E, Vec<TableId>) {
        let target = self.engine(Arc::new(NullLogger::new()));
        let tables = target.create_tables();
        (target, tables)
    }

    /// The label as a file-name component.
    fn tag(&self) -> String {
        self.label.replace('/', "_")
    }
}

/// This suite's fixed table shape, initial rows, isolation level and dump
/// bound, on any engine.
trait Harness: Durable + Sized {
    fn create_tables(&self) -> Vec<TableId> {
        create_diff_tables(self, TABLES, 128)
    }

    fn seed(&self, tables: &[TableId]) {
        populate(self, tables, INITIAL_ROWS)
    }

    fn run_concurrent(&self, tables: &[TableId], scripts: Vec<Vec<support::TxnScript>>) {
        let _: Vec<TxnRecord> = run_concurrent(self, tables, IsolationLevel::Serializable, scripts);
    }

    fn run_sequential(&self, tables: &[TableId], scripts: &[support::TxnScript]) {
        let _: Vec<TxnRecord> = run_sequential(self, tables, IsolationLevel::Serializable, scripts);
    }

    fn dump(&self, tables: &[TableId]) -> Vec<BTreeMap<u64, u8>> {
        dump(self, tables, DUMP_BOUND)
    }

    fn assert_indexes_consistent(&self, label: &str, tables: &[TableId]) {
        assert_indexes_consistent(label, self, tables, DUMP_BOUND)
    }
}

impl<E: Durable> Harness for E {}

/// Replay decoded log records against plain maps: the ground truth a
/// recovered engine must reach. After-images upsert by primary key, deletes
/// remove, all in end-timestamp order (§3.2: "commit ordering is determined
/// by transaction end timestamps").
fn log_oracle(records: &[LogRecord], tables: &[TableId]) -> Vec<BTreeMap<u64, u8>> {
    let mut sorted: Vec<&LogRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.end_ts);
    let mut state = vec![BTreeMap::new(); tables.len()];
    for record in sorted {
        for op in &record.ops {
            match op {
                LogOp::Write { table, row } => {
                    let slot = tables
                        .iter()
                        .position(|t| t == table)
                        .expect("logged table exists");
                    state[slot].insert(rowbuf::key_of(row), rowbuf::fill_of(row));
                }
                LogOp::Delete { table, key } => {
                    let slot = tables
                        .iter()
                        .position(|t| t == table)
                        .expect("logged table exists");
                    state[slot].remove(key);
                }
            }
        }
    }
    state
}

/// Fresh scratch log path (the workload side of each test writes here). The
/// harness names each test's thread after the test, so the path carries the
/// test's name: tests that build the same (engine, seed) tag and run
/// concurrently never share — and remove — each other's file.
fn scratch_log(tag: &str) -> PathBuf {
    let test = std::thread::current().name().unwrap_or("main").to_string();
    std::env::temp_dir().join(format!(
        "mmdb-recovery-{}-{test}-{tag}.log",
        std::process::id()
    ))
}

/// What [`logged_concurrent_run`] yields: the log bytes, the source
/// engine's final state, its table ids and a debug dump of the history.
struct LoggedRun {
    bytes: Vec<u8>,
    final_state: Vec<BTreeMap<u64, u8>>,
    tables: Vec<TableId>,
    history_debug: String,
}

/// Run a seeded concurrent history on a file-logged engine of `kind`.
fn logged_concurrent_run<E: Durable>(kind: &Kind<E>, seed: u64) -> LoggedRun {
    let path = scratch_log(&format!("{}-{seed:x}", kind.tag()));
    let logger = Arc::new(GroupCommitLog::create(&path).expect("create log file"));
    logged_concurrent_run_on(kind, seed, &path, logger)
}

/// Run a seeded concurrent history on an engine of `kind` wired to an
/// arbitrary file-backed logger (the log file at `path` is read back and
/// removed afterwards).
fn logged_concurrent_run_on<E: Durable>(
    kind: &Kind<E>,
    seed: u64,
    path: &std::path::Path,
    logger: Arc<dyn RedoLogger>,
) -> LoggedRun {
    let engine = kind.engine(logger.clone());
    let tables = engine.create_tables();
    engine.seed(&tables);

    let total = HistoryParams {
        txns: PARAMS.txns * WORKERS,
        ..PARAMS
    };
    let history = generate_history(seed, total);
    let history_debug = format!("{history:#?}");
    let mut parts: Vec<Vec<support::TxnScript>> = (0..WORKERS).map(|_| Vec::new()).collect();
    for (i, script) in history.into_iter().enumerate() {
        parts[i % WORKERS].push(script);
    }
    engine.run_concurrent(&tables, parts);

    logger.flush().expect("flush log");
    let bytes = std::fs::read(path).expect("read log file");
    let final_state = engine.dump(&tables);
    let _ = std::fs::remove_file(path);
    LoggedRun {
        bytes,
        final_state,
        tables,
        history_debug,
    }
}

/// Crash offsets for a log of `len` bytes: the edges, a cut inside the very
/// first frame's length prefix, a cut one byte short of the end (mid-frame
/// by construction), and a seeded random sample — which lands mid-record
/// with overwhelming probability since frames span hundreds of bytes.
fn crash_offsets(seed: u64, len: usize) -> Vec<usize> {
    let mut offsets = vec![0, 1.min(len), 2.min(len), len.saturating_sub(1), len];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A5_4011);
    for _ in 0..8 {
        offsets.push(rng.gen_range(0..=len));
    }
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

#[test]
fn crash_at_any_offset_recovers_the_committed_prefix() {
    for_all_engines!(crash_at_any_offset_recovers_the_committed_prefix_on);
}

fn crash_at_any_offset_recovers_the_committed_prefix_on<E: Durable>(kind: &Kind<E>) {
    for seed in seeds() {
        let LoggedRun {
            bytes,
            tables: source_tables,
            history_debug,
            ..
        } = logged_concurrent_run(kind, seed);
        assert!(
            !bytes.is_empty(),
            "[{} seed={seed:#x}] the run should have produced log records",
            kind.label
        );
        for offset in crash_offsets(seed, bytes.len()) {
            let truncated = &bytes[..offset];
            let outcome = read_log_bytes(truncated).unwrap_or_else(|e| {
                panic!(
                    "[{} seed={seed:#x} crash_offset={offset}] truncation must read as \
                         a torn tail, never corruption: {e}",
                    kind.label
                )
            });
            let expected = log_oracle(&outcome.records, &source_tables);

            let (target, tables) = kind.target();
            assert_eq!(
                tables, source_tables,
                "recovery target must re-create tables with the same ids"
            );

            let history_name = format!("recovery-seed-{seed:#x}.history.txt");
            let log_name = format!("recovery-seed-{seed:#x}.log.bin");
            with_repro_artifacts(
                    &format!(
                        "suite=recovery workload=generic engine={} seed={seed:#x} crash_offset={offset}",
                        kind.label
                    ),
                    &[
                        (&history_name, history_debug.as_bytes()),
                        (&log_name, &bytes),
                    ],
                    || {
                        let report = target.recover_bytes(truncated).unwrap_or_else(|e| {
                            panic!(
                                "[{} seed={seed:#x} crash_offset={offset}] recovery failed: {e}",
                                kind.label
                            )
                        });
                        assert_eq!(report.records_applied, outcome.records.len());
                        assert_eq!(report.valid_bytes, outcome.valid_bytes);
                        assert_eq!(
                            report.valid_bytes + report.torn_bytes,
                            offset as u64,
                            "every crash byte is either replayed or torn"
                        );

                        let label =
                            format!("{} seed={seed:#x} crash_offset={offset}", kind.label);
                        assert_eq!(
                            target.dump(&tables),
                            expected,
                            "[{label}] recovered state diverges from the committed prefix \
                             the surviving log records describe"
                        );
                        target.assert_indexes_consistent(&label, &tables);
                    },
                );
        }
    }
}

#[test]
fn full_log_recovery_reconstructs_the_final_committed_state() {
    for_all_engines!(full_log_recovery_reconstructs_the_final_committed_state_on);
}

fn full_log_recovery_reconstructs_the_final_committed_state_on<E: Durable>(kind: &Kind<E>) {
    // With no crash at all, recovery must land exactly on the state the
    // logged engine ended in — reads served from the recovered database are
    // indistinguishable from reads served by the original.
    for seed in seeds() {
        let LoggedRun {
            bytes,
            final_state,
            tables: source_tables,
            ..
        } = logged_concurrent_run(kind, seed);
        let outcome = read_log_bytes(&bytes).expect("flushed log decodes");
        assert!(
            outcome.is_clean(),
            "[{} seed={seed:#x}] a flushed log has no torn tail",
            kind.label
        );

        let (target, tables) = kind.target();
        let report = target.recover_bytes(&bytes).expect("recovery succeeds");
        assert_eq!(report.records_applied, outcome.records.len());
        assert_eq!(report.torn_bytes, 0);

        let label = format!("{} seed={seed:#x} full-log", kind.label);
        assert_eq!(
            target.dump(&tables),
            final_state,
            "[{label}] full-log recovery diverges from the live engine's final state"
        );
        assert_eq!(
            target.dump(&tables),
            log_oracle(&outcome.records, &source_tables)
        );
        target.assert_indexes_consistent(&label, &tables);
    }
}

#[test]
fn recovery_is_cross_engine() {
    // A log written by one engine replays into any other: the redo format
    // carries after-images and primary keys, nothing scheme-specific. The
    // multiversion log recovered into 1V (and vice versa) must agree.
    let seed = seeds()[0];
    for (source, run) in [
        (MVO.label, logged_concurrent_run(&MVO, seed)),
        (SV.label, logged_concurrent_run(&SV, seed)),
    ] {
        for_all_engines!(recover_foreign_log, source, &run);
    }
}

fn recover_foreign_log<E: Durable>(kind: &Kind<E>, source: &str, run: &LoggedRun) {
    let (target, tables) = kind.target();
    target
        .recover_bytes(&run.bytes)
        .expect("cross-engine recovery");
    let label = format!("{source}-log → {}", kind.label);
    assert_eq!(
        target.dump(&tables),
        run.final_state,
        "[{label}] cross-engine recovery diverged"
    );
    target.assert_indexes_consistent(&label, &tables);
}

#[test]
fn recovered_engine_accepts_new_transactions() {
    for_all_engines!(recovered_engine_accepts_new_transactions_on);
}

fn recovered_engine_accepts_new_transactions_on<E: Durable>(kind: &Kind<E>) {
    // Recovery must leave a fully functional database: uniqueness still
    // enforced, secondary index maintained, new commits logged normally.
    let seed = seeds()[0];
    let LoggedRun {
        bytes, final_state, ..
    } = logged_concurrent_run(kind, seed);
    let (target, tables) = kind.target();
    target.recover_bytes(&bytes).expect("recovery succeeds");

    post_recovery_smoke(&target, &tables, &final_state, DUMP_BOUND + 7);
    target.assert_indexes_consistent(&format!("{} post-recovery writes", kind.label), &tables);
}

/// Insert a fresh key, re-insert an existing one (must be rejected), update
/// and delete — all against the recovered database.
fn post_recovery_smoke<E: Engine>(
    engine: &E,
    tables: &[TableId],
    recovered: &[BTreeMap<u64, u8>],
    fresh_key: u64,
) {
    let table = tables[0];
    let mut txn = engine.begin(IsolationLevel::Serializable);
    txn.insert(table, rowbuf::keyed_row(fresh_key, support::FILLER, 3))
        .expect("insert of a fresh key succeeds after recovery");
    if let Some((&existing, _)) = recovered[0].iter().next() {
        let dup = txn.insert(table, rowbuf::keyed_row(existing, support::FILLER, 5));
        assert!(
            matches!(dup, Err(MmdbError::DuplicateKey { .. })),
            "recovered primary index must still enforce uniqueness, got {dup:?}"
        );
    }
    txn.commit().expect("post-recovery commit");

    let mut txn = engine.begin(IsolationLevel::Serializable);
    assert_eq!(
        txn.read(table, support::PRIMARY, fresh_key)
            .unwrap()
            .map(|r| rowbuf::fill_of(&r)),
        Some(3)
    );
    assert!(txn.delete(table, support::PRIMARY, fresh_key).unwrap());
    txn.commit().expect("post-recovery delete commit");
}

/// The recovery plan of a bare log file: no checkpoint chain, the whole
/// file is the tail.
fn bare_log_plan(path: &Path) -> RecoveryPlan {
    RecoveryPlan {
        generation: 0,
        chain: Vec::new(),
        log_path: path.to_path_buf(),
        log_base: Lsn::ZERO,
        manifest_valid_bytes: 0,
    }
}

#[test]
fn a_bare_log_file_recovers_from_disk() {
    a_bare_log_file_recovers_from_disk_on(&MVO);
    a_bare_log_file_recovers_from_disk_on(&SV);
}

fn a_bare_log_file_recovers_from_disk_on<E: Durable>(kind: &Kind<E>) {
    let seed = seeds()[0];
    let LoggedRun {
        bytes, final_state, ..
    } = logged_concurrent_run(kind, seed);
    let path = scratch_log(&format!("from-disk-{}", kind.tag()));
    std::fs::write(&path, &bytes).expect("write log file");

    let (target, tables) = kind.target();
    let report = target
        .recover_from_checkpoint(&bare_log_plan(&path))
        .expect("recover from file");
    let missing =
        target.recover_from_checkpoint(&bare_log_plan(Path::new("/nonexistent/mmdb-no-such.log")));
    let _ = std::fs::remove_file(&path);
    assert_eq!(report.torn_bytes, 0);
    assert_eq!(
        target.dump(&tables),
        final_state,
        "[{} seed={seed:#x}] file-based recovery diverged",
        kind.label
    );
    assert!(
        matches!(missing, Err(MmdbError::LogIo(_))),
        "a missing log file must surface as LogIo, got {missing:?}"
    );
}

#[test]
fn log_replay_and_an_empty_chain_plan_recover_the_same_state() {
    for_all_engines!(log_replay_and_an_empty_chain_plan_recover_the_same_state_on);
}

fn log_replay_and_an_empty_chain_plan_recover_the_same_state_on<E: Durable>(kind: &Kind<E>) {
    // `Durable`'s two recovery entry points are one fold: `recover_bytes`
    // reads the log from memory, `recover_from_checkpoint` of a plan
    // without a chain streams the same log from its file. Same torn log in,
    // same state and same byte accounting out.
    let dir = scratch_store_dir(&format!("empty-chain-{}", kind.tag()));
    let store = CheckpointStore::create(&dir).expect("create checkpoint store");
    let engine = kind.engine(store.logger().clone());
    let tables = engine.create_tables();
    engine.seed(&tables);
    engine.run_concurrent(&tables, worker_parts(seeds()[0]));
    store.logger().flush().expect("flush");
    drop(engine);
    drop(store);

    let plan = CheckpointStore::plan(&dir).expect("plan without a checkpoint");
    assert!(plan.chain.is_empty(), "no checkpoint was taken");
    let full = std::fs::read(&plan.log_path).expect("read wal");
    let bytes = &full[..full.len() - 3]; // tear the final frame
    std::fs::write(&plan.log_path, bytes).expect("tear the wal");
    let surviving = read_log_bytes(bytes).expect("torn tail decodes").records;

    let (replayed, t1) = kind.target();
    let by_replay = replayed.recover_bytes(bytes).expect("log replay");
    let (loaded, t2) = kind.target();
    let by_plan = loaded
        .recover_from_checkpoint(&plan)
        .expect("empty-chain plan");
    assert_eq!(
        by_replay, by_plan,
        "[{}] recovery reports differ",
        kind.label
    );
    assert!(by_plan.torn_bytes > 0 && by_plan.records_applied == surviving.len());
    let expected = log_oracle(&surviving, &tables);
    assert_eq!(replayed.dump(&t1), expected, "[{}] log replay", kind.label);
    assert_eq!(loaded.dump(&t2), expected, "[{}] bulk load", kind.label);
    loaded.assert_indexes_consistent(&format!("{} empty-chain plan", kind.label), &t2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_artifacts_are_saved_on_failure() {
    // The CI artifact-upload step is only as good as this wrapper: a
    // failing check must still save its artifacts and re-raise the panic.
    let result = std::panic::catch_unwind(|| {
        with_repro_artifacts(
            "suite=selftest workload=selftest seed=0x0 crash_offset=0",
            &[("selftest.artifact.txt", b"payload".as_slice())],
            || panic!("intentional"),
        )
    });
    assert!(result.is_err(), "the panic must propagate");
    let path = std::path::Path::new("target/test-artifacts/selftest.artifact.txt");
    assert_eq!(
        std::fs::read(path).expect("artifact must be saved"),
        b"payload"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn file_and_memory_loggers_agree_byte_for_byte() {
    for_all_engines!(file_and_memory_loggers_agree_byte_for_byte_on);
}

fn file_and_memory_loggers_agree_byte_for_byte_on<E: Durable>(kind: &Kind<E>) {
    // The group-commit log's on-disk bytes are exactly the MemoryLogger's
    // records passed through the wire encoding — same sequential history,
    // two engines, two loggers, identical frames; batch boundaries leave no
    // trace on the wire.
    for seed in seeds() {
        let path = scratch_log(&format!("bytes-{}-{seed:x}", kind.tag()));
        let file_logger = Arc::new(GroupCommitLog::create(&path).expect("create log file"));
        let memory_logger = Arc::new(MemoryLogger::new());

        let history = generate_history(seed, PARAMS);
        for run in 0..2 {
            let logger: Arc<dyn RedoLogger> = if run == 0 {
                file_logger.clone()
            } else {
                memory_logger.clone()
            };
            let engine = kind.engine(logger);
            let tables = engine.create_tables();
            engine.seed(&tables);
            engine.run_sequential(&tables, &history);
        }
        file_logger.flush().expect("flush log");

        let file_bytes = std::fs::read(&path).expect("read log file");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            file_bytes,
            memory_logger.encoded_bytes(),
            "[{} seed={seed:#x}] file and memory logs diverge byte-for-byte",
            kind.label
        );
        memory_logger.with_records(|records| {
            assert_eq!(
                read_log_bytes(&file_bytes)
                    .expect("file log decodes")
                    .records,
                records,
                "[{} seed={seed:#x}] decoded file records diverge from memory records",
                kind.label
            );
        });
    }
}

/// The group-commit tick used by the mid-batch crash tests (microseconds).
/// Long relative to the run so batches provably span several transactions.
const BATCH_TICK_US: u64 = 2_000;

#[test]
fn group_commit_crash_mid_batch_recovers_the_committed_prefix() {
    for_all_engines!(group_commit_crash_mid_batch_recovers_the_committed_prefix_on);
}

fn group_commit_crash_mid_batch_recovers_the_committed_prefix_on<E: Durable>(kind: &Kind<E>) {
    // The group-commit twin of `crash_at_any_offset_recovers_the_committed_
    // prefix`: the log is written through `GroupCommitLog`'s shared batch
    // buffer (background flusher tick + final drop/flush harden), and the
    // crash offsets land *inside* batches — the coalescing assertion below
    // proves batches spanned multiple transactions, and the random offsets
    // land mid-frame (hence mid-batch) with overwhelming probability.
    // Batch boundaries must be invisible: truncation anywhere reads as a
    // torn tail, and the surviving prefix replays exactly as it would for a
    // stream hardened one transaction at a time.
    for seed in seeds() {
        let path = scratch_log(&format!("gc-{}-{seed:x}", kind.tag()));
        let logger = Arc::new(
            GroupCommitLog::with_tick(&path, std::time::Duration::from_micros(BATCH_TICK_US))
                .expect("create group-commit log"),
        );
        let LoggedRun {
            bytes,
            tables: source_tables,
            history_debug,
            ..
        } = logged_concurrent_run_on(kind, seed, &path, logger.clone());
        assert!(
            !bytes.is_empty(),
            "[{} seed={seed:#x}] the run should have produced log records",
            kind.label
        );
        assert!(
            logger.batches_hardened() < logger.records_written(),
            "[{} seed={seed:#x}] batches ({}) must coalesce multiple records ({}) — \
                 otherwise no crash offset can land mid-batch",
            kind.label,
            logger.batches_hardened(),
            logger.records_written()
        );

        for offset in crash_offsets(seed ^ 0xBA7C_4000, bytes.len()) {
            let truncated = &bytes[..offset];
            let outcome = read_log_bytes(truncated).unwrap_or_else(|e| {
                panic!(
                    "[{} seed={seed:#x} crash_offset={offset}] a crash mid-batch must \
                         read as a torn tail, never corruption: {e}",
                    kind.label
                )
            });
            let expected = log_oracle(&outcome.records, &source_tables);

            let (target, tables) = kind.target();
            let history_name = format!("recovery-groupcommit-seed-{seed:#x}.history.txt");
            let log_name = format!("recovery-groupcommit-seed-{seed:#x}.log.bin");
            with_repro_artifacts(
                &format!(
                    "suite=recovery-groupcommit workload=generic engine={} seed={seed:#x} \
                         crash_offset={offset} batch_tick_us={BATCH_TICK_US}",
                    kind.label
                ),
                &[
                    (&history_name, history_debug.as_bytes()),
                    (&log_name, &bytes),
                ],
                || {
                    let report = target.recover_bytes(truncated).unwrap_or_else(|e| {
                        panic!(
                            "[{} seed={seed:#x} crash_offset={offset} \
                                 batch_tick_us={BATCH_TICK_US}] recovery failed: {e}",
                            kind.label
                        )
                    });
                    assert_eq!(report.records_applied, outcome.records.len());
                    assert_eq!(
                        report.valid_bytes + report.torn_bytes,
                        offset as u64,
                        "every crash byte is either replayed or torn"
                    );
                    let label = format!(
                        "{} seed={seed:#x} crash_offset={offset} (group commit)",
                        kind.label
                    );
                    assert_eq!(
                        target.dump(&tables),
                        expected,
                        "[{label}] recovered state diverges from the committed prefix \
                             the surviving batches describe"
                    );
                    target.assert_indexes_consistent(&label, &tables);
                },
            );
        }
    }
}

#[test]
fn smallbank_group_commit_crash_recovers_conserved_balances() {
    for_all_engines!(smallbank_group_commit_crash_recovers_conserved_balances_on);
}

fn smallbank_group_commit_crash_recovers_conserved_balances_on<E: Durable>(kind: &Kind<E>) {
    // Write-path fault injection for the SmallBank harness client: crash
    // mid-batch during a *concurrent* SmallBank run whose mix is restricted
    // to total-preserving transactions (balance, amalgamate, send-payment —
    // every committed delta is zero), so every committed prefix that contains
    // the full setup conserves the bank's total exactly. The log is written
    // through the group-commit batch buffer; the setup tail is hardened first
    // and crash offsets are cut at or after it. Each truncation must read as
    // a torn tail, recover into a fresh engine, match the
    // end-timestamp-order replay of the surviving after-images, and hold
    // `total == initial` on the recovered state.
    use std::sync::atomic::{AtomicU64, Ordering};

    use mmdb_workload::smallbank::{self, SbTxnKind, SmallBank};

    const SB_WORKERS: usize = 3;
    const SB_TXNS_PER_WORKER: u64 = 16;

    for seed in seeds() {
        let sb = SmallBank {
            accounts: 16,
            initial_balance: 1_000,
            hot_accounts: 4,
            hot_fraction: 0.5,
            isolation: IsolationLevel::SnapshotIsolation,
        };
        let path = scratch_log(&format!("sb-gc-{}-{seed:x}", kind.tag()));
        let logger = Arc::new(
            GroupCommitLog::with_tick(&path, Duration::from_micros(BATCH_TICK_US))
                .expect("create group-commit log"),
        );
        let engine = kind.engine(logger.clone());
        let tables = sb.setup(&engine).expect("setup must succeed");
        // Harden the setup tail: conservation is only meaningful once
        // every account row survives the crash, so offsets below are cut
        // at or after this length.
        logger.flush().expect("flush setup");
        let setup_len = std::fs::metadata(&path).expect("stat log").len() as usize;

        let committed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for worker in 0..SB_WORKERS {
                let sb = &sb;
                let engine = &engine;
                let committed = &committed;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    for _ in 0..SB_TXNS_PER_WORKER {
                        let mut params = sb.draw(&mut rng);
                        // Remap the delta-carrying kinds onto delta-zero
                        // ones so any committed prefix conserves.
                        params.kind = match params.kind {
                            SbTxnKind::DepositChecking => SbTxnKind::Amalgamate,
                            SbTxnKind::TransactSaving | SbTxnKind::WriteCheck => {
                                SbTxnKind::SendPayment
                            }
                            zero_delta => zero_delta,
                        };
                        params.amount = params.amount.abs();
                        if sb.exec(engine, tables, &params).is_ok() {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        logger.flush().expect("flush log");
        let bytes = std::fs::read(&path).expect("read log file");
        let _ = std::fs::remove_file(&path);
        drop(engine);

        let committed = committed.into_inner();
        let attempted = SB_WORKERS as u64 * SB_TXNS_PER_WORKER;
        assert!(
            committed * 4 >= attempted,
            "[{} seed={seed:#x}] degenerate run: only {committed} of \
                 {attempted} SmallBank transactions committed",
            kind.label
        );
        assert!(
            logger.batches_hardened() < logger.records_written(),
            "[{} seed={seed:#x}] batches ({}) must coalesce multiple records ({})",
            kind.label,
            logger.batches_hardened(),
            logger.records_written()
        );

        // SmallBank-aware log oracle: upsert after-images in
        // end-timestamp order, keyed by (savings?, customer).
        let sb_oracle = |records: &[LogRecord]| -> BTreeMap<(bool, u64), i64> {
            let mut sorted: Vec<&LogRecord> = records.iter().collect();
            sorted.sort_by_key(|r| r.end_ts);
            let mut state = BTreeMap::new();
            for record in sorted {
                for op in &record.ops {
                    match op {
                        LogOp::Write { table, row } => {
                            let savings = *table == tables.savings;
                            assert!(
                                savings || *table == tables.checking,
                                "SmallBank logs only its two tables"
                            );
                            state
                                .insert((savings, rowbuf::key_of(row)), smallbank::balance_of(row));
                        }
                        LogOp::Delete { .. } => {
                            panic!("SmallBank never deletes rows")
                        }
                    }
                }
            }
            state
        };

        let mut offsets: Vec<usize> = crash_offsets(seed ^ 0x5BA7_C000, bytes.len())
            .into_iter()
            .filter(|&o| o >= setup_len)
            .collect();
        offsets.push(setup_len);
        offsets.sort_unstable();
        offsets.dedup();
        assert!(!offsets.is_empty(), "at least the setup boundary is cut");

        for offset in offsets {
            let truncated = &bytes[..offset];
            let outcome = read_log_bytes(truncated).unwrap_or_else(|e| {
                panic!(
                    "[{} seed={seed:#x} crash_offset={offset}] a crash mid-batch must \
                         read as a torn tail, never corruption: {e}",
                    kind.label
                )
            });
            let expected = sb_oracle(&outcome.records);

            let target = kind.engine(Arc::new(NullLogger::new()));
            let target_tables = sb.create_tables(&target).expect("re-create tables");
            assert_eq!(
                (target_tables.checking, target_tables.savings),
                (tables.checking, tables.savings),
                "recovery target must re-create tables with the same ids"
            );

            let log_name = format!("recovery-smallbank-seed-{seed:#x}.log.bin");
            with_repro_artifacts(
                &format!(
                    "suite=recovery-groupcommit-smallbank workload=smallbank engine={} \
                         seed={seed:#x} crash_offset={offset} batch_tick_us={BATCH_TICK_US}",
                    kind.label
                ),
                &[(&log_name, &bytes)],
                || {
                    let report = target.recover_bytes(truncated).unwrap_or_else(|e| {
                        panic!(
                            "[{} seed={seed:#x} crash_offset={offset}] recovery failed: {e}",
                            kind.label
                        )
                    });
                    assert_eq!(report.records_applied, outcome.records.len());
                    assert_eq!(
                        report.valid_bytes + report.torn_bytes,
                        offset as u64,
                        "every crash byte is either replayed or torn"
                    );

                    let balances = smallbank::all_balances(&target, target_tables, sb.accounts)
                        .expect("read recovered balances");
                    let label = format!(
                        "{} seed={seed:#x} crash_offset={offset} (smallbank group commit)",
                        kind.label
                    );
                    for (customer, &(checking, savings)) in balances.iter().enumerate() {
                        let customer = customer as u64;
                        assert_eq!(
                            checking,
                            expected[&(false, customer)],
                            "[{label}] recovered checking balance of customer {customer} \
                                 diverges from the surviving log prefix"
                        );
                        assert_eq!(
                            savings,
                            expected[&(true, customer)],
                            "[{label}] recovered savings balance of customer {customer} \
                                 diverges from the surviving log prefix"
                        );
                    }
                    let total: i64 = balances.iter().map(|&(c, s)| c + s).sum();
                    assert_eq!(
                        total,
                        sb.initial_total(),
                        "[{label}] the conserving mix must leave the recovered total \
                             at the initial total for every committed prefix"
                    );
                },
            );
        }
    }
}

#[test]
fn sync_commits_survive_a_crash_that_drops_only_unflushed_async_tails() {
    // The durability contract, end to end: a Sync commit's record is on
    // disk the moment commit() returns, so a crash immediately afterwards
    // (simulated by reading the file *without* any final flush) can lose at
    // most the Async commits that followed the last hardened batch.
    let path = scratch_log("sync-survives");
    let logger = Arc::new(GroupCommitLog::create(&path).expect("create gc log"));
    let engine = MvEngine::with_logger(
        MvConfig::optimistic().with_deadlock_detector(false),
        logger.clone(),
    );
    let tables = create_diff_tables(&engine, TABLES, 128);
    populate(&engine, &tables, INITIAL_ROWS);

    // One Sync transaction among Async neighbours.
    let mut txn = engine.begin(IsolationLevel::Serializable);
    assert!(txn
        .update(
            tables[0],
            support::PRIMARY,
            0,
            rowbuf::keyed_row(0, support::FILLER, 7)
        )
        .unwrap());
    txn.commit().expect("async commit");
    let mut txn = engine.begin(IsolationLevel::Serializable);
    txn.set_durability(Durability::Sync);
    assert!(txn
        .update(
            tables[0],
            support::PRIMARY,
            1,
            rowbuf::keyed_row(1, support::FILLER, 8)
        )
        .unwrap());
    txn.commit().expect("sync commit");
    let mut txn = engine.begin(IsolationLevel::Serializable);
    assert!(txn
        .update(
            tables[0],
            support::PRIMARY,
            2,
            rowbuf::keyed_row(2, support::FILLER, 9)
        )
        .unwrap());
    txn.commit().expect("trailing async commit");

    // "Crash": read whatever is durable right now — no flush, no drop.
    let bytes = std::fs::read(&path).expect("read log file");
    let outcome = read_log_bytes(&bytes).expect("durable prefix decodes");
    let recovered = log_oracle(&outcome.records, &tables);
    assert_eq!(
        recovered[0].get(&1),
        Some(&8),
        "the Sync commit must already be durable (got {:?})",
        recovered[0]
    );
    assert_eq!(
        recovered[0].get(&0),
        Some(&7),
        "every commit ordered before the Sync one shares its flush"
    );
    assert_eq!(
        recovered[0].get(&2),
        Some(&1),
        "the trailing Async commit is still buffered — lost by this crash, so \
         key 2 recovers to its populated value"
    );
    drop(engine);
    drop(logger);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Checkpoint + log-truncation crash tests
//
// The checkpoint subsystem (`mmdb_storage::checkpoint`) turns the unbounded
// redo log into a bounded one: an image of every table at a snapshot
// timestamp, a manifest naming it, and a truncated log tail above the
// checkpoint LSN. These tests pin its two contracts:
//
//  * **tail crashes** — after a checkpoint, a crash at *any* byte of the
//    live segment recovers to image + the surviving tail's committed prefix;
//  * **protocol crashes** — a crash at any byte *inside* the
//    write → install → truncate protocol itself is invisible: the protocol
//    is a pure representation change, so every synthesized crash state must
//    recover to exactly the same committed state.
// ---------------------------------------------------------------------------

/// Fresh scratch directory for a [`CheckpointStore`].
fn scratch_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb-ckpt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An in-memory image of a store directory: (file name, file bytes), sorted.
type DirState = Vec<(String, Vec<u8>)>;

/// Read every file of a store directory into memory, sorted by name.
fn dir_snapshot(dir: &Path) -> DirState {
    let mut files: DirState = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().into_string().expect("utf-8 file name");
            let bytes = std::fs::read(entry.path()).expect("read store file");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

/// Materialize a synthesized crash state: `dir` ends up containing exactly
/// `files` and nothing else.
fn write_dir_state(dir: &Path, files: &[(String, Vec<u8>)]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create crash dir");
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("write crash file");
    }
}

fn file_of<'a>(files: &'a [(String, Vec<u8>)], name: &str) -> &'a [u8] {
    &files
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} missing from directory snapshot"))
        .1
}

/// Decode a checkpoint image into per-table state maps (same shape as
/// [`log_oracle`]'s output).
fn image_state(contents: &CheckpointContents, tables: &[TableId]) -> Vec<BTreeMap<u64, u8>> {
    let mut state = vec![BTreeMap::new(); tables.len()];
    for (table, row) in &contents.rows {
        let slot = tables
            .iter()
            .position(|t| t == table)
            .expect("imaged table exists");
        state[slot].insert(rowbuf::key_of(row), rowbuf::fill_of(row));
    }
    state
}

/// Apply a surviving log tail on top of a checkpoint image, skipping the
/// records already inside the image (`end_ts <= image_ts`) — exactly the
/// filter recovery applies.
fn apply_tail(
    state: &mut [BTreeMap<u64, u8>],
    records: &[LogRecord],
    image_ts: Timestamp,
    tables: &[TableId],
) {
    let mut sorted: Vec<&LogRecord> = records.iter().filter(|r| r.end_ts > image_ts).collect();
    sorted.sort_by_key(|r| r.end_ts);
    for record in sorted {
        for op in &record.ops {
            match op {
                LogOp::Write { table, row } => {
                    let slot = tables
                        .iter()
                        .position(|t| t == table)
                        .expect("logged table");
                    state[slot].insert(rowbuf::key_of(row), rowbuf::fill_of(row));
                }
                LogOp::Delete { table, key } => {
                    let slot = tables
                        .iter()
                        .position(|t| t == table)
                        .expect("logged table");
                    state[slot].remove(key);
                }
            }
        }
    }
}

/// Take a checkpoint, retrying the retryable failures a concurrent workload
/// can cause (the 1V walks' shared bucket locks time out under write
/// contention; the MV walks never block writers and need no retries).
fn with_retry(mut checkpoint: impl FnMut() -> Result<CheckpointRef>) -> CheckpointRef {
    let mut attempts = 0;
    loop {
        match checkpoint() {
            Ok(installed) => return installed,
            Err(e) if e.is_retryable() && attempts < 100 => {
                attempts += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => panic!("checkpoint failed: {e}"),
        }
    }
}

/// Split a seeded history across the worker threads.
fn worker_parts(seed: u64) -> Vec<Vec<support::TxnScript>> {
    let total = HistoryParams {
        txns: PARAMS.txns * WORKERS,
        ..PARAMS
    };
    let mut parts: Vec<Vec<support::TxnScript>> = (0..WORKERS).map(|_| Vec::new()).collect();
    for (i, script) in generate_history(seed, total).into_iter().enumerate() {
        parts[i % WORKERS].push(script);
    }
    parts
}

#[test]
fn checkpoint_concurrent_with_writers_then_tail_crash_recovers() {
    for_all_engines!(checkpoint_concurrent_with_writers_then_tail_crash_recovers_on);
}

fn checkpoint_concurrent_with_writers_then_tail_crash_recovers_on<E: Durable>(kind: &Kind<E>) {
    for seed in seeds() {
        let tag = format!("tail-{}-{seed:x}", kind.tag());
        let dir = scratch_store_dir(&tag);
        let crash_dir = scratch_store_dir(&format!("{tag}-crash"));
        let store = CheckpointStore::create_with_tick(&dir, Duration::from_micros(BATCH_TICK_US))
            .expect("create checkpoint store");
        let engine = kind.engine(store.logger().clone());
        let tables = engine.create_tables();
        engine.seed(&tables);

        // Phase 1: a concurrent prefix the checkpoint will capture.
        engine.run_concurrent(&tables, worker_parts(seed));

        // Phase 2 races the checkpoint. The MV walk is an ordinary
        // snapshot reader and must not block the writers; whatever the
        // interleaving, the installed image plus the surviving tail must
        // replay to a consistent committed state.
        let parts2 = worker_parts(seed ^ 0x00C4_97A1);
        std::thread::scope(|scope| {
            let engine_ref = &engine;
            let tables_ref = &tables;
            scope.spawn(move || engine_ref.run_concurrent(tables_ref, parts2));
            with_retry(|| engine.checkpoint(&store));
        });
        store.logger().flush().expect("flush tail");
        let final_state = engine.dump(&tables);
        drop(engine);
        drop(store);

        let plan = CheckpointStore::plan(&dir).expect("plan after checkpoint");
        let ckpt = plan
            .last_checkpoint()
            .cloned()
            .expect("checkpoint installed");
        let contents = read_checkpoint(&ckpt.path).expect("installed image reads back");
        assert_eq!(contents.read_ts, ckpt.read_ts);
        assert_eq!(
            plan.log_base, ckpt.lsn,
            "truncation rebases the live segment at the checkpoint LSN"
        );
        assert_eq!(plan.log_tail_offset(), 0);

        // No crash at all: image + full tail must equal the live state.
        // This pins the image itself — a row missing from (or extra in)
        // the snapshot would surface as a divergence here.
        let (target, t2) = kind.target();
        target
            .recover_from_checkpoint(&plan)
            .expect("full recovery");
        assert_eq!(
            target.dump(&t2),
            final_state,
            "[{} seed={seed:#x}] checkpoint + full tail diverges from the live state",
            kind.label
        );
        target.assert_indexes_consistent(
            &format!("{} seed={seed:#x} ckpt full-tail", kind.label),
            &t2,
        );

        // Crash at arbitrary byte offsets of the live tail segment.
        let live = dir_snapshot(&dir);
        let wal_name = plan
            .log_path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("wal file name")
            .to_string();
        let wal_bytes = file_of(&live, &wal_name).to_vec();
        for offset in crash_offsets(seed ^ 0xCC99_0001, wal_bytes.len()) {
            let mut files = live.clone();
            for (name, bytes) in &mut files {
                if *name == wal_name {
                    bytes.truncate(offset);
                }
            }
            write_dir_state(&crash_dir, &files);
            let plan_c = CheckpointStore::plan(&crash_dir).expect("plan survives a torn tail");
            let outcome = read_log_bytes(&wal_bytes[..offset]).unwrap_or_else(|e| {
                panic!(
                    "[{} seed={seed:#x} crash_offset={offset}] a torn tail must never \
                         read as corruption: {e}",
                    kind.label
                )
            });
            let mut expected = image_state(&contents, &tables);
            apply_tail(&mut expected, &outcome.records, contents.read_ts, &tables);

            let (target, t) = kind.target();
            let log_name = format!("checkpoint-tail-seed-{seed:#x}.log.bin");
            with_repro_artifacts(
                    &format!(
                        "suite=checkpoint-tail workload=generic engine={} seed={seed:#x} crash_offset={offset}",
                        kind.label
                    ),
                    &[(&log_name, &wal_bytes)],
                    || {
                        let report = target.recover_from_checkpoint(&plan_c).unwrap_or_else(|e| {
                            panic!(
                                "[{} seed={seed:#x} crash_offset={offset}] recovery failed: {e}",
                                kind.label
                            )
                        });
                        assert_eq!(
                            report.records_applied,
                            outcome
                                .records
                                .iter()
                                .filter(|r| r.end_ts > contents.read_ts)
                                .count(),
                            "replay applies exactly the tail records above the image timestamp"
                        );
                        assert_eq!(
                            report.valid_bytes + report.torn_bytes,
                            offset as u64,
                            "every crash byte is either replayed or torn"
                        );
                        let label = format!(
                            "{} seed={seed:#x} ckpt-tail crash_offset={offset}",
                            kind.label
                        );
                        assert_eq!(
                            target.dump(&t),
                            expected,
                            "[{label}] recovered state diverges from image + surviving tail"
                        );
                        target.assert_indexes_consistent(&label, &t);
                    },
                );
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&crash_dir);
    }
}

#[test]
fn crash_anywhere_inside_the_checkpoint_protocol_preserves_committed_state() {
    for_all_engines!(crash_anywhere_inside_the_checkpoint_protocol_preserves_committed_state_on);
}

fn crash_anywhere_inside_the_checkpoint_protocol_preserves_committed_state_on<E: Durable>(
    kind: &Kind<E>,
) {
    // Between the moment a checkpoint starts and the moment the old segment
    // is deleted, the committed state never changes (the workload is
    // quiesced here) — so *every* intermediate crash state must recover to
    // exactly the same maps. The states are synthesized from directory
    // snapshots taken before and after the protocol, cut at randomized byte
    // offsets inside each artifact the protocol writes:
    //
    //   1. `ckpt.tmp` streaming          (any prefix of the image bytes)
    //   2. rename, manifest not appended
    //   3. the install manifest entry    (any prefix of its frame)
    //   4. the rotated segment copy      (any prefix of the new wal)
    //   5. the truncation publish entry  (any prefix of its frame)
    //   6. old segment not yet deleted, and the completed protocol
    let seed = seeds()[0];
    let tag = format!("proto-{}", kind.tag());
    let dir = scratch_store_dir(&tag);
    let crash_dir = scratch_store_dir(&format!("{tag}-crash"));
    let store = CheckpointStore::create(&dir).expect("create checkpoint store");
    let engine = kind.engine(store.logger().clone());
    let tables = engine.create_tables();
    engine.seed(&tables);
    let history = generate_history(seed, PARAMS);
    engine.run_sequential(&tables, &history);
    store.logger().flush().expect("flush");
    let committed = engine.dump(&tables);
    let before = dir_snapshot(&dir);
    engine.checkpoint(&store).expect("quiesced checkpoint");
    let after = dir_snapshot(&dir);
    drop(engine);
    drop(store);

    let ckpt_bytes = file_of(&after, "ckpt-1.db").to_vec();
    let wal_new = file_of(&after, "wal-2.log").to_vec();
    let wal_old = file_of(&before, "wal-0.log").to_vec();
    let manifest_a = file_of(&before, "MANIFEST").to_vec();
    let manifest_b = file_of(&after, "MANIFEST").to_vec();
    assert_eq!(
        &manifest_b[..manifest_a.len()],
        &manifest_a[..],
        "the manifest is append-only"
    );
    let delta = &manifest_b[manifest_a.len()..];
    let frame_len = |bytes: &[u8]| 16 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let install_len = frame_len(delta);
    assert!(
        install_len < delta.len(),
        "a checkpoint appends two manifest entries (install + truncation publish)"
    );
    assert_eq!(
        install_len + frame_len(&delta[install_len..]),
        delta.len(),
        "the two entries account for the whole manifest delta"
    );
    let manifest_installed: Vec<u8> = [manifest_a.clone(), delta[..install_len].to_vec()].concat();

    // Overlay `extra` files onto a base snapshot (replacing same names).
    let with = |base: &[(String, Vec<u8>)], extra: Vec<(&str, Vec<u8>)>| {
        let mut files: DirState = base.to_vec();
        for (name, bytes) in extra {
            match files.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1 = bytes,
                None => files.push((name.to_string(), bytes)),
            }
        }
        files
    };

    let mut states: Vec<(String, DirState)> = Vec::new();
    for cut in crash_offsets(seed ^ 0x0001, ckpt_bytes.len()) {
        states.push((
            format!("tmp-cut-{cut}"),
            with(&before, vec![("ckpt.tmp", ckpt_bytes[..cut].to_vec())]),
        ));
    }
    states.push((
        "renamed-unpublished".to_string(),
        with(&before, vec![("ckpt-1.db", ckpt_bytes.clone())]),
    ));
    for cut in crash_offsets(seed ^ 0x0002, install_len) {
        let mut manifest = manifest_a.clone();
        manifest.extend_from_slice(&delta[..cut]);
        states.push((
            format!("install-cut-{cut}"),
            with(
                &before,
                vec![("ckpt-1.db", ckpt_bytes.clone()), ("MANIFEST", manifest)],
            ),
        ));
    }
    for cut in crash_offsets(seed ^ 0x0003, wal_new.len()) {
        states.push((
            format!("rotate-cut-{cut}"),
            with(
                &before,
                vec![
                    ("ckpt-1.db", ckpt_bytes.clone()),
                    ("MANIFEST", manifest_installed.clone()),
                    ("wal-2.log", wal_new[..cut].to_vec()),
                ],
            ),
        ));
    }
    for cut in crash_offsets(seed ^ 0x0004, delta.len() - install_len) {
        let mut manifest = manifest_a.clone();
        manifest.extend_from_slice(&delta[..install_len + cut]);
        states.push((
            format!("publish-cut-{cut}"),
            with(
                &before,
                vec![
                    ("ckpt-1.db", ckpt_bytes.clone()),
                    ("MANIFEST", manifest),
                    ("wal-2.log", wal_new.clone()),
                ],
            ),
        ));
    }
    states.push((
        "undeleted-old-wal".to_string(),
        with(&after, vec![("wal-0.log", wal_old)]),
    ));
    states.push(("completed".to_string(), after.clone()));

    for (label, files) in &states {
        write_dir_state(&crash_dir, files);
        let full_label = format!("{} protocol-crash {label}", kind.label);
        let plan = CheckpointStore::plan(&crash_dir)
            .unwrap_or_else(|e| panic!("[{full_label}] recovery planning failed: {e}"));
        let (target, t) = kind.target();
        target
            .recover_from_checkpoint(&plan)
            .unwrap_or_else(|e| panic!("[{full_label}] recovery failed: {e}"));
        assert_eq!(
            target.dump(&t),
            committed,
            "[{full_label}] the protocol is a pure representation change — crashing \
                 inside it must not move the recovered state"
        );
        target.assert_indexes_consistent(&full_label, &t);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn crash_recover_continue_recover_round_trip_through_the_store() {
    for_all_engines!(crash_recover_continue_recover_round_trip_through_the_store_on);
}

fn crash_recover_continue_recover_round_trip_through_the_store_on<E: Durable>(kind: &Kind<E>) {
    // Satellite contract for `open_append`: crash with a torn tail, reopen
    // the store at the recovered valid prefix, keep committing on the same
    // segment, checkpoint, commit more — then a clean restart must land
    // exactly on the final state.
    let seed = seeds()[0] ^ 0x0F0F;
    let tag = format!("roundtrip-{}", kind.tag());
    let dir = scratch_store_dir(&tag);
    let tick = Duration::from_micros(BATCH_TICK_US);

    // Life 1: run, flush, then "crash" mid-append.
    let store = CheckpointStore::create_with_tick(&dir, tick).expect("create store");
    let engine = kind.engine(store.logger().clone());
    let tables = engine.create_tables();
    engine.seed(&tables);
    engine.run_sequential(&tables, &generate_history(seed, PARAMS));
    store.logger().flush().expect("flush life 1");
    drop(engine);
    drop(store);

    let plan = CheckpointStore::plan(&dir).expect("plan life 2");
    assert!(plan.chain.is_empty(), "no checkpoint taken yet");
    let full = std::fs::read(&plan.log_path).expect("read wal");
    let torn_at = full.len() - 3; // inside the final frame's hash
    std::fs::OpenOptions::new()
        .write(true)
        .open(&plan.log_path)
        .expect("open wal")
        .set_len(torn_at as u64)
        .expect("tear the tail");
    let outcome = read_log_bytes(&full[..torn_at]).expect("torn tail decodes");
    assert!(outcome.torn_bytes > 0, "the cut must actually tear a frame");

    // Life 2: open resumes appending at the valid prefix; recovery
    // replays exactly that prefix.
    let probe =
        read_log_file_from(&plan.log_path, plan.log_tail_offset()).expect("probe the valid prefix");
    assert_eq!(probe.valid_bytes, outcome.valid_bytes);
    let store2 =
        CheckpointStore::open_with_tick(&dir, &plan, probe.valid_bytes, tick).expect("open");
    let engine2 = kind.engine(store2.logger().clone());
    let t2 = engine2.create_tables();
    assert_eq!(t2, tables, "reopened engine re-creates the same table ids");
    let report = engine2
        .recover_from_checkpoint(&plan)
        .expect("recover life 2");
    assert_eq!(report.records_applied, outcome.records.len());
    assert_eq!(report.torn_bytes, 0, "open already cut the torn tail");
    assert_eq!(report.valid_bytes, probe.valid_bytes);
    assert_eq!(engine2.dump(&t2), log_oracle(&outcome.records, &tables));

    // Continue: more committed work, a checkpoint, more work.
    engine2.run_sequential(&t2, &generate_history(seed ^ 0xAAAA, PARAMS));
    engine2
        .checkpoint(&store2)
        .expect("checkpoint on the reopened store");
    assert_eq!(
        store2.generation(),
        2,
        "install + truncate each advance a generation"
    );
    engine2.run_sequential(&t2, &generate_history(seed ^ 0xBBBB, PARAMS));
    store2.logger().flush().expect("flush life 2");
    let final_state = engine2.dump(&t2);
    drop(engine2);
    drop(store2);

    // Life 3: a clean restart lands exactly on life 2's final state,
    // and truncation reclaimed the old segment and the tmp image.
    let names: Vec<String> = dir_snapshot(&dir).into_iter().map(|(n, _)| n).collect();
    assert_eq!(
        names,
        vec![
            "MANIFEST".to_string(),
            "ckpt-1.db".to_string(),
            "wal-2.log".to_string()
        ],
        "[{}] truncation reclaims the old segment and the tmp image",
        kind.label
    );
    let plan3 = CheckpointStore::plan(&dir).expect("plan life 3");
    let ckpt = plan3.last_checkpoint().expect("checkpoint installed");
    assert_eq!(plan3.log_base, ckpt.lsn);
    let (target, t3) = kind.target();
    target
        .recover_from_checkpoint(&plan3)
        .expect("recover life 3");
    let label = format!("{} round-trip life 3", kind.label);
    assert_eq!(
        target.dump(&t3),
        final_state,
        "[{label}] restart diverges from the pre-crash state"
    );
    target.assert_indexes_consistent(&label, &t3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_policy_drives_automatic_log_truncation() {
    // The checkpoint policy is wired, not advisory: an engine built with
    // `with_checkpoint_store` under `CheckpointPolicy::every_log_bytes`
    // checkpoints *itself* — a background tick consults `checkpoint_due`
    // and runs the snapshot + install + truncate protocol once the live
    // segment outgrows the budget. This test never calls `checkpoint()`:
    // a long committed write run alone must produce an installed image and
    // a truncated (rebased) log, and a restart must land on the final state.
    const BUDGET: u64 = 64 * 1024;
    let dir = scratch_store_dir("auto-policy");
    let store = Arc::new(
        CheckpointStore::create_with_tick(&dir, Duration::from_micros(BATCH_TICK_US))
            .expect("create checkpoint store"),
    );
    let engine = MvEngine::with_checkpoint_store(
        MvConfig::optimistic()
            .with_deadlock_detector(false)
            .with_checkpoint(CheckpointPolicy::every_log_bytes(BUDGET)),
        store.clone(),
    );
    let tables = create_diff_tables(&engine, TABLES, 128);
    populate(&engine, &tables, INITIAL_ROWS);
    assert_eq!(store.generation(), 0, "no checkpoint before any log growth");

    // Keep committing until the tick has demonstrably checkpointed at least
    // once (install + truncate each advance a generation). Bounded by wall
    // clock so a wiring regression fails loudly instead of hanging.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut round = 0u64;
    while store.generation() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "no automatic checkpoint after {round} rounds: the policy tick \
             never fired (generation={}, log bytes since checkpoint={})",
            store.generation(),
            store.log_bytes_since_checkpoint()
        );
        let history = generate_history(seeds()[0] ^ round, PARAMS);
        let _: Vec<TxnRecord> =
            run_sequential(&engine, &tables, IsolationLevel::Serializable, &history);
        round += 1;
    }
    // Let the writes outlive the checkpoint so the recovered state proves
    // image + tail compose, not just the image alone.
    let history = generate_history(seeds()[0] ^ 0xF1A7, PARAMS);
    let _: Vec<TxnRecord> =
        run_sequential(&engine, &tables, IsolationLevel::Serializable, &history);
    store.logger().flush().expect("flush tail");
    let final_state = dump(&engine, &tables, DUMP_BOUND);
    drop(engine); // joins the checkpointer tick before the store is read
    drop(store);

    let names: Vec<String> = dir_snapshot(&dir).into_iter().map(|(n, _)| n).collect();
    assert!(
        !names.contains(&"wal-0.log".to_string()),
        "automatic truncation must reclaim the original segment, got {names:?}"
    );
    let plan = CheckpointStore::plan(&dir).expect("plan after automatic checkpoint");
    let ckpt = plan.last_checkpoint().expect("an image was installed");
    assert_eq!(plan.log_base, ckpt.lsn, "the live segment was rebased");

    let target = MvEngine::with_logger(
        MvConfig::optimistic().with_deadlock_detector(false),
        Arc::new(NullLogger::new()),
    );
    let t = create_diff_tables(&target, TABLES, 128);
    target
        .recover_from_checkpoint(&plan)
        .expect("restart from the automatic checkpoint");
    assert_eq!(
        dump(&target, &t, DUMP_BOUND),
        final_state,
        "restart from the automatically taken checkpoint diverges from the \
         live engine's final state"
    );
    assert_indexes_consistent("auto-checkpoint restart", &target, &t, DUMP_BOUND);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_run_crash_snapshots_recover_at_least_the_durable_watermark() {
    for_all_engines!(mid_run_crash_snapshots_recover_at_least_the_durable_watermark_on);
}

fn mid_run_crash_snapshots_recover_at_least_the_durable_watermark_on<E: Durable>(kind: &Kind<E>) {
    // Write-path fault injection: capture "crash images" of the live log
    // file while the group-commit flusher is mid-run — partial flushes and
    // all. Every image must decode as a committed prefix (never corruption),
    // that prefix must extend at least to the durable watermark read before
    // the capture, and recovery from it must rebuild a consistent database.
    let seed = seeds()[0] ^ 0x5EED;
    let path = scratch_log(&format!("faultinj-{}", kind.tag()));
    let logger = Arc::new(
        GroupCommitLog::with_tick(&path, Duration::from_micros(BATCH_TICK_US))
            .expect("create gc log"),
    );
    let engine = kind.engine(logger.clone());
    let tables = engine.create_tables();
    engine.seed(&tables);

    let parts = worker_parts(seed);
    let mut snapshots: Vec<(u64, Vec<u8>)> = Vec::new();
    std::thread::scope(|scope| {
        let engine_ref = &engine;
        let tables_ref = &tables;
        let handle = scope.spawn(move || engine_ref.run_concurrent(tables_ref, parts));
        while !handle.is_finished() {
            let durable_before = logger.durable_lsn().0;
            let bytes = std::fs::read(&path).expect("read live log");
            snapshots.push((durable_before, bytes));
            std::thread::sleep(Duration::from_micros(BATCH_TICK_US / 4));
        }
    });
    logger.flush().expect("final flush");
    let final_bytes = std::fs::read(&path).expect("read flushed log");
    snapshots.push((logger.durable_lsn().0, final_bytes));
    assert!(
        snapshots.len() >= 2,
        "[{}] the run should yield at least one mid-run capture",
        kind.label
    );

    for (i, (durable_before, bytes)) in snapshots.iter().enumerate() {
        let outcome = read_log_bytes(bytes).unwrap_or_else(|e| {
            panic!(
                "[{} snapshot={i}] a partial flush must read as a torn tail, \
                     never corruption: {e}",
                kind.label
            )
        });
        assert!(
            outcome.valid_bytes >= *durable_before,
            "[{} snapshot={i}] the durable watermark ({durable_before}) must already \
                 be clean on disk (valid prefix: {})",
            kind.label,
            outcome.valid_bytes
        );
        let (target, t) = kind.target();
        let report = target
            .recover_bytes(bytes)
            .unwrap_or_else(|e| panic!("[{} snapshot={i}] recovery failed: {e}", kind.label));
        assert_eq!(report.records_applied, outcome.records.len());
        let label = format!("{} fault-injection snapshot {i}", kind.label);
        assert_eq!(
            target.dump(&t),
            log_oracle(&outcome.records, &tables),
            "[{label}] recovered state diverges from the captured committed prefix"
        );
        target.assert_indexes_consistent(&label, &t);
    }
    drop(engine);
    drop(logger);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Delta-chain crash tests
//
// Delta checkpoints append to the installed chain instead of rewriting the
// database: `ckpt-<g>.db` + `delta-<g>.db`... + log tail. The incremental
// format adds new crash surfaces — a torn delta image, a published base
// with an unpublished delta, a compaction that crashed with stale chain
// files still on disk — and every one of them must stay invisible: the
// chain protocol, like the base protocol, is a pure representation change.
// ---------------------------------------------------------------------------

/// Collapse a recovery plan's checkpoint chain into per-table state maps —
/// the image part of the recovery oracle. Within each chain element deletes
/// apply before rows (a delta never contains both for one key), across
/// elements later images win. Returns the maps and the chain tip's snapshot
/// timestamp (the tail-replay filter).
fn chain_state(plan: &RecoveryPlan, tables: &[TableId]) -> (Vec<BTreeMap<u64, u8>>, Timestamp) {
    let mut state = vec![BTreeMap::new(); tables.len()];
    let mut image_ts = Timestamp::ZERO;
    for link in &plan.chain {
        let contents = read_checkpoint(&link.path).expect("chain image reads back");
        assert_eq!(contents.read_ts, link.read_ts, "image agrees with manifest");
        for (table, key) in &contents.deletes {
            let slot = tables
                .iter()
                .position(|t| t == table)
                .expect("imaged table exists");
            state[slot].remove(key);
        }
        for (table, row) in &contents.rows {
            let slot = tables
                .iter()
                .position(|t| t == table)
                .expect("imaged table exists");
            state[slot].insert(rowbuf::key_of(row), rowbuf::fill_of(row));
        }
        image_ts = contents.read_ts;
    }
    (state, image_ts)
}

/// A quiesced window of writes confined to `table`: upserts of keys 0..=3
/// plus a guaranteed delete of key 5, so the next delta provably needs both
/// row and tombstone entries (the seeded history may have deleted any of
/// these keys, hence the upsert/ensure dance).
fn window_writes<E: Engine>(engine: &E, table: TableId, stamp: u8) {
    let mut txn = engine.begin(IsolationLevel::Serializable);
    for k in 0..4u64 {
        let row = rowbuf::keyed_row(k, support::FILLER, stamp.wrapping_add(k as u8).max(1));
        if !txn
            .update(table, support::PRIMARY, k, row.clone())
            .expect("window update")
        {
            txn.insert(table, row).expect("window insert");
        }
    }
    txn.commit().expect("window update commit");
    // Make sure key 5 exists before deleting it, so the delete always
    // commits a tombstone the delta must carry.
    let mut txn = engine.begin(IsolationLevel::Serializable);
    let exists = txn
        .read_with(table, support::PRIMARY, 5, &mut |_| {})
        .expect("window probe");
    if !exists {
        txn.insert(table, rowbuf::keyed_row(5, support::FILLER, stamp.max(1)))
            .expect("window ensure");
    }
    txn.commit().expect("window ensure commit");
    let mut txn = engine.begin(IsolationLevel::Serializable);
    assert!(txn
        .delete(table, support::PRIMARY, 5)
        .expect("window delete"));
    txn.commit().expect("window delete commit");
}

#[test]
fn delta_checkpoints_skip_clean_tables_and_carry_tombstones() {
    for_all_engines!(delta_checkpoints_skip_clean_tables_and_carry_tombstones_on);
}

fn delta_checkpoints_skip_clean_tables_and_carry_tombstones_on<E: Durable>(kind: &Kind<E>) {
    // The incremental contract, engine level: a delta written after a window
    // that touched only table 0 must contain (a) exactly that window's rows,
    // (b) a tombstone for the window's delete, and (c) nothing at all for
    // the untouched table 1 — the log window never mentions it, so it
    // contributes zero bytes. Chain + tail recovery then equals the live
    // state for all three schemes.
    let tag = format!("delta-skip-{}", kind.tag());
    let dir = scratch_store_dir(&tag);
    let store = CheckpointStore::create(&dir).expect("create checkpoint store");
    let engine = kind.engine(store.logger().clone());
    let tables = engine.create_tables();
    engine.seed(&tables);
    engine.run_sequential(&tables, &generate_history(seeds()[0], PARAMS));
    engine.checkpoint(&store).expect("base checkpoint");

    window_writes(&engine, tables[0], 0x40);
    let delta = engine.checkpoint_delta(&store).expect("delta checkpoint");

    let contents = read_checkpoint(&delta.path).expect("delta image reads back");
    let label = kind.label;
    assert!(
        contents.parent_read_ts.is_some(),
        "[{label}] a delta image records its parent snapshot"
    );
    let touched: Vec<TableId> = contents
        .rows
        .iter()
        .map(|(t, _)| *t)
        .chain(contents.deletes.iter().map(|(t, _)| *t))
        .collect();
    assert!(
        touched.iter().all(|t| *t == tables[0]),
        "[{label}] the untouched table leaked into the delta: {touched:?}"
    );
    let mut row_keys: Vec<u64> = contents
        .rows
        .iter()
        .map(|(_, r)| rowbuf::key_of(r))
        .collect();
    row_keys.sort_unstable();
    assert_eq!(
        row_keys,
        vec![0, 1, 2, 3],
        "[{label}] the delta must hold exactly the window's updated rows"
    );
    assert_eq!(
        contents.deletes,
        vec![(tables[0], 5)],
        "[{label}] the window's delete must surface as a tombstone"
    );

    // Tail above the delta, then recover the whole chain.
    window_writes(&engine, tables[1], 0x60);
    store.logger().flush().expect("flush tail");
    let final_state = engine.dump(&tables);
    drop(engine);
    drop(store);

    let plan = CheckpointStore::plan(&dir).expect("plan after delta");
    assert_eq!(plan.chain.len(), 2, "[{label}] base + one delta");
    let (target, t) = kind.target();
    target
        .recover_from_checkpoint(&plan)
        .expect("chain recovery");
    assert_eq!(
        target.dump(&t),
        final_state,
        "[{label}] chain + tail recovery diverges from the live state"
    );
    target.assert_indexes_consistent(&format!("{label} delta-skip"), &t);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Commit one transaction holding the single write `op`, which must report
/// that it found its target.
fn commit_one<E: Engine>(engine: &E, op: impl FnOnce(&mut E::Txn) -> Result<bool>) {
    let mut txn = engine.begin(IsolationLevel::Serializable);
    assert!(op(&mut txn).expect("window op"), "window op found its row");
    txn.commit().expect("window commit");
}

#[test]
fn a_delta_collapses_its_window_newest_wins() {
    for_all_engines!(a_delta_collapses_its_window_newest_wins_on);
}

fn a_delta_collapses_its_window_newest_wins_on<E: Durable>(kind: &Kind<E>) {
    // One window, three keys of table 0, each written several times: the
    // delta keeps only each key's last op. Key `a` (present at the parent)
    // is updated three times: its last fill. Key `b` (absent at the parent)
    // is inserted then deleted: only a tombstone. Key `c` is deleted then
    // re-inserted: only the row.
    let (a, b, c) = (2u64, INITIAL_ROWS + 10, 3u64);
    let label = kind.label;
    let dir = scratch_store_dir(&format!("delta-newest-{}", kind.tag()));
    let store = CheckpointStore::create(&dir).expect("create checkpoint store");
    let engine = kind.engine(store.logger().clone());
    let tables = engine.create_tables();
    engine.seed(&tables);
    engine.checkpoint(&store).expect("base checkpoint");

    let t0 = tables[0];
    let row = |k: u64, fill: u8| rowbuf::keyed_row(k, support::FILLER, fill);
    for fill in [0x21, 0x22, 0x23] {
        commit_one(&engine, |txn| {
            txn.update(t0, support::PRIMARY, a, row(a, fill))
        });
    }
    commit_one(&engine, |txn| txn.insert(t0, row(b, 0x31)).map(|()| true));
    commit_one(&engine, |txn| txn.delete(t0, support::PRIMARY, b));
    commit_one(&engine, |txn| txn.delete(t0, support::PRIMARY, c));
    commit_one(&engine, |txn| txn.insert(t0, row(c, 0x33)).map(|()| true));
    let delta = engine.checkpoint_delta(&store).expect("delta checkpoint");

    let contents = read_checkpoint(&delta.path).expect("delta image reads back");
    let mut rows: Vec<(TableId, u64, u8)> = contents
        .rows
        .iter()
        .map(|(t, r)| (*t, rowbuf::key_of(r), rowbuf::fill_of(r)))
        .collect();
    rows.sort_unstable();
    assert_eq!(
        rows,
        vec![(t0, a, 0x23), (t0, c, 0x33)],
        "[{label}] the delta holds each key's last write and nothing older"
    );
    assert_eq!(
        contents.deletes,
        vec![(t0, b)],
        "[{label}] an insert-then-delete leaves only its tombstone"
    );

    // Tail above the delta, then recover the whole chain.
    commit_one(&engine, |txn| {
        txn.update(t0, support::PRIMARY, a, row(a, 0x24))
    });
    store.logger().flush().expect("flush tail");
    let final_state = engine.dump(&tables);
    drop(engine);
    drop(store);

    let plan = CheckpointStore::plan(&dir).expect("plan after delta");
    assert_eq!(plan.chain.len(), 2, "[{label}] base + one delta");
    let (target, t) = kind.target();
    target
        .recover_from_checkpoint(&plan)
        .expect("chain recovery");
    assert_eq!(
        target.dump(&t),
        final_state,
        "[{label}] chain + tail recovery diverges from the live state"
    );
    target.assert_indexes_consistent(&format!("{label} delta-newest"), &t);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_auto_compacts_a_full_chain() {
    for_all_engines!(checkpoint_auto_compacts_a_full_chain_on);
}

fn checkpoint_auto_compacts_a_full_chain_on<E: Durable>(kind: &Kind<E>) {
    // `checkpoint_auto` under `CheckpointPolicy::delta(_, 3)`: base, delta,
    // delta, then — chain full — a compacting base that collapses the chain
    // back to one file and deletes the old images from disk. Every
    // intermediate chain must recover to the then-current live state.
    let policy = CheckpointPolicy::delta(1, 3);
    let tag = format!("auto-compact-{}", kind.tag());
    let dir = scratch_store_dir(&tag);
    let store = CheckpointStore::create(&dir).expect("create checkpoint store");
    let engine = kind.engine(store.logger().clone());
    let tables = engine.create_tables();
    engine.seed(&tables);

    let mut expected_lens = [1usize, 2, 3, 1].iter();
    for round in 0u64..4 {
        engine.run_sequential(&tables, &generate_history(seeds()[0] ^ round, PARAMS));
        engine
            .checkpoint_auto(&store, &policy)
            .expect("auto checkpoint");
        let expect = *expected_lens.next().unwrap();
        assert_eq!(
            store.chain_len(),
            expect,
            "[{} round {round}] chain length after auto checkpoint",
            kind.label
        );
    }
    store.logger().flush().expect("flush");
    let final_state = engine.dump(&tables);
    drop(engine);
    drop(store);

    // Compaction reclaimed every delta file.
    let names: Vec<String> = dir_snapshot(&dir).into_iter().map(|(n, _)| n).collect();
    assert!(
        !names.iter().any(|n| n.starts_with("delta-")),
        "[{}] compaction must delete the old chain's delta files, got {names:?}",
        kind.label
    );

    let plan = CheckpointStore::plan(&dir).expect("plan after compaction");
    assert_eq!(plan.chain.len(), 1, "[{}] compacted to a base", kind.label);
    let (target, t) = kind.target();
    target
        .recover_from_checkpoint(&plan)
        .expect("post-compaction recovery");
    assert_eq!(
        target.dump(&t),
        final_state,
        "[{}] recovery after compaction diverges from the live state",
        kind.label
    );
    target.assert_indexes_consistent(&format!("{} auto-compact", kind.label), &t);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delta_chain_tail_crash_at_any_offset_recovers() {
    for_all_engines!(delta_chain_tail_crash_at_any_offset_recovers_on);
}

fn delta_chain_tail_crash_at_any_offset_recovers_on<E: Durable>(kind: &Kind<E>) {
    // The chain twin of the base tail-crash test: base + racing delta + more
    // concurrent commits, then a crash at arbitrary bytes of the live
    // segment. Recovery must land on chain-collapse + the surviving tail's
    // committed prefix (records at or below the chain tip's snapshot are
    // already inside the delta and must not replay twice).
    for seed in seeds() {
        let tag = format!("delta-tail-{}-{seed:x}", kind.tag());
        let dir = scratch_store_dir(&tag);
        let crash_dir = scratch_store_dir(&format!("{tag}-crash"));
        let store = CheckpointStore::create_with_tick(&dir, Duration::from_micros(BATCH_TICK_US))
            .expect("create checkpoint store");
        let engine = kind.engine(store.logger().clone());
        let tables = engine.create_tables();
        engine.seed(&tables);

        engine.run_concurrent(&tables, worker_parts(seed));
        with_retry(|| engine.checkpoint(&store));

        // The delta races live writers, exactly like the base walk does
        // in the base tail test.
        let parts2 = worker_parts(seed ^ 0x00DE_17A1);
        std::thread::scope(|scope| {
            let engine_ref = &engine;
            let tables_ref = &tables;
            scope.spawn(move || engine_ref.run_concurrent(tables_ref, parts2));
            with_retry(|| engine.checkpoint_delta(&store));
        });
        engine.run_concurrent(&tables, worker_parts(seed ^ 0x00DE_17A2));
        store.logger().flush().expect("flush tail");
        let final_state = engine.dump(&tables);
        drop(engine);
        drop(store);

        let plan = CheckpointStore::plan(&dir).expect("plan after delta");
        assert_eq!(plan.chain.len(), 2, "base + racing delta");
        assert_eq!(plan.log_tail_offset(), 0, "truncation rebased the segment");
        let (image, image_ts) = chain_state(&plan, &tables);

        // No crash: chain + full tail equals the live state.
        let (target, t) = kind.target();
        target
            .recover_from_checkpoint(&plan)
            .expect("full chain recovery");
        assert_eq!(
            target.dump(&t),
            final_state,
            "[{} seed={seed:#x}] chain + full tail diverges from the live state",
            kind.label
        );

        // Crash at arbitrary bytes of the live segment.
        let live = dir_snapshot(&dir);
        let wal_name = plan
            .log_path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("wal file name")
            .to_string();
        let wal_bytes = file_of(&live, &wal_name).to_vec();
        for offset in crash_offsets(seed ^ 0xDE17_0001, wal_bytes.len()) {
            let mut files = live.clone();
            for (name, bytes) in &mut files {
                if *name == wal_name {
                    bytes.truncate(offset);
                }
            }
            write_dir_state(&crash_dir, &files);
            let plan_c =
                CheckpointStore::plan(&crash_dir).expect("plan survives a torn chain tail");
            let outcome = read_log_bytes(&wal_bytes[..offset])
                .expect("truncation reads as a torn tail, never corruption");
            let mut expected = image.clone();
            apply_tail(&mut expected, &outcome.records, image_ts, &tables);

            let (target, t) = kind.target();
            let report = target.recover_from_checkpoint(&plan_c).unwrap_or_else(|e| {
                panic!(
                    "[{} seed={seed:#x} crash_offset={offset}] chain recovery failed: {e}",
                    kind.label
                )
            });
            assert_eq!(
                report.records_applied,
                outcome
                    .records
                    .iter()
                    .filter(|r| r.end_ts > image_ts)
                    .count(),
                "replay applies exactly the tail records above the chain tip's snapshot"
            );
            let label = format!(
                "{} seed={seed:#x} delta-tail crash_offset={offset}",
                kind.label
            );
            assert_eq!(
                target.dump(&t),
                expected,
                "[{label}] recovered state diverges from chain + surviving tail"
            );
            target.assert_indexes_consistent(&label, &t);
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&crash_dir);
    }
}

#[test]
fn crash_anywhere_inside_the_delta_protocol_preserves_committed_state() {
    for_all_engines!(crash_anywhere_inside_the_delta_protocol_preserves_committed_state_on);
}

fn crash_anywhere_inside_the_delta_protocol_preserves_committed_state_on<E: Durable>(
    kind: &Kind<E>,
) {
    // The delta twin of the base-protocol crash test. The workload is
    // quiesced, so every synthesized intermediate state — a torn `delta.tmp`,
    // the renamed-but-unpublished delta (recovery must fall back to base +
    // full tail), a torn install entry, a torn rotated segment, a torn
    // truncation publish, the undeleted old segment — must recover to the
    // same committed maps.
    let seed = seeds()[0] ^ 0xDE17;
    let tag = format!("delta-proto-{}", kind.tag());
    let dir = scratch_store_dir(&tag);
    let crash_dir = scratch_store_dir(&format!("{tag}-crash"));
    let store = CheckpointStore::create(&dir).expect("create checkpoint store");
    let engine = kind.engine(store.logger().clone());
    let tables = engine.create_tables();
    engine.seed(&tables);
    engine.run_sequential(&tables, &generate_history(seed, PARAMS));
    engine.checkpoint(&store).expect("quiesced base checkpoint");

    // The delta window: more committed work on both tables.
    engine.run_sequential(&tables, &generate_history(seed ^ 1, PARAMS));
    store.logger().flush().expect("flush");
    let committed = engine.dump(&tables);
    let before = dir_snapshot(&dir);
    engine.checkpoint_delta(&store).expect("quiesced delta");
    let after = dir_snapshot(&dir);
    drop(engine);
    drop(store);

    let delta_bytes = file_of(&after, "delta-3.db").to_vec();
    let wal_new = file_of(&after, "wal-4.log").to_vec();
    let wal_old = file_of(&before, "wal-2.log").to_vec();
    let manifest_a = file_of(&before, "MANIFEST").to_vec();
    let manifest_b = file_of(&after, "MANIFEST").to_vec();
    assert_eq!(
        &manifest_b[..manifest_a.len()],
        &manifest_a[..],
        "the manifest is append-only"
    );
    let entries = &manifest_b[manifest_a.len()..];
    let frame_len = |bytes: &[u8]| 16 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let install_len = frame_len(entries);
    assert_eq!(
        install_len + frame_len(&entries[install_len..]),
        entries.len(),
        "a delta appends two manifest entries (install + truncation publish)"
    );
    let manifest_installed: Vec<u8> =
        [manifest_a.clone(), entries[..install_len].to_vec()].concat();

    let with = |base: &[(String, Vec<u8>)], extra: Vec<(&str, Vec<u8>)>| {
        let mut files: DirState = base.to_vec();
        for (name, bytes) in extra {
            match files.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1 = bytes,
                None => files.push((name.to_string(), bytes)),
            }
        }
        files
    };

    let mut states: Vec<(String, DirState)> = Vec::new();
    for cut in crash_offsets(seed ^ 0x0001, delta_bytes.len()) {
        states.push((
            format!("tmp-cut-{cut}"),
            with(&before, vec![("delta.tmp", delta_bytes[..cut].to_vec())]),
        ));
    }
    states.push((
        "renamed-unpublished".to_string(),
        with(&before, vec![("delta-3.db", delta_bytes.clone())]),
    ));
    for cut in crash_offsets(seed ^ 0x0002, install_len) {
        let mut manifest = manifest_a.clone();
        manifest.extend_from_slice(&entries[..cut]);
        states.push((
            format!("install-cut-{cut}"),
            with(
                &before,
                vec![("delta-3.db", delta_bytes.clone()), ("MANIFEST", manifest)],
            ),
        ));
    }
    for cut in crash_offsets(seed ^ 0x0003, wal_new.len()) {
        states.push((
            format!("rotate-cut-{cut}"),
            with(
                &before,
                vec![
                    ("delta-3.db", delta_bytes.clone()),
                    ("MANIFEST", manifest_installed.clone()),
                    ("wal-4.log", wal_new[..cut].to_vec()),
                ],
            ),
        ));
    }
    for cut in crash_offsets(seed ^ 0x0004, entries.len() - install_len) {
        let mut manifest = manifest_a.clone();
        manifest.extend_from_slice(&entries[..install_len + cut]);
        states.push((
            format!("publish-cut-{cut}"),
            with(
                &before,
                vec![
                    ("delta-3.db", delta_bytes.clone()),
                    ("MANIFEST", manifest),
                    ("wal-4.log", wal_new.clone()),
                ],
            ),
        ));
    }
    states.push((
        "undeleted-old-wal".to_string(),
        with(&after, vec![("wal-2.log", wal_old)]),
    ));
    states.push(("completed".to_string(), after.clone()));

    for (label, files) in &states {
        write_dir_state(&crash_dir, files);
        let full_label = format!("{} delta-protocol-crash {label}", kind.label);
        let plan = CheckpointStore::plan(&crash_dir)
            .unwrap_or_else(|e| panic!("[{full_label}] recovery planning failed: {e}"));
        let (target, t) = kind.target();
        target
            .recover_from_checkpoint(&plan)
            .unwrap_or_else(|e| panic!("[{full_label}] recovery failed: {e}"));
        assert_eq!(
            target.dump(&t),
            committed,
            "[{full_label}] the delta protocol is a pure representation change — \
                 crashing inside it must not move the recovered state"
        );
        target.assert_indexes_consistent(&full_label, &t);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn crash_mid_compaction_leaves_stale_chain_files_recovery_ignores() {
    for_all_engines!(crash_mid_compaction_leaves_stale_chain_files_recovery_ignores_on);
}

fn crash_mid_compaction_leaves_stale_chain_files_recovery_ignores_on<E: Durable>(kind: &Kind<E>) {
    // A compacting base checkpoint over an existing base+delta chain has one
    // crash surface the plain protocol lacks: the new base's install entry
    // is durable but the crash hits before the old chain's files are
    // unlinked. Recovery must plan from the new single-element chain and
    // ignore the stale `ckpt-1.db`/`delta-3.db` still sitting in the
    // directory — plus all the usual torn-artifact states.
    let seed = seeds()[0] ^ 0xC0BA;
    let tag = format!("compact-crash-{}", kind.tag());
    let dir = scratch_store_dir(&tag);
    let crash_dir = scratch_store_dir(&format!("{tag}-crash"));
    let store = CheckpointStore::create(&dir).expect("create checkpoint store");
    let engine = kind.engine(store.logger().clone());
    let tables = engine.create_tables();
    engine.seed(&tables);
    engine.run_sequential(&tables, &generate_history(seed, PARAMS));
    engine.checkpoint(&store).expect("base checkpoint");
    engine.run_sequential(&tables, &generate_history(seed ^ 1, PARAMS));
    engine.checkpoint_delta(&store).expect("delta checkpoint");

    // Post-chain window, then the compacting full checkpoint.
    engine.run_sequential(&tables, &generate_history(seed ^ 2, PARAMS));
    store.logger().flush().expect("flush");
    let committed = engine.dump(&tables);
    let before = dir_snapshot(&dir);
    engine.checkpoint(&store).expect("compacting checkpoint");
    let after = dir_snapshot(&dir);
    drop(engine);
    drop(store);

    let ckpt_bytes = file_of(&after, "ckpt-5.db").to_vec();
    let wal_new = file_of(&after, "wal-6.log").to_vec();
    let manifest_a = file_of(&before, "MANIFEST").to_vec();
    let manifest_b = file_of(&after, "MANIFEST").to_vec();
    assert!(
        !after
            .iter()
            .any(|(n, _)| n == "ckpt-1.db" || n == "delta-3.db"),
        "compaction unlinks the old chain"
    );
    assert_eq!(
        &manifest_b[..manifest_a.len()],
        &manifest_a[..],
        "the manifest is append-only"
    );
    let entries = &manifest_b[manifest_a.len()..];
    let frame_len = |bytes: &[u8]| 16 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let install_len = frame_len(entries);
    let manifest_installed: Vec<u8> =
        [manifest_a.clone(), entries[..install_len].to_vec()].concat();

    let with = |base: &[(String, Vec<u8>)], extra: Vec<(&str, Vec<u8>)>| {
        let mut files: DirState = base.to_vec();
        for (name, bytes) in extra {
            match files.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1 = bytes,
                None => files.push((name.to_string(), bytes)),
            }
        }
        files
    };

    let mut states: Vec<(String, DirState)> = Vec::new();
    for cut in crash_offsets(seed ^ 0x0001, ckpt_bytes.len()) {
        states.push((
            format!("tmp-cut-{cut}"),
            with(&before, vec![("ckpt.tmp", ckpt_bytes[..cut].to_vec())]),
        ));
    }
    states.push((
        "renamed-unpublished".to_string(),
        with(&before, vec![("ckpt-5.db", ckpt_bytes.clone())]),
    ));
    for cut in crash_offsets(seed ^ 0x0002, install_len) {
        let mut manifest = manifest_a.clone();
        manifest.extend_from_slice(&entries[..cut]);
        states.push((
            format!("install-cut-{cut}"),
            with(
                &before,
                vec![("ckpt-5.db", ckpt_bytes.clone()), ("MANIFEST", manifest)],
            ),
        ));
    }
    // The compaction-specific state: install entry durable, stale chain
    // files not yet unlinked.
    states.push((
        "installed-stale-chain".to_string(),
        with(
            &before,
            vec![
                ("ckpt-5.db", ckpt_bytes.clone()),
                ("MANIFEST", manifest_installed.clone()),
            ],
        ),
    ));
    for cut in crash_offsets(seed ^ 0x0003, wal_new.len()) {
        states.push((
            format!("rotate-cut-{cut}"),
            with(
                &before,
                vec![
                    ("ckpt-5.db", ckpt_bytes.clone()),
                    ("MANIFEST", manifest_installed.clone()),
                    ("wal-6.log", wal_new[..cut].to_vec()),
                ],
            ),
        ));
    }
    for cut in crash_offsets(seed ^ 0x0004, entries.len() - install_len) {
        let mut manifest = manifest_a.clone();
        manifest.extend_from_slice(&entries[..install_len + cut]);
        states.push((
            format!("publish-cut-{cut}"),
            with(
                &before,
                vec![
                    ("ckpt-5.db", ckpt_bytes.clone()),
                    ("MANIFEST", manifest),
                    ("wal-6.log", wal_new.clone()),
                ],
            ),
        ));
    }
    states.push(("completed".to_string(), after.clone()));

    for (label, files) in &states {
        write_dir_state(&crash_dir, files);
        let full_label = format!("{} compaction-crash {label}", kind.label);
        let plan = CheckpointStore::plan(&crash_dir)
            .unwrap_or_else(|e| panic!("[{full_label}] recovery planning failed: {e}"));
        if label == "installed-stale-chain" {
            assert_eq!(
                plan.chain.len(),
                1,
                "[{full_label}] the published compaction owns the chain"
            );
            assert!(
                plan.chain[0].path.ends_with("ckpt-5.db"),
                "[{full_label}] the plan must point at the new base, not the stale files"
            );
        }
        let (target, t) = kind.target();
        target
            .recover_from_checkpoint(&plan)
            .unwrap_or_else(|e| panic!("[{full_label}] recovery failed: {e}"));
        assert_eq!(
            target.dump(&t),
            committed,
            "[{full_label}] a mid-compaction crash must not move the recovered state"
        );
        target.assert_indexes_consistent(&full_label, &t);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// Capture a crash image of a live store directory. The MANIFEST is read
/// first: everything it references was durable before the manifest bytes
/// were, so pairing it with files read afterwards is a valid crash state —
/// *unless* a concurrent truncation or compaction deleted a referenced file
/// between the two reads. The caller detects that (the planned file is
/// missing from the capture) and skips the capture.
fn capture_store(dir: &Path) -> Option<DirState> {
    let manifest = std::fs::read(dir.join("MANIFEST")).ok()?;
    let mut files: DirState = vec![("MANIFEST".to_string(), manifest)];
    for entry in std::fs::read_dir(dir).ok()? {
        let entry = entry.ok()?;
        let name = entry.file_name().into_string().ok()?;
        if name == "MANIFEST" {
            continue;
        }
        if let Ok(bytes) = std::fs::read(entry.path()) {
            files.push((name, bytes));
        }
    }
    files.sort();
    Some(files)
}

#[test]
fn mid_run_store_crash_images_with_delta_chain_recover_consistently() {
    for_all_engines!(mid_run_store_crash_images_with_delta_chain_recover_consistently_on);
}

fn mid_run_store_crash_images_with_delta_chain_recover_consistently_on<E: Durable>(kind: &Kind<E>) {
    // Write-path fault injection against the full store: workers commit
    // through the group-commit logger while the main thread drives
    // `checkpoint_auto` under a delta policy and captures crash images of
    // the whole directory — mid-flush, mid-protocol, mid-chain. Every
    // coherent capture must plan, and recover to exactly chain-collapse +
    // the captured tail's committed prefix.
    let seed = seeds()[0] ^ 0xD17A;
    let tag = format!("midrun-delta-{}", kind.tag());
    let dir = scratch_store_dir(&tag);
    let crash_dir = scratch_store_dir(&format!("{tag}-crash"));
    let store = CheckpointStore::create_with_tick(&dir, Duration::from_micros(BATCH_TICK_US))
        .expect("create checkpoint store");
    let engine = kind.engine(store.logger().clone());
    let tables = engine.create_tables();
    engine.seed(&tables);
    let policy = CheckpointPolicy::delta(1, 3);

    let mut captures: Vec<DirState> = Vec::new();
    let mut max_chain = 0usize;
    for phase in 0u64..2 {
        let parts = worker_parts(seed ^ phase);
        std::thread::scope(|scope| {
            let engine_ref = &engine;
            let tables_ref = &tables;
            let handle = scope.spawn(move || engine_ref.run_concurrent(tables_ref, parts));
            while !handle.is_finished() {
                // Best-effort: under write contention the 1V walk may
                // time out; the forced checkpoint below guarantees the
                // chain still advances every phase.
                let _ = engine.checkpoint_auto(&store, &policy);
                // The chain cycles 1 → 2 → 3 → 1: sample it after every
                // checkpoint, not only where a phase happens to end.
                max_chain = max_chain.max(store.chain_len());
                if let Some(files) = capture_store(&dir) {
                    captures.push(files);
                }
                std::thread::sleep(Duration::from_micros(BATCH_TICK_US / 4));
            }
        });
        with_retry(|| engine.checkpoint_auto(&store, &policy));
        max_chain = max_chain.max(store.chain_len());
        if let Some(files) = capture_store(&dir) {
            captures.push(files);
        }
    }
    store.logger().flush().expect("final flush");
    let final_state = engine.dump(&tables);
    captures.push(dir_snapshot(&dir));
    assert!(
        max_chain >= 2,
        "[{}] the checkpoints must have built a delta chain \
             (longest chain seen: {max_chain})",
        kind.label
    );
    drop(engine);
    drop(store);

    let mut recovered = 0usize;
    let mut skipped = 0usize;
    let total = captures.len();
    for (i, files) in captures.iter().enumerate() {
        write_dir_state(&crash_dir, files);
        let plan = match CheckpointStore::plan(&crash_dir) {
            Ok(plan) => plan,
            Err(_) => {
                skipped += 1;
                continue;
            }
        };
        // A referenced file deleted between the manifest read and the
        // directory listing makes the composite incoherent — skip.
        let have = |p: &std::path::Path| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| files.iter().any(|(f, _)| f == n))
        };
        if !plan.chain.iter().all(|c| have(&c.path)) || !have(&plan.log_path) {
            skipped += 1;
            continue;
        }

        let (mut expected, image_ts) = chain_state(&plan, &tables);
        let wal_name = plan
            .log_path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("wal file name")
            .to_string();
        let wal_bytes = file_of(files, &wal_name);
        let offset = (plan.log_tail_offset() as usize).min(wal_bytes.len());
        let tail = read_log_bytes(&wal_bytes[offset..]).unwrap_or_else(|e| {
            panic!(
                "[{} capture={i}] a live capture must read as a torn tail, \
                     never corruption: {e}",
                kind.label
            )
        });
        apply_tail(&mut expected, &tail.records, image_ts, &tables);

        let (target, t) = kind.target();
        target
            .recover_from_checkpoint(&plan)
            .unwrap_or_else(|e| panic!("[{} capture={i}] recovery failed: {e}", kind.label));
        let label = format!("{} mid-run store capture {i}", kind.label);
        assert_eq!(
            target.dump(&t),
            expected,
            "[{label}] recovered state diverges from chain + captured tail"
        );
        target.assert_indexes_consistent(&label, &t);
        if i == total - 1 {
            assert_eq!(
                target.dump(&t),
                final_state,
                "[{label}] the quiesced final capture must recover the live state"
            );
        }
        recovered += 1;
    }
    assert!(
        recovered >= 3,
        "[{}] too few coherent captures recovered ({recovered} of {total}, \
             {skipped} skipped)",
        kind.label
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

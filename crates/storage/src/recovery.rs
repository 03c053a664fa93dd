//! Recovery: fold a checkpoint chain and a log tail into one bulk load,
//! newest op per primary key winning, across table-sharded workers.
//!
//! The log is redo-only and each record carries its transaction's end
//! timestamp: "commit ordering is determined by transaction end timestamps"
//! (§3.2, §5), so where a frame sits in the file does not matter. Rebuilding
//! state is one rule — per `(table, primary key)`, keep the op with the
//! newest timestamp — and [`NewestWins`] is that rule, written once. Delta
//! checkpoints fold their log window through it (`Durable::checkpoint_delta`);
//! recovery folds everything it reads, record by record:
//!
//! * each chain image's ops at that image's `read_ts` (an image holds at
//!   most one op per key, so the order inside it does not matter);
//! * the log tail's ops at their record's `end_ts`, skipping records at or
//!   below the chain tip's snapshot (the chain already holds them).
//!
//! Restart time is the denominator of the availability story (the paper's
//! §2.7 keeps redo logging cheap precisely so recovery stays a bulk load),
//! and a single-threaded loader leaves most of the machine idle during it.
//! [`recover_partitioned`] splits the work by table: the calling thread makes
//! one decode pass over the chain images and the log tail, routing every op
//! to a worker chosen by `TableId % workers`; each worker folds its tables'
//! ops and, once the whole pass has succeeded, hands the engine one
//! pk-ordered row batch per table — a failed recovery loads nothing. Every
//! op names exactly one table, so the final image does not depend on how
//! tables are distributed; a test below pins recovery with 1, 2, 3 and 8
//! workers to identical images.
//!
//! Chain validation happens here too: each image's recorded parent snapshot
//! must equal the preceding image's `read_ts` ([`Timestamp::ZERO`] for the
//! first) — a mismatched or reordered chain is corruption, not something to
//! paper over.

use std::collections::BTreeMap;
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};

use mmdb_common::error::{MmdbError, Result};
use mmdb_common::ids::{Key, TableId, Timestamp};
use mmdb_common::row::Row;

use crate::checkpoint::{CheckpointRef, ImageReader};
use crate::log::{FrameStream, LogOp};

/// Extracts a row's primary key; must agree with the engine's primary-index
/// key spec. Shared by every worker thread, hence `Sync`.
pub(crate) type KeyOfFn<'a> = dyn Fn(TableId, &Row) -> Result<Key> + Sync + 'a;

/// Receives one materialized, pk-ordered row batch per recovered table.
/// Called concurrently from worker threads, but never twice for the same
/// table, so a per-table bulk load (e.g. `populate`) needs no extra locking.
pub(crate) type ApplyFn<'a> = dyn Fn(TableId, Vec<Row>) -> Result<()> + Sync + 'a;

/// The newest-wins fold of redo ops: per `(table, primary key)` it keeps the
/// op with the highest timestamp; on a tie the later op wins.
#[derive(Debug, Default)]
pub(crate) struct NewestWins {
    tables: BTreeMap<TableId, BTreeMap<Key, (Timestamp, Option<Row>)>>,
}

impl NewestWins {
    /// Fold `op`, committed at `ts`.
    pub(crate) fn push(
        &mut self,
        ts: Timestamp,
        op: LogOp,
        key_of: impl Fn(TableId, &Row) -> Result<Key>,
    ) -> Result<()> {
        let (table, key, row) = match op {
            LogOp::Write { table, row } => (table, key_of(table, &row)?, Some(row)),
            LogOp::Delete { table, key } => (table, key, None),
        };
        let slot = self
            .tables
            .entry(table)
            .or_default()
            .entry(key)
            .or_insert((ts, None));
        if ts >= slot.0 {
            *slot = (ts, row);
        }
        Ok(())
    }

    /// Per table, in id order, the surviving op per key in key order:
    /// `Some(row)` where the newest op writes the key, `None` where it
    /// deletes it.
    pub(crate) fn into_tables(
        self,
    ) -> impl Iterator<Item = (TableId, impl Iterator<Item = (Key, Option<Row>)>)> {
        self.tables.into_iter().map(|(table, keys)| {
            let ops = keys.into_iter().map(|(key, (_, row))| (key, row));
            (table, ops)
        })
    }
}

/// What [`recover_partitioned`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecoveredImage {
    /// Snapshot timestamp of the chain's last image ([`Timestamp::ZERO`]
    /// without a chain). Every replayed tail record is later than this.
    pub(crate) image_ts: Timestamp,
    /// Latest end timestamp replayed from the log tail (`image_ts` if the
    /// tail was empty). The engine's clock must advance past it before
    /// accepting commits.
    pub(crate) max_end_ts: Timestamp,
    /// Rows handed to the apply callback (the collapsed final image).
    pub(crate) rows_loaded: usize,
    /// Complete log-tail records newer than the image that were replayed.
    pub(crate) tail_records: usize,
    /// End of the tail's valid prefix, as an offset in the log segment.
    pub(crate) valid_bytes: u64,
    /// Bytes discarded as a torn trailing frame.
    pub(crate) torn_bytes: u64,
}

/// One routed batch: ops of one worker's tables, all folded at `ts`.
struct Msg {
    ts: Timestamp,
    ops: Vec<LogOp>,
}

/// Worker count of a recovery: the machine's available parallelism capped
/// at 8 (the load turns I/O-bound past that).
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Fold `chain` (base image first, then its deltas) and the log `tail` into
/// the engine behind `apply`, fanning the work across `workers` threads
/// (clamped to at least one). `apply` runs only if the whole chain and tail
/// decoded cleanly.
pub(crate) fn recover_partitioned<R: Read>(
    chain: &[CheckpointRef],
    tail: FrameStream<R>,
    workers: usize,
    key_of: &KeyOfFn<'_>,
    apply: &ApplyFn<'_>,
) -> Result<RecoveredImage> {
    let workers = workers.max(1);
    let fed_ok = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut senders: Vec<Sender<Msg>> = Vec::with_capacity(workers);
        let mut joins = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::<Msg>();
            senders.push(tx);
            let fed_ok = &fed_ok;
            joins.push(scope.spawn(move || drain_partition(rx, fed_ok, key_of, apply)));
        }
        let fed = feed(chain, tail, &senders);
        // Publish the verdict, then hang up: workers drain until every
        // sender is gone and only then read it.
        fed_ok.store(fed.is_ok(), Ordering::Release);
        drop(senders);
        let mut rows_loaded = 0usize;
        let mut worker_err = None;
        for join in joins {
            match join.join().expect("recovery worker panicked") {
                Ok(rows) => rows_loaded += rows,
                Err(err) => worker_err = Some(err),
            }
        }
        // A worker error is the root cause even when the coordinator saw a
        // closed channel first.
        if let Some(err) = worker_err {
            return Err(err);
        }
        let mut image = fed?;
        image.rows_loaded = rows_loaded;
        Ok(image)
    })
}

/// Coordinator pass: stream the chain and the log tail once, route every
/// op. `rows_loaded` in the returned image is 0; the caller fills it from
/// the workers' counts.
fn feed<R: Read>(
    chain: &[CheckpointRef],
    mut tail: FrameStream<R>,
    senders: &[Sender<Msg>],
) -> Result<RecoveredImage> {
    let invalid = |reason: &'static str| MmdbError::CheckpointInvalid { reason };
    let mut image_ts = Timestamp::ZERO;
    for ckpt in chain {
        let mut image = ImageReader::open(&ckpt.path)?;
        if image.lsn != ckpt.lsn || image.read_ts != ckpt.read_ts {
            return Err(invalid("checkpoint image disagrees with the manifest"));
        }
        if image.parent_read_ts != image_ts {
            return Err(invalid(
                "checkpoint image's parent is not the chain's previous image",
            ));
        }
        image_ts = image.read_ts;
        while let Some(record) = image.next_record()? {
            route(senders, record.end_ts, record.ops)?;
        }
    }

    let mut tail_records = 0usize;
    let mut max_end_ts = image_ts;
    while let Some(record) = tail.next_record()? {
        if record.end_ts <= image_ts {
            continue;
        }
        tail_records += 1;
        max_end_ts = max_end_ts.max(record.end_ts);
        route(senders, record.end_ts, record.ops)?;
    }
    Ok(RecoveredImage {
        image_ts,
        max_end_ts,
        rows_loaded: 0,
        tail_records,
        valid_bytes: tail.consumed(),
        torn_bytes: tail.torn_bytes(),
    })
}

/// Send each worker, in order, the ops of its tables in one record.
fn route(senders: &[Sender<Msg>], ts: Timestamp, ops: Vec<LogOp>) -> Result<()> {
    let mut batches: Vec<Vec<LogOp>> = senders.iter().map(|_| Vec::new()).collect();
    for op in ops {
        let (LogOp::Write { table, .. } | LogOp::Delete { table, .. }) = op;
        batches[table.0 as usize % senders.len()].push(op);
    }
    for (sender, ops) in senders.iter().zip(batches) {
        if !ops.is_empty() {
            sender
                .send(Msg { ts, ops })
                .map_err(|_| MmdbError::Internal("recovery worker exited early"))?;
        }
    }
    Ok(())
}

/// Worker loop: fold this partition's ops, then — if the coordinator's pass
/// succeeded — hand the engine one pk-ordered batch per table. Returns the
/// number of rows applied.
fn drain_partition(
    rx: Receiver<Msg>,
    fed_ok: &AtomicBool,
    key_of: &KeyOfFn<'_>,
    apply: &ApplyFn<'_>,
) -> Result<usize> {
    let mut fold = NewestWins::default();
    for Msg { ts, ops } in rx {
        for op in ops {
            fold.push(ts, op, key_of)?;
        }
    }
    if !fed_ok.load(Ordering::Acquire) {
        return Ok(0);
    }
    let mut rows_loaded = 0usize;
    for (table, ops) in fold.into_tables() {
        let rows: Vec<Row> = ops.filter_map(|(_, row)| row).collect();
        rows_loaded += rows.len();
        apply(table, rows)?;
    }
    Ok(rows_loaded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointStore, RecoveryPlan, ROW_BATCH_TARGET};
    use crate::log::{encode_frame_into, open_log_range, LogOpRef, Lsn, RedoLogger, READ_CHUNK};
    use std::fs;
    use std::sync::Mutex;
    use std::time::Duration;

    /// A group-commit tick longer than any test here: the logs harden only
    /// on explicit flushes and checkpoints.
    const LONG_TICK: Duration = Duration::from_secs(3600);

    fn append(store: &CheckpointStore, end_ts: Timestamp, ops: &[LogOpRef<'_>]) {
        let mut frame = Vec::new();
        encode_frame_into(&mut frame, end_ts, ops.iter().copied());
        store.logger().append_frame(&frame);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mmdb-recovery-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn row(key: u64, payload: u8) -> Row {
        let mut bytes = [payload; 16];
        bytes[..8].copy_from_slice(&key.to_le_bytes());
        Row::copy_from_slice(&bytes)
    }

    fn key_of(_table: TableId, row: &Row) -> Result<Key> {
        Ok(u64::from_le_bytes(row[..8].try_into().unwrap()))
    }

    /// Build a dir holding: base {t0: k1,k2; t1: k1}, delta {t0: -k2, +k3;
    /// t1: k1 updated}, log tail {t0: +k4, t1: -k1} plus one pre-image
    /// record that must be filtered out.
    fn build_chain_dir(tag: &str) -> std::path::PathBuf {
        let dir = scratch_dir(tag);
        let store = CheckpointStore::create_with_tick(&dir, LONG_TICK).unwrap();
        let t0 = TableId(0);
        let t1 = TableId(1);

        let mut base = store
            .begin_image(Lsn::ZERO, Timestamp(10), Timestamp::ZERO)
            .unwrap();
        base.write_row(t0, &row(1, 0xa)).unwrap();
        base.write_row(t0, &row(2, 0xb)).unwrap();
        base.write_row(t1, &row(1, 0xc)).unwrap();
        store.install_image(base.finish().unwrap()).unwrap();

        let lsn = store.logger().appended_lsn();
        // This commit raced the checkpoint: its frame lands past the
        // captured LSN but its end timestamp is below the delta snapshot,
        // so the delta image already carries the row and tail replay must
        // skip the frame.
        append(
            &store,
            Timestamp(15),
            &[LogOpRef::Write {
                table: t0,
                row: &row(3, 0x1d),
            }],
        );
        let mut delta = store
            .begin_image(lsn, Timestamp(20), Timestamp(10))
            .unwrap();
        delta.write_row(t0, &row(3, 0x1d)).unwrap();
        delta.write_delete(t0, 2).unwrap();
        delta.write_row(t1, &row(1, 0x2c)).unwrap();
        store.install_image(delta.finish().unwrap()).unwrap();
        store.truncate_log().unwrap();

        append(
            &store,
            Timestamp(30),
            &[
                LogOpRef::Write {
                    table: t0,
                    row: &row(4, 0xe),
                },
                LogOpRef::Delete { table: t1, key: 1 },
            ],
        );
        store.logger().flush().unwrap();
        drop(store);
        dir
    }

    /// Build a dir holding a base and two deltas over three tables, each
    /// image spanning several op frames, and no log tail.
    fn build_multi_frame_chain_dir(tag: &str) -> std::path::PathBuf {
        let dir = scratch_dir(tag);
        let store = CheckpointStore::create_with_tick(&dir, LONG_TICK).unwrap();
        // 8 192 keys of 25-byte row ops: the base is ≈ 3 frames, each delta
        // (a quarter of the keys rewritten, a quarter deleted) ≈ 2.
        let keys = 2 * ROW_BATCH_TARGET as u64 / 16;
        let table = |k: u64| TableId((k % 3) as u32);
        let mut parent = Timestamp::ZERO;
        for (i, ts) in [10u64, 20, 30].into_iter().enumerate() {
            let mut image = store.begin_image(Lsn::ZERO, Timestamp(ts), parent).unwrap();
            for k in 0..keys {
                match (i, (k + i as u64) % 4) {
                    (0, _) | (_, 1) => image.write_row(table(k), &row(k, ts as u8)).unwrap(),
                    (_, 0) => image.write_delete(table(k), k).unwrap(),
                    _ => {}
                }
            }
            let finished = image.finish().unwrap();
            assert!(finished.bytes > ROW_BATCH_TARGET as u64);
            store.install_image(finished).unwrap();
            parent = Timestamp(ts);
        }
        drop(store);
        dir
    }

    /// The plan's log tail, as recovery reads it.
    fn tail_of(plan: &RecoveryPlan) -> FrameStream<impl Read> {
        open_log_range(&plan.log_path, plan.log_tail_offset(), None).unwrap()
    }

    /// Recover `chain` + `tail` with `workers` workers; the applied batches
    /// in table order.
    fn recover_with(
        chain: &[CheckpointRef],
        tail: FrameStream<impl Read>,
        workers: usize,
    ) -> (RecoveredImage, Vec<(TableId, Vec<Row>)>) {
        let applied: Mutex<Vec<(TableId, Vec<Row>)>> = Mutex::new(Vec::new());
        let image = recover_partitioned(chain, tail, workers, &key_of, &|table, rows| {
            applied.lock().unwrap().push((table, rows));
            Ok(())
        })
        .unwrap();
        let mut applied = applied.into_inner().unwrap();
        applied.sort_by_key(|(table, _)| *table);
        (image, applied)
    }

    fn recover_rows(
        dir: &std::path::Path,
        workers: usize,
    ) -> (RecoveredImage, Vec<(TableId, Vec<Row>)>) {
        let plan = CheckpointStore::plan(dir).unwrap();
        recover_with(&plan.chain, tail_of(&plan), workers)
    }

    #[test]
    fn chain_plus_tail_collapses_to_the_serial_image() {
        let dir = build_chain_dir("collapse");
        let (image, applied) = recover_rows(&dir, 1);
        assert_eq!(image.image_ts, Timestamp(20));
        assert_eq!(image.max_end_ts, Timestamp(30));
        assert_eq!(image.tail_records, 1);
        assert_eq!(image.torn_bytes, 0);
        assert_eq!(image.rows_loaded, 3);
        // t0: base k1, delta deleted k2 and added k3, tail added k4.
        // t1: delta updated k1, tail deleted it (table reported empty).
        assert_eq!(
            applied,
            vec![
                (TableId(0), vec![row(1, 0xa), row(3, 0x1d), row(4, 0xe)]),
                (TableId(1), vec![]),
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_is_worker_count_invariant() {
        let dirs = [
            build_chain_dir("invariant"),
            build_multi_frame_chain_dir("invariant-multi-frame"),
        ];
        for dir in dirs {
            let (serial_image, serial_rows) = recover_rows(&dir, 1);
            assert!(serial_image.rows_loaded > 0);
            for workers in [2usize, 3, 8] {
                let (image, rows) = recover_rows(&dir, workers);
                assert_eq!(image, serial_image, "{workers} workers");
                assert_eq!(rows, serial_rows, "{workers} workers");
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// The tail folds in end-timestamp order, not file order: key `a` is
    /// appended at 40 and then at 35, key `b` deleted at 50 and then
    /// re-inserted at 45, and one record deletes key `k` and then writes it.
    #[test]
    fn the_tail_folds_by_end_timestamp_not_file_order() {
        let (t0, t1) = (TableId(0), TableId(1));
        let (a, b, k) = (row(1, 0xa), row(2, 0xb), row(3, 0xc));
        let tail = vec![
            (
                Timestamp(40),
                vec![LogOp::Write {
                    table: t0,
                    row: a.clone(),
                }],
            ),
            (
                Timestamp(35),
                vec![LogOp::Write {
                    table: t0,
                    row: row(1, 0x5a),
                }],
            ),
            (Timestamp(50), vec![LogOp::Delete { table: t0, key: 2 }]),
            (Timestamp(45), vec![LogOp::Write { table: t0, row: b }]),
            (
                Timestamp(60),
                vec![
                    LogOp::Delete { table: t1, key: 3 },
                    LogOp::Write {
                        table: t1,
                        row: k.clone(),
                    },
                ],
            ),
        ];
        let mut bytes = Vec::new();
        for (ts, ops) in &tail {
            encode_frame_into(&mut bytes, *ts, ops.iter().map(LogOp::as_ref));
        }
        for workers in [1usize, 2] {
            let (image, applied) =
                recover_with(&[], FrameStream::new(&bytes[..], READ_CHUNK, 0), workers);
            assert_eq!(
                applied,
                vec![(t0, vec![a.clone()]), (t1, vec![k.clone()])],
                "{workers} workers"
            );
            assert_eq!(image.max_end_ts, Timestamp(60));
            assert_eq!(image.tail_records, tail.len());
        }
        // The fold delta checkpoints use, fed the same ops, agrees.
        let mut fold = NewestWins::default();
        for (ts, ops) in tail {
            for op in ops {
                fold.push(ts, op, key_of).unwrap();
            }
        }
        let folded: Vec<_> = fold
            .into_tables()
            .map(|(table, ops)| (table, ops.collect::<Vec<_>>()))
            .collect();
        assert_eq!(
            folded,
            vec![
                (t0, vec![(1, Some(a)), (2, None)]),
                (t1, vec![(3, Some(k))])
            ]
        );
    }

    #[test]
    fn mismatched_delta_parent_is_rejected() {
        let dir = build_chain_dir("bad-parent");
        let plan = CheckpointStore::plan(&dir).unwrap();
        // Corrupt the plan: pretend the delta is the base.
        let mut bad = plan.clone();
        bad.chain.remove(0);
        let err = recover_partitioned(&bad.chain, tail_of(&plan), 2, &key_of, &|_, _| Ok(()))
            .unwrap_err();
        assert!(
            matches!(err, MmdbError::CheckpointInvalid { .. }),
            "{err:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_chain_image_fails_recovery_and_loads_nothing() {
        let dir = build_chain_dir("torn-delta");
        let plan = CheckpointStore::plan(&dir).unwrap();
        // Keep the base; tear the delta's trailer.
        let delta = &plan.chain[1].path;
        let bytes = fs::read(delta).unwrap();
        fs::write(delta, &bytes[..bytes.len() - 1]).unwrap();
        let applied = Mutex::new(0usize);
        let err = recover_partitioned(&plan.chain, tail_of(&plan), 2, &key_of, &|_, _| {
            *applied.lock().unwrap() += 1;
            Ok(())
        })
        .unwrap_err();
        assert!(
            matches!(err, MmdbError::CheckpointInvalid { .. }),
            "{err:?}"
        );
        assert_eq!(
            *applied.lock().unwrap(),
            0,
            "a failed recovery applied rows"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_error_propagates() {
        let dir = build_chain_dir("worker-err");
        let plan = CheckpointStore::plan(&dir).unwrap();
        let err = recover_partitioned(&plan.chain, tail_of(&plan), 2, &key_of, &|_, _| {
            Err(MmdbError::Internal("apply refused"))
        })
        .unwrap_err();
        assert!(
            matches!(err, MmdbError::Internal("apply refused")),
            "{err:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

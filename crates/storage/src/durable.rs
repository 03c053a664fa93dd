//! The durability lifecycle, written once for every engine.
//!
//! The paper's durability story is small: each committed transaction emits
//! one redo record carrying its end timestamp, after-images and deleted keys
//! (§3.2), hardened by an asynchronous group commit nobody waits on (§5);
//! recovery replays records in end-timestamp order. Checkpoints bound that
//! replay. What an engine contributes is only what depends on how it stores
//! rows — the [`Durable`] trait's five required methods. Policy dispatch,
//! delta checkpoints, chain + tail recovery and log replay are provided here,
//! so a later durability feature has one implementation to build on.

use std::collections::BTreeMap;
use std::path::Path;

use mmdb_common::durability::CheckpointPolicy;
use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::error::{MmdbError, Result};
use mmdb_common::ids::{IndexId, Key, TableId, Timestamp};
use mmdb_common::isolation::IsolationLevel;
use mmdb_common::row::Row;

use crate::checkpoint::{CheckpointRef, CheckpointStore, RecoveryPlan};
use crate::log::{
    read_log_bytes, read_log_prefix, LogOp, LogRecord, Lsn, RecoveryReport, RedoLogger as _,
};
use crate::recovery::{default_workers, recover_partitioned};

/// What a delta checkpoint captures before it reads the log: see
/// [`Durable::delta_barrier`].
#[derive(Debug, Clone, Copy)]
pub struct DeltaBarrier {
    /// The delta's checkpoint LSN: recovery replays the log from here and
    /// the log is truncated below it. Every frame below it commits at or
    /// below `read_ts`.
    pub tail_lsn: Lsn,
    /// Every commit at or below `read_ts` has its frame below this LSN.
    pub read_limit_lsn: Lsn,
    /// The delta's snapshot timestamp `R`.
    pub read_ts: Timestamp,
}

/// An engine that can checkpoint into a [`CheckpointStore`] and be rebuilt
/// from one, or from a bare redo log.
///
/// For the checkpoint methods the engine must route its redo stream through
/// `store`'s group-commit log, so the checkpoint LSN and the engine's commit
/// frames live on the same stream. Recovery targets are freshly created
/// engines whose tables were re-created with the same ids.
pub trait Durable: Engine {
    /// Base walk: write a consistent image of every table into `store`,
    /// install it as a new chain and truncate the redo log below it.
    fn checkpoint(&self, store: &CheckpointStore) -> Result<CheckpointRef>;

    /// Capture the [`DeltaBarrier`] of a delta checkpoint: a `tail_lsn`, then
    /// a freshly drawn `read_ts`, then a `read_limit_lsn` such that
    ///
    /// * every frame below `tail_lsn` commits at or below `read_ts`, and
    /// * every commit at or below `read_ts` has its frame below
    ///   `read_limit_lsn`.
    ///
    /// Frames between the two LSNs may commit on either side of `read_ts`;
    /// those at or below it land in both the delta and the tail, which is
    /// harmless because recovery skips tail records with
    /// `end_ts <= read_ts`.
    fn delta_barrier(&self, store: &CheckpointStore) -> Result<DeltaBarrier>;

    /// `row`'s key under `table`'s primary index.
    fn primary_key_of(&self, table: TableId, row: &Row) -> Result<Key>;

    /// Bulk-load committed rows outside any transaction, bypassing
    /// concurrency control and the redo logger. Recovery calls it at most
    /// once per table, possibly from several threads for different tables.
    ///
    /// Because nothing is logged, rows loaded after a chain's base image
    /// reach the chain only at the next base image: a delta holds what the
    /// log holds.
    fn populate(&self, table: TableId, rows: Vec<Row>) -> Result<usize>;

    /// Make every timestamp the engine draws from now on exceed `ts`.
    fn advance_clock_past(&self, ts: Timestamp);

    /// Take whichever checkpoint `policy` calls for next: a delta while the
    /// chain is below `policy.max_chain` files, a full base image otherwise
    /// (the first checkpoint, deltas disabled, or a compaction once the
    /// chain is full).
    fn checkpoint_auto(
        &self,
        store: &CheckpointStore,
        policy: &CheckpointPolicy,
    ) -> Result<CheckpointRef> {
        if store.delta_due(policy) {
            self.checkpoint_delta(store)
        } else {
            self.checkpoint(store)
        }
    }

    /// Window image: append to the chain an image of only the rows and
    /// deletions committed in `(P, R]`, where `P` is the chain tip's
    /// snapshot and `R` the barrier's, then truncate the log. Requires an
    /// installed chain.
    ///
    /// The redo log already holds every commit of the window under its end
    /// timestamp (§3.2, §5), so the delta is that log window collapsed per
    /// primary key, latest end timestamp winning: a row for a key whose last
    /// op writes it, a tombstone for one whose last op deletes it. Frames
    /// below the parent's LSN commit at or below `P` and were truncated
    /// with it; `end_ts > P` drops the rest of the parent's window.
    fn checkpoint_delta(&self, store: &CheckpointStore) -> Result<CheckpointRef> {
        let parent = store
            .last_checkpoint()
            .ok_or(MmdbError::CheckpointInvalid {
                reason: "no checkpoint installed to delta against",
            })?;
        let barrier = self.delta_barrier(store)?;

        // Flush so the prefix is readable from the file.
        store.logger().flush()?;
        let limit = barrier
            .read_limit_lsn
            .0
            .saturating_sub(store.logger().base_lsn().0);
        let mut latest: BTreeMap<(TableId, Key), (Timestamp, Option<Row>)> = BTreeMap::new();
        for record in read_log_prefix(store.log_path(), limit)?.records {
            if record.end_ts <= parent.read_ts || record.end_ts > barrier.read_ts {
                continue;
            }
            for op in record.ops {
                let (table, key, row) = match op {
                    LogOp::Write { table, row } => {
                        (table, self.primary_key_of(table, &row)?, Some(row))
                    }
                    LogOp::Delete { table, key } => (table, key, None),
                };
                let slot = latest.entry((table, key)).or_insert((record.end_ts, None));
                if record.end_ts >= slot.0 {
                    *slot = (record.end_ts, row);
                }
            }
        }
        let mut writer = store.begin_delta(barrier.tail_lsn, barrier.read_ts)?;
        for ((table, key), (_, row)) in latest {
            match row {
                Some(row) => writer.write_row(table, &row)?,
                None => writer.write_delete(table, key)?,
            }
        }
        let installed = store.install_delta(writer.finish()?)?;
        store.truncate_log()?;
        Ok(installed)
    }

    /// Recover from a [`RecoveryPlan`]: bulk-load the checkpoint chain (base
    /// image plus deltas, if any), then the log tail above the last chain
    /// element's LSN, skipping records already inside the chain
    /// (`end_ts <= read_ts`).
    ///
    /// The load is sharded by table across a worker pool
    /// (`MMDB_RECOVERY_WORKERS`, defaulting to the machine's parallelism
    /// capped at 8); chain rows, chain tombstones and tail ops collapse into
    /// one [`Durable::populate`] per table, so replaying a log the engine is
    /// attached to never re-appends the tail.
    ///
    /// The report's `valid_bytes` is the *physical* clean prefix of the live
    /// log segment — what `CheckpointStore::open` takes to resume appending.
    fn recover_from_checkpoint(&self, plan: &RecoveryPlan) -> Result<RecoveryReport> {
        self.recover_from_checkpoint_with(plan, default_workers())
    }

    /// [`Durable::recover_from_checkpoint`] with an explicit worker count.
    /// The result is identical for any count; 1 is the serial load.
    fn recover_from_checkpoint_with(
        &self,
        plan: &RecoveryPlan,
        workers: usize,
    ) -> Result<RecoveryReport> {
        let key_of = |table: TableId, row: &Row| self.primary_key_of(table, row);
        let apply = |table: TableId, rows: Vec<Row>| self.populate(table, rows).map(|_| ());
        let image = recover_partitioned(plan, workers, &key_of, &apply)?;
        // The recovered timestamps came from the previous process's clock;
        // snapshots, commit timestamps and delta-checkpoint windows drawn
        // from now on must postdate them.
        self.advance_clock_past(image.max_end_ts);
        Ok(RecoveryReport {
            records_applied: image.tail_records,
            valid_bytes: image.valid_bytes,
            torn_bytes: image.torn_bytes,
        })
    }

    /// Replay redo records through ordinary transactions, in end-timestamp
    /// order ("commit ordering is determined by transaction end timestamps",
    /// §3.2): a `Write` op upserts the row by primary key, a `Delete` op
    /// removes it. Returns the number of records applied.
    fn replay_log(&self, mut records: Vec<LogRecord>) -> Result<usize> {
        records.sort_by_key(|r| r.end_ts);
        let applied = records.len();
        for record in records {
            let mut txn = self.begin(IsolationLevel::ReadCommitted);
            for op in record.ops {
                match op {
                    LogOp::Write { table, row } => {
                        let key = self.primary_key_of(table, &row)?;
                        if !txn.update(table, IndexId(0), key, row.clone())? {
                            txn.insert(table, row)?;
                        }
                    }
                    LogOp::Delete { table, key } => {
                        txn.delete(table, IndexId(0), key)?;
                    }
                }
            }
            txn.commit()?;
        }
        Ok(applied)
    }

    /// Recover from the framed bytes of a redo log: decode every complete
    /// record — tolerating a torn tail left by a crash mid-append — and
    /// [`Durable::replay_log`] them.
    fn recover_bytes(&self, bytes: &[u8]) -> Result<RecoveryReport> {
        let outcome = read_log_bytes(bytes)?;
        Ok(RecoveryReport {
            records_applied: self.replay_log(outcome.records)?,
            valid_bytes: outcome.valid_bytes,
            torn_bytes: outcome.torn_bytes,
        })
    }

    /// [`Durable::recover_bytes`] of the redo-log file at `path`.
    fn recover_file(&self, path: &Path) -> Result<RecoveryReport> {
        let bytes = std::fs::read(path).map_err(|e| MmdbError::LogIo(e.to_string()))?;
        self.recover_bytes(&bytes)
    }
}

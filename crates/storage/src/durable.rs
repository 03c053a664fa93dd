//! The durability lifecycle, written once for every engine.
//!
//! The paper's durability story is small: each committed transaction emits
//! one redo record carrying its end timestamp, after-images and deleted keys
//! (§3.2), hardened by an asynchronous group commit nobody waits on (§5);
//! recovery keeps, per primary key, the op with the newest end timestamp.
//! Checkpoints bound the log recovery reads. What an engine contributes is
//! only what depends on how it stores rows — the [`Durable`] trait's five
//! required methods. Policy dispatch, delta checkpoints and recovery are
//! provided here, so a later durability feature has one implementation to
//! build on.

use std::io::Read;

use mmdb_common::durability::CheckpointPolicy;
use mmdb_common::engine::Engine;
use mmdb_common::error::{MmdbError, Result};
use mmdb_common::ids::{Key, TableId, Timestamp};
use mmdb_common::row::Row;

use crate::checkpoint::{CheckpointRef, CheckpointStore, RecoveryPlan};
use crate::log::{open_log_range, FrameStream, Lsn, RecoveryReport, RedoLogger as _, READ_CHUNK};
use crate::recovery::{default_workers, recover_partitioned, NewestWins};

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
/// engines whose tables were re-created with the same ids: recovery
/// bulk-loads them through [`Durable::populate`].
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
    /// timestamp (§3.2, §5), so the delta is that log window folded newest
    /// wins per primary key (the fold recovery uses): a row for a key whose
    /// newest op writes it, a tombstone for one whose newest op deletes it.
    /// Frames below the parent's LSN commit at or below `P` and were
    /// truncated with it; `end_ts > P` drops the rest of the parent's window.
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
        let mut window = open_log_range(&store.log_path(), 0, Some(limit))?;
        let mut fold = NewestWins::default();
        while let Some(record) = window.next_record()? {
            if record.end_ts <= parent.read_ts || record.end_ts > barrier.read_ts {
                continue;
            }
            for op in record.ops {
                fold.push(record.end_ts, op, |table, row| {
                    self.primary_key_of(table, row)
                })?;
            }
        }
        let mut writer = store.begin_delta(barrier.tail_lsn, barrier.read_ts)?;
        for (table, ops) in fold.into_tables() {
            for (key, row) in ops {
                match row {
                    Some(row) => writer.write_row(table, &row)?,
                    None => writer.write_delete(table, key)?,
                }
            }
        }
        let installed = store.install_delta(writer.finish()?)?;
        store.truncate_log()?;
        Ok(installed)
    }

    /// Recover from a [`RecoveryPlan`]: fold the checkpoint chain (base
    /// image plus deltas, if any) and the log tail above the last chain
    /// element's LSN newest-wins per primary key, skipping tail records
    /// already inside the chain (`end_ts <= read_ts`), and bulk-load the
    /// result with one [`Durable::populate`] per table. The fold is sharded
    /// by table across the machine's available parallelism, capped at 8
    /// workers. Nothing is re-appended to the engine's log.
    ///
    /// The report's `valid_bytes` is the *physical* clean prefix of the live
    /// log segment — what `CheckpointStore::open` takes to resume appending.
    fn recover_from_checkpoint(&self, plan: &RecoveryPlan) -> Result<RecoveryReport> {
        let tail = open_log_range(&plan.log_path, plan.log_tail_offset(), None)?;
        recover(self, &plan.chain, tail)
    }

    /// Recover from the framed bytes of a redo log: the same fold over an
    /// empty chain. A torn tail left by a crash mid-append is tolerated.
    fn recover_bytes(&self, bytes: &[u8]) -> Result<RecoveryReport> {
        recover(self, &[], FrameStream::new(bytes, READ_CHUNK, 0))
    }
}

/// The one recovery: fold `chain` + `tail` into `engine`, then advance its
/// clock past every recovered timestamp.
fn recover<E: Durable + ?Sized>(
    engine: &E,
    chain: &[CheckpointRef],
    tail: FrameStream<impl Read>,
) -> Result<RecoveryReport> {
    let key_of = |table: TableId, row: &Row| engine.primary_key_of(table, row);
    let apply = |table: TableId, rows: Vec<Row>| engine.populate(table, rows).map(|_| ());
    let image = recover_partitioned(chain, tail, default_workers(), &key_of, &apply)?;
    // The recovered timestamps came from the previous process's clock;
    // snapshots, commit timestamps and delta-checkpoint windows drawn from
    // now on must postdate them.
    engine.advance_clock_past(image.max_end_ts);
    Ok(RecoveryReport {
        records_applied: image.tail_records,
        valid_bytes: image.valid_bytes,
        torn_bytes: image.torn_bytes,
    })
}

//! The single-version locking engine (1V) and its transactions.
//!
//! Records are updated in place; concurrency control is strict two-phase
//! locking over the partitioned per-hash-key lock tables embedded in each
//! index, with timeouts to break deadlocks (§5 of the paper). Because a lock
//! covers every record with the same hash key, equality scans are
//! automatically protected against phantoms, so Serializable costs no more
//! than Repeatable Read.
//!
//! Isolation levels:
//!
//! * **ReadCommitted** — shared locks are released right after each read
//!   (cursor stability); exclusive locks are held to commit.
//! * **RepeatableRead / Serializable** — shared locks are held to commit.
//! * **SnapshotIsolation** — a single-version engine has no snapshots to
//!   offer; it is treated as RepeatableRead (this limitation is exactly what
//!   motivates the multiversion schemes).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mmdb_common::clock::GlobalClock;
use mmdb_common::durability::Durability;
use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::error::{MmdbError, Result};
use mmdb_common::ids::{IndexId, Key, TableId, Timestamp, TxnId};
use mmdb_common::isolation::IsolationLevel;
use mmdb_common::row::{KeyScratch, Row, TableSpec};
use mmdb_common::stats::EngineStats;

use mmdb_storage::catalog::Catalog;
use mmdb_storage::checkpoint::{CheckpointStore, FinishedCheckpoint};
use mmdb_storage::durable::{DeltaBarrier, Durable};
use mmdb_storage::log::{encode_frame_into, LogOp, NullLogger, RedoLogger};

use crate::lock::{LockGrant, LockMode};
use crate::table::SvTable;

/// Configuration of the single-version engine.
#[derive(Debug, Clone)]
pub struct SvConfig {
    /// How long a lock request waits before it is treated as a deadlock and
    /// the requesting transaction aborts.
    pub lock_timeout: Duration,
    /// Default commit durability ([`Durability::Async`]: commit never waits
    /// for log I/O, matching the paper's setup). Individual transactions
    /// override it via [`SvTransaction::set_durability`].
    pub durability: Durability,
}

impl Default for SvConfig {
    fn default() -> Self {
        SvConfig {
            lock_timeout: Duration::from_millis(500),
            durability: Durability::Async,
        }
    }
}

impl SvConfig {
    /// Builder-style override of the lock timeout.
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }

    /// Builder-style override of the default commit durability.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }
}

struct SvInner {
    /// Epoch-published append-only table registry — same lock-free
    /// publication as the multiversion store's catalog: per-operation
    /// lookups load the published slice without any `RwLock`.
    tables: Catalog<SvTable>,
    clock: GlobalClock,
    logger: Arc<dyn RedoLogger>,
    stats: EngineStats,
    config: SvConfig,
    next_txn: AtomicU64,
}

/// The single-version locking engine ("1V").
#[derive(Clone)]
pub struct SvEngine {
    inner: Arc<SvInner>,
}

impl SvEngine {
    /// Create an engine with a discarding logger.
    pub fn new(config: SvConfig) -> SvEngine {
        Self::with_logger(config, Arc::new(NullLogger::new()))
    }

    /// Create an engine writing redo records to `logger`.
    pub fn with_logger(config: SvConfig, logger: Arc<dyn RedoLogger>) -> SvEngine {
        SvEngine {
            inner: Arc::new(SvInner {
                tables: Catalog::new(),
                clock: GlobalClock::new(),
                logger,
                stats: EngineStats::new(),
                config,
                next_txn: AtomicU64::new(1),
            }),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &SvConfig {
        &self.inner.config
    }

    fn table(&self, id: TableId) -> Result<Arc<SvTable>> {
        self.inner
            .tables
            .get(id.0 as usize)
            .ok_or(MmdbError::TableNotFound(id))
    }

    /// Bulk-load rows outside any transaction (initial population).
    pub fn populate<I>(&self, table: TableId, rows: I) -> Result<usize>
    where
        I: IntoIterator<Item = Row>,
    {
        let table = self.table(table)?;
        let mut n = 0;
        for row in rows {
            table.insert_row(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Number of rows in `table` (diagnostic).
    pub fn row_count(&self, table: TableId) -> Result<usize> {
        Ok(self.table(table)?.row_count())
    }

    /// Shared-lock every primary bucket of every table in canonical order;
    /// every lock taken is pushed onto `held` so the caller releases them
    /// on every path (success, lock timeout, I/O error).
    fn acquire_all_primary(&self, me: TxnId, held: &mut Vec<(TableId, usize)>) -> Result<()> {
        for idx in 0..self.inner.tables.len() {
            let table_id = TableId(idx as u32);
            let table = self.table(table_id)?;
            let locks = table.lock_table(IndexId(0))?;
            for bucket in 0..table.bucket_count(IndexId(0))? {
                match locks.lock_for(bucket).acquire(
                    me,
                    LockMode::Shared,
                    self.inner.config.lock_timeout,
                ) {
                    Some(_) => held.push((table_id, bucket)),
                    None => {
                        EngineStats::bump(&self.inner.stats.deadlock_aborts);
                        return Err(MmdbError::LockTimeout { table: table_id });
                    }
                }
            }
        }
        Ok(())
    }

    /// Release the locks `acquire_all_primary` recorded.
    fn release_held(&self, me: TxnId, held: &[(TableId, usize)]) {
        for &(table_id, bucket) in held {
            if let Ok(table) = self.table(table_id) {
                if let Ok(locks) = table.lock_table(IndexId(0)) {
                    locks.lock_for(bucket).release(me);
                }
            }
        }
    }

    /// Lock-acquire + walk phase of the base checkpoint.
    fn checkpoint_walk(
        &self,
        store: &CheckpointStore,
        me: TxnId,
        held: &mut Vec<(TableId, usize)>,
    ) -> Result<FinishedCheckpoint> {
        self.acquire_all_primary(me, held)?;
        // All writers are drained (strict 2PL: anyone mid-commit still held
        // exclusive primary locks across its log append); the LSN and
        // timestamp captured now bound each other exactly.
        let ckpt_lsn = store.logger().appended_lsn();
        let read_ts = self.inner.clock.next_timestamp();
        let mut writer = store.begin_image(ckpt_lsn, read_ts, Timestamp::ZERO)?;
        for idx in 0..self.inner.tables.len() {
            let table_id = TableId(idx as u32);
            let table = self.table(table_id)?;
            let mut write_err: Option<MmdbError> = None;
            table.visit_all(&mut |row| {
                if write_err.is_none() {
                    if let Err(e) = writer.write_row(table_id, row) {
                        write_err = Some(e);
                    }
                }
            });
            if let Some(e) = write_err {
                return Err(e);
            }
        }
        writer.finish()
    }
}

impl Durable for SvEngine {
    /// Write a base image of every table into `store`.
    ///
    /// The engine must route its redo stream through `store`'s group-commit
    /// log ([`SvEngine::with_logger`] of `CheckpointStore::logger`).
    ///
    /// Unlike the multiversion engines, the single-version walk **blocks
    /// writers**: with one version per row the only consistent image is the
    /// current one, so the walk takes a shared lock on every primary bucket
    /// of every table (canonical order; lock timeouts break deadlocks with
    /// concurrent writers, surfacing as a retryable
    /// [`MmdbError::LockTimeout`]). This is the paper's single-version
    /// trade-off showing up in checkpointing, deliberately preserved as the
    /// 1V contrast. The ordering contract is *stronger* than MV's: the
    /// checkpoint LSN and the snapshot timestamp are both captured while
    /// every primary bucket is locked — writers are fully drained (a
    /// committer holds its exclusive locks across frame append), so the
    /// frames below the LSN are exactly the commits below the timestamp.
    fn base_image(&self, store: &CheckpointStore) -> Result<FinishedCheckpoint> {
        // The walk needs a lock owner of its own.
        let me = TxnId(self.inner.next_txn.fetch_add(1, Ordering::Relaxed));
        let mut held: Vec<(TableId, usize)> = Vec::new();
        let result = self.checkpoint_walk(store, me, &mut held);
        self.release_held(me, &held);
        result
    }

    /// Capture a delta's barrier. Where the base image must hold its locks
    /// for the whole table walk, the delta holds them only for an instant:
    /// with every primary bucket share-locked, writers are drained (a
    /// committer holds its exclusive locks across its frame append), so the
    /// appended LSN and a timestamp captured now bound each other exactly,
    /// and that one LSN serves as both LSNs of the barrier. Writers are
    /// blocked only for the capture, turning the 1V checkpoint stall from
    /// O(database) into O(lock count).
    fn delta_barrier(&self, store: &CheckpointStore) -> Result<DeltaBarrier> {
        let me = TxnId(self.inner.next_txn.fetch_add(1, Ordering::Relaxed));
        let mut held: Vec<(TableId, usize)> = Vec::new();
        let barrier = self.acquire_all_primary(me, &mut held).map(|()| {
            let lsn = store.logger().appended_lsn();
            DeltaBarrier {
                tail_lsn: lsn,
                read_limit_lsn: lsn,
                read_ts: self.inner.clock.next_timestamp(),
            }
        });
        self.release_held(me, &held);
        barrier
    }

    fn primary_key_of(&self, table: TableId, row: &Row) -> Result<Key> {
        self.table(table)?.key_of(IndexId(0), row)
    }

    fn populate(&self, table: TableId, rows: Vec<Row>) -> Result<usize> {
        SvEngine::populate(self, table, rows)
    }

    fn advance_clock_past(&self, ts: Timestamp) {
        self.inner.clock.advance_past(ts);
    }
}

impl Engine for SvEngine {
    type Txn = SvTransaction;

    fn create_table(&self, spec: TableSpec) -> Result<TableId> {
        let idx = self
            .inner
            .tables
            .push_with(|idx| SvTable::new(TableId(idx as u32), spec))?;
        Ok(TableId(idx as u32))
    }

    fn begin(&self, isolation: IsolationLevel) -> SvTransaction {
        SvTransaction {
            inner: Arc::clone(&self.inner),
            id: TxnId(self.inner.next_txn.fetch_add(1, Ordering::Relaxed)),
            isolation,
            held_locks: Vec::new(),
            undo: Vec::new(),
            log_ops: Vec::new(),
            keys: KeyScratch::new(),
            finished: false,
            must_abort: false,
            durability: self.inner.config.durability,
        }
    }

    fn stats(&self) -> &EngineStats {
        &self.inner.stats
    }

    fn label(&self) -> &'static str {
        "1V"
    }
}

impl std::fmt::Debug for SvEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SvEngine")
            .field("tables", &self.inner.tables.len())
            .finish()
    }
}

thread_local! {
    /// Each thread's commit-frame encode buffer, reused across commits.
    static LOG_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// An undo-log entry for in-place changes.
#[derive(Debug, Clone)]
enum UndoOp {
    /// Undo an insert by deleting the row again.
    Insert { table: TableId, pk: Key },
    /// Undo an update by restoring the old image.
    Update { table: TableId, pk: Key, old: Row },
    /// Undo a delete by re-inserting the old image.
    Delete { table: TableId, old: Row },
}

/// A transaction against the single-version engine.
pub struct SvTransaction {
    inner: Arc<SvInner>,
    id: TxnId,
    isolation: IsolationLevel,
    /// Locks held until commit/abort: (table, index, bucket).
    held_locks: Vec<(TableId, IndexId, usize)>,
    undo: Vec<UndoOp>,
    log_ops: Vec<LogOp>,
    /// Reusable per-index key extraction buffer (cleared, never freed).
    keys: KeyScratch,
    finished: bool,
    must_abort: bool,
    /// When `commit()` may return relative to log durability.
    durability: Durability,
}

impl SvTransaction {
    /// Resolve a table: a lock-free load of the published catalog slice (no
    /// `RwLock` on the per-operation lookup path; the `Arc` clone remains —
    /// unlike the MV engines, 1V does not thread epoch guards through its
    /// operations, which is part of the documented 1V contrast).
    fn table(&self, id: TableId) -> Result<Arc<SvTable>> {
        self.inner
            .tables
            .get(id.0 as usize)
            .ok_or(MmdbError::TableNotFound(id))
    }

    fn holds_lock(&self, table: TableId, index: IndexId, bucket: usize) -> bool {
        self.held_locks
            .iter()
            .any(|&(t, i, b)| t == table && i == index && b == bucket)
    }

    /// Acquire a lock, remembering it for release at end of transaction.
    /// Returns the grant so read-committed readers can decide to release
    /// immediately.
    fn lock(
        &mut self,
        table: &SvTable,
        index: IndexId,
        bucket: usize,
        mode: LockMode,
    ) -> Result<LockGrant> {
        let grant = table.lock_table(index)?.lock_for(bucket).acquire(
            self.id,
            mode,
            self.inner.config.lock_timeout,
        );
        match grant {
            Some(grant) => {
                if grant == LockGrant::Acquired && !self.holds_lock(table.id(), index, bucket) {
                    self.held_locks.push((table.id(), index, bucket));
                }
                Ok(grant)
            }
            None => {
                EngineStats::bump(&self.inner.stats.deadlock_aborts);
                self.must_abort = true;
                Err(MmdbError::LockTimeout { table: table.id() })
            }
        }
    }

    /// Drop a lock immediately (cursor stability for read-committed reads).
    fn unlock_now(&mut self, table: &SvTable, index: IndexId, bucket: usize) -> Result<()> {
        table.lock_table(index)?.lock_for(bucket).release(self.id);
        if let Some(pos) = self
            .held_locks
            .iter()
            .position(|&(t, i, b)| t == table.id() && i == index && b == bucket)
        {
            self.held_locks.swap_remove(pos);
        }
        Ok(())
    }

    /// Acquire exclusive locks on every index bucket `row` maps to (writers
    /// must block readers on every access path to prevent dirty reads).
    fn lock_row_exclusive(&mut self, table: &SvTable, row: &[u8]) -> Result<()> {
        let mut keys = std::mem::take(&mut self.keys);
        let result = (|| {
            table.keys_into(row, &mut keys)?;
            // Canonical order reduces (but cannot eliminate) deadlocks;
            // timeouts break the rest.
            let mut targets: Vec<(IndexId, usize)> = Vec::with_capacity(keys.keys().len());
            for (slot, key) in keys.keys().iter().enumerate() {
                let index = IndexId(slot as u32);
                targets.push((index, table.bucket_of_key(index, *key)?));
            }
            targets.sort_unstable_by_key(|&(i, b)| (i.0, b));
            for (index, bucket) in targets {
                self.lock(table, index, bucket, LockMode::Exclusive)?;
            }
            Ok(())
        })();
        keys.clear();
        self.keys = keys;
        result
    }

    fn release_all_locks(&mut self) {
        let held = std::mem::take(&mut self.held_locks);
        for (table_id, index, bucket) in held {
            if let Ok(table) = self.table(table_id) {
                if let Ok(locks) = table.lock_table(index) {
                    locks.lock_for(bucket).release(self.id);
                }
            }
        }
    }

    fn rollback(&mut self) {
        // Undo in reverse order.
        let undo = std::mem::take(&mut self.undo);
        for op in undo.into_iter().rev() {
            match op {
                UndoOp::Insert { table, pk } => {
                    if let Ok(t) = self.table(table) {
                        let _ = t.delete_row(pk);
                    }
                }
                UndoOp::Update { table, pk, old } => {
                    if let Ok(t) = self.table(table) {
                        let _ = t.update_row(pk, old);
                    }
                }
                UndoOp::Delete { table, old } => {
                    if let Ok(t) = self.table(table) {
                        let _ = t.insert_row(old);
                    }
                }
            }
        }
    }

    fn finish(&mut self, committed: bool) {
        if self.finished {
            return;
        }
        if committed {
            EngineStats::bump(&self.inner.stats.commits);
        } else {
            self.rollback();
            EngineStats::bump(&self.inner.stats.aborts);
        }
        self.release_all_locks();
        self.finished = true;
    }

    fn ensure_open(&self) -> Result<()> {
        if self.finished {
            return Err(MmdbError::TransactionClosed);
        }
        Ok(())
    }

    /// Shared-lock behaviour for reads at this isolation level: `None` means
    /// "no lock at all" (never used — even read committed takes short locks),
    /// `Some(true)` means keep until commit, `Some(false)` means release
    /// right after the read.
    fn hold_read_locks(&self) -> bool {
        !matches!(self.isolation, IsolationLevel::ReadCommitted)
    }

    /// Shared core of every read/scan: lock the access path, visit the
    /// matching rows in place (no `Vec<Row>` materialization), release the
    /// lock immediately under cursor stability.
    fn scan_key_core(
        &mut self,
        table_id: TableId,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        self.ensure_open()?;
        let table = self.table(table_id)?;
        let bucket = table.bucket_of_key(index, key)?;
        let grant = self.lock(&table, index, bucket, LockMode::Shared)?;
        let visited = table.visit_lookup(index, key, visit)?;
        if !self.hold_read_locks() && grant == LockGrant::Acquired {
            // Cursor stability: the lock only had to be held for the duration
            // of the read itself.
            self.unlock_now(&table, index, bucket)?;
        }
        Ok(visited)
    }

    /// Shared core of every range scan: shared-lock *every* bucket of the
    /// scanned ordered index (ascending, matching the canonical order
    /// writers use), visit the matching rows in ascending key order, release
    /// the locks immediately under cursor stability.
    ///
    /// A range predicate can match keys in any bucket, and writers acquire
    /// an exclusive lock on the scanned index's bucket for every row they
    /// touch — so holding shared locks on all of its buckets keeps the whole
    /// predicate stable until commit, which is 1V's phantom protection for
    /// ranges (ordered indexes declare a single physical bucket, so this is
    /// one lock in practice; the paper's point that single-version locking
    /// pays for serializability with lost concurrency shows up here as
    /// "range scans lock the entire index").
    fn scan_range_core(
        &mut self,
        table_id: TableId,
        index: IndexId,
        lo: Key,
        hi: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        self.ensure_open()?;
        let table = self.table(table_id)?;
        if !table.is_ordered(index)? {
            return Err(MmdbError::IndexNotOrdered(table_id, index));
        }
        let buckets = table.bucket_count(index)?;
        let mut grants = Vec::with_capacity(buckets);
        for bucket in 0..buckets {
            grants.push(self.lock(&table, index, bucket, LockMode::Shared)?);
        }
        let visited = table.visit_range(index, lo, hi, visit)?;
        if !self.hold_read_locks() {
            for (bucket, grant) in grants.into_iter().enumerate() {
                if grant == LockGrant::Acquired {
                    self.unlock_now(&table, index, bucket)?;
                }
            }
        }
        Ok(visited)
    }
}

impl EngineTxn for SvTransaction {
    fn id(&self) -> TxnId {
        self.id
    }

    fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    fn set_durability(&mut self, durability: Durability) {
        self.durability = durability;
    }

    fn insert(&mut self, table_id: TableId, row: Row) -> Result<()> {
        self.ensure_open()?;
        let table = self.table(table_id)?;
        self.lock_row_exclusive(&table, &row)?;
        let mut keys = std::mem::take(&mut self.keys);
        let result = (|| {
            table.keys_into(&row, &mut keys)?;
            table.check_unique(&row, None)?;
            table.insert_row(row.clone())?;
            EngineStats::bump(&self.inner.stats.versions_created);
            self.undo.push(UndoOp::Insert {
                table: table_id,
                pk: keys.keys()[0],
            });
            self.log_ops.push(LogOp::Write {
                table: table_id,
                row,
            });
            Ok(())
        })();
        keys.clear();
        self.keys = keys;
        result
    }

    fn read_with(
        &mut self,
        table: TableId,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<bool> {
        let mut seen = false;
        self.scan_key_core(table, index, key, &mut |row| {
            if !seen {
                seen = true;
                visit(row);
            }
        })?;
        Ok(seen)
    }

    fn scan_key_with(
        &mut self,
        table: TableId,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        self.scan_key_core(table, index, key, visit)
    }

    fn scan_range_with(
        &mut self,
        table: TableId,
        index: IndexId,
        lo: Key,
        hi: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        self.scan_range_core(table, index, lo, hi, visit)
    }

    fn update(
        &mut self,
        table_id: TableId,
        index: IndexId,
        key: Key,
        new_row: Row,
    ) -> Result<bool> {
        self.ensure_open()?;
        let table = self.table(table_id)?;
        // Lock the access path, find the target, then lock the row across all
        // of its indexes (old and new keys) before modifying anything.
        let bucket = table.bucket_of_key(index, key)?;
        self.lock(&table, index, bucket, LockMode::Exclusive)?;
        let Some(target) = table.lookup(index, key)?.into_iter().next() else {
            return Ok(false);
        };
        self.lock_row_exclusive(&table, &target)?;
        self.lock_row_exclusive(&table, &new_row)?;
        table.check_unique(&new_row, Some(&target))?;
        let pk = table.key_of(IndexId(0), &target)?;
        let new_pk = table.key_of(IndexId(0), &new_row)?;
        if new_pk != pk {
            // Updating the primary key is modelled as delete + insert.
            let old = table
                .delete_row(pk)?
                .ok_or(MmdbError::Internal("locked row vanished"))?;
            self.undo.push(UndoOp::Delete {
                table: table_id,
                old,
            });
            table.insert_row(new_row.clone())?;
            self.undo.push(UndoOp::Insert {
                table: table_id,
                pk: new_pk,
            });
        } else {
            let old = table
                .update_row(pk, new_row.clone())?
                .ok_or(MmdbError::Internal("locked row vanished"))?;
            self.undo.push(UndoOp::Update {
                table: table_id,
                pk,
                old,
            });
        }
        EngineStats::bump(&self.inner.stats.versions_created);
        self.log_ops.push(LogOp::Write {
            table: table_id,
            row: new_row,
        });
        Ok(true)
    }

    fn delete(&mut self, table_id: TableId, index: IndexId, key: Key) -> Result<bool> {
        self.ensure_open()?;
        let table = self.table(table_id)?;
        let bucket = table.bucket_of_key(index, key)?;
        self.lock(&table, index, bucket, LockMode::Exclusive)?;
        let Some(target) = table.lookup(index, key)?.into_iter().next() else {
            return Ok(false);
        };
        self.lock_row_exclusive(&table, &target)?;
        let pk = table.key_of(IndexId(0), &target)?;
        let old = table
            .delete_row(pk)?
            .ok_or(MmdbError::Internal("locked row vanished"))?;
        self.undo.push(UndoOp::Delete {
            table: table_id,
            old,
        });
        self.log_ops.push(LogOp::Delete {
            table: table_id,
            key: pk,
        });
        Ok(true)
    }

    fn commit(mut self) -> Result<Timestamp> {
        if self.finished {
            return Err(MmdbError::TransactionClosed);
        }
        if self.must_abort {
            self.finish(false);
            return Err(MmdbError::Aborted);
        }
        let ts = self.inner.clock.next_timestamp();
        if !self.log_ops.is_empty() {
            let ticket = LOG_BUF.with(|buf| {
                let mut buf = buf.borrow_mut();
                buf.clear();
                let log_bytes =
                    encode_frame_into(&mut buf, ts, self.log_ops.iter().map(LogOp::as_ref));
                EngineStats::bump(&self.inner.stats.log_records);
                EngineStats::add(&self.inner.stats.log_bytes, log_bytes);
                self.inner.logger.append_frame_ticketed(&buf)
            });
            // A Sync commit waits for the flush covering its frame. On a
            // sticky log I/O error it rolls back in memory — matching the
            // durable log, which is only trusted up to the first error.
            if self.durability == Durability::Sync {
                if let Err(err) = self.inner.logger.wait_durable(ticket) {
                    self.finish(false);
                    return Err(err);
                }
            }
        }
        self.finish(true);
        Ok(ts)
    }

    fn abort(mut self) {
        self.finish(false);
    }
}

impl Drop for SvTransaction {
    fn drop(&mut self) {
        if !self.finished {
            self.finish(false);
        }
    }
}

impl std::fmt::Debug for SvTransaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SvTransaction")
            .field("id", &self.id)
            .field("isolation", &self.isolation)
            .field("locks", &self.held_locks.len())
            .field("undo", &self.undo.len())
            .finish()
    }
}

//! The multiversion transaction: shared infrastructure and the normal
//! processing phase (§2.4 step 2, §3.1, §4.3.1).
//!
//! One [`MvTransaction`] type serves both concurrency-control schemes; the
//! [`ConcurrencyMode`] chosen at `begin` decides which extra steps run:
//!
//! * **Optimistic (MV/O, §3)** — reads and scans are recorded in the ReadSet
//!   and ScanSet for validation at commit; no locks are taken.
//! * **Pessimistic (MV/L, §4)** — reads of latest versions take record read
//!   locks, serializable scans take bucket locks, and eager updates/inserts
//!   install wait-for dependencies instead of blocking.
//!
//! Both modes use the same visibility logic, the same write-lock installation
//! (a CAS on the version's End word) and the same commit-dependency machinery
//! for speculative reads, which is what makes them mutually compatible
//! (§4.5).

use std::sync::Arc;

use crossbeam::epoch;

use mmdb_common::durability::Durability;
use mmdb_common::engine::EngineTxn;
use mmdb_common::error::{MmdbError, Result};
use mmdb_common::ids::{IndexId, Key, TableId, Timestamp, TxnId};
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_common::row::{KeyScratch, Row, SearchPred};
use mmdb_common::stats::EngineStats;
use mmdb_common::word::{BeginWord, EndWord, LockWord};

use mmdb_storage::table::{Table, VersionPtr};
use mmdb_storage::txn_table::{DepRegistration, TxnState};
use mmdb_storage::version::Version;

use crate::context::TxnContext;
use crate::engine::MvInner;
use crate::visibility::{check_updatable, check_visibility, Updatability, Visibility};

/// A pointer to a version the transaction read (checked again during
/// optimistic validation).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadEntry {
    pub version: VersionPtr,
}

/// A recorded index scan, sufficient to repeat it during validation
/// (§3.1 "Start scan": index plus search predicate — an equality predicate
/// on a hash or ordered index, or an inclusive range predicate on an
/// ordered index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScanEntry {
    pub table: TableId,
    pub index: IndexId,
    pub pred: SearchPred,
}

/// A recorded write: the old version (update/delete) and/or the new version
/// (insert/update), plus what to put in the redo log.
#[derive(Debug, Clone)]
pub(crate) struct WriteEntry {
    pub table: TableId,
    /// Old version superseded or deleted by this transaction, if any.
    pub old: Option<VersionPtr>,
    /// New version created by this transaction, if any.
    pub new: Option<VersionPtr>,
    /// Primary-index key logged for deletes.
    pub delete_key: Option<Key>,
}

/// A bucket lock held by a serializable pessimistic transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BucketLockRef {
    pub table: TableId,
    pub index: IndexId,
    pub bucket: usize,
}

/// A range lock held by a serializable pessimistic transaction on an
/// ordered index (the predicate-granularity sibling of [`BucketLockRef`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RangeLockRef {
    pub table: TableId,
    pub index: IndexId,
    pub lo: Key,
    pub hi: Key,
}

/// Reusable per-transaction scratch for the write and commit paths, **cleared,
/// not freed** between operations, so steady-state writes and commits perform
/// no heap allocation for them. Reads and scans need none: they judge each
/// version as the index walk reaches it (§3.1), under the operation's epoch
/// guard.
///
/// Usage protocol: an operation takes a buffer out of the transaction
/// (`mem::take`), works on it as a local, and puts it back when done — so the
/// borrow checker never sees the buffer and the transaction borrowed at once.
#[derive(Debug, Default)]
pub(crate) struct TxnScratch {
    /// Per-index key extraction buffer for the write path (insert/update
    /// keys, uniqueness checks, bucket locks).
    pub(crate) keys: KeyScratch,
    /// Redo-record encode buffer: commit frames the transaction's write set
    /// in place and hands `RedoLogger::append_frame` a borrow.
    pub(crate) log_buf: Vec<u8>,
    /// Drain target for the handle's WaitingTxnList and CommitDepSet at
    /// precommit / termination, so neither list gives up its capacity.
    pub(crate) txn_ids: Vec<TxnId>,
    /// Drain target for the handle's read-lock list at lock release (MV/L),
    /// for the same reason.
    pub(crate) read_locks: Vec<VersionPtr>,
}

/// The complete recyclable buffer set of a transaction, pooled as half of a
/// [`TxnContext`]: `begin` takes a warmed set, commit/abort clears and
/// returns it, so a steady-state transaction performs **no allocation for
/// its private state** — the paper's "normal processing never allocates
/// beyond the version chain itself" engineering goal, pinned by
/// `crates/core/tests/alloc_free.rs`.
#[derive(Debug, Default)]
pub(crate) struct TxnBuffers {
    pub(crate) read_set: Vec<ReadEntry>,
    pub(crate) scan_set: Vec<ScanEntry>,
    pub(crate) write_set: Vec<WriteEntry>,
    /// Buckets locked by this (serializable pessimistic) transaction.
    pub(crate) bucket_locks: Vec<BucketLockRef>,
    /// Ordered-index ranges locked by this (serializable pessimistic)
    /// transaction.
    pub(crate) range_locks: Vec<RangeLockRef>,
    /// Distinct tables this transaction has touched, for contention
    /// telemetry at commit/abort. A handful of entries at most, so a linear
    /// `contains` beats any set.
    pub(crate) touched: Vec<TableId>,
    /// Reusable write/commit scratch (cleared, never freed, per operation).
    pub(crate) scratch: TxnScratch,
}

impl TxnBuffers {
    /// Clear every buffer without releasing capacity. Entries are plain
    /// copies (pointers, keys, ids) — nothing to drop.
    pub(crate) fn clear(&mut self) {
        self.read_set.clear();
        self.scan_set.clear();
        self.write_set.clear();
        self.bucket_locks.clear();
        self.range_locks.clear();
        self.touched.clear();
        self.scratch.keys.clear();
        self.scratch.log_buf.clear();
        self.scratch.txn_ids.clear();
        self.scratch.read_locks.clear();
    }
}

/// A transaction against the multiversion engine.
///
/// Obtained from [`Engine::begin`](mmdb_common::engine::Engine::begin) or
/// [`MvEngine::begin_with`](crate::engine::MvEngine::begin_with); finished
/// with [`EngineTxn::commit`] or [`EngineTxn::abort`]. Dropping an unfinished
/// transaction aborts it.
pub struct MvTransaction {
    pub(crate) inner: Arc<MvInner>,
    /// The shared handle plus the read/scan/write sets, lock lists and
    /// scratch: one pooled piece, taken from the beginning thread's pool and
    /// returned whole to the finishing thread's at the end of commit or
    /// abort processing.
    pub(crate) ctx: TxnContext,
    /// Set when an operation failed in a way that forces an abort
    /// (first-writer-wins conflicts, failed dependencies, ...). `commit`
    /// refuses to proceed once set.
    pub(crate) must_abort: Option<MmdbError>,
    /// True once commit/abort processing has run.
    pub(crate) finished: bool,
    /// When `commit()` may return relative to log durability (§5: the
    /// paper's transactions run `Async` and never wait for log I/O).
    pub(crate) durability: Durability,
}

impl MvTransaction {
    pub(crate) fn new(inner: Arc<MvInner>, ctx: TxnContext) -> MvTransaction {
        let durability = inner.config.durability;
        MvTransaction {
            inner,
            ctx,
            must_abort: None,
            finished: false,
            durability,
        }
    }

    /// The transaction's concurrency mode (optimistic or pessimistic).
    pub fn mode(&self) -> ConcurrencyMode {
        self.ctx.handle.mode()
    }

    /// The transaction's begin timestamp.
    pub fn begin_ts(&self) -> Timestamp {
        self.ctx.handle.begin_ts()
    }

    /// The commit durability this transaction will use (defaults to the
    /// engine configuration's [`MvConfig::durability`](crate::config::MvConfig)).
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Override when `commit()` may return relative to log durability.
    /// [`Durability::Sync`] makes `commit()` block until this transaction's
    /// redo bytes are on durable storage — under a
    /// [`GroupCommitLog`](mmdb_storage::group_commit::GroupCommitLog) many
    /// Sync committers share one flush. If the wait reports the log's
    /// sticky I/O error, the commit is rolled back in memory and the error
    /// returned.
    pub fn set_durability(&mut self, durability: Durability) {
        self.durability = durability;
    }

    #[inline]
    pub(crate) fn me(&self) -> TxnId {
        self.ctx.handle.id()
    }

    #[inline]
    pub(crate) fn stats(&self) -> &EngineStats {
        self.inner.store.stats()
    }

    /// Remember that an operation touched `table`, so commit/abort can feed
    /// the right contention-monitor cells.
    #[inline]
    pub(crate) fn note_table(&mut self, table: TableId) {
        if !self.ctx.bufs.touched.contains(&table) {
            self.ctx.bufs.touched.push(table);
        }
    }

    /// The logical read time (§2.5, §3.4, §4.3.1): read-committed reads "now"
    /// so it always sees the latest committed version; snapshot isolation
    /// reads as of the begin time; the serializable / repeatable-read rules
    /// differ between the two schemes (the optimistic scheme reads as of the
    /// begin time and validates, the pessimistic scheme reads the latest
    /// version and locks it).
    ///
    /// "Now" is the latest timestamp *issued*, not the next one (see
    /// [`mmdb_common::clock::GlobalClock::last_issued`]): nobody can still
    /// commit at or before it, so the chain the walk loads after this call
    /// holds every version the read time can see (a locking read that finds
    /// its version superseded meanwhile fails to lock it and aborts).
    /// Pessimistic serializable reads are the exception and take the
    /// next-to-be-issued timestamp: their scan lock, registered before the
    /// walk loads the chain head, already keeps writers of the key from
    /// precommitting under them, and they must also see an insert that
    /// precommitted between this call and that lock, or their repeat would
    /// (ROADMAP "Open bugs" has the window either choice leaves open).
    pub(crate) fn read_time(&self) -> Timestamp {
        let clock = self.inner.store.clock();
        match (self.ctx.handle.mode(), self.ctx.handle.isolation()) {
            (_, IsolationLevel::ReadCommitted) => clock.last_issued(),
            (_, IsolationLevel::SnapshotIsolation) | (ConcurrencyMode::Optimistic, _) => {
                self.ctx.handle.begin_ts()
            }
            (ConcurrencyMode::Pessimistic, IsolationLevel::RepeatableRead) => clock.last_issued(),
            (ConcurrencyMode::Pessimistic, IsolationLevel::Serializable) => clock.now(),
        }
    }

    /// Record a fatal (abort-forcing) error and return it.
    pub(crate) fn fail(&mut self, err: MmdbError) -> MmdbError {
        if self.must_abort.is_none() {
            self.must_abort = Some(err.clone());
        }
        err
    }

    fn ensure_open(&self) -> Result<()> {
        if self.finished {
            return Err(MmdbError::TransactionClosed);
        }
        if self.ctx.handle.abort_requested() {
            return Err(MmdbError::Aborted);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Commit dependencies (§2.7)
    // ------------------------------------------------------------------

    /// Take a commit dependency on `target` because we speculatively read
    /// (`speculative_visible == true`) or speculatively ignored (`false`)
    /// `version` at read time `rt`.
    pub(crate) fn take_commit_dependency(
        &mut self,
        target: TxnId,
        version: &Version,
        speculative_visible: bool,
        rt: Timestamp,
    ) -> Result<()> {
        EngineStats::bump(&self.stats().commit_dependencies);
        self.ctx.handle.add_incoming_commit_dep();
        let guard = epoch::pin();
        match self.inner.store.txns().get_in(target, &guard) {
            Some(t) => match t.add_commit_dependent(self.me()) {
                DepRegistration::Registered => Ok(()),
                DepRegistration::AlreadyCommitted => {
                    self.ctx.handle.resolve_incoming_commit_dep(true);
                    Ok(())
                }
                DepRegistration::AlreadyAborted => {
                    self.ctx.handle.resolve_incoming_commit_dep(true); // rebalance the counter...
                    self.ctx.handle.request_abort(); // ...but the speculation failed
                    Err(self.fail(MmdbError::CommitDependencyFailed))
                }
            },
            None => {
                // The target terminated and finalized the version's fields;
                // decide from what the field says now.
                let ok = if speculative_visible {
                    match version.begin_word().as_timestamp() {
                        Some(ts) => !ts.is_infinity() && ts <= rt,
                        None => false,
                    }
                } else {
                    match version.end_word().as_timestamp() {
                        Some(ts) => ts <= rt,
                        None => false,
                    }
                };
                self.ctx.handle.resolve_incoming_commit_dep(true);
                if ok {
                    Ok(())
                } else {
                    self.ctx.handle.request_abort();
                    Err(self.fail(MmdbError::CommitDependencyFailed))
                }
            }
        }
    }

    /// Interpret a visibility outcome, taking any required commit dependency.
    /// Returns whether the version is visible.
    pub(crate) fn resolve_visibility(
        &mut self,
        version: &Version,
        vis: Visibility,
        rt: Timestamp,
    ) -> Result<bool> {
        if let Some(dep) = vis.dependency {
            self.take_commit_dependency(dep, version, vis.visible, rt)?;
        }
        Ok(vis.visible)
    }

    // ------------------------------------------------------------------
    // Pessimistic record locks (§4.1.1, §4.2.1)
    // ------------------------------------------------------------------

    /// Acquire a read lock on `version` (which the caller determined to be a
    /// latest version visible to us). Installs a wait-for dependency on the
    /// version's write locker if we are the first reader (§4.2.1).
    ///
    /// If the version has been finalized to a committed end timestamp in the
    /// meantime (another writer committed between our visibility check and
    /// the lock attempt), the read is no longer stable and the transaction
    /// aborts — the pessimistic scheme has no validation step that could
    /// catch the stale read later.
    pub(crate) fn acquire_read_lock(&mut self, version: &Version, ptr: VersionPtr) -> Result<()> {
        let outcome = version.update_end(|word| match word {
            EndWord::Timestamp(ts) if ts.is_infinity() => Some(EndWord::Lock(
                LockWord::EMPTY.with_extra_reader().expect("0 < max"),
            )),
            // Superseded by a committed transaction after our visibility
            // check: signal "stop" and abort below.
            EndWord::Timestamp(_) => None,
            EndWord::Lock(lock) => {
                if lock.no_more_read_locks {
                    None
                } else {
                    lock.with_extra_reader().map(EndWord::Lock)
                }
            }
        });

        match outcome {
            Ok((before, _after)) => {
                if let EndWord::Lock(before_lock) = before {
                    if before_lock.read_lock_count == 0 {
                        if let Some(writer) = before_lock.writer {
                            // First read lock on a write-locked version: the
                            // writer must now wait for us (§4.2.1).
                            if !self.install_wait_for_on(writer) {
                                // The writer no longer accepts dependencies;
                                // undo our read lock and abort (the paper's
                                // starvation rule).
                                self.undo_read_lock(version);
                                return Err(self.fail(MmdbError::ReadLockUnavailable));
                            }
                        }
                    }
                }
                self.ctx.handle.record_read_lock(ptr);
                Ok(())
            }
            Err(_observed) => {
                // Either the version was superseded while we were looking
                // (stale read — no lock can make it stable any more) or the
                // read-lock count is saturated / closed. The paper aborts the
                // reader in the latter cases; we abort in both.
                EngineStats::bump(&self.stats().write_conflicts);
                Err(self.fail(MmdbError::ReadLockUnavailable))
            }
        }
    }

    /// Undo a read-lock acquisition whose wait-for installation failed. Sets
    /// `NoMoreReadLocks` so the counter cannot oscillate around zero while
    /// the writer is precommitting.
    fn undo_read_lock(&self, version: &Version) {
        let _ = version.update_end(|word| match word {
            EndWord::Lock(lock) if lock.read_lock_count > 0 => {
                let mut new = lock.with_reader_released();
                new.no_more_read_locks = true;
                Some(EndWord::Lock(new))
            }
            _ => None,
        });
    }

    /// Release one read lock (end of normal processing, §4.3.1), already
    /// taken off the handle's list. If we are the last reader of a
    /// write-locked version we also release the writer's wait-for dependency
    /// (§4.2.1).
    pub(crate) fn release_read_lock(&self, ptr: VersionPtr) {
        let version = ptr.get();
        let outcome = version.update_end(|word| match word {
            EndWord::Lock(lock) if lock.read_lock_count > 0 => {
                let mut new = lock.with_reader_released();
                if new.read_lock_count == 0 && new.writer.is_some() {
                    // Prevent further read locks: the writer is about to be
                    // released and new read locks could not delay it anyway.
                    new.no_more_read_locks = true;
                }
                Some(EndWord::Lock(new))
            }
            // Already finalized to a timestamp (the writer committed and
            // postprocessed) or the lock vanished: nothing to release.
            _ => None,
        });
        if let Ok((EndWord::Lock(before), EndWord::Lock(after))) = outcome {
            if before.read_lock_count == 1 && after.read_lock_count == 0 {
                if let Some(writer) = before.writer {
                    let guard = epoch::pin();
                    if let Some(w) = self.inner.store.txns().get_in(writer, &guard) {
                        w.release_wait_for();
                    }
                }
            }
        }
    }

    /// Install a wait-for dependency *on ourselves* held by `holder`: we may
    /// not precommit until `holder` completes. Registers us in nobody's list
    /// — the dependency is released by whoever owns the triggering resource
    /// (see callers). Returns false if our own counter may no longer grow.
    pub(crate) fn self_wait_on_version(&mut self) -> bool {
        EngineStats::bump(&self.stats().wait_for_dependencies);
        self.ctx.handle.try_add_wait_for()
    }

    /// Make `target` wait for us: increments `target`'s WaitForCounter and
    /// remembers it in our WaitingTxnList so our precommit releases it.
    /// Returns false if `target` no longer accepts wait-for dependencies.
    pub(crate) fn impose_wait_for_on(&mut self, target: TxnId) -> bool {
        if self.ctx.handle.waiting_txns_contain(target) {
            // Already delayed by us (e.g. it waits on our bucket lock, or a
            // previous scan found the same pending version). One wait-for
            // suffices, and re-registering could be refused spuriously once
            // the target has closed its wait-fors for its own precommit wait.
            return true;
        }
        let guard = epoch::pin();
        let Some(t) = self.inner.store.txns().get_in(target, &guard) else {
            // Target already terminated: nothing to delay.
            return true;
        };
        if !t.try_add_wait_for() {
            return false;
        }
        EngineStats::bump(&self.stats().wait_for_dependencies);
        self.ctx.handle.add_waiting_txn(target);
        true
    }

    /// Make ourselves wait for `holder` (bucket-lock case, §4.2.2): increment
    /// our WaitForCounter and register in `holder`'s WaitingTxnList so that
    /// `holder`'s precommit releases us.
    pub(crate) fn wait_for_holder(&mut self, holder: TxnId) -> Result<()> {
        if holder == self.me() {
            return Ok(());
        }
        let guard = epoch::pin();
        let Some(h) = self.inner.store.txns().get_in(holder, &guard) else {
            return Ok(());
        };
        if !self.ctx.handle.try_add_wait_for() {
            return Err(self.fail(MmdbError::WaitForRefused));
        }
        EngineStats::bump(&self.stats().wait_for_dependencies);
        if !h.add_waiting_txn(self.me()) {
            // Holder already completed; no need to wait after all.
            self.ctx.handle.release_wait_for();
        }
        Ok(())
    }

    /// Install a wait-for dependency on `writer` on behalf of ourselves as a
    /// first reader (§4.2.1): `writer` may not precommit until we release our
    /// read lock. The release happens through the lock word (last reader
    /// decrements), so the writer is *not* added to our WaitingTxnList.
    fn install_wait_for_on(&mut self, writer: TxnId) -> bool {
        let guard = epoch::pin();
        let Some(w) = self.inner.store.txns().get_in(writer, &guard) else {
            // Writer terminated; it has already precommitted, nothing to delay.
            return true;
        };
        EngineStats::bump(&self.stats().wait_for_dependencies);
        w.try_add_wait_for()
    }

    // ------------------------------------------------------------------
    // Write-lock installation and new-version linking
    // ------------------------------------------------------------------

    /// Install our write lock on the version `ptr` points at, which the
    /// updatability check said was updatable with End word `observed`.
    /// Preserves any read-lock bits (both schemes honor read locks, §4.5).
    ///
    /// If we hold read locks on the version ourselves they are *upgraded*:
    /// released immediately, because the write lock now guarantees the read's
    /// stability (first-writer-wins — nobody else can supersede the version).
    /// If other transactions still hold read locks after the upgrade, we take
    /// a wait-for dependency: we cannot precommit until their locks drain,
    /// and the last reader to release decrements our counter (§4.2.1).
    pub(crate) fn install_write_lock(&mut self, ptr: VersionPtr, observed: EndWord) -> Result<()> {
        let version = ptr.get();
        let new_word = match observed {
            EndWord::Timestamp(ts) if ts.is_infinity() => {
                EndWord::Lock(LockWord::write_locked(self.me()))
            }
            EndWord::Lock(lock) => EndWord::Lock(lock.with_writer(self.me())),
            EndWord::Timestamp(_) => {
                return Err(self.fail(MmdbError::WriteWriteConflict {
                    txn: self.me(),
                    holder: None,
                }))
            }
        };
        if !version.cas_end(observed, new_word) {
            EngineStats::bump(&self.stats().write_conflicts);
            return Err(self.fail(MmdbError::WriteWriteConflict {
                txn: self.me(),
                holder: version.write_locker(),
            }));
        }
        if let EndWord::Lock(lock) = observed {
            // Counted and dropped from our list in one step; the lock word
            // itself is updated below.
            let own = self.ctx.handle.remove_read_locks_on(ptr) as u8;
            let others = lock.read_lock_count.saturating_sub(own);
            if others > 0 {
                // Eager update of a version read-locked by others: we cannot
                // precommit until their locks drain. Register the wait-for
                // *before* touching the lock word, so the decrement fired by
                // the drain-to-zero transition (release_read_lock, which sees
                // our writer bit after the CAS above) always pairs with this
                // registration — registering afterwards can leave the counter
                // permanently at -1 when the last reader drains in between,
                // silently absorbing one future wait-for dependency.
                self.self_wait_on_version();
            }
            if own > 0 {
                // Upgrade: drop our own read locks — the write lock now
                // guarantees the read's stability, and waiting on our own
                // read lock would deadlock us with ourselves.
                let removed = version.update_end(|word| match word {
                    EndWord::Lock(l) if l.read_lock_count >= own => {
                        let mut upgraded = l;
                        upgraded.read_lock_count -= own;
                        Some(EndWord::Lock(upgraded))
                    }
                    _ => None,
                });
                if others > 0 {
                    if let Ok((_, after)) = removed {
                        let left = after.as_lock().map(|l| l.read_lock_count).unwrap_or(0);
                        if left == 0 {
                            // Our own removal (not a reader's release) brought
                            // the count to zero, so the drain-to-zero wake-up
                            // never fires: undo the registration ourselves.
                            self.ctx.handle.release_wait_for();
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Honor scan locks when adding a new version to the indexes (§4.2.2,
    /// generalized to predicate granularity): for every locked hash bucket
    /// the new version lands in, and for every locked ordered-index range
    /// containing one of its keys, wait for every lock-holding
    /// (serializable) transaction.
    ///
    /// Must be called **after** the version is linked (see
    /// [`Self::add_new_version`]): checking first and linking second leaves a
    /// window in which a scanner can lock the bucket/range and finish its
    /// chain walk without either side noticing the other.
    pub(crate) fn honor_scan_locks(&mut self, table: &Table, keys: &[Key]) -> Result<()> {
        let mut holders = std::mem::take(&mut self.ctx.bufs.scratch.txn_ids);
        let result = (|| {
            for (slot, key) in keys.iter().enumerate() {
                let index = IndexId(slot as u32);
                if table.is_ordered(index)? {
                    let locks = table.range_locks(index)?;
                    if locks.is_locked() {
                        locks.holders_of_into(*key, &mut holders);
                    }
                } else {
                    let locks = table.bucket_locks(index)?;
                    let bucket = table.bucket_of(index, *key)?;
                    if locks.is_locked(bucket) {
                        locks.holders_into(bucket, &mut holders);
                    }
                }
            }
            for holder in holders.iter() {
                self.wait_for_holder(*holder)?;
            }
            Ok(())
        })();
        holders.clear();
        self.ctx.bufs.scratch.txn_ids = holders;
        result
    }

    /// Register a serializable scan for later validation (optimistic) or take
    /// the bucket/range lock (pessimistic). Equality probes of a hash index
    /// lock the bucket the key hashes to (§4.1.2); equality probes of an
    /// ordered index lock the degenerate range `[key, key]`; range scans
    /// lock the scanned predicate `[lo, hi]` itself.
    pub(crate) fn register_scan(
        &mut self,
        table: &Table,
        index: IndexId,
        pred: SearchPred,
    ) -> Result<()> {
        if !self.ctx.handle.isolation().requires_phantom_protection() {
            return Ok(());
        }
        match self.ctx.handle.mode() {
            ConcurrencyMode::Optimistic => {
                let entry = ScanEntry {
                    table: table.id(),
                    index,
                    pred,
                };
                if !self.ctx.bufs.scan_set.contains(&entry) {
                    self.ctx.bufs.scan_set.push(entry);
                }
            }
            ConcurrencyMode::Pessimistic => {
                let (lo, hi) = match pred {
                    SearchPred::Eq(key) if !table.is_ordered(index)? => {
                        let bucket = table.bucket_of(index, key)?;
                        if table.bucket_locks(index)?.lock(bucket, self.me()) {
                            self.ctx.bufs.bucket_locks.push(BucketLockRef {
                                table: table.id(),
                                index,
                                bucket,
                            });
                        }
                        return Ok(());
                    }
                    SearchPred::Eq(key) => (key, key),
                    SearchPred::Range { lo, hi } => (lo, hi),
                };
                if table.range_locks(index)?.lock(lo, hi, self.me()) {
                    self.ctx.bufs.range_locks.push(RangeLockRef {
                        table: table.id(),
                        index,
                        lo,
                        hi,
                    });
                }
            }
        }
        Ok(())
    }

    /// §4.3 store→load fence, scan side. A serializable pessimistic scan
    /// publishes its bucket/range lock and then reads the index chains; a
    /// writer links its new version and then reads the lock tables. Each
    /// side's store must be globally ordered before its subsequent load —
    /// otherwise both can miss the other (the store-buffer litmus), and the
    /// writer may precommit with an *earlier* end timestamp than a scanner
    /// that never saw its version: a phantom. Pairs with the fence in
    /// [`Self::add_new_version`]; skipped when no lock was published, so the
    /// hot read path below serializable never pays the full barrier.
    #[inline]
    fn scan_lock_fence(&self) {
        if self.ctx.handle.mode() == ConcurrencyMode::Pessimistic
            && self.ctx.handle.isolation().requires_phantom_protection()
        {
            std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        }
    }

    // ------------------------------------------------------------------
    // Normal-processing operations
    // ------------------------------------------------------------------

    /// Core of every read, scan and range scan (§3.1 "Start scan → Check
    /// predicate → Check visibility → Read version"): walk the versions whose
    /// `index` key satisfies `pred` — a bucket chain for an equality
    /// predicate, the skip list in ascending key order for an inclusive range
    /// ([`MmdbError::IndexNotOrdered`] on a hash index) — and hand the payload
    /// of each one visible at the read time to `visit` by reference. If
    /// `single` is set, stop at the first visible version (unique-index point
    /// lookup). Returns the number of rows visited.
    ///
    /// Versions are judged **as the walk reaches them**, under the guard
    /// pinned here: an unlink (GC only) leaves the unlinked node's `next`
    /// intact, nothing reachable is freed while the guard is held, and no step
    /// of the walk blocks. The chain-head load is the scan's linearization
    /// point in the §4.3 store→load fence argument. Nothing is materialized
    /// for the caller and the transaction-table lookup is a lock-free borrow,
    /// so this path performs **no heap allocation in steady state**
    /// (`crates/core/tests/alloc_free.rs` pins this).
    fn scan_visible_with(
        &mut self,
        table_id: TableId,
        index: IndexId,
        pred: SearchPred,
        single: bool,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        self.ensure_open()?;
        self.note_table(table_id);
        let guard = epoch::pin();
        // Lock-free table resolution: a load of the epoch-published catalog
        // slice, borrowed under our guard (no `RwLock`, no `Arc` clone).
        let table = self.inner.store.table_in(table_id, &guard)?;
        if matches!(pred, SearchPred::Range { .. }) && !table.is_ordered(index)? {
            return Err(MmdbError::IndexNotOrdered(table_id, index));
        }
        let rt = self.read_time();
        self.register_scan(table, index, pred)?;
        self.scan_lock_fence();
        match pred {
            SearchPred::Eq(key) => {
                let chain = table.candidate_ptrs(index, key, &guard)?;
                self.visit_candidates(chain, rt, single, &guard, visit)
            }
            SearchPred::Range { lo, hi } => {
                let chain = table.range_candidate_ptrs(index, lo, hi, &guard)?;
                self.visit_candidates(chain, rt, single, &guard, visit)
            }
        }
    }

    /// Visibility walk along one index chain (see [`Self::scan_visible_with`]).
    fn visit_candidates(
        &mut self,
        chain: impl Iterator<Item = VersionPtr>,
        rt: Timestamp,
        single: bool,
        guard: &epoch::Guard,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        #[cfg(test)]
        race_hooks::fire(race_hooks::Gap::HeadVisit);
        let iso = self.ctx.handle.isolation();
        let mode = self.ctx.handle.mode();
        let mut visited = 0usize;
        for ptr in chain {
            let version = ptr.get();
            let vis = check_visibility(version, rt, self.me(), self.inner.store.txns(), guard);
            self.delay_potential_phantom(version, vis)?;
            let visible = self.resolve_visibility(version, vis, rt)?;
            if !visible {
                continue;
            }

            // Reads at repeatable-read or serializable need read stability.
            if iso.requires_read_stability() {
                match mode {
                    ConcurrencyMode::Optimistic => {
                        self.ctx.bufs.read_set.push(ReadEntry { version: ptr })
                    }
                    ConcurrencyMode::Pessimistic => {
                        // Updates and deletes only ever touch latest versions,
                        // so only latest versions need read locks. A visible
                        // version at the pessimistic read time ("now") is the
                        // latest unless a writer just superseded it, in which
                        // case `acquire_read_lock` aborts us.
                        self.acquire_read_lock(version, ptr)?;
                    }
                }
            }

            visit(version.data());
            visited += 1;
            if single {
                break;
            }
        }
        Ok(visited)
    }

    /// §4.3.1: to a serializable pessimistic scan, an invisible version owned
    /// by a still-active transaction is a potential phantom — whether it is
    /// being *deleted/updated* (transaction ID in the End field; an abort
    /// would resurrect it) or being *created* (transaction ID in the Begin
    /// field). Delay that transaction's precommit until we are done, so it
    /// serializes after us and our scan result — or our "not found" — stays
    /// exact at our end timestamp. A no-op for every other mode, level and
    /// visibility outcome.
    fn delay_potential_phantom(&mut self, version: &Version, vis: Visibility) -> Result<()> {
        if vis.visible
            || vis.dependency.is_some()
            || self.ctx.handle.mode() != ConcurrencyMode::Pessimistic
            || !self.ctx.handle.isolation().requires_phantom_protection()
        {
            return Ok(());
        }
        let end_writer = version.end_word().writer();
        let begin_creator = version.begin_word().as_txn();
        for owner in [end_writer, begin_creator].into_iter().flatten() {
            if owner != self.me() && !self.impose_wait_for_on(owner) {
                return Err(self.fail(MmdbError::WaitForRefused));
            }
        }
        Ok(())
    }

    /// Locate the version this transaction should update or delete: the
    /// visible version with the given key. Pessimistic transactions (and
    /// read-committed optimistic ones) see the latest committed version,
    /// which is the one that must be updatable.
    fn find_update_target(
        &mut self,
        table: &Table,
        index: IndexId,
        key: Key,
    ) -> Result<Option<VersionPtr>> {
        self.ensure_open()?;
        // Updates never read-lock the target (the write lock supersedes it).
        // A lookup that *finds* its row needs no phantom protection either —
        // the write lock keeps that row stable. Only a *miss* is
        // phantom-sensitive: "key absent" is an observation a serializable
        // transaction relies on, so on a miss we register the lookup
        // (optimistic ScanSet / pessimistic bucket lock) and look again under
        // that protection. Registering unconditionally would make every pair
        // of same-bucket serializable updaters delay each other's precommit
        // for no reason (each waits on the other's bucket lock), turning
        // routine disjoint-key updates into deadlock-victim aborts.
        let rt = self.read_time();
        let mut registered = false;
        loop {
            // The chain is walked afresh each pass: a version may have been
            // linked between the unprotected miss and the protected retry.
            let guard = epoch::pin();
            for ptr in table.candidate_ptrs(index, key, &guard)? {
                let version = ptr.get();
                let vis = check_visibility(version, rt, self.me(), self.inner.store.txns(), &guard);
                if registered {
                    self.delay_potential_phantom(version, vis)?;
                }
                if self.resolve_visibility(version, vis, rt)? {
                    return Ok(Some(ptr));
                }
            }
            if registered || !self.ctx.handle.isolation().requires_phantom_protection() {
                return Ok(None);
            }
            self.register_scan(table, index, SearchPred::Eq(key))?;
            self.scan_lock_fence();
            registered = true;
        }
    }

    /// §2.6 / §3.1 "Check updatability" then "Update version": write-lock the
    /// version `find_update_target` returned, or fail first-writer-wins.
    fn write_lock_target(&mut self, ptr: VersionPtr, guard: &epoch::Guard) -> Result<()> {
        match check_updatable(ptr.get(), self.me(), self.inner.store.txns(), guard) {
            Updatability::Updatable { observed } => self.install_write_lock(ptr, observed),
            Updatability::Conflict { holder } => {
                EngineStats::bump(&self.stats().write_conflicts);
                Err(self.fail(MmdbError::WriteWriteConflict {
                    txn: self.me(),
                    holder,
                }))
            }
        }
    }

    /// Create, register and link a new version carrying `row`, whose index
    /// keys the caller already extracted (once per write — they are shared
    /// with uniqueness checks and bucket-lock honoring). Steady state this
    /// allocates nothing: the version comes from the table's recycle pool
    /// and the write set grows within retained capacity.
    fn add_new_version(
        &mut self,
        table: &Table,
        row: Row,
        keys: &[Key],
        old: Option<VersionPtr>,
        delete_key: Option<Key>,
    ) -> Result<VersionPtr> {
        let owned = table.make_version_with(self.me(), row, keys)?;
        let guard = epoch::pin();
        let ptr = table.link_version(owned, &guard);
        EngineStats::bump(&self.stats().versions_created);
        // Record the write *before* honoring scan locks: if the wait below
        // fails, abort processing must find the linked version to retire it.
        self.ctx.bufs.write_set.push(WriteEntry {
            table: table.id(),
            old,
            new: Some(ptr),
            delete_key,
        });
        // Store→load fence, writer side (pairs with `scan_lock_fence`): the
        // link stores above must be globally visible before the lock-table
        // loads below, or a concurrent serializable scanner and this writer
        // can both miss each other (store-buffer litmus).
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        #[cfg(test)]
        race_hooks::fire(race_hooks::Gap::LinkHonor);
        // Respect scan locks only now that the version is reachable. The
        // reverse order (check locks, then link) left a window in which a
        // serializable scanner could lock the bucket/range *and* complete its
        // chain walk entirely between our check and our link: the scanner's
        // §4.3.1 wait-for could not fire (our version was not yet linked),
        // our check saw no lock — so nothing stopped us drawing an earlier
        // end timestamp than the scanner and committing a phantom its repeat
        // of the scan would have seen. With link-first, a scanner either
        // walks the chain before our link (then we see its lock here and
        // wait) or after (then it sees our version and imposes the wait-for
        // itself); either way we precommit after it.
        self.honor_scan_locks(table, keys)?;
        Ok(ptr)
    }

    /// Enforce uniqueness for `insert` on every unique index of the table.
    fn check_unique(&mut self, table: &Table, keys: &[Key]) -> Result<()> {
        let rt = self.inner.store.clock().now();
        let guard = epoch::pin();
        for (slot, key) in keys.iter().enumerate() {
            let index = IndexId(slot as u32);
            if !table.is_unique(index)? {
                continue;
            }
            for ptr in table.candidate_ptrs(index, *key, &guard)? {
                let version = ptr.get();
                let vis = check_visibility(version, rt, self.me(), self.inner.store.txns(), &guard);
                if self.resolve_visibility(version, vis, rt)? {
                    // A committed (or committing) duplicate: the constraint
                    // violation is real and permanent.
                    return Err(MmdbError::DuplicateKey {
                        table: table.id(),
                        index,
                    });
                }
                if let Some(holder) = self.pending_unique_conflict(version, &guard) {
                    // A racing inserter that has not committed yet: the
                    // outcome is unresolved (it may still abort), so report a
                    // retryable conflict rather than a permanent duplicate.
                    EngineStats::bump(&self.stats().write_conflicts);
                    return Err(self.fail(MmdbError::WriteWriteConflict {
                        txn: self.me(),
                        holder: Some(holder),
                    }));
                }
            }
        }
        Ok(())
    }

    /// Does this same-key version — though not visible to us — doom our
    /// insert under uniqueness? Returns the creator when the version is being
    /// inserted by another live transaction: unless that transaction aborts,
    /// its version becomes a committed duplicate, so the first inserter wins
    /// and we must not proceed (a visibility-only check would let two
    /// concurrent inserters of one key both commit, which the differential
    /// tests catch as a non-serializable outcome).
    fn pending_unique_conflict(&self, version: &Version, guard: &epoch::Guard) -> Option<TxnId> {
        let mut rereads = 0;
        loop {
            match version.begin_word() {
                // Our own (the caller filters what it wants before this) or a
                // committed / aborted version: visibility already judged it.
                BeginWord::Timestamp(_) => return None,
                BeginWord::Txn(tb) if tb == self.me() => return None,
                BeginWord::Txn(tb) => match self.inner.store.txns().get_in(tb, guard) {
                    Some(h) => {
                        return (!matches!(h.state(), TxnState::Aborted | TxnState::Terminated))
                            .then_some(tb)
                    }
                    None => {
                        // Terminated and removed: the Begin field is being
                        // finalized — re-read it.
                        rereads += 1;
                        if rereads > 64 {
                            return None;
                        }
                        std::hint::spin_loop();
                    }
                },
            }
        }
    }

    /// Re-verify uniqueness after our new version is linked. Two inserters
    /// of the same key can both pass `check_unique` before either version is
    /// reachable; once both are linked, at least one of them is guaranteed to
    /// observe the other here (bucket chains are published with
    /// acquire/release ordering) and gives way. When both observe each other,
    /// both abort with a *retryable* conflict — safe, and a retry of either
    /// resolves the race.
    fn verify_unique_after_link(
        &mut self,
        table: &Table,
        keys: &[Key],
        mine: VersionPtr,
    ) -> Result<()> {
        let rt = self.inner.store.clock().now();
        let guard = epoch::pin();
        for (slot, key) in keys.iter().enumerate() {
            let index = IndexId(slot as u32);
            if !table.is_unique(index)? {
                continue;
            }
            for ptr in table.candidate_ptrs(index, *key, &guard)? {
                if ptr == mine {
                    continue;
                }
                let version = ptr.get();
                // Versions we superseded or deleted ourselves are expected.
                if version.end_word().writer() == Some(self.me()) {
                    continue;
                }
                let vis = check_visibility(version, rt, self.me(), self.inner.store.txns(), &guard);
                if vis.visible && vis.dependency.is_none() {
                    // A duplicate committed between our check and our link.
                    EngineStats::bump(&self.stats().write_conflicts);
                    return Err(self.fail(MmdbError::DuplicateKey {
                        table: table.id(),
                        index,
                    }));
                }
                if let Some(holder) = self.pending_unique_conflict(version, &guard) {
                    // A racing inserter: both of us may land here and both
                    // give way (symmetric, safe — no tie-break can let one
                    // side proceed soundly, because the winner may already
                    // have passed its own re-verification without seeing us).
                    // The conflict is retryable: no version of the key has
                    // committed.
                    EngineStats::bump(&self.stats().write_conflicts);
                    return Err(self.fail(MmdbError::WriteWriteConflict {
                        txn: self.me(),
                        holder: Some(holder),
                    }));
                }
            }
        }
        Ok(())
    }
}

impl EngineTxn for MvTransaction {
    fn id(&self) -> TxnId {
        self.ctx.handle.id()
    }

    fn isolation(&self) -> IsolationLevel {
        self.ctx.handle.isolation()
    }

    fn set_durability(&mut self, durability: Durability) {
        MvTransaction::set_durability(self, durability);
    }

    fn insert(&mut self, table_id: TableId, row: Row) -> Result<()> {
        self.ensure_open()?;
        self.note_table(table_id);
        let guard = epoch::pin();
        let table = self.inner.store.table_in(table_id, &guard)?;
        // Extract the index keys once into the reusable scratch; taken out
        // and restored around the operation (see [`TxnScratch`]).
        let mut keys = std::mem::take(&mut self.ctx.bufs.scratch.keys);
        let result = (|| {
            table.keys_into(&row, &mut keys)?;
            self.check_unique(table, keys.keys())?;
            let new_ptr = self.add_new_version(table, row, keys.keys(), None, None)?;
            // Close the check-then-link race between concurrent inserters of
            // the same key: now that our version is reachable, look again.
            self.verify_unique_after_link(table, keys.keys(), new_ptr)
        })();
        keys.clear();
        self.ctx.bufs.scratch.keys = keys;
        result
    }

    fn read_with(
        &mut self,
        table: TableId,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<bool> {
        Ok(self.scan_visible_with(table, index, SearchPred::Eq(key), true, visit)? > 0)
    }

    fn scan_key_with(
        &mut self,
        table: TableId,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        self.scan_visible_with(table, index, SearchPred::Eq(key), false, visit)
    }

    fn scan_range_with(
        &mut self,
        table: TableId,
        index: IndexId,
        lo: Key,
        hi: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        self.scan_visible_with(table, index, SearchPred::Range { lo, hi }, false, visit)
    }

    fn update(
        &mut self,
        table_id: TableId,
        index: IndexId,
        key: Key,
        new_row: Row,
    ) -> Result<bool> {
        self.ensure_open()?;
        self.note_table(table_id);
        let guard = epoch::pin();
        let table = self.inner.store.table_in(table_id, &guard)?;
        let Some(old_ptr) = self.find_update_target(table, index, key)? else {
            return Ok(false);
        };
        self.write_lock_target(old_ptr, &guard)?;
        let mut keys = std::mem::take(&mut self.ctx.bufs.scratch.keys);
        let result = (|| {
            table.keys_into(&new_row, &mut keys)?;
            self.add_new_version(table, new_row, keys.keys(), Some(old_ptr), None)
        })();
        keys.clear();
        self.ctx.bufs.scratch.keys = keys;
        result?;
        Ok(true)
    }

    fn delete(&mut self, table_id: TableId, index: IndexId, key: Key) -> Result<bool> {
        self.ensure_open()?;
        self.note_table(table_id);
        let guard = epoch::pin();
        let table = self.inner.store.table_in(table_id, &guard)?;
        let Some(old_ptr) = self.find_update_target(table, index, key)? else {
            return Ok(false);
        };
        self.write_lock_target(old_ptr, &guard)?;
        let delete_key = table.key_of(IndexId(0), old_ptr.get().data())?;
        self.ctx.bufs.write_set.push(WriteEntry {
            table: table.id(),
            old: Some(old_ptr),
            new: None,
            delete_key: Some(delete_key),
        });
        Ok(true)
    }

    fn commit(mut self) -> Result<Timestamp> {
        self.do_commit()
    }

    fn abort(mut self) {
        self.do_user_abort();
    }
}

impl Drop for MvTransaction {
    fn drop(&mut self) {
        if !self.finished {
            self.do_user_abort();
        }
    }
}

impl std::fmt::Debug for MvTransaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvTransaction")
            .field("id", &self.ctx.handle.id())
            .field("mode", &self.ctx.handle.mode())
            .field("isolation", &self.ctx.handle.isolation())
            .field("begin_ts", &self.ctx.handle.begin_ts())
            .field("reads", &self.ctx.bufs.read_set.len())
            .field("writes", &self.ctx.bufs.write_set.len())
            .finish()
    }
}

/// Deterministic-interleaving hooks for the regression tests
/// (`phantom_regression.rs`, `read_time_regression.rs`,
/// `delta_regression.rs`).
///
/// The window the §4.3 bugfix closes is a handful of instructions wide; on
/// this project's single-core CI runner no stochastic schedule ever lands a
/// preemption inside it (measured: thousands of seeded runs without one
/// hit). The regression tests instead *construct* the interleaving: the
/// inserter thread installs a thread-local callback that fires between
/// `link_version` and `honor_scan_locks`, parks there on a rendezvous
/// channel, and lets the test run a complete serializable scan inside the
/// exact window the old code left unprotected. Thread-local on purpose —
/// tests in the same process that never install a hook are unaffected.
#[cfg(test)]
pub(crate) mod race_hooks {
    use std::cell::RefCell;

    /// A window between two steps that a regression test parks a thread in.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Gap {
        /// In every `add_new_version`, between `link_version` and
        /// `honor_scan_locks`.
        LinkHonor,
        /// In every read, scan and range scan, after the read time is drawn
        /// and the chain iterator is built (a bucket walk has loaded the
        /// bucket head) but before any version is judged.
        HeadVisit,
        /// In every writing commit, after the end timestamp is drawn and
        /// before the redo frame is appended.
        EndTsAppend,
        /// In every `begin`, after the handle is registered and before its
        /// begin timestamp is drawn.
        BeginDraw,
    }

    type Hook = RefCell<Option<Box<dyn FnMut()>>>;

    thread_local! {
        /// One slot per [`Gap`], each its own cell, so a hook may pass
        /// through another gap.
        static HOOKS: [Hook; 4] = const { [const { RefCell::new(None) }; 4] };
    }

    /// Install `hook` on the current thread; it fires every time this
    /// thread passes through `gap`, until cleared.
    pub(crate) fn set(gap: Gap, hook: Box<dyn FnMut()>) {
        HOOKS.with(|hooks| *hooks[gap as usize].borrow_mut() = Some(hook));
    }

    /// Remove the current thread's hook at `gap`.
    pub(crate) fn clear(gap: Gap) {
        HOOKS.with(|hooks| *hooks[gap as usize].borrow_mut() = None);
    }

    /// Run the current thread's hook at `gap`, if one is installed.
    pub(crate) fn fire(gap: Gap) {
        HOOKS.with(|hooks| {
            if let Some(hook) = hooks[gap as usize].borrow_mut().as_mut() {
                hook();
            }
        });
    }
}

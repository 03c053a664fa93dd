//! Preparation, commit, abort and postprocessing (§2.4 steps 3–5, §3.2–§3.3,
//! §4.3.2–§4.3.3).
//!
//! The flow at the end of a transaction:
//!
//! 1. **End of normal processing** — a pessimistic transaction releases its
//!    read locks and bucket locks and then waits until its `WaitForCounter`
//!    reaches zero (§4.3.1). Optimistic transactions normally have no
//!    wait-for dependencies, but can acquire them in mixed mode (§4.5).
//! 2. **Precommit** — acquire the end timestamp, switch to Preparing, and
//!    release outgoing wait-for dependencies (drain the WaitingTxnList).
//! 3. **Validation** (optimistic only) — re-check visibility of every read
//!    version as of the end timestamp, and repeat every registered scan to
//!    look for phantoms (§3.2, Figure 3).
//! 4. **Commit dependencies** — wait until `CommitDepCounter` is zero or the
//!    `AbortNow` flag forces a cascaded abort (§2.7).
//! 5. **Logging** — write the new versions / delete keys to the redo log.
//!    With [`Durability::Async`] (the paper's model) the transaction does
//!    not wait for I/O; with [`Durability::Sync`] it redeems the durability
//!    ticket the append issued and blocks — still in `Preparing`, so
//!    concurrent readers of its versions speculate through the ordinary
//!    commit-dependency machinery — until the group-commit flush covering
//!    its bytes completes.
//! 6. **Postprocessing** — propagate the end timestamp into the Begin/End
//!    fields of the written versions (or make them invisible after an
//!    abort), hand old versions to the garbage collector, resolve dependents
//!    and leave the transaction table.

use mmdb_common::durability::Durability;
use mmdb_common::error::{MmdbError, Result};
use mmdb_common::ids::Timestamp;
use mmdb_common::isolation::ConcurrencyMode;
use mmdb_common::row::SearchPred;
use mmdb_common::stats::EngineStats;
use mmdb_common::word::{BeginWord, EndWord};
use mmdb_common::INFINITY_TS;

use mmdb_storage::gc::GcItem;
use mmdb_storage::log::{encode_frame_into, LogOpRef, Lsn};
use mmdb_storage::table::VersionPtr;
use mmdb_storage::txn_table::TxnState;

use crate::txn::MvTransaction;
use crate::visibility::check_visibility;

impl MvTransaction {
    // ------------------------------------------------------------------
    // Lock release and the pre-precommit wait
    // ------------------------------------------------------------------

    /// Release all read locks, bucket locks and range locks held by this
    /// transaction. The read locks leave the handle's list in one step;
    /// every list drains in place, so the vectors keep their capacity for
    /// the next transaction that recycles these buffers.
    pub(crate) fn release_locks(&mut self) {
        let mut read_locks = std::mem::take(&mut self.ctx.bufs.scratch.read_locks);
        self.ctx.handle.take_read_locks(&mut read_locks);
        for ptr in read_locks.drain(..) {
            self.release_read_lock(ptr);
        }
        self.ctx.bufs.scratch.read_locks = read_locks;
        if self.ctx.bufs.bucket_locks.is_empty() && self.ctx.bufs.range_locks.is_empty() {
            return;
        }
        let guard = crossbeam::epoch::pin();
        while let Some(lock) = self.ctx.bufs.bucket_locks.pop() {
            if let Ok(table) = self.inner.store.table_in(lock.table, &guard) {
                if let Ok(locks) = table.bucket_locks(lock.index) {
                    locks.unlock(lock.bucket, self.ctx.handle.id());
                }
            }
        }
        while let Some(lock) = self.ctx.bufs.range_locks.pop() {
            if let Ok(table) = self.inner.store.table_in(lock.table, &guard) {
                if let Ok(locks) = table.range_locks(lock.index) {
                    locks.unlock(lock.lo, lock.hi, self.ctx.handle.id());
                }
            }
        }
    }

    /// §4.3.1: when a transaction reaches the end of normal processing it
    /// waits for its outstanding wait-for dependencies before it may
    /// precommit. Read and bucket locks are *not* released yet: they must be
    /// held until the end timestamp is acquired so that any writer blocked on
    /// them precommits strictly after us — otherwise a blocked writer could
    /// draw an earlier end timestamp than the reader that delayed it, and
    /// commit-timestamp order would no longer be a valid serialization order
    /// (caught by the cross-engine differential tests). Cycles this wait can
    /// form while locks are held are broken by the deadlock detector.
    fn end_normal_processing(&mut self) -> Result<()> {
        // No further incoming wait-for dependencies may be added: otherwise a
        // stream of new readers could postpone the precommit forever.
        self.ctx.handle.close_wait_fors();
        if self.ctx.handle.wait_for_count() > 0 {
            EngineStats::bump(&self.stats().commit_waits);
            let handle = &self.ctx.handle;
            let done = handle.wait_until(
                || handle.wait_for_count() <= 0 || handle.abort_requested(),
                self.inner.config.wait_timeout,
            );
            if self.ctx.handle.abort_requested() {
                return Err(MmdbError::Aborted);
            }
            if !done {
                EngineStats::bump(&self.stats().deadlock_aborts);
                return Err(MmdbError::DeadlockVictim);
            }
        }
        Ok(())
    }

    /// Release outgoing wait-for dependencies: every transaction in our
    /// WaitingTxnList gets one of its wait-for dependencies released
    /// (§4.2.2).
    fn release_outgoing_wait_fors(&mut self) {
        let mut waiters = std::mem::take(&mut self.ctx.bufs.scratch.txn_ids);
        self.ctx.handle.take_waiting_txns(&mut waiters);
        if !waiters.is_empty() {
            let guard = crossbeam::epoch::pin();
            for waiter in waiters.drain(..) {
                if let Some(w) = self.inner.store.txns().get_in(waiter, &guard) {
                    w.release_wait_for();
                }
            }
        }
        self.ctx.bufs.scratch.txn_ids = waiters;
    }

    // ------------------------------------------------------------------
    // Optimistic validation (§3.2)
    // ------------------------------------------------------------------

    /// Read validation: every version in the ReadSet must still be visible as
    /// of the end timestamp. Versions we ourselves superseded or deleted pass
    /// (our own writes cannot invalidate our reads).
    fn validate_reads(&mut self, end_ts: Timestamp) -> Result<()> {
        let guard = crossbeam::epoch::pin();
        let me = self.ctx.handle.id();
        // By index over the `Copy` entries: the ReadSet stays in its pooled
        // `TxnContext` (capacity and all) whichever way this returns.
        for i in 0..self.ctx.bufs.read_set.len() {
            let ptr = self.ctx.bufs.read_set[i].version;
            let version = ptr.get();
            if version.end_word().writer() == Some(me) {
                continue;
            }
            let vis = check_visibility(version, end_ts, me, self.inner.store.txns(), &guard);
            if !self.resolve_visibility(version, vis, end_ts)? {
                EngineStats::bump(&self.stats().validation_failures);
                return Err(MmdbError::ReadValidationFailed);
            }
        }
        Ok(())
    }

    /// Phantom validation: repeat every registered scan and fail if a version
    /// that came into existence during our lifetime is visible at the end
    /// timestamp (Figure 3, case V4).
    fn validate_scans(&mut self, end_ts: Timestamp) -> Result<()> {
        for i in 0..self.ctx.bufs.scan_set.len() {
            let scan = self.ctx.bufs.scan_set[i];
            let guard = crossbeam::epoch::pin();
            let table = self.inner.store.table_in(scan.table, &guard)?;
            match scan.pred {
                SearchPred::Eq(key) => {
                    let chain = table.candidate_ptrs(scan.index, key, &guard)?;
                    self.check_no_phantom(chain, end_ts, &guard)?
                }
                SearchPred::Range { lo, hi } => {
                    let chain = table.range_candidate_ptrs(scan.index, lo, hi, &guard)?;
                    self.check_no_phantom(chain, end_ts, &guard)?
                }
            }
        }
        Ok(())
    }

    /// One repeated scan of [`Self::validate_scans`], walked in place along
    /// the index chain like the scan it repeats.
    fn check_no_phantom(
        &mut self,
        chain: impl Iterator<Item = VersionPtr>,
        end_ts: Timestamp,
        guard: &crossbeam::epoch::Guard,
    ) -> Result<()> {
        let begin_ts = self.ctx.handle.begin_ts();
        let me = self.ctx.handle.id();
        for ptr in chain {
            let version = ptr.get();
            // Our own inserts/updates are not phantoms.
            if version.begin_word().as_txn() == Some(me) {
                continue;
            }
            let at_end = check_visibility(version, end_ts, me, self.inner.store.txns(), guard);
            if !self.resolve_visibility(version, at_end, end_ts)? {
                continue;
            }
            let at_begin = check_visibility(version, begin_ts, me, self.inner.store.txns(), guard);
            if !at_begin.visible {
                EngineStats::bump(&self.stats().phantom_failures);
                return Err(MmdbError::PhantomDetected);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    pub(crate) fn do_commit(&mut self) -> Result<Timestamp> {
        if self.finished {
            return Err(MmdbError::TransactionClosed);
        }
        if let Some(err) = self.must_abort.clone() {
            self.finish_abort(&err);
            return Err(err);
        }
        if self.ctx.handle.abort_requested() {
            let err = MmdbError::CommitDependencyFailed;
            self.finish_abort(&err);
            return Err(err);
        }

        // Step 1: wind down normal processing (locks, wait-for dependencies).
        if let Err(err) = self.end_normal_processing() {
            self.finish_abort(&err);
            return Err(err);
        }

        // Step 2: precommit — acquire the end timestamp and enter Preparing.
        // The pending marker makes the draw-then-publish pair observable as
        // one atomic step: without it, a thread preempted between the two
        // looks like a plain Active transaction while its timestamp is
        // already ordered in the past (see `TxnHandle::begin_precommit`).
        self.ctx.handle.begin_precommit();
        let end_ts = self.inner.store.clock().next_timestamp();
        self.ctx.handle.set_end_ts(end_ts);
        self.ctx.handle.set_state(TxnState::Preparing);
        // Only now release read/bucket locks and outgoing wait-for
        // dependencies: every transaction we delayed obtains an end timestamp
        // later than ours, so its position in the serial order is after us.
        self.release_locks();
        self.release_outgoing_wait_fors();

        // Step 3: validation (optimistic only; locks make it unnecessary for
        // pessimistic transactions, §4.3.2).
        if self.ctx.handle.mode() == ConcurrencyMode::Optimistic {
            let iso = self.ctx.handle.isolation();
            if iso.requires_read_stability() {
                if let Err(err) = self.validate_reads(end_ts) {
                    self.finish_abort(&err);
                    return Err(err);
                }
            }
            if iso.requires_phantom_protection() {
                if let Err(err) = self.validate_scans(end_ts) {
                    self.finish_abort(&err);
                    return Err(err);
                }
            }
        }

        // Step 4: wait for outstanding commit dependencies (§2.7).
        if self.ctx.handle.commit_dep_count() > 0 {
            EngineStats::bump(&self.stats().commit_waits);
            let handle = &self.ctx.handle;
            let done = handle.wait_until(
                || handle.commit_dep_count() <= 0 || handle.abort_requested(),
                self.inner.config.wait_timeout,
            );
            if self.ctx.handle.abort_requested() {
                let err = MmdbError::CommitDependencyFailed;
                self.finish_abort(&err);
                return Err(err);
            }
            if !done {
                EngineStats::bump(&self.stats().deadlock_aborts);
                let err = MmdbError::DeadlockVictim;
                self.finish_abort(&err);
                return Err(err);
            }
        }
        if self.ctx.handle.abort_requested() {
            let err = MmdbError::CommitDependencyFailed;
            self.finish_abort(&err);
            return Err(err);
        }

        // Step 5: write the redo log record (§5). The frame is encoded into
        // the transaction's reusable buffer and handed to the logger as a
        // borrow — steady state, logging allocates nothing. Async (the
        // paper's model) stops here; Sync redeems the durability ticket and
        // waits for the flush covering it. The wait happens while still in
        // `Preparing`: a concurrent reader of our versions speculates
        // through the ordinary commit-dependency machinery, so nothing
        // observes "committed" before durability is confirmed. If the wait
        // reports the log's sticky I/O error, the transaction rolls back in
        // memory — its in-memory effects never become visible, matching the
        // durable log, which is only trusted up to the first error anyway.
        if !self.ctx.bufs.write_set.is_empty() {
            #[cfg(test)]
            crate::txn::race_hooks::fire(crate::txn::race_hooks::Gap::EndTsAppend);
            let ticket = self.append_log_frame(end_ts);
            if self.durability == Durability::Sync {
                if let Err(err) = self.inner.store.logger().wait_durable(ticket) {
                    self.finish_abort(&err);
                    return Err(err);
                }
            }
        }

        // The transaction is committed.
        self.ctx.handle.set_state(TxnState::Committed);
        EngineStats::bump(&self.stats().commits);
        self.stats()
            .contention
            .record(&self.ctx.bufs.touched, false);

        // Step 6: postprocessing — propagate the end timestamp, retire old
        // versions, resolve dependents, leave the transaction table.
        self.postprocess_commit(end_ts);
        self.resolve_dependents(true);
        self.ctx.handle.set_state(TxnState::Terminated);
        self.inner.store.txns().remove(self.ctx.handle.id());
        self.finished = true;
        self.ctx.recycle();

        self.inner.after_commit();
        Ok(end_ts)
    }

    /// Frame the write set into the reusable encode buffer and append it,
    /// returning the logger's durability ticket for the frame.
    fn append_log_frame(&mut self, end_ts: Timestamp) -> Lsn {
        let mut buf = std::mem::take(&mut self.ctx.bufs.scratch.log_buf);
        buf.clear();
        let log_bytes = encode_frame_into(
            &mut buf,
            end_ts,
            self.ctx.bufs.write_set.iter().filter_map(|entry| {
                match (&entry.new, entry.delete_key) {
                    (Some(new), _) => Some(LogOpRef::Write {
                        table: entry.table,
                        row: new.get().data(),
                    }),
                    (None, Some(key)) => Some(LogOpRef::Delete {
                        table: entry.table,
                        key,
                    }),
                    (None, None) => None,
                }
            }),
        );
        EngineStats::bump(&self.stats().log_records);
        EngineStats::add(&self.stats().log_bytes, log_bytes);
        let ticket = self.inner.store.logger().append_frame_ticketed(&buf);
        self.ctx.bufs.scratch.log_buf = buf;
        ticket
    }

    fn postprocess_commit(&mut self, end_ts: Timestamp) {
        for entry in &self.ctx.bufs.write_set {
            if let Some(new) = &entry.new {
                new.get().set_begin(BeginWord::Timestamp(end_ts));
            }
            if let Some(old) = &entry.old {
                old.get().set_end(EndWord::Timestamp(end_ts));
                self.inner.store.enqueue_garbage(GcItem {
                    table: entry.table,
                    version: *old,
                    reclaimable_at: end_ts,
                });
            }
        }
    }

    /// Inform every transaction in our CommitDepSet of our outcome (§2.7).
    fn resolve_dependents(&mut self, committed: bool) {
        let mut dependents = std::mem::take(&mut self.ctx.bufs.scratch.txn_ids);
        self.ctx
            .handle
            .resolve_commit_dependents(committed, &mut dependents);
        if !dependents.is_empty() {
            let guard = crossbeam::epoch::pin();
            for dependent in dependents.drain(..) {
                if let Some(d) = self.inner.store.txns().get_in(dependent, &guard) {
                    d.resolve_incoming_commit_dep(committed);
                    if !committed {
                        EngineStats::bump(&self.stats().cascaded_aborts);
                    }
                }
            }
        }
        self.ctx.bufs.scratch.txn_ids = dependents;
    }

    // ------------------------------------------------------------------
    // Abort
    // ------------------------------------------------------------------

    /// User- or drop-initiated abort. A transaction already doomed by a
    /// failed operation reports that failure (the usual driver pattern is
    /// "op returned a conflict → abort()"), so contention telemetry sees the
    /// conflict rather than a voluntary abort.
    pub(crate) fn do_user_abort(&mut self) {
        if self.finished {
            return;
        }
        match self.must_abort.take() {
            Some(err) => self.finish_abort(&err),
            None => self.finish_abort(&MmdbError::Aborted),
        }
    }

    /// Common abort path: undo version changes, release locks and
    /// dependencies, record statistics, leave the transaction table.
    pub(crate) fn finish_abort(&mut self, reason: &MmdbError) {
        if self.finished {
            return;
        }
        self.ctx.handle.set_state(TxnState::Aborted);
        EngineStats::bump(&self.stats().aborts);
        self.stats()
            .contention
            .record(&self.ctx.bufs.touched, reason.is_contention());
        if matches!(reason, MmdbError::CommitDependencyFailed) {
            EngineStats::bump(&self.stats().cascaded_aborts);
        }

        // Undo the write set (§3.3): new versions become invisible (Begin =
        // infinity) and are handed to the garbage collector; old versions get
        // their End field reset to infinity unless another transaction has
        // already noticed the abort and re-locked them.
        let retire_at = self.inner.store.clock().next_timestamp();
        let me = self.ctx.handle.id();
        for entry in &self.ctx.bufs.write_set {
            if let Some(new) = &entry.new {
                new.get().set_begin(BeginWord::Timestamp(INFINITY_TS));
                new.get().set_end(EndWord::Timestamp(INFINITY_TS));
                self.inner.store.enqueue_garbage(GcItem {
                    table: entry.table,
                    version: *new,
                    reclaimable_at: retire_at,
                });
            }
            if let Some(old) = &entry.old {
                let _ = old.get().update_end(|word| match word {
                    EndWord::Lock(lock) if lock.writer == Some(me) => {
                        if lock.read_lock_count > 0 {
                            Some(EndWord::Lock(mmdb_common::word::LockWord {
                                writer: None,
                                ..lock
                            }))
                        } else {
                            Some(EndWord::Timestamp(INFINITY_TS))
                        }
                    }
                    // Someone else already re-locked or finalized it.
                    _ => None,
                });
            }
        }

        // Locks, wait-for dependencies, commit dependents.
        self.release_locks();
        self.release_outgoing_wait_fors();
        self.resolve_dependents(false);

        self.ctx.handle.set_state(TxnState::Terminated);
        self.inner.store.txns().remove(self.ctx.handle.id());
        self.finished = true;
        self.ctx.recycle();
    }
}

//! Group commit: a shared-buffer batched log writer.
//!
//! The paper's durability story (§5): *"transactions do not wait for log
//! I/O to complete"* — commits are hardened in batches by an asynchronous
//! group-commit tick. [`GroupCommitLog`] is that subsystem:
//!
//! * Committers [`append_frame`](crate::log::RedoLogger::append_frame) (or
//!   [`append_frame_ticketed`](crate::log::RedoLogger::append_frame_ticketed))
//!   into **one shared encode buffer** under a short mutex hold — a memcpy,
//!   never an I/O. The ticketed variant returns an [`Lsn`]: the logical byte
//!   offset the committer's frame ends at.
//! * A **flusher** hardens batches: it steals the whole shared buffer (a
//!   buffer swap, so append capacity is recycled and the steady state
//!   allocates nothing), writes it with **one `write` + one sync** per batch
//!   — however many transactions it contains — and only then publishes the
//!   batch-end offset as durable. Every log has the same four flushers, all
//!   serialized on one flush mutex:
//!   * the **ticker**, a background thread waking every
//!     [`tick`](GroupCommitLog::with_tick) — the paper's asynchronous group
//!     commit, and what drains the buffer when nobody waits;
//!   * the **waiter-leader**: the first [`wait_durable`] caller that finds
//!     the flush lock free hardens the batch for everyone queued behind it
//!     — followers block on the ticket condvar and are covered by the
//!     leader's single sync. A lone Sync committer therefore costs one
//!     `write` + one sync and never sits out the tick; N concurrent ones
//!     share about one;
//!   * an explicit [`flush`] call;
//!   * **drop**, which wakes the ticker (so it returns promptly whatever the
//!     tick), joins it and hardens the tail once more.
//! * [`wait_durable`] blocks until the durable watermark covers the ticket.
//!   Because the buffer is appended in ticket order and batches are stolen
//!   and written whole, **a ticket is never reported durable before every
//!   lower ticket's bytes hit the file** (asserted by the concurrency tests
//!   below).
//!
//! Batch boundaries are **invisible on the wire**: the file is the exact
//! concatenation of the appended frames
//! ([`MemoryLogger::encoded_bytes`](crate::log::MemoryLogger::encoded_bytes)
//! of the same appends). The log's frame decoder and recovery are therefore
//! unaffected — a crash mid-batch is just a torn tail at some
//! frame-interior offset, which the recovery suite exercises explicitly.
//!
//! I/O errors are sticky: appends are fire-and-forget, so an error cannot be
//! returned to the committing transaction. Instead the first failure poisons
//! the log, every later [`wait_durable`]/[`flush`] reports it, and the
//! durable watermark never advances past the last confirmed batch. A ticket
//! confirmed durable **before** the failure still succeeds — its bytes are
//! on the device regardless of what happened to later batches.
//!
//! [`wait_durable`]: crate::log::RedoLogger::wait_durable
//! [`flush`]: crate::log::RedoLogger::flush

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use mmdb_common::error::{MmdbError, Result};

use crate::log::{Lsn, RedoLogger, StickyError};

/// Initial capacity of the shared append buffer and its flush twin, sized so
/// steady-state batches never grow the allocation (the zero-allocation
/// commit path depends on this).
const BUFFER_CAPACITY: usize = 1 << 20;

/// How long a durability waiter sleeps before re-checking the watermark.
/// Purely a safety net against lost wakeups or a wedged flusher — the
/// condvar notification is the normal wake path.
const WAIT_SLICE: Duration = Duration::from_millis(10);

/// The shared append state: the group-commit buffer every committer encodes
/// into, plus the logical end offset of the stream.
struct AppendState {
    /// Frames appended since the last batch was stolen.
    buf: Vec<u8>,
    /// Logical byte offset of the end of the stream (bytes appended ever).
    appended: u64,
}

/// The flusher's side: the file and the swap buffer batches are stolen into.
/// Held behind its own mutex so exactly one flusher (ticker, waiter-leader,
/// an explicit `flush()` or drop) hardens at a time, in stream order.
struct FlushState {
    file: File,
    /// Where `file` lives — needed to reopen it for reading when a
    /// checkpoint truncation copies the tail into a fresh segment.
    path: PathBuf,
    /// Batches are swapped in here, written, cleared — capacity recycles
    /// between the two buffers, so neither side allocates after warmup.
    scratch: Vec<u8>,
    /// Non-empty batches hardened so far (diagnostic: proves batching).
    batches: u64,
}

/// State shared between committers, waiters and the flushers.
struct Shared {
    /// Append side; also the mutex paired with `durable_cv` (the durable
    /// watermark is published under it, closing the missed-wakeup window).
    state: Mutex<AppendState>,
    /// Wakes `wait_durable` callers after each hardened batch (or failure).
    durable_cv: Condvar,
    /// Flush side; `try_lock` on this mutex is the leader election.
    flush: Mutex<FlushState>,
    /// Bytes confirmed on durable storage (monotone; published under
    /// `state`).
    durable: AtomicU64,
    /// Logical LSN of the current file's byte 0. Zero for a freshly created
    /// log; advanced by [`GroupCommitLog::rotate_to`] when a checkpoint
    /// truncates the stream — LSN tickets stay monotone across truncations,
    /// only the physical file shrinks. Written under the flush mutex.
    base: AtomicU64,
    /// First I/O error, sticky for the lifetime of the log.
    error: StickyError,
    /// Frames appended (one per committed transaction).
    records: AtomicU64,
    /// Set by drop to stop the ticker, which sleeps on `stop_cv` between
    /// ticks so the signal wakes it at once.
    stop: Mutex<bool>,
    stop_cv: Condvar,
}

impl Shared {
    /// Harden the current batch: steal the append buffer, write + sync it,
    /// publish the new durable watermark, wake waiters. Serialized by the
    /// flush mutex; `harden` is the convenience wrapper that acquires it.
    fn harden(&self) -> Result<()> {
        let mut flush = self.flush.lock();
        self.harden_locked(&mut flush)
    }

    fn harden_locked(&self, flush: &mut FlushState) -> Result<()> {
        // A torn log hardens nothing more. The failed batch may have left a
        // partial frame at the tail; writing any later batch after it would
        // turn that recoverable torn tail into mid-stream corruption — and
        // could durably persist frames of Sync transactions that were
        // reported rolled back. The file is also kept cut back to the
        // confirmed watermark (idempotent, best effort): the failing batch's
        // bytes may already sit in the page cache, and without the truncate
        // OS writeback could still land them on the device after the
        // rollback was reported. Only the wakeup below survives, so waiters
        // observe the error instead of sleeping out their safety timeout.
        if self.error.is_set() {
            let _ = flush
                .file
                .set_len(self.physical(self.durable.load(Ordering::Acquire)));
            drop(self.state.lock());
            self.durable_cv.notify_all();
            return self.error.check();
        }
        // Steal the batch: a buffer swap under the append mutex. Committers
        // are blocked only for the swap, never for the I/O below. The old
        // scratch (cleared after the previous write) becomes the new append
        // buffer, so capacity cycles between the two and neither reallocates
        // once warmed.
        let batch_end = {
            let mut st = self.state.lock();
            std::mem::swap(&mut st.buf, &mut flush.scratch);
            st.appended
        };
        if !flush.scratch.is_empty() {
            let result = flush
                .file
                .write_all(&flush.scratch)
                .and_then(|()| flush.file.sync_data());
            flush.scratch.clear();
            if let Err(e) = result {
                self.error.record(e);
                // Best effort: the batch is unconfirmed, so cut the file
                // back to the confirmed watermark — its bytes may have been
                // written (even fully, with only the sync failing) and must
                // not outlive a crash, or recovery would replay Sync
                // transactions that were reported rolled back.
                let _ = flush
                    .file
                    .set_len(self.physical(self.durable.load(Ordering::Acquire)));
            } else {
                flush.batches += 1;
            }
        }
        match self.error.get() {
            None => {
                // Publish under the append mutex: a waiter holding it from
                // watermark-check through `durable_cv.wait` cannot miss this
                // store-then-notify.
                let guard = self.state.lock();
                self.durable.fetch_max(batch_end, Ordering::Release);
                drop(guard);
                self.durable_cv.notify_all();
                Ok(())
            }
            Some(err) => {
                // Wake waiters so they observe the sticky error instead of
                // sleeping until their safety timeout.
                drop(self.state.lock());
                self.durable_cv.notify_all();
                Err(err)
            }
        }
    }

    /// Translate a logical LSN into a byte offset within the current file.
    fn physical(&self, lsn: u64) -> u64 {
        lsn.saturating_sub(self.base.load(Ordering::Acquire))
    }

    /// The ticker's body: harden once per `tick` until drop sets `stop`.
    /// Errors are sticky and surfaced to waiters and flush callers; the
    /// ticker keeps ticking so waiters keep being woken.
    fn tick_until_stopped(&self, tick: Duration) {
        let mut stop = self.stop.lock();
        loop {
            let deadline = Instant::now() + tick;
            // Re-wait on an early (spurious) wakeup: only the deadline or
            // the stop signal ends a sleep.
            while !*stop && !self.stop_cv.wait_until(&mut stop, deadline).timed_out() {}
            if *stop {
                return;
            }
            let _ = self.harden();
        }
    }
}

/// A batched redo-log writer with per-transaction durability tickets: the
/// group-commit subsystem (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use mmdb_storage::log::{encode_frame_into, read_log_file, LogOpRef, RedoLogger};
/// use mmdb_storage::group_commit::GroupCommitLog;
/// use mmdb_common::ids::{TableId, Timestamp};
///
/// let path = std::env::temp_dir().join(format!("gc-doc-{}.log", std::process::id()));
/// // A tick longer than the example: only the explicit flush below (or a
/// // Sync committer's `wait_durable`) hardens the batch before drop.
/// let log = Arc::new(GroupCommitLog::with_tick(&path, Duration::from_secs(60)).unwrap());
/// let mut frame = Vec::new();
/// let row = [0u8; 16];
/// let write = LogOpRef::Write { table: TableId(0), row: &row };
/// encode_frame_into(&mut frame, Timestamp(7), std::iter::once(write));
/// log.append_frame(&frame);
/// log.flush().unwrap();
/// assert_eq!(read_log_file(&path).unwrap().records.len(), 1);
/// # drop(log); std::fs::remove_file(&path).unwrap();
/// ```
pub struct GroupCommitLog {
    shared: Arc<Shared>,
    ticker: Option<JoinHandle<()>>,
}

impl GroupCommitLog {
    /// Create (truncate) a group-commit log at `path` whose background
    /// ticker hardens the shared buffer every `tick` — the paper's
    /// asynchronous group commit. Async committers never wait; a Sync
    /// committer leads a flush itself rather than sit out the tick.
    pub fn with_tick(path: impl AsRef<Path>, tick: Duration) -> std::io::Result<GroupCommitLog> {
        File::create(&path)?;
        Self::open_append_with_tick(path, Lsn::ZERO, 0, tick)
    }

    /// Reopen an existing log file for appending after recovery, with a
    /// background ticker as in [`with_tick`](Self::with_tick).
    ///
    /// `base` is the logical LSN of the file's byte 0 (zero unless a prior
    /// checkpoint truncation rotated the stream — the manifest records it)
    /// and `valid_bytes` is the *physical* prefix recovery decoded cleanly:
    /// a file of another length is first cut to that offset (burying a torn
    /// tail mid-stream would corrupt every later record) and the cut is
    /// synced; a file already that long, such as the empty one
    /// [`with_tick`](Self::with_tick) creates, is used as it is. The
    /// appended/durable watermarks resume at `base + valid_bytes`, so
    /// LSN tickets stay monotone across the restart.
    pub fn open_append_with_tick(
        path: impl AsRef<Path>,
        base: Lsn,
        valid_bytes: u64,
        tick: Duration,
    ) -> std::io::Result<GroupCommitLog> {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)?;
        if file.metadata()?.len() != valid_bytes {
            file.set_len(valid_bytes)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(valid_bytes))?;
        let end = base.0 + valid_bytes;
        let shared = Arc::new(Shared {
            state: Mutex::new(AppendState {
                buf: Vec::with_capacity(BUFFER_CAPACITY),
                appended: end,
            }),
            durable_cv: Condvar::new(),
            flush: Mutex::new(FlushState {
                file,
                path: path.as_ref().to_path_buf(),
                scratch: Vec::with_capacity(BUFFER_CAPACITY),
                batches: 0,
            }),
            durable: AtomicU64::new(end),
            base: AtomicU64::new(base.0),
            error: StickyError::default(),
            records: AtomicU64::new(0),
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
        });
        let ticker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mmdb-group-commit".into())
                .spawn(move || shared.tick_until_stopped(tick))?
        };
        Ok(GroupCommitLog {
            shared,
            ticker: Some(ticker),
        })
    }

    /// Logical end offset of everything appended so far (durable or not).
    pub fn appended_lsn(&self) -> Lsn {
        Lsn(self.shared.state.lock().appended)
    }

    /// Offset below which every byte is confirmed on durable storage.
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.shared.durable.load(Ordering::Acquire))
    }

    /// Number of non-empty batches hardened so far. With concurrent
    /// committers this is (much) smaller than
    /// [`records_written`](crate::log::RedoLogger::records_written) — the
    /// whole point of group commit, and what the mid-batch crash tests use
    /// to prove batches really spanned multiple transactions.
    pub fn batches_hardened(&self) -> u64 {
        self.shared.flush.lock().batches
    }

    /// Logical LSN of the current file's byte 0 (zero until a truncation
    /// rotates the stream).
    pub fn base_lsn(&self) -> Lsn {
        Lsn(self.shared.base.load(Ordering::Acquire))
    }

    /// Truncate the log's prefix below `keep_from` by rotating onto a fresh
    /// segment file: the durable tail (bytes at LSNs `keep_from..durable`)
    /// is copied into `new_path`, synced, then — still before any new batch
    /// can harden — `publish` runs (the checkpoint manifest append that
    /// makes the new segment the recovery source) and the log switches its
    /// file handle and base LSN to the new segment. The old file is left in
    /// place for the caller to delete once `publish` succeeded.
    ///
    /// Crash-safety hinges on holding the flush mutex across the whole
    /// sequence: no committer's bytes can become durable in the new segment
    /// until the manifest durably points at it, so a crash at any byte in
    /// here recovers from the old segment, which still holds everything that
    /// was ever confirmed durable. If `publish` fails the rotation is
    /// abandoned (the old file stays active, the new segment is deleted) and
    /// the error is returned.
    ///
    /// LSN tickets are unaffected: `appended`/`durable` are logical offsets
    /// and keep counting monotonically; only the base moves.
    pub fn rotate_to(
        &self,
        new_path: impl AsRef<Path>,
        keep_from: Lsn,
        publish: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        let new_path = new_path.as_ref();
        let shared = &*self.shared;
        let mut flush = shared.flush.lock();
        // Harden whatever is buffered so the old file holds every appended
        // byte — the tail copy below must not race the append buffer.
        shared.harden_locked(&mut flush)?;
        let base = shared.base.load(Ordering::Acquire);
        let durable = shared.durable.load(Ordering::Acquire);
        if keep_from.0 < base || keep_from.0 > durable {
            return Err(MmdbError::LogIo(format!(
                "rotate_to: keep_from {} outside the current segment [{base}, {durable}]",
                keep_from.0
            )));
        }
        let io = |e: std::io::Error| MmdbError::LogIo(e.to_string());
        let result = (|| {
            // Copy the tail through a reopened read handle (the write handle
            // sits at the append cursor and must not move).
            let mut src = File::open(&flush.path).map_err(io)?;
            src.seek(SeekFrom::Start(keep_from.0 - base)).map_err(io)?;
            let mut dst = File::create(new_path).map_err(io)?;
            let mut remaining = durable - keep_from.0;
            let mut chunk = vec![0u8; (BUFFER_CAPACITY).min(1 << 16)];
            while remaining > 0 {
                let want = chunk.len().min(remaining as usize);
                let n = src.read(&mut chunk[..want]).map_err(io)?;
                if n == 0 {
                    return Err(MmdbError::LogIo(
                        "rotate_to: old segment shorter than the durable watermark".into(),
                    ));
                }
                dst.write_all(&chunk[..n]).map_err(io)?;
                remaining -= n as u64;
            }
            dst.sync_all().map_err(io)?;
            sync_parent_dir(new_path);
            // The commit point: once the manifest durably names the new
            // segment, recovery reads it; until then it reads the old one.
            publish()?;
            Ok(dst)
        })();
        match result {
            Ok(dst) => {
                flush.file = dst;
                flush.path = new_path.to_path_buf();
                shared.base.store(keep_from.0, Ordering::Release);
                Ok(())
            }
            Err(err) => {
                let _ = std::fs::remove_file(new_path);
                Err(err)
            }
        }
    }
}

/// Best-effort fsync of a file's parent directory, so a freshly created
/// segment's directory entry survives a machine crash. Errors are ignored:
/// directory syncs are unsupported on some filesystems and the copied data
/// itself is already synced.
pub(crate) fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

impl RedoLogger for GroupCommitLog {
    fn append_frame_ticketed(&self, frame: &[u8]) -> Lsn {
        let lsn = {
            let mut st = self.shared.state.lock();
            // A torn log buffers no further bytes — they could never be
            // hardened (the flusher is gated on the sticky error), so
            // keeping them would only grow the buffer without bound. The
            // ticket still advances, stays monotone, and can never be
            // reported durable.
            if !self.shared.error.is_set() {
                st.buf.extend_from_slice(frame);
            }
            st.appended += frame.len() as u64;
            Lsn(st.appended)
        };
        self.shared.records.fetch_add(1, Ordering::Relaxed);
        lsn
    }

    fn wait_durable(&self, upto: Lsn) -> Result<()> {
        let shared = &*self.shared;
        loop {
            // Durability confirmed before (or despite) any later failure
            // counts: the bytes are on the device.
            if shared.durable.load(Ordering::Acquire) >= upto.0 {
                return Ok(());
            }
            if let Some(err) = shared.error.get() {
                return Err(err);
            }
            // Leader election: whoever wins the flush lock hardens the
            // batch — which covers every committer queued so far — while the
            // losers (other waiters, or a waiter that finds the ticker
            // mid-flush) block on the condvar below and are woken by the
            // flusher's publish.
            if let Some(mut flush) = shared.flush.try_lock() {
                let _ = shared.harden_locked(&mut flush);
                continue;
            }
            let mut st = shared.state.lock();
            // Re-check both exit conditions under the mutex the watermark
            // (and the error wakeup) are published under — after this point
            // neither a publish nor a failing harden's notify can slip past
            // the wait.
            if shared.durable.load(Ordering::Acquire) >= upto.0 {
                return Ok(());
            }
            if let Some(err) = shared.error.get() {
                return Err(err);
            }
            // Timed slice, not an unbounded wait: a safety net so a wedged
            // or shut-down flusher degrades into polling instead of hanging
            // the committer forever.
            shared.durable_cv.wait_for(&mut st, WAIT_SLICE);
        }
    }

    fn flush(&self) -> Result<()> {
        self.shared.harden()
    }

    fn records_written(&self) -> u64 {
        self.shared.records.load(Ordering::Relaxed)
    }
}

impl Drop for GroupCommitLog {
    fn drop(&mut self) {
        *self.shared.stop.lock() = true;
        self.shared.stop_cv.notify_all();
        if let Some(handle) = self.ticker.take() {
            let _ = handle.join();
        }
        // Final harden so a cleanly dropped log leaves no torn tail.
        let _ = self.shared.harden();
    }
}

impl std::fmt::Debug for GroupCommitLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommitLog")
            .field("appended", &self.appended_lsn().0)
            .field("durable", &self.durable_lsn().0)
            .field("records", &self.records_written())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{
        encode_record, read_log_bytes, read_log_file, LogOp, LogRecord, MemoryLogger,
    };
    use mmdb_common::error::MmdbError;
    use mmdb_common::ids::{TableId, Timestamp};
    use mmdb_common::row::Row;

    fn record(ts: u64, fill: u8) -> LogRecord {
        LogRecord {
            end_ts: Timestamp(ts),
            ops: vec![LogOp::Write {
                table: TableId(0),
                row: Row::from(vec![fill; 24]),
            }],
        }
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mmdb-groupcommit-{}-{tag}.log", std::process::id()))
    }

    /// A tick far longer than any test here: its ticker never fires, so
    /// only explicit flushes, Sync waiters and drop harden — and drop still
    /// returns at once.
    const LONG_TICK: Duration = Duration::from_secs(10);

    #[test]
    fn batched_frames_round_trip_and_boundaries_are_invisible() {
        let path = scratch("roundtrip");
        let records: Vec<LogRecord> = (0..10).map(|i| record(i + 1, i as u8)).collect();
        {
            let log = GroupCommitLog::with_tick(&path, LONG_TICK).unwrap();
            for r in &records[..4] {
                log.append_frame(&encode_record(r));
            }
            log.flush().unwrap(); // batch 1: four records, one write+sync
            for r in &records[4..] {
                log.append_frame(&encode_record(r));
            }
            log.flush().unwrap(); // batch 2: six records
            assert_eq!(log.records_written(), 10);
            assert_eq!(log.batches_hardened(), 2);
            assert_eq!(log.durable_lsn(), log.appended_lsn());
        }
        // The wire stream is the plain concatenation of the frames — batch
        // boundaries left no trace.
        let bytes = std::fs::read(&path).unwrap();
        let outcome = read_log_bytes(&bytes).unwrap();
        assert!(outcome.is_clean());
        assert_eq!(outcome.records, records);
        let memory = MemoryLogger::new();
        for r in &records {
            memory.append_frame(&encode_record(r));
        }
        assert_eq!(bytes, memory.encoded_bytes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn drop_hardens_the_tail() {
        let path = scratch("drop");
        {
            let log = GroupCommitLog::with_tick(&path, LONG_TICK).unwrap();
            log.append_frame(&encode_record(&record(1, 0xAA)));
            // No flush, no wait: drop must harden the buffered frame.
        }
        assert_eq!(read_log_file(&path).unwrap().records, vec![record(1, 0xAA)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ticked_flusher_hardens_without_any_explicit_flush() {
        let path = scratch("ticked");
        let log = GroupCommitLog::with_tick(&path, Duration::from_millis(1)).unwrap();
        let lsn = log.append_frame_ticketed(&encode_record(&record(3, 1)));
        // The background flusher alone must advance the watermark: poll it
        // rather than `wait_durable`, which would lead a flush itself.
        let deadline = Instant::now() + Duration::from_secs(10);
        while log.durable_lsn() < lsn {
            assert!(Instant::now() < deadline, "the ticker never hardened");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(read_log_file(&path).unwrap().records, vec![record(3, 1)]);
        drop(log);
        let _ = std::fs::remove_file(&path);
    }

    /// A Sync waiter leads the flush instead of sitting out the tick, and
    /// drop wakes the sleeping ticker instead of waiting for it.
    #[test]
    fn wait_durable_leads_the_flush_without_waiting_for_the_tick() {
        let path = scratch("leader");
        let log = GroupCommitLog::with_tick(&path, LONG_TICK).unwrap();
        let lsn = log.append_frame_ticketed(&encode_record(&record(5, 2)));
        let started = Instant::now();
        log.wait_durable(lsn).unwrap();
        let waited = started.elapsed();
        assert!(
            waited < LONG_TICK / 10,
            "wait_durable took {waited:?}: it sat out the {LONG_TICK:?} tick"
        );
        assert_eq!(read_log_file(&path).unwrap().records, vec![record(5, 2)]);
        let started = Instant::now();
        drop(log);
        let dropping = started.elapsed();
        assert!(
            dropping < LONG_TICK / 10,
            "drop took {dropping:?}: it waited for the {LONG_TICK:?} tick"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// The ordering acceptance test: racing committers against the flusher,
    /// a ticket is never reported durable before every lower LSN's bytes are
    /// in the file. Each committer checks the *file size on disk* right
    /// after `wait_durable` returns — `lsn` is a byte offset, so
    /// `file_len >= lsn` is exactly "my bytes (and everything before them)
    /// hit the file".
    #[test]
    fn wait_durable_never_reports_before_lower_lsns_hit_the_file() {
        // A long tick (only waiter-leaders harden) and a short one (the
        // ticker races the leaders).
        for (tag, tick) in [
            ("order-leaders", LONG_TICK),
            ("order-ticked", Duration::from_micros(200)),
        ] {
            let path = scratch(tag);
            let log = Arc::new(GroupCommitLog::with_tick(&path, tick).unwrap());
            const THREADS: u64 = 4;
            const APPENDS: u64 = 64;
            std::thread::scope(|scope| {
                for w in 0..THREADS {
                    let log = Arc::clone(&log);
                    let path = path.clone();
                    scope.spawn(move || {
                        for i in 0..APPENDS {
                            let rec = record(w * APPENDS + i + 1, w as u8);
                            let lsn = log.append_frame_ticketed(&encode_record(&rec));
                            log.wait_durable(lsn).unwrap();
                            let len = std::fs::metadata(&path).expect("log exists").len();
                            assert!(
                                len >= lsn.0,
                                "[{tag}] ticket {lsn:?} reported durable but the file \
                                 holds only {len} bytes"
                            );
                        }
                    });
                }
            });
            log.flush().unwrap();
            let outcome = read_log_file(&path).unwrap();
            assert!(outcome.is_clean());
            assert_eq!(outcome.records.len(), (THREADS * APPENDS) as usize);
            assert_eq!(log.records_written(), THREADS * APPENDS);
            drop(log);
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Concurrent Sync committers share flushes: far fewer hardened batches
    /// than records. (Deterministic upper bound is impossible under
    /// scheduling noise; the assertion is the weak one that batching
    /// happened at all, the committed benchmark datapoint carries the
    /// quantitative claim.)
    #[test]
    fn concurrent_committers_coalesce_into_batches() {
        let path = scratch("coalesce");
        let log = Arc::new(GroupCommitLog::with_tick(&path, LONG_TICK).unwrap());
        const THREADS: u64 = 4;
        const APPENDS: u64 = 128;
        std::thread::scope(|scope| {
            for w in 0..THREADS {
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    for i in 0..APPENDS {
                        let rec = record(w * APPENDS + i + 1, w as u8);
                        let lsn = log.append_frame_ticketed(&encode_record(&rec));
                        log.wait_durable(lsn).unwrap();
                    }
                });
            }
        });
        assert_eq!(log.records_written(), THREADS * APPENDS);
        assert!(
            log.batches_hardened() < THREADS * APPENDS,
            "every record got its own batch — group commit never coalesced \
             ({} batches for {} records)",
            log.batches_hardened(),
            THREADS * APPENDS
        );
        drop(log);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn io_errors_are_sticky_and_propagate_through_wait_durable() {
        // /dev/full accepts the open but fails every write with ENOSPC:
        // the ticket can never become durable, and the error must reach the
        // waiting committer instead of hanging or silently succeeding —
        // whether the waiter itself led the failing flush (long tick) or
        // the background ticker hit it (short tick) and the failing harden
        // woke the waiter.
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        for tick in [LONG_TICK, Duration::from_micros(200)] {
            let log = GroupCommitLog::with_tick("/dev/full", tick).unwrap();
            let lsn = log.append_frame_ticketed(&encode_record(&record(1, 3)));
            let first = log.wait_durable(lsn);
            assert!(
                matches!(first, Err(MmdbError::LogIo(_))),
                "[tick {tick:?}] wait_durable must surface the write failure, got {first:?}"
            );
            // Sticky: later waits and flushes keep failing with the first error.
            assert_eq!(first, log.wait_durable(lsn));
            assert_eq!(first, log.flush());
            // Appends after the failure never panic or block.
            let lsn2 = log.append_frame_ticketed(&encode_record(&record(2, 4)));
            assert!(lsn2 > lsn);
            assert!(log.wait_durable(lsn2).is_err());
            assert_eq!(log.durable_lsn(), Lsn::ZERO);
        }
    }

    /// Once the log is torn, no later batch may be written: the failed
    /// batch can have left a partial frame at the tail, and appending past
    /// it would turn a recoverable torn tail into mid-stream corruption
    /// (and durably persist frames of transactions that were reported
    /// rolled back). Simulates the tear by recording the sticky error
    /// directly, then drives every write path (flush, wait_durable leader,
    /// drop) and asserts the file never grows.
    #[test]
    fn a_torn_log_never_writes_later_batches() {
        let path = scratch("torn-gate");
        let log = GroupCommitLog::with_tick(&path, LONG_TICK).unwrap();
        log.append_frame(&encode_record(&record(1, 1)));
        log.flush().unwrap();
        let confirmed = log.durable_lsn();

        log.shared
            .error
            .record(std::io::Error::other("simulated mid-batch tear"));
        // Simulate the failing batch's partial progress: unconfirmed bytes
        // that reached the file (or page cache) before the error.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"unconfirmed partial batch").unwrap();
        }
        let lsn = log.append_frame_ticketed(&encode_record(&record(2, 2)));
        assert!(lsn > confirmed, "tickets stay monotone after the tear");
        assert!(log.flush().is_err());
        assert!(log.wait_durable(lsn).is_err());
        // A ticket confirmed durable before the failure still succeeds.
        log.wait_durable(confirmed).unwrap();
        assert_eq!(log.durable_lsn(), confirmed);
        drop(log); // the final drop-harden must not write either

        // The gated hardens truncated the unconfirmed tail back to the
        // watermark: the file holds exactly the confirmed prefix, cleanly.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            confirmed.0,
            "unconfirmed bytes must be cut back to the durable watermark"
        );
        let outcome = read_log_file(&path).unwrap();
        assert!(outcome.is_clean());
        assert_eq!(
            outcome.records,
            vec![record(1, 1)],
            "no bytes may reach the file after the tear"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_append_with_tick_cuts_the_torn_tail_and_resumes_lsns() {
        let path = scratch("reopen");
        let end;
        {
            let log = GroupCommitLog::with_tick(&path, LONG_TICK).unwrap();
            log.append_frame(&encode_record(&record(1, 1)));
            log.append_frame(&encode_record(&record(2, 2)));
            log.flush().unwrap();
            end = log.appended_lsn();
        }
        // Crash: a partial frame at the tail.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let recovered = read_log_file(&path).unwrap();
        assert_eq!(recovered.records, vec![record(1, 1)]);
        {
            let log = GroupCommitLog::open_append_with_tick(
                &path,
                Lsn::ZERO,
                recovered.valid_bytes,
                LONG_TICK,
            )
            .unwrap();
            assert_eq!(log.appended_lsn(), Lsn(recovered.valid_bytes));
            assert_eq!(log.durable_lsn(), Lsn(recovered.valid_bytes));
            assert!(log.appended_lsn() < end, "the torn record is gone");
            let lsn = log.append_frame_ticketed(&encode_record(&record(3, 3)));
            log.wait_durable(lsn).unwrap();
        }
        let outcome = read_log_file(&path).unwrap();
        assert!(outcome.is_clean());
        assert_eq!(outcome.records, vec![record(1, 1), record(3, 3)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rotate_to_truncates_the_prefix_and_keeps_lsns_monotone() {
        let path = scratch("rotate-old");
        let new_path = scratch("rotate-new");
        let log = GroupCommitLog::with_tick(&path, LONG_TICK).unwrap();
        let a = log.append_frame_ticketed(&encode_record(&record(1, 0)));
        log.flush().unwrap();
        let b = log.append_frame_ticketed(&encode_record(&record(2, 1)));
        // Record 2 is only buffered; rotation must harden it first, then
        // carry it (the tail above the keep point) into the new segment.
        log.rotate_to(&new_path, a, || Ok(())).unwrap();
        assert_eq!(log.base_lsn(), a);
        assert_eq!(log.durable_lsn(), b);
        assert_eq!(
            read_log_file(&new_path).unwrap().records,
            vec![record(2, 1)]
        );
        // Appends continue into the new segment with monotone tickets.
        let c = log.append_frame_ticketed(&encode_record(&record(3, 2)));
        assert!(c > b);
        log.wait_durable(c).unwrap();
        assert_eq!(
            std::fs::metadata(&new_path).unwrap().len(),
            c.0 - a.0,
            "physical length is the logical length minus the base"
        );
        let outcome = read_log_file(&new_path).unwrap();
        assert_eq!(outcome.records, vec![record(2, 1), record(3, 2)]);
        // The old segment is the caller's to delete, untouched since.
        assert_eq!(read_log_file(&path).unwrap().records.len(), 2);
        drop(log);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&new_path);
    }

    #[test]
    fn rotate_to_publish_failure_keeps_the_old_segment_active() {
        let path = scratch("rotate-fail-old");
        let new_path = scratch("rotate-fail-new");
        let log = GroupCommitLog::with_tick(&path, LONG_TICK).unwrap();
        let a = log.append_frame_ticketed(&encode_record(&record(1, 0)));
        log.flush().unwrap();
        let err = log
            .rotate_to(&new_path, a, || {
                Err(MmdbError::LogIo("manifest append failed".into()))
            })
            .unwrap_err();
        assert!(matches!(err, MmdbError::LogIo(_)));
        assert_eq!(log.base_lsn(), Lsn::ZERO, "rotation abandoned");
        assert!(!new_path.exists(), "half-built segment must be removed");
        // The log keeps serving on the old file.
        let b = log.append_frame_ticketed(&encode_record(&record(2, 1)));
        log.wait_durable(b).unwrap();
        assert_eq!(read_log_file(&path).unwrap().records.len(), 2);
        drop(log);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lsn_tickets_are_monotone_byte_offsets() {
        let path = scratch("lsn");
        let log = GroupCommitLog::with_tick(&path, LONG_TICK).unwrap();
        assert_eq!(log.appended_lsn(), Lsn::ZERO);
        let frame = encode_record(&record(1, 0));
        let a = log.append_frame_ticketed(&frame);
        let b = log.append_frame_ticketed(&frame);
        assert_eq!(a.0, frame.len() as u64);
        assert_eq!(b.0, 2 * frame.len() as u64);
        assert!(b > a);
        assert_eq!(log.appended_lsn(), b);
        assert_eq!(log.durable_lsn(), Lsn::ZERO);
        log.flush().unwrap();
        assert_eq!(log.durable_lsn(), b);
        drop(log);
        let _ = std::fs::remove_file(&path);
    }
}

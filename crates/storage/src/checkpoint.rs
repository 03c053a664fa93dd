//! Checkpointing and redo-log truncation.
//!
//! Without checkpoints the redo log grows without bound and recovery time is
//! proportional to the whole history. This module bounds both: a *checkpoint*
//! is a consistent image of the database serialized to a file, and once it
//! is durably installed the log prefix below the checkpoint's LSN is dead
//! weight — recovery becomes *load checkpoint + replay tail* (paper §3.3:
//! "periodically, the system checkpoints the database so the log can be
//! truncated").
//!
//! ## Directory layout
//!
//! A [`CheckpointStore`] owns one directory:
//!
//! ```text
//! <dir>/MANIFEST       append-only, framed; the recovery root
//! <dir>/wal-<g>.log    the redo log segment of generation <g>
//! <dir>/ckpt-<g>.db    the checkpoint image installed at generation <g>
//! <dir>/ckpt.tmp       an image being written (never read by recovery)
//! ```
//!
//! Every file uses the redo log's wire discipline (length prefix with XOR
//! self-check, body, trailing checksum — see [`crate::log`]), so a torn tail
//! is always distinguishable from corruption.
//!
//! ## The manifest
//!
//! The `MANIFEST` is an append-only sequence of framed entries; the **last
//! complete entry wins**. Each entry names the live log segment (and the
//! logical LSN of its byte 0) plus the installed *checkpoint chain*: the
//! images recovery folds, in order, each with its LSN and snapshot read
//! timestamp. An entry is only ever appended *after* every file it
//! references is durable, so the last complete entry always describes files
//! that exist with valid contents; a crash mid-append leaves a torn tail
//! that recovery skips, falling back to the previous entry.
//!
//! ## Images and chains
//!
//! Every image has one format: a header frame carrying
//! `(lsn, read_ts, parent_read_ts)`, ordinary redo frames at
//! `end_ts = read_ts` holding at most one `Write` or `Delete` op per primary
//! key, and a trailer frame with the op count. An image is a *delta* over
//! the chain whose tip snapshot is `parent_read_ts`: the commits with end
//! timestamps in `(parent_read_ts, read_ts]`, folded newest-wins per primary
//! key — a row for each key whose newest op writes it, a delete for each
//! whose newest op deletes it — so checkpointing pays for what changed, not
//! what exists. A *base* image is a delta over the empty chain
//! (`parent_read_ts == Timestamp::ZERO`): every live row, and no deletes.
//! Recovery streams each image of the chain, then the log tail above the
//! chain tip, through one newest-wins fold. Installing a base replaces the
//! chain and deletes the superseded files (compaction); the chain length is
//! bounded by `CheckpointPolicy::max_chain`.
//!
//! ## The checkpoint protocol
//!
//! 1. **Write** — [`CheckpointStore::begin_image`] opens `ckpt.tmp`; the
//!    caller streams every op through [`CheckpointWriter::write_row`] /
//!    [`CheckpointWriter::write_delete`] and calls
//!    [`CheckpointWriter::finish`], which appends the trailer frame and
//!    fsyncs. A crash here leaves only a dead tmp file.
//! 2. **Install** — [`CheckpointStore::install_image`] renames the tmp file
//!    to `ckpt-<g>.db`, fsyncs the directory, then appends (and fsyncs) a
//!    manifest entry whose chain is `[image]` for a base and the current
//!    chain plus the image for a delta. A crash before the entry is
//!    complete recovers from the previous manifest entry.
//! 3. **Truncate** — [`CheckpointStore::truncate_log`] rotates the
//!    [`GroupCommitLog`] onto `wal-<g>.log` keeping only bytes at LSNs `>=`
//!    the checkpoint LSN; the manifest entry naming the new segment is
//!    appended *inside* the rotation's publish window (under the flush lock,
//!    before any new batch can harden into the new segment), so a crash at
//!    any byte of the truncation recovers from the old segment. Only after
//!    the entry is durable is the old segment deleted.
//!
//! Each step is individually crash-atomic, which is why they are exposed as
//! separate operations: the recovery crash tests drive byte-level crash
//! states between and inside each one.
//!
//! ## Consistency contract
//!
//! The writer records the pair `(ckpt_lsn, read_ts)` chosen by the caller.
//! The engines capture `ckpt_lsn = appended_lsn()` **before** drawing the
//! snapshot timestamp `read_ts`; since both engines draw a commit's end
//! timestamp before appending its frame, every frame wholly below `ckpt_lsn`
//! commits at `end_ts < read_ts` and is therefore inside the snapshot.
//! Recovery loads the chain, then replays the log tail from the tip's
//! `ckpt_lsn`, skipping records with `end_ts <= read_ts` (already in the
//! chain). Ops are serialized as ordinary redo ops at `end_ts = read_ts`, so
//! an image is literally a compacted, reordered prefix of the log.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use mmdb_common::durability::CheckpointPolicy;
use mmdb_common::error::{MmdbError, Result};
use mmdb_common::ids::{TableId, Timestamp};
use mmdb_common::row::Row;

use crate::group_commit::{sync_parent_dir, GroupCommitLog};
use crate::log::{decode_body, encode_frame_into, write_frame, FrameStream, LogOp, LogRecord, Lsn};

/// Magic bytes opening a checkpoint file's header frame.
const CKPT_MAGIC: &[u8; 8] = b"MMDBCKP1";
/// Magic bytes of the trailer frame that marks a checkpoint complete.
const CKPT_TRAILER: &[u8; 8] = b"MMDBCKPE";
/// Image format version: a 36-byte header (magic, version, LSN, read
/// timestamp, parent read timestamp).
const CKPT_VERSION: u32 = 3;
/// The manifest file name inside a checkpoint directory.
const MANIFEST: &str = "MANIFEST";
/// Op frames are flushed once the pending batch reaches this many bytes.
pub(crate) const ROW_BATCH_TARGET: usize = 64 * 1024;
/// Chunk size for streaming checkpoint/manifest reads.
const CKPT_CHUNK: usize = 64 * 1024;

fn io_err(e: std::io::Error) -> MmdbError {
    MmdbError::LogIo(e.to_string())
}

fn invalid(reason: &'static str) -> MmdbError {
    MmdbError::CheckpointInvalid { reason }
}

// ---------------------------------------------------------------------------
// Manifest entries
// ---------------------------------------------------------------------------

/// One manifest entry: the state of the directory at a generation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestEntry {
    /// Monotone generation counter; bumped by install and truncate.
    generation: u64,
    /// File name (within the directory) of the live log segment.
    log_name: String,
    /// Logical LSN of the log segment's byte 0.
    log_base: Lsn,
    /// The installed checkpoint chain in apply order: a base image, then
    /// its deltas. Empty before the first checkpoint.
    chain: Vec<CheckpointMeta>,
}

/// One checkpoint chain element in a manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CheckpointMeta {
    /// File name (within the directory) of the checkpoint.
    name: String,
    /// Log LSN the checkpoint covers: every record below it is in the image
    /// (together with the chain elements before it).
    lsn: Lsn,
    /// Snapshot read timestamp of the image.
    read_ts: Timestamp,
}

impl ManifestEntry {
    fn encode_into(&self, body: &mut Vec<u8>) {
        body.extend_from_slice(&self.generation.to_le_bytes());
        body.extend_from_slice(&self.log_base.0.to_le_bytes());
        body.extend_from_slice(&(self.log_name.len() as u32).to_le_bytes());
        body.extend_from_slice(self.log_name.as_bytes());
        body.extend_from_slice(&(self.chain.len() as u32).to_le_bytes());
        for meta in &self.chain {
            body.extend_from_slice(&meta.lsn.0.to_le_bytes());
            body.extend_from_slice(&meta.read_ts.raw().to_le_bytes());
            body.extend_from_slice(&(meta.name.len() as u32).to_le_bytes());
            body.extend_from_slice(meta.name.as_bytes());
        }
    }

    /// Decode an entry body. The frame checksum already passed, so any
    /// structural mismatch here means the manifest was written by something
    /// else (or a format bug), not a crash — [`MmdbError::CheckpointInvalid`].
    fn decode(body: &[u8]) -> Result<ManifestEntry> {
        let mut cursor = Cursor { body, pos: 0 };
        let generation = cursor.take_u64()?;
        let log_base = Lsn(cursor.take_u64()?);
        let log_name = cursor.take_name("manifest log name is not UTF-8")?;
        let count = cursor.take_u32()?;
        let chain = (0..count)
            .map(|_| {
                let lsn = Lsn(cursor.take_u64()?);
                let read_ts = Timestamp(cursor.take_u64()?);
                let name = cursor.take_name("manifest checkpoint name is not UTF-8")?;
                Ok(CheckpointMeta { name, lsn, read_ts })
            })
            .collect::<Result<Vec<_>>>()?;
        if cursor.pos != body.len() {
            return Err(invalid("manifest entry has trailing bytes"));
        }
        Ok(ManifestEntry {
            generation,
            log_name,
            log_base,
            chain,
        })
    }
}

/// Byte cursor over a manifest entry body.
struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let slice = self
            .body
            .get(self.pos..self.pos + n)
            .ok_or(invalid("manifest entry body too short"))?;
        self.pos += n;
        Ok(slice)
    }

    fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn take_name(&mut self, err: &'static str) -> Result<String> {
        let len = self.take_u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| invalid(err))
    }
}

/// Frame an entry and append it durably (write + fsync).
fn append_manifest_entry(file: &mut File, entry: &ManifestEntry) -> Result<()> {
    let mut frame = Vec::with_capacity(80);
    write_frame(&mut frame, |body| entry.encode_into(body));
    file.write_all(&frame).map_err(io_err)?;
    file.sync_all().map_err(io_err)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Recovery plan
// ---------------------------------------------------------------------------

/// A reference to an installed checkpoint, resolved to a full path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRef {
    /// Path of the checkpoint file.
    pub path: PathBuf,
    /// Log LSN the checkpoint covers.
    pub lsn: Lsn,
    /// Snapshot read timestamp of the image.
    pub read_ts: Timestamp,
}

/// What recovery should do, decoded from the manifest's last complete entry.
///
/// Produced by [`CheckpointStore::plan`] without touching the log or the
/// checkpoint files, so callers can sequence their own recovery: apply the
/// [`chain`](RecoveryPlan::chain) in order, stream the log tail from
/// [`RecoveryPlan::log_tail_offset`], then reopen the store with
/// [`CheckpointStore::open_with_tick`] passing the physical prefix the tail
/// read validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// Generation of the winning manifest entry.
    pub generation: u64,
    /// The installed checkpoint chain to load first, in apply order (a base
    /// image, then its deltas). Empty before the first checkpoint.
    pub chain: Vec<CheckpointRef>,
    /// Path of the live log segment.
    pub log_path: PathBuf,
    /// Logical LSN of the log segment's byte 0.
    pub log_base: Lsn,
    /// Valid prefix of the manifest itself (a crash mid-append leaves a torn
    /// tail that [`CheckpointStore::open_with_tick`] cuts before appending
    /// again).
    pub manifest_valid_bytes: u64,
}

impl RecoveryPlan {
    /// The last chain element — the checkpoint whose LSN and snapshot
    /// timestamp bound the log tail. `None` before the first checkpoint.
    pub fn last_checkpoint(&self) -> Option<&CheckpointRef> {
        self.chain.last()
    }

    /// Physical file offset in the log segment where tail replay starts:
    /// the last chain element's LSN translated into the segment, or 0
    /// without a checkpoint.
    pub fn log_tail_offset(&self) -> u64 {
        match self.chain.last() {
            Some(ckpt) => ckpt.lsn.0.saturating_sub(self.log_base.0),
            None => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Image writer / reader
// ---------------------------------------------------------------------------

/// Streams a checkpoint image into `ckpt.tmp`.
///
/// Ops are buffered and emitted as ordinary redo-log frames at
/// `end_ts = read_ts`, batched to `ROW_BATCH_TARGET` bytes per frame, in the
/// order they were written, between a header and a trailer frame. Obtain
/// one from [`CheckpointStore::begin_image`], feed every op through, then
/// [`finish`](Self::finish).
pub struct CheckpointWriter {
    file: File,
    tmp_path: PathBuf,
    lsn: Lsn,
    read_ts: Timestamp,
    /// Snapshot timestamp of the previous chain element;
    /// [`Timestamp::ZERO`] for a base image, which rejects deletes.
    parent_read_ts: Timestamp,
    rows: u64,
    deletes: u64,
    batch: Vec<LogOp>,
    batch_bytes: usize,
    frame: Vec<u8>,
}

/// A finished (written + fsynced) checkpoint still under its temporary
/// name. Pass to [`CheckpointStore::install_image`] to make it part of the
/// recovery source.
pub struct FinishedCheckpoint {
    tmp_path: PathBuf,
    lsn: Lsn,
    read_ts: Timestamp,
    parent_read_ts: Timestamp,
    /// Number of row (write) ops in the image.
    pub rows: u64,
    /// Number of delete ops in the image (always 0 for a base).
    pub deletes: u64,
    /// Size of the checkpoint file in bytes.
    pub bytes: u64,
}

impl CheckpointWriter {
    /// Add one row to the image. Ops may arrive in any order; an image
    /// holds at most one op per primary key.
    pub fn write_row(&mut self, table: TableId, row: &[u8]) -> Result<()> {
        self.rows += 1;
        self.push(
            row.len() + 9,
            LogOp::Write {
                table,
                row: Row::copy_from_slice(row),
            },
        )
    }

    /// Add one deleted primary key to the image (deltas only — a base image
    /// enumerates live rows and has nothing to delete).
    pub fn write_delete(&mut self, table: TableId, key: u64) -> Result<()> {
        if self.parent_read_ts == Timestamp::ZERO {
            return Err(invalid("a base checkpoint image cannot carry deletes"));
        }
        self.deletes += 1;
        self.push(13, LogOp::Delete { table, key })
    }

    fn push(&mut self, bytes: usize, op: LogOp) -> Result<()> {
        self.batch.push(op);
        self.batch_bytes += bytes;
        if self.batch_bytes >= ROW_BATCH_TARGET {
            self.flush_batch()?;
        }
        Ok(())
    }

    fn flush_batch(&mut self) -> Result<()> {
        if self.batch.is_empty() {
            return Ok(());
        }
        self.frame.clear();
        encode_frame_into(
            &mut self.frame,
            self.read_ts,
            self.batch.iter().map(LogOp::as_ref),
        );
        self.file.write_all(&self.frame).map_err(io_err)?;
        self.batch.clear();
        self.batch_bytes = 0;
        Ok(())
    }

    /// Flush the last op batch, append the trailer frame (which is what
    /// marks the image complete — a checkpoint without it is treated as
    /// torn and never loaded) and fsync.
    pub fn finish(mut self) -> Result<FinishedCheckpoint> {
        self.flush_batch()?;
        self.frame.clear();
        write_frame(&mut self.frame, |trailer| {
            trailer.extend_from_slice(CKPT_TRAILER);
            trailer.extend_from_slice(&(self.rows + self.deletes).to_le_bytes());
        });
        self.file.write_all(&self.frame).map_err(io_err)?;
        self.file.sync_all().map_err(io_err)?;
        let bytes = self.file.stream_position().map_err(io_err)?;
        Ok(FinishedCheckpoint {
            tmp_path: self.tmp_path,
            lsn: self.lsn,
            read_ts: self.read_ts,
            parent_read_ts: self.parent_read_ts,
            rows: self.rows,
            deletes: self.deletes,
            bytes,
        })
    }
}

/// Streams a checkpoint image back, one op frame at a time.
///
/// Validation is strict because an image is only ever read after the
/// manifest durably named it, at which point it must be perfect: the header
/// magic/version/length on [`open`](Self::open), then every frame's
/// checksum, every op's timestamp, no delete in a base image, and at the end
/// the trailer's op count and the absence of bytes after it. Any shortfall —
/// including a torn tail, which in a log would be tolerated — is an error:
/// loading half an image would silently lose rows.
pub struct ImageReader {
    /// Log LSN the image covers.
    pub lsn: Lsn,
    /// Snapshot read timestamp of the image.
    pub read_ts: Timestamp,
    /// The previous chain element's snapshot timestamp;
    /// [`Timestamp::ZERO`] for a base image.
    pub parent_read_ts: Timestamp,
    frames: FrameStream<File>,
    ops: u64,
}

impl ImageReader {
    /// Open the image at `path` and validate its header frame.
    pub fn open(path: impl AsRef<Path>) -> Result<ImageReader> {
        let file = File::open(path.as_ref()).map_err(io_err)?;
        let mut frames = FrameStream::new(file, CKPT_CHUNK, 0);
        let (_, header) = frames
            .next_body()?
            .ok_or(invalid("checkpoint file has no header frame"))?;
        if header.len() < 12 || &header[..8] != CKPT_MAGIC {
            return Err(invalid("checkpoint header magic mismatch"));
        }
        if header[8..12] != CKPT_VERSION.to_le_bytes() {
            return Err(invalid("unsupported checkpoint version"));
        }
        if header.len() != 36 {
            return Err(invalid("checkpoint header length mismatch"));
        }
        let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        let (lsn, read_ts, parent_read_ts) =
            (Lsn(word(12)), Timestamp(word(20)), Timestamp(word(28)));
        Ok(ImageReader {
            lsn,
            read_ts,
            parent_read_ts,
            frames,
            ops: 0,
        })
    }

    /// The next op frame, as a redo record at `read_ts`. `Ok(None)` once the
    /// trailer has been read and the whole image validated.
    pub fn next_record(&mut self) -> Result<Option<LogRecord>> {
        let (offset, body) = self
            .frames
            .next_body()?
            .ok_or(invalid("checkpoint is missing its trailer frame"))?;
        if body.len() == 16 && &body[..8] == CKPT_TRAILER {
            if body[8..16] != self.ops.to_le_bytes() {
                return Err(invalid("checkpoint trailer op count mismatch"));
            }
            if self.frames.next_body()?.is_some() || self.frames.torn_bytes() > 0 {
                return Err(invalid("checkpoint has bytes after its trailer frame"));
            }
            return Ok(None);
        }
        let record = decode_body(body, offset)?;
        if record.end_ts != self.read_ts {
            return Err(invalid("checkpoint op frame at a foreign timestamp"));
        }
        let is_delete = |op: &LogOp| matches!(op, LogOp::Delete { .. });
        if self.parent_read_ts == Timestamp::ZERO && record.ops.iter().any(is_delete) {
            return Err(invalid("base checkpoint image contains a delete op"));
        }
        self.ops += record.ops.len() as u64;
        Ok(Some(record))
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Mutable manifest state: the append handle plus the entry currently in
/// force. Lock ordering: this mutex is taken **before** the logger's flush
/// lock (via [`GroupCommitLog::rotate_to`]'s publish callback); nothing
/// takes them in the other order.
struct ManifestState {
    file: File,
    current: ManifestEntry,
}

/// A checkpoint directory: the group-commit redo log, the manifest, and the
/// checkpoint lifecycle (write → install → truncate).
///
/// One store per database instance; the engines hold it alongside their
/// in-memory state and route their redo stream through
/// [`CheckpointStore::logger`].
pub struct CheckpointStore {
    dir: PathBuf,
    logger: Arc<GroupCommitLog>,
    manifest: Mutex<ManifestState>,
    /// Cumulative checkpoint-image bytes durably installed through this
    /// store handle (base + delta). The delta A/B benchmark and the CI
    /// bytes-written regression guard read this.
    bytes_written: std::sync::atomic::AtomicU64,
}

impl CheckpointStore {
    /// Create a fresh checkpoint directory — generation 0, an empty
    /// `wal-0.log`, no checkpoint — and open it like
    /// [`open_with_tick`](Self::open_with_tick), whose log hardens every
    /// `tick`.
    pub fn create_with_tick(dir: impl AsRef<Path>, tick: Duration) -> Result<CheckpointStore> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(io_err)?;
        let entry = ManifestEntry {
            generation: 0,
            log_name: "wal-0.log".to_string(),
            log_base: Lsn::ZERO,
            chain: Vec::new(),
        };
        File::create(dir.join(&entry.log_name)).map_err(io_err)?;
        let manifest_path = dir.join(MANIFEST);
        let mut file = File::create(&manifest_path).map_err(io_err)?;
        append_manifest_entry(&mut file, &entry)?;
        sync_parent_dir(&manifest_path);
        Self::open_with_tick(dir, &Self::plan(dir)?, 0, tick)
    }

    /// Decode the manifest's last complete entry into a [`RecoveryPlan`].
    ///
    /// Read-only: touches neither the log nor the checkpoint file, so it is
    /// safe to call on a directory that is about to be recovered (or merely
    /// inspected). A torn manifest tail falls back to the previous entry;
    /// corruption inside the valid region, or a manifest with no complete
    /// entry at all, is an error.
    pub fn plan(dir: impl AsRef<Path>) -> Result<RecoveryPlan> {
        let dir = dir.as_ref();
        let file = File::open(dir.join(MANIFEST)).map_err(io_err)?;
        let mut frames = FrameStream::new(file, CKPT_CHUNK, 0);
        let mut last: Option<ManifestEntry> = None;
        while let Some((_, body)) = frames.next_body()? {
            last = Some(ManifestEntry::decode(body)?);
        }
        let entry = last.ok_or(invalid("manifest has no complete entry"))?;
        Ok(RecoveryPlan {
            generation: entry.generation,
            chain: entry
                .chain
                .iter()
                .map(|meta| CheckpointRef {
                    path: dir.join(&meta.name),
                    lsn: meta.lsn,
                    read_ts: meta.read_ts,
                })
                .collect(),
            log_path: dir.join(&entry.log_name),
            log_base: entry.log_base,
            manifest_valid_bytes: frames.consumed(),
        })
    }

    /// Reopen a directory after recovery, with a log that hardens every
    /// `tick`.
    ///
    /// `valid_bytes` is the *physical* prefix of the live log segment that
    /// recovery decoded cleanly (the `valid_bytes` of the tail read); the
    /// segment is cut back to it and appends resume at
    /// `log_base + valid_bytes`. The manifest's own torn tail (if a crash
    /// interrupted an entry append) is cut the same way before the file is
    /// reused for appends. A stale `ckpt.tmp` from an interrupted write is
    /// deleted.
    pub fn open_with_tick(
        dir: impl AsRef<Path>,
        plan: &RecoveryPlan,
        valid_bytes: u64,
        tick: Duration,
    ) -> Result<CheckpointStore> {
        let dir = dir.as_ref();
        let logger =
            GroupCommitLog::open_append_with_tick(&plan.log_path, plan.log_base, valid_bytes, tick)
                .map_err(io_err)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(MANIFEST))
            .map_err(io_err)?;
        file.set_len(plan.manifest_valid_bytes).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
        file.seek(SeekFrom::End(0)).map_err(io_err)?;
        let _ = fs::remove_file(dir.join("ckpt.tmp"));
        let log_name = file_name(&plan.log_path)?;
        let chain = plan
            .chain
            .iter()
            .map(|ckpt| {
                Ok(CheckpointMeta {
                    name: file_name(&ckpt.path)?,
                    lsn: ckpt.lsn,
                    read_ts: ckpt.read_ts,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        // Garbage-collect image files the winning manifest entry does not
        // reference — e.g. the stale chain of a compaction whose new base
        // was published but whose file deletes never ran. The manifest, not
        // the directory listing, is authoritative; unreferenced files are
        // dead weight.
        if let Ok(entries) = fs::read_dir(dir) {
            for dirent in entries.flatten() {
                let name = dirent.file_name();
                let Some(name) = name.to_str() else { continue };
                let is_image = name.starts_with("ckpt-") && name.ends_with(".db");
                if is_image && !chain.iter().any(|meta| meta.name == name) {
                    let _ = fs::remove_file(dirent.path());
                }
            }
        }
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
            logger: Arc::new(logger),
            manifest: Mutex::new(ManifestState {
                file,
                current: ManifestEntry {
                    generation: plan.generation,
                    log_name,
                    log_base: plan.log_base,
                    chain,
                },
            }),
            bytes_written: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The directory this store owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The group-commit redo log; engines route their commit frames here.
    pub fn logger(&self) -> &Arc<GroupCommitLog> {
        &self.logger
    }

    /// Path of the live log segment `logger()` is appending to. The delta
    /// checkpointers scan its immutable prefix (bytes below a captured
    /// checkpoint LSN) after flushing the logger.
    pub fn log_path(&self) -> PathBuf {
        let m = self.manifest.lock();
        self.dir.join(&m.current.log_name)
    }

    /// Generation of the manifest entry currently in force.
    pub fn generation(&self) -> u64 {
        self.manifest.lock().current.generation
    }

    /// The last element of the installed checkpoint chain (the one whose
    /// LSN bounds the log tail), if any.
    pub fn last_checkpoint(&self) -> Option<CheckpointRef> {
        let m = self.manifest.lock();
        m.current.chain.last().map(|meta| CheckpointRef {
            path: self.dir.join(&meta.name),
            lsn: meta.lsn,
            read_ts: meta.read_ts,
        })
    }

    /// Number of files in the installed checkpoint chain (0 before the
    /// first checkpoint, 1 after a base, 1+n with n deltas).
    pub fn chain_len(&self) -> usize {
        self.manifest.lock().current.chain.len()
    }

    /// Cumulative checkpoint-image bytes durably installed through this
    /// store handle (base + delta images; resets with the handle).
    pub fn checkpoint_bytes_written(&self) -> u64 {
        self.bytes_written
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Redo-log bytes appended since the last installed checkpoint's LSN
    /// (since the beginning of time without one).
    pub fn log_bytes_since_checkpoint(&self) -> u64 {
        let since = {
            let m = self.manifest.lock();
            m.current.chain.last().map(|meta| meta.lsn.0).unwrap_or(0)
        };
        self.logger.appended_lsn().0.saturating_sub(since)
    }

    /// Should a checkpoint be taken now, per `policy`?
    pub fn checkpoint_due(&self, policy: &CheckpointPolicy) -> bool {
        policy.due(self.log_bytes_since_checkpoint())
    }

    /// Per `policy`, should the next checkpoint be a delta (extend the
    /// chain) rather than a fresh base? True only when deltas are enabled
    /// (`max_chain > 1`), a base exists to delta against, and the chain has
    /// room; otherwise the next checkpoint compacts to a base.
    pub fn delta_due(&self, policy: &CheckpointPolicy) -> bool {
        if policy.max_chain <= 1 {
            return false;
        }
        let len = self.chain_len();
        len >= 1 && len < policy.max_chain as usize
    }

    /// Open `ckpt.tmp` for an image covering log LSN `lsn` at snapshot
    /// timestamp `read_ts`, over the chain whose tip snapshot is
    /// `parent_read_ts` ([`Timestamp::ZERO`] for a base image). At most one
    /// writer should exist at a time (they share the tmp name); the engines
    /// serialize checkpoints.
    pub fn begin_image(
        &self,
        lsn: Lsn,
        read_ts: Timestamp,
        parent_read_ts: Timestamp,
    ) -> Result<CheckpointWriter> {
        if read_ts <= parent_read_ts {
            return Err(invalid("image snapshot does not postdate its parent"));
        }
        let tmp_path = self.dir.join("ckpt.tmp");
        let mut file = File::create(&tmp_path).map_err(io_err)?;
        let mut frame = Vec::with_capacity(52);
        write_frame(&mut frame, |header| {
            header.extend_from_slice(CKPT_MAGIC);
            header.extend_from_slice(&CKPT_VERSION.to_le_bytes());
            for word in [lsn.0, read_ts.raw(), parent_read_ts.raw()] {
                header.extend_from_slice(&word.to_le_bytes());
            }
        });
        file.write_all(&frame).map_err(io_err)?;
        Ok(CheckpointWriter {
            file,
            tmp_path,
            lsn,
            read_ts,
            parent_read_ts,
            rows: 0,
            deletes: 0,
            batch: Vec::new(),
            batch_bytes: 0,
            frame,
        })
    }

    /// Make a finished image part of the recovery source: rename it to
    /// `ckpt-<g>.db`, fsync the directory, append (and fsync) a manifest
    /// entry with the new chain. A base image (parent [`Timestamp::ZERO`])
    /// becomes the whole chain, and the superseded chain's files are deleted
    /// once the entry is durable (compaction). A delta's parent must be the
    /// chain tip's snapshot — checkpoints are serialized by the engines, so
    /// a mismatch is a protocol bug — and the delta is appended to the
    /// chain. The log is untouched: call [`truncate_log`](Self::truncate_log)
    /// next to reclaim its prefix.
    pub fn install_image(&self, finished: FinishedCheckpoint) -> Result<CheckpointRef> {
        let base = finished.parent_read_ts == Timestamp::ZERO;
        let mut m = self.manifest.lock();
        let tip_read_ts = m.current.chain.last().map(|tip| tip.read_ts);
        if !base && tip_read_ts != Some(finished.parent_read_ts) {
            return Err(invalid("image parent snapshot is not the chain tip"));
        }
        let generation = m.current.generation + 1;
        let name = format!("ckpt-{generation}.db");
        let path = self.dir.join(&name);
        fs::rename(&finished.tmp_path, &path).map_err(io_err)?;
        sync_parent_dir(&path);
        let mut chain = if base {
            Vec::new()
        } else {
            m.current.chain.clone()
        };
        chain.push(CheckpointMeta {
            name,
            lsn: finished.lsn,
            read_ts: finished.read_ts,
        });
        let entry = ManifestEntry {
            generation,
            log_name: m.current.log_name.clone(),
            log_base: m.current.log_base,
            chain,
        };
        append_manifest_entry(&mut m.file, &entry)?;
        let old = std::mem::replace(&mut m.current, entry);
        drop(m);
        self.bytes_written
            .fetch_add(finished.bytes, std::sync::atomic::Ordering::Relaxed);
        if base {
            for meta in old.chain {
                let _ = fs::remove_file(self.dir.join(meta.name));
            }
        }
        Ok(CheckpointRef {
            path,
            lsn: finished.lsn,
            read_ts: finished.read_ts,
        })
    }

    /// Truncate the redo log below the chain tip's LSN by rotating onto
    /// `wal-<g>.log` (see [`GroupCommitLog::rotate_to`]). The manifest
    /// entry naming the new segment is the rotation's publish step —
    /// appended under the log's flush lock, before any new batch can harden
    /// into the new segment — so a crash at any byte recovers from the old
    /// segment. The old segment is deleted only after the entry is durable.
    pub fn truncate_log(&self) -> Result<()> {
        let mut m = self.manifest.lock();
        let tip = m
            .current
            .chain
            .last()
            .cloned()
            .ok_or(invalid("no checkpoint installed to truncate below"))?;
        let generation = m.current.generation + 1;
        let log_name = format!("wal-{generation}.log");
        let new_path = self.dir.join(&log_name);
        let old_path = self.dir.join(&m.current.log_name);
        let entry = ManifestEntry {
            generation,
            log_name,
            log_base: tip.lsn,
            chain: m.current.chain.clone(),
        };
        let state = &mut *m;
        self.logger.rotate_to(&new_path, tip.lsn, || {
            append_manifest_entry(&mut state.file, &entry)
        })?;
        m.current = entry;
        drop(m);
        let _ = fs::remove_file(old_path);
        Ok(())
    }
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.manifest.lock();
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .field("generation", &m.current.generation)
            .field("log", &m.current.log_name)
            .field("log_base", &m.current.log_base)
            .field("chain", &m.current.chain)
            .finish()
    }
}

fn file_name(path: &Path) -> Result<String> {
    path.file_name()
        .and_then(|name| name.to_str())
        .map(str::to_string)
        .ok_or(invalid("manifest path has no valid file name"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{read_log_file_from, LogOpRef, RedoLogger};

    const BASE: Timestamp = Timestamp::ZERO;

    /// A group-commit tick longer than any test here: the logs harden only
    /// on explicit flushes and checkpoints.
    const LONG_TICK: Duration = Duration::from_secs(3600);

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mmdb-checkpoint-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The frame of a commit at `ts` writing `rows` 24-byte rows.
    fn record(ts: u64, rows: usize) -> Vec<u8> {
        let payloads: Vec<[u8; 24]> = (0..rows).map(|i| [i as u8; 24]).collect();
        let mut frame = Vec::new();
        encode_frame_into(
            &mut frame,
            Timestamp(ts),
            payloads.iter().map(|row| LogOpRef::Write {
                table: TableId(0),
                row,
            }),
        );
        frame
    }

    /// Stream the image at `path` to its end: the reader (header fields)
    /// and every op in file order.
    fn read_image(path: impl AsRef<Path>) -> Result<(ImageReader, Vec<LogOp>)> {
        let mut reader = ImageReader::open(path)?;
        let mut ops = Vec::new();
        while let Some(record) = reader.next_record()? {
            ops.extend(record.ops);
        }
        Ok((reader, ops))
    }

    /// Write a base image at `read_ts` and install it.
    fn install_base(store: &CheckpointStore, lsn: Lsn, read_ts: u64) -> CheckpointRef {
        let writer = store.begin_image(lsn, Timestamp(read_ts), BASE).unwrap();
        store.install_image(writer.finish().unwrap()).unwrap()
    }

    #[test]
    fn fresh_store_plans_generation_zero() {
        let dir = scratch_dir("fresh-plan");
        let store = CheckpointStore::create_with_tick(&dir, LONG_TICK).unwrap();
        assert_eq!(store.generation(), 0);
        assert!(store.last_checkpoint().is_none());
        drop(store);
        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.generation, 0);
        assert_eq!(plan.chain, Vec::new());
        assert_eq!(plan.last_checkpoint(), None);
        assert_eq!(plan.log_base, Lsn::ZERO);
        assert_eq!(plan.log_tail_offset(), 0);
        assert_eq!(plan.log_path, dir.join("wal-0.log"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_write_read_round_trip_across_batches() {
        let dir = scratch_dir("ckpt-round-trip");
        let store = CheckpointStore::create_with_tick(&dir, LONG_TICK).unwrap();
        // Enough row bytes to force several ROW_BATCH_TARGET flushes.
        let mut writer = store.begin_image(Lsn(123), Timestamp(77), BASE).unwrap();
        let row_len = 1000;
        let total = 3 * ROW_BATCH_TARGET / row_len;
        let mut expected = Vec::new();
        for i in 0..total {
            let mut row = vec![0u8; row_len];
            row[..8].copy_from_slice(&(i as u64).to_le_bytes());
            let table = TableId((i % 3) as u32);
            writer.write_row(table, &row).unwrap();
            expected.push(LogOp::Write {
                table,
                row: Row::copy_from_slice(&row),
            });
        }
        let finished = writer.finish().unwrap();
        assert_eq!(finished.rows, total as u64);
        let mut reader = ImageReader::open(dir.join("ckpt.tmp")).unwrap();
        assert_eq!(reader.lsn, Lsn(123));
        assert_eq!(reader.read_ts, Timestamp(77));
        assert_eq!(reader.parent_read_ts, BASE);
        let mut frames = 0;
        let mut ops = Vec::new();
        while let Some(record) = reader.next_record().unwrap() {
            assert_eq!(record.end_ts, Timestamp(77));
            frames += 1;
            ops.extend(record.ops);
        }
        assert!(frames >= 3, "{frames} op frames");
        assert_eq!(ops, expected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_checkpoint_round_trips_and_old_versions_are_rejected() {
        let dir = scratch_dir("ckpt-empty");
        let store = CheckpointStore::create_with_tick(&dir, LONG_TICK).unwrap();
        let writer = store.begin_image(Lsn(5), Timestamp(9), BASE).unwrap();
        let finished = writer.finish().unwrap();
        assert_eq!(finished.rows, 0);
        let (reader, ops) = read_image(dir.join("ckpt.tmp")).unwrap();
        assert_eq!(ops, Vec::new());
        assert_eq!(reader.read_ts, Timestamp(9));
        // The same image under the header of format versions 1 and 2.
        let full = fs::read(dir.join("ckpt.tmp")).unwrap();
        let header_len = 16 + u32::from_le_bytes(full[..4].try_into().unwrap()) as usize;
        for version in [1u32, 2] {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, |header| {
                header.extend_from_slice(CKPT_MAGIC);
                header.extend_from_slice(&version.to_le_bytes());
                header.extend_from_slice(&[0; 16]);
            });
            bytes.extend_from_slice(&full[header_len..]);
            fs::write(dir.join("old.db"), &bytes).unwrap();
            let err = ImageReader::open(dir.join("old.db"))
                .err()
                .expect("old version");
            assert!(
                matches!(
                    err,
                    MmdbError::CheckpointInvalid {
                        reason: "unsupported checkpoint version"
                    }
                ),
                "{err:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_checkpoint_never_reads_as_a_smaller_image() {
        let dir = scratch_dir("ckpt-truncated");
        let store = CheckpointStore::create_with_tick(&dir, LONG_TICK).unwrap();
        let mut writer = store.begin_image(Lsn(1), Timestamp(2), BASE).unwrap();
        for i in 0..40u64 {
            writer.write_row(TableId(0), &i.to_le_bytes()).unwrap();
        }
        writer.finish().unwrap();
        let full = fs::read(dir.join("ckpt.tmp")).unwrap();
        let (_, whole) = read_image(dir.join("ckpt.tmp")).unwrap();
        assert_eq!(whole.len(), 40);
        let cut_path = dir.join("ckpt.cut");
        let expect_invalid = |bytes: &[u8], what: &str| {
            fs::write(&cut_path, bytes).unwrap();
            let err = read_image(&cut_path).err().expect("must not validate");
            assert!(
                matches!(
                    err,
                    MmdbError::CheckpointInvalid { .. } | MmdbError::LogCorrupt { .. }
                ),
                "{what}: unexpected error {err:?}"
            );
        };
        for cut in 0..full.len() {
            expect_invalid(&full[..cut], &format!("cut at {cut}"));
        }
        // Whole frames dropped: header + trailer with the op frame gone.
        let frame_len =
            |at: usize| 16 + u32::from_le_bytes(full[at..at + 4].try_into().unwrap()) as usize;
        let header_len = frame_len(0);
        let ops_len = frame_len(header_len);
        let without_ops = [&full[..header_len], &full[header_len + ops_len..]].concat();
        expect_invalid(&without_ops, "op frame dropped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn install_and_truncate_advance_the_manifest() {
        let dir = scratch_dir("install-truncate");
        let store = CheckpointStore::create_with_tick(&dir, LONG_TICK).unwrap();
        let logger = Arc::clone(store.logger());
        // Ten committed records; checkpoint after the first six.
        for ts in 1..=6u64 {
            logger.append_frame(&record(ts, 2));
        }
        logger.flush().unwrap();
        let ckpt_lsn = logger.appended_lsn();
        let read_ts = Timestamp(6);
        let mut writer = store.begin_image(ckpt_lsn, read_ts, BASE).unwrap();
        for i in 0..12u64 {
            writer.write_row(TableId(0), &[i as u8; 24]).unwrap();
        }
        let installed = store.install_image(writer.finish().unwrap()).unwrap();
        assert_eq!(store.generation(), 1);
        assert_eq!(installed.path, dir.join("ckpt-1.db"));
        assert!(dir.join("ckpt-1.db").exists());
        assert!(!dir.join("ckpt.tmp").exists());

        for ts in 7..=10u64 {
            logger.append_frame(&record(ts, 2));
        }
        store.truncate_log().unwrap();
        assert_eq!(store.generation(), 2);
        assert!(dir.join("wal-2.log").exists());
        assert!(!dir.join("wal-0.log").exists());
        assert_eq!(logger.base_lsn(), ckpt_lsn);

        // One more commit lands in the new segment.
        logger.append_frame(&record(11, 1));
        logger.flush().unwrap();
        drop(store);

        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.generation, 2);
        assert_eq!(plan.log_path, dir.join("wal-2.log"));
        assert_eq!(plan.log_base, ckpt_lsn);
        assert_eq!(plan.chain.len(), 1);
        let ckpt = plan
            .last_checkpoint()
            .cloned()
            .expect("checkpoint installed");
        assert_eq!(ckpt.lsn, ckpt_lsn);
        assert_eq!(ckpt.read_ts, read_ts);
        let (_, ops) = read_image(&ckpt.path).unwrap();
        assert_eq!(ops.len(), 12);
        // The tail holds exactly the post-checkpoint records.
        let tail = read_log_file_from(&plan.log_path, plan.log_tail_offset()).unwrap();
        let tail_ts: Vec<u64> = tail.records.iter().map(|r| r.end_ts.raw()).collect();
        assert_eq!(tail_ts, vec![7, 8, 9, 10, 11]);
        assert_eq!(tail.torn_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_tail_falls_back_to_the_previous_entry() {
        let dir = scratch_dir("manifest-torn");
        let store = CheckpointStore::create_with_tick(&dir, LONG_TICK).unwrap();
        let logger = Arc::clone(store.logger());
        logger.append_frame(&record(1, 1));
        logger.flush().unwrap();
        install_base(&store, logger.appended_lsn(), 1);
        drop(store);
        let manifest_path = dir.join(MANIFEST);
        let full = fs::read(&manifest_path).unwrap();
        let gen0 = CheckpointStore::plan(&dir).map(|p| p.generation).unwrap();
        assert_eq!(gen0, 1);
        // Find the first entry's frame length so cuts land inside entry 2.
        let plan_at = |bytes: &[u8]| -> Result<RecoveryPlan> {
            fs::write(&manifest_path, bytes).unwrap();
            CheckpointStore::plan(&dir)
        };
        let first_len = {
            let body_len = u32::from_le_bytes(full[0..4].try_into().unwrap()) as usize;
            8 + body_len + 8
        };
        for cut in first_len..=full.len() {
            let plan = plan_at(&full[..cut]).unwrap();
            if cut == full.len() {
                assert_eq!(plan.generation, 1);
            } else {
                assert_eq!(plan.generation, 0, "cut at {cut}");
                assert_eq!(plan.manifest_valid_bytes, first_len as u64);
            }
        }
        // Cuts inside the first entry leave no complete entry at all.
        for cut in 0..first_len {
            let err = plan_at(&full[..cut]).expect_err("no complete entry");
            assert!(matches!(err, MmdbError::CheckpointInvalid { .. }));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_cuts_the_torn_manifest_tail_and_resumes() {
        let dir = scratch_dir("open-resume");
        let store = CheckpointStore::create_with_tick(&dir, LONG_TICK).unwrap();
        let logger = Arc::clone(store.logger());
        logger.append_frame(&record(1, 1));
        logger.flush().unwrap();
        install_base(&store, logger.appended_lsn(), 1);
        drop(store);
        // Simulate a crash mid-append of a third manifest entry.
        let manifest_path = dir.join(MANIFEST);
        let mut bytes = fs::read(&manifest_path).unwrap();
        let valid = bytes.len() as u64;
        bytes.extend_from_slice(&[0x17; 5]);
        fs::write(&manifest_path, &bytes).unwrap();

        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.manifest_valid_bytes, valid);
        // `valid_bytes` is a physical file offset — exactly what `open`
        // wants for the cut.
        let tail = read_log_file_from(&plan.log_path, plan.log_tail_offset()).unwrap();
        let store =
            CheckpointStore::open_with_tick(&dir, &plan, tail.valid_bytes, LONG_TICK).unwrap();
        assert_eq!(store.generation(), 1);
        // A new install appends cleanly after the cut tail.
        let logger = Arc::clone(store.logger());
        logger.append_frame(&record(2, 1));
        logger.flush().unwrap();
        install_base(&store, logger.appended_lsn(), 2);
        store.truncate_log().unwrap();
        drop(store);
        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.generation, 3);
        assert_eq!(plan.last_checkpoint().unwrap().read_ts, Timestamp(2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_round_trips_writes_and_deletes() {
        let dir = scratch_dir("delta-round-trip");
        let store = CheckpointStore::create_with_tick(&dir, LONG_TICK).unwrap();
        let logger = Arc::clone(store.logger());
        logger.append_frame(&record(1, 1));
        logger.flush().unwrap();
        install_base(&store, logger.appended_lsn(), 1);

        logger.append_frame(&record(2, 1));
        logger.flush().unwrap();
        let mut writer = store
            .begin_image(logger.appended_lsn(), Timestamp(5), Timestamp(1))
            .unwrap();
        writer.write_delete(TableId(1), 42).unwrap();
        writer.write_row(TableId(0), &[7u8; 24]).unwrap();
        writer.write_delete(TableId(0), 9).unwrap();
        let finished = writer.finish().unwrap();
        assert_eq!(finished.rows, 1);
        assert_eq!(finished.deletes, 2);
        let (reader, ops) = read_image(dir.join("ckpt.tmp")).unwrap();
        assert_eq!(reader.read_ts, Timestamp(5));
        assert_eq!(reader.parent_read_ts, Timestamp(1));
        assert_eq!(
            ops,
            vec![
                LogOp::Delete {
                    table: TableId(1),
                    key: 42
                },
                LogOp::Write {
                    table: TableId(0),
                    row: Row::copy_from_slice(&[7u8; 24])
                },
                LogOp::Delete {
                    table: TableId(0),
                    key: 9
                },
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn base_images_reject_deletes_on_write_and_read() {
        let dir = scratch_dir("base-no-deletes");
        let store = CheckpointStore::create_with_tick(&dir, LONG_TICK).unwrap();
        let mut writer = store.begin_image(Lsn(1), Timestamp(1), BASE).unwrap();
        let err = writer.write_delete(TableId(0), 1).expect_err("must reject");
        assert!(matches!(err, MmdbError::CheckpointInvalid { .. }));
        // A delete op smuggled into a base image fails the read.
        let mut writer = store
            .begin_image(Lsn(1), Timestamp(3), Timestamp(2))
            .unwrap();
        writer.write_delete(TableId(0), 1).unwrap();
        writer.finish().unwrap();
        let mut bytes = fs::read(dir.join("ckpt.tmp")).unwrap();
        let header_len = 16 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let mut header = Vec::new();
        write_frame(&mut header, |body| {
            body.extend_from_slice(CKPT_MAGIC);
            body.extend_from_slice(&CKPT_VERSION.to_le_bytes());
            for word in [1u64, 3, 0] {
                body.extend_from_slice(&word.to_le_bytes());
            }
        });
        bytes.splice(..header_len, header);
        fs::write(dir.join("ckpt.tmp"), &bytes).unwrap();
        let err = read_image(dir.join("ckpt.tmp")).err().expect("must reject");
        assert!(
            matches!(err, MmdbError::CheckpointInvalid { .. }),
            "{err:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn install_image_extends_the_chain_and_a_base_resets_it() {
        let dir = scratch_dir("delta-chain");
        let store = CheckpointStore::create_with_tick(&dir, LONG_TICK).unwrap();
        let logger = Arc::clone(store.logger());
        logger.append_frame(&record(1, 1));
        logger.flush().unwrap();
        install_base(&store, logger.appended_lsn(), 1);
        let base_bytes = store.checkpoint_bytes_written();
        assert!(base_bytes > 0);

        // Two deltas extend the chain; the manifest survives reopen.
        for (parent, ts, expect_len) in [(1u64, 3u64, 2usize), (3, 6, 3)] {
            logger.append_frame(&record(ts, 1));
            logger.flush().unwrap();
            let mut writer = store
                .begin_image(logger.appended_lsn(), Timestamp(ts), Timestamp(parent))
                .unwrap();
            writer.write_row(TableId(0), &[ts as u8; 16]).unwrap();
            store.install_image(writer.finish().unwrap()).unwrap();
            assert_eq!(store.chain_len(), expect_len);
        }
        assert!(store.checkpoint_bytes_written() > base_bytes);
        for name in ["ckpt-1.db", "ckpt-2.db", "ckpt-3.db"] {
            assert!(dir.join(name).exists(), "{name}");
        }
        store.truncate_log().unwrap();

        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.chain.len(), 3);
        assert_eq!(plan.chain[0].path, dir.join("ckpt-1.db"));
        assert_eq!(plan.chain[1].path, dir.join("ckpt-2.db"));
        assert_eq!(plan.chain[2].path, dir.join("ckpt-3.db"));
        assert_eq!(plan.last_checkpoint().unwrap().read_ts, Timestamp(6));
        assert_eq!(plan.log_base, plan.last_checkpoint().unwrap().lsn);

        // Policy: with max_chain 3 the full chain means the next
        // checkpoint compacts.
        let policy = CheckpointPolicy::delta(1, 3);
        assert!(!store.delta_due(&policy));
        let policy = CheckpointPolicy::delta(1, 4);
        assert!(store.delta_due(&policy));
        assert!(!store.delta_due(&CheckpointPolicy::every_log_bytes(1)));

        // Compaction: a fresh base resets the chain and removes the old
        // chain's files.
        logger.append_frame(&record(7, 1));
        logger.flush().unwrap();
        install_base(&store, logger.appended_lsn(), 7);
        assert_eq!(store.chain_len(), 1);
        for name in ["ckpt-1.db", "ckpt-2.db", "ckpt-3.db"] {
            assert!(!dir.join(name).exists(), "{name}");
        }
        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.chain.len(), 1);
        assert_eq!(plan.last_checkpoint().unwrap().read_ts, Timestamp(7));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn install_rejects_a_parent_that_is_not_the_tip() {
        let dir = scratch_dir("install-tip");
        let store = CheckpointStore::create_with_tick(&dir, LONG_TICK).unwrap();
        let delta = |read_ts: u64, parent: u64| {
            let writer = store
                .begin_image(Lsn(1), Timestamp(read_ts), Timestamp(parent))
                .unwrap();
            store.install_image(writer.finish().unwrap())
        };
        let expect_rejected = |result: Result<CheckpointRef>, what: &str| {
            let err = result.expect_err(what);
            assert!(matches!(err, MmdbError::CheckpointInvalid { .. }), "{what}");
        };
        expect_rejected(delta(2, 1), "a delta against an empty chain");
        install_base(&store, Lsn(1), 1);
        expect_rejected(delta(3, 2), "a delta against a foreign parent");
        delta(3, 1).expect("a delta against the tip");
        expect_rejected(delta(4, 1), "a delta against a superseded tip");
        assert_eq!(store.chain_len(), 2);
        // A snapshot must postdate its parent.
        let err = store
            .begin_image(Lsn(1), Timestamp(3), Timestamp(3))
            .err()
            .expect("snapshot at its parent's timestamp");
        assert!(matches!(err, MmdbError::CheckpointInvalid { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_unreferenced_image_files() {
        let dir = scratch_dir("open-sweep");
        let store = CheckpointStore::create_with_tick(&dir, LONG_TICK).unwrap();
        let logger = Arc::clone(store.logger());
        logger.append_frame(&record(1, 1));
        logger.flush().unwrap();
        install_base(&store, logger.appended_lsn(), 1);
        drop(store);
        // A crash mid-compaction can leave stale images and tmp files.
        fs::write(dir.join("ckpt-9.db"), b"stale").unwrap();
        fs::write(dir.join("ckpt.tmp"), b"stale").unwrap();
        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.chain.len(), 1);
        let tail = read_log_file_from(&plan.log_path, plan.log_tail_offset()).unwrap();
        let store =
            CheckpointStore::open_with_tick(&dir, &plan, tail.valid_bytes, LONG_TICK).unwrap();
        assert_eq!(store.chain_len(), 1);
        assert!(!dir.join("ckpt-9.db").exists());
        assert!(!dir.join("ckpt.tmp").exists());
        assert!(dir.join("ckpt-1.db").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_due_tracks_log_growth() {
        let dir = scratch_dir("due");
        let store = CheckpointStore::create_with_tick(&dir, LONG_TICK).unwrap();
        let logger = Arc::clone(store.logger());
        assert!(!store.checkpoint_due(&CheckpointPolicy::MANUAL));
        let policy = CheckpointPolicy::every_log_bytes(64);
        assert!(!store.checkpoint_due(&policy));
        while store.log_bytes_since_checkpoint() < 64 {
            logger.append_frame(&record(1, 1));
        }
        assert!(store.checkpoint_due(&policy));
        logger.flush().unwrap();
        install_base(&store, logger.appended_lsn(), 1);
        assert!(!store.checkpoint_due(&policy));
        let _ = fs::remove_dir_all(&dir);
    }
}

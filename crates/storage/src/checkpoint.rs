//! Checkpointing and redo-log truncation.
//!
//! Without checkpoints the redo log grows without bound and recovery time is
//! proportional to the whole history. This module bounds both: a *checkpoint*
//! is a consistent snapshot-isolation image of every table serialized to a
//! file, and once it is durably installed the log prefix below the
//! checkpoint's LSN is dead weight — recovery becomes *load checkpoint +
//! replay tail* (paper §3.3: "periodically, the system checkpoints the
//! database so the log can be truncated").
//!
//! ## Directory layout
//!
//! A [`CheckpointStore`] owns one directory:
//!
//! ```text
//! <dir>/MANIFEST       append-only, framed; the recovery root
//! <dir>/wal-<g>.log    the redo log segment of generation <g>
//! <dir>/ckpt-<g>.db    the base checkpoint image installed at generation <g>
//! <dir>/delta-<g>.db   a delta image installed at generation <g>
//! <dir>/ckpt.tmp       a base image being written (never read by recovery)
//! <dir>/delta.tmp      a delta image being written (never read by recovery)
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
//! logical LSN of its byte 0) plus the installed *checkpoint chain*: a base
//! image followed by zero or more ordered deltas, each with its LSN and
//! snapshot read timestamp. An entry is only ever appended *after* every
//! file it references is durable, so the last complete entry always
//! describes files that exist with valid contents; a crash mid-append
//! leaves a torn tail that recovery skips, falling back to the previous
//! entry.
//!
//! ## Delta checkpoints
//!
//! A *delta* image ([`CheckpointStore::begin_delta`] /
//! [`CheckpointStore::install_delta`]) holds the log window of commits with
//! end timestamps in `(parent_read_ts, read_ts]`, folded newest-wins per
//! primary key: a row for each key whose newest op writes it, a deleted key
//! for each whose newest op deletes it — checkpointing pays for what
//! changed, not what exists. Recovery folds the base, then each delta in
//! chain order (**its deletes first, then its writes**, all at its
//! `read_ts`), then the log tail above the *last* chain element, keeping
//! the newest op per key. Installing a new *base* resets the chain and
//! deletes the superseded files (compaction); the chain length is bounded
//! by `CheckpointPolicy::max_chain`.
//!
//! ## The checkpoint protocol
//!
//! 1. **Write** — [`CheckpointStore::begin_checkpoint`] opens `ckpt.tmp`;
//!    the caller streams every visible row through
//!    [`CheckpointWriter::write_row`] and calls [`CheckpointWriter::finish`],
//!    which appends a trailer frame (row count) and fsyncs. A crash here
//!    leaves only a dead tmp file.
//! 2. **Install** — [`CheckpointStore::install_checkpoint`] renames the tmp
//!    file to `ckpt-<g>.db`, fsyncs the directory, then appends (and fsyncs)
//!    a manifest entry pointing at it. A crash before the entry is complete
//!    recovers from the previous manifest entry.
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
//! Recovery loads the checkpoint rows, then replays the log tail from
//! `ckpt_lsn`, skipping records with `end_ts <= read_ts` (already in the
//! image). Rows are serialized as ordinary redo `Write` ops at
//! `end_ts = read_ts`, so the checkpoint is literally a compacted,
//! reordered prefix of the log.

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
use crate::log::{decode_body, encode_frame_into, write_frame, FrameStream, LogOpRef, Lsn};

/// Magic bytes opening a checkpoint file's header frame.
const CKPT_MAGIC: &[u8; 8] = b"MMDBCKP1";
/// Magic bytes of the trailer frame that marks a checkpoint complete.
const CKPT_TRAILER: &[u8; 8] = b"MMDBCKPE";
/// Base-image format version (28-byte header, no deletes).
const CKPT_VERSION: u32 = 1;
/// Delta-image format version (36-byte header carrying the parent snapshot
/// timestamp; delete ops allowed).
const CKPT_DELTA_VERSION: u32 = 2;
/// The manifest file name inside a checkpoint directory.
const MANIFEST: &str = "MANIFEST";
/// Row frames are flushed once the pending batch reaches this many bytes.
const ROW_BATCH_TARGET: usize = 64 * 1024;
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
    /// The installed checkpoint chain: base image first, then every delta
    /// in apply order. Empty before the first checkpoint.
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

impl CheckpointMeta {
    fn encode_into(&self, body: &mut Vec<u8>) {
        body.extend_from_slice(&self.lsn.0.to_le_bytes());
        body.extend_from_slice(&self.read_ts.raw().to_le_bytes());
        body.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        body.extend_from_slice(self.name.as_bytes());
    }
}

impl ManifestEntry {
    fn encode_into(&self, body: &mut Vec<u8>) {
        body.extend_from_slice(&self.generation.to_le_bytes());
        body.extend_from_slice(&self.log_base.0.to_le_bytes());
        body.extend_from_slice(&(self.log_name.len() as u32).to_le_bytes());
        body.extend_from_slice(self.log_name.as_bytes());
        // Checkpoint tag: 0 = none, 1 = single image (the pre-delta wire
        // format, still emitted for one-element chains so old manifests and
        // new ones stay byte-compatible in the common case), 2 = chain.
        match self.chain.as_slice() {
            [] => body.push(0),
            [meta] => {
                body.push(1);
                meta.encode_into(body);
            }
            chain => {
                body.push(2);
                body.extend_from_slice(&(chain.len() as u32).to_le_bytes());
                for meta in chain {
                    meta.encode_into(body);
                }
            }
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
        let chain = match cursor.take(1)?[0] {
            0 => Vec::new(),
            1 => vec![cursor.take_meta()?],
            2 => {
                let count = cursor.take_u32()? as usize;
                if count < 2 {
                    return Err(invalid("manifest chain tag with fewer than two elements"));
                }
                (0..count)
                    .map(|_| cursor.take_meta())
                    .collect::<Result<Vec<_>>>()?
            }
            _ => return Err(invalid("manifest entry has an unknown checkpoint tag")),
        };
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

    fn take_meta(&mut self) -> Result<CheckpointMeta> {
        let lsn = Lsn(self.take_u64()?);
        let read_ts = Timestamp(self.take_u64()?);
        let name = self.take_name("manifest checkpoint name is not UTF-8")?;
        Ok(CheckpointMeta { name, lsn, read_ts })
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
/// [`chain`](RecoveryPlan::chain) (base image first, then every delta in
/// order), stream the log tail from [`RecoveryPlan::log_tail_offset`], then
/// reopen the store with [`CheckpointStore::open`] passing the physical
/// prefix the tail read validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// Generation of the winning manifest entry.
    pub generation: u64,
    /// The installed checkpoint chain to load first: the base image, then
    /// every delta in apply order. Empty before the first checkpoint.
    pub chain: Vec<CheckpointRef>,
    /// Path of the live log segment.
    pub log_path: PathBuf,
    /// Logical LSN of the log segment's byte 0.
    pub log_base: Lsn,
    /// Valid prefix of the manifest itself (a crash mid-append leaves a torn
    /// tail that [`CheckpointStore::open`] cuts before appending again).
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
// Checkpoint writer / reader
// ---------------------------------------------------------------------------

/// Streams a checkpoint image into its temporary file (`ckpt.tmp` for a
/// base, `delta.tmp` for a delta).
///
/// Rows are buffered and emitted as ordinary redo-log `Write` frames (at
/// `end_ts = read_ts`, batched to `ROW_BATCH_TARGET` bytes per frame),
/// framed between a header and a trailer. Delta writers additionally accept
/// [`write_delete`](Self::write_delete) tombstones, emitted as `Delete`
/// frames ahead of the trailer. Obtain one from
/// [`CheckpointStore::begin_checkpoint`] or
/// [`CheckpointStore::begin_delta`], feed every op through, then
/// [`finish`](Self::finish).
pub struct CheckpointWriter {
    file: File,
    tmp_path: PathBuf,
    lsn: Lsn,
    read_ts: Timestamp,
    /// Snapshot timestamp of the previous chain element (`Some` for a delta
    /// writer; `None` for a base image, which rejects deletes).
    parent_read_ts: Option<Timestamp>,
    ops: u64,
    deletes: Vec<(TableId, u64)>,
    batch: Vec<(TableId, Row)>,
    batch_bytes: usize,
    frame: Vec<u8>,
}

/// A finished (written + fsynced) checkpoint still under its temporary
/// name. Pass to [`CheckpointStore::install_checkpoint`] (base) or
/// [`CheckpointStore::install_delta`] (delta) to make it part of the
/// recovery source.
pub struct FinishedCheckpoint {
    tmp_path: PathBuf,
    lsn: Lsn,
    read_ts: Timestamp,
    parent_read_ts: Option<Timestamp>,
    /// Number of row (write) ops in the image.
    pub rows: u64,
    /// Number of delete ops in the image (always 0 for a base).
    pub deletes: u64,
    /// Size of the checkpoint file in bytes.
    pub bytes: u64,
}

impl CheckpointWriter {
    fn create(
        tmp_path: PathBuf,
        lsn: Lsn,
        read_ts: Timestamp,
        parent_read_ts: Option<Timestamp>,
    ) -> Result<CheckpointWriter> {
        let mut file = File::create(&tmp_path).map_err(io_err)?;
        let version = match parent_read_ts {
            None => CKPT_VERSION,
            Some(_) => CKPT_DELTA_VERSION,
        };
        let mut frame = Vec::with_capacity(52);
        write_frame(&mut frame, |header| {
            header.extend_from_slice(CKPT_MAGIC);
            header.extend_from_slice(&version.to_le_bytes());
            header.extend_from_slice(&lsn.0.to_le_bytes());
            header.extend_from_slice(&read_ts.raw().to_le_bytes());
            if let Some(parent) = parent_read_ts {
                header.extend_from_slice(&parent.raw().to_le_bytes());
            }
        });
        file.write_all(&frame).map_err(io_err)?;
        Ok(CheckpointWriter {
            file,
            tmp_path,
            lsn,
            read_ts,
            parent_read_ts,
            ops: 0,
            deletes: Vec::new(),
            batch: Vec::new(),
            batch_bytes: 0,
            frame,
        })
    }

    /// The snapshot read timestamp this image is being taken at.
    pub fn read_ts(&self) -> Timestamp {
        self.read_ts
    }

    /// The log LSN this image covers.
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// The previous chain element's snapshot timestamp (`Some` iff this is
    /// a delta writer).
    pub fn parent_read_ts(&self) -> Option<Timestamp> {
        self.parent_read_ts
    }

    /// Add one visible row to the image. Rows may arrive in any order; the
    /// image carries no ordering guarantees beyond "one op per live row".
    pub fn write_row(&mut self, table: TableId, row: &[u8]) -> Result<()> {
        self.batch.push((table, Row::copy_from_slice(row)));
        self.batch_bytes += row.len() + 9;
        self.ops += 1;
        if self.batch_bytes >= ROW_BATCH_TARGET {
            self.flush_batch()?;
        }
        Ok(())
    }

    /// Add one deleted primary key to the image (delta writers only — a
    /// base image enumerates live rows and has nothing to delete).
    /// Recovery applies a delta's deletes before its writes, so a spurious
    /// tombstone for a key the same delta rewrites is harmless.
    pub fn write_delete(&mut self, table: TableId, key: u64) -> Result<()> {
        if self.parent_read_ts.is_none() {
            return Err(invalid("a base checkpoint image cannot carry deletes"));
        }
        self.deletes.push((table, key));
        self.ops += 1;
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
            self.batch
                .iter()
                .map(|(table, row)| LogOpRef::Write { table: *table, row }),
        );
        self.file.write_all(&self.frame).map_err(io_err)?;
        self.batch.clear();
        self.batch_bytes = 0;
        Ok(())
    }

    /// Flush the last row batch and the buffered deletes, append the
    /// trailer frame (which is what marks the image complete — a checkpoint
    /// without it is treated as torn and never loaded) and fsync.
    pub fn finish(mut self) -> Result<FinishedCheckpoint> {
        self.flush_batch()?;
        let row_ops = self.ops - self.deletes.len() as u64;
        for chunk in self.deletes.chunks(ROW_BATCH_TARGET / 16) {
            self.frame.clear();
            encode_frame_into(
                &mut self.frame,
                self.read_ts,
                chunk
                    .iter()
                    .map(|&(table, key)| LogOpRef::Delete { table, key }),
            );
            self.file.write_all(&self.frame).map_err(io_err)?;
        }
        self.frame.clear();
        write_frame(&mut self.frame, |trailer| {
            trailer.extend_from_slice(CKPT_TRAILER);
            trailer.extend_from_slice(&self.ops.to_le_bytes());
        });
        self.file.write_all(&self.frame).map_err(io_err)?;
        self.file.sync_all().map_err(io_err)?;
        let bytes = self.file.stream_position().map_err(io_err)?;
        Ok(FinishedCheckpoint {
            tmp_path: self.tmp_path,
            lsn: self.lsn,
            read_ts: self.read_ts,
            parent_read_ts: self.parent_read_ts,
            rows: row_ops,
            deletes: self.deletes.len() as u64,
            bytes,
        })
    }
}

/// A fully validated checkpoint image, loaded into memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointContents {
    /// Log LSN the image covers.
    pub lsn: Lsn,
    /// Snapshot read timestamp of the image.
    pub read_ts: Timestamp,
    /// For a delta image, the previous chain element's snapshot timestamp;
    /// `None` for a base image.
    pub parent_read_ts: Option<Timestamp>,
    /// Every row in the image, in file order.
    pub rows: Vec<(TableId, Row)>,
    /// Primary keys deleted since the parent snapshot (delta images only;
    /// apply these **before** the rows).
    pub deletes: Vec<(TableId, u64)>,
}

/// Read and validate a checkpoint file (base or delta).
///
/// Validation is strict because a checkpoint is only ever read after the
/// manifest durably named it, at which point it must be perfect: header
/// magic/version, every row frame's checksum, the trailer's op count, and
/// the absence of trailing bytes are all checked. Any shortfall —
/// including a torn tail, which in a log would be tolerated — is
/// [`MmdbError::CheckpointInvalid`]: loading half a checkpoint would
/// silently lose rows. Base images (version 1) additionally reject delete
/// ops — a base enumerates live rows and has nothing to delete.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<CheckpointContents> {
    let file = File::open(path.as_ref()).map_err(io_err)?;
    let mut frames = FrameStream::new(file, CKPT_CHUNK, 0);
    let header = match frames.next_body()? {
        Some((_, body)) => body,
        None => return Err(invalid("checkpoint file has no header frame")),
    };
    if header.len() < 12 || &header[..8] != CKPT_MAGIC {
        return Err(invalid("checkpoint header magic mismatch"));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    let parent_read_ts = match version {
        CKPT_VERSION if header.len() == 28 => None,
        CKPT_DELTA_VERSION if header.len() == 36 => Some(Timestamp(u64::from_le_bytes(
            header[28..36].try_into().expect("8 bytes"),
        ))),
        CKPT_VERSION | CKPT_DELTA_VERSION => {
            return Err(invalid("checkpoint header length mismatch"))
        }
        _ => return Err(invalid("unsupported checkpoint version")),
    };
    let lsn = Lsn(u64::from_le_bytes(
        header[12..20].try_into().expect("8 bytes"),
    ));
    let read_ts = Timestamp(u64::from_le_bytes(
        header[20..28].try_into().expect("8 bytes"),
    ));
    let mut rows: Vec<(TableId, Row)> = Vec::new();
    let mut deletes: Vec<(TableId, u64)> = Vec::new();
    let mut trailer_ops: Option<u64> = None;
    while let Some((offset, body)) = frames.next_body()? {
        if trailer_ops.is_some() {
            return Err(invalid("checkpoint has frames after its trailer"));
        }
        if body.len() == 16 && &body[..8] == CKPT_TRAILER {
            trailer_ops = Some(u64::from_le_bytes(body[8..16].try_into().expect("8 bytes")));
            continue;
        }
        let record = decode_body(body, offset)?;
        if record.end_ts != read_ts {
            return Err(invalid("checkpoint row frame at a foreign timestamp"));
        }
        for op in record.ops {
            match op {
                crate::log::LogOp::Write { table, row } => rows.push((table, row)),
                crate::log::LogOp::Delete { table, key } => {
                    if parent_read_ts.is_none() {
                        return Err(invalid("checkpoint contains a delete op"));
                    }
                    deletes.push((table, key));
                }
            }
        }
    }
    let trailer_ops = trailer_ops.ok_or(invalid("checkpoint is missing its trailer frame"))?;
    if frames.torn_bytes() > 0 {
        return Err(invalid("checkpoint has bytes after its trailer frame"));
    }
    if trailer_ops != (rows.len() + deletes.len()) as u64 {
        return Err(invalid("checkpoint trailer op count mismatch"));
    }
    Ok(CheckpointContents {
        lsn,
        read_ts,
        parent_read_ts,
        rows,
        deletes,
    })
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
    /// Create a fresh checkpoint directory: generation 0, an empty
    /// `wal-0.log`, no checkpoint. The log flushes via the inline-leader
    /// path only (no background tick).
    pub fn create(dir: impl AsRef<Path>) -> Result<CheckpointStore> {
        Self::create_inner(dir.as_ref(), None)
    }

    /// [`create`](Self::create) with a background group-commit flush tick.
    pub fn create_with_tick(dir: impl AsRef<Path>, tick: Duration) -> Result<CheckpointStore> {
        Self::create_inner(dir.as_ref(), Some(tick))
    }

    fn create_inner(dir: &Path, tick: Option<Duration>) -> Result<CheckpointStore> {
        fs::create_dir_all(dir).map_err(io_err)?;
        let entry = ManifestEntry {
            generation: 0,
            log_name: "wal-0.log".to_string(),
            log_base: Lsn::ZERO,
            chain: Vec::new(),
        };
        let log_path = dir.join(&entry.log_name);
        let logger = match tick {
            Some(tick) => GroupCommitLog::with_tick(&log_path, tick),
            None => GroupCommitLog::create(&log_path),
        }
        .map_err(io_err)?;
        let manifest_path = dir.join(MANIFEST);
        let mut file = File::create(&manifest_path).map_err(io_err)?;
        append_manifest_entry(&mut file, &entry)?;
        sync_parent_dir(&manifest_path);
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
            logger: Arc::new(logger),
            manifest: Mutex::new(ManifestState {
                file,
                current: entry,
            }),
            bytes_written: std::sync::atomic::AtomicU64::new(0),
        })
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

    /// Reopen a directory after recovery.
    ///
    /// `valid_bytes` is the *physical* prefix of the live log segment that
    /// recovery decoded cleanly (the `valid_bytes` of the tail read); the
    /// segment is cut back to it and appends resume at
    /// `log_base + valid_bytes`. The manifest's own torn tail (if a crash
    /// interrupted an entry append) is cut the same way before the file is
    /// reused for appends. A stale `ckpt.tmp` from an interrupted write is
    /// deleted.
    pub fn open(
        dir: impl AsRef<Path>,
        plan: &RecoveryPlan,
        valid_bytes: u64,
    ) -> Result<CheckpointStore> {
        Self::open_inner(dir.as_ref(), plan, valid_bytes, None)
    }

    /// [`open`](Self::open) with a background group-commit flush tick.
    pub fn open_with_tick(
        dir: impl AsRef<Path>,
        plan: &RecoveryPlan,
        valid_bytes: u64,
        tick: Duration,
    ) -> Result<CheckpointStore> {
        Self::open_inner(dir.as_ref(), plan, valid_bytes, Some(tick))
    }

    fn open_inner(
        dir: &Path,
        plan: &RecoveryPlan,
        valid_bytes: u64,
        tick: Option<Duration>,
    ) -> Result<CheckpointStore> {
        let logger = match tick {
            Some(tick) => GroupCommitLog::open_append_with_tick(
                &plan.log_path,
                plan.log_base,
                valid_bytes,
                tick,
            ),
            None => GroupCommitLog::open_append(&plan.log_path, plan.log_base, valid_bytes),
        }
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
        let _ = fs::remove_file(dir.join("delta.tmp"));
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
        // reference — e.g. the stale deltas of a compaction whose new base
        // was published but whose file deletes never ran. The manifest, not
        // the directory listing, is authoritative; unreferenced files are
        // dead weight.
        if let Ok(entries) = fs::read_dir(dir) {
            for dirent in entries.flatten() {
                let name = dirent.file_name();
                let Some(name) = name.to_str() else { continue };
                let is_image = (name.starts_with("ckpt-") || name.starts_with("delta-"))
                    && name.ends_with(".db");
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

    /// The installed checkpoint chain currently in force (base first, then
    /// every delta in apply order).
    pub fn chain(&self) -> Vec<CheckpointRef> {
        let m = self.manifest.lock();
        m.current
            .chain
            .iter()
            .map(|meta| CheckpointRef {
                path: self.dir.join(&meta.name),
                lsn: meta.lsn,
                read_ts: meta.read_ts,
            })
            .collect()
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

    /// Open `ckpt.tmp` for a new base image covering log LSN `lsn` at
    /// snapshot timestamp `read_ts`. At most one checkpoint writer should
    /// exist at a time (they share the tmp names); the engines serialize
    /// checkpoints.
    pub fn begin_checkpoint(&self, lsn: Lsn, read_ts: Timestamp) -> Result<CheckpointWriter> {
        CheckpointWriter::create(self.dir.join("ckpt.tmp"), lsn, read_ts, None)
    }

    /// Open `delta.tmp` for a delta image covering log LSN `lsn` at
    /// snapshot timestamp `read_ts`, relative to the current chain's last
    /// element (whose `read_ts` becomes the delta's parent snapshot).
    /// Requires an installed chain to delta against.
    pub fn begin_delta(&self, lsn: Lsn, read_ts: Timestamp) -> Result<CheckpointWriter> {
        let parent = self
            .last_checkpoint()
            .ok_or(invalid("no checkpoint installed to delta against"))?;
        if read_ts < parent.read_ts {
            return Err(invalid("delta snapshot predates its parent checkpoint"));
        }
        CheckpointWriter::create(
            self.dir.join("delta.tmp"),
            lsn,
            read_ts,
            Some(parent.read_ts),
        )
    }

    /// Make a finished base image the recovery source: rename it to
    /// `ckpt-<g>.db`, fsync the directory, append (and fsync) a manifest
    /// entry whose chain is just this image. The log is untouched — call
    /// [`truncate_log`](Self::truncate_log) next to reclaim its prefix. The
    /// previously installed chain's files (base and any deltas — this is
    /// how a chain compacts) are deleted once the new entry is durable.
    pub fn install_checkpoint(&self, finished: FinishedCheckpoint) -> Result<CheckpointRef> {
        if finished.parent_read_ts.is_some() {
            return Err(invalid("a delta image must be installed via install_delta"));
        }
        let mut m = self.manifest.lock();
        let generation = m.current.generation + 1;
        let name = format!("ckpt-{generation}.db");
        let path = self.dir.join(&name);
        fs::rename(&finished.tmp_path, &path).map_err(io_err)?;
        sync_parent_dir(&path);
        let entry = ManifestEntry {
            generation,
            log_name: m.current.log_name.clone(),
            log_base: m.current.log_base,
            chain: vec![CheckpointMeta {
                name,
                lsn: finished.lsn,
                read_ts: finished.read_ts,
            }],
        };
        append_manifest_entry(&mut m.file, &entry)?;
        let old_chain = std::mem::take(&mut m.current.chain);
        m.current = entry;
        drop(m);
        self.bytes_written
            .fetch_add(finished.bytes, std::sync::atomic::Ordering::Relaxed);
        for old in old_chain {
            let _ = fs::remove_file(self.dir.join(old.name));
        }
        Ok(CheckpointRef {
            path,
            lsn: finished.lsn,
            read_ts: finished.read_ts,
        })
    }

    /// Append a finished delta image to the installed chain: rename it to
    /// `delta-<g>.db`, fsync the directory, append (and fsync) a manifest
    /// entry with the extended chain. No file is deleted — the chain's
    /// earlier elements remain the recovery prefix. The delta's parent
    /// snapshot must match the current chain tip (checkpoints are
    /// serialized by the engines, so a mismatch is a protocol bug).
    pub fn install_delta(&self, finished: FinishedCheckpoint) -> Result<CheckpointRef> {
        let Some(parent_read_ts) = finished.parent_read_ts else {
            return Err(invalid(
                "a base image must be installed via install_checkpoint",
            ));
        };
        let mut m = self.manifest.lock();
        let tip = m
            .current
            .chain
            .last()
            .ok_or(invalid("no checkpoint chain to append a delta to"))?;
        if tip.read_ts != parent_read_ts {
            return Err(invalid(
                "delta parent snapshot does not match the chain tip",
            ));
        }
        let generation = m.current.generation + 1;
        let name = format!("delta-{generation}.db");
        let path = self.dir.join(&name);
        fs::rename(&finished.tmp_path, &path).map_err(io_err)?;
        sync_parent_dir(&path);
        let mut chain = m.current.chain.clone();
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
        m.current = entry;
        drop(m);
        self.bytes_written
            .fetch_add(finished.bytes, std::sync::atomic::Ordering::Relaxed);
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
    use crate::log::{read_log_file_from, RedoLogger};

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

    #[test]
    fn fresh_store_plans_generation_zero() {
        let dir = scratch_dir("fresh-plan");
        let store = CheckpointStore::create(&dir).unwrap();
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
        let store = CheckpointStore::create(&dir).unwrap();
        // Enough row bytes to force several ROW_BATCH_TARGET flushes.
        let mut writer = store.begin_checkpoint(Lsn(123), Timestamp(77)).unwrap();
        let row_len = 1000;
        let total = 3 * ROW_BATCH_TARGET / row_len;
        let mut expected = Vec::new();
        for i in 0..total {
            let mut row = vec![0u8; row_len];
            row[..8].copy_from_slice(&(i as u64).to_le_bytes());
            let table = TableId((i % 3) as u32);
            writer.write_row(table, &row).unwrap();
            expected.push((table, Row::copy_from_slice(&row)));
        }
        let finished = writer.finish().unwrap();
        assert_eq!(finished.rows, total as u64);
        let contents = read_checkpoint(dir.join("ckpt.tmp")).unwrap();
        assert_eq!(contents.lsn, Lsn(123));
        assert_eq!(contents.read_ts, Timestamp(77));
        assert_eq!(contents.rows, expected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let dir = scratch_dir("ckpt-empty");
        let store = CheckpointStore::create(&dir).unwrap();
        let writer = store.begin_checkpoint(Lsn(5), Timestamp(9)).unwrap();
        let finished = writer.finish().unwrap();
        assert_eq!(finished.rows, 0);
        let contents = read_checkpoint(dir.join("ckpt.tmp")).unwrap();
        assert_eq!(contents.rows, Vec::new());
        assert_eq!(contents.read_ts, Timestamp(9));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_checkpoint_never_reads_as_a_smaller_image() {
        let dir = scratch_dir("ckpt-truncated");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut writer = store.begin_checkpoint(Lsn(1), Timestamp(2)).unwrap();
        for i in 0..40u64 {
            writer.write_row(TableId(0), &i.to_le_bytes()).unwrap();
        }
        writer.finish().unwrap();
        let full = fs::read(dir.join("ckpt.tmp")).unwrap();
        let whole = read_checkpoint(dir.join("ckpt.tmp")).unwrap();
        assert_eq!(whole.rows.len(), 40);
        let cut_path = dir.join("ckpt.cut");
        for cut in 0..full.len() {
            fs::write(&cut_path, &full[..cut]).unwrap();
            let err = read_checkpoint(&cut_path).expect_err("prefix must not validate");
            assert!(
                matches!(
                    err,
                    MmdbError::CheckpointInvalid { .. } | MmdbError::LogCorrupt { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn install_and_truncate_advance_the_manifest() {
        let dir = scratch_dir("install-truncate");
        let store = CheckpointStore::create(&dir).unwrap();
        let logger = Arc::clone(store.logger());
        // Ten committed records; checkpoint after the first six.
        for ts in 1..=6u64 {
            logger.append_frame(&record(ts, 2));
        }
        logger.flush().unwrap();
        let ckpt_lsn = logger.appended_lsn();
        let read_ts = Timestamp(6);
        let mut writer = store.begin_checkpoint(ckpt_lsn, read_ts).unwrap();
        for i in 0..12u64 {
            writer.write_row(TableId(0), &[i as u8; 24]).unwrap();
        }
        let installed = store.install_checkpoint(writer.finish().unwrap()).unwrap();
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
        let contents = read_checkpoint(&ckpt.path).unwrap();
        assert_eq!(contents.rows.len(), 12);
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
        let store = CheckpointStore::create(&dir).unwrap();
        let logger = Arc::clone(store.logger());
        logger.append_frame(&record(1, 1));
        logger.flush().unwrap();
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(1))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();
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
        let store = CheckpointStore::create(&dir).unwrap();
        let logger = Arc::clone(store.logger());
        logger.append_frame(&record(1, 1));
        logger.flush().unwrap();
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(1))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();
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
        let store = CheckpointStore::open(&dir, &plan, tail.valid_bytes).unwrap();
        assert_eq!(store.generation(), 1);
        // A new install appends cleanly after the cut tail.
        let logger = Arc::clone(store.logger());
        logger.append_frame(&record(2, 1));
        logger.flush().unwrap();
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(2))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();
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
        let store = CheckpointStore::create(&dir).unwrap();
        let logger = Arc::clone(store.logger());
        logger.append_frame(&record(1, 1));
        logger.flush().unwrap();
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(1))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();

        logger.append_frame(&record(2, 1));
        logger.flush().unwrap();
        let mut writer = store
            .begin_delta(logger.appended_lsn(), Timestamp(5))
            .unwrap();
        assert_eq!(writer.parent_read_ts(), Some(Timestamp(1)));
        writer.write_row(TableId(0), &[7u8; 24]).unwrap();
        writer.write_delete(TableId(1), 42).unwrap();
        writer.write_delete(TableId(0), 9).unwrap();
        let finished = writer.finish().unwrap();
        assert_eq!(finished.rows, 1);
        assert_eq!(finished.deletes, 2);
        let contents = read_checkpoint(dir.join("delta.tmp")).unwrap();
        assert_eq!(contents.read_ts, Timestamp(5));
        assert_eq!(contents.parent_read_ts, Some(Timestamp(1)));
        assert_eq!(
            contents.rows,
            vec![(TableId(0), Row::copy_from_slice(&[7u8; 24]))]
        );
        assert_eq!(contents.deletes, vec![(TableId(1), 42), (TableId(0), 9)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn base_writer_rejects_deletes() {
        let dir = scratch_dir("base-no-deletes");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut writer = store.begin_checkpoint(Lsn(1), Timestamp(1)).unwrap();
        let err = writer.write_delete(TableId(0), 1).expect_err("must reject");
        assert!(matches!(err, MmdbError::CheckpointInvalid { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_requires_an_installed_base() {
        let dir = scratch_dir("delta-needs-base");
        let store = CheckpointStore::create(&dir).unwrap();
        let err = match store.begin_delta(Lsn(1), Timestamp(1)) {
            Ok(_) => panic!("no base yet"),
            Err(err) => err,
        };
        assert!(matches!(err, MmdbError::CheckpointInvalid { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn install_delta_extends_the_chain_and_compaction_resets_it() {
        let dir = scratch_dir("delta-chain");
        let store = CheckpointStore::create(&dir).unwrap();
        let logger = Arc::clone(store.logger());
        logger.append_frame(&record(1, 1));
        logger.flush().unwrap();
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(1))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();
        let base_bytes = store.checkpoint_bytes_written();
        assert!(base_bytes > 0);

        // Two deltas extend the chain; the manifest survives reopen.
        for (ts, expect_len) in [(3u64, 2usize), (6, 3)] {
            logger.append_frame(&record(ts, 1));
            logger.flush().unwrap();
            let mut writer = store
                .begin_delta(logger.appended_lsn(), Timestamp(ts))
                .unwrap();
            writer.write_row(TableId(0), &[ts as u8; 16]).unwrap();
            store.install_delta(writer.finish().unwrap()).unwrap();
            assert_eq!(store.chain_len(), expect_len);
        }
        assert!(store.checkpoint_bytes_written() > base_bytes);
        assert!(dir.join("ckpt-1.db").exists());
        assert!(dir.join("delta-2.db").exists());
        assert!(dir.join("delta-3.db").exists());
        store.truncate_log().unwrap();

        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.chain.len(), 3);
        assert_eq!(plan.chain[0].path, dir.join("ckpt-1.db"));
        assert_eq!(plan.chain[1].path, dir.join("delta-2.db"));
        assert_eq!(plan.chain[2].path, dir.join("delta-3.db"));
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
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(7))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();
        assert_eq!(store.chain_len(), 1);
        assert!(!dir.join("ckpt-1.db").exists());
        assert!(!dir.join("delta-2.db").exists());
        assert!(!dir.join("delta-3.db").exists());
        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.chain.len(), 1);
        assert_eq!(plan.last_checkpoint().unwrap().read_ts, Timestamp(7));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn install_routes_enforce_image_kind() {
        let dir = scratch_dir("install-kind");
        let store = CheckpointStore::create(&dir).unwrap();
        let writer = store.begin_checkpoint(Lsn(1), Timestamp(1)).unwrap();
        let finished = writer.finish().unwrap();
        let err = store
            .install_delta(finished)
            .expect_err("base via install_delta");
        assert!(matches!(err, MmdbError::CheckpointInvalid { .. }));
        let writer = store.begin_checkpoint(Lsn(1), Timestamp(1)).unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();
        let writer = store.begin_delta(Lsn(2), Timestamp(2)).unwrap();
        let finished = writer.finish().unwrap();
        let err = store
            .install_checkpoint(finished)
            .expect_err("delta via install_checkpoint");
        assert!(matches!(err, MmdbError::CheckpointInvalid { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_unreferenced_image_files() {
        let dir = scratch_dir("open-sweep");
        let store = CheckpointStore::create(&dir).unwrap();
        let logger = Arc::clone(store.logger());
        logger.append_frame(&record(1, 1));
        logger.flush().unwrap();
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(1))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();
        drop(store);
        // A crash mid-compaction can leave stale images and tmp files.
        fs::write(dir.join("delta-9.db"), b"stale").unwrap();
        fs::write(dir.join("ckpt.tmp"), b"stale").unwrap();
        fs::write(dir.join("delta.tmp"), b"stale").unwrap();
        let plan = CheckpointStore::plan(&dir).unwrap();
        assert_eq!(plan.chain.len(), 1);
        let tail = read_log_file_from(&plan.log_path, plan.log_tail_offset()).unwrap();
        let store = CheckpointStore::open(&dir, &plan, tail.valid_bytes).unwrap();
        assert_eq!(store.chain_len(), 1);
        assert!(!dir.join("delta-9.db").exists());
        assert!(!dir.join("ckpt.tmp").exists());
        assert!(!dir.join("delta.tmp").exists());
        assert!(dir.join("ckpt-1.db").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_due_tracks_log_growth() {
        let dir = scratch_dir("due");
        let store = CheckpointStore::create(&dir).unwrap();
        let logger = Arc::clone(store.logger());
        assert!(!store.checkpoint_due(&CheckpointPolicy::MANUAL));
        let policy = CheckpointPolicy::every_log_bytes(64);
        assert!(!store.checkpoint_due(&policy));
        while store.log_bytes_since_checkpoint() < 64 {
            logger.append_frame(&record(1, 1));
        }
        assert!(store.checkpoint_due(&policy));
        logger.flush().unwrap();
        let writer = store
            .begin_checkpoint(logger.appended_lsn(), Timestamp(1))
            .unwrap();
        store.install_checkpoint(writer.finish().unwrap()).unwrap();
        assert!(!store.checkpoint_due(&policy));
        let _ = fs::remove_dir_all(&dir);
    }
}

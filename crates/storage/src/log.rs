//! Redo logging: write side and read (recovery) side.
//!
//! The paper's experimental setup (§5): *"Each transaction generates log
//! records but these are asynchronously written to durable storage;
//! transactions do not wait for log I/O to complete."* Commit ordering is
//! determined by end timestamps included in the records, so multiple log
//! streams are possible (§3.2).
//!
//! A committing transaction encodes its record into a reusable buffer with
//! [`encode_frame_into`] and hands the bytes to a [`RedoLogger`], a byte
//! sink whose append never blocks on I/O:
//!
//! * [`NullLogger`] — counts frames and drops them (pure concurrency-control
//!   measurements).
//! * [`MemoryLogger`] — keeps the frame bytes in memory; tests decode them
//!   to assert ordering and content.
//! * [`GroupCommitLog`](crate::group_commit::GroupCommitLog) — the one
//!   file-backed logger: appends frames to a shared buffer that is hardened
//!   in batches, never on the transaction's commit path. I/O errors are
//!   sticky and surfaced by [`RedoLogger::flush`].
//!
//! ## Wire format
//!
//! Each record is one self-delimiting frame:
//!
//! ```text
//! frame := [body_len: u32 LE] [body_len ^ LEN_CHECK: u32 LE] [body] [checksum: u64 LE]
//! body  := [end_ts: u64 LE] [op_count: u32 LE] op*
//! op    := 0x00 [table: u32 LE] [row_len: u32 LE] [row bytes]   (Write)
//!        | 0x01 [table: u32 LE] [key: u64 LE]                   (Delete)
//! ```
//!
//! `checksum` is [`hash_bytes`] over `body`; the length prefix carries its
//! own XOR self-check (it is what the reader walks the file by, so it can't
//! rely on the body checksum it locates). Together they let the one frame
//! decoder, `FrameStream`, distinguish a **torn tail** (a crash mid-append
//! truncated the file: fewer bytes remain than the frame promises —
//! tolerated, the partial frame is discarded) from **corruption** inside
//! the valid region (length self-check, checksum or structure mismatch —
//! surfaced as [`MmdbError::LogCorrupt`]).

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Take};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use mmdb_common::error::{MmdbError, Result};
use mmdb_common::hash::hash_bytes;
use mmdb_common::ids::{TableId, Timestamp};
use mmdb_common::row::Row;

/// One logged write of a committed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogOp {
    /// A new version (insert or the "after" image of an update).
    Write {
        /// Table written.
        table: TableId,
        /// Full payload of the new version.
        row: Row,
    },
    /// A delete, logged by primary key (§3.2: "deletes are logged by writing
    /// a unique key").
    Delete {
        /// Table written.
        table: TableId,
        /// Primary-index key of the deleted row.
        key: u64,
    },
}

impl LogOp {
    /// The borrowed view [`encode_frame_into`] takes.
    pub fn as_ref(&self) -> LogOpRef<'_> {
        match self {
            LogOp::Write { table, row } => LogOpRef::Write { table: *table, row },
            LogOp::Delete { table, key } => LogOpRef::Delete {
                table: *table,
                key: *key,
            },
        }
    }
}

/// A commit record: the transaction's end timestamp plus its writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Commit (end) timestamp — determines replay order.
    pub end_ts: Timestamp,
    /// The transaction's redo operations.
    pub ops: Vec<LogOp>,
}

/// Borrowed view of one redo op — the allocation-free input of
/// [`encode_frame_into`]. The committing transaction derives these straight
/// from its write set; nothing is materialized.
#[derive(Debug, Clone, Copy)]
pub enum LogOpRef<'a> {
    /// A new version (insert or the "after" image of an update).
    Write {
        /// Table written.
        table: TableId,
        /// Full payload of the new version (borrowed from the version).
        row: &'a [u8],
    },
    /// A delete, logged by primary key.
    Delete {
        /// Table written.
        table: TableId,
        /// Primary-index key of the deleted row.
        key: u64,
    },
}

/// Serialize one record into `buf` as a framed wire record (appended; the
/// caller clears and reuses the buffer — after warmup this allocates
/// nothing).
///
/// Returns the paper's I/O estimate of the record, the figure the engines
/// report as `log_bytes`: payload plus 8 bytes of metadata per op, plus 8
/// per record. The wire encoding adds framing on top.
pub fn encode_frame_into<'a>(
    buf: &mut Vec<u8>,
    end_ts: Timestamp,
    ops: impl Iterator<Item = LogOpRef<'a>>,
) -> u64 {
    let mut estimate = 8u64;
    write_frame(buf, |buf| {
        buf.extend_from_slice(&end_ts.raw().to_le_bytes());
        // Op count is patched after the ops are written.
        let count_at = buf.len();
        buf.extend_from_slice(&[0u8; 4]);
        let mut op_count: u32 = 0;
        for op in ops {
            op_count += 1;
            match op {
                LogOpRef::Write { table, row } => {
                    buf.push(0u8);
                    buf.extend_from_slice(&table.0.to_le_bytes());
                    buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
                    buf.extend_from_slice(row);
                    estimate += row.len() as u64 + 8;
                }
                LogOpRef::Delete { table, key } => {
                    buf.push(1u8);
                    buf.extend_from_slice(&table.0.to_le_bytes());
                    buf.extend_from_slice(&key.to_le_bytes());
                    estimate += 16;
                }
            }
        }
        buf[count_at..count_at + 4].copy_from_slice(&op_count.to_le_bytes());
    });
    estimate
}

/// Serialize one record into a fresh framed buffer (tests and tools; the
/// commit paths use [`encode_frame_into`]).
pub fn encode_record(record: &LogRecord) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame_into(
        &mut frame,
        record.end_ts,
        record.ops.iter().map(LogOp::as_ref),
    );
    frame
}

/// The length prefix is what the reader walks the file by, so it carries its
/// own redundancy: a copy XORed with this constant. Without it, a corrupted
/// length in the middle of the file would make the rest of the log look like
/// a torn tail and silently drop committed records; with it, any readable
/// header whose two words disagree is surfaced as [`MmdbError::LogCorrupt`].
const LEN_CHECK_XOR: u32 = 0x5EC0_3D1E;

/// Append one frame to `buf`: the length prefix with its XOR self-check, the
/// body `write_body` appends, and the trailing checksum. The inverse of what
/// [`FrameStream::next_body`] verifies. Redo records and every checkpoint
/// and manifest frame are written through here.
pub(crate) fn write_frame(buf: &mut Vec<u8>, write_body: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    // Length prefix + self-check are patched once the body size is known.
    buf.extend_from_slice(&[0u8; 8]);
    write_body(buf);
    let body_len = (buf.len() - start - 8) as u32;
    buf[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&(body_len ^ LEN_CHECK_XOR).to_le_bytes());
    let checksum = hash_bytes(&buf[start + 8..]);
    buf.extend_from_slice(&checksum.to_le_bytes());
}

/// Decode one record body (the part covered by the checksum). `offset` is
/// the frame's byte offset in the log, used for error reporting only.
pub(crate) fn decode_body(body: &[u8], offset: u64) -> Result<LogRecord> {
    let corrupt = |reason: &'static str| MmdbError::LogCorrupt { offset, reason };
    let mut pos = 0usize;
    let mut take = |n: usize| -> Result<&[u8]> {
        let slice = body
            .get(pos..pos + n)
            .ok_or(corrupt("record body shorter than its op list requires"))?;
        pos += n;
        Ok(slice)
    };
    let end_ts = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
    let op_count = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes"));
    let mut ops = Vec::with_capacity(op_count as usize);
    for _ in 0..op_count {
        let tag = take(1)?[0];
        let table = TableId(u32::from_le_bytes(take(4)?.try_into().expect("4 bytes")));
        match tag {
            0 => {
                let row_len = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes")) as usize;
                let row = Row::copy_from_slice(take(row_len)?);
                ops.push(LogOp::Write { table, row });
            }
            1 => {
                let key = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
                ops.push(LogOp::Delete { table, key });
            }
            _ => return Err(corrupt("unknown op tag")),
        }
    }
    if pos != body.len() {
        return Err(corrupt("trailing bytes after the last op"));
    }
    Ok(LogRecord {
        end_ts: Timestamp(end_ts),
        ops,
    })
}

/// Everything a tolerant read of a (possibly crash-truncated) log yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogReadOutcome {
    /// The completely written records, in append order.
    pub records: Vec<LogRecord>,
    /// Bytes occupied by the complete frames.
    pub valid_bytes: u64,
    /// Bytes discarded as a torn (incomplete) trailing frame.
    pub torn_bytes: u64,
}

impl LogReadOutcome {
    /// True when the log ended exactly on a frame boundary.
    pub fn is_clean(&self) -> bool {
        self.torn_bytes == 0
    }
}

/// Decode every complete record from `buf`, tolerating a torn tail.
pub fn read_log_bytes(buf: &[u8]) -> Result<LogReadOutcome> {
    read_records(FrameStream::new(buf, READ_CHUNK, 0))
}

/// Chunk size of the streaming log reader: how many bytes each `read(2)`
/// pulls from the file. Recovery memory is bounded by one chunk plus the
/// largest single frame, not the log size.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Decode every complete record from the log file at `path`.
///
/// Frames are streamed through a fixed-size chunk buffer (`READ_CHUNK`);
/// the outcome is identical to reading the whole file and calling
/// [`read_log_bytes`] — same records, same `valid_bytes` / `torn_bytes`,
/// same corruption offsets — without ever holding the log's raw bytes in
/// memory at once.
pub fn read_log_file(path: impl AsRef<Path>) -> Result<LogReadOutcome> {
    read_log_file_from(path, 0)
}

/// Decode every complete record from the log file at `path`, starting at
/// byte offset `start` (which must be a frame boundary — in practice a
/// checkpoint LSN translated to a physical offset, or 0).
///
/// Offsets in the outcome and in any [`MmdbError::LogCorrupt`] are absolute
/// file offsets: `valid_bytes` counts from byte 0, so `start` bytes of
/// skipped prefix are included in it.
pub fn read_log_file_from(path: impl AsRef<Path>, start: u64) -> Result<LogReadOutcome> {
    read_records(open_log_range(path.as_ref(), start, None)?)
}

/// Open the log segment at `path` as a [`FrameStream`] over the bytes from
/// offset `start` (a frame boundary), at most `limit` of them. Offsets the
/// stream reports are absolute file offsets.
pub(crate) fn open_log_range(
    path: &Path,
    start: u64,
    limit: Option<u64>,
) -> Result<FrameStream<Take<File>>> {
    let io = |e: std::io::Error| MmdbError::LogIo(e.to_string());
    let mut file = File::open(path).map_err(io)?;
    if start > 0 {
        file.seek(SeekFrom::Start(start)).map_err(io)?;
    }
    Ok(FrameStream::new(
        file.take(limit.unwrap_or(u64::MAX)),
        READ_CHUNK,
        start,
    ))
}

/// Collect every record a stream holds, with its byte accounting.
fn read_records(mut frames: FrameStream<impl Read>) -> Result<LogReadOutcome> {
    let mut records = Vec::new();
    while let Some(record) = frames.next_record()? {
        records.push(record);
    }
    Ok(LogReadOutcome {
        records,
        valid_bytes: frames.consumed(),
        torn_bytes: frames.torn_bytes(),
    })
}

/// The frame decoder: pulls `chunk`-sized reads from a [`Read`] source and
/// yields the body of each complete frame. An incomplete trailing frame is
/// end-of-stream (see [`torn_bytes`](Self::torn_bytes)), not an error;
/// anything wrong inside a complete frame is [`MmdbError::LogCorrupt`].
/// Shared by the log read side (bodies decode as [`LogRecord`]s) and the
/// checkpoint subsystem (bodies are checkpoint header/row/trailer and
/// manifest entries — same wire discipline, different body schema).
pub(crate) struct FrameStream<R: Read> {
    reader: R,
    chunk: usize,
    /// `buf[start..]` is the undecoded window.
    buf: Vec<u8>,
    start: usize,
    /// Absolute offset of `buf[start]` (the cleanly consumed prefix).
    consumed: u64,
    eof: bool,
    /// Bytes of an incomplete trailing frame, set once the stream ends torn.
    torn_bytes: u64,
}

impl<R: Read> FrameStream<R> {
    /// Stream frames from `reader`, whose first byte sits at absolute offset
    /// `base` (for error reporting and byte accounting).
    pub(crate) fn new(reader: R, chunk: usize, base: u64) -> FrameStream<R> {
        FrameStream {
            reader,
            chunk,
            buf: Vec::with_capacity(chunk),
            start: 0,
            consumed: base,
            eof: false,
            torn_bytes: 0,
        }
    }

    /// Absolute offset of the cleanly consumed prefix.
    pub(crate) fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Bytes of an incomplete trailing frame (0 while frames remain or the
    /// stream ended exactly on a boundary).
    pub(crate) fn torn_bytes(&self) -> u64 {
        self.torn_bytes
    }

    /// Top the window up to `need` bytes (compacting the consumed prefix
    /// first, so the buffer stays one chunk long in steady state and only
    /// grows when a single frame exceeds it).
    fn fill_to(&mut self, need: usize) -> std::io::Result<()> {
        while !self.eof && self.buf.len() - self.start < need {
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let old = self.buf.len();
            self.buf.resize(old + self.chunk.max(need - old), 0);
            match self.reader.read(&mut self.buf[old..]) {
                Ok(0) => {
                    self.buf.truncate(old);
                    self.eof = true;
                }
                Ok(n) => self.buf.truncate(old + n),
                Err(e) => {
                    self.buf.truncate(old);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// The next complete frame's `(absolute offset, body)`. `Ok(None)` is a
    /// clean end or a torn tail — check [`torn_bytes`](Self::torn_bytes).
    pub(crate) fn next_body(&mut self) -> Result<Option<(u64, &[u8])>> {
        let io = |e: std::io::Error| MmdbError::LogIo(e.to_string());
        self.fill_to(8).map_err(io)?;
        let avail = self.buf.len() - self.start;
        if avail < 8 {
            // Clean end (nothing left) or a tail too short for a header.
            self.torn_bytes = avail as u64;
            return Ok(None);
        }
        let header = &self.buf[self.start..self.start + 8];
        let body_len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let len_check = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if body_len ^ LEN_CHECK_XOR != len_check {
            // The walk depends on the length being right; a header whose two
            // words disagree is corruption, not a tear — treating it as a
            // torn tail would silently drop every later committed record.
            return Err(MmdbError::LogCorrupt {
                offset: self.consumed,
                reason: "length prefix fails its self-check",
            });
        }
        let frame_len = 8 + body_len as usize + 8;
        self.fill_to(frame_len).map_err(io)?;
        let avail = self.buf.len() - self.start;
        if avail < frame_len {
            // Torn tail: the header promises more bytes than remain.
            self.torn_bytes = avail as u64;
            return Ok(None);
        }
        let body_at = self.start + 8;
        let stored = u64::from_le_bytes(
            self.buf[body_at + body_len as usize..self.start + frame_len]
                .try_into()
                .expect("8 bytes"),
        );
        let body = &self.buf[body_at..body_at + body_len as usize];
        if hash_bytes(body) != stored {
            return Err(MmdbError::LogCorrupt {
                offset: self.consumed,
                reason: "checksum mismatch",
            });
        }
        let offset = self.consumed;
        self.start += frame_len;
        self.consumed += frame_len as u64;
        // Re-borrow after the bookkeeping so the borrow checker is happy.
        let body = &self.buf[body_at..body_at + body_len as usize];
        Ok(Some((offset, body)))
    }

    /// The next complete frame decoded as a redo record.
    pub(crate) fn next_record(&mut self) -> Result<Option<LogRecord>> {
        match self.next_body()? {
            Some((offset, body)) => decode_body(body, offset).map(Some),
            None => Ok(None),
        }
    }
}

/// A durability ticket: the logical byte offset (within one logger's stream)
/// up to which a committer's redo bytes extend. Issued by
/// [`RedoLogger::append_frame_ticketed`]; redeemed by
/// [`RedoLogger::wait_durable`], which returns once every byte at offsets
/// `< lsn` is on durable storage.
///
/// Because the log is a single ordered stream, tickets are totally ordered:
/// a ticket becoming durable implies every lower ticket is durable too. The
/// numeric value is only meaningful within the logger that issued it;
/// loggers without batching issue [`Lsn::ZERO`] (their `wait_durable`
/// flushes everything regardless).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The trivially-durable ticket (an empty log prefix).
    pub const ZERO: Lsn = Lsn(0);
}

/// What a recovery did: how much log it consumed and how many records it
/// applied. Returned by `Durable::recover_bytes` and
/// `Durable::recover_from_checkpoint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Number of log records replayed into the engine.
    pub records_applied: usize,
    /// Bytes of the log occupied by complete frames.
    pub valid_bytes: u64,
    /// Bytes discarded as a torn trailing frame (0 on a clean shutdown).
    pub torn_bytes: u64,
}

/// A redo-log byte sink. Appends must never block on I/O.
pub trait RedoLogger: Send + Sync + 'static {
    /// Append one record frame (the exact bytes [`encode_frame_into`]
    /// produces) and receive a durability ticket. Implementations must not
    /// retain the borrow.
    ///
    /// This is every engine's commit path: the transaction encodes into a
    /// reusable buffer and hands the borrow over, so appends allocate
    /// nothing. The returned [`Lsn`] covers this frame and, transitively,
    /// every frame appended before it; a transaction that commits with
    /// [`Durability::Sync`](mmdb_common::Durability) redeems it with
    /// [`RedoLogger::wait_durable`]. The append itself never blocks on I/O
    /// — batching loggers ([`crate::group_commit::GroupCommitLog`]) stage
    /// the bytes in a shared buffer and harden them on their next flush.
    fn append_frame_ticketed(&self, frame: &[u8]) -> Lsn;

    /// [`RedoLogger::append_frame_ticketed`] without the ticket.
    fn append_frame(&self, frame: &[u8]) {
        self.append_frame_ticketed(frame);
    }

    /// Block until every byte at offsets below `upto` is on durable storage.
    ///
    /// Ordering guarantee: a ticket is never reported durable before the
    /// bytes of **every** lower ticket have reached the file — the log is a
    /// single ordered stream and flushes cover prefixes.
    ///
    /// The default, for loggers that issue no real tickets, simply
    /// [`flush`](RedoLogger::flush)es.
    ///
    /// Errors are the logger's sticky I/O errors; once the underlying file
    /// has failed, every subsequent wait fails. A ticket whose bytes were
    /// already confirmed durable before the failure still succeeds.
    fn wait_durable(&self, upto: Lsn) -> Result<()> {
        let _ = upto;
        self.flush()
    }

    /// Force buffered records to durable storage (the group commit tick):
    /// buffered bytes are written **and synced** (`fdatasync`-equivalent) so
    /// a crash of the whole machine, not just the process, cannot lose them.
    ///
    /// Returns the first I/O error encountered by any append or flush since
    /// the logger was created — errors are sticky, so a torn write during an
    /// earlier (fire-and-forget) append is still reported here.
    fn flush(&self) -> Result<()> {
        Ok(())
    }

    /// Number of records appended so far.
    fn records_written(&self) -> u64;
}

/// Logger that discards everything (useful to isolate CC costs).
#[derive(Debug, Default)]
pub struct NullLogger {
    count: AtomicU64,
}

impl NullLogger {
    /// Create a new discarding logger.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RedoLogger for NullLogger {
    fn append_frame_ticketed(&self, _frame: &[u8]) -> Lsn {
        self.count.fetch_add(1, Ordering::Relaxed);
        Lsn::ZERO
    }
    fn records_written(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// Logger that keeps the appended frame bytes in memory (tests, examples).
#[derive(Debug, Default)]
pub struct MemoryLogger {
    bytes: Mutex<Vec<u8>>,
    count: AtomicU64,
}

impl MemoryLogger {
    /// Create an empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` over every record appended so far, decoded, in append order.
    pub fn with_records<R>(&self, f: impl FnOnce(&[LogRecord]) -> R) -> R {
        let outcome = read_log_bytes(&self.bytes.lock()).expect("appended frames decode");
        f(&outcome.records)
    }

    /// The exact bytes a file-backed logger would have produced for the
    /// same append sequence (byte-exact comparison in tests).
    pub fn encoded_bytes(&self) -> Vec<u8> {
        self.bytes.lock().clone()
    }
}

impl RedoLogger for MemoryLogger {
    fn append_frame_ticketed(&self, frame: &[u8]) -> Lsn {
        self.bytes.lock().extend_from_slice(frame);
        self.count.fetch_add(1, Ordering::Relaxed);
        Lsn::ZERO
    }
    fn records_written(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// First-error-wins sticky I/O error slot of
/// [`crate::group_commit::GroupCommitLog`]: the log is torn at the
/// *earliest* failure point, so only the first error is retained and every
/// later flush/wait reports it.
#[derive(Debug, Default)]
pub(crate) struct StickyError(Mutex<Option<String>>);

impl StickyError {
    /// Record `err` if no earlier error is held; later ones are dropped.
    pub(crate) fn record(&self, err: std::io::Error) {
        let mut slot = self.0.lock();
        if slot.is_none() {
            *slot = Some(err.to_string());
        }
    }

    /// The held error, if any, as an [`MmdbError::LogIo`].
    pub(crate) fn get(&self) -> Option<MmdbError> {
        self.0.lock().as_ref().map(|m| MmdbError::LogIo(m.clone()))
    }

    /// True once an error has been recorded.
    pub(crate) fn is_set(&self) -> bool {
        self.0.lock().is_some()
    }

    /// `Ok(())` while clean, the held error otherwise.
    pub(crate) fn check(&self) -> Result<()> {
        match self.get() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ts: u64, rows: usize) -> LogRecord {
        LogRecord {
            end_ts: Timestamp(ts),
            ops: (0..rows)
                .map(|i| LogOp::Write {
                    table: TableId(0),
                    row: Row::from(vec![i as u8; 24]),
                })
                .collect(),
        }
    }

    fn mixed_record(ts: u64) -> LogRecord {
        LogRecord {
            end_ts: Timestamp(ts),
            ops: vec![
                LogOp::Write {
                    table: TableId(2),
                    row: Row::from(vec![0xAB; 24]),
                },
                LogOp::Delete {
                    table: TableId(7),
                    key: 0xDEAD_BEEF,
                },
            ],
        }
    }

    /// The paper's I/O estimate `encode_frame_into` reports for `record`.
    fn estimate(record: &LogRecord) -> u64 {
        encode_frame_into(
            &mut Vec::new(),
            record.end_ts,
            record.ops.iter().map(LogOp::as_ref),
        )
    }

    #[test]
    fn memory_logger_preserves_order_and_content() {
        let log = MemoryLogger::new();
        log.append_frame(&encode_record(&record(10, 2)));
        log.append_frame(&encode_record(&record(12, 1)));
        log.with_records(|records| {
            assert_eq!(records.len(), 2);
            assert_eq!(records[0].end_ts, Timestamp(10));
            assert_eq!(records[1].end_ts, Timestamp(12));
            assert_eq!(records[0].ops.len(), 2);
        });
        assert_eq!(log.records_written(), 2);
        // 24-byte rows + 8 bytes metadata each + 8 per record.
        assert_eq!(estimate(&record(10, 2)), 2 * 32 + 8);
        assert_eq!(estimate(&record(12, 1)), 32 + 8);
    }

    #[test]
    fn null_logger_counts_only() {
        let log = NullLogger::new();
        log.append_frame(&encode_record(&record(1, 1)));
        log.append_frame(&encode_record(&record(2, 1)));
        assert_eq!(log.records_written(), 2);
    }

    #[test]
    fn delete_records_are_small() {
        let rec = LogRecord {
            end_ts: Timestamp(5),
            ops: vec![LogOp::Delete {
                table: TableId(3),
                key: 42,
            }],
        };
        assert_eq!(estimate(&rec), 24);
    }

    #[test]
    fn encode_decode_round_trip() {
        let records = vec![record(7, 3), mixed_record(9), record(11, 0)];
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
        }
        let outcome = read_log_bytes(&bytes).unwrap();
        assert!(outcome.is_clean());
        assert_eq!(outcome.valid_bytes, bytes.len() as u64);
        assert_eq!(outcome.records, records);
    }

    #[test]
    fn torn_tail_at_every_offset_is_tolerated() {
        let records = vec![record(7, 3), mixed_record(9), record(11, 2)];
        let mut bytes = Vec::new();
        let mut boundaries = vec![0u64];
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
            boundaries.push(bytes.len() as u64);
        }
        for cut in 0..=bytes.len() {
            let outcome = read_log_bytes(&bytes[..cut]).unwrap_or_else(|e| {
                panic!("cut at {cut} should be a torn tail, not corruption: {e}")
            });
            // Exactly the records whose frames fit below the cut survive.
            let survivors = boundaries
                .iter()
                .filter(|&&b| b > 0 && b <= cut as u64)
                .count();
            assert_eq!(
                outcome.records,
                records[..survivors],
                "wrong records for cut at {cut}"
            );
            assert_eq!(outcome.valid_bytes, boundaries[survivors]);
            assert_eq!(
                outcome.torn_bytes,
                cut as u64 - boundaries[survivors],
                "wrong torn byte count for cut at {cut}"
            );
            assert_eq!(outcome.is_clean(), cut as u64 == boundaries[survivors]);
        }
    }

    #[test]
    fn corruption_inside_valid_region_is_an_error() {
        let mut bytes = encode_record(&mixed_record(9));
        // Flip a byte in the body: frame is complete, checksum must fail.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let err = read_log_bytes(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                MmdbError::LogCorrupt {
                    offset: 0,
                    reason: "checksum mismatch"
                }
            ),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn bad_op_tag_is_corruption_not_torn_tail() {
        // Hand-build a frame with a valid checksum but an invalid op tag.
        let mut body = Vec::new();
        body.extend_from_slice(&5u64.to_le_bytes()); // end_ts
        body.extend_from_slice(&1u32.to_le_bytes()); // op_count
        body.push(9u8); // bogus tag
        body.extend_from_slice(&0u32.to_le_bytes()); // table
        body.extend_from_slice(&0u64.to_le_bytes()); // key
        let mut frame = Vec::new();
        write_frame(&mut frame, |buf| buf.extend_from_slice(&body));
        let err = read_log_bytes(&frame).unwrap_err();
        assert!(matches!(
            err,
            MmdbError::LogCorrupt {
                reason: "unknown op tag",
                ..
            }
        ));
    }

    #[test]
    fn corrupted_length_prefix_is_corruption_not_torn_tail() {
        // A bit-flip in a mid-file length prefix must not truncate the log
        // silently: the reader walks the file by these lengths, so a bad
        // one would otherwise misread every later frame as a torn tail.
        let records = vec![record(7, 2), record(9, 1)];
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
        }
        let mut flipped = bytes.clone();
        flipped[1] ^= 0x40; // raise record 0's body_len past the file size
        let err = read_log_bytes(&flipped).unwrap_err();
        assert!(
            matches!(
                err,
                MmdbError::LogCorrupt {
                    offset: 0,
                    reason: "length prefix fails its self-check"
                }
            ),
            "unexpected outcome for a corrupted length prefix: {err:?}"
        );
    }

    #[test]
    fn encode_frame_into_matches_encode_record_and_reuses_capacity() {
        let records = vec![record(7, 3), mixed_record(9), record(11, 0)];
        let mut buf = Vec::new();
        for r in &records {
            buf.clear();
            encode_frame_into(&mut buf, r.end_ts, r.ops.iter().map(LogOp::as_ref));
            assert_eq!(buf, encode_record(r), "byte-exact parity for {r:?}");
        }
    }

    #[test]
    fn memory_logger_keeps_the_frame_bytes() {
        let log = MemoryLogger::new();
        let rec = mixed_record(42);
        let frame = encode_record(&rec);
        log.append_frame(&frame);
        assert_eq!(log.encoded_bytes(), frame);
        log.with_records(|records| assert_eq!(records, std::slice::from_ref(&rec)));
        assert_eq!(log.records_written(), 1);
    }

    #[test]
    fn null_logger_counts_frames() {
        let null = NullLogger::new();
        null.append_frame(&encode_record(&record(1, 1)));
        assert_eq!(null.records_written(), 1);
    }

    /// The chunk size is invisible: small chunks, which split every frame
    /// across reads, decode exactly like one read of the whole slice, for
    /// every truncation point.
    #[test]
    fn streaming_reader_matches_in_memory_reader_at_every_cut() {
        let records = vec![record(7, 3), mixed_record(9), record(11, 2), record(13, 0)];
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
        }
        // Chunk sizes chosen to hit: header split across chunks (7), body
        // split (16), frame boundary == chunk boundary sometimes (32), and a
        // chunk larger than the whole log (1 MiB).
        for chunk in [7usize, 16, 32, READ_CHUNK] {
            for cut in 0..=bytes.len() {
                let expect = read_log_bytes(&bytes[..cut]).unwrap();
                let got =
                    read_records(FrameStream::new(&bytes[..cut], chunk, 0)).unwrap_or_else(|e| {
                        panic!(
                            "chunk {chunk} cut {cut}: stream errored where slice read did not: {e}"
                        )
                    });
                assert_eq!(got, expect, "chunk {chunk} cut {cut}");
            }
        }
    }

    /// The required shape from the issue: a multi-chunk log whose *last*
    /// frame straddles a chunk boundary must decode completely.
    #[test]
    fn last_frame_straddling_a_chunk_boundary_decodes_completely() {
        let chunk = 64usize;
        let mut bytes = Vec::new();
        let mut records = Vec::new();
        // Fill several whole chunks, then place a final frame that starts
        // before a chunk boundary and ends after it.
        let mut ts = 1u64;
        while bytes.len() < 3 * chunk {
            let r = record(ts, 1);
            ts += 1;
            bytes.extend_from_slice(&encode_record(&r));
            records.push(r);
        }
        let last = record(ts, 2);
        let frame = encode_record(&last);
        assert!(
            bytes.len() % chunk != 0 || frame.len() > chunk,
            "test setup must make the last frame straddle a boundary"
        );
        bytes.extend_from_slice(&frame);
        records.push(last);
        let outcome = read_records(FrameStream::new(&bytes[..], chunk, 0)).unwrap();
        assert!(outcome.is_clean());
        assert_eq!(outcome.records, records);
        assert_eq!(outcome.valid_bytes, bytes.len() as u64);
    }

    /// Streaming corruption reporting is offset-identical to the in-memory
    /// reader, even when the corrupt frame sits past several chunks.
    #[test]
    fn streaming_reader_reports_corruption_at_the_same_offset() {
        let records = vec![record(7, 2), record(9, 1), mixed_record(11)];
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
        }
        let second_frame_at = encode_record(&records[0]).len();
        let mut flipped = bytes.clone();
        flipped[second_frame_at + 20] ^= 0xFF; // body byte of frame 1
        let expect = read_log_bytes(&flipped).unwrap_err();
        let got = read_records(FrameStream::new(&flipped[..], 16, 0)).unwrap_err();
        assert_eq!(format!("{got:?}"), format!("{expect:?}"));
    }

    /// `read_log_file_from` resumes at a frame boundary and reports absolute
    /// offsets, which is what checkpoint tail replay relies on;
    /// `open_log_range`'s limit is what a delta checkpoint's window read
    /// relies on.
    #[test]
    fn read_log_file_from_resumes_mid_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mmdb-log-from-test-{}.bin", std::process::id()));
        let records = vec![record(7, 2), mixed_record(9), record(11, 1)];
        let mut bytes = Vec::new();
        let mut boundaries = vec![0u64];
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
            boundaries.push(bytes.len() as u64);
        }
        std::fs::write(&path, &bytes).unwrap();
        for (skip, start) in boundaries.iter().enumerate() {
            let outcome = read_log_file_from(&path, *start).unwrap();
            assert_eq!(outcome.records, records[skip..]);
            assert_eq!(outcome.valid_bytes, bytes.len() as u64);
            assert!(outcome.is_clean());
        }
        // A byte limit ending on a frame boundary reads exactly the frames
        // below it.
        let prefix = read_records(open_log_range(&path, 0, Some(boundaries[2])).unwrap()).unwrap();
        assert_eq!(prefix.records, records[..2]);
        assert!(prefix.is_clean());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_log_file_is_a_log_io_error() {
        let err = read_log_file("/nonexistent/mmdb-no-such-log.bin").unwrap_err();
        assert!(matches!(err, MmdbError::LogIo(_)));
    }
}

//! # mmdb-storage
//!
//! The multiversion storage substrate of mmdb: versions with tagged
//! Begin/End words, tables of latch-free hash indexes, the global transaction
//! table, cooperative garbage collection and asynchronous redo logging.
//!
//! This crate implements §2 of *"High-Performance Concurrency Control
//! Mechanisms for Main-Memory Databases"* (Larson et al., VLDB 2011) minus
//! the visibility logic and the concurrency-control schemes themselves, which
//! live in `mmdb-core` and are layered on top of [`MvStore`].
//!
//! Module map:
//!
//! * [`version`] — the version record (Figure 1): Begin/End atomics, payload,
//!   per-index chain pointers.
//! * [`table`] — tables: per-index [`mmdb_index::HashIndex`] +
//!   [`mmdb_index::BucketLockTable`], key extraction, version linking.
//! * [`txn_table`] — transaction handles (state machine, commit-dependency
//!   and wait-for-dependency bookkeeping) and the global transaction table.
//! * [`gc`] — the garbage queue feeding cooperative collection.
//! * [`log`] — the redo-log wire format, its one frame decoder, the
//!   [`RedoLogger`] byte-sink trait with its null / in-memory
//!   implementations and the durability-ticket surface ([`log::Lsn`]).
//! * [`group_commit`] — the file-backed logger ([`GroupCommitLog`]): a
//!   shared-buffer batched writer, one `write`+sync per batch,
//!   per-transaction durability tickets, background-tick or leader-elected
//!   flushing.
//! * [`checkpoint`] — checkpointing and log truncation
//!   ([`CheckpointStore`]): one image format for a base and its deltas,
//!   streamed back by [`ImageReader`], the torn-tolerant `MANIFEST`, and
//!   crash-atomic write → install → truncate, turning recovery into
//!   load-chain + replay-tail.
//! * `recovery` — the newest-wins fold and partitioned parallel recovery:
//!   one decode pass over the checkpoint chain + log tail, table-sharded
//!   fold workers.
//! * [`durable`] — the [`Durable`] trait: the checkpoint / recover
//!   lifecycle written once over the few primitives engines differ in.
//! * [`store`] — [`MvStore`], the bundle shared by all transactions.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod checkpoint;
pub mod durable;
pub mod gc;
pub mod group_commit;
pub mod log;
mod recovery;
pub mod store;
pub mod table;
pub mod txn_table;
pub mod version;

pub use checkpoint::{
    CheckpointRef, CheckpointStore, CheckpointWriter, FinishedCheckpoint, ImageReader, RecoveryPlan,
};
pub use durable::Durable;
pub use gc::{GcItem, GcQueue};
pub use group_commit::GroupCommitLog;
pub use log::{LogOp, LogRecord, Lsn, MemoryLogger, NullLogger, RedoLogger};
pub use store::MvStore;
pub use table::{Table, VersionPtr};
pub use txn_table::{DepRegistration, TxnHandle, TxnState, TxnTable};
pub use version::Version;

//! # mmdb-common
//!
//! Shared primitives for the `mmdb` main-memory database, a reproduction of
//! *"High-Performance Concurrency Control Mechanisms for Main-Memory
//! Databases"* (Larson et al., VLDB 2011).
//!
//! This crate is dependency-light and holds everything the storage engines,
//! workload generators and benchmark harness need to agree on:
//!
//! * [`word`] — the tagged 64-bit `Begin`/`End` words stored in every version
//!   header. A word holds either a commit timestamp or transaction metadata
//!   (a transaction ID, and for the pessimistic scheme an embedded record
//!   lock with `NoMoreReadLocks` / `ReadLockCount` / `WriteLock` sub-fields).
//! * [`clock`] — the global monotonic timestamp counter and transaction-ID
//!   allocator. Acquiring a timestamp is a single atomic increment, the only
//!   critical section in the whole system (paper §6).
//! * [`ids`] — strongly-typed identifiers ([`TxnId`], [`Timestamp`],
//!   [`TableId`], [`IndexId`]).
//! * [`isolation`] — isolation levels and the optimistic/pessimistic
//!   concurrency mode selector.
//! * [`durability`] — the per-transaction Async/Sync commit-durability knob
//!   (paper-faithful asynchronous commit vs wait-for-group-commit-flush).
//! * [`row`] — byte rows, key extraction specifications and table/index
//!   schemas.
//! * [`engine`] — the [`Engine`]/[`EngineTxn`]
//!   abstraction the three engines (MV/O, MV/L, 1V) implement, so workloads
//!   and experiments are written once.
//! * [`error`] — the shared error type.
//! * [`hash`] — the multiplicative hash used to map keys to buckets.
//! * [`stats`] — lightweight atomic counters used by engines to report
//!   aborts, validation failures, waits, and garbage-collection activity.
//! * [`contention`] — windowed conflict telemetry (EWMA'd score with
//!   hysteresis) that adaptive engines consult to pick a concurrency mode
//!   per transaction.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod contention;
pub mod durability;
pub mod engine;
pub mod error;
pub mod hash;
pub mod ids;
pub mod isolation;
pub mod row;
pub mod stats;
pub mod word;

pub use clock::GlobalClock;
pub use contention::ContentionMonitor;
pub use durability::{CheckpointPolicy, Durability};
pub use engine::{Engine, EngineTxn};
pub use error::{MmdbError, Result};
pub use ids::{IndexId, Key, TableId, Timestamp, TxnId, INFINITY_TS, MAX_TXN_ID};
pub use isolation::{ConcurrencyMode, IsolationLevel};
pub use row::{IndexSpec, KeySpec, Row, TableSpec};
pub use word::{BeginWord, EndWord, LockWord};

/// Support for this workspace's tests (unit tests here and the suites
/// layered on top); not part of the API.
#[doc(hidden)]
pub mod test_support {
    /// Names the seed of the random case in flight if that case panics.
    struct CaseSeed(u64);

    impl Drop for CaseSeed {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("failing case seed: {}", self.0);
            }
        }
    }

    /// The seeded loop that stands in for a property test: run `case` on the
    /// seeds `0..cases`. Nothing is shrunk; a failing case prints its seed.
    pub fn for_each_seed(cases: u64, case: impl Fn(u64)) {
        for seed in 0..cases {
            let _named = CaseSeed(seed);
            case(seed);
        }
    }
}

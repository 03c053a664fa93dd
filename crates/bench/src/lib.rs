//! # mmdb-bench
//!
//! Prints the tables and figures of the paper's evaluation (§5) so their
//! *shape* can be compared with the paper's. The `repro` binary drives the
//! functions in [`experiments`]. Numbers that gate changes are measured by
//! the separate `mmdb-benchmark` package under `benchmark/`, not here.
//!
//! All experiments compare the three concurrency-control schemes the paper
//! evaluates — single-version locking (**1V**), pessimistic multiversioning
//! (**MV/L**) and optimistic multiversioning (**MV/O**) — plus this
//! reproduction's contention-adaptive mode (**MV/A**).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod scheme;

pub use experiments::ExpConfig;
pub use scheme::Scheme;

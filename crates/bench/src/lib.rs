//! # mmdb-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§5). The `repro` binary drives the functions in
//! [`experiments`].
//!
//! All experiments compare the three concurrency-control schemes the paper
//! evaluates: single-version locking (**1V**), pessimistic multiversioning
//! (**MV/L**) and optimistic multiversioning (**MV/O**).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod commitpath;
pub mod experiments;
pub mod json;
pub mod readpath;
pub mod scheme;
pub mod writepath;

pub use experiments::ExpConfig;
pub use scheme::Scheme;

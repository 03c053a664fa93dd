//! # mmdb-benchmark
//!
//! One closed-loop benchmark of the mmdb engines: four workloads
//! (`tatp`, `smallbank-durable`, `tpcc-hot`, `longread`) on MV/O, MV/L and
//! MV/A, with latency percentiles, per-layer fixtures and ladders, and a
//! traced run. It drives the engines only through their public API. See
//! `benchmark/README.md` for what each metric means and how they interact.

pub mod child;
pub mod client;
pub mod compare;
pub mod hist;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod suite;
pub mod trace;
pub mod workloads;

//! Fixture for the write-path measurements of the `repro perf` experiment
//! ([`crate::experiments::writepath_perf`], recorded into
//! `BENCH_writepath.json`): warmed engines and key strides (row layout
//! shared with the read path via `rowbuf::grouped_row`).
//!
//! The measured unit is a whole warmed write transaction —
//! begin → update → commit (or an insert-then-delete pair) — because that is
//! the shape the allocation-free write path pins in
//! `crates/core/tests/alloc_free.rs`: steady-state writes must touch no
//! shared mutable state beyond the version chain itself (§2.6, Figs. 7–9).

use std::time::Duration;

use mmdb_common::engine::Engine as _;
use mmdb_common::ids::TableId;
use mmdb_common::isolation::ConcurrencyMode;
use mmdb_core::{MvConfig, MvEngine};
use mmdb_onev::SvEngine;

pub use mmdb_common::row::rowbuf::{grouped_row, grouped_spec, GROUP_SIZE};

/// Update-key stride (odd, well-mixed walk over the keyspace; shared with
/// the read path so the two benches stress the same chains).
pub use crate::readpath::KEY_STRIDE;

/// An MV engine in the given concurrency mode populated with `rows` grouped
/// rows (cooperative GC on, per the default configuration, so steady-state
/// update chains stay short exactly as they would in production).
pub fn warmed_mv_engine_with(mode: ConcurrencyMode, rows: u64) -> (MvEngine, TableId) {
    let config = MvConfig::default();
    let engine = match mode {
        ConcurrencyMode::Optimistic => MvEngine::optimistic(config),
        ConcurrencyMode::Pessimistic => MvEngine::pessimistic(config),
    };
    let table = engine
        .create_table(grouped_spec(rows))
        .expect("create table");
    engine
        .populate(table, (0..rows).map(grouped_row))
        .expect("populate");
    (engine, table)
}

/// A 1V engine populated with `rows` grouped rows.
pub fn warmed_sv_engine(rows: u64, lock_timeout: Duration) -> (SvEngine, TableId) {
    crate::readpath::warmed_sv_engine(rows, lock_timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_common::engine::EngineTxn;
    use mmdb_common::ids::IndexId;
    use mmdb_common::isolation::IsolationLevel;

    #[test]
    fn warmed_engines_accept_write_transactions() {
        for mode in [ConcurrencyMode::Optimistic, ConcurrencyMode::Pessimistic] {
            let (engine, table) = warmed_mv_engine_with(mode, 64);
            let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
            assert!(txn
                .update(table, IndexId(0), 3, grouped_row(3))
                .expect("update"));
            txn.commit().expect("commit");
        }
    }
}

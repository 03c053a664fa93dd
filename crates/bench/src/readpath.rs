//! Fixture for the read-path measurements of the `repro perf` experiment
//! ([`crate::experiments::readpath_perf`], recorded into
//! `BENCH_readpath.json`): row layout, table spec, warmed engines and key
//! strides.

use std::time::Duration;

use mmdb_common::engine::Engine as _;
use mmdb_common::ids::{TableId, Timestamp, TxnId};
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_core::{MvConfig, MvEngine};
use mmdb_onev::{SvConfig, SvEngine};
use mmdb_storage::txn_table::{TxnHandle, TxnTable};

/// The row layout itself lives in `mmdb-common` (`rowbuf::grouped_row`) so
/// the zero-allocation regression test in `mmdb-core` asserts exactly the
/// shape these measurements run.
pub use mmdb_common::row::rowbuf::{grouped_row, grouped_spec, GROUP_SIZE};

/// Point-read key stride (odd, well-mixed walk over the keyspace).
pub const KEY_STRIDE: u64 = 0x9E3779B9;

/// Scan group stride.
pub const GROUP_STRIDE: u64 = 0x9E37;

/// Transactions registered in the [`TxnTable`] lookup fixture.
pub const TXN_TABLE_ENTRIES: u64 = 64;

/// An MV/O engine populated with `rows` grouped rows.
pub fn warmed_mv_engine(rows: u64) -> (MvEngine, TableId) {
    let engine = MvEngine::optimistic(MvConfig::default());
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
    let engine = SvEngine::new(SvConfig::default().with_lock_timeout(lock_timeout));
    let table = engine
        .create_table(grouped_spec(rows))
        .expect("create table");
    engine
        .populate(table, (0..rows).map(grouped_row))
        .expect("populate");
    (engine, table)
}

/// Index id of the ordered primary-key index in the `*_ordered_*` fixtures
/// (0 is the hash primary, 1 the grouped secondary).
pub const ORDERED_INDEX: mmdb_common::ids::IndexId = mmdb_common::ids::IndexId(2);

/// The grouped spec plus an ordered index over the primary key — the
/// range-scan fixture (`repro perf-range`, `BENCH_rangescan.json`).
pub fn ordered_grouped_spec(rows: u64) -> mmdb_common::row::TableSpec {
    grouped_spec(rows).with_index(mmdb_common::row::IndexSpec::ordered_u64("pk_ordered", 0))
}

/// An MV engine of either scheme populated with `rows` grouped rows on the
/// ordered-indexed spec.
pub fn warmed_ordered_mv_engine(mode: ConcurrencyMode, rows: u64) -> (MvEngine, TableId) {
    let engine = match mode {
        ConcurrencyMode::Optimistic => MvEngine::optimistic(MvConfig::default()),
        ConcurrencyMode::Pessimistic => MvEngine::pessimistic(MvConfig::default()),
    };
    let table = engine
        .create_table(ordered_grouped_spec(rows))
        .expect("create table");
    engine
        .populate(table, (0..rows).map(grouped_row))
        .expect("populate");
    (engine, table)
}

/// A 1V engine populated with `rows` grouped rows on the ordered-indexed
/// spec.
pub fn warmed_ordered_sv_engine(rows: u64, lock_timeout: Duration) -> (SvEngine, TableId) {
    let engine = SvEngine::new(SvConfig::default().with_lock_timeout(lock_timeout));
    let table = engine
        .create_table(ordered_grouped_spec(rows))
        .expect("create table");
    engine
        .populate(table, (0..rows).map(grouped_row))
        .expect("populate");
    (engine, table)
}

/// A transaction table holding [`TXN_TABLE_ENTRIES`] registered handles
/// (ids `1..=TXN_TABLE_ENTRIES`) — the §2.5 visibility-lookup fixture.
pub fn registered_txn_table() -> TxnTable {
    let txns = TxnTable::new();
    for id in 1..=TXN_TABLE_ENTRIES {
        txns.register(TxnHandle::new(
            TxnId(id),
            Timestamp(id),
            ConcurrencyMode::Optimistic,
            IsolationLevel::Serializable,
        ));
    }
    txns
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_common::row::rowbuf;

    #[test]
    fn fixture_shapes() {
        let row = grouped_row(17);
        assert_eq!(rowbuf::key_of(&row), 17);
        assert_eq!(row.len(), 24);
        let (engine, table) = warmed_mv_engine(64);
        assert_eq!(engine.version_count(table).unwrap(), 64);
        let txns = registered_txn_table();
        assert_eq!(txns.len(), TXN_TABLE_ENTRIES as usize);
    }
}

//! The homogeneous parameterized workload of §5.1.
//!
//! A single transaction type performs `R` reads and `W` writes against a
//! table of `N` rows with a unique key; each row is 24 bytes and keys are
//! drawn uniformly at random. Varying `N` moves the workload between the
//! low-contention regime (Figure 4: N = 10,000,000) and a hotspot
//! (Figure 5: N = 1,000).

use rand::rngs::StdRng;
use rand::Rng;

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::error::Result;
use mmdb_common::ids::{IndexId, TableId};
use mmdb_common::isolation::IsolationLevel;
use mmdb_common::row::{rowbuf, TableSpec};

use crate::driver::{TxnKind, TxnOutcome};

/// Parameters of the homogeneous workload.
#[derive(Debug, Clone)]
pub struct Homogeneous {
    /// Number of rows `N` in the table.
    pub rows: u64,
    /// Point reads per transaction (`R`).
    pub reads: usize,
    /// Updates per transaction (`W`).
    pub writes: usize,
    /// Isolation level the transactions run at.
    pub isolation: IsolationLevel,
}

impl Default for Homogeneous {
    fn default() -> Self {
        // The paper's standard short update transaction: R=10, W=2.
        Homogeneous {
            rows: 1_000_000,
            reads: 10,
            writes: 2,
            isolation: IsolationLevel::ReadCommitted,
        }
    }
}

/// Payload filler bytes: 8-byte key + 16 bytes = the paper's 24-byte row.
pub const ROW_FILLER: usize = 16;

impl Homogeneous {
    /// The paper's low-contention configuration (Figure 4), scaled by `rows`.
    pub fn low_contention(rows: u64) -> Homogeneous {
        Homogeneous {
            rows,
            ..Default::default()
        }
    }

    /// The paper's hotspot configuration (Figure 5): N = 1,000.
    pub fn high_contention() -> Homogeneous {
        Homogeneous {
            rows: 1_000,
            ..Default::default()
        }
    }

    /// Draw one access key, uniformly over the table.
    fn draw_key(&self, rng: &mut StdRng) -> u64 {
        rng.gen_range(0..self.rows)
    }

    /// Create and populate the table; returns its id.
    pub fn setup<E: Engine>(&self, engine: &E) -> Result<TableId> {
        let buckets = (self.rows as usize).max(16);
        let table = engine.create_table(TableSpec::keyed_u64("homogeneous", buckets))?;
        // Populate in chunks through ordinary transactions if the engine has
        // no bulk path; both our engines expose populate via their own type,
        // so the generic path loads through transactions in batches.
        let mut loaded = 0u64;
        while loaded < self.rows {
            let chunk_end = (loaded + 10_000).min(self.rows);
            let mut txn = engine.begin(IsolationLevel::ReadCommitted);
            for key in loaded..chunk_end {
                txn.insert(table, rowbuf::keyed_row(key, ROW_FILLER, 1))?;
            }
            txn.commit()?;
            loaded = chunk_end;
        }
        Ok(table)
    }

    /// Execute one transaction: `R` uniform point reads and `W` uniform
    /// read-modify-write updates.
    pub fn run_one<E: Engine>(&self, engine: &E, table: TableId, rng: &mut StdRng) -> TxnOutcome {
        self.run_one_with(engine, table, rng, self.reads, self.writes, self.isolation)
    }

    /// Execute one transaction with explicit read/write counts and isolation
    /// (used by the heterogeneous mixes to piggyback on the same table).
    pub fn run_one_with<E: Engine>(
        &self,
        engine: &E,
        table: TableId,
        rng: &mut StdRng,
        reads: usize,
        writes: usize,
        isolation: IsolationLevel,
    ) -> TxnOutcome {
        let kind = if writes == 0 {
            TxnKind::ReadOnly
        } else {
            TxnKind::Update
        };
        let mut txn = engine.begin_hinted(writes == 0, &[table], isolation);
        let mut done_reads = 0u64;
        let mut done_writes = 0u64;

        let outcome: Result<()> = (|| {
            for _ in 0..reads {
                let key = self.draw_key(rng);
                // Visitor read: the payload is inspected in place, nothing is
                // materialized (the hot path the paper keeps allocation-free).
                if txn.read_with(table, IndexId(0), key, &mut |row| {
                    std::hint::black_box(rowbuf::fill_of(row));
                })? {
                    done_reads += 1;
                }
            }
            for _ in 0..writes {
                let key = self.draw_key(rng);
                let fill = rng.gen::<u8>();
                if txn.update(
                    table,
                    IndexId(0),
                    key,
                    rowbuf::keyed_row(key, ROW_FILLER, fill),
                )? {
                    done_writes += 1;
                }
            }
            Ok(())
        })();

        match outcome {
            Ok(()) => match txn.commit() {
                Ok(_) => TxnOutcome::committed(kind, done_reads, done_writes),
                Err(_) => TxnOutcome::aborted(kind, done_reads, done_writes),
            },
            Err(_) => {
                txn.abort();
                TxnOutcome::aborted(kind, done_reads, done_writes)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_for;
    use mmdb_core::{MvConfig, MvEngine};
    use mmdb_onev::{SvConfig, SvEngine};
    use rand::SeedableRng;
    use std::time::Duration;

    #[test]
    fn setup_populates_requested_rows() {
        let workload = Homogeneous {
            rows: 500,
            ..Default::default()
        };
        let engine = MvEngine::optimistic(MvConfig::default());
        let table = workload.setup(&engine).unwrap();
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        assert!(txn.read(table, IndexId(0), 0).unwrap().is_some());
        assert!(txn.read(table, IndexId(0), 499).unwrap().is_some());
        assert!(txn.read(table, IndexId(0), 500).unwrap().is_none());
        txn.commit().unwrap();
    }

    #[test]
    fn run_one_reports_operation_counts() {
        let workload = Homogeneous {
            rows: 200,
            reads: 5,
            writes: 2,
            ..Default::default()
        };
        let engine = MvEngine::optimistic(MvConfig::default());
        let table = workload.setup(&engine).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let outcome = workload.run_one(&engine, table, &mut rng);
        assert!(outcome.committed);
        assert_eq!(outcome.reads, 5);
        assert_eq!(outcome.writes, 2);
        assert_eq!(outcome.kind, TxnKind::Update);
    }

    #[test]
    fn read_only_variant_is_classified_read_only() {
        let workload = Homogeneous {
            rows: 100,
            ..Default::default()
        };
        let engine = MvEngine::optimistic(MvConfig::default());
        let table = workload.setup(&engine).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = workload.run_one_with(
            &engine,
            table,
            &mut rng,
            10,
            0,
            IsolationLevel::ReadCommitted,
        );
        assert_eq!(outcome.kind, TxnKind::ReadOnly);
        assert_eq!(outcome.writes, 0);
    }

    #[test]
    fn works_against_all_three_engines() {
        let workload = Homogeneous {
            rows: 300,
            reads: 4,
            writes: 1,
            ..Default::default()
        };

        let mv_o = MvEngine::optimistic(MvConfig::default());
        let t = workload.setup(&mv_o).unwrap();
        let r = run_for(&mv_o, 2, Duration::from_millis(100), |e, rng, _| {
            workload.run_one(e, t, rng)
        });
        assert!(r.committed > 0);

        let mv_l = MvEngine::pessimistic(MvConfig::default());
        let t = workload.setup(&mv_l).unwrap();
        let r = run_for(&mv_l, 2, Duration::from_millis(100), |e, rng, _| {
            workload.run_one(e, t, rng)
        });
        assert!(r.committed > 0);

        let sv = SvEngine::new(SvConfig::default());
        let t = workload.setup(&sv).unwrap();
        let r = run_for(&sv, 2, Duration::from_millis(100), |e, rng, _| {
            workload.run_one(e, t, rng)
        });
        assert!(r.committed > 0);
    }
}

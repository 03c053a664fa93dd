//! The four benchmark workloads, each a thin adapter over a `mmdb-workload`
//! generator: set-up, one transaction attempt, and the correctness oracles.
//!
//! Why each exists (the README repeats this with the metric interactions):
//!
//! * `tatp` — 80 % single-row reads over a table far larger than the client
//!   count, ~0 aborts: the read path does nearly all the work.
//! * `smallbank-durable` — write-heavy short transactions with the redo log,
//!   group commit and the background checkpointer switched on: version
//!   allocation, log append and checkpoints dominate.
//! * `tpcc-hot` — both clients collide on one warehouse row and two district
//!   counters: conflicts, aborts, dependencies and range scans do the work.
//! * `longread` — a long snapshot reader beside a short updater: the same
//!   read layer under version churn it cannot reclaim.

use rand::rngs::StdRng;
use rand::Rng;

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::error::{MmdbError, Result};
use mmdb_common::hash::hash_bytes;
use mmdb_common::ids::{IndexId, TableId};
use mmdb_common::isolation::IsolationLevel;
use mmdb_common::row::TableSpec;
use mmdb_workload::driver::TxnKind;
use mmdb_workload::smallbank::{self, SbTxnKind};
use mmdb_workload::tatp::layout as tatp_layout;
use mmdb_workload::tpcc_lite::{self, TpccDetail, TpccKind};
use mmdb_workload::{
    LongReaderMix, SmallBank, SmallBankTables, Tatp, TatpTables, TpccLite, TpccTables,
};

/// Closed-loop client threads. mmdb is an embedded library whose callers
/// wait for `commit()` to return, so each client issues its next transaction
/// only after the previous one finished; two clients = the cores of the box
/// the baselines were recorded on.
pub const CLIENTS: usize = 2;

/// Which workload to run. The names are fixed: later issues cite them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadKind {
    Tatp,
    SmallBankDurable,
    TpccHot,
    LongRead,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Tatp,
        WorkloadKind::SmallBankDurable,
        WorkloadKind::TpccHot,
        WorkloadKind::LongRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Tatp => "tatp",
            WorkloadKind::SmallBankDurable => "smallbank-durable",
            WorkloadKind::TpccHot => "tpcc-hot",
            WorkloadKind::LongRead => "longread",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Transaction types, in the order `Attempt::ty` indexes them.
    pub fn type_names(self) -> &'static [&'static str] {
        match self {
            WorkloadKind::Tatp => &[
                "get_subscriber_data",
                "get_new_destination",
                "get_access_data",
                "update_subscriber_data",
                "update_location",
                "insert_call_forwarding",
                "delete_call_forwarding",
            ],
            WorkloadKind::SmallBankDurable => &[
                "balance",
                "deposit_checking",
                "transact_saving",
                "amalgamate",
                "write_check",
                "send_payment",
            ],
            WorkloadKind::TpccHot => &["new_order", "payment", "order_status"],
            WorkloadKind::LongRead => &["long_read", "update"],
        }
    }

    /// Whether transaction type `ty` only reads.
    pub fn read_only(self, ty: usize) -> bool {
        match self {
            WorkloadKind::Tatp => ty < 3,
            WorkloadKind::SmallBankDurable => ty == 0,
            WorkloadKind::TpccHot => ty == 2,
            WorkloadKind::LongRead => ty == 0,
        }
    }

    /// Whether type `ty` counts toward the headline p50/p99. On `longread`
    /// they are the update client's: a 20 000-row reader is a different
    /// population, reported through `rows_per_s` instead.
    pub fn in_headline_latency(self, ty: usize) -> bool {
        !(self == WorkloadKind::LongRead && ty == 0)
    }

    /// Whether the end-to-end runs of this workload use the durable
    /// deployment configuration (checkpoint store + group-commit log).
    pub fn durable(self) -> bool {
        self == WorkloadKind::SmallBankDurable
    }
}

/// How one transaction attempt ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Committed,
    /// Aborted by concurrency control; the client moves on to its next draw.
    Aborted,
    /// An oracle was violated or the engine returned a non-abort error.
    Failed(String),
}

/// One transaction attempt, as the client loop tallies it.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    pub ty: usize,
    pub outcome: Outcome,
    pub reads: u64,
    pub writes: u64,
    /// Lookups of a row that is never deleted which found no visible
    /// version, in a transaction that still committed. Only TATP can report
    /// these: its transactions treat "not found" as a result, and at Read
    /// Committed the engines do miss live rows under real parallelism
    /// (ROADMAP, open bug P0). Counted and reported as
    /// `workload.missed_live_rows_per_mtxn`, not as a failed operation, so
    /// that the defect is measured without failing every TATP run until it
    /// is fixed. Everywhere else a missed row is a failure.
    pub missed: u64,
}

fn aborted_or_failed(ty: usize, err: MmdbError) -> Attempt {
    // A duplicate key is TATP's insert racing another insert of the same
    // forwarding window at Read Committed: an abort, not a fault.
    let outcome = if err.is_retryable() || matches!(err, MmdbError::DuplicateKey { .. }) {
        Outcome::Aborted
    } else {
        Outcome::Failed(format!("engine error {err:?}"))
    };
    Attempt {
        ty,
        outcome,
        reads: 0,
        writes: 0,
        missed: 0,
    }
}

fn committed(ty: usize, reads: u64, writes: u64, violation: Option<&str>) -> Attempt {
    Attempt {
        ty,
        outcome: match violation {
            None => Outcome::Committed,
            Some(what) => Outcome::Failed(what.to_string()),
        },
        reads,
        writes,
        missed: 0,
    }
}

/// A workload whose tables exist (and, after [`Populated::setup`], hold the
/// initial rows) on some engine.
#[derive(Debug, Clone)]
pub enum Populated {
    Tatp {
        gen: Tatp,
        tables: TatpTables,
    },
    SmallBank {
        gen: SmallBank,
        tables: SmallBankTables,
    },
    Tpcc {
        gen: TpccLite,
        tables: TpccTables,
    },
    LongRead {
        gen: LongReaderMix,
        table: TableId,
    },
}

/// The table the per-layer read fixtures probe: the one the workload's
/// point reads mostly hit.
#[derive(Debug, Clone, Copy)]
pub struct MainTable {
    pub table: TableId,
    pub rows: u64,
    pub row_len: usize,
}

impl Populated {
    /// Create the workload's tables (same ids on every engine) without rows:
    /// what a recovery loads into. `quick` shrinks every table to about
    /// 10 000 rows.
    pub fn create_tables<E: Engine>(kind: WorkloadKind, quick: bool, engine: &E) -> Result<Self> {
        Self::build(kind, quick, engine, false)
    }

    /// Create and populate the workload's tables through the generator's own
    /// `setup` (ordinary transactions, so a durable engine logs them).
    pub fn setup<E: Engine>(kind: WorkloadKind, quick: bool, engine: &E) -> Result<Self> {
        Self::build(kind, quick, engine, true)
    }

    fn build<E: Engine>(
        kind: WorkloadKind,
        quick: bool,
        engine: &E,
        populate: bool,
    ) -> Result<Self> {
        Ok(match kind {
            WorkloadKind::Tatp => {
                let gen = Tatp::new(if quick { 10_000 } else { 100_000 });
                let tables = if populate {
                    gen.setup(engine)?
                } else {
                    gen.create_tables(engine)?
                };
                Populated::Tatp { gen, tables }
            }
            WorkloadKind::SmallBankDurable => {
                let gen = SmallBank::new(if quick { 10_000 } else { 100_000 });
                let tables = if populate {
                    gen.setup(engine)?
                } else {
                    gen.create_tables(engine)?
                };
                Populated::SmallBank { gen, tables }
            }
            WorkloadKind::TpccHot => {
                let gen = TpccLite {
                    warehouses: 1,
                    districts_per_wh: 2,
                    customers_per_district: if quick { 1_000 } else { 3_000 },
                    initial_orders: 3,
                    isolation: IsolationLevel::SnapshotIsolation,
                };
                let tables = if populate {
                    gen.setup(engine)?
                } else {
                    gen.create_tables(engine)?
                };
                Populated::Tpcc { gen, tables }
            }
            WorkloadKind::LongRead => {
                let gen = LongReaderMix::new(
                    if quick { 10_000 } else { 200_000 },
                    1,
                    IsolationLevel::SnapshotIsolation,
                );
                let table = if populate {
                    gen.base.setup(engine)?
                } else {
                    // `Homogeneous::setup` creates and fills in one call;
                    // this is the table spec it uses.
                    engine.create_table(TableSpec::keyed_u64(
                        "homogeneous",
                        (gen.base.rows as usize).max(16),
                    ))?
                };
                Populated::LongRead { gen, table }
            }
        })
    }

    pub fn kind(&self) -> WorkloadKind {
        match self {
            Populated::Tatp { .. } => WorkloadKind::Tatp,
            Populated::SmallBank { .. } => WorkloadKind::SmallBankDurable,
            Populated::Tpcc { .. } => WorkloadKind::TpccHot,
            Populated::LongRead { .. } => WorkloadKind::LongRead,
        }
    }

    /// Run one transaction attempt for client `worker`. `ledger` accumulates
    /// what the end-of-run oracle needs from committed transactions
    /// (SmallBank: signed change of total holdings; TPC-C-lite: new-orders).
    pub fn run_one<E: Engine>(
        &self,
        engine: &E,
        rng: &mut StdRng,
        worker: usize,
        ledger: &mut i64,
    ) -> Attempt {
        match self {
            Populated::Tatp { gen, tables } => {
                // The standard mix (35/10/35/2/14/2/2), diced here rather
                // than through `Tatp::run_one` so the types are separable.
                let dice = rng.gen_range(0..100u32);
                let (ty, result) = match dice {
                    0..=34 => (0, gen.get_subscriber_data(engine, *tables, rng)),
                    35..=44 => (1, gen.get_new_destination(engine, *tables, rng)),
                    45..=79 => (2, gen.get_access_data(engine, *tables, rng)),
                    80..=81 => (3, gen.update_subscriber_data(engine, *tables, rng)),
                    82..=95 => (4, gen.update_location(engine, *tables, rng)),
                    96..=97 => (5, gen.insert_call_forwarding(engine, *tables, rng)),
                    _ => (6, gen.delete_call_forwarding(engine, *tables, rng)),
                };
                match result {
                    Ok((reads, writes)) => Attempt {
                        // Subscribers are never deleted: GET_SUBSCRIBER_DATA
                        // reading none, or UPDATE_LOCATION updating none, saw
                        // no visible version of a live row.
                        missed: u64::from((ty == 0 && reads == 0) || (ty == 4 && writes == 0)),
                        ..committed(ty, reads, writes, None)
                    },
                    Err(e) => aborted_or_failed(ty, e),
                }
            }
            Populated::SmallBank { gen, tables } => {
                let params = gen.draw(rng);
                let ty = match params.kind {
                    SbTxnKind::Balance => 0,
                    SbTxnKind::DepositChecking => 1,
                    SbTxnKind::TransactSaving => 2,
                    SbTxnKind::Amalgamate => 3,
                    SbTxnKind::WriteCheck => 4,
                    SbTxnKind::SendPayment => 5,
                };
                match gen.exec(engine, *tables, &params) {
                    Ok(exec) => {
                        *ledger += exec.delta;
                        committed(ty, exec.reads, exec.writes.len() as u64, None)
                    }
                    Err(e) => aborted_or_failed(ty, e),
                }
            }
            Populated::Tpcc { gen, tables } => {
                let params = gen.draw(rng);
                let ty = match params.kind {
                    TpccKind::NewOrder => 0,
                    TpccKind::Payment => 1,
                    TpccKind::OrderStatus => 2,
                };
                match gen.exec(engine, *tables, &params) {
                    Ok(exec) => {
                        let violation = match exec.detail {
                            TpccDetail::NewOrder { .. } => {
                                *ledger += 1;
                                None
                            }
                            TpccDetail::OrderStatus {
                                lines_consistent: false,
                                ..
                            } => Some("order_status: o_ol_cnt differs from the lines found"),
                            _ => None,
                        };
                        committed(ty, exec.reads, exec.writes, violation)
                    }
                    Err(e) => aborted_or_failed(ty, e),
                }
            }
            Populated::LongRead { gen, table } => {
                let out = gen.run_one(engine, *table, rng, worker);
                let ty = usize::from(out.kind != TxnKind::LongRead);
                if !out.committed {
                    return Attempt {
                        ty,
                        outcome: Outcome::Aborted,
                        reads: out.reads,
                        writes: out.writes,
                        missed: 0,
                    };
                }
                // Rows are only ever updated, so every probe must hit.
                let violation = if ty == 0 && out.reads != gen.reads_per_long_txn {
                    Some("long reader missed a live row")
                } else if ty == 1
                    && (out.reads != gen.base.reads as u64 || out.writes != gen.base.writes as u64)
                {
                    Some("update transaction missed a live row")
                } else {
                    None
                };
                committed(ty, out.reads, out.writes, violation)
            }
        }
    }

    /// End-of-run oracle: what the tables must hold given the summed
    /// `ledger` of every client since population. Returns the violations.
    pub fn check<E: Engine>(&self, engine: &E, ledger: i64) -> Vec<String> {
        match self.check_inner(engine, ledger) {
            Ok(violations) => violations,
            Err(e) => vec![format!("oracle could not read the tables: {e:?}")],
        }
    }

    fn check_inner<E: Engine>(&self, engine: &E, ledger: i64) -> Result<Vec<String>> {
        let mut bad = Vec::new();
        match self {
            Populated::Tatp { gen, tables } => {
                // Every subscriber is reachable through both indexes and
                // both find the same row.
                let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
                let mut missing = 0u64;
                for s_id in 1..=gen.subscribers {
                    let by_pk = txn.read(tables.subscriber, IndexId(0), s_id)?;
                    let by_nbr = match &by_pk {
                        Some(row) => {
                            let nbr = &row[tatp_layout::SUB_NBR_OFFSET
                                ..tatp_layout::SUB_NBR_OFFSET + tatp_layout::SUB_NBR_LEN];
                            txn.read(tables.subscriber, IndexId(1), hash_bytes(nbr))?
                        }
                        None => None,
                    };
                    if by_pk.is_none() || by_pk != by_nbr {
                        missing += 1;
                    }
                }
                txn.commit()?;
                if missing > 0 {
                    bad.push(format!(
                        "{missing} of {} subscribers missing or different between the s_id and sub_nbr indexes",
                        gen.subscribers
                    ));
                }
            }
            Populated::SmallBank { gen, tables } => {
                let total = smallbank::total_balance(engine, *tables, gen.accounts)?;
                let expected = gen.initial_total() + ledger;
                if total != expected {
                    bad.push(format!(
                        "bank holds {total}, expected initial {} + committed deltas {ledger} = {expected}",
                        gen.initial_total()
                    ));
                }
            }
            Populated::Tpcc { gen, tables } => {
                let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
                let mut allocated = 0i64;
                for dk in gen.district_pks() {
                    match txn.read(tables.district, IndexId(0), dk)? {
                        Some(row) => {
                            allocated +=
                                tpcc_lite::next_o_id_of(&row) as i64 - gen.initial_orders as i64
                        }
                        None => bad.push(format!("district {dk} has no visible row")),
                    }
                }
                txn.commit()?;
                if allocated != ledger {
                    bad.push(format!(
                        "district counters advanced by {allocated}, committed new-orders {ledger}"
                    ));
                }
            }
            Populated::LongRead { gen, table } => {
                let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
                let mut live = 0u64;
                for key in 0..gen.base.rows {
                    if txn.read_with(*table, IndexId(0), key, &mut |_| {})? {
                        live += 1;
                    }
                }
                txn.commit()?;
                if live != gen.base.rows {
                    bad.push(format!("{live} live rows, expected {}", gen.base.rows));
                }
            }
        }
        Ok(bad)
    }

    /// The tables whose key set never changes after population, with their
    /// keys in a fixed order. (All of SmallBank; elsewhere the tables no
    /// transaction inserts into or deletes from.)
    fn fixed_keys(&self) -> Vec<(TableId, Vec<u64>)> {
        match self {
            Populated::Tatp { gen, tables } => {
                vec![(tables.subscriber, (1..=gen.subscribers).collect())]
            }
            Populated::SmallBank { gen, tables } => vec![
                (tables.checking, (0..gen.accounts).collect()),
                (tables.savings, (0..gen.accounts).collect()),
            ],
            Populated::Tpcc { gen, tables } => {
                let districts = gen.district_pks();
                let customers = districts
                    .iter()
                    .flat_map(|&dk| {
                        (0..gen.customers_per_district).map(move |c| tpcc_lite::c_pk(dk, c))
                    })
                    .collect();
                vec![
                    (tables.warehouse, (0..gen.warehouses).collect()),
                    (tables.district, districts),
                    (tables.customer, customers),
                ]
            }
            Populated::LongRead { gen, table } => vec![(*table, (0..gen.base.rows).collect())],
        }
    }

    /// The fixed-population tables and their row counts.
    pub fn fixed_tables(&self) -> Vec<(TableId, u64)> {
        self.fixed_keys()
            .into_iter()
            .map(|(table, keys)| (table, keys.len() as u64))
            .collect()
    }

    /// Every row of the fixed-population tables, in key order: what a
    /// recovered engine must reproduce row for row.
    pub fn snapshot_rows<E: Engine>(&self, engine: &E) -> Result<Vec<Vec<u8>>> {
        let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
        let mut rows = Vec::new();
        for (table, keys) in self.fixed_keys() {
            for key in keys {
                let mut copy = Vec::new();
                txn.read_with(table, IndexId(0), key, &mut |row| {
                    copy.extend_from_slice(row)
                })?;
                rows.push(copy);
            }
        }
        txn.commit()?;
        Ok(rows)
    }

    /// The table the read-path fixtures probe.
    pub fn main_table(&self) -> MainTable {
        match self {
            Populated::Tatp { gen, tables } => MainTable {
                table: tables.subscriber,
                rows: gen.subscribers,
                row_len: tatp_layout::SUBSCRIBER_LEN,
            },
            Populated::SmallBank { gen, tables } => MainTable {
                table: tables.checking,
                rows: gen.accounts,
                row_len: smallbank::layout::ACCOUNT_LEN,
            },
            Populated::Tpcc { gen, tables } => MainTable {
                table: tables.customer,
                rows: gen.districts_per_wh * gen.customers_per_district,
                row_len: tpcc_lite::layout::CUSTOMER_LEN,
            },
            Populated::LongRead { gen, table } => MainTable {
                table: *table,
                rows: gen.base.rows,
                row_len: 8 + mmdb_workload::homogeneous::ROW_FILLER,
            },
        }
    }

    /// Primary key of the `i`-th row (`i < rows`) of [`Populated::main_table`].
    pub fn main_key(&self, i: u64) -> u64 {
        match self {
            Populated::Tatp { .. } => i + 1,
            Populated::SmallBank { .. } | Populated::LongRead { .. } => i,
            Populated::Tpcc { gen, .. } => tpcc_lite::c_pk(
                tpcc_lite::d_pk(0, i / gen.customers_per_district),
                i % gen.customers_per_district,
            ),
        }
    }

    /// Every table id of the workload (the declared footprint of a
    /// transaction that may touch anything).
    pub fn table_ids(&self) -> Vec<TableId> {
        match self {
            Populated::Tatp { tables, .. } => vec![
                tables.subscriber,
                tables.access_info,
                tables.special_facility,
                tables.call_forwarding,
            ],
            Populated::SmallBank { tables, .. } => vec![tables.checking, tables.savings],
            Populated::Tpcc { tables, .. } => vec![
                tables.warehouse,
                tables.district,
                tables.customer,
                tables.order,
                tables.order_line,
            ],
            Populated::LongRead { table, .. } => vec![*table],
        }
    }

    /// Draw the parameters of one transaction without running it (what
    /// `workload.draw_ns` times): the generator's own `draw` where it has
    /// one, else the same random calls its transactions make.
    pub fn draw(&self, rng: &mut StdRng) -> u64 {
        match self {
            Populated::Tatp { gen, .. } => {
                rng.gen_range(0..100u32) as u64 + gen.random_s_id(rng) + rng.gen_range(1..=4u64)
            }
            Populated::SmallBank { gen, .. } => gen.draw(rng).a,
            Populated::Tpcc { gen, .. } => gen.draw(rng).c,
            Populated::LongRead { gen, .. } => {
                let n = gen.base.reads + gen.base.writes;
                (0..n).map(|_| rng.gen_range(0..gen.base.rows)).sum()
            }
        }
    }
}

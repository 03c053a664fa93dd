//! A TPC-C-lite subset: new-order / payment / order-status over
//! warehouse, district, customer, order and order-line tables.
//!
//! This is not full TPC-C — no stock or item tables, no delivery — but it
//! keeps the properties that matter to a concurrency-control study:
//! multi-row read-modify-write transactions, an append-only order stream per
//! district allocated through a contended counter, and **range reads**:
//! order-status walks a district's most recent orders through an *ordered*
//! secondary index with [`EngineTxn::scan_range`], which only engines with
//! ordered-index support can serve (and which serializable engines must
//! phantom-protect).
//!
//! Layout decisions that make the invariants checkable:
//!
//! * The district row holds **only** the order counter (`next_o_id`). Only
//!   new-order writes it, so two concurrent allocations of the same `o_id`
//!   collide either on the row (write-write conflict) or on the order
//!   table's unique primary key (duplicate insert → abort). District-counter
//!   monotonicity — `next_o_id - initial == committed new-orders`, with a
//!   dense order stream — therefore holds at *every* isolation level.
//! * Payment's year-to-date totals live on the warehouse and customer rows.
//!   Those are read-modify-writes of shared rows, so *YTD conservation*
//!   (`Σ committed payment amounts == Σ warehouse YTD == Σ customer YTD`) is
//!   exact only at levels that prevent lost updates (repeatable read and up;
//!   see `tests/support/invariants.rs`).
//! * An order and its order-lines are inserted in one transaction, so
//!   `o_ol_cnt == lines found by scan_range` for every visible order, at
//!   every isolation level.

use rand::rngs::StdRng;
use rand::Rng;

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::error::{MmdbError, Result};
use mmdb_common::ids::{IndexId, TableId, Timestamp};
use mmdb_common::isolation::IsolationLevel;
use mmdb_common::row::{IndexSpec, Row, TableSpec};

use crate::driver::{TxnKind, TxnOutcome};

/// A point read of a row that setup created and nothing ever deletes came up
/// empty. That is an engine bug (ROADMAP "Open bugs", P0), reported as an
/// error — not a panic — so a harness can name it on its `MMDB-REPRO:` line.
const NO_WAREHOUSE: MmdbError = MmdbError::Internal("tpcc-lite: live warehouse row not found");
const NO_DISTRICT: MmdbError = MmdbError::Internal("tpcc-lite: live district row not found");
const NO_CUSTOMER: MmdbError = MmdbError::Internal("tpcc-lite: live customer row not found");

/// Fixed binary layouts of the five tables.
pub mod layout {
    /// WAREHOUSE row: `w_id (8) | w_ytd i64 LE (8)`.
    pub const WAREHOUSE_LEN: usize = 16;
    /// Offset of `w_ytd`.
    pub const W_YTD_OFFSET: usize = 8;

    /// DISTRICT row: `d_pk (8) | d_next_o_id u64 LE (8)`.
    pub const DISTRICT_LEN: usize = 16;
    /// Offset of `d_next_o_id`.
    pub const D_NEXT_O_ID_OFFSET: usize = 8;

    /// CUSTOMER row: `c_pk (8) | c_balance i64 (8) | c_ytd_payment i64 (8) |
    /// c_payment_cnt u64 (8)`.
    pub const CUSTOMER_LEN: usize = 32;
    /// Offset of `c_balance`.
    pub const C_BALANCE_OFFSET: usize = 8;
    /// Offset of `c_ytd_payment`.
    pub const C_YTD_OFFSET: usize = 16;
    /// Offset of `c_payment_cnt`.
    pub const C_CNT_OFFSET: usize = 24;

    /// ORDER row: `o_pk (8) | d_pk (8) | c_pk (8) | o_ol_cnt u64 (8)`.
    pub const ORDER_LEN: usize = 32;
    /// Offset of the owning district's primary key.
    pub const O_DISTRICT_OFFSET: usize = 8;
    /// Offset of `o_ol_cnt`.
    pub const O_OL_CNT_OFFSET: usize = 24;

    /// ORDER_LINE row: `ol_pk (8) | o_pk (8) | ol_amount i64 (8)`.
    pub const ORDER_LINE_LEN: usize = 24;
    /// Offset of the owning order's primary key.
    pub const OL_ORDER_OFFSET: usize = 8;
    /// Offset of `ol_amount`.
    pub const OL_AMOUNT_OFFSET: usize = 16;
}

/// Districts occupy `w_id * D_SPAN + d`; at most `D_SPAN` districts per
/// warehouse.
pub const D_SPAN: u64 = 1 << 8;
/// Customers occupy `d_pk * C_SPAN + c`; at most `C_SPAN` per district.
pub const C_SPAN: u64 = 1 << 16;
/// Orders occupy `d_pk * O_SPAN + o_id`: one dense, monotone id space per
/// district, which is what makes the ordered-index range scan of "the last K
/// orders" a contiguous key interval.
pub const O_SPAN: u64 = 1 << 32;
/// Order lines occupy `o_pk * MAX_OL + line`; at most `MAX_OL` lines per
/// order.
pub const MAX_OL: u64 = 8;

/// District primary key.
pub fn d_pk(w: u64, d: u64) -> u64 {
    w * D_SPAN + d
}

/// Customer primary key.
pub fn c_pk(d_pk: u64, c: u64) -> u64 {
    d_pk * C_SPAN + c
}

/// Order primary key — also the ordered-index key, so a district's orders
/// sort by `o_id`.
pub fn o_pk(d_pk: u64, o_id: u64) -> u64 {
    d_pk * O_SPAN + o_id
}

/// Order-line primary key — also ordered, so an order's lines are the
/// contiguous interval `[o_pk * MAX_OL, o_pk * MAX_OL + MAX_OL - 1]`.
pub fn ol_pk(o_pk: u64, line: u64) -> u64 {
    o_pk * MAX_OL + line
}

/// Build a WAREHOUSE row.
pub fn warehouse_row(w: u64, ytd: i64) -> Row {
    let mut v = vec![0u8; layout::WAREHOUSE_LEN];
    v[0..8].copy_from_slice(&w.to_le_bytes());
    v[layout::W_YTD_OFFSET..].copy_from_slice(&ytd.to_le_bytes());
    Row::from(v)
}

/// Build a DISTRICT row.
pub fn district_row(d_pk: u64, next_o_id: u64) -> Row {
    let mut v = vec![0u8; layout::DISTRICT_LEN];
    v[0..8].copy_from_slice(&d_pk.to_le_bytes());
    v[layout::D_NEXT_O_ID_OFFSET..].copy_from_slice(&next_o_id.to_le_bytes());
    Row::from(v)
}

/// Build a CUSTOMER row.
pub fn customer_row(c_pk: u64, balance: i64, ytd_payment: i64, payment_cnt: u64) -> Row {
    let mut v = vec![0u8; layout::CUSTOMER_LEN];
    v[0..8].copy_from_slice(&c_pk.to_le_bytes());
    v[layout::C_BALANCE_OFFSET..layout::C_BALANCE_OFFSET + 8]
        .copy_from_slice(&balance.to_le_bytes());
    v[layout::C_YTD_OFFSET..layout::C_YTD_OFFSET + 8].copy_from_slice(&ytd_payment.to_le_bytes());
    v[layout::C_CNT_OFFSET..].copy_from_slice(&payment_cnt.to_le_bytes());
    Row::from(v)
}

/// Build an ORDER row.
pub fn order_row(o_pk: u64, d_pk: u64, c_pk: u64, ol_cnt: u64) -> Row {
    let mut v = vec![0u8; layout::ORDER_LEN];
    v[0..8].copy_from_slice(&o_pk.to_le_bytes());
    v[layout::O_DISTRICT_OFFSET..layout::O_DISTRICT_OFFSET + 8]
        .copy_from_slice(&d_pk.to_le_bytes());
    v[16..24].copy_from_slice(&c_pk.to_le_bytes());
    v[layout::O_OL_CNT_OFFSET..].copy_from_slice(&ol_cnt.to_le_bytes());
    Row::from(v)
}

/// Build an ORDER_LINE row.
pub fn order_line_row(ol_pk: u64, o_pk: u64, amount: i64) -> Row {
    let mut v = vec![0u8; layout::ORDER_LINE_LEN];
    v[0..8].copy_from_slice(&ol_pk.to_le_bytes());
    v[layout::OL_ORDER_OFFSET..layout::OL_ORDER_OFFSET + 8].copy_from_slice(&o_pk.to_le_bytes());
    v[layout::OL_AMOUNT_OFFSET..].copy_from_slice(&amount.to_le_bytes());
    Row::from(v)
}

fn u64_at(row: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(row[offset..offset + 8].try_into().expect("field in bounds"))
}

fn i64_at(row: &[u8], offset: usize) -> i64 {
    i64::from_le_bytes(row[offset..offset + 8].try_into().expect("field in bounds"))
}

/// Decode `w_ytd`.
pub fn warehouse_ytd_of(row: &[u8]) -> i64 {
    i64_at(row, layout::W_YTD_OFFSET)
}

/// Decode `d_next_o_id`.
pub fn next_o_id_of(row: &[u8]) -> u64 {
    u64_at(row, layout::D_NEXT_O_ID_OFFSET)
}

/// Decode `c_balance`.
pub fn customer_balance_of(row: &[u8]) -> i64 {
    i64_at(row, layout::C_BALANCE_OFFSET)
}

/// Decode `c_ytd_payment`.
pub fn customer_ytd_of(row: &[u8]) -> i64 {
    i64_at(row, layout::C_YTD_OFFSET)
}

/// Decode `c_payment_cnt`.
pub fn customer_cnt_of(row: &[u8]) -> u64 {
    u64_at(row, layout::C_CNT_OFFSET)
}

/// Decode `o_ol_cnt`.
pub fn order_ol_cnt_of(row: &[u8]) -> u64 {
    u64_at(row, layout::O_OL_CNT_OFFSET)
}

/// Decode an order row's primary key.
pub fn order_pk_of(row: &[u8]) -> u64 {
    u64_at(row, 0)
}

/// Decode `ol_amount`.
pub fn ol_amount_of(row: &[u8]) -> i64 {
    i64_at(row, layout::OL_AMOUNT_OFFSET)
}

/// Table handles of a populated TPC-C-lite database.
#[derive(Debug, Clone, Copy)]
pub struct TpccTables {
    /// WAREHOUSE table.
    pub warehouse: TableId,
    /// DISTRICT table (order counters).
    pub district: TableId,
    /// CUSTOMER table.
    pub customer: TableId,
    /// ORDER table; `IndexId(1)` is the ordered index over `o_pk`.
    pub order: TableId,
    /// ORDER_LINE table; `IndexId(1)` is the ordered index over `ol_pk`.
    pub order_line: TableId,
}

/// The three TPC-C-lite transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpccKind {
    /// Allocate an order id from the district counter and insert an order
    /// plus its lines.
    NewOrder,
    /// Pay against a customer: warehouse + customer year-to-date RMW.
    Payment,
    /// Read-only: range-scan a district's most recent orders and their lines.
    OrderStatus,
}

/// Pre-drawn parameters of one TPC-C-lite transaction (all randomness is
/// consumed before execution, so seeded sequences replay identically across
/// engines).
#[derive(Debug, Clone, Copy)]
pub struct TpccParams {
    /// Which transaction to run.
    pub kind: TpccKind,
    /// Warehouse id.
    pub w: u64,
    /// District number within the warehouse.
    pub d: u64,
    /// Customer number within the district.
    pub c: u64,
    /// Payment amount in cents.
    pub amount: i64,
    /// New-order line count, `1..=5`.
    pub ol_cnt: u64,
    /// New-order per-line amounts (first `ol_cnt` entries are used).
    pub ol_amounts: [i64; 5],
}

/// Per-kind details of a committed transaction, enough for an invariant
/// oracle to accumulate expected counters and totals.
#[derive(Debug, Clone, Copy)]
pub enum TpccDetail {
    /// A committed new-order.
    NewOrder {
        /// The district primary key the order was allocated in.
        district: u64,
        /// The order id it received.
        o_id: u64,
        /// Number of order lines inserted.
        ol_cnt: u64,
        /// Sum of the line amounts.
        total: i64,
    },
    /// A committed payment.
    Payment {
        /// Warehouse id paid into.
        warehouse: u64,
        /// Customer primary key paid against.
        customer: u64,
        /// Amount paid.
        amount: i64,
    },
    /// A committed order-status query.
    OrderStatus {
        /// Orders the range scan returned.
        orders_seen: u64,
        /// Whether every scanned order's `o_ol_cnt` matched the order lines
        /// found for it (must always be `true`; asserted by the harness).
        lines_consistent: bool,
    },
}

/// What a committed TPC-C-lite transaction did.
#[derive(Debug, Clone, Copy)]
pub struct TpccExec {
    /// Commit timestamp assigned by the engine.
    pub commit_ts: Timestamp,
    /// Row reads performed (point reads + scanned rows).
    pub reads: u64,
    /// Rows written (updates + inserts).
    pub writes: u64,
    /// Per-kind details.
    pub detail: TpccDetail,
}

/// TPC-C-lite workload generator.
#[derive(Debug, Clone)]
pub struct TpccLite {
    /// Number of warehouses.
    pub warehouses: u64,
    /// Districts per warehouse (≤ [`D_SPAN`]).
    pub districts_per_wh: u64,
    /// Customers per district (≤ [`C_SPAN`]).
    pub customers_per_district: u64,
    /// Orders pre-loaded into every district at setup.
    pub initial_orders: u64,
    /// Isolation level all three transactions run at.
    pub isolation: IsolationLevel,
}

impl Default for TpccLite {
    fn default() -> Self {
        TpccLite {
            warehouses: 2,
            districts_per_wh: 4,
            customers_per_district: 64,
            initial_orders: 3,
            isolation: IsolationLevel::SnapshotIsolation,
        }
    }
}

impl TpccLite {
    /// A workload over `warehouses` warehouses with the default shape.
    pub fn new(warehouses: u64) -> TpccLite {
        TpccLite {
            warehouses,
            ..Default::default()
        }
    }

    /// Every district primary key in the database.
    pub fn district_pks(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for w in 0..self.warehouses {
            for d in 0..self.districts_per_wh {
                out.push(d_pk(w, d));
            }
        }
        out
    }

    /// Draw the parameters of one transaction from the mix
    /// (45 % new-order, 43 % payment, 12 % order-status).
    pub fn draw(&self, rng: &mut StdRng) -> TpccParams {
        let dice = rng.gen_range(0..100u32);
        let kind = if dice < 45 {
            TpccKind::NewOrder
        } else if dice < 88 {
            TpccKind::Payment
        } else {
            TpccKind::OrderStatus
        };
        let w = rng.gen_range(0..self.warehouses);
        let d = rng.gen_range(0..self.districts_per_wh);
        let c = rng.gen_range(0..self.customers_per_district);
        let amount = rng.gen_range(1..=5_000i64);
        let ol_cnt = rng.gen_range(1..=5u64);
        let mut ol_amounts = [0i64; 5];
        for slot in &mut ol_amounts {
            *slot = rng.gen_range(1..=100i64);
        }
        TpccParams {
            kind,
            w,
            d,
            c,
            amount,
            ol_cnt,
            ol_amounts,
        }
    }

    // ---- schema & population ----

    /// Create the five tables. The order and order-line tables carry an
    /// ordered secondary index (`IndexId(1)`) serving the range scans.
    pub fn create_tables<E: Engine>(&self, engine: &E) -> Result<TpccTables> {
        let districts = (self.warehouses * self.districts_per_wh) as usize;
        let customers = districts * self.customers_per_district as usize;
        let orders = (districts * 1024).max(customers);
        let warehouse = engine.create_table(TableSpec::keyed_u64(
            "warehouse",
            (self.warehouses as usize).max(16),
        ))?;
        let district = engine.create_table(TableSpec::keyed_u64("district", districts.max(16)))?;
        let customer = engine.create_table(TableSpec::keyed_u64("customer", customers.max(16)))?;
        let order = engine.create_table(
            TableSpec::keyed_u64("order", orders.max(16))
                .with_index(IndexSpec::ordered_u64("o_pk_ordered", 0)),
        )?;
        let order_line = engine.create_table(
            TableSpec::keyed_u64("order_line", (orders * 3).max(16))
                .with_index(IndexSpec::ordered_u64("ol_pk_ordered", 0)),
        )?;
        Ok(TpccTables {
            warehouse,
            district,
            customer,
            order,
            order_line,
        })
    }

    /// Create and populate the database. Returns the table handles.
    pub fn setup<E: Engine>(&self, engine: &E) -> Result<TpccTables> {
        assert!(self.districts_per_wh <= D_SPAN);
        assert!(self.customers_per_district <= C_SPAN);
        let tables = self.create_tables(engine)?;
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        for w in 0..self.warehouses {
            txn.insert(tables.warehouse, warehouse_row(w, 0))?;
        }
        txn.commit()?;
        for w in 0..self.warehouses {
            for d in 0..self.districts_per_wh {
                let dk = d_pk(w, d);
                let mut txn = engine.begin(IsolationLevel::ReadCommitted);
                txn.insert(tables.district, district_row(dk, self.initial_orders))?;
                for c in 0..self.customers_per_district {
                    txn.insert(tables.customer, customer_row(c_pk(dk, c), 1_000, 0, 0))?;
                }
                for o_id in 0..self.initial_orders {
                    let ok = o_pk(dk, o_id);
                    let customer = c_pk(dk, o_id % self.customers_per_district);
                    let ol_cnt = 1 + o_id % 3;
                    txn.insert(tables.order, order_row(ok, dk, customer, ol_cnt))?;
                    for line in 0..ol_cnt {
                        let amount = 10 * (line as i64 + 1);
                        txn.insert(
                            tables.order_line,
                            order_line_row(ol_pk(ok, line), ok, amount),
                        )?;
                    }
                }
                txn.commit()?;
            }
        }
        Ok(tables)
    }

    // ---- the three transactions ----

    /// Execute one transaction of the mix and report it to the benchmark
    /// driver.
    pub fn run_one<E: Engine>(
        &self,
        engine: &E,
        tables: TpccTables,
        rng: &mut StdRng,
    ) -> TxnOutcome {
        let params = self.draw(rng);
        let kind = match params.kind {
            TpccKind::NewOrder => TxnKind::TpccNewOrder,
            TpccKind::Payment => TxnKind::TpccPayment,
            TpccKind::OrderStatus => TxnKind::TpccOrderStatus,
        };
        match self.exec(engine, tables, &params) {
            Ok(exec) => TxnOutcome::committed(kind, exec.reads, exec.writes),
            Err(_) => TxnOutcome::aborted(kind, 0, 0),
        }
    }

    /// Execute one pre-drawn transaction. `Err` means the engine aborted it
    /// — or, as [`MmdbError::Internal`], that a point read missed a live row,
    /// which callers checking correctness must not count as an abort.
    pub fn exec<E: Engine>(
        &self,
        engine: &E,
        tables: TpccTables,
        params: &TpccParams,
    ) -> Result<TpccExec> {
        match params.kind {
            TpccKind::NewOrder => self.new_order(engine, tables, params),
            TpccKind::Payment => self.payment(engine, tables, params),
            TpccKind::OrderStatus => self.order_status(engine, tables, params),
        }
    }

    /// NEW_ORDER: allocate the next order id from the district counter and
    /// insert the order plus `ol_cnt` order lines.
    pub fn new_order<E: Engine>(
        &self,
        engine: &E,
        tables: TpccTables,
        params: &TpccParams,
    ) -> Result<TpccExec> {
        let dk = d_pk(params.w, params.d);
        let ck = c_pk(dk, params.c);
        let mut txn = engine.begin_hinted(
            false,
            &[
                tables.warehouse,
                tables.district,
                tables.customer,
                tables.order,
                tables.order_line,
            ],
            self.isolation,
        );
        let _w = txn
            .read(tables.warehouse, IndexId(0), params.w)?
            .ok_or(NO_WAREHOUSE)?;
        let _c = txn
            .read(tables.customer, IndexId(0), ck)?
            .ok_or(NO_CUSTOMER)?;
        let d_row = txn
            .read(tables.district, IndexId(0), dk)?
            .ok_or(NO_DISTRICT)?;
        let o_id = next_o_id_of(&d_row);
        txn.update(tables.district, IndexId(0), dk, district_row(dk, o_id + 1))?;
        let ok = o_pk(dk, o_id);
        txn.insert(tables.order, order_row(ok, dk, ck, params.ol_cnt))?;
        let mut total = 0i64;
        for line in 0..params.ol_cnt {
            let amount = params.ol_amounts[line as usize];
            total += amount;
            txn.insert(
                tables.order_line,
                order_line_row(ol_pk(ok, line), ok, amount),
            )?;
        }
        let commit_ts = txn.commit()?;
        Ok(TpccExec {
            commit_ts,
            reads: 3,
            writes: 2 + params.ol_cnt,
            detail: TpccDetail::NewOrder {
                district: dk,
                o_id,
                ol_cnt: params.ol_cnt,
                total,
            },
        })
    }

    /// PAYMENT: add `amount` to the warehouse year-to-date and the customer's
    /// payment history, debiting the customer's balance. Reads the district
    /// row for validation but never writes it (the counter stays
    /// single-writer; see the module docs).
    pub fn payment<E: Engine>(
        &self,
        engine: &E,
        tables: TpccTables,
        params: &TpccParams,
    ) -> Result<TpccExec> {
        let dk = d_pk(params.w, params.d);
        let ck = c_pk(dk, params.c);
        let mut txn = engine.begin_hinted(
            false,
            &[tables.warehouse, tables.district, tables.customer],
            self.isolation,
        );
        let w_row = txn
            .read(tables.warehouse, IndexId(0), params.w)?
            .ok_or(NO_WAREHOUSE)?;
        let _d = txn
            .read(tables.district, IndexId(0), dk)?
            .ok_or(NO_DISTRICT)?;
        let c_row = txn
            .read(tables.customer, IndexId(0), ck)?
            .ok_or(NO_CUSTOMER)?;
        let w_ytd = warehouse_ytd_of(&w_row) + params.amount;
        txn.update(
            tables.warehouse,
            IndexId(0),
            params.w,
            warehouse_row(params.w, w_ytd),
        )?;
        let new_customer = customer_row(
            ck,
            customer_balance_of(&c_row) - params.amount,
            customer_ytd_of(&c_row) + params.amount,
            customer_cnt_of(&c_row) + 1,
        );
        txn.update(tables.customer, IndexId(0), ck, new_customer)?;
        let commit_ts = txn.commit()?;
        Ok(TpccExec {
            commit_ts,
            reads: 3,
            writes: 2,
            detail: TpccDetail::Payment {
                warehouse: params.w,
                customer: ck,
                amount: params.amount,
            },
        })
    }

    /// ORDER_STATUS: read-only. Range-scan the district's most recent orders
    /// through the ordered index, then each scanned order's lines.
    pub fn order_status<E: Engine>(
        &self,
        engine: &E,
        tables: TpccTables,
        params: &TpccParams,
    ) -> Result<TpccExec> {
        const RECENT: u64 = 4;
        let dk = d_pk(params.w, params.d);
        let mut txn = engine.begin_hinted(
            true,
            &[tables.district, tables.order, tables.order_line],
            self.isolation,
        );
        let d_row = txn
            .read(tables.district, IndexId(0), dk)?
            .ok_or(NO_DISTRICT)?;
        let next = next_o_id_of(&d_row);
        let lo = o_pk(dk, next.saturating_sub(RECENT));
        let hi = o_pk(dk, next.saturating_sub(1));
        let mut reads = 1u64;
        let mut orders_seen = 0u64;
        let mut lines_consistent = true;
        if next > 0 {
            let orders = txn.scan_range(tables.order, IndexId(1), lo, hi)?;
            reads += orders.len() as u64;
            orders_seen = orders.len() as u64;
            for order in &orders {
                let ok = order_pk_of(order);
                let declared = order_ol_cnt_of(order);
                let mut lines = 0u64;
                let mut total = 0i64;
                txn.scan_range_with(
                    tables.order_line,
                    IndexId(1),
                    ol_pk(ok, 0),
                    ol_pk(ok, MAX_OL - 1),
                    &mut |row| {
                        lines += 1;
                        total += ol_amount_of(row);
                    },
                )?;
                reads += lines;
                std::hint::black_box(total);
                if lines != declared {
                    lines_consistent = false;
                }
            }
        }
        let commit_ts = txn.commit()?;
        Ok(TpccExec {
            commit_ts,
            reads,
            writes: 0,
            detail: TpccDetail::OrderStatus {
                orders_seen,
                lines_consistent,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_core::{MvConfig, MvEngine};
    use mmdb_onev::{SvConfig, SvEngine};
    use rand::SeedableRng;

    fn small() -> TpccLite {
        TpccLite {
            warehouses: 2,
            districts_per_wh: 2,
            customers_per_district: 8,
            initial_orders: 3,
            isolation: IsolationLevel::SnapshotIsolation,
        }
    }

    #[test]
    fn row_layouts_round_trip() {
        let w = warehouse_row(3, -7);
        assert_eq!(w.len(), layout::WAREHOUSE_LEN);
        assert_eq!(warehouse_ytd_of(&w), -7);
        let d = district_row(9, 42);
        assert_eq!(d.len(), layout::DISTRICT_LEN);
        assert_eq!(next_o_id_of(&d), 42);
        let c = customer_row(11, -5, 6, 7);
        assert_eq!(c.len(), layout::CUSTOMER_LEN);
        assert_eq!(customer_balance_of(&c), -5);
        assert_eq!(customer_ytd_of(&c), 6);
        assert_eq!(customer_cnt_of(&c), 7);
        let o = order_row(13, 9, 11, 4);
        assert_eq!(o.len(), layout::ORDER_LEN);
        assert_eq!(order_pk_of(&o), 13);
        assert_eq!(order_ol_cnt_of(&o), 4);
        let l = order_line_row(14, 13, 99);
        assert_eq!(l.len(), layout::ORDER_LINE_LEN);
        assert_eq!(ol_amount_of(&l), 99);
    }

    #[test]
    fn keys_are_disjoint_per_district() {
        assert_ne!(d_pk(0, 1), d_pk(1, 0));
        assert_ne!(o_pk(d_pk(0, 1), 0), o_pk(d_pk(0, 0), u32::MAX as u64));
        assert_eq!(ol_pk(o_pk(5, 2), MAX_OL - 1) + 1, ol_pk(o_pk(5, 2) + 1, 0));
    }

    #[test]
    fn mix_advances_counters_on_mv_engine() {
        let tpcc = small();
        let engine = MvEngine::optimistic(MvConfig::default());
        let tables = tpcc.setup(&engine).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let mut committed = 0u64;
        let mut new_orders = std::collections::BTreeMap::new();
        for _ in 0..300 {
            let params = tpcc.draw(&mut rng);
            if let Ok(exec) = tpcc.exec(&engine, tables, &params) {
                committed += 1;
                if let TpccDetail::NewOrder { district, .. } = exec.detail {
                    *new_orders.entry(district).or_insert(0u64) += 1;
                }
                if let TpccDetail::OrderStatus {
                    lines_consistent, ..
                } = exec.detail
                {
                    assert!(lines_consistent);
                }
            }
        }
        assert!(committed >= 295, "got {committed}");
        // Every district counter advanced by exactly its committed new-orders.
        let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
        for dk in tpcc.district_pks() {
            let row = txn.read(tables.district, IndexId(0), dk).unwrap().unwrap();
            let expected = tpcc.initial_orders + new_orders.get(&dk).copied().unwrap_or(0);
            assert_eq!(next_o_id_of(&row), expected, "district {dk}");
        }
        txn.commit().unwrap();
    }

    #[test]
    fn order_status_scans_recent_orders_on_1v_engine() {
        let tpcc = small();
        let engine = SvEngine::new(SvConfig::default());
        let tables = tpcc.setup(&engine).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let params = TpccParams {
            kind: TpccKind::OrderStatus,
            w: 0,
            d: 0,
            c: 0,
            amount: 0,
            ol_cnt: 1,
            ol_amounts: [0; 5],
        };
        let exec = tpcc.order_status(&engine, tables, &params).unwrap();
        match exec.detail {
            TpccDetail::OrderStatus {
                orders_seen,
                lines_consistent,
            } => {
                assert_eq!(orders_seen, tpcc.initial_orders.min(4));
                assert!(lines_consistent);
            }
            _ => unreachable!(),
        }
        // Drive some mix too.
        let mut committed = 0u64;
        for _ in 0..200 {
            let params = tpcc.draw(&mut rng);
            if tpcc.exec(&engine, tables, &params).is_ok() {
                committed += 1;
            }
        }
        assert!(committed >= 195, "got {committed}");
    }
}

//! The SmallBank benchmark — a write-heavy, anomaly-prone banking mix.
//!
//! SmallBank (Alomari et al., ICDE 2008) models a retail bank: two tables,
//! CHECKING and SAVINGS, one row per customer in each, and six short
//! transactions. It is the classic stress test for weak isolation because the
//! transaction *formulation* matters: both [`SmallBank::transact_saving`] and
//! [`SmallBank::write_check`] read the customer's **combined** balance before
//! writing only one of the two rows. Run concurrently at snapshot isolation
//! the two guards evaluate against the same stale snapshot, the writes land
//! on disjoint rows, both commit — write skew — and the invariant "combined
//! balance stays ≥ 0" breaks even though no single serial order allows it.
//! Serializable must reject one of the two. That makes SmallBank a natural
//! differential-harness client (the anomaly pin lives in
//! `tests/anomalies.rs`) on top of a contention-knobbed perf workload.
//!
//! Money is tracked in integer cents (`i64`). Every transaction reports the
//! signed change it applied to the bank's total holdings, so a harness can
//! assert *balance conservation*: `final total == initial total + Σ delta of
//! committed transactions` (exact at isolation levels that prevent lost
//! updates; see `tests/support/invariants.rs`).

use rand::rngs::StdRng;
use rand::Rng;

use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::error::{MmdbError, Result};
use mmdb_common::ids::{IndexId, TableId, Timestamp};
use mmdb_common::isolation::IsolationLevel;
use mmdb_common::row::{Row, TableSpec};

use crate::driver::{TxnKind, TxnOutcome};

/// Fixed binary layout of a CHECKING / SAVINGS row.
pub mod layout {
    /// Account row: `customer id (8) | balance i64 LE (8)`.
    pub const ACCOUNT_LEN: usize = 16;
    /// Offset of the little-endian `i64` balance.
    pub const BALANCE_OFFSET: usize = 8;
}

/// Build an account row for `customer` holding `balance` cents.
pub fn account_row(customer: u64, balance: i64) -> Row {
    let mut v = vec![0u8; layout::ACCOUNT_LEN];
    v[0..8].copy_from_slice(&customer.to_le_bytes());
    v[layout::BALANCE_OFFSET..].copy_from_slice(&balance.to_le_bytes());
    Row::from(v)
}

/// Decode the balance of an account row built by [`account_row`].
pub fn balance_of(row: &[u8]) -> i64 {
    i64::from_le_bytes(
        row[layout::BALANCE_OFFSET..layout::BALANCE_OFFSET + 8]
            .try_into()
            .expect("account row has a balance"),
    )
}

/// Table handles of a populated SmallBank database.
#[derive(Debug, Clone, Copy)]
pub struct SmallBankTables {
    /// CHECKING table (one row per customer).
    pub checking: TableId,
    /// SAVINGS table (one row per customer).
    pub savings: TableId,
}

/// The six SmallBank transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbTxnKind {
    /// Read-only: report a customer's combined balance.
    Balance,
    /// Deposit into a checking account.
    DepositChecking,
    /// Add/remove savings funds, guarded by the *combined* balance.
    TransactSaving,
    /// Fold a customer's savings and checking into another's checking.
    Amalgamate,
    /// Cash a check against the *combined* balance (overdraft penalty).
    WriteCheck,
    /// Transfer between two checking accounts.
    SendPayment,
}

/// Pre-drawn parameters of one SmallBank transaction.
///
/// All randomness is consumed *before* execution so the same seeded sequence
/// can be replayed deterministically against different engines.
#[derive(Debug, Clone, Copy)]
pub struct SbParams {
    /// Which of the six transactions to run.
    pub kind: SbTxnKind,
    /// Primary customer.
    pub a: u64,
    /// Secondary customer (amalgamate / send-payment); always `!= a`.
    pub b: u64,
    /// Amount in cents (signed only for transact-saving).
    pub amount: i64,
}

/// One after-image written by a committed SmallBank transaction.
#[derive(Debug, Clone, Copy)]
pub struct SbWrite {
    /// `true` for the SAVINGS table, `false` for CHECKING.
    pub savings: bool,
    /// The customer whose row was replaced.
    pub account: u64,
    /// The balance the row now holds.
    pub new_balance: i64,
}

/// What a committed SmallBank transaction did — enough for a differential
/// harness to replay its write effects in commit-timestamp order.
#[derive(Debug, Clone)]
pub struct SbExec {
    /// Commit timestamp assigned by the engine.
    pub commit_ts: Timestamp,
    /// Row reads performed.
    pub reads: u64,
    /// After-images written, in program order.
    pub writes: Vec<SbWrite>,
    /// Signed change to the bank's total holdings.
    pub delta: i64,
}

/// SmallBank workload generator.
#[derive(Debug, Clone)]
pub struct SmallBank {
    /// Number of customers (rows per table).
    pub accounts: u64,
    /// Starting balance of every checking and every savings account.
    pub initial_balance: i64,
    /// Size of the hot account set (the contention knob's numerator).
    pub hot_accounts: u64,
    /// Probability that a transaction targets the hot set.
    pub hot_fraction: f64,
    /// Isolation level all six transactions run at.
    pub isolation: IsolationLevel,
}

impl Default for SmallBank {
    fn default() -> Self {
        SmallBank {
            accounts: 10_000,
            initial_balance: 10_000,
            hot_accounts: 100,
            hot_fraction: 0.0,
            isolation: IsolationLevel::SnapshotIsolation,
        }
    }
}

impl SmallBank {
    /// A uniform workload over `accounts` customers.
    pub fn new(accounts: u64) -> SmallBank {
        SmallBank {
            accounts,
            ..Default::default()
        }
    }

    /// A hotspot workload: `hot_fraction` of accesses hit the first
    /// `hot_accounts` customers.
    pub fn hotspot(accounts: u64, hot_accounts: u64, hot_fraction: f64) -> SmallBank {
        SmallBank {
            accounts,
            hot_accounts: hot_accounts.min(accounts),
            hot_fraction,
            ..Default::default()
        }
    }

    /// The total the bank holds right after [`SmallBank::setup`].
    pub fn initial_total(&self) -> i64 {
        self.accounts as i64 * self.initial_balance * 2
    }

    /// Draw a customer id, honouring the hotspot knob.
    pub fn draw_account(&self, rng: &mut StdRng) -> u64 {
        if self.hot_accounts > 0
            && self.hot_accounts < self.accounts
            && rng.gen_bool(self.hot_fraction.clamp(0.0, 1.0))
        {
            rng.gen_range(0..self.hot_accounts)
        } else {
            rng.gen_range(0..self.accounts)
        }
    }

    /// Draw the parameters of one transaction from the standard mix
    /// (15 % balance, 15 % deposit-checking, 15 % transact-saving,
    /// 15 % amalgamate, 15 % write-check, 25 % send-payment).
    pub fn draw(&self, rng: &mut StdRng) -> SbParams {
        let dice = rng.gen_range(0..100u32);
        let kind = match dice {
            0..=14 => SbTxnKind::Balance,
            15..=29 => SbTxnKind::DepositChecking,
            30..=44 => SbTxnKind::TransactSaving,
            45..=59 => SbTxnKind::Amalgamate,
            60..=74 => SbTxnKind::WriteCheck,
            _ => SbTxnKind::SendPayment,
        };
        let a = self.draw_account(rng);
        let mut b = self.draw_account(rng);
        if b == a {
            b = (a + 1) % self.accounts.max(1);
        }
        let amount = match kind {
            SbTxnKind::TransactSaving => {
                let v = rng.gen_range(1..=200i64);
                if rng.gen_bool(0.5) {
                    v
                } else {
                    -v
                }
            }
            SbTxnKind::SendPayment => rng.gen_range(1..=100i64),
            _ => rng.gen_range(1..=200i64),
        };
        SbParams { kind, a, b, amount }
    }

    // ---- schema & population ----

    /// Create the CHECKING and SAVINGS tables.
    pub fn create_tables<E: Engine>(&self, engine: &E) -> Result<SmallBankTables> {
        let buckets = (self.accounts as usize).max(16);
        let checking = engine.create_table(TableSpec::keyed_u64("checking", buckets))?;
        let savings = engine.create_table(TableSpec::keyed_u64("savings", buckets))?;
        Ok(SmallBankTables { checking, savings })
    }

    /// Create and populate the database. Returns the table handles.
    pub fn setup<E: Engine>(&self, engine: &E) -> Result<SmallBankTables> {
        let tables = self.create_tables(engine)?;
        let mut customer = 0u64;
        while customer < self.accounts {
            let chunk_end = (customer + 2_000).min(self.accounts);
            let mut txn = engine.begin(IsolationLevel::ReadCommitted);
            for c in customer..chunk_end {
                txn.insert(tables.checking, account_row(c, self.initial_balance))?;
                txn.insert(tables.savings, account_row(c, self.initial_balance))?;
            }
            txn.commit()?;
            customer = chunk_end;
        }
        Ok(tables)
    }

    // ---- the six transactions ----

    /// Execute one transaction of the standard mix and report it to the
    /// benchmark driver.
    pub fn run_one<E: Engine>(
        &self,
        engine: &E,
        tables: SmallBankTables,
        rng: &mut StdRng,
    ) -> TxnOutcome {
        let params = self.draw(rng);
        match self.exec(engine, tables, &params) {
            Ok(exec) => {
                TxnOutcome::committed(TxnKind::SmallBank, exec.reads, exec.writes.len() as u64)
            }
            Err(_) => TxnOutcome::aborted(TxnKind::SmallBank, 0, 0),
        }
    }

    /// Execute one pre-drawn transaction. `Err` means the engine aborted it
    /// — or, as [`MmdbError::Internal`], that a point read missed a live row,
    /// which callers checking correctness must not count as an abort.
    pub fn exec<E: Engine>(
        &self,
        engine: &E,
        tables: SmallBankTables,
        params: &SbParams,
    ) -> Result<SbExec> {
        match params.kind {
            SbTxnKind::Balance => self.balance(engine, tables, params.a),
            SbTxnKind::DepositChecking => {
                self.deposit_checking(engine, tables, params.a, params.amount)
            }
            SbTxnKind::TransactSaving => {
                self.transact_saving(engine, tables, params.a, params.amount)
            }
            SbTxnKind::Amalgamate => self.amalgamate(engine, tables, params.a, params.b),
            SbTxnKind::WriteCheck => self.write_check(engine, tables, params.a, params.amount),
            SbTxnKind::SendPayment => {
                self.send_payment(engine, tables, params.a, params.b, params.amount)
            }
        }
    }

    fn read_balance<T: EngineTxn>(txn: &mut T, table: TableId, customer: u64) -> Result<i64> {
        let row = txn
            .read(table, IndexId(0), customer)?
            // Accounts are created at setup and never deleted.
            .ok_or(MmdbError::Internal("smallbank: live account row not found"))?;
        Ok(balance_of(&row))
    }

    fn write_balance<T: EngineTxn>(
        txn: &mut T,
        table: TableId,
        customer: u64,
        balance: i64,
    ) -> Result<()> {
        txn.update(table, IndexId(0), customer, account_row(customer, balance))?;
        Ok(())
    }

    fn finish<T: EngineTxn>(
        txn: T,
        reads: u64,
        writes: Vec<SbWrite>,
        delta: i64,
    ) -> Result<SbExec> {
        let commit_ts = txn.commit()?;
        Ok(SbExec {
            commit_ts,
            reads,
            writes,
            delta,
        })
    }

    /// BALANCE: read-only report of a customer's combined balance.
    pub fn balance<E: Engine>(
        &self,
        engine: &E,
        tables: SmallBankTables,
        a: u64,
    ) -> Result<SbExec> {
        let mut txn = engine.begin_hinted(true, &[tables.checking, tables.savings], self.isolation);
        let c = Self::read_balance(&mut txn, tables.checking, a)?;
        let s = Self::read_balance(&mut txn, tables.savings, a)?;
        std::hint::black_box(c + s);
        Self::finish(txn, 2, Vec::new(), 0)
    }

    /// DEPOSIT_CHECKING: add `amount` to a checking account.
    pub fn deposit_checking<E: Engine>(
        &self,
        engine: &E,
        tables: SmallBankTables,
        a: u64,
        amount: i64,
    ) -> Result<SbExec> {
        let mut txn = engine.begin_hinted(false, &[tables.checking], self.isolation);
        let c = Self::read_balance(&mut txn, tables.checking, a)?;
        Self::write_balance(&mut txn, tables.checking, a, c + amount)?;
        let writes = vec![SbWrite {
            savings: false,
            account: a,
            new_balance: c + amount,
        }];
        Self::finish(txn, 1, writes, amount)
    }

    /// TRANSACT_SAVING: apply a signed `amount` to a savings account, but only
    /// if the customer's **combined** balance stays non-negative.
    ///
    /// Reading both rows while writing only SAVINGS is the half of the
    /// SmallBank write-skew pair; the other half is [`SmallBank::write_check`].
    pub fn transact_saving<E: Engine>(
        &self,
        engine: &E,
        tables: SmallBankTables,
        a: u64,
        amount: i64,
    ) -> Result<SbExec> {
        let mut txn =
            engine.begin_hinted(false, &[tables.checking, tables.savings], self.isolation);
        let c = Self::read_balance(&mut txn, tables.checking, a)?;
        let s = Self::read_balance(&mut txn, tables.savings, a)?;
        if c + s + amount < 0 {
            // Logical rejection: the funds check failed. Still a commit.
            return Self::finish(txn, 2, Vec::new(), 0);
        }
        Self::write_balance(&mut txn, tables.savings, a, s + amount)?;
        let writes = vec![SbWrite {
            savings: true,
            account: a,
            new_balance: s + amount,
        }];
        Self::finish(txn, 2, writes, amount)
    }

    /// AMALGAMATE: move all of customer `a`'s funds (savings + checking) into
    /// customer `b`'s checking account.
    pub fn amalgamate<E: Engine>(
        &self,
        engine: &E,
        tables: SmallBankTables,
        a: u64,
        b: u64,
    ) -> Result<SbExec> {
        debug_assert_ne!(a, b, "amalgamate needs two distinct customers");
        let mut txn =
            engine.begin_hinted(false, &[tables.checking, tables.savings], self.isolation);
        let sa = Self::read_balance(&mut txn, tables.savings, a)?;
        let ca = Self::read_balance(&mut txn, tables.checking, a)?;
        let cb = Self::read_balance(&mut txn, tables.checking, b)?;
        Self::write_balance(&mut txn, tables.savings, a, 0)?;
        Self::write_balance(&mut txn, tables.checking, a, 0)?;
        Self::write_balance(&mut txn, tables.checking, b, cb + sa + ca)?;
        let writes = vec![
            SbWrite {
                savings: true,
                account: a,
                new_balance: 0,
            },
            SbWrite {
                savings: false,
                account: a,
                new_balance: 0,
            },
            SbWrite {
                savings: false,
                account: b,
                new_balance: cb + sa + ca,
            },
        ];
        Self::finish(txn, 3, writes, 0)
    }

    /// WRITE_CHECK: cash a check of `amount` against the **combined** balance;
    /// an overdraft incurs a 1-cent penalty. Reads both rows, writes only
    /// CHECKING — the other half of the write-skew pair.
    pub fn write_check<E: Engine>(
        &self,
        engine: &E,
        tables: SmallBankTables,
        a: u64,
        amount: i64,
    ) -> Result<SbExec> {
        let mut txn =
            engine.begin_hinted(false, &[tables.checking, tables.savings], self.isolation);
        let c = Self::read_balance(&mut txn, tables.checking, a)?;
        let s = Self::read_balance(&mut txn, tables.savings, a)?;
        let debit = if c + s < amount { amount + 1 } else { amount };
        Self::write_balance(&mut txn, tables.checking, a, c - debit)?;
        let writes = vec![SbWrite {
            savings: false,
            account: a,
            new_balance: c - debit,
        }];
        Self::finish(txn, 2, writes, -debit)
    }

    /// SEND_PAYMENT: transfer `amount` between two checking accounts if the
    /// sender can cover it.
    pub fn send_payment<E: Engine>(
        &self,
        engine: &E,
        tables: SmallBankTables,
        a: u64,
        b: u64,
        amount: i64,
    ) -> Result<SbExec> {
        debug_assert_ne!(a, b, "send_payment needs two distinct customers");
        let mut txn = engine.begin_hinted(false, &[tables.checking], self.isolation);
        let ca = Self::read_balance(&mut txn, tables.checking, a)?;
        if ca < amount {
            // Insufficient funds: logical rejection, still a commit.
            return Self::finish(txn, 1, Vec::new(), 0);
        }
        let cb = Self::read_balance(&mut txn, tables.checking, b)?;
        Self::write_balance(&mut txn, tables.checking, a, ca - amount)?;
        Self::write_balance(&mut txn, tables.checking, b, cb + amount)?;
        let writes = vec![
            SbWrite {
                savings: false,
                account: a,
                new_balance: ca - amount,
            },
            SbWrite {
                savings: false,
                account: b,
                new_balance: cb + amount,
            },
        ];
        Self::finish(txn, 2, writes, 0)
    }
}

/// Sum every balance in both tables through a read-only transaction.
pub fn total_balance<E: Engine>(engine: &E, tables: SmallBankTables, accounts: u64) -> Result<i64> {
    let balances = all_balances(engine, tables, accounts)?;
    Ok(balances.iter().map(|&(c, s)| c + s).sum())
}

/// Read every `(checking, savings)` balance pair, indexed by customer id.
pub fn all_balances<E: Engine>(
    engine: &E,
    tables: SmallBankTables,
    accounts: u64,
) -> Result<Vec<(i64, i64)>> {
    let mut txn = engine.begin_hinted(
        true,
        &[tables.checking, tables.savings],
        IsolationLevel::SnapshotIsolation,
    );
    let mut out = Vec::with_capacity(accounts as usize);
    for customer in 0..accounts {
        let c = SmallBank::read_balance(&mut txn, tables.checking, customer)?;
        let s = SmallBank::read_balance(&mut txn, tables.savings, customer)?;
        out.push((c, s));
    }
    txn.commit()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_core::{MvConfig, MvEngine};
    use mmdb_onev::{SvConfig, SvEngine};
    use rand::SeedableRng;

    fn small() -> SmallBank {
        SmallBank {
            accounts: 50,
            initial_balance: 1_000,
            hot_accounts: 10,
            hot_fraction: 0.5,
            isolation: IsolationLevel::Serializable,
        }
    }

    #[test]
    fn account_row_round_trips() {
        let row = account_row(7, -123_456);
        assert_eq!(row.len(), layout::ACCOUNT_LEN);
        assert_eq!(balance_of(&row), -123_456);
        assert_eq!(mmdb_common::row::rowbuf::key_of(&row), 7);
    }

    #[test]
    fn hotspot_draw_concentrates_accesses() {
        let sb = SmallBank::hotspot(10_000, 100, 0.9);
        let mut rng = StdRng::seed_from_u64(11);
        let hot = (0..10_000)
            .filter(|_| sb.draw_account(&mut rng) < 100)
            .count();
        assert!(hot > 8_000, "90 % hot fraction, got {hot}/10000 hot draws");
    }

    #[test]
    fn draw_never_aliases_the_two_customers() {
        let sb = small();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..2_000 {
            let p = sb.draw(&mut rng);
            assert_ne!(p.a, p.b);
            assert!(p.a < sb.accounts && p.b < sb.accounts);
        }
    }

    #[test]
    fn mix_conserves_the_total_single_threaded() {
        let sb = small();
        let engine = MvEngine::optimistic(MvConfig::default());
        let tables = sb.setup(&engine).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut committed = 0u64;
        let mut delta = 0i64;
        for _ in 0..400 {
            let params = sb.draw(&mut rng);
            if let Ok(exec) = sb.exec(&engine, tables, &params) {
                committed += 1;
                delta += exec.delta;
            }
        }
        assert!(
            committed >= 395,
            "single-threaded SmallBank txns should almost all commit, got {committed}"
        );
        let total = total_balance(&engine, tables, sb.accounts).unwrap();
        assert_eq!(total, sb.initial_total() + delta);
    }

    #[test]
    fn mix_runs_on_the_1v_engine() {
        let sb = small();
        let engine = SvEngine::new(SvConfig::default());
        let tables = sb.setup(&engine).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let mut committed = 0u64;
        let mut delta = 0i64;
        for _ in 0..200 {
            let params = sb.draw(&mut rng);
            if let Ok(exec) = sb.exec(&engine, tables, &params) {
                committed += 1;
                delta += exec.delta;
            }
        }
        assert!(committed >= 195, "got {committed}");
        let total = total_balance(&engine, tables, sb.accounts).unwrap();
        assert_eq!(total, sb.initial_total() + delta);
    }

    #[test]
    fn write_check_overdraft_charges_the_penalty() {
        let sb = small();
        let engine = MvEngine::optimistic(MvConfig::default());
        let tables = sb.setup(&engine).unwrap();
        // Combined balance is 2_000; a 5_000 check overdraws.
        let exec = sb.write_check(&engine, tables, 3, 5_000).unwrap();
        assert_eq!(exec.delta, -5_001);
        assert_eq!(exec.writes.len(), 1);
        assert_eq!(exec.writes[0].new_balance, 1_000 - 5_001);
    }
}

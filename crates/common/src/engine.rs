//! The engine abstraction.
//!
//! The paper evaluates three concurrency-control schemes — single-version
//! locking ("1V"), pessimistic multiversioning ("MV/L") and optimistic
//! multiversioning ("MV/O") — on identical workloads. To let the workload
//! generators and the experiment harness be written once, all three engines
//! implement the [`Engine`] / [`EngineTxn`] traits defined here.
//!
//! The traits expose exactly the operations the paper's workloads need:
//! create a table with hash indexes, begin a transaction at an isolation
//! level, point reads and equality scans through an index, insert / update /
//! delete, commit and abort.

use crate::durability::Durability;
use crate::error::Result;
use crate::ids::{IndexId, Key, TableId, Timestamp, TxnId};
use crate::isolation::IsolationLevel;
use crate::row::{Row, TableSpec};
use crate::stats::EngineStats;

/// A transaction handle. Obtained from [`Engine::begin`]; consumed by
/// [`EngineTxn::commit`] or [`EngineTxn::abort`].
///
/// Transactions are not `Sync`: one thread drives a transaction at a time
/// (the paper's execution model — a transaction is a single thread of
/// control that never blocks during normal processing).
pub trait EngineTxn: Send {
    /// The engine-assigned transaction identifier.
    fn id(&self) -> TxnId;

    /// The isolation level this transaction runs at.
    fn isolation(&self) -> IsolationLevel;

    /// Choose when `commit()` may return relative to log durability
    /// (default: the engine's configured default, normally
    /// [`Durability::Async`] — the paper's transactions never wait for log
    /// I/O). With [`Durability::Sync`], `commit()` blocks until the
    /// transaction's redo bytes are on durable storage; under a group-commit
    /// logger many Sync committers share one flush.
    ///
    /// The default implementation ignores the request: engines without a
    /// redo log (or test oracles) have nothing to wait for.
    fn set_durability(&mut self, _durability: Durability) {}

    /// Insert a new row. The row must satisfy every index's key extractor.
    fn insert(&mut self, table: TableId, row: Row) -> Result<()>;

    /// Visitor-style point lookup: invoke `visit` on the visible row with the
    /// given key (at most once) without materializing it. Returns whether a
    /// row was found.
    ///
    /// This and the two scans below are the read primitives every engine
    /// implements: they hand the caller a borrow of the stored payload, so
    /// the steady-state read path allocates nothing. [`EngineTxn::read`],
    /// [`EngineTxn::scan_key`] and [`EngineTxn::scan_range`] materialize
    /// through them.
    ///
    /// **The visitor must not call back into the engine** (no reads, writes
    /// or transaction control from inside `visit`): engines are free to run
    /// it while holding internal latches — the single-version engine visits
    /// rows in place under a bucket latch — so reentrant use can deadlock.
    /// Extract what you need into locals and continue after the call
    /// returns.
    fn read_with(
        &mut self,
        table: TableId,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<bool>;

    /// Visitor-style equality scan: invoke `visit` on every visible row whose
    /// index key equals `key` (non-unique indexes may yield several), in
    /// index-chain order, without materializing a `Vec`. Returns the number
    /// of rows visited. The [`EngineTxn::read_with`] reentrancy rule applies.
    fn scan_key_with(
        &mut self,
        table: TableId,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize>;

    /// Visitor-style range scan through an *ordered* index: invoke `visit` on
    /// every visible row whose index key falls in the inclusive range
    /// `[lo, hi]`, in ascending key order. Returns the number of rows
    /// visited. Hash indexes cannot serve range predicates; scanning one
    /// fails with
    /// [`MmdbError::IndexNotOrdered`](crate::error::MmdbError::IndexNotOrdered).
    /// The [`EngineTxn::read_with`] reentrancy rule applies.
    fn scan_range_with(
        &mut self,
        table: TableId,
        index: IndexId,
        lo: Key,
        hi: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize>;

    /// Point lookup returning an owned copy of the row
    /// ([`EngineTxn::read_with`] plus a clone).
    fn read(&mut self, table: TableId, index: IndexId, key: Key) -> Result<Option<Row>> {
        let mut out = None;
        self.read_with(table, index, key, &mut |row| out = Some(row.clone()))?;
        Ok(out)
    }

    /// Equality scan returning owned copies of the rows
    /// ([`EngineTxn::scan_key_with`] plus a clone per row).
    fn scan_key(&mut self, table: TableId, index: IndexId, key: Key) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        self.scan_key_with(table, index, key, &mut |row| rows.push(row.clone()))?;
        Ok(rows)
    }

    /// Range scan returning owned copies of the rows
    /// ([`EngineTxn::scan_range_with`] plus a clone per row).
    fn scan_range(&mut self, table: TableId, index: IndexId, lo: Key, hi: Key) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        self.scan_range_with(table, index, lo, hi, &mut |row| rows.push(row.clone()))?;
        Ok(rows)
    }

    /// Replace the visible row with key `key` (located through `index`) by
    /// `new_row`. Returns `Ok(false)` if no visible row matched.
    fn update(&mut self, table: TableId, index: IndexId, key: Key, new_row: Row) -> Result<bool>;

    /// Delete the visible row with key `key`. Returns `Ok(false)` if no
    /// visible row matched.
    fn delete(&mut self, table: TableId, index: IndexId, key: Key) -> Result<bool>;

    /// Commit. On success returns the commit (end) timestamp.
    ///
    /// The transaction is consumed whether or not the commit succeeds; on
    /// error it has already been aborted and cleaned up.
    fn commit(self) -> Result<Timestamp>;

    /// Abort and roll back.
    fn abort(self);
}

/// A concurrency-control engine instance: owns tables, the clock, statistics
/// and any background machinery (garbage collection, deadlock detection).
pub trait Engine: Send + Sync + 'static {
    /// Concrete transaction type.
    type Txn: EngineTxn;

    /// Create a table and return its identifier.
    fn create_table(&self, spec: TableSpec) -> Result<TableId>;

    /// Begin a transaction at the given isolation level.
    fn begin(&self, isolation: IsolationLevel) -> Self::Txn;

    /// Begin a transaction, declaring its shape up front: whether it is
    /// read-only and which tables it will touch.
    ///
    /// Engines with a contention-adaptive concurrency-control policy use the
    /// declaration to pick a mode from the *declared tables'* contention
    /// signals instead of the global one — without it, one hot table flips
    /// every table's traffic to the pessimistic scheme. Engines with a
    /// single scheme (and the default implementation) ignore the hints, so
    /// workload drivers can declare their footprint unconditionally.
    fn begin_hinted(
        &self,
        read_only: bool,
        tables: &[TableId],
        isolation: IsolationLevel,
    ) -> Self::Txn {
        let _ = (read_only, tables);
        self.begin(isolation)
    }

    /// Event counters for this engine.
    fn stats(&self) -> &EngineStats;

    /// Short label used in reports ("1V", "MV/O", "MV/L").
    fn label(&self) -> &'static str;

    /// Cooperative maintenance hook (garbage collection step, etc.). Worker
    /// threads call this periodically between transactions; engines that need
    /// no maintenance use the default no-op.
    fn maintenance(&self) {}
}

/// Convenience helpers layered on any [`EngineTxn`].
pub trait EngineTxnExt: EngineTxn + Sized {
    /// Read-modify-write: read the row with `key`, apply `f`, and write the
    /// result back. Returns `Ok(false)` if the row does not exist.
    fn modify<F>(&mut self, table: TableId, index: IndexId, key: Key, f: F) -> Result<bool>
    where
        F: FnOnce(&[u8]) -> Row,
    {
        match self.read(table, index, key)? {
            Some(row) => {
                let new_row = f(&row);
                self.update(table, index, key, new_row)
            }
            None => Ok(false),
        }
    }
}

impl<T: EngineTxn + Sized> EngineTxnExt for T {}

#[cfg(test)]
mod tests {
    //! A tiny single-threaded reference engine implementing the traits. It
    //! exists to (a) prove the traits are implementable and ergonomic and (b)
    //! serve as a behavioural oracle in other crates' tests.
    use super::*;
    use crate::error::MmdbError;
    use crate::row::rowbuf;
    use crate::row::KeySpec;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// Rows of one table, keyed by (index slot, index key).
    type IndexedRows = HashMap<(u32, u64), Vec<Row>>;

    #[derive(Default)]
    struct Inner {
        tables: Vec<(TableSpec, IndexedRows)>,
    }

    /// Trivially serialized (one big mutex) reference engine.
    pub struct TrivialEngine {
        inner: Arc<Mutex<Inner>>,
        stats: EngineStats,
        next_txn: AtomicU64,
        next_ts: AtomicU64,
    }

    impl TrivialEngine {
        pub fn new() -> Self {
            TrivialEngine {
                inner: Arc::new(Mutex::new(Inner::default())),
                stats: EngineStats::new(),
                next_txn: AtomicU64::new(1),
                next_ts: AtomicU64::new(1),
            }
        }
    }

    pub struct TrivialTxn {
        id: TxnId,
        iso: IsolationLevel,
        inner: Arc<Mutex<Inner>>,
        end_ts: Timestamp,
    }

    impl Engine for TrivialEngine {
        type Txn = TrivialTxn;

        fn create_table(&self, spec: TableSpec) -> Result<TableId> {
            let mut g = self.inner.lock().unwrap();
            g.tables.push((spec, HashMap::new()));
            Ok(TableId(g.tables.len() as u32 - 1))
        }

        fn begin(&self, isolation: IsolationLevel) -> TrivialTxn {
            TrivialTxn {
                id: TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed)),
                iso: isolation,
                inner: Arc::clone(&self.inner),
                end_ts: Timestamp(self.next_ts.fetch_add(1, Ordering::Relaxed)),
            }
        }

        fn stats(&self) -> &EngineStats {
            &self.stats
        }

        fn label(&self) -> &'static str {
            "trivial"
        }
    }

    impl TrivialTxn {
        fn key_for(spec: &TableSpec, index: IndexId, row: &[u8]) -> Result<u64> {
            spec.indexes
                .get(index.0 as usize)
                .ok_or(MmdbError::IndexNotFound(TableId(0), index))?
                .key
                .key_of(row)
        }
    }

    impl EngineTxn for TrivialTxn {
        fn id(&self) -> TxnId {
            self.id
        }
        fn isolation(&self) -> IsolationLevel {
            self.iso
        }
        fn insert(&mut self, table: TableId, row: Row) -> Result<()> {
            let mut g = self.inner.lock().unwrap();
            let (spec, data) = g
                .tables
                .get_mut(table.0 as usize)
                .ok_or(MmdbError::TableNotFound(table))?;
            for (i, _idx) in spec.indexes.iter().enumerate() {
                let key = Self::key_for(spec, IndexId(i as u32), &row)?;
                data.entry((i as u32, key)).or_default().push(row.clone());
            }
            Ok(())
        }
        fn read_with(
            &mut self,
            table: TableId,
            index: IndexId,
            key: Key,
            visit: &mut dyn FnMut(&Row),
        ) -> Result<bool> {
            let mut first = true;
            self.scan_key_with(table, index, key, &mut |row| {
                if std::mem::take(&mut first) {
                    visit(row);
                }
            })
            .map(|n| n > 0)
        }
        fn scan_key_with(
            &mut self,
            table: TableId,
            index: IndexId,
            key: Key,
            visit: &mut dyn FnMut(&Row),
        ) -> Result<usize> {
            let g = self.inner.lock().unwrap();
            let (_, data) = g
                .tables
                .get(table.0 as usize)
                .ok_or(MmdbError::TableNotFound(table))?;
            let rows = data.get(&(index.0, key)).map_or(&[][..], Vec::as_slice);
            rows.iter().for_each(visit);
            Ok(rows.len())
        }
        fn scan_range_with(
            &mut self,
            table: TableId,
            index: IndexId,
            lo: Key,
            hi: Key,
            visit: &mut dyn FnMut(&Row),
        ) -> Result<usize> {
            let g = self.inner.lock().unwrap();
            let (spec, data) = g
                .tables
                .get(table.0 as usize)
                .ok_or(MmdbError::TableNotFound(table))?;
            let ordered = spec
                .indexes
                .get(index.0 as usize)
                .ok_or(MmdbError::IndexNotFound(table, index))?
                .ordered;
            if !ordered {
                return Err(MmdbError::IndexNotOrdered(table, index));
            }
            let mut hits: Vec<(u64, &Vec<Row>)> = data
                .iter()
                .filter(|((slot, key), _)| *slot == index.0 && lo <= *key && *key <= hi)
                .map(|((_, key), rows)| (*key, rows))
                .collect();
            hits.sort_unstable_by_key(|(key, _)| *key);
            let mut n = 0;
            for (_, rows) in hits {
                for row in rows {
                    visit(row);
                    n += 1;
                }
            }
            Ok(n)
        }
        fn update(
            &mut self,
            table: TableId,
            index: IndexId,
            key: Key,
            new_row: Row,
        ) -> Result<bool> {
            let existed = self.delete(table, index, key)?;
            if existed {
                self.insert(table, new_row)?;
            }
            Ok(existed)
        }
        fn delete(&mut self, table: TableId, index: IndexId, key: Key) -> Result<bool> {
            let mut g = self.inner.lock().unwrap();
            let (spec, data) = g
                .tables
                .get_mut(table.0 as usize)
                .ok_or(MmdbError::TableNotFound(table))?;
            let victim = match data.get_mut(&(index.0, key)).and_then(|v| v.pop()) {
                Some(r) => r,
                None => return Ok(false),
            };
            // Remove from the other indexes too.
            for (i, _) in spec.indexes.iter().enumerate() {
                if i as u32 == index.0 {
                    continue;
                }
                let k = Self::key_for(spec, IndexId(i as u32), &victim)?;
                if let Some(rows) = data.get_mut(&(i as u32, k)) {
                    if let Some(pos) = rows.iter().position(|r| r == &victim) {
                        rows.remove(pos);
                    }
                }
            }
            Ok(true)
        }
        fn commit(self) -> Result<Timestamp> {
            Ok(self.end_ts)
        }
        fn abort(self) {}
    }

    #[test]
    fn trivial_engine_basic_crud() {
        let engine = TrivialEngine::new();
        let spec = TableSpec::keyed_u64("t", 16).with_index(crate::row::IndexSpec {
            name: "fill".into(),
            key: KeySpec::BytesAt { offset: 8, len: 1 },
            buckets: 16,
            unique: false,
            ordered: false,
        });
        let t = engine.create_table(spec).unwrap();

        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        txn.insert(t, rowbuf::keyed_row(1, 16, 0xAA)).unwrap();
        txn.insert(t, rowbuf::keyed_row(2, 16, 0xAA)).unwrap();
        assert_eq!(
            txn.read(t, IndexId(0), 1)
                .unwrap()
                .map(|r| rowbuf::key_of(&r)),
            Some(1)
        );
        assert_eq!(
            txn.scan_key(t, IndexId(1), crate::hash::hash_bytes(&[0xAA]))
                .unwrap()
                .len(),
            2
        );
        assert!(txn
            .update(t, IndexId(0), 1, rowbuf::keyed_row(1, 16, 0xBB))
            .unwrap());
        assert_eq!(
            txn.read(t, IndexId(0), 1)
                .unwrap()
                .map(|r| rowbuf::fill_of(&r)),
            Some(0xBB)
        );
        assert!(txn.delete(t, IndexId(0), 2).unwrap());
        assert!(!txn.delete(t, IndexId(0), 2).unwrap());
        txn.commit().unwrap();
    }

    #[test]
    fn materializing_reads_agree_with_the_visitors() {
        let engine = TrivialEngine::new();
        let spec = TableSpec::keyed_u64("t", 16).with_index(crate::row::IndexSpec {
            name: "fill".into(),
            key: KeySpec::BytesAt { offset: 8, len: 1 },
            buckets: 16,
            unique: false,
            ordered: false,
        });
        let t = engine.create_table(spec).unwrap();
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        txn.insert(t, rowbuf::keyed_row(1, 16, 0xAA)).unwrap();
        txn.insert(t, rowbuf::keyed_row(2, 16, 0xAA)).unwrap();

        let mut seen = None;
        assert!(txn
            .read_with(t, IndexId(0), 1, &mut |row| seen =
                Some(rowbuf::key_of(row)))
            .unwrap());
        assert_eq!(seen, Some(1));
        assert!(!txn
            .read_with(t, IndexId(0), 99, &mut |_| panic!("no row to visit"))
            .unwrap());

        let mut keys = Vec::new();
        let n = txn
            .scan_key_with(
                t,
                IndexId(1),
                crate::hash::hash_bytes(&[0xAA]),
                &mut |row| keys.push(rowbuf::key_of(row)),
            )
            .unwrap();
        keys.sort_unstable();
        assert_eq!(n, 2);
        assert_eq!(keys, vec![1, 2]);

        // The provided wrappers clone exactly what the visitors see.
        assert_eq!(
            txn.read(t, IndexId(0), 1)
                .unwrap()
                .map(|r| rowbuf::key_of(&r)),
            Some(1)
        );
        assert_eq!(txn.read(t, IndexId(0), 99).unwrap(), None);
        let rows = txn
            .scan_key(t, IndexId(1), crate::hash::hash_bytes(&[0xAA]))
            .unwrap();
        assert_eq!(rows.len(), 2);
        txn.commit().unwrap();
    }

    #[test]
    fn range_scans_need_an_ordered_index() {
        let engine = TrivialEngine::new();
        let spec = TableSpec::keyed_u64("t", 16)
            .with_index(crate::row::IndexSpec::ordered_u64("pk_ordered", 0));
        let t = engine.create_table(spec).unwrap();
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        for k in [5u64, 1, 9, 3, 7] {
            txn.insert(t, rowbuf::keyed_row(k, 16, k as u8)).unwrap();
        }

        // Range over the ordered index comes back in ascending key order.
        let rows = txn.scan_range(t, IndexId(1), 3, 8).unwrap();
        let keys: Vec<u64> = rows.iter().map(|r| rowbuf::key_of(r)).collect();
        assert_eq!(keys, vec![3, 5, 7]);

        // Visitor form counts what it visits.
        let mut seen = Vec::new();
        let n = txn
            .scan_range_with(t, IndexId(1), 0, u64::MAX, &mut |row| {
                seen.push(rowbuf::key_of(row))
            })
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(seen, vec![1, 3, 5, 7, 9]);

        // A hash index refuses range predicates.
        assert!(matches!(
            txn.scan_range(t, IndexId(0), 0, 10),
            Err(MmdbError::IndexNotOrdered(_, _))
        ));
        txn.commit().unwrap();
    }

    #[test]
    fn modify_helper_reads_then_writes() {
        let engine = TrivialEngine::new();
        let t = engine.create_table(TableSpec::keyed_u64("t", 4)).unwrap();
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        txn.insert(t, rowbuf::keyed_row(7, 16, 1)).unwrap();
        let changed = txn
            .modify(t, IndexId(0), 7, |old| {
                rowbuf::keyed_row(rowbuf::key_of(old), 16, rowbuf::fill_of(old) + 1)
            })
            .unwrap();
        assert!(changed);
        assert_eq!(
            txn.read(t, IndexId(0), 7)
                .unwrap()
                .map(|r| rowbuf::fill_of(&r)),
            Some(2)
        );
        assert!(!txn
            .modify(t, IndexId(0), 999, Row::copy_from_slice)
            .unwrap());
        txn.commit().unwrap();
    }
}

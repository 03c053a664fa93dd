//! The multiversion engine: public entry point tying the storage substrate
//! and the two concurrency-control schemes together.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use mmdb_common::engine::Engine;
use mmdb_common::error::Result;
use mmdb_common::ids::{IndexId, Key, TableId, Timestamp};
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_common::row::{Row, TableSpec};
use mmdb_common::stats::EngineStats;

use mmdb_storage::checkpoint::{CheckpointRef, CheckpointStore, RecoveryPlan};
use mmdb_storage::durable::{DeltaBarrier, Durable};
use mmdb_storage::log::{RecoveryReport, RedoLogger};
use mmdb_storage::store::MvStore;
use mmdb_storage::txn_table::TxnState;

use crate::config::{CcPolicy, MvConfig};
use crate::context::TxnContext;
use crate::deadlock;
use crate::txn::MvTransaction;

/// Maximum number of versions examined per garbage-collection step.
const GC_BATCH: usize = 256;

/// How often the background deadlock detector wakes up.
const DEADLOCK_INTERVAL: std::time::Duration = std::time::Duration::from_millis(5);

thread_local! {
    /// This thread's commits not yet paid for by a cooperative GC step: a
    /// counter of its own, so counting is no write shared between threads.
    static COMMITS: Cell<u64> = const { Cell::new(0) };
}

/// Shared engine internals (store + configuration + background machinery).
pub(crate) struct MvInner {
    pub(crate) store: MvStore,
    pub(crate) config: MvConfig,
    /// Held by the thread running a cooperative GC step
    /// ([`MvInner::after_commit`]).
    collector: parking_lot::Mutex<()>,
    /// Tells the background deadlock detector to stop.
    stop: AtomicBool,
}

impl MvInner {
    /// Cooperative maintenance performed by the committing thread itself: a
    /// bounded garbage-collection step every `gc_every_n_commits` of this
    /// thread's commits, so the total rate is one step per
    /// `gc_every_n_commits` commits however they spread over threads.
    ///
    /// Two steps at once contend on every item (the queue lock, the table's
    /// GC lock), and threads with equal commit rates fall due together and,
    /// slowed alike, stay in step. So a step that falls due while another
    /// runs waits for this thread's next commit, for one step's worth of
    /// commits at most: when collection falls behind, steps must run side by
    /// side.
    pub(crate) fn after_commit(&self) {
        let every = self.config.gc_every_n_commits;
        if every == 0 {
            return;
        }
        let owed = COMMITS.with(|commits| {
            commits.set(commits.get() + 1);
            commits.get()
        });
        if owed < every {
            return;
        }
        let collector = self.collector.try_lock();
        if collector.is_none() && owed - every < every {
            return;
        }
        COMMITS.with(|commits| commits.set(owed - every));
        self.store.collect_garbage(GC_BATCH);
    }
}

/// The multiversion engine ("MV/O", "MV/L" or adaptive "MV/A" depending on
/// the configured [`CcPolicy`], with per-transaction overrides).
///
/// Cloning is cheap (an `Arc` clone) and all clones share the same database.
#[derive(Clone)]
pub struct MvEngine {
    inner: Arc<MvInner>,
    /// Join handle of the deadlock detector (shared; joined on last drop).
    detector: Option<Arc<ServiceHandle>>,
    /// Join handle of the automatic checkpoint tick (shared; joined on last
    /// drop). Only present for engines created via
    /// [`MvEngine::with_checkpoint_store`] under a non-manual
    /// [`CheckpointPolicy`](mmdb_common::durability::CheckpointPolicy).
    checkpointer: Option<Arc<ServiceHandle>>,
}

/// Join-on-last-drop handle for a background service thread (the deadlock
/// detector, the checkpoint tick). All services share `MvInner::stop`, so
/// dropping the last engine clone stops every service before joining.
struct ServiceHandle {
    inner: Weak<MvInner>,
    thread: parking_lot::Mutex<Option<JoinHandle<()>>>,
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.upgrade() {
            inner.stop.store(true, Ordering::Release);
        }
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
    }
}

impl MvEngine {
    /// Create an engine with the given configuration and a discarding logger.
    pub fn new(config: MvConfig) -> MvEngine {
        Self::with_logger(config, Arc::new(mmdb_storage::log::NullLogger::new()))
    }

    /// Create an engine whose default transactions run optimistically (MV/O).
    pub fn optimistic(mut config: MvConfig) -> MvEngine {
        config.cc = CcPolicy::Static(ConcurrencyMode::Optimistic);
        Self::new(config)
    }

    /// Create an engine whose default transactions run pessimistically (MV/L).
    pub fn pessimistic(mut config: MvConfig) -> MvEngine {
        config.cc = CcPolicy::Static(ConcurrencyMode::Pessimistic);
        Self::new(config)
    }

    /// Create an engine that picks each default transaction's scheme from
    /// live contention telemetry (MV/A, [`CcPolicy::ADAPTIVE`]).
    pub fn adaptive(mut config: MvConfig) -> MvEngine {
        if config.cc.static_mode().is_some() {
            config.cc = CcPolicy::ADAPTIVE;
        }
        Self::new(config)
    }

    /// Create an engine writing redo records to `logger`.
    pub fn with_logger(config: MvConfig, logger: Arc<dyn RedoLogger>) -> MvEngine {
        let inner = Arc::new(MvInner {
            store: MvStore::new(logger),
            config: config.clone(),
            collector: parking_lot::Mutex::new(()),
            stop: AtomicBool::new(false),
        });
        if let CcPolicy::Adaptive {
            window,
            enter,
            exit,
        } = config.cc
        {
            inner
                .store
                .stats()
                .contention
                .configure(window, enter, exit);
        }
        let detector = if config.deadlock_detector {
            let weak = Arc::downgrade(&inner);
            let thread = std::thread::Builder::new()
                .name("mmdb-deadlock-detector".into())
                .spawn(move || loop {
                    std::thread::sleep(DEADLOCK_INTERVAL);
                    let Some(inner) = weak.upgrade() else { break };
                    if inner.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let victims = deadlock::detect_and_resolve(&inner.store);
                    if victims > 0 {
                        EngineStats::add(&inner.store.stats().deadlock_aborts, victims as u64);
                    }
                })
                .expect("spawn deadlock detector");
            Some(Arc::new(ServiceHandle {
                inner: Arc::downgrade(&inner),
                thread: parking_lot::Mutex::new(Some(thread)),
            }))
        } else {
            None
        };
        MvEngine {
            inner,
            detector,
            checkpointer: None,
        }
    }

    /// Create an engine whose redo records go to `store`'s group-commit log
    /// and whose [`CheckpointPolicy`](mmdb_common::durability::CheckpointPolicy)
    /// (from `config.checkpoint`) actually drives checkpoints: a background
    /// tick consults [`CheckpointStore::checkpoint_due`] and runs
    /// [`Durable::checkpoint_auto`] — delta images while the chain has
    /// room under `policy.max_chain`, a full base image (compaction)
    /// otherwise — automatically once the configured log growth accrues.
    /// Under
    /// [`CheckpointPolicy::MANUAL`](mmdb_common::durability::CheckpointPolicy::MANUAL)
    /// no tick is spawned and `checkpoint()` remains an explicit call.
    ///
    /// [`CheckpointStore::checkpoint_due`]: mmdb_storage::checkpoint::CheckpointStore::checkpoint_due
    pub fn with_checkpoint_store(
        config: MvConfig,
        store: Arc<mmdb_storage::checkpoint::CheckpointStore>,
    ) -> MvEngine {
        let logger: Arc<dyn RedoLogger> = Arc::clone(store.logger()) as _;
        let mut engine = Self::with_logger(config, logger);
        let policy = engine.inner.config.checkpoint;
        if policy == mmdb_common::durability::CheckpointPolicy::MANUAL {
            return engine;
        }
        let weak = Arc::downgrade(&engine.inner);
        // The tick only *checks* a counter (cheap relaxed read through the
        // group-commit log); actual checkpoints are rare, so a short period
        // keeps the log bound tight without measurable overhead.
        let interval = std::time::Duration::from_millis(10);
        let thread = std::thread::Builder::new()
            .name("mmdb-checkpointer".into())
            .spawn(move || loop {
                std::thread::sleep(interval);
                let Some(inner) = weak.upgrade() else { break };
                if inner.stop.load(Ordering::Acquire) {
                    break;
                }
                if store.checkpoint_due(&policy) {
                    let engine = MvEngine {
                        inner,
                        detector: None,
                        checkpointer: None,
                    };
                    // A failed automatic checkpoint (e.g. disk error) is not
                    // fatal to the engine: the log keeps growing and the
                    // next tick retries.
                    let _ = engine.checkpoint_auto(&store, &policy);
                }
            })
            .expect("spawn checkpointer");
        engine.checkpointer = Some(Arc::new(ServiceHandle {
            inner: Arc::downgrade(&engine.inner),
            thread: parking_lot::Mutex::new(Some(thread)),
        }));
        engine
    }

    /// The engine configuration.
    pub fn config(&self) -> &MvConfig {
        &self.inner.config
    }

    /// Direct access to the underlying store (diagnostics, tests).
    pub fn store(&self) -> &MvStore {
        &self.inner.store
    }

    /// Begin a transaction with an explicit concurrency mode, overriding the
    /// engine default. Optimistic and pessimistic transactions may run
    /// concurrently against the same database (§4.5).
    pub fn begin_with(&self, mode: ConcurrencyMode, isolation: IsolationLevel) -> MvTransaction {
        let store = &self.inner.store;
        // Register first, with the begin timestamp unset, and draw it second:
        // a registered handle whose begin reads 0 holds the GC watermark at
        // zero, so no version this snapshot needs can be reclaimed while
        // the thread sits between the two steps (the argument is at
        // `MvStore::collect_garbage`).
        let ctx = TxnContext::take(store.clock().next_txn_id(), mode, isolation);
        store.txns().register(Arc::clone(&ctx.handle));
        #[cfg(test)]
        crate::txn::race_hooks::fire(crate::txn::race_hooks::Gap::BeginDraw);
        ctx.handle.set_begin_ts(store.clock().next_timestamp());
        MvTransaction::new(Arc::clone(&self.inner), ctx)
    }

    /// Begin a transaction whose concurrency mode is chosen by the engine's
    /// [`CcPolicy`], refined by a declared transaction shape: read-only
    /// transactions always run optimistically (they cannot lose a write
    /// conflict, and MV/O never makes readers block writers — §3.4), and an
    /// update transaction consults the contention cells of the tables it
    /// declares in addition to the global signal. Under a static policy the
    /// hints are ignored and the fixed mode applies.
    pub fn begin_hinted(
        &self,
        read_only: bool,
        tables: &[TableId],
        isolation: IsolationLevel,
    ) -> MvTransaction {
        let mode = match self.inner.config.cc {
            CcPolicy::Static(mode) => mode,
            CcPolicy::Adaptive { .. } => self
                .inner
                .store
                .stats()
                .contention
                .recommend(read_only, tables),
        };
        self.begin_with(mode, isolation)
    }

    /// Bulk-load committed rows outside of any transaction (initial database
    /// population).
    pub fn populate<I>(&self, table: TableId, rows: I) -> Result<usize>
    where
        I: IntoIterator<Item = Row>,
    {
        self.inner.store.populate(table, rows)
    }

    /// Run a bounded garbage-collection step now. Returns the number of
    /// versions reclaimed.
    pub fn collect_garbage(&self) -> usize {
        self.inner.store.collect_garbage(GC_BATCH)
    }

    /// Number of versions currently reachable in `table`'s primary index
    /// (diagnostic).
    pub fn version_count(&self, table: TableId) -> Result<usize> {
        let guard = crossbeam::epoch::pin();
        Ok(self.inner.store.table_in(table, &guard)?.version_count())
    }

    /// [`Durable::checkpoint`]; an inherent forwarder kept only because
    /// `benchmark/` calls it without importing the trait.
    pub fn checkpoint(&self, store: &CheckpointStore) -> Result<CheckpointRef> {
        Durable::checkpoint(self, store)
    }

    /// [`Durable::checkpoint_delta`]; an inherent forwarder kept only because
    /// `benchmark/` calls it without importing the trait.
    pub fn checkpoint_delta(&self, store: &CheckpointStore) -> Result<CheckpointRef> {
        Durable::checkpoint_delta(self, store)
    }

    /// [`Durable::recover_from_checkpoint`]; an inherent forwarder kept only
    /// because `benchmark/` calls it without importing the trait.
    pub fn recover_from_checkpoint(&self, plan: &RecoveryPlan) -> Result<RecoveryReport> {
        Durable::recover_from_checkpoint(self, plan)
    }

    /// Wait until every registered transaction that holds — or may still
    /// claim — an end timestamp at or below `read_ts` has finished
    /// postprocessing (reached `Terminated`).
    ///
    /// `read_ts` must already be drawn: a transaction observed without an
    /// end timestamp can only draw one *after* this point, and the monotone
    /// clock puts that draw above `read_ts`. The bucket sweep misses only
    /// transactions registering concurrently, whose end timestamps are
    /// likewise above `read_ts`. Waits are short (a precommit's fate
    /// resolves within its validation + log append) and resolve among the
    /// waited-on transactions themselves, never on this thread.
    fn quiesce_precommits(&self, read_ts: Timestamp) {
        use mmdb_storage::txn_table::EndTs;
        for handle in self.inner.store.txns().snapshot() {
            loop {
                match handle.end_ts_state() {
                    // Any future end timestamp postdates `read_ts`.
                    EndTs::None => break,
                    EndTs::At(end) if end > read_ts => break,
                    // Pending, or committed/aborting inside the window:
                    // wait for postprocessing to publish its words.
                    _ => {
                        if handle.state() == TxnState::Terminated {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }
        }
    }
}

impl MvEngine {
    /// Walk every version of `table_id` reachable through its primary index
    /// and hand each one visible to the registered snapshot transaction
    /// `snapshot` to `visit`.
    ///
    /// One epoch pin per piece (`Table::scan_versions_chunk`), not per
    /// table: a pin held for a whole table walk stalls epoch advancement for
    /// every thread, and until it ends each transaction allocates its handle
    /// and its versions afresh. The snapshot transaction, not the guard, is
    /// what keeps the walk consistent from piece to piece.
    fn walk_snapshot(
        &self,
        table_id: TableId,
        snapshot: &MvTransaction,
        mut visit: impl FnMut(&mmdb_storage::version::Version) -> Result<()>,
    ) -> Result<()> {
        let mvstore = &self.inner.store;
        let (read_ts, me) = (snapshot.begin_ts(), snapshot.me());
        for chunk in 0.. {
            let guard = crossbeam::epoch::pin();
            let table = mvstore.table_in(table_id, &guard)?;
            let Some(versions) = table.scan_versions_chunk(IndexId(0), chunk, &guard)? else {
                break;
            };
            for version in versions {
                let vis = loop {
                    let vis = crate::visibility::check_visibility(
                        version,
                        read_ts,
                        me,
                        mvstore.txns(),
                        &guard,
                    );
                    if vis.dependency.is_none() {
                        break vis;
                    }
                    // The owning transaction is mid-commit; its fate is
                    // decided within a few instructions. A checkpoint has no
                    // abort path to cascade, so wait it out instead of
                    // taking a commit dependency.
                    std::thread::yield_now();
                };
                if vis.visible {
                    visit(version)?;
                }
            }
        }
        Ok(())
    }
}

impl Durable for MvEngine {
    /// Take a checkpoint into `store` and truncate the redo log below it.
    ///
    /// The engine must have been created with `store`'s group-commit log as
    /// its redo logger ([`MvEngine::with_logger`] of
    /// `CheckpointStore::logger`), so the checkpoint LSN and the engine's
    /// commit frames live on the same stream.
    ///
    /// The image is a snapshot-isolation read of every table and **never
    /// blocks writers**: the walk is an ordinary registered transaction, so
    /// concurrent commits proceed (multiversioning gives the reader its own
    /// stable view) and the GC watermark keeps the snapshot's versions
    /// alive. Consistency with the log comes from ordering: the checkpoint
    /// LSN is captured *before* the snapshot timestamp is drawn, and every
    /// commit draws its end timestamp *before* appending its frame, so
    /// every frame wholly below the LSN commits inside the snapshot.
    /// Recovery replays the tail above the LSN, skipping records at or
    /// below the snapshot timestamp.
    fn checkpoint(&self, store: &CheckpointStore) -> Result<CheckpointRef> {
        use mmdb_common::engine::EngineTxn as _;

        // Order matters (see above): log high-water mark first, snapshot
        // timestamp second.
        let ckpt_lsn = store.logger().appended_lsn();
        let txn = self.begin_with(
            ConcurrencyMode::Optimistic,
            IsolationLevel::SnapshotIsolation,
        );
        let read_ts = txn.begin_ts();
        let mut writer = store.begin_checkpoint(ckpt_lsn, read_ts)?;
        let mvstore = &self.inner.store;
        for idx in 0..mvstore.table_count() {
            let table_id = TableId(idx as u32);
            self.walk_snapshot(table_id, &txn, |version| {
                writer.write_row(table_id, version.data())
            })?;
        }
        // The walk is read-only; committing just deregisters the snapshot
        // (releasing the GC watermark).
        txn.commit()?;
        let installed = store.install_checkpoint(writer.finish()?)?;
        store.truncate_log()?;
        Ok(installed)
    }

    /// Capture a delta's barrier without blocking writers, in four steps:
    ///
    /// 1. `tail_lsn` = the log's appended LSN. Every frame below it drew its
    ///    end timestamp before its append, hence before `read_ts` is drawn.
    /// 2. `read_ts` = a fresh clock draw. No transaction is registered and
    ///    nothing is pinned: the delta reads the log, not versions.
    /// 3. `quiesce_precommits(read_ts)`. A commit appends its frame before
    ///    it reaches `Terminated`, so afterwards every commit at or below
    ///    `read_ts` has appended; anything that draws its end timestamp
    ///    later lands above `read_ts` and belongs to the tail.
    /// 4. `read_limit_lsn` = the appended LSN again.
    fn delta_barrier(&self, store: &CheckpointStore) -> Result<DeltaBarrier> {
        let tail_lsn = store.logger().appended_lsn();
        let read_ts = self.inner.store.clock().next_timestamp();
        self.quiesce_precommits(read_ts);
        Ok(DeltaBarrier {
            tail_lsn,
            read_limit_lsn: store.logger().appended_lsn(),
            read_ts,
        })
    }

    fn primary_key_of(&self, table: TableId, row: &Row) -> Result<Key> {
        let guard = crossbeam::epoch::pin();
        self.inner
            .store
            .table_in(table, &guard)?
            .key_of(IndexId(0), row)
    }

    fn populate(&self, table: TableId, rows: Vec<Row>) -> Result<usize> {
        self.inner.store.populate(table, rows)
    }

    fn advance_clock_past(&self, ts: Timestamp) {
        self.inner.store.clock().advance_past(ts);
    }
}

impl Engine for MvEngine {
    type Txn = MvTransaction;

    fn create_table(&self, spec: TableSpec) -> Result<TableId> {
        self.inner.store.create_table(spec)
    }

    fn begin(&self, isolation: IsolationLevel) -> MvTransaction {
        self.begin_hinted(false, &[], isolation)
    }

    fn begin_hinted(
        &self,
        read_only: bool,
        tables: &[TableId],
        isolation: IsolationLevel,
    ) -> MvTransaction {
        MvEngine::begin_hinted(self, read_only, tables, isolation)
    }

    fn stats(&self) -> &EngineStats {
        self.inner.store.stats()
    }

    fn label(&self) -> &'static str {
        match self.inner.config.cc {
            CcPolicy::Static(ConcurrencyMode::Optimistic) => "MV/O",
            CcPolicy::Static(ConcurrencyMode::Pessimistic) => "MV/L",
            CcPolicy::Adaptive { .. } => "MV/A",
        }
    }

    fn maintenance(&self) {
        self.inner.store.collect_garbage(GC_BATCH);
    }
}

impl std::fmt::Debug for MvEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvEngine")
            .field("cc", &self.inner.config.cc)
            .field("store", &self.inner.store)
            .field("detector", &self.detector.is_some())
            .field("checkpointer", &self.checkpointer.is_some())
            .finish()
    }
}

#[cfg(test)]
mod snapshot_stability_stress {
    //! Regression net for three races this suite caught during bootstrap
    //! (all fixed): the begin-draw/registration GC-watermark race (pinned
    //! deterministically by `begin_regression`), the non-atomic watermark
    //! bucket sweep, and the drawn-but-unpublished end timestamp window at
    //! precommit. Each made reads of permanently-present
    //! keys transiently return `None` under heavy concurrent updates.
    //!
    //! Two entry points share one stress round:
    //!
    //! * [`snapshot_stability_short_deadline`] runs in CI on every push. Its
    //!   total budget is env-tunable via `MMDB_GC_STRESS_MS` (default
    //!   600 ms).
    //! * [`reads_of_permanent_keys_never_return_none`] is the original long
    //!   soak (~40 s), still ignored by default; run with
    //!   `cargo test -p mmdb-core --lib snapshot_stability -- --ignored`.
    //!
    //! Each round races updaters and snapshot readers over permanent keys,
    //! plus a delete/re-insert churner and a dedicated `collect_garbage`
    //! hammer over a disjoint key range; after quiescing and draining GC it
    //! asserts the **version-count watermark**: every visible key is down to
    //! exactly one version (no watermark leak keeps superseded, deleted or
    //! poisoned versions reachable).

    use super::*;
    use mmdb_common::engine::{Engine, EngineTxn};
    use mmdb_common::ids::IndexId;
    use mmdb_common::isolation::IsolationLevel;
    use mmdb_common::row::{rowbuf, TableSpec};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const ROWS: u64 = 128;
    /// Churn range for the delete/re-insert worker (disjoint from the
    /// permanent keys so the stability invariant stays checkable).
    const EXTRA: u64 = 32;

    fn stress_round(round: u64, millis: u64) {
        let engine = MvEngine::optimistic(MvConfig::default());
        let table = engine.create_table(TableSpec::keyed_u64("t", 512)).unwrap();
        engine
            .populate(
                table,
                (0..ROWS + EXTRA).map(|id| rowbuf::keyed_row(id, 16, 1)),
            )
            .unwrap();
        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for w in 0..2u64 {
                let engine = engine.clone();
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut x = w;
                    while stop.load(Ordering::Relaxed) == 0 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let a = (x >> 33) % ROWS;
                        let b = (a + 1) % ROWS;
                        let mut txn = engine.begin(IsolationLevel::Serializable);
                        let r: mmdb_common::error::Result<()> = (|| {
                            let ra = txn.read(table, IndexId(0), a)?;
                            let rb = txn.read(table, IndexId(0), b)?;
                            let (Some(ra), Some(rb)) = (ra, rb) else {
                                panic!("round {round}: writer read None for a permanent key (a={a}, b={b})");
                            };
                            let fa = rowbuf::fill_of(&ra);
                            let fb = rowbuf::fill_of(&rb);
                            if fa > 0 {
                                txn.update(table, IndexId(0), a, rowbuf::keyed_row(a, 16, fa.wrapping_sub(1).max(1)))?;
                                txn.update(table, IndexId(0), b, rowbuf::keyed_row(b, 16, fb.wrapping_add(1).max(1)))?;
                            }
                            Ok(())
                        })();
                        match r {
                            Ok(()) => {
                                let _ = txn.commit();
                            }
                            Err(_) => txn.abort(),
                        }
                    }
                });
            }
            for _ in 0..2u64 {
                let engine = engine.clone();
                let stop = Arc::clone(&stop);
                scope.spawn(move || loop {
                    let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
                    for id in 0..ROWS {
                        assert!(
                            txn.read(table, IndexId(0), id).unwrap().is_some(),
                            "round {round}: snapshot read None for permanent key {id}"
                        );
                    }
                    txn.commit().unwrap();
                    if stop.load(Ordering::Relaxed) != 0 {
                        break;
                    }
                });
            }
            // Delete/re-insert churner racing GC over the extra key range:
            // deleted versions must be reclaimed without ever making a
            // concurrent snapshot read of a *permanent* key fail, and
            // without leaking versions past the watermark.
            {
                let engine = engine.clone();
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut x = 0xDEC0_DE00u64 | round;
                    while stop.load(Ordering::Relaxed) == 0 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let k = ROWS + (x >> 33) % EXTRA;
                        let mut txn = engine.begin(IsolationLevel::Serializable);
                        let r: mmdb_common::error::Result<()> = (|| {
                            if txn.read(table, IndexId(0), k)?.is_some() {
                                txn.delete(table, IndexId(0), k)?;
                            } else {
                                txn.insert(table, rowbuf::keyed_row(k, 16, 2))?;
                            }
                            Ok(())
                        })();
                        match r {
                            Ok(()) => {
                                let _ = txn.commit();
                            }
                            Err(_) => txn.abort(),
                        }
                    }
                });
            }
            // A dedicated collector hammering GC while deletes are in
            // flight (the cooperative after-commit step only runs every
            // `gc_every_n_commits`; this thread makes the race constant).
            {
                let engine = engine.clone();
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        engine.collect_garbage();
                        std::thread::yield_now();
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(millis));
            stop.store(1, Ordering::Relaxed);
        });

        // Quiesced: drain the GC queue completely, then assert the
        // version-count watermark — exactly one reachable version per
        // visible key, i.e. GC reclaimed every superseded, deleted and
        // poisoned version once no transaction could need it.
        while engine.collect_garbage() > 0 {}
        let mut visible = 0usize;
        let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
        for id in 0..ROWS + EXTRA {
            if txn.read(table, IndexId(0), id).unwrap().is_some() {
                visible += 1;
            }
        }
        txn.commit().unwrap();
        assert!(
            visible >= ROWS as usize,
            "round {round}: permanent keys went missing ({visible} < {ROWS})"
        );
        assert_eq!(
            engine.version_count(table).unwrap(),
            visible,
            "round {round}: after a full GC drain each visible key must be down to \
             exactly one reachable version (version-count watermark leak)"
        );
    }

    /// CI-sized variant: total budget in milliseconds comes from
    /// `MMDB_GC_STRESS_MS` (default 600), split into short rounds.
    #[test]
    fn snapshot_stability_short_deadline() {
        let budget_ms: u64 = std::env::var("MMDB_GC_STRESS_MS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(600);
        let round_ms = 50;
        let rounds = (budget_ms / round_ms).max(1);
        for round in 0..rounds {
            stress_round(round, round_ms);
        }
    }

    #[test]
    #[ignore = "long-running stress loop; run explicitly"]
    fn reads_of_permanent_keys_never_return_none() {
        for round in 0..400u64 {
            stress_round(round, 100);
        }
    }
}

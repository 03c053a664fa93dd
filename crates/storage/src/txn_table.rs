//! The transaction table and per-transaction shared state.
//!
//! Every in-flight transaction is represented by a [`TxnHandle`] registered
//! in the global [`TxnTable`]. Other transactions look handles up by ID when
//! they find a transaction ID in a version's Begin or End field (visibility
//! checks, §2.5), when they register commit dependencies (§2.7), and when
//! they install or release wait-for dependencies (§4.2).
//!
//! A handle carries exactly the per-transaction fields the paper describes:
//!
//! * `State` — Active, Preparing, Committed, Aborted (plus Terminated once
//!   postprocessing finished and the entry is about to disappear).
//! * `BeginTs` / `EndTs`.
//! * `CommitDepCounter`, `AbortNow`, `CommitDepSet` (§2.7).
//! * `WaitForCounter`, `NoMoreWaitFors`, `WaitingTxnList` (§4.2).
//!
//! The handle also owns a condition variable so a transaction can sleep while
//! it waits for its outstanding dependencies to resolve — the only place the
//! paper allows a transaction to wait (never during normal processing). Only
//! the transitions a sleeper waits for wake it (see [`TxnHandle::set_state`]),
//! so a transaction that meets no other transaction makes no system call.

use std::sync::atomic::{
    AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::epoch::{self, Atomic, Guard, Owned};
use parking_lot::{Condvar, Mutex};

use mmdb_common::hash::mix64;
use mmdb_common::ids::{Timestamp, TxnId};
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};

use crate::table::VersionPtr;

/// Lifecycle states of a transaction (Figure 2 of the paper).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TxnState {
    /// Normal processing; the transaction has a begin timestamp only.
    Active = 0,
    /// The transaction has acquired its end timestamp and is validating /
    /// waiting for dependencies / writing its log record.
    Preparing = 1,
    /// The commit is durable and visible; postprocessing may still be
    /// propagating timestamps into versions.
    Committed = 2,
    /// The transaction aborted; its new versions are garbage.
    Aborted = 3,
    /// Postprocessing finished; the handle is about to leave the table.
    Terminated = 4,
}

impl TxnState {
    fn from_u8(v: u8) -> TxnState {
        match v {
            0 => TxnState::Active,
            1 => TxnState::Preparing,
            2 => TxnState::Committed,
            3 => TxnState::Aborted,
            _ => TxnState::Terminated,
        }
    }

    /// Has the transaction reached a final outcome (committed or aborted)?
    pub fn is_final(self) -> bool {
        matches!(
            self,
            TxnState::Committed | TxnState::Aborted | TxnState::Terminated
        )
    }
}

/// Sentinel stored in the end-timestamp slot while the owning thread is
/// between drawing the timestamp and publishing it (see
/// [`TxnHandle::begin_precommit`]).
const END_TS_PENDING: u64 = u64::MAX;

/// Observed state of a transaction's end timestamp.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EndTs {
    /// Precommit has not started.
    None,
    /// The end timestamp is being drawn right now; it will appear in a few
    /// instructions (observers should re-read).
    Pending,
    /// The published end timestamp.
    At(Timestamp),
}

/// Outcome reported when registering a commit dependency on a transaction
/// that may already have finished.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DepRegistration {
    /// The dependency was registered; the target will report its outcome.
    Registered,
    /// The target has already committed; no dependency is needed.
    AlreadyCommitted,
    /// The target has already aborted; the dependent must abort too.
    AlreadyAborted,
}

/// Commit-dependency set of a transaction: the transactions that depend on
/// *this* transaction committing, plus a latch that records whether the set
/// has already been resolved (so late registrations are answered directly).
#[derive(Debug, Default)]
struct CommitDepSet {
    /// `Some(true)` once resolved by commit, `Some(false)` once resolved by
    /// abort.
    resolved: Option<bool>,
    waiters: Vec<TxnId>,
}

/// Wait-for list of a transaction: the transactions whose `WaitForCounter`
/// this transaction will decrement when it completes its normal processing
/// and releases its read/bucket locks.
#[derive(Debug, Default)]
struct WaitingTxnList {
    released: bool,
    waiters: Vec<TxnId>,
}

/// Shared, concurrently accessible state of one transaction.
#[derive(Debug)]
pub struct TxnHandle {
    id: TxnId,
    begin_ts: Timestamp,
    mode: ConcurrencyMode,
    isolation: IsolationLevel,
    state: AtomicU8,
    /// End timestamp; 0 means "not yet acquired".
    end_ts: AtomicU64,

    // --- Commit dependencies (§2.7) ---
    /// Number of unresolved commit dependencies this transaction still has.
    commit_dep_counter: AtomicI64,
    /// Set by other transactions to force this one to abort.
    abort_now: AtomicBool,
    /// Transactions that depend on this one committing.
    commit_dep_set: Mutex<CommitDepSet>,

    // --- Wait-for dependencies (§4.2) ---
    /// Incoming wait-for dependencies this transaction is still waiting on.
    wait_for_counter: AtomicI64,
    /// When set the transaction accepts no more incoming wait-for
    /// dependencies (starvation prevention).
    no_more_wait_fors: AtomicBool,
    /// Transactions waiting on this one to complete normal processing.
    waiting_txn_list: Mutex<WaitingTxnList>,
    /// Versions this transaction currently holds read locks on. Mirrors the
    /// transaction's private ReadSet so the deadlock detector can derive the
    /// *implicit* wait-for edges of §4.4 (an updater of a read-locked version
    /// waits on every reader of that version).
    read_lock_versions: Mutex<Vec<VersionPtr>>,

    // --- Sleeping / wakeup ---
    wait_lock: Mutex<()>,
    wait_cv: Condvar,
}

impl TxnHandle {
    /// Create a handle for a transaction that just acquired `begin_ts`.
    pub fn new(
        id: TxnId,
        begin_ts: Timestamp,
        mode: ConcurrencyMode,
        isolation: IsolationLevel,
    ) -> Arc<TxnHandle> {
        Arc::new(TxnHandle {
            id,
            begin_ts,
            mode,
            isolation,
            state: AtomicU8::new(TxnState::Active as u8),
            end_ts: AtomicU64::new(0),
            commit_dep_counter: AtomicI64::new(0),
            abort_now: AtomicBool::new(false),
            commit_dep_set: Mutex::new(CommitDepSet::default()),
            wait_for_counter: AtomicI64::new(0),
            no_more_wait_fors: AtomicBool::new(false),
            waiting_txn_list: Mutex::new(WaitingTxnList::default()),
            read_lock_versions: Mutex::new(Vec::new()),
            wait_lock: Mutex::new(()),
            wait_cv: Condvar::new(),
        })
    }

    /// Transaction ID.
    #[inline]
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Begin timestamp.
    #[inline]
    pub fn begin_ts(&self) -> Timestamp {
        self.begin_ts
    }

    /// Concurrency mode (optimistic / pessimistic) the transaction runs in.
    #[inline]
    pub fn mode(&self) -> ConcurrencyMode {
        self.mode
    }

    /// Isolation level the transaction runs at.
    #[inline]
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    /// Current lifecycle state.
    #[inline]
    pub fn state(&self) -> TxnState {
        TxnState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Transition to a new state: a release store and nothing else.
    ///
    /// **No wake-up, on purpose.** The only thread that ever sleeps on a
    /// handle is the transaction's own, inside [`TxnHandle::wait_until`], and
    /// the only predicates it sleeps on are [`wait_for_count`] (before
    /// precommit), [`commit_dep_count`] (before commit) and
    /// [`abort_requested`] (both). Those are changed by
    /// [`release_wait_for`], [`resolve_incoming_commit_dep`] and
    /// [`request_abort`], which do notify. Nobody sleeps on `state`:
    /// observers of another transaction's state (visibility checks, the
    /// checkpoint walk, `quiesce_precommits`) re-read or yield. A `notify()`
    /// here costs a mutex round trip and, on a `std` condition variable, a
    /// `futex` system call per transition — three per commit — to wake
    /// nobody.
    ///
    /// [`wait_for_count`]: TxnHandle::wait_for_count
    /// [`commit_dep_count`]: TxnHandle::commit_dep_count
    /// [`abort_requested`]: TxnHandle::abort_requested
    /// [`release_wait_for`]: TxnHandle::release_wait_for
    /// [`resolve_incoming_commit_dep`]: TxnHandle::resolve_incoming_commit_dep
    /// [`request_abort`]: TxnHandle::request_abort
    #[inline]
    pub fn set_state(&self, state: TxnState) {
        self.state.store(state as u8, Ordering::Release);
    }

    /// End timestamp, if the transaction has precommitted (and the
    /// timestamp is published — a pending precommit reads as `None` here;
    /// use [`TxnHandle::end_ts_state`] to distinguish).
    #[inline]
    pub fn end_ts(&self) -> Option<Timestamp> {
        match self.end_ts.load(Ordering::Acquire) {
            0 | END_TS_PENDING => None,
            raw => Some(Timestamp(raw)),
        }
    }

    /// Three-state view of the end timestamp.
    #[inline]
    pub fn end_ts_state(&self) -> EndTs {
        match self.end_ts.load(Ordering::Acquire) {
            0 => EndTs::None,
            END_TS_PENDING => EndTs::Pending,
            raw => EndTs::At(Timestamp(raw)),
        }
    }

    /// Announce that the end timestamp is about to be drawn. **Must** be
    /// called before `clock.next_timestamp()` at precommit: between the
    /// draw and [`TxnHandle::set_end_ts`] the timestamp is already ordered
    /// in the global clock but unpublished, and a thread preempted there
    /// would look like a plain Active transaction — readers would treat its
    /// writes as uncommitted, then the transaction finishes committing *in
    /// the logical past* of those readers (torn snapshots, caught by the
    /// concurrency stress tests). With the marker set, observers know a
    /// timestamp is coming and wait the few instructions until it appears.
    pub fn begin_precommit(&self) {
        self.end_ts.store(END_TS_PENDING, Ordering::Release);
    }

    /// Record the end timestamp acquired at precommit.
    pub fn set_end_ts(&self, ts: Timestamp) {
        self.end_ts.store(ts.raw(), Ordering::Release);
    }

    /// Atomically read the state and end timestamp. The paper's visibility
    /// rules need both; reading the state *after* the timestamp guarantees
    /// that if we observe Preparing/Committed the timestamp we read is the
    /// final one (the end timestamp is always written before the state
    /// switches to Preparing).
    pub fn state_and_end(&self) -> (TxnState, EndTs) {
        let ts = self.end_ts_state();
        let state = self.state();
        // If the state advanced past Active after we read a missing
        // timestamp, re-read the timestamp: it must be set by now.
        if !matches!(ts, EndTs::At(_)) && state != TxnState::Active {
            (state, self.end_ts_state())
        } else {
            (state, ts)
        }
    }

    // ------------------------------------------------------------------
    // Commit dependencies (§2.7)
    // ------------------------------------------------------------------

    /// The `AbortNow` flag.
    #[inline]
    pub fn abort_requested(&self) -> bool {
        self.abort_now.load(Ordering::Acquire)
    }

    /// Ask this transaction to abort (set `AbortNow`) and wake it.
    pub fn request_abort(&self) {
        self.abort_now.store(true, Ordering::Release);
        self.notify();
    }

    /// Number of unresolved commit dependencies.
    #[inline]
    pub fn commit_dep_count(&self) -> i64 {
        self.commit_dep_counter.load(Ordering::Acquire)
    }

    /// Note that this transaction has taken one more commit dependency.
    pub fn add_incoming_commit_dep(&self) {
        self.commit_dep_counter.fetch_add(1, Ordering::AcqRel);
    }

    /// Resolve one incoming commit dependency. If the dependency committed,
    /// the counter is decremented (waking the transaction when it reaches
    /// zero); if it aborted, `AbortNow` is set.
    pub fn resolve_incoming_commit_dep(&self, dependency_committed: bool) {
        if dependency_committed {
            let prev = self.commit_dep_counter.fetch_sub(1, Ordering::AcqRel);
            if prev <= 1 {
                self.notify();
            }
        } else {
            self.request_abort();
        }
    }

    /// Register `dependent` in this transaction's CommitDepSet. If the set
    /// was already resolved the outcome is returned instead, and the caller
    /// must resolve the dependent directly.
    pub fn add_commit_dependent(&self, dependent: TxnId) -> DepRegistration {
        let mut set = self.commit_dep_set.lock();
        match set.resolved {
            Some(true) => DepRegistration::AlreadyCommitted,
            Some(false) => DepRegistration::AlreadyAborted,
            None => {
                set.waiters.push(dependent);
                DepRegistration::Registered
            }
        }
    }

    /// Resolve this transaction's CommitDepSet with the final outcome,
    /// moving the dependents that must now be informed to the end of `into`.
    /// Subsequent registrations are answered directly from the recorded
    /// outcome. The set keeps its capacity (see [`TxnHandle::reset_for`]).
    pub fn resolve_commit_dependents(&self, committed: bool, into: &mut Vec<TxnId>) {
        let mut set = self.commit_dep_set.lock();
        set.resolved = Some(committed);
        into.append(&mut set.waiters);
    }

    // ------------------------------------------------------------------
    // Wait-for dependencies (§4.2)
    // ------------------------------------------------------------------

    /// Number of incoming wait-for dependencies still outstanding.
    #[inline]
    pub fn wait_for_count(&self) -> i64 {
        self.wait_for_counter.load(Ordering::Acquire)
    }

    /// The `NoMoreWaitFors` flag.
    #[inline]
    pub fn no_more_wait_fors(&self) -> bool {
        self.no_more_wait_fors.load(Ordering::Acquire)
    }

    /// Stop accepting incoming wait-for dependencies (called when the
    /// transaction reaches the end of normal processing and starts waiting,
    /// so new readers cannot postpone its precommit forever).
    pub fn close_wait_fors(&self) {
        self.no_more_wait_fors.store(true, Ordering::Release);
    }

    /// Try to add one incoming wait-for dependency to this transaction.
    /// Fails (returns `false`) if the transaction no longer accepts them.
    pub fn try_add_wait_for(&self) -> bool {
        if self.no_more_wait_fors() {
            return false;
        }
        self.wait_for_counter.fetch_add(1, Ordering::AcqRel);
        // Re-check: if the flag was set concurrently the counter may now be
        // ignored by the waiter, so undo and fail.
        if self.no_more_wait_fors() {
            self.release_wait_for();
            return false;
        }
        true
    }

    /// Release one incoming wait-for dependency, waking the transaction if it
    /// was the last one.
    pub fn release_wait_for(&self) {
        let prev = self.wait_for_counter.fetch_sub(1, Ordering::AcqRel);
        if prev <= 1 {
            self.notify();
        }
    }

    /// Register `waiter` in this transaction's WaitingTxnList: when this
    /// transaction completes its normal processing it will release one
    /// wait-for dependency of `waiter`. Returns `false` if the list was
    /// already drained (the caller then need not wait at all).
    pub fn add_waiting_txn(&self, waiter: TxnId) -> bool {
        let mut list = self.waiting_txn_list.lock();
        if list.released {
            return false;
        }
        list.waiters.push(waiter);
        true
    }

    /// Drain the WaitingTxnList (at precommit or abort) to the end of
    /// `into`; the caller must release one wait-for dependency of every
    /// drained transaction. The list keeps its capacity (see
    /// [`TxnHandle::reset_for`]).
    pub fn take_waiting_txns(&self, into: &mut Vec<TxnId>) {
        let mut list = self.waiting_txn_list.lock();
        list.released = true;
        into.append(&mut list.waiters);
    }

    /// Snapshot of the WaitingTxnList (deadlock detection reads the explicit
    /// wait-for edges without draining them).
    pub fn peek_waiting_txns(&self) -> Vec<TxnId> {
        self.waiting_txn_list.lock().waiters.clone()
    }

    /// Is `txn` registered in this transaction's WaitingTxnList? Checked
    /// without cloning (hot path: wait-for deduplication during scans).
    pub fn waiting_txns_contain(&self, txn: TxnId) -> bool {
        self.waiting_txn_list.lock().waiters.contains(&txn)
    }

    /// Record that this transaction read-locked `version` (deadlock-detector
    /// mirror of the ReadSet).
    pub fn record_read_lock(&self, version: VersionPtr) {
        self.read_lock_versions.lock().push(version);
    }

    /// Forget a recorded read lock (called when the lock is released).
    pub fn forget_read_lock(&self, version: VersionPtr) {
        let mut set = self.read_lock_versions.lock();
        if let Some(pos) = set.iter().position(|v| *v == version) {
            set.swap_remove(pos);
        }
    }

    /// Snapshot of the versions this transaction currently holds read locks
    /// on (used to build implicit wait-for edges during deadlock detection).
    pub fn read_locked_versions(&self) -> Vec<VersionPtr> {
        self.read_lock_versions.lock().clone()
    }

    // ------------------------------------------------------------------
    // Sleeping
    // ------------------------------------------------------------------

    /// Wake the transaction if it sleeps on this handle. Taking `wait_lock`
    /// orders this against a sleeper that checked its predicate and is about
    /// to wait; with nobody waiting the notification itself is one load.
    pub fn notify(&self) {
        let _guard = self.wait_lock.lock();
        self.wait_cv.notify_all();
    }

    /// Re-initialize a recycled handle for a fresh transaction. Requires
    /// exclusive access (`Arc::get_mut` — the engine's handle pool only
    /// recycles handles whose strong count is back to one, which the
    /// epoch-deferred release of the transaction-table slot reference
    /// guarantees cannot happen while any lock-free lookup still borrows the
    /// handle). Waiter lists keep their capacity: a recycled handle's
    /// steady-state registration allocates nothing.
    pub fn reset_for(
        &mut self,
        id: TxnId,
        begin_ts: Timestamp,
        mode: ConcurrencyMode,
        isolation: IsolationLevel,
    ) {
        self.id = id;
        self.begin_ts = begin_ts;
        self.mode = mode;
        self.isolation = isolation;
        *self.state.get_mut() = TxnState::Active as u8;
        *self.end_ts.get_mut() = 0;
        *self.commit_dep_counter.get_mut() = 0;
        *self.abort_now.get_mut() = false;
        let deps = self.commit_dep_set.get_mut();
        deps.resolved = None;
        deps.waiters.clear();
        *self.wait_for_counter.get_mut() = 0;
        *self.no_more_wait_fors.get_mut() = false;
        let waiting = self.waiting_txn_list.get_mut();
        waiting.released = false;
        waiting.waiters.clear();
        self.read_lock_versions.get_mut().clear();
    }

    /// Sleep until `done()` returns true or `timeout` elapses. Returns the
    /// final value of `done()`.
    ///
    /// Used for the two sanctioned waits: "wait for outstanding wait-for
    /// dependencies before precommit" and "wait for outstanding commit
    /// dependencies before commit".
    pub fn wait_until<F: Fn() -> bool>(&self, done: F, timeout: Duration) -> bool {
        self.wait_until_chunked(done, timeout, WAIT_CHUNK)
    }

    /// [`TxnHandle::wait_until`] with the bounded sleep as a parameter, so
    /// tests can make a lost wake-up visible instead of papered over.
    fn wait_until_chunked<F: Fn() -> bool>(
        &self,
        done: F,
        timeout: Duration,
        chunk: Duration,
    ) -> bool {
        if done() {
            return true;
        }
        let deadline = Instant::now() + timeout;
        let mut guard = self.wait_lock.lock();
        loop {
            if done() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return done();
            }
            self.wait_cv
                .wait_for(&mut guard, (deadline - now).min(chunk));
        }
    }
}

/// Longest single sleep inside [`TxnHandle::wait_until`]: a missed
/// notification can never hang a thread, it costs at most this.
const WAIT_CHUNK: Duration = Duration::from_millis(2);

/// Number of shards in the transaction table.
const TXN_SHARDS: usize = 64;

/// Initial slot count per shard (power of two). Grows on demand.
const SHARD_INITIAL_SLOTS: usize = 32;

/// Slot-id sentinel: never occupied.
const SLOT_EMPTY: u64 = 0;
/// Slot-id sentinel: previously occupied, handle removed (probes continue
/// past it; inserts reuse it).
const SLOT_TOMBSTONE: u64 = u64::MAX;

/// One slot of a shard's open-addressed array. The handle pointer is a raw
/// strong reference produced by `Arc::into_raw` — registering a transaction
/// bumps a reference count instead of allocating a heap node, which is what
/// keeps a warmed `begin` allocation-free. `id` is written last on insert
/// (Release) so a reader that observes a matching id also observes the
/// handle pointer; the pointed-to handle carries the id again so a reader
/// that races a remove+reuse of the slot detects the new tenant.
struct Slot {
    id: AtomicU64,
    handle: AtomicPtr<TxnHandle>,
}

/// A shard's slot array. The whole array is one epoch-managed allocation:
/// writers rebuild and swap it when it fills up with live entries or
/// tombstones, readers traverse whichever array they loaded under their
/// guard. The strong references in the slots are *moved* into the rebuilt
/// array (raw pointers copied, no reference-count traffic); only removal
/// defers the release of a slot's reference.
struct SlotArray {
    slots: Box<[Slot]>,
}

impl SlotArray {
    fn with_capacity(capacity: usize) -> SlotArray {
        debug_assert!(capacity.is_power_of_two());
        SlotArray {
            slots: (0..capacity)
                .map(|_| Slot {
                    id: AtomicU64::new(SLOT_EMPTY),
                    handle: AtomicPtr::new(std::ptr::null_mut()),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Writer-side insert of a fresh id (exclusive access to mutation — the
    /// shard write lock is held; readers may be probing concurrently).
    /// Returns whether a tombstone was consumed.
    fn insert(&self, id: u64, handle: *mut TxnHandle) -> bool {
        let mask = self.mask();
        let mut idx = mix64(id) as usize & mask;
        loop {
            let slot = &self.slots[idx];
            let sid = slot.id.load(Ordering::Relaxed);
            if sid == SLOT_EMPTY || sid == SLOT_TOMBSTONE {
                // Publish the handle before the id: a reader that sees the
                // id (Acquire) then reads a fully initialized pointer.
                slot.handle.store(handle, Ordering::Release);
                slot.id.store(id, Ordering::Release);
                return sid == SLOT_TOMBSTONE;
            }
            debug_assert_ne!(sid, id, "transaction ids are registered once");
            idx = (idx + 1) & mask;
        }
    }
}

/// `Send` wrapper for the raw strong reference released by a deferred
/// [`TxnTable::remove`].
struct HandleRef(*const TxnHandle);
// SAFETY: the wrapped pointer is a strong `Arc` reference; releasing it from
// any thread is what `Arc` is for.
unsafe impl Send for HandleRef {}

/// One shard: a write lock serializing register/remove/rebuild, plus the
/// epoch-protected slot array that `get_in` traverses without any lock.
struct Shard {
    writer: Mutex<ShardWriter>,
    slots: Atomic<SlotArray>,
}

/// Writer-side bookkeeping of a shard (guarded by `Shard::writer`).
struct ShardWriter {
    live: usize,
    tombstones: usize,
}

/// The global transaction table: transaction ID → handle.
///
/// Lookups ([`TxnTable::get_in`]) are **lock-free**: they probe an
/// open-addressed slot array under an epoch guard — no reader/writer lock,
/// no `Arc` clone. This matters because the
/// visibility check of §2.5 performs a lookup for every version whose Begin
/// or End field holds a transaction id, i.e. on the hottest read path in the
/// system. Mutations (`register`/`remove`) take a per-shard mutex; they
/// happen twice per transaction, not per version inspected.
pub struct TxnTable {
    shards: Box<[Shard]>,
    /// Number of threads currently between drawing a begin timestamp and
    /// registering the handle. While non-zero, the garbage-collection
    /// watermark must not advance: the pending transaction's begin timestamp
    /// may be arbitrarily old by the time it registers (the thread can be
    /// preempted in that window), and reclaiming a version it still needs
    /// makes its reads come up empty.
    pending_begins: AtomicUsize,
}

/// RAII guard for the draw-timestamp → register window of `begin`. Obtained
/// from [`TxnTable::pending_begin`]; hold it across the timestamp draw and
/// the [`TxnTable::register`] call.
pub struct PendingBegin<'a> {
    table: &'a TxnTable,
}

impl Drop for PendingBegin<'_> {
    fn drop(&mut self) {
        self.table.pending_begins.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Default for TxnTable {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnTable {
    /// Create an empty table.
    pub fn new() -> TxnTable {
        TxnTable {
            shards: (0..TXN_SHARDS)
                .map(|_| Shard {
                    writer: Mutex::new(ShardWriter {
                        live: 0,
                        tombstones: 0,
                    }),
                    slots: Atomic::new(SlotArray::with_capacity(SHARD_INITIAL_SLOTS)),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            pending_begins: AtomicUsize::new(0),
        }
    }

    /// Mark the start of a `begin` operation. The returned guard must stay
    /// alive until the new handle is registered; while any such guard exists,
    /// [`TxnTable::min_active_begin`] reports [`Timestamp::ZERO`] so the
    /// garbage collector reclaims nothing.
    pub fn pending_begin(&self) -> PendingBegin<'_> {
        self.pending_begins.fetch_add(1, Ordering::AcqRel);
        PendingBegin { table: self }
    }

    /// True while any thread is between drawing a begin timestamp and
    /// registering its handle.
    pub fn has_pending_begins(&self) -> bool {
        self.pending_begins.load(Ordering::Acquire) > 0
    }

    #[inline]
    fn shard(&self, id: TxnId) -> &Shard {
        &self.shards[(id.0 as usize) % TXN_SHARDS]
    }

    /// Register a handle. Steady state performs **no heap allocation**: the
    /// slot stores a raw strong reference (`Arc::into_raw` — a refcount
    /// bump), and removals convert their slot back to `EMPTY` whenever the
    /// probe chain allows it, so begin/commit churn does not accumulate
    /// tombstones toward a rebuild.
    pub fn register(&self, handle: Arc<TxnHandle>) {
        let id = handle.id().0;
        debug_assert!(
            id != SLOT_EMPTY && id != SLOT_TOMBSTONE,
            "transaction ids must avoid the slot sentinels"
        );
        let shard = self.shard(handle.id());
        let mut writer = shard.writer.lock();
        let guard = epoch::pin();
        let mut array = unsafe { shard.slots.load(Ordering::Acquire, &guard).deref() };
        // Rebuild when live entries + tombstones would cross half the
        // capacity: keeps probe chains short and recycles tombstones, so a
        // long-running table never degrades to full-array probes.
        if (writer.live + writer.tombstones + 1) * 2 > array.slots.len() {
            array = Self::rebuild(shard, &mut writer, array, &guard);
        }
        if array.insert(id, Arc::into_raw(handle) as *mut TxnHandle) {
            writer.tombstones -= 1;
        }
        writer.live += 1;
    }

    /// Look a transaction up without taking any lock or touching the
    /// handle's reference count: the returned borrow lives as long as the
    /// caller's epoch guard. This is the §2.5 visibility-path entry point —
    /// one lookup per version whose Begin/End field holds a transaction id.
    ///
    /// Returns `None` if the transaction has terminated and been removed —
    /// per the paper that means its version timestamps have been finalized,
    /// so callers re-read the version field.
    #[inline]
    pub fn get_in<'g>(&self, id: TxnId, guard: &'g Guard) -> Option<&'g TxnHandle> {
        let shard = self.shard(id);
        let array = unsafe { shard.slots.load(Ordering::Acquire, guard).deref() };
        let mask = array.mask();
        let mut idx = mix64(id.0) as usize & mask;
        for _ in 0..array.slots.len() {
            let slot = &array.slots[idx];
            match slot.id.load(Ordering::Acquire) {
                SLOT_EMPTY => return None,
                sid if sid == id.0 => {
                    let ptr = slot.handle.load(Ordering::Acquire);
                    // SAFETY: the slot's strong reference is released through
                    // the epoch machinery, so a pointer loaded under our
                    // guard stays valid until we unpin.
                    match unsafe { ptr.as_ref() } {
                        // Verify the tenant: between our id load and the
                        // handle load the writer may have tombstoned the slot
                        // and reused it for a different transaction. Ids are
                        // never re-registered, so a mismatch means our target
                        // was removed.
                        Some(handle) if handle.id() == id => return Some(handle),
                        _ => return None,
                    }
                }
                _ => {}
            }
            idx = (idx + 1) & mask;
        }
        None
    }

    /// Remove a terminated transaction. The slot's strong reference is
    /// released through the epoch machinery so lock-free lookups that
    /// already loaded the pointer stay sound; when the next slot in the
    /// probe chain is empty the slot reverts to `EMPTY` instead of a
    /// tombstone (no probe chain can pass through it), so steady-state
    /// begin/commit churn never accumulates occupancy toward a rebuild.
    pub fn remove(&self, id: TxnId) {
        let shard = self.shard(id);
        let mut writer = shard.writer.lock();
        let guard = epoch::pin();
        let array = unsafe { shard.slots.load(Ordering::Acquire, &guard).deref() };
        let mask = array.mask();
        let mut idx = mix64(id.0) as usize & mask;
        for _ in 0..array.slots.len() {
            let slot = &array.slots[idx];
            match slot.id.load(Ordering::Relaxed) {
                SLOT_EMPTY => return,
                sid if sid == id.0 => {
                    // Mark the slot first; the handle pointer stays readable
                    // for lookups that loaded the old id a moment ago (they
                    // linearize before this remove). A probe for any id that
                    // passes through this slot terminates at the next slot
                    // anyway when that one is EMPTY, so converting to EMPTY
                    // is indistinguishable to readers — and keeps the shard's
                    // occupancy flat under begin/commit churn.
                    let next_empty =
                        array.slots[(idx + 1) & mask].id.load(Ordering::Relaxed) == SLOT_EMPTY;
                    if next_empty {
                        slot.id.store(SLOT_EMPTY, Ordering::Release);
                    } else {
                        slot.id.store(SLOT_TOMBSTONE, Ordering::Release);
                        writer.tombstones += 1;
                    }
                    writer.live -= 1;
                    let ptr = slot.handle.load(Ordering::Relaxed);
                    if !ptr.is_null() {
                        let release = HandleRef(ptr);
                        // SAFETY: releases the slot's strong reference once
                        // every currently pinned reader (which may still
                        // borrow the handle through `get_in`) has drained.
                        // The closure is two words — deferred inline, no
                        // allocation.
                        unsafe {
                            guard.defer_unchecked(move || {
                                // Capture the whole wrapper (edition-2021
                                // disjoint capture would otherwise grab the
                                // raw, non-`Send` field).
                                let release = release;
                                drop(Arc::from_raw(release.0));
                            });
                        }
                    }
                    return;
                }
                _ => {}
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Rebuild a shard's slot array (grow + drop tombstones), publish it, and
    /// defer destruction of the old array. Caller holds the shard write lock.
    /// The slots' strong references move to the new array (raw pointers
    /// copied; no reference-count traffic), so destroying the old array frees
    /// only the array itself.
    fn rebuild<'g>(
        shard: &Shard,
        writer: &mut ShardWriter,
        old: &SlotArray,
        guard: &'g Guard,
    ) -> &'g SlotArray {
        let capacity = ((writer.live + 1) * 4)
            .next_power_of_two()
            .max(SHARD_INITIAL_SLOTS);
        let fresh = SlotArray::with_capacity(capacity);
        for slot in old.slots.iter() {
            let sid = slot.id.load(Ordering::Relaxed);
            if sid == SLOT_EMPTY || sid == SLOT_TOMBSTONE {
                continue;
            }
            fresh.insert(sid, slot.handle.load(Ordering::Relaxed));
        }
        writer.tombstones = 0;
        let published = Owned::new(fresh).into_shared(guard);
        let old_shared = shard.slots.load(Ordering::Relaxed, guard);
        shard.slots.store(published, Ordering::Release);
        // SAFETY: the array is unreachable to new readers; pinned readers
        // keep it alive until they unpin. The strong references moved to the
        // new array, so freeing the old one releases nothing else.
        unsafe { guard.defer_destroy(old_shared) };
        unsafe { published.deref() }
    }

    /// Walk every registered handle under one epoch pin. Not atomic with
    /// respect to concurrent register/remove (see `min_active_begin`).
    fn for_each_handle(&self, mut f: impl FnMut(&TxnHandle)) {
        let guard = epoch::pin();
        for shard in self.shards.iter() {
            let array = unsafe { shard.slots.load(Ordering::Acquire, &guard).deref() };
            for slot in array.slots.iter() {
                let sid = slot.id.load(Ordering::Acquire);
                if sid == SLOT_EMPTY || sid == SLOT_TOMBSTONE {
                    continue;
                }
                let ptr = slot.handle.load(Ordering::Acquire);
                // SAFETY: as in `get_in`.
                if let Some(handle) = unsafe { ptr.as_ref() } {
                    if handle.id().0 == sid {
                        f(handle);
                    }
                }
            }
        }
    }

    /// Number of registered (non-terminated) transactions.
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.for_each_handle(|_| n += 1);
        n
    }

    /// True when no transactions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Minimum begin timestamp over all registered transactions.
    ///
    /// **Caveat for reclamation:** the shard-by-shard sweep is not atomic — a
    /// transaction that registers into an already-visited shard while the
    /// sweep is running is missed. Such a transaction necessarily drew its
    /// begin timestamp after the sweep started (anything earlier is caught by
    /// the pending-begin check), so callers using this as a garbage-collection
    /// watermark must additionally clamp it to a clock value read *before*
    /// the sweep (see `MvStore::collect_garbage`).
    pub fn min_active_begin(&self) -> Option<Timestamp> {
        if self.pending_begins.load(Ordering::Acquire) > 0 {
            // A transaction is mid-`begin`: its (possibly already drawn,
            // arbitrarily old) timestamp is not in the table yet, so no
            // watermark above zero is safe.
            return Some(Timestamp::ZERO);
        }
        let mut min: Option<Timestamp> = None;
        self.for_each_handle(|handle| {
            let b = handle.begin_ts();
            min = Some(match min {
                Some(m) if m <= b => m,
                _ => b,
            });
        });
        min
    }

    /// Snapshot of every registered handle (deadlock detection, diagnostics).
    pub fn snapshot(&self) -> Vec<Arc<TxnHandle>> {
        let mut out = Vec::new();
        self.for_each_handle(|handle| {
            let raw = handle as *const TxnHandle;
            // SAFETY: `raw` is a strong reference held by the slot, which
            // cannot be released while `for_each_handle` keeps us pinned;
            // incrementing the count and reconstructing from it yields an
            // independent clone.
            unsafe {
                Arc::increment_strong_count(raw);
                out.push(Arc::from_raw(raw));
            }
        });
        out
    }
}

impl Drop for TxnTable {
    fn drop(&mut self) {
        // Exclusive access: release the live slots' strong references and
        // free every shard's current array directly. Removed entries and
        // superseded arrays were already handed to the epoch collector.
        let guard = epoch::pin();
        for shard in self.shards.iter() {
            let array = shard.slots.load(Ordering::Acquire, &guard);
            if let Some(slots) = unsafe { array.as_ref() } {
                for slot in slots.slots.iter() {
                    let sid = slot.id.load(Ordering::Relaxed);
                    if sid == SLOT_EMPTY || sid == SLOT_TOMBSTONE {
                        continue;
                    }
                    let ptr = slot.handle.load(Ordering::Relaxed);
                    if !ptr.is_null() {
                        unsafe { drop(Arc::from_raw(ptr)) };
                    }
                }
            }
            if !array.is_null() {
                unsafe { drop(array.into_owned()) };
            }
        }
    }
}

impl std::fmt::Debug for TxnTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnTable")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(id: u64, begin: u64) -> Arc<TxnHandle> {
        TxnHandle::new(
            TxnId(id),
            Timestamp(begin),
            ConcurrencyMode::Optimistic,
            IsolationLevel::Serializable,
        )
    }

    #[test]
    fn lifecycle_states() {
        let h = handle(1, 10);
        assert_eq!(h.state(), TxnState::Active);
        assert_eq!(h.end_ts(), None);
        h.set_end_ts(Timestamp(20));
        h.set_state(TxnState::Preparing);
        assert_eq!(
            h.state_and_end(),
            (TxnState::Preparing, EndTs::At(Timestamp(20)))
        );
        h.set_state(TxnState::Committed);
        assert!(h.state().is_final());
    }

    #[test]
    fn commit_dep_register_and_resolve() {
        let target = handle(1, 10);
        let dependent = handle(2, 11);

        dependent.add_incoming_commit_dep();
        assert_eq!(
            target.add_commit_dependent(dependent.id()),
            DepRegistration::Registered
        );
        assert_eq!(dependent.commit_dep_count(), 1);

        let mut waiters = Vec::new();
        target.resolve_commit_dependents(true, &mut waiters);
        assert_eq!(waiters, vec![TxnId(2)]);
        dependent.resolve_incoming_commit_dep(true);
        assert_eq!(dependent.commit_dep_count(), 0);
        assert!(!dependent.abort_requested());
    }

    #[test]
    fn commit_dep_after_resolution_is_answered_directly() {
        let target = handle(1, 10);
        target.resolve_commit_dependents(true, &mut Vec::new());
        assert_eq!(
            target.add_commit_dependent(TxnId(9)),
            DepRegistration::AlreadyCommitted
        );

        let aborted = handle(3, 12);
        aborted.resolve_commit_dependents(false, &mut Vec::new());
        assert_eq!(
            aborted.add_commit_dependent(TxnId(9)),
            DepRegistration::AlreadyAborted
        );
    }

    #[test]
    fn abort_cascades_through_abort_now() {
        let dependent = handle(2, 11);
        dependent.add_incoming_commit_dep();
        dependent.resolve_incoming_commit_dep(false);
        assert!(dependent.abort_requested());
    }

    #[test]
    fn wait_for_counter_and_flag() {
        let t = handle(5, 20);
        assert!(t.try_add_wait_for());
        assert!(t.try_add_wait_for());
        assert_eq!(t.wait_for_count(), 2);
        t.release_wait_for();
        t.release_wait_for();
        assert_eq!(t.wait_for_count(), 0);

        t.close_wait_fors();
        assert!(
            !t.try_add_wait_for(),
            "NoMoreWaitFors must refuse new dependencies"
        );
        assert_eq!(t.wait_for_count(), 0);
    }

    #[test]
    fn waiting_txn_list_drains_once() {
        let t = handle(5, 20);
        assert!(t.add_waiting_txn(TxnId(8)));
        assert!(t.add_waiting_txn(TxnId(9)));
        assert_eq!(t.peek_waiting_txns().len(), 2);
        let mut drained = Vec::new();
        t.take_waiting_txns(&mut drained);
        assert_eq!(drained, vec![TxnId(8), TxnId(9)]);
        assert!(
            !t.add_waiting_txn(TxnId(10)),
            "registrations after release are refused"
        );
        t.take_waiting_txns(&mut drained);
        assert_eq!(drained.len(), 2, "a second drain finds nothing");
    }

    #[test]
    fn wait_until_returns_when_woken() {
        let t = handle(1, 1);
        t.add_incoming_commit_dep();
        let t2 = Arc::clone(&t);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            t2.resolve_incoming_commit_dep(true);
        });
        let ok = t.wait_until(|| t.commit_dep_count() == 0, Duration::from_secs(5));
        waker.join().unwrap();
        assert!(ok);
    }

    /// Each transition a sleeper waits for must wake it. The production
    /// 2 ms bounded sleep would hide a missing `notify()`, so the waiter here
    /// sleeps in one unbounded chunk: a lost wake-up runs into the deadline.
    #[test]
    fn each_awaited_transition_wakes_a_parked_waiter() {
        type Step = fn(&TxnHandle);
        // (name, what makes the transaction wait, what must wake it)
        let cases: [(&str, Step, Step); 3] = [
            (
                "release_wait_for",
                |t| assert!(t.try_add_wait_for()),
                |t| t.release_wait_for(),
            ),
            (
                "resolve_incoming_commit_dep(true)",
                |t| t.add_incoming_commit_dep(),
                |t| t.resolve_incoming_commit_dep(true),
            ),
            (
                "request_abort",
                |t| t.add_incoming_commit_dep(),
                |t| t.request_abort(),
            ),
        ];
        let lost = Duration::from_secs(20);
        for (name, arm, wake) in cases {
            let t = handle(1, 1);
            arm(&t);
            let checks = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| {
                    let started = Instant::now();
                    let done = t.wait_until_chunked(
                        || {
                            checks.fetch_add(1, Ordering::SeqCst);
                            (t.wait_for_count() <= 0 && t.commit_dep_count() <= 0)
                                || t.abort_requested()
                        },
                        lost,
                        lost,
                    );
                    (done, started.elapsed())
                });
                // The second check runs under `wait_lock`, which the waiter
                // gives up only inside the condition variable's wait — and
                // `notify()` takes that lock, so the wake-up below finds the
                // waiter parked.
                while checks.load(Ordering::SeqCst) < 2 {
                    std::thread::yield_now();
                }
                wake(&t);
                let (done, waited) = waiter.join().unwrap();
                assert!(done, "{name}: the waiter gave up");
                assert!(
                    waited < lost / 2,
                    "{name} did not wake the waiter (it slept {waited:?})"
                );
            });
        }
    }

    #[test]
    fn wait_until_times_out() {
        let t = handle(1, 1);
        t.add_incoming_commit_dep();
        let ok = t.wait_until(|| t.commit_dep_count() == 0, Duration::from_millis(30));
        assert!(!ok);
    }

    #[test]
    fn txn_table_register_lookup_remove() {
        let table = TxnTable::new();
        assert!(table.is_empty());
        for i in 1..=100u64 {
            table.register(handle(i, i + 1000));
        }
        assert_eq!(table.len(), 100);
        let guard = crossbeam::epoch::pin();
        assert_eq!(table.get_in(TxnId(37), &guard).unwrap().id(), TxnId(37));
        assert!(table.get_in(TxnId(999), &guard).is_none());
        assert_eq!(table.min_active_begin(), Some(Timestamp(1001)));
        table.remove(TxnId(1));
        assert_eq!(table.len(), 99);
        assert_eq!(table.min_active_begin(), Some(Timestamp(1002)));
        assert_eq!(table.snapshot().len(), 99);
    }

    #[test]
    fn min_active_begin_empty_is_none() {
        let table = TxnTable::new();
        assert_eq!(table.min_active_begin(), None);
    }

    #[test]
    fn get_in_borrows_under_the_callers_guard() {
        let table = TxnTable::new();
        table.register(handle(7, 70));
        let guard = crossbeam::epoch::pin();
        let borrowed = table.get_in(TxnId(7), &guard).expect("registered");
        assert_eq!(borrowed.id(), TxnId(7));
        assert_eq!(borrowed.begin_ts(), Timestamp(70));
        assert!(table.get_in(TxnId(8), &guard).is_none());
        // The borrow stays valid across a concurrent remove: the node is
        // deferred, not freed, while our guard is pinned.
        table.remove(TxnId(7));
        assert_eq!(borrowed.begin_ts(), Timestamp(70));
        assert!(table.get_in(TxnId(7), &guard).is_none());
    }

    #[test]
    fn single_shard_churn_recycles_tombstones_and_rebuilds() {
        // Ids congruent mod 64 all land in one shard; ten thousand
        // register/remove cycles force tombstone reuse and several rebuilds
        // while a handful of long-lived entries must stay findable.
        let table = TxnTable::new();
        let pinned: Vec<u64> = (1..=5).map(|i| i * 64).collect();
        for &id in &pinned {
            table.register(handle(id, id));
        }
        for round in 0..10_000u64 {
            let id = 64 * (round + 100);
            table.register(handle(id, id));
            let guard = crossbeam::epoch::pin();
            assert_eq!(table.get_in(TxnId(id), &guard).unwrap().id(), TxnId(id));
            table.remove(TxnId(id));
            assert!(table.get_in(TxnId(id), &guard).is_none());
        }
        assert_eq!(table.len(), pinned.len());
        let guard = crossbeam::epoch::pin();
        for &id in &pinned {
            assert_eq!(
                table.get_in(TxnId(id), &guard).unwrap().begin_ts(),
                Timestamp(id),
                "long-lived entry survived churn"
            );
        }
    }

    #[test]
    fn concurrent_lookups_during_register_remove_churn() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let table = Arc::new(TxnTable::new());
        // A permanent resident every reader must always find.
        table.register(handle(1, 11));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for reader in 0..3 {
                let table = Arc::clone(&table);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let guard = crossbeam::epoch::pin();
                        let h = table
                            .get_in(TxnId(1), &guard)
                            .unwrap_or_else(|| panic!("reader {reader} lost the resident"));
                        assert_eq!(h.begin_ts(), Timestamp(11));
                    }
                });
            }
            for w in 0..2u64 {
                let table = Arc::clone(&table);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Writer-disjoint id streams; some share the
                        // resident's shard (multiples of 64).
                        let id = 2 + w + 2 * i;
                        table.register(handle(id + 64, id));
                        table.remove(TxnId(id + 64));
                        i += 1;
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(100));
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn pending_begin_blocks_the_watermark() {
        let table = TxnTable::new();
        table.register(handle(1, 500));
        assert_eq!(table.min_active_begin(), Some(Timestamp(500)));
        {
            let _guard = table.pending_begin();
            assert!(table.has_pending_begins());
            assert_eq!(
                table.min_active_begin(),
                Some(Timestamp::ZERO),
                "a transaction mid-begin must pin the watermark at zero"
            );
        }
        assert!(!table.has_pending_begins());
        assert_eq!(table.min_active_begin(), Some(Timestamp(500)));
    }

    #[test]
    fn precommit_pending_is_not_a_published_timestamp() {
        let h = handle(1, 10);
        assert_eq!(h.end_ts_state(), EndTs::None);
        h.begin_precommit();
        assert_eq!(h.end_ts_state(), EndTs::Pending);
        assert_eq!(
            h.end_ts(),
            None,
            "a pending draw must not read as a timestamp"
        );
        assert_eq!(h.state_and_end(), (TxnState::Active, EndTs::Pending));
        h.set_end_ts(Timestamp(20));
        assert_eq!(h.end_ts_state(), EndTs::At(Timestamp(20)));
        assert_eq!(
            h.state_and_end(),
            (TxnState::Active, EndTs::At(Timestamp(20)))
        );
    }
}

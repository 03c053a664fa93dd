//! The transaction table and per-transaction shared state.
//!
//! Every in-flight transaction is represented by a [`TxnHandle`] registered
//! in the global [`TxnTable`]. Other transactions look handles up by ID when
//! they find a transaction ID in a version's Begin or End field (visibility
//! checks, §2.5), when they register commit dependencies (§2.7), and when
//! they install or release wait-for dependencies (§4.2). The table is the
//! same latch-free chained hash the versions are indexed by (§2.1,
//! `mmdb_index::chain`), with the handle as its own chain node.
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

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::epoch::{self, Atomic, Guard, Shared};
use parking_lot::{Condvar, Mutex};

use mmdb_common::ids::{Key, Timestamp, TxnId};
use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
use mmdb_index::chain::{ChainNode, HashIndex};

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
    /// Begin timestamp; 0 until [`TxnHandle::set_begin_ts`] publishes it.
    /// Release store, acquire load; it publishes nothing but itself.
    begin_ts: AtomicU64,
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
    /// Versions this transaction currently holds read locks on (one entry
    /// per lock): the list its lock release drains, and the one the
    /// deadlock detector derives the *implicit* wait-for edges of §4.4 from
    /// (an updater of a read-locked version waits on every reader of that
    /// version).
    read_lock_versions: Mutex<Vec<VersionPtr>>,

    // --- Sleeping / wakeup ---
    wait_lock: Mutex<()>,
    wait_cv: Condvar,

    /// Link to the next handle in this one's [`TxnTable`] bucket chain.
    next: Atomic<TxnHandle>,
}

impl TxnHandle {
    /// Create a handle for a transaction whose begin timestamp is `begin_ts`
    /// ([`Timestamp::ZERO`] for one whose timestamp is not drawn yet).
    pub fn new(
        id: TxnId,
        begin_ts: Timestamp,
        mode: ConcurrencyMode,
        isolation: IsolationLevel,
    ) -> Arc<TxnHandle> {
        Arc::new(TxnHandle {
            id,
            begin_ts: AtomicU64::new(begin_ts.raw()),
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
            next: Atomic::null(),
        })
    }

    /// Transaction ID.
    #[inline]
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Begin timestamp ([`Timestamp::ZERO`] while unpublished).
    #[inline]
    pub fn begin_ts(&self) -> Timestamp {
        Timestamp(self.begin_ts.load(Ordering::Acquire))
    }

    /// Publish the begin timestamp, drawn after the handle was registered
    /// (see `MvStore::collect_garbage` for why in that order).
    #[inline]
    pub fn set_begin_ts(&self, ts: Timestamp) {
        self.begin_ts.store(ts.raw(), Ordering::Release);
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

    /// Record that this transaction read-locked `version`.
    pub fn record_read_lock(&self, version: VersionPtr) {
        self.read_lock_versions.lock().push(version);
    }

    /// Move every recorded read lock to the end of `into`, for release. The
    /// list keeps its capacity (see [`TxnHandle::reset_for`]).
    pub fn take_read_locks(&self, into: &mut Vec<VersionPtr>) {
        into.append(&mut self.read_lock_versions.lock());
    }

    /// Forget every read lock recorded on `version` and return how many
    /// there were (a lock upgrade drops its own read locks).
    pub fn remove_read_locks_on(&self, version: VersionPtr) -> usize {
        let mut set = self.read_lock_versions.lock();
        let before = set.len();
        set.retain(|v| *v != version);
        before - set.len()
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

    /// Re-initialize a recycled handle for a fresh transaction, its begin
    /// timestamp unpublished (0). Requires
    /// exclusive access (`Arc::get_mut` — the engine's handle pool only
    /// recycles handles whose strong count is back to one, which the
    /// epoch-deferred release of the transaction table's reference
    /// guarantees cannot happen while any lock-free lookup still borrows the
    /// handle or walks through it). Waiter lists keep their capacity: a
    /// recycled handle's steady-state registration allocates nothing.
    pub fn reset_for(&mut self, id: TxnId, mode: ConcurrencyMode, isolation: IsolationLevel) {
        self.id = id;
        *self.begin_ts.get_mut() = 0;
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

/// Buckets of the transaction table. Fixed: the table holds the in-flight
/// transactions, a handful per thread, not the rows they touch.
const TXN_BUCKETS: usize = 256;

/// Mutexes serializing [`TxnTable::remove`]; bucket `b` takes stripe
/// `b % UNLINK_STRIPES`.
const UNLINK_STRIPES: usize = 16;

impl ChainNode for TxnHandle {
    fn next_ptr(&self, _slot: usize) -> &Atomic<TxnHandle> {
        &self.next
    }

    fn key(&self, _slot: usize) -> Key {
        self.id.0
    }
}

/// `Send` wrapper for the raw strong reference released by a deferred
/// [`TxnTable::remove`].
struct HandleRef(*const TxnHandle);
// SAFETY: the wrapped pointer is a strong `Arc` reference; releasing it from
// any thread is what `Arc` is for.
unsafe impl Send for HandleRef {}

/// The global transaction table: transaction ID → handle.
///
/// The same latch-free chained hash the versions live in (§2.1), over the
/// handles themselves: a registered handle is linked into its id's bucket
/// through [`TxnHandle`]'s own next pointer, and the chain owns one strong
/// `Arc` reference to it (`Arc::into_raw` — a refcount bump, no heap node).
/// [`TxnTable::register`] is a CAS push and [`TxnTable::get_in`] walks one
/// chain under the caller's epoch guard; neither takes a lock. This matters
/// because the visibility check of §2.5 performs a lookup for every version
/// whose Begin or End field holds a transaction id, i.e. on the hottest read
/// path in the system. Only [`TxnTable::remove`] takes a mutex — its bucket's
/// unlink stripe — once per transaction, not per version inspected.
pub struct TxnTable {
    index: HashIndex<TxnHandle>,
    /// Serializes unlinks within a bucket (the `HashIndex` contract): two
    /// removers of adjacent handles could otherwise leave the second one
    /// reachable forever, pinning the garbage-collection watermark.
    unlink_stripes: [Mutex<()>; UNLINK_STRIPES],
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
            index: HashIndex::new(0, TXN_BUCKETS),
            unlink_stripes: std::array::from_fn(|_| Mutex::new(())),
        }
    }

    /// Register a handle under its id (any `u64`; none is reserved): a CAS
    /// push onto the id's bucket chain. No lock and **no heap allocation** —
    /// the chain takes over the caller's strong reference.
    ///
    /// The handle must not be registered already. Registering the same
    /// handle again after its [`TxnTable::remove`] is fine.
    pub fn register(&self, handle: Arc<TxnHandle>) {
        let guard = epoch::pin();
        self.index
            .insert(Shared::from(Arc::into_raw(handle)), &guard);
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
        self.index
            .iter_key(id.0, guard)
            // SAFETY: the chain's strong reference is released through the
            // epoch machinery, so a handle reached under our guard — linked
            // or unlinked a moment ago — stays valid until we unpin.
            .map(|node| unsafe { node.deref() })
            .find(|handle| handle.id() == id)
    }

    /// Remove a terminated transaction: unlink its handle under the bucket's
    /// stripe and release the chain's strong reference through the epoch
    /// machinery, so lookups standing on the handle stay sound. The handle
    /// keeps its next pointer, and nobody resets it before that release ran
    /// (see [`TxnHandle::reset_for`]), so a walk passes through it unharmed.
    pub fn remove(&self, id: TxnId) {
        let bucket = self.index.bucket_of_key(id.0);
        let guard = epoch::pin();
        let unlinked = {
            let _serialized = self.unlink_stripes[bucket % UNLINK_STRIPES].lock();
            self.index
                .unlink_first(bucket, |handle| handle.id() == id, &guard)
        };
        if let Some(handle) = unlinked {
            let release = HandleRef(handle.as_raw());
            // SAFETY: releases the chain's strong reference once every
            // currently pinned reader (which may still borrow the handle
            // through `get_in`) has drained. The closure is two words —
            // deferred inline, no allocation.
            unsafe {
                guard.defer_unchecked(move || {
                    // Capture the whole wrapper (edition-2021 disjoint
                    // capture would otherwise grab the raw, non-`Send`
                    // field).
                    let release = release;
                    drop(Arc::from_raw(release.0));
                });
            }
        }
    }

    /// Every registered handle, bucket by bucket. Not atomic with respect to
    /// concurrent register/remove (see `min_active_begin`).
    fn handles<'g>(&'g self, guard: &'g Guard) -> impl Iterator<Item = &'g TxnHandle> {
        self.index
            .iter_all(guard)
            // SAFETY: as in `get_in`.
            .map(|node| unsafe { node.deref() })
    }

    /// Number of registered (non-terminated) transactions.
    pub fn len(&self) -> usize {
        self.handles(&epoch::pin()).count()
    }

    /// True when no transactions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Minimum begin timestamp over all registered transactions; a handle
    /// whose begin timestamp is not published yet counts as
    /// [`Timestamp::ZERO`].
    ///
    /// **Caveat for reclamation:** the bucket-by-bucket sweep is not atomic —
    /// a transaction that registers into an already-visited bucket while the
    /// sweep is running is missed. Callers using this as a
    /// garbage-collection watermark must clamp it to a clock value read
    /// *before* the sweep (see `MvStore::collect_garbage`).
    pub fn min_active_begin(&self) -> Option<Timestamp> {
        self.handles(&epoch::pin()).map(TxnHandle::begin_ts).min()
    }

    /// Snapshot of every registered handle (deadlock detection, diagnostics).
    pub fn snapshot(&self) -> Vec<Arc<TxnHandle>> {
        self.handles(&epoch::pin())
            .map(|handle| {
                let raw = handle as *const TxnHandle;
                // SAFETY: `raw` is a strong reference held by the chain,
                // whose release our pin holds off; incrementing the count and
                // reconstructing from it yields an independent clone.
                unsafe {
                    Arc::increment_strong_count(raw);
                    Arc::from_raw(raw)
                }
            })
            .collect()
    }
}

impl Drop for TxnTable {
    fn drop(&mut self) {
        // Exclusive access: release the strong references of the handles
        // still linked. Removed ones were handed to the epoch collector.
        let guard = epoch::pin();
        for handle in self.index.drain_exclusive(&guard) {
            // SAFETY: every linked node came from `Arc::into_raw` in
            // `register`, and the drain yields each exactly once.
            unsafe { drop(Arc::from_raw(handle.as_raw())) };
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
    use mmdb_common::ids::MAX_TXN_ID;
    use mmdb_index::test_support::flush_epochs_until;
    use std::sync::atomic::AtomicUsize;

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

    /// The first `n` ids from `from` upwards that share id `like`'s bucket.
    fn ids_in_bucket_of(table: &TxnTable, like: u64, from: u64, n: usize) -> Vec<u64> {
        let bucket = table.index.bucket_of_key(like);
        (from..)
            .filter(|&id| table.index.bucket_of_key(id) == bucket)
            .take(n)
            .collect()
    }

    #[test]
    fn every_id_is_an_ordinary_key() {
        let table = TxnTable::new();
        let ids = [0, 1, MAX_TXN_ID, u64::MAX];
        for id in ids {
            table.register(handle(id, id));
        }
        assert_eq!(table.len(), ids.len());
        for id in ids {
            let guard = crossbeam::epoch::pin();
            assert_eq!(table.get_in(TxnId(id), &guard).unwrap().id(), TxnId(id));
            table.remove(TxnId(id));
            assert!(table.get_in(TxnId(id), &guard).is_none());
        }
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn same_bucket_churn_keeps_long_lived_residents_findable() {
        // Ten thousand register/remove cycles in one bucket, each unlinking
        // the chain's head, beside five long-lived entries further down it.
        let table = TxnTable::new();
        let ids = ids_in_bucket_of(&table, 1, 1, 10_005);
        let (pinned, churned) = ids.split_at(5);
        for &id in pinned {
            table.register(handle(id, id));
        }
        for &id in churned {
            table.register(handle(id, id));
            let guard = crossbeam::epoch::pin();
            assert_eq!(table.get_in(TxnId(id), &guard).unwrap().id(), TxnId(id));
            table.remove(TxnId(id));
            assert!(table.get_in(TxnId(id), &guard).is_none());
        }
        assert_eq!(table.len(), pinned.len());
        let guard = crossbeam::epoch::pin();
        for &id in pinned {
            assert_eq!(
                table.get_in(TxnId(id), &guard).unwrap().begin_ts(),
                Timestamp(id),
                "long-lived entry survived churn"
            );
        }
    }

    #[test]
    fn a_handle_can_be_registered_again_after_removal() {
        // The benchmark fixture's pattern: one `Arc`, registered and removed
        // over and over, here beside a resident of the same bucket.
        let table = TxnTable::new();
        let resident = ids_in_bucket_of(&table, 1_000, 1_001, 1)[0];
        table.register(handle(resident, 7));
        let churn = handle(1_000, 8);
        for _ in 0..1_000 {
            table.register(Arc::clone(&churn));
            let guard = crossbeam::epoch::pin();
            assert!(std::ptr::eq(
                table.get_in(TxnId(1_000), &guard).unwrap(),
                &*churn
            ));
            table.remove(TxnId(1_000));
            assert!(table.get_in(TxnId(1_000), &guard).is_none());
            assert_eq!(
                table.get_in(TxnId(resident), &guard).unwrap().begin_ts(),
                Timestamp(7)
            );
        }
        assert_eq!(table.len(), 1);
        drop(table);
        assert!(
            flush_epochs_until(|| Arc::strong_count(&churn) == 1),
            "every removal released the reference its registration took"
        );
    }

    #[test]
    fn concurrent_removers_in_one_bucket_leave_nothing_behind() {
        // Removers of adjacent handles must not interleave: an unserialized
        // pair can leave the second handle linked behind the first's
        // predecessor forever. Thread `t` removes every fourth id, newest
        // first, so all four work at the head of the chain, each next to
        // the others' targets.
        const REMOVERS: usize = 4;
        let table = TxnTable::new();
        let ids = ids_in_bucket_of(&table, 1, 1, 2048);
        for round in 0..200 {
            for &id in &ids {
                table.register(handle(id, id));
            }
            std::thread::scope(|scope| {
                for t in 0..REMOVERS {
                    let (table, ids) = (&table, &ids);
                    scope.spawn(move || {
                        for &id in ids.iter().rev().skip(t).step_by(REMOVERS) {
                            table.remove(TxnId(id));
                        }
                    });
                }
            });
            assert_eq!(table.len(), 0, "round {round} left handles linked");
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
                        // resident's bucket.
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
    fn an_unpublished_begin_pins_the_watermark_at_zero() {
        let table = TxnTable::new();
        table.register(handle(1, 500));
        assert_eq!(table.min_active_begin(), Some(Timestamp(500)));
        let mid_begin = handle(2, 0);
        table.register(Arc::clone(&mid_begin));
        assert_eq!(
            table.min_active_begin(),
            Some(Timestamp::ZERO),
            "a transaction registered but not yet timestamped must pin the watermark at zero"
        );
        mid_begin.set_begin_ts(Timestamp(600));
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

//! Three-epoch reclamation: the global epoch, per-thread participant records
//! and per-thread garbage bags behind [`pin`] / [`Guard`].
//!
//! # The scheme
//!
//! * A **global epoch** counter, and one cache-line-padded **participant
//!   record** per thread holding that thread's *local epoch* and a pinned bit.
//!   [`pin`] copies the global epoch into the thread's own record and issues a
//!   full fence; nested pins bump a thread-local counter; unpinning is one
//!   store. No pin or unpin writes a line another thread writes, and neither
//!   takes a lock.
//! * Deferred calls go into the thread's **open bag** (inline storage, fixed
//!   capacity). A bag is **sealed** — tagged with the global epoch read after
//!   a full fence — when it fills up, and whatever is in it every
//!   [`PINS_PER_COLLECT`] pins.
//! * On the same cadence a thread that holds sealed bags tries to **advance**
//!   the global epoch, which succeeds once every *pinned* participant has
//!   observed the current one, and then runs the calls of every sealed bag
//!   whose tag is at least two epochs old (`tag + 2 <= global`).
//! * A thread that exits hands its bags to a shared **orphan list**, which
//!   every collecting thread also drains.
//!
//! # Why `tag + 2`
//!
//! Let `U` unlink an object, defer it, and seal the bag with tag `t`: unlink,
//! fence `F_U`, read `global == t`. Let `R` pin: store its local epoch, fence
//! `F_R`, then load pointers. If `F_U` precedes `F_R` in the total order of
//! sequentially consistent fences, `R` observes the unlink and cannot reach
//! the object. Otherwise `R`'s record was already visible to whoever advanced
//! the epoch from `t + 1` to `t + 2` — that advancer fenced and then read
//! every record, and its fence follows `F_U` because it read `global == t + 1`
//! while `U` still read `t` — so the advance waited until `R` either unpinned
//! or re-pinned at `t + 1`, in which case its new pin's fence follows `F_U`
//! by the same argument. Either way, once `global >= t + 2` no pinned thread
//! can hold a pointer to anything in the bag.
//!
//! # Bounds
//!
//! While the epoch keeps advancing, a thread's pending garbage is what it
//! deferred in its last two or three collection periods. A guard that stays
//! pinned (a long scan, a thread descheduled mid-operation) holds the epoch
//! back for everyone, and what is retired meanwhile accumulates until it
//! unpins — that is inherent to the scheme.
//! A thread that stops pinning keeps its bags until it pins again or exits;
//! nothing is shared in the steady state, so there is nothing for other
//! threads to contend on.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::mem::{align_of, size_of, ManuallyDrop};
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use super::Shared;

/// Words of inline closure storage in a [`Garbage`] entry. Mirrors real
/// `crossbeam-epoch`'s `Deferred`: small closures (a raw pointer, a raw
/// pointer plus an `Arc`, ...) are stored in place so deferring them
/// performs **no heap allocation** — this is what keeps the engines'
/// steady-state transaction termination (`TxnTable::remove`) and version
/// recycling allocation-free. Larger closures fall back to a box.
const INLINE_WORDS: usize = 3;

/// Deferred calls per bag. A full open bag is sealed on the spot.
const BAG_CAP: usize = 64;

/// Every this many outermost pins a thread seals its open bag, tries to
/// advance the global epoch and runs what has become reclaimable.
const PINS_PER_COLLECT: usize = 64;

/// Bags a thread keeps beyond the open one: allocated when it registers, so
/// that sealing allocates nothing while the epoch keeps advancing (one bag
/// open, up to three waiting out their two epochs), and the most emptied
/// bags it holds on to for reuse — bags beyond this are freed.
const SPARE_BAGS: usize = 4;

/// One deferred call: a type-erased `FnOnce()` stored inline when it
/// fits, boxed otherwise.
struct Garbage {
    data: [usize; INLINE_WORDS],
    call: unsafe fn(*mut usize),
}

// SAFETY: the closure is `Send` by the bound on [`Guard::defer_unchecked`]
// and is invoked exactly once, on whichever thread collects its bag.
unsafe impl Send for Garbage {}

unsafe fn call_inline<F: FnOnce()>(data: *mut usize) {
    unsafe { ptr::read(data as *mut F)() }
}

unsafe fn call_boxed<F: FnOnce()>(data: *mut usize) {
    unsafe { Box::from_raw(*data as *mut F)() }
}

impl Garbage {
    fn new<F: FnOnce() + Send>(f: F) -> Garbage {
        let mut data = [0usize; INLINE_WORDS];
        if size_of::<F>() <= size_of::<[usize; INLINE_WORDS]>()
            && align_of::<F>() <= align_of::<usize>()
        {
            let f = ManuallyDrop::new(f);
            // SAFETY: size/alignment checked above; `f` is forgotten so
            // it is dropped exactly once, inside `call_inline`.
            unsafe {
                ptr::copy_nonoverlapping(
                    &*f as *const F as *const u8,
                    data.as_mut_ptr() as *mut u8,
                    size_of::<F>(),
                );
            }
            Garbage {
                data,
                call: call_inline::<F>,
            }
        } else {
            data[0] = Box::into_raw(Box::new(f)) as usize;
            Garbage {
                data,
                call: call_boxed::<F>,
            }
        }
    }

    /// Invoke the deferred closure (consumes the entry).
    ///
    /// # Safety
    /// The grace period of the entry's bag must have passed.
    unsafe fn run(mut self) {
        unsafe { (self.call)(self.data.as_mut_ptr()) }
    }
}

/// A sealed run of deferred calls: reclaimable once `epoch + 2 <= global`.
struct Bag {
    epoch: u64,
    items: Vec<Garbage>,
}

/// The global epoch. Written only by a successful advance.
static GLOBAL_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Head of the push-only list of participant records. Records are leaked and
/// reused by later threads, so the list is as long as the largest number of
/// threads that were ever registered at once.
static RECORDS: AtomicPtr<Record> = AtomicPtr::new(ptr::null_mut());

/// Sealed bags of threads that have exited.
static ORPHANS: Mutex<Vec<Bag>> = Mutex::new(Vec::new());

/// Deferred calls sitting in [`ORPHANS`]; lets collectors skip the lock.
static ORPHAN_CALLS: AtomicUsize = AtomicUsize::new(0);

/// A thread's shared face: the only part of its state other threads read.
/// Padded to two cache lines so neighbouring records (and the adjacent-line
/// prefetcher) never make one thread's pin touch another's line.
#[repr(align(128))]
struct Record {
    /// `0` while not pinned, else `local_epoch << 1 | 1`. Written by the
    /// owning thread only.
    state: AtomicU64,
    /// Deferred calls in the owner's bags (diagnostic; owner-written).
    pending: AtomicUsize,
    /// Claimed by a live thread.
    in_use: AtomicBool,
    /// Next record in the list; immutable once the record is published.
    next: AtomicPtr<Record>,
}

impl Record {
    /// Every record published so far, newest first.
    fn all() -> impl Iterator<Item = &'static Record> {
        // SAFETY (both derefs): records are leaked, never freed, and their
        // fields are published by the Release push in `acquire`.
        let head = unsafe { RECORDS.load(Ordering::Acquire).as_ref() };
        std::iter::successors(head, |record| unsafe {
            record.next.load(Ordering::Relaxed).as_ref()
        })
    }

    /// Claim a free record from the list, or publish a new one.
    fn acquire() -> &'static Record {
        let free = Record::all().find(|record| {
            record
                .in_use
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        });
        if let Some(record) = free {
            return record;
        }
        let record: &'static Record = Box::leak(Box::new(Record {
            state: AtomicU64::new(0),
            pending: AtomicUsize::new(0),
            in_use: AtomicBool::new(true),
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        let mut head = RECORDS.load(Ordering::Relaxed);
        loop {
            record.next.store(head, Ordering::Relaxed);
            // Release publishes the record's fields to list walkers.
            match RECORDS.compare_exchange_weak(
                head,
                record as *const Record as *mut Record,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return record,
                Err(observed) => head = observed,
            }
        }
    }
}

/// Try to move the global epoch forward by one and return the epoch now
/// current. Must be called while pinned: the caller's own record then keeps
/// the epoch from running more than one step ahead of the value read here.
fn try_advance() -> u64 {
    let global = GLOBAL_EPOCH.load(Ordering::Relaxed);
    // Pairs with the fence in `Local::pin`: a pin we do not see below is
    // ordered after this fence, hence after every unlink sealed so far.
    fence(Ordering::SeqCst);
    let lagging = Record::all().any(|record| {
        let state = record.state.load(Ordering::Relaxed);
        state & 1 == 1 && state >> 1 != global
    });
    if lagging {
        return global;
    }
    // Pairs with the Release unpin stores read above: what those threads did
    // while pinned happens-before anything freed on the strength of this
    // advance — by us, or by a thread that reads the new epoch (the load at
    // the top is followed by a fence; a lost race below loads with Acquire).
    fence(Ordering::Acquire);
    match GLOBAL_EPOCH.compare_exchange(global, global + 1, Ordering::Release, Ordering::Acquire) {
        Ok(_) => global + 1,
        Err(current) => current,
    }
}

/// Run the orphaned bags that have become reclaimable at `global`.
fn collect_orphans(global: u64) {
    while ORPHAN_CALLS.load(Ordering::Relaxed) > 0 {
        let bag = {
            let mut orphans = ORPHANS.lock().unwrap_or_else(|p| p.into_inner());
            match orphans.iter().position(|bag| bag.epoch + 2 <= global) {
                Some(at) => orphans.swap_remove(at),
                None => return,
            }
        };
        ORPHAN_CALLS.fetch_sub(bag.items.len(), Ordering::Relaxed);
        for garbage in bag.items {
            // SAFETY: `epoch + 2 <= global` (see the module docs).
            unsafe { garbage.run() };
        }
    }
}

/// The garbage a thread holds, oldest first.
struct Bags {
    /// Deferred since the last seal; not yet tagged.
    open: Vec<Garbage>,
    sealed: VecDeque<Bag>,
    /// Emptied bag storage awaiting reuse.
    spare: Vec<Vec<Garbage>>,
}

impl Bags {
    /// Tag the open bag with the current epoch and queue it for collection.
    fn seal(&mut self) {
        let Bags {
            open,
            sealed,
            spare,
        } = self;
        if open.is_empty() {
            return;
        }
        // Every unlink behind the calls in the bag precedes this fence, and
        // the epoch read follows it: see the module docs.
        fence(Ordering::SeqCst);
        let epoch = GLOBAL_EPOCH.load(Ordering::Relaxed);
        let fresh = spare.pop().unwrap_or_else(|| Vec::with_capacity(BAG_CAP));
        let items = std::mem::replace(open, fresh);
        sealed.push_back(Bag { epoch, items });
    }
}

/// A thread's private reclamation state. Lives in a leaked box reached
/// through a thread-local pointer and through the thread's guards; freed when
/// the thread-local handle and the last guard are both gone.
struct Local {
    record: &'static Record,
    /// Live guards on this thread; the record is pinned while non-zero.
    guards: Cell<usize>,
    /// True while the thread-local [`Handle`] points here.
    has_handle: Cell<bool>,
    /// Outermost pins so far (collection cadence).
    pins: Cell<usize>,
    /// Set while this thread runs deferred calls, which may pin and defer.
    collecting: Cell<bool>,
    bags: RefCell<Bags>,
}

/// Owner of the thread's [`Local`] registration; its destructor runs at
/// thread exit.
struct Handle(Cell<*const Local>);

impl Drop for Handle {
    fn drop(&mut self) {
        let _ = LOCAL.try_with(|local| local.set(ptr::null()));
        let local = self.0.get();
        if !local.is_null() {
            // SAFETY: set by `Local::register`, released exactly once here.
            unsafe { Local::release_handle(local) };
        }
    }
}

thread_local! {
    /// The thread's `Local`, or null before first use and during teardown.
    /// No destructor and const-initialized: reading it is one TLS load.
    static LOCAL: Cell<*const Local> = const { Cell::new(ptr::null()) };
    static HANDLE: Handle = const { Handle(Cell::new(ptr::null())) };
}

impl Local {
    /// Create this thread's `Local` and remember it in the thread-locals.
    /// During thread teardown (the handle's destructor has already run) the
    /// result is a one-shot `Local` owned by the guard about to be created.
    #[cold]
    fn register() -> *const Local {
        let local = Box::into_raw(Box::new(Local {
            record: Record::acquire(),
            guards: Cell::new(0),
            has_handle: Cell::new(false),
            pins: Cell::new(0),
            collecting: Cell::new(false),
            bags: RefCell::new(Bags {
                open: Vec::with_capacity(BAG_CAP),
                sealed: VecDeque::with_capacity(SPARE_BAGS),
                spare: (0..SPARE_BAGS)
                    .map(|_| Vec::with_capacity(BAG_CAP))
                    .collect(),
            }),
        })) as *const Local;
        if HANDLE.try_with(|handle| handle.0.set(local)).is_ok() {
            // SAFETY: just allocated above; this thread is its only user.
            unsafe { (*local).has_handle.set(true) };
            LOCAL.with(|slot| slot.set(local));
        }
        local
    }

    /// Count one more guard, pinning the record if it is the first. Returns
    /// whether a collection pass is due (to be run once the guard exists, so
    /// that a panicking deferred call still unpins).
    #[inline]
    fn pin(&self) -> bool {
        let guards = self.guards.get();
        self.guards.set(guards + 1);
        if guards != 0 {
            return false;
        }
        let epoch = GLOBAL_EPOCH.load(Ordering::Relaxed);
        self.record.state.store(epoch << 1 | 1, Ordering::Relaxed);
        // Orders the pin before every pointer load under the guard, and
        // against the fences in `try_advance` and `seal` (module docs).
        fence(Ordering::SeqCst);
        let pins = self.pins.get().wrapping_add(1);
        self.pins.set(pins);
        pins.is_multiple_of(PINS_PER_COLLECT)
    }

    /// Drop one guard.
    ///
    /// # Safety
    /// `this` must come from a live guard's `local` field.
    #[inline]
    unsafe fn unpin(this: *const Local) {
        // SAFETY: a guard keeps its `Local` alive.
        let local = unsafe { &*this };
        let guards = local.guards.get() - 1;
        local.guards.set(guards);
        if guards == 0 {
            // Release: everything done under the guard happens-before an
            // advance that observes this thread as unpinned.
            local.record.state.store(0, Ordering::Release);
            if !local.has_handle.get() {
                // SAFETY: no handle and no guard refers to it any more.
                unsafe { Local::finalize(this) };
            }
        }
    }

    /// # Safety
    /// Called once, by the thread-local handle's destructor.
    unsafe fn release_handle(this: *const Local) {
        // SAFETY: the handle kept it alive until now.
        let local = unsafe { &*this };
        local.has_handle.set(false);
        if local.guards.get() == 0 {
            // SAFETY: no handle and no guard refers to it any more.
            unsafe { Local::finalize(this) };
        }
    }

    /// Hand the remaining garbage to the orphan list, free the record for
    /// reuse and free the `Local`.
    ///
    /// # Safety
    /// Neither a handle nor a guard may refer to `this` any more.
    unsafe fn finalize(this: *const Local) {
        // SAFETY: allocated by `register`; the caller holds the last reference.
        let local = unsafe { Box::from_raw(this as *mut Local) };
        let Local { record, bags, .. } = *local;
        let mut bags = bags.into_inner();
        bags.seal();
        let sealed = bags.sealed;
        if !sealed.is_empty() {
            let calls = record.pending.load(Ordering::Relaxed);
            ORPHAN_CALLS.fetch_add(calls, Ordering::Relaxed);
            ORPHANS
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .extend(sealed);
        }
        record.pending.store(0, Ordering::Relaxed);
        record.in_use.store(false, Ordering::Release);
    }

    /// Adjust the pending-call diagnostic (only the owner writes it).
    fn add_pending(&self, calls: isize) {
        let pending = self.record.pending.load(Ordering::Relaxed);
        self.record
            .pending
            .store(pending.wrapping_add_signed(calls), Ordering::Relaxed);
    }

    fn defer(&self, garbage: Garbage) {
        let mut bags = self.bags.borrow_mut();
        if bags.open.len() == BAG_CAP {
            bags.seal();
        }
        bags.open.push(garbage);
        self.add_pending(1);
    }

    /// Seal, try to advance, and run everything that is two epochs old —
    /// this thread's bags first, then orphans. Called while pinned.
    fn collect(&self) {
        if self.collecting.replace(true) {
            // A deferred call pinned or flushed; the outer pass continues.
            return;
        }
        /// Clears the flag even if a deferred call panics.
        struct Done<'a>(&'a Cell<bool>);
        impl Drop for Done<'_> {
            fn drop(&mut self) {
                self.0.set(false);
            }
        }
        let _done = Done(&self.collecting);

        let nothing_sealed = {
            let mut bags = self.bags.borrow_mut();
            bags.seal();
            bags.sealed.is_empty()
        };
        if nothing_sealed && ORPHAN_CALLS.load(Ordering::Relaxed) == 0 {
            // Nothing is waiting on the epoch, so leave it (and the cache
            // line every pin reads) alone.
            return;
        }
        let global = try_advance();
        loop {
            // Take the bag out before running it: its calls may defer.
            let bag = {
                let mut bags = self.bags.borrow_mut();
                match bags.sealed.front() {
                    Some(bag) if bag.epoch + 2 <= global => bags.sealed.pop_front(),
                    _ => None,
                }
            };
            let Some(mut bag) = bag else { break };
            self.add_pending(-(bag.items.len() as isize));
            for garbage in bag.items.drain(..) {
                // SAFETY: `epoch + 2 <= global` (see the module docs).
                unsafe { garbage.run() };
            }
            let mut bags = self.bags.borrow_mut();
            if bags.spare.len() < SPARE_BAGS {
                bags.spare.push(bag.items);
            }
        }
        collect_orphans(global);
    }
}

/// `Send` wrapper for a raw pointer captured by a deferred destructor.
struct SendPtr<T>(*mut T);
// SAFETY: the pointee is only touched once, by the deferred call, at a
// moment when no other thread can reach it.
unsafe impl<T> Send for SendPtr<T> {}

/// Pin the current thread, returning a guard that keeps anything retired
/// from now on alive while it lives.
#[inline]
pub fn pin() -> Guard {
    let mut local = LOCAL.with(|slot| slot.get());
    if local.is_null() {
        local = Local::register();
    }
    // SAFETY: `local` is this thread's live `Local`; the guard created here
    // keeps it alive.
    let collect_due = unsafe { (*local).pin() };
    let guard = Guard { local };
    if collect_due {
        guard.flush();
    }
    guard
}

/// Deferred calls not yet run, over all threads and the orphan list.
/// Approximate while other threads are deferring. Test diagnostic, not part
/// of the `crossbeam-epoch` API.
#[doc(hidden)]
pub fn pending_deferred() -> usize {
    let held: usize = Record::all()
        .map(|record| record.pending.load(Ordering::Relaxed))
        .sum();
    held + ORPHAN_CALLS.load(Ordering::Relaxed)
}

/// A pinned-epoch guard. While it lives, nothing retired after it was
/// created is freed. Guards nest; the thread stays pinned until the last one
/// drops.
pub struct Guard {
    /// The owning thread's `Local` (also makes the guard `!Send`).
    local: *const Local,
}

impl Guard {
    #[inline]
    fn local(&self) -> &Local {
        // SAFETY: a guard keeps its `Local` alive and never leaves its thread.
        unsafe { &*self.local }
    }

    /// Defer destruction of the object `ptr` points to until no guard that
    /// could have loaded it is pinned.
    ///
    /// # Safety
    /// `ptr` must point to a valid, uniquely-owned heap allocation
    /// created via [`Owned::new`](super::Owned::new) (or `Box`), already
    /// unreachable to any thread that pins from now on, and never deferred
    /// twice.
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>) {
        if ptr.is_null() {
            return;
        }
        let raw = SendPtr(ptr.as_raw() as *mut T);
        // SAFETY: forwarded caller contract; the closure drops the boxed
        // allocation exactly once.
        unsafe {
            self.defer_unchecked(move || {
                let raw = raw;
                drop(Box::from_raw(raw.0));
            })
        }
    }

    /// Defer an arbitrary call until every guard pinned now has been
    /// dropped. Small closures (up to three words) are stored inline — no
    /// allocation — mirroring real `crossbeam-epoch`'s `Deferred`. The call
    /// runs on whichever thread collects it, during one of that thread's
    /// [`pin`]s or [`Guard::flush`]es.
    ///
    /// # Safety
    /// Whatever the closure touches must remain valid until it runs (the
    /// usual epoch contract: unlink before defer; readers hold a guard),
    /// and it must be safe to run on any thread.
    pub unsafe fn defer_unchecked<F: FnOnce() + Send>(&self, f: F) {
        self.local().defer(Garbage::new(f));
    }

    /// Seal this thread's open bag, try to advance the global epoch, and run
    /// whatever has become reclaimable. One call moves the epoch at most one
    /// step, so garbage retired just now needs a few pin-and-flush rounds
    /// (and every other pinned thread to move on) before it is freed.
    pub fn flush(&self) {
        self.local().collect();
    }
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        // SAFETY: `local` belongs to this live guard.
        unsafe { Local::unpin(self.local) };
    }
}

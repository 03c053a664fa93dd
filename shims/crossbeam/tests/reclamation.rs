//! Safety, liveness and memory-bound tests for the shim's three-epoch
//! reclamation (`src/epoch/reclaim.rs`).
//!
//! 1. **Safety**: nothing retired is freed while a guard that was pinned
//!    before the retirement is still alive — on the retiring thread (nested
//!    guards included) or on any other.
//! 2. **Liveness**: once such guards are gone, a few pin-and-flush rounds
//!    free everything; a thread that exits hands its garbage on instead of
//!    leaking it; a deferred call may itself pin and defer.
//! 3. **Bounded memory**: threads whose pins overlap *continuously* — there
//!    is never an instant without a pinned guard somewhere — still reclaim at
//!    a steady two-epoch lag.
//!
//! The epoch state is process-global and the assertions read the global
//! pending count, so the tests serialize on a mutex.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard};

use crossbeam::epoch::{self, Atomic};

/// Serializes the tests in this binary (they share the global epoch state).
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A payload whose drop increments a counter.
struct Tracked<'a>(&'a AtomicUsize);

impl Drop for Tracked<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Retire one `Tracked` allocation under `guard`.
fn retire_one(drops: &'static AtomicUsize, guard: &epoch::Guard) {
    let slot: Atomic<Tracked<'static>> = Atomic::new(Tracked(drops));
    let shared = slot.load(Ordering::Acquire, guard);
    // SAFETY: the allocation is unlinked (the only pointer to it is
    // `shared`, and `slot` dies here) and deferred exactly once.
    unsafe { guard.defer_destroy(shared) };
}

/// Pin-and-flush on this thread until `done`; each round can move the epoch
/// one step. Bounded, so a regression fails the caller's assertion. (The
/// workspace's tests share `mmdb_index::test_support::flush_epochs_until`;
/// the shim stands in for an external crate and cannot depend on it.)
fn flush_until(done: impl Fn() -> bool) -> bool {
    for _ in 0..100_000 {
        if done() {
            return true;
        }
        epoch::pin().flush();
        std::thread::yield_now();
    }
    done()
}

#[test]
fn nothing_retired_is_freed_while_an_older_guard_lives() {
    let _x = exclusive();
    static DROPS: AtomicUsize = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let (hold_tx, hold_rx) = channel::<()>();
        let (pinned_tx, pinned_rx) = channel::<()>();
        // A reader on another thread pins before anything is retired and
        // stays pinned across the whole scenario.
        scope.spawn(move || {
            let _reader_guard = epoch::pin();
            pinned_tx.send(()).unwrap();
            hold_rx.recv().unwrap();
        });
        pinned_rx.recv().unwrap();

        for _ in 0..200 {
            retire_one(&DROPS, &epoch::pin());
        }
        // Far more rounds than the two epochs a free needs: the reader's
        // guard pins the epoch it observed, so the global epoch gets one
        // step ahead of it and no further.
        for _ in 0..1_000 {
            epoch::pin().flush();
        }
        assert_eq!(
            DROPS.load(Ordering::SeqCst),
            0,
            "retired garbage was freed while an older guard was still pinned"
        );
        assert_eq!(epoch::pending_deferred(), 200);

        hold_tx.send(()).unwrap();
    });

    assert!(flush_until(|| DROPS.load(Ordering::SeqCst) == 200));
    assert_eq!(epoch::pending_deferred(), 0);
}

#[test]
fn a_guard_protects_what_is_retired_under_it_and_nested_guards_do_not_unpin() {
    let _x = exclusive();
    static DROPS: AtomicUsize = AtomicUsize::new(0);

    let outer = epoch::pin();
    {
        let inner = epoch::pin();
        retire_one(&DROPS, &inner);
    }
    retire_one(&DROPS, &outer);
    // The inner guard's drop left the thread pinned: these rounds are nested
    // pins and cannot get the epoch two steps ahead of `outer`.
    for _ in 0..8 {
        epoch::pin().flush();
        outer.flush();
    }
    assert_eq!(DROPS.load(Ordering::SeqCst), 0, "outer guard still pinned");
    drop(outer);
    assert!(flush_until(|| DROPS.load(Ordering::SeqCst) == 2));
}

#[test]
fn inline_and_boxed_closures_both_run_exactly_once() {
    let _x = exclusive();
    static RAN: AtomicUsize = AtomicUsize::new(0);
    {
        let guard = epoch::pin();
        // Inline path: a closure of one word.
        let small = 7usize;
        // Boxed path: a closure larger than three words.
        let big = [1usize, 2, 3, 4, 5];
        // SAFETY: the closures touch only a static.
        unsafe {
            guard.defer_unchecked(move || {
                RAN.fetch_add(small, Ordering::SeqCst);
            });
            guard.defer_unchecked(move || {
                RAN.fetch_add(big.iter().sum::<usize>(), Ordering::SeqCst);
            });
        }
        assert_eq!(RAN.load(Ordering::SeqCst), 0, "not run while pinned");
    }
    assert!(flush_until(|| epoch::pending_deferred() == 0));
    assert_eq!(RAN.load(Ordering::SeqCst), 22);
}

#[test]
fn a_deferred_call_may_pin_and_defer() {
    let _x = exclusive();
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    static OUTER_RAN: AtomicUsize = AtomicUsize::new(0);
    {
        let guard = epoch::pin();
        // SAFETY: the closure touches only statics and fresh allocations.
        unsafe {
            guard.defer_unchecked(|| {
                // Runs in the middle of a collection pass on this thread.
                let inner = epoch::pin();
                retire_one(&DROPS, &inner);
                inner.flush();
                OUTER_RAN.fetch_add(1, Ordering::SeqCst);
            });
        }
    }
    assert!(flush_until(|| DROPS.load(Ordering::SeqCst) == 1));
    assert_eq!(OUTER_RAN.load(Ordering::SeqCst), 1);
    assert_eq!(epoch::pending_deferred(), 0);
}

#[test]
fn a_thread_that_exits_with_a_non_empty_bag_does_not_leak_it() {
    let _x = exclusive();
    static DROPS: AtomicUsize = AtomicUsize::new(0);

    // Fewer retirements than a bag holds and fewer pins than a collection
    // period: the thread exits with everything still in its open bag.
    std::thread::spawn(|| {
        for _ in 0..10 {
            retire_one(&DROPS, &epoch::pin());
        }
    })
    .join()
    .unwrap();
    assert_eq!(epoch::pending_deferred(), 10, "handed on, not dropped");
    assert!(flush_until(|| DROPS.load(Ordering::SeqCst) == 10));
    assert_eq!(epoch::pending_deferred(), 0);
}

#[test]
fn continuously_overlapping_pins_keep_pending_garbage_bounded() {
    let _x = exclusive();
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    const ROUNDS: usize = 20_000;
    const RETIRED_PER_PIN: usize = 4;
    const TOTAL: usize = 2 * ROUNDS * RETIRED_PER_PIN;

    // Two threads pass a baton: each drops its guard only after the other
    // has pinned a fresh one, so at every instant at least one guard is
    // pinned somewhere — a schedule under which a "free when nobody is
    // pinned" scheme never frees anything.
    fn leg(opens: bool, pinned: Sender<()>, other_pinned: Receiver<()>) {
        let mut held = None;
        for round in 0..ROUNDS {
            // The other side holds a guard now; ours may go. (The very first
            // pin has nothing to overlap with, and nothing is retired yet.)
            if !(opens && round == 0) {
                other_pinned.recv().unwrap();
            }
            drop(held.take());
            let guard = epoch::pin();
            for _ in 0..RETIRED_PER_PIN {
                retire_one(&DROPS, &guard);
            }
            PEAK.fetch_max(epoch::pending_deferred(), Ordering::Relaxed);
            held = Some(guard);
            // The peer may have finished its last round already.
            let _ = pinned.send(());
        }
    }

    let (a_pinned_tx, a_pinned_rx) = channel::<()>();
    let (b_pinned_tx, b_pinned_rx) = channel::<()>();
    let a = std::thread::spawn(move || leg(true, a_pinned_tx, b_pinned_rx));
    let b = std::thread::spawn(move || leg(false, b_pinned_tx, a_pinned_rx));
    a.join().unwrap();
    b.join().unwrap();

    let peak = PEAK.load(Ordering::Relaxed);
    assert!(
        peak < TOTAL / 10,
        "pending garbage peaked at {peak} of {TOTAL} retired: reclamation \
         does not keep up while pins overlap"
    );
    assert!(flush_until(|| DROPS.load(Ordering::SeqCst) == TOTAL));
    assert_eq!(epoch::pending_deferred(), 0);
}

#[test]
fn concurrent_churn_does_not_leak() {
    let _x = exclusive();
    static DROPS: AtomicUsize = AtomicUsize::new(0);

    const THREADS: usize = 4;
    const PER_THREAD: usize = 500;

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..PER_THREAD {
                    retire_one(&DROPS, &epoch::pin());
                }
            });
        }
    });

    assert!(flush_until(
        || DROPS.load(Ordering::SeqCst) == THREADS * PER_THREAD
    ));
    assert_eq!(epoch::pending_deferred(), 0);
}

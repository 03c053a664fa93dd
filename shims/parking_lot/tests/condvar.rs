//! The waiter-aware `Condvar`: no lost wake-up, and no `std` notification
//! (a `futex` system call) when nobody waits.
//!
//! Its own test binary because `std_notifications()` counts for the whole
//! process; the tests below additionally take turns on one mutex.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{std_notifications, Condvar, Mutex};

static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn notifying_nobody_reaches_std_not_once() {
    let _serial = serial();
    let lock = Mutex::new(0u32);
    let cv = Condvar::new();
    let before = std_notifications();
    for _ in 0..10_000 {
        *lock.lock() += 1;
        cv.notify_one();
        cv.notify_all();
    }
    // A wait that times out must leave the count of waiters at zero again.
    let mut guard = lock.lock();
    assert!(cv
        .wait_for(&mut guard, Duration::from_millis(5))
        .timed_out());
    drop(guard);
    cv.notify_all();
    assert_eq!(std_notifications(), before);
}

/// Two threads hand a token back and forth through plain unbounded `wait` +
/// `notify_one`. A notification skipped while the other side was (about to
/// be) parked would leave both asleep forever — nothing here times out and
/// retries — so the watchdog is what fails.
#[test]
fn ping_pong_never_loses_a_wakeup() {
    let _serial = serial();
    const ROUNDS: u32 = 100_000;
    let shared = Arc::new((Mutex::new(0u32), Condvar::new()));
    let (done_tx, done_rx) = mpsc::channel();
    for me in 0..2u32 {
        let shared = Arc::clone(&shared);
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            let (turn, cv) = &*shared;
            for round in 0..ROUNDS {
                let mut holder = turn.lock();
                while *holder != me {
                    cv.wait(&mut holder);
                }
                *holder = 1 - me;
                // Both legal orders: notify while holding the mutex, and
                // after releasing it.
                if round % 2 == 0 {
                    cv.notify_one();
                    drop(holder);
                } else {
                    drop(holder);
                    cv.notify_one();
                }
            }
            let _ = done_tx.send(me);
        });
    }
    for _ in 0..2 {
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("a wake-up was lost: the players are both asleep");
    }
}

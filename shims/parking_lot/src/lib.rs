//! Minimal offline stand-in for the `parking_lot` crate.
//!
//! Wraps `std::sync` primitives behind `parking_lot`'s poison-free API:
//! `lock()` / `read()` / `write()` return guards directly, and [`Condvar`]
//! waits take `&mut MutexGuard`. Poisoned locks are transparently recovered
//! (a panic while holding a lock does not poison it for other threads, which
//! matches `parking_lot` semantics).

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A mutual-exclusion primitive. `lock()` returns the guard directly.
#[derive(Default, Debug)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a mutex protecting `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { inner: Some(guard) }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

/// RAII guard returned by [`Mutex::lock`].
///
/// Internally holds `Option<std::sync::MutexGuard>` so [`Condvar::wait`] can
/// temporarily take the underlying guard by value (std's API) while the
/// caller keeps borrowing this wrapper mutably.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("guard present outside Condvar::wait")
    }
}

/// A reader-writer lock. `read()` / `write()` return guards directly.
#[derive(Default, Debug)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Create a lock protecting `value`.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.inner.read() {
            Ok(g) => RwLockReadGuard { inner: g },
            Err(p) => RwLockReadGuard {
                inner: p.into_inner(),
            },
        }
    }

    /// Acquire the exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.inner.write() {
            Ok(g) => RwLockWriteGuard { inner: g },
            Err(p) => RwLockWriteGuard {
                inner: p.into_inner(),
            },
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

/// RAII shared guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII exclusive guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Notifications that reached `std::sync::Condvar` (a `futex` wake system
/// call each, whether or not anyone sleeps) since the process started.
static STD_NOTIFICATIONS: AtomicU64 = AtomicU64::new(0);

/// How many [`Condvar::notify_one`] / [`Condvar::notify_all`] calls found a
/// registered waiter and went on to the underlying `std::sync::Condvar`, in
/// the whole process. Diagnostic for tests that pin "this path wakes nobody,
/// so it makes no system call"; not part of the real `parking_lot` API.
#[doc(hidden)]
pub fn std_notifications() -> u64 {
    STD_NOTIFICATIONS.load(Ordering::Relaxed)
}

/// A condition variable usable with this crate's [`Mutex`].
///
/// Like the real `parking_lot` one it knows whether anyone is waiting:
/// `notify_one` / `notify_all` return after one load when nobody is, where
/// `std::sync::Condvar` alone would issue a `futex` wake system call per
/// notification regardless.
#[derive(Default, Debug)]
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads inside `wait` / `wait_for`. Raised while the waiter still
    /// holds the mutex and lowered once it holds it again after waking. A
    /// notifier must have held that mutex when or after it changed the
    /// awaited state and before it notifies (any condition variable loses
    /// wake-ups otherwise); the mutex then orders the two sides: either the
    /// waiter's increment happens-before the notifier's load, or the waiter
    /// locks after the notifier and sees the new state without sleeping. A
    /// non-zero count may be stale (a woken or timed-out waiter that has not
    /// re-acquired the mutex yet); that costs one spurious `std`
    /// notification, never a lost one.
    waiters: AtomicUsize,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Does a notification have to go to `std` (and be counted as such)?
    #[inline]
    fn reaches_std(&self) -> bool {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return false;
        }
        STD_NOTIFICATIONS.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Wake one waiter.
    #[inline]
    pub fn notify_one(&self) {
        if self.reaches_std() {
            self.inner.notify_one();
        }
    }

    /// Wake all waiters.
    #[inline]
    pub fn notify_all(&self) {
        if self.reaches_std() {
            self.inner.notify_all();
        }
    }

    /// Block until notified, releasing the mutex while asleep.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let inner = match self.inner.wait(inner) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard present");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (inner, result) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => p.into_inner(),
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// Block until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let now = Instant::now();
        let timeout = deadline.saturating_duration_since(now);
        self.wait_for(guard, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            *p2.0.lock() = true;
            p2.1.notify_all();
        });
        let (lock, cv) = &*pair;
        let mut guard = lock.lock();
        while !*guard {
            let r = cv.wait_for(&mut guard, Duration::from_secs(5));
            assert!(!r.timed_out() || *guard);
        }
        waker.join().unwrap();
        assert!(*guard);
    }

    #[test]
    fn condvar_times_out() {
        let lock = Mutex::new(());
        let cv = Condvar::new();
        let mut guard = lock.lock();
        let r = cv.wait_for(&mut guard, Duration::from_millis(10));
        assert!(r.timed_out());
    }
}

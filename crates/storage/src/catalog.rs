//! An epoch-published, append-only catalog.
//!
//! Both engines keep their tables in a dense id-indexed registry that every
//! operation consults. PR 3 left that registry behind a `RwLock<Vec<Arc<T>>>`
//! — the last lock on the per-operation hot path. Tables are **never
//! removed**, so the registry can be published whole: the entry array is an
//! immutable epoch-managed snapshot, lookups load it with a single `Acquire` and index it (no lock,
//! no reference-count traffic), and `create` builds a one-longer copy and
//! publishes it with an atomic swap (mirroring the append-only mapping-table
//! publication of the Hekaton / Bw-tree line of work).
//!
//! Soundness of the guard-borrowed lookup: superseded arrays are destroyed
//! through the epoch collector, so an array loaded under a pinned guard
//! outlives the guard; and because entries are only ever *appended*, the
//! newest array always holds a strong `Arc` to every `T` an older array
//! held, so the pointee itself lives as long as the catalog does.

use std::sync::Arc;

use crossbeam::epoch::{Atomic, Guard, Owned};
use parking_lot::Mutex;

/// An append-only collection of `Arc<T>` with lock-free indexed lookup.
pub struct Catalog<T> {
    /// The published snapshot: an immutable boxed slice of strong refs.
    slice: Atomic<Box<[Arc<T>]>>,
    /// Serializes appends (the cold path: once per table created).
    write: Mutex<()>,
}

impl<T> Catalog<T> {
    /// Create an empty catalog.
    pub fn new() -> Catalog<T> {
        Catalog {
            slice: Atomic::new(Vec::new().into_boxed_slice()),
            write: Mutex::new(()),
        }
    }

    /// Look up entry `idx` without taking any lock or touching the entry's
    /// reference count: the returned borrow lives as long as the caller's
    /// epoch guard (and the catalog — see the module docs).
    #[inline]
    pub fn get_in<'g>(&self, idx: usize, guard: &'g Guard) -> Option<&'g T> {
        // SAFETY: the slice pointer is never null (initialized at
        // construction) and superseded arrays are epoch-deferred, so the
        // load is valid under the caller's guard.
        let items = unsafe {
            self.slice
                .load(std::sync::atomic::Ordering::Acquire, guard)
                .deref()
        };
        items.get(idx).map(|arc| &**arc)
    }

    /// Look up entry `idx`, returning an owned handle (an `Arc` clone).
    /// Still lock-free; use [`Catalog::get_in`] on paths that only borrow.
    pub fn get(&self, idx: usize) -> Option<Arc<T>> {
        let guard = crossbeam::epoch::pin();
        // SAFETY: as in `get_in`.
        let items = unsafe {
            self.slice
                .load(std::sync::atomic::Ordering::Acquire, &guard)
                .deref()
        };
        items.get(idx).cloned()
    }

    /// Number of published entries.
    pub fn len(&self) -> usize {
        let guard = crossbeam::epoch::pin();
        // SAFETY: as in `get_in`.
        unsafe {
            self.slice
                .load(std::sync::atomic::Ordering::Acquire, &guard)
                .deref()
        }
        .len()
    }

    /// True when no entry has been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append an entry built from its future index (`make(next_idx)`), and
    /// return the index. `make` may fail; nothing is published then.
    ///
    /// Appends copy the existing `Arc`s into a one-longer array and publish
    /// it with a single swap; concurrent lookups see either snapshot, both
    /// valid. O(n) per append is fine — this runs once per `create_table`,
    /// never per operation.
    pub fn push_with<E>(&self, make: impl FnOnce(usize) -> Result<T, E>) -> Result<usize, E> {
        let _write = self.write.lock();
        let guard = crossbeam::epoch::pin();
        let current = self
            .slice
            .load(std::sync::atomic::Ordering::Acquire, &guard);
        // SAFETY: as in `get_in`.
        let items = unsafe { current.deref() };
        let idx = items.len();
        let value = make(idx)?;
        let mut grown: Vec<Arc<T>> = Vec::with_capacity(idx + 1);
        grown.extend(items.iter().cloned());
        grown.push(Arc::new(value));
        let published = Owned::new(grown.into_boxed_slice()).into_shared(&guard);
        self.slice
            .store(published, std::sync::atomic::Ordering::Release);
        // SAFETY: the old array is unreachable to new readers; pinned
        // readers keep it alive until they unpin. The `Arc`s inside it are
        // clones of the ones the new array holds, so dropping them with the
        // array cannot free any `T`.
        unsafe { guard.defer_destroy(current) };
        Ok(idx)
    }
}

impl<T> Default for Catalog<T> {
    fn default() -> Self {
        Catalog::new()
    }
}

impl<T> Drop for Catalog<T> {
    fn drop(&mut self) {
        let guard = crossbeam::epoch::pin();
        let current = self
            .slice
            .load(std::sync::atomic::Ordering::Acquire, &guard);
        if !current.is_null() {
            // SAFETY: exclusive access (we are being dropped); superseded
            // arrays were already handed to the epoch collector.
            unsafe { drop(current.into_owned()) };
        }
    }
}

impl<T> std::fmt::Debug for Catalog<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn push_and_lookup() {
        let catalog: Catalog<String> = Catalog::new();
        assert!(catalog.is_empty());
        let a = catalog
            .push_with::<()>(|idx| Ok(format!("entry-{idx}")))
            .unwrap();
        let b = catalog
            .push_with::<()>(|idx| Ok(format!("entry-{idx}")))
            .unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(catalog.len(), 2);
        let guard = crossbeam::epoch::pin();
        assert_eq!(catalog.get_in(0, &guard).unwrap(), "entry-0");
        assert_eq!(catalog.get_in(1, &guard).unwrap(), "entry-1");
        assert!(catalog.get_in(2, &guard).is_none());
        assert_eq!(*catalog.get(1).unwrap(), "entry-1");
        assert!(catalog.get(2).is_none());
    }

    #[test]
    fn failed_make_publishes_nothing() {
        let catalog: Catalog<u32> = Catalog::new();
        assert_eq!(catalog.push_with::<&str>(|_| Err("nope")), Err("nope"));
        assert!(catalog.is_empty());
    }

    #[test]
    fn borrow_survives_concurrent_append() {
        let catalog: Catalog<u64> = Catalog::new();
        catalog.push_with::<()>(|_| Ok(7)).unwrap();
        let guard = crossbeam::epoch::pin();
        let borrowed = catalog.get_in(0, &guard).unwrap();
        for i in 0..100u64 {
            catalog.push_with::<()>(|_| Ok(i)).unwrap();
        }
        // The old array was superseded 100 times; the borrow is still valid
        // (arrays are epoch-deferred, entries are never removed).
        assert_eq!(*borrowed, 7);
        assert_eq!(catalog.len(), 101);
    }

    #[test]
    fn concurrent_appends_and_readers_race_cleanly() {
        let catalog: Arc<Catalog<u64>> = Arc::new(Catalog::new());
        catalog.push_with::<()>(|_| Ok(0)).unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let catalog = Arc::clone(&catalog);
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let guard = crossbeam::epoch::pin();
                        let len = catalog.len();
                        for idx in 0..len {
                            let entry = catalog
                                .get_in(idx, &guard)
                                .expect("published entries never disappear");
                            assert_eq!(*entry, idx as u64);
                        }
                    }
                });
            }
            {
                let catalog = Arc::clone(&catalog);
                let stop = &stop;
                scope.spawn(move || {
                    for i in 1..400u64 {
                        let idx = catalog.push_with::<()>(|idx| Ok(idx as u64)).unwrap();
                        assert_eq!(idx as u64, i);
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(catalog.len(), 400);
    }
}

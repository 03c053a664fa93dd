//! Minimal offline stand-in for the `crossbeam` crate.
//!
//! Implements the one submodule this workspace uses:
//!
//! * [`epoch`] — the `crossbeam_epoch` pointer API (`Atomic` / `Owned` /
//!   `Shared` / `Guard` / `pin` / `defer_destroy` / `defer_unchecked` /
//!   `flush`) over classic three-epoch reclamation: a global epoch, one
//!   padded participant record and a set of garbage bags per thread, frees
//!   two epochs after retirement. Pinning writes only the thread's own
//!   record and takes no lock.

pub mod epoch {
    //! Epoch-protected pointers; the reclamation scheme behind [`pin`] is
    //! described in `epoch/reclaim.rs`.

    use std::marker::PhantomData;
    use std::mem::align_of;
    use std::sync::atomic::{AtomicPtr, Ordering};

    mod reclaim;

    pub use reclaim::{pending_deferred, pin, Guard};

    /// An atomic pointer to `T` manipulated through guards.
    pub struct Atomic<T> {
        ptr: AtomicPtr<T>,
    }

    impl<T> Atomic<T> {
        /// A null pointer.
        pub fn null() -> Atomic<T> {
            Atomic {
                ptr: AtomicPtr::new(std::ptr::null_mut()),
            }
        }

        /// Allocate `value` on the heap and point at it.
        pub fn new(value: T) -> Atomic<T> {
            Atomic {
                ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
            }
        }

        /// Load the pointer.
        pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
            Shared {
                raw: self.ptr.load(ord),
                _marker: PhantomData,
            }
        }

        /// Store `new`.
        pub fn store(&self, new: Shared<'_, T>, ord: Ordering) {
            self.ptr.store(new.raw, ord);
        }

        /// Compare-and-exchange: replace `current` with `new`.
        pub fn compare_exchange<'g>(
            &self,
            current: Shared<'_, T>,
            new: Shared<'_, T>,
            success: Ordering,
            failure: Ordering,
            _guard: &'g Guard,
        ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T>> {
            match self
                .ptr
                .compare_exchange(current.raw, new.raw, success, failure)
            {
                Ok(_) => Ok(Shared {
                    raw: new.raw,
                    _marker: PhantomData,
                }),
                Err(observed) => Err(CompareExchangeError {
                    current: Shared {
                        raw: observed,
                        _marker: PhantomData,
                    },
                    new: Shared {
                        raw: new.raw,
                        _marker: PhantomData,
                    },
                }),
            }
        }

        /// Weak compare-and-exchange (may fail spuriously).
        pub fn compare_exchange_weak<'g>(
            &self,
            current: Shared<'_, T>,
            new: Shared<'_, T>,
            success: Ordering,
            failure: Ordering,
            _guard: &'g Guard,
        ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T>> {
            match self
                .ptr
                .compare_exchange_weak(current.raw, new.raw, success, failure)
            {
                Ok(_) => Ok(Shared {
                    raw: new.raw,
                    _marker: PhantomData,
                }),
                Err(observed) => Err(CompareExchangeError {
                    current: Shared {
                        raw: observed,
                        _marker: PhantomData,
                    },
                    new: Shared {
                        raw: new.raw,
                        _marker: PhantomData,
                    },
                }),
            }
        }
    }

    impl<T> Default for Atomic<T> {
        fn default() -> Atomic<T> {
            Atomic::null()
        }
    }

    impl<T> std::fmt::Debug for Atomic<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Atomic({:p})", self.ptr.load(Ordering::Relaxed))
        }
    }

    /// Error returned by a failed compare-and-exchange.
    pub struct CompareExchangeError<'g, T> {
        /// The value observed in the atomic at failure time.
        pub current: Shared<'g, T>,
        /// The value that was proposed.
        pub new: Shared<'g, T>,
    }

    /// An owned, heap-allocated value not yet shared with other threads.
    pub struct Owned<T> {
        inner: Box<T>,
    }

    impl<T> Owned<T> {
        /// Allocate `value` on the heap.
        pub fn new(value: T) -> Owned<T> {
            Owned {
                inner: Box::new(value),
            }
        }

        /// Take exclusive ownership of an existing heap allocation (the
        /// version-pool recycling path: no new allocation is performed).
        ///
        /// # Safety
        /// `raw` must point to a valid allocation originating from
        /// [`Owned::new`] / `Box`, and the caller must have exclusive access
        /// to it (same contract as real `crossbeam-epoch`'s
        /// `Owned::from_raw`).
        pub unsafe fn from_raw(raw: *mut T) -> Owned<T> {
            Owned {
                inner: unsafe { Box::from_raw(raw) },
            }
        }

        /// Publish the allocation, converting it into a [`Shared`] pointer.
        /// Logical ownership moves to the caller's data structure.
        pub fn into_shared<'g>(self, _guard: &'g Guard) -> Shared<'g, T> {
            Shared {
                raw: Box::into_raw(self.inner),
                _marker: PhantomData,
            }
        }
    }

    impl<T> std::ops::Deref for Owned<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> std::ops::DerefMut for Owned<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    /// A pointer valid while the guard it was loaded under is pinned.
    ///
    /// Like real `crossbeam-epoch`, the low bits left free by `T`'s alignment
    /// can carry a *tag* ([`Shared::tag`] / [`Shared::with_tag`]): the tag
    /// travels through [`Atomic`] loads, stores and CASes unchanged (the CAS
    /// compares the full tagged word, so a tag flip invalidates stale
    /// untagged expectations), while every dereferencing accessor strips it.
    pub struct Shared<'g, T> {
        raw: *mut T,
        _marker: PhantomData<&'g T>,
    }

    impl<T> Clone for Shared<'_, T> {
        fn clone(&self) -> Self {
            *self
        }
    }

    impl<T> Copy for Shared<'_, T> {}

    impl<'g, T> Shared<'g, T> {
        /// Bit mask of the pointer bits available for tagging (the low bits a
        /// `T`-aligned address always has clear).
        #[inline]
        fn tag_mask() -> usize {
            align_of::<T>() - 1
        }

        /// The address without its tag bits.
        #[inline]
        fn untagged_raw(&self) -> *mut T {
            (self.raw as usize & !Self::tag_mask()) as *mut T
        }

        /// The null pointer.
        pub fn null() -> Shared<'g, T> {
            Shared {
                raw: std::ptr::null_mut(),
                _marker: PhantomData,
            }
        }

        /// Is this the null pointer (ignoring the tag)?
        pub fn is_null(&self) -> bool {
            self.untagged_raw().is_null()
        }

        /// The raw address (tag stripped).
        pub fn as_raw(&self) -> *const T {
            self.untagged_raw()
        }

        /// The tag stored in the pointer's low bits.
        pub fn tag(&self) -> usize {
            self.raw as usize & Self::tag_mask()
        }

        /// The same pointer carrying `tag` (masked to the available low bits).
        pub fn with_tag(&self, tag: usize) -> Shared<'g, T> {
            Shared {
                raw: (self.untagged_raw() as usize | (tag & Self::tag_mask())) as *mut T,
                _marker: PhantomData,
            }
        }

        /// Dereference.
        ///
        /// # Safety
        /// The pointer must be non-null and the pointee must still be live —
        /// guaranteed when it was loaded under the (still pinned) guard and
        /// deferred destructions follow the unlink-before-defer contract.
        pub unsafe fn deref(&self) -> &'g T {
            unsafe { &*self.untagged_raw() }
        }

        /// Dereference, returning `None` for null.
        ///
        /// # Safety
        /// Same contract as [`Shared::deref`].
        pub unsafe fn as_ref(&self) -> Option<&'g T> {
            unsafe { self.untagged_raw().as_ref() }
        }

        /// Reclaim exclusive ownership of the allocation.
        ///
        /// # Safety
        /// The caller must have exclusive access to the pointee and the
        /// pointer must have originated from [`Owned::into_shared`].
        pub unsafe fn into_owned(self) -> Owned<T> {
            Owned {
                inner: unsafe { Box::from_raw(self.untagged_raw()) },
            }
        }
    }

    impl<T> From<*const T> for Shared<'_, T> {
        fn from(raw: *const T) -> Self {
            Shared {
                raw: raw as *mut T,
                _marker: PhantomData,
            }
        }
    }

    impl<T> PartialEq for Shared<'_, T> {
        fn eq(&self, other: &Self) -> bool {
            self.raw == other.raw
        }
    }

    impl<T> Eq for Shared<'_, T> {}

    impl<T> std::fmt::Debug for Shared<'_, T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Shared({:p})", self.raw)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::epoch::{self, Atomic, Owned};
    use std::sync::atomic::Ordering;

    #[test]
    fn atomic_load_store_cas() {
        let a: Atomic<u64> = Atomic::null();
        let guard = epoch::pin();
        assert!(a.load(Ordering::Acquire, &guard).is_null());
        let s = Owned::new(7u64).into_shared(&guard);
        a.store(s, Ordering::Release);
        let loaded = a.load(Ordering::Acquire, &guard);
        assert_eq!(unsafe { *loaded.deref() }, 7);
        let s2 = Owned::new(9u64).into_shared(&guard);
        assert!(a
            .compare_exchange(loaded, s2, Ordering::AcqRel, Ordering::Acquire, &guard)
            .is_ok());
        unsafe {
            guard.defer_destroy(loaded);
            guard.defer_destroy(a.load(Ordering::Acquire, &guard));
        }
    }

    #[test]
    fn tags_travel_through_cas_but_not_deref() {
        let a: Atomic<u64> = Atomic::null();
        let guard = epoch::pin();
        let s = Owned::new(5u64).into_shared(&guard);
        assert_eq!(s.tag(), 0);
        let tagged = s.with_tag(1);
        assert_eq!(tagged.tag(), 1);
        assert_eq!(tagged.as_raw(), s.as_raw(), "as_raw strips the tag");
        assert_eq!(unsafe { *tagged.deref() }, 5, "deref strips the tag");
        assert!(!tagged.is_null());

        // CAS distinguishes tag values: an expectation with the wrong tag
        // fails even though the address matches.
        a.store(tagged, Ordering::Release);
        let null = epoch::Shared::null();
        assert!(a
            .compare_exchange(s, null, Ordering::AcqRel, Ordering::Acquire, &guard)
            .is_err());
        let observed = a.load(Ordering::Acquire, &guard);
        assert_eq!(observed.tag(), 1);
        assert!(a
            .compare_exchange(observed, null, Ordering::AcqRel, Ordering::Acquire, &guard)
            .is_ok());
        unsafe { guard.defer_destroy(tagged) };
    }

    #[test]
    fn tagged_null_is_still_null() {
        let n: epoch::Shared<'_, u64> = epoch::Shared::null().with_tag(1);
        assert!(n.is_null());
        assert_eq!(n.tag(), 1);
        assert!(unsafe { n.as_ref() }.is_none());
    }
}

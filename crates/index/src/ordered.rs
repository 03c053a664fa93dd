//! Lock-free ordered index (skip list) over intrusive version chains.
//!
//! The paper's prototype "currently supports only hash indexes" (§2.1) and
//! therefore only equality predicates; its phantom-protection protocols
//! (§4.1.2, §4.2.2) are specified per *hash bucket*. This module supplies the
//! structure those protocols generalize to: an ordered index that serves
//! inclusive range predicates `[lo, hi]`, so scans can be validated (MV/O)
//! or locked (MV/L) at predicate granularity instead of bucket granularity.
//!
//! # Structure
//!
//! A [`OrderedIndex`] is a skip list of *key nodes*, one per distinct key
//! currently indexed. Each key node owns the chain of versions carrying that
//! key, threaded through the versions' intrusive [`ChainNode`] next-pointer
//! for this index's slot — exactly the pointer a [`crate::HashIndex`] would
//! use, so a version can be linked into hash and ordered indexes of the same
//! table simultaneously.
//!
//! # Concurrency contract
//!
//! * **Version insertion** ([`OrderedIndex::insert`]) is lock-free on the
//!   steady-state path: pushing a version onto an existing key node is one
//!   CAS on the chain head, and linking a *new* key node into level 0 is one
//!   CAS on the predecessor pointer. Only linking a new node's upper tower
//!   levels takes a short internal mutex (`tower_lock`) — a novel-key insert
//!   already allocates, so this is off the hot path.
//! * **Traversals** ([`OrderedIndex::iter_range`] and friends) never block
//!   and never observe freed memory; callers hold a `crossbeam_epoch`
//!   [`Guard`].
//! * **Unlinks** ([`OrderedIndex::unlink`]) are performed only by the
//!   garbage collector, which serializes them per table. Unlinking the last
//!   version of a key retires the key node itself (see below).
//!
//! # Key-node retirement
//!
//! Removing skip-list nodes concurrently with lock-free inserts is the
//! classic hard part. We exploit that removal is GC-only and serialized:
//!
//! 1. The collector *flags the key node dead* by CASing its chain head from
//!    `(null, tag 0)` to `(null, tag 1)` (pointer tagging via the low
//!    alignment bit). The CAS fails — and retirement is abandoned — if an
//!    inserter concurrently revived the chain; conversely, once the flag is
//!    set, [`OrderedIndex::insert`] refuses to push onto the chain and
//!    retries until the node is gone.
//! 2. Under `tower_lock`, the collector tags the dead node's *own* level-0
//!    next pointer. A lock-free inserter that wanted to link a new node
//!    immediately after the dead one now fails its CAS (the expected value
//!    is untagged) and re-searches; the search notices the tag and restarts,
//!    so no insertion can be linked behind a node that is about to vanish.
//! 3. Still under the lock, the collector unlinks the node from every tower
//!    level top-down, behind the predecessors one search for its key reports
//!    (upper levels cannot change concurrently — linking them takes the same
//!    lock; a lost level-0 CAS searches again), and retires the allocation
//!    through the epoch mechanism.

use crossbeam::epoch::{self, Atomic, Guard, Owned, Shared};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;

use mmdb_common::hash::mix64;
use mmdb_common::ids::Key;

use crate::chain::ChainNode;

/// Maximum tower height. 2^12 expected keys per level-12 node is plenty for
/// the table sizes the experiments use (millions of rows).
const MAX_HEIGHT: usize = 12;

/// Tag value marking a key node dead (on its chain head) or unlinking (on
/// its level-0 next pointer).
const DEAD: usize = 1;

/// One distinct key of the index: the tower of skip-list pointers plus the
/// head of the chain of versions carrying this key.
struct KeyNode<N> {
    /// The index key all chained versions share.
    key: Key,
    /// Number of tower levels this node is linked into (1..=MAX_HEIGHT).
    height: usize,
    /// Head of the version chain. Tag bit 1 = node is dead (chain must be
    /// empty); set only by the retiring collector.
    head: Atomic<N>,
    /// Skip-list next pointers; entries >= `height` stay null. The level-0
    /// entry's tag bit 1 means the node is being unlinked.
    tower: Box<[Atomic<KeyNode<N>>]>,
}

/// Predecessor/successor key nodes per level, as returned by `find`.
/// A null predecessor stands for the list head.
struct Position<'g, N> {
    preds: [Shared<'g, KeyNode<N>>; MAX_HEIGHT],
    succs: [Shared<'g, KeyNode<N>>; MAX_HEIGHT],
}

/// A latch-free ordered index: a skip list mapping keys to version chains.
pub struct OrderedIndex<N: ChainNode> {
    /// Which intrusive next-pointer slot of the versions this index threads
    /// its per-key chains through.
    slot: usize,
    /// The list head's tower (level i points at the first node of height > i).
    head_tower: Box<[Atomic<KeyNode<N>>]>,
    /// Serializes upper-level tower linking and key-node retirement (see the
    /// module docs); never taken by readers or by steady-state inserts.
    tower_lock: Mutex<()>,
}

impl<N: ChainNode> OrderedIndex<N> {
    /// Create an empty ordered index using next-pointer `slot`.
    pub fn new(slot: usize) -> Self {
        // The dead flag lives in the low bit of the chain-head pointer.
        assert!(
            std::mem::align_of::<N>() >= 2,
            "ordered index nodes need an alignment bit for pointer tagging"
        );
        let head_tower = (0..MAX_HEIGHT)
            .map(|_| Atomic::null())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        OrderedIndex {
            slot,
            head_tower,
            tower_lock: Mutex::new(()),
        }
    }

    /// The slot number this index was created with.
    #[inline]
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Deterministic tower height for `key`: geometric with p = 1/2, derived
    /// from a hash so concurrent tests and recovery replays build identical
    /// shapes (no per-thread RNG state).
    #[inline]
    fn height_of(key: Key) -> usize {
        let h = mix64(!key);
        1 + (h.trailing_zeros() as usize).min(MAX_HEIGHT - 1)
    }

    /// The link at `level` leaving `pred` (the head tower when `pred` is
    /// null).
    #[inline]
    fn level_link<'a, 'g: 'a>(
        &'a self,
        pred: Shared<'g, KeyNode<N>>,
        level: usize,
    ) -> &'a Atomic<KeyNode<N>> {
        match unsafe { pred.as_ref() } {
            Some(p) => &p.tower[level],
            None => &self.head_tower[level],
        }
    }

    /// Locate `key`: per level, the last node with a smaller key (pred) and
    /// the first with an equal-or-larger key (succ). Restarts if it runs into
    /// a node whose level-0 next is tagged (that node is mid-retirement and
    /// must not be used as a predecessor).
    fn find<'a, 'g: 'a>(&'a self, key: Key, guard: &'g Guard) -> Position<'g, N> {
        'restart: loop {
            let mut preds = [Shared::null(); MAX_HEIGHT];
            let mut succs = [Shared::null(); MAX_HEIGHT];
            let mut pred: Shared<'g, KeyNode<N>> = Shared::null();
            for level in (0..MAX_HEIGHT).rev() {
                let mut curr = self.level_link(pred, level).load(Ordering::Acquire, guard);
                loop {
                    if level == 0 && curr.tag() == DEAD {
                        // Whoever owns the link we just loaded is being
                        // unlinked; wait out the (serialized, short)
                        // retirement and retry.
                        std::thread::yield_now();
                        continue 'restart;
                    }
                    let c = match unsafe { curr.as_ref() } {
                        Some(c) => c,
                        None => break,
                    };
                    if c.key < key {
                        pred = curr;
                        curr = c.tower[level].load(Ordering::Acquire, guard);
                    } else {
                        break;
                    }
                }
                preds[level] = pred;
                succs[level] = curr.with_tag(0);
            }
            return Position { preds, succs };
        }
    }

    /// Push `node` onto an existing key node's version chain. Fails (returns
    /// `false`) only if the key node has been flagged dead.
    fn push_version<'g>(&self, kn: &'g KeyNode<N>, node: Shared<'g, N>, guard: &'g Guard) -> bool {
        let node_ref = unsafe { node.deref() };
        let mut head = kn.head.load(Ordering::Acquire, guard);
        loop {
            if head.tag() == DEAD {
                return false;
            }
            node_ref.next_ptr(self.slot).store(head, Ordering::Release);
            match kn.head.compare_exchange_weak(
                head,
                node,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            ) {
                Ok(_) => return true,
                Err(err) => head = err.current,
            }
        }
    }

    /// Insert `node` under its key for this index's slot.
    ///
    /// The node must not already be linked into this index. As with
    /// [`crate::HashIndex::insert`], the caller keeps logical ownership of the
    /// version allocation; the index only threads pointers through it (key
    /// nodes, by contrast, are owned and reclaimed by the index itself).
    pub fn insert<'g>(&self, node: Shared<'g, N>, guard: &'g Guard) {
        let node_ref = unsafe { node.deref() };
        let key = node_ref.key(self.slot);
        loop {
            let pos = self.find(key, guard);
            if let Some(kn) = unsafe { pos.succs[0].as_ref() } {
                if kn.key == key {
                    if self.push_version(kn, node, guard) {
                        return;
                    }
                    // Dead key node: the collector is about to unlink it.
                    std::thread::yield_now();
                    continue;
                }
            }
            // Novel key: build a key node seeded with `node` as its chain.
            node_ref
                .next_ptr(self.slot)
                .store(Shared::null(), Ordering::Release);
            let height = Self::height_of(key);
            let kn = Owned::new(KeyNode {
                key,
                height,
                head: Atomic::null(),
                tower: (0..MAX_HEIGHT)
                    .map(|_| Atomic::null())
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
            })
            .into_shared(guard);
            let kn_ref = unsafe { kn.deref() };
            kn_ref.head.store(node, Ordering::Release);
            kn_ref.tower[0].store(pos.succs[0], Ordering::Release);
            let link = self.level_link(pos.preds[0], 0);
            if link
                .compare_exchange(pos.succs[0], kn, Ordering::AcqRel, Ordering::Acquire, guard)
                .is_ok()
            {
                self.link_upper(kn, key, height, guard);
                return;
            }
            // Lost the level-0 race (concurrent insert, or the predecessor
            // died). Reclaim the unpublished node and retry; the chain still
            // only references `node` through pointers we are about to reset.
            unsafe { drop(kn.into_owned()) };
        }
    }

    /// Link a freshly published key node into tower levels `1..height`.
    fn link_upper<'g>(
        &self,
        kn: Shared<'g, KeyNode<N>>,
        key: Key,
        height: usize,
        guard: &'g Guard,
    ) {
        if height <= 1 {
            return;
        }
        let _tower = self.tower_lock.lock();
        let kn_ref = unsafe { kn.deref() };
        for level in 1..height {
            loop {
                if kn_ref.head.load(Ordering::Acquire, guard).tag() == DEAD {
                    // Emptied and flagged dead before we got here; the
                    // retirement (waiting on this lock) unlinks whatever we
                    // have linked so far.
                    return;
                }
                let pos = self.find(key, guard);
                kn_ref.tower[level].store(pos.succs[level], Ordering::Release);
                if self
                    .level_link(pos.preds[level], level)
                    .compare_exchange(
                        pos.succs[level],
                        kn,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    )
                    .is_ok()
                {
                    break;
                }
            }
        }
    }

    /// Unlink `target` from its key's version chain. Returns `true` if the
    /// version was found and unlinked. If that left the chain empty, the key
    /// node itself is retired.
    ///
    /// # Safety contract (enforced by the storage-layer GC)
    /// Same as [`crate::HashIndex::unlink`]: concurrent `unlink` calls on the
    /// same index are not allowed; concurrent inserts and traversals are
    /// fine; the caller must reclaim the version through the epoch mechanism.
    pub fn unlink<'g>(&self, target: Shared<'g, N>, guard: &'g Guard) -> bool {
        let target_ref = unsafe { target.deref() };
        let key = target_ref.key(self.slot);
        let pos = self.find(key, guard);
        let kn_shared = pos.succs[0];
        let kn = match unsafe { kn_shared.as_ref() } {
            Some(k) if k.key == key => k,
            _ => return false,
        };
        let removed = 'retry: loop {
            // Find the link (chain head or a predecessor version's next
            // pointer) currently pointing at `target`.
            let mut link: &Atomic<N> = &kn.head;
            let mut current = link.load(Ordering::Acquire, guard);
            loop {
                if current.is_null() {
                    // Not present (dead flag also lands here: tagged null).
                    break 'retry false;
                }
                if current == target {
                    let next = target_ref
                        .next_ptr(self.slot)
                        .load(Ordering::Acquire, guard);
                    match link.compare_exchange(
                        current,
                        next,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    ) {
                        Ok(_) => break 'retry true,
                        // An insert pushed a new chain head; retry.
                        Err(_) => continue 'retry,
                    }
                }
                let node = unsafe { current.deref() };
                link = node.next_ptr(self.slot);
                current = link.load(Ordering::Acquire, guard);
            }
        };
        if removed && kn.head.load(Ordering::Acquire, guard).is_null() {
            self.retire_key_node(kn_shared, guard);
        }
        removed
    }

    /// Retire an empty key node (module docs, steps 1–3). Called only from
    /// [`OrderedIndex::unlink`], i.e. GC-serialized.
    fn retire_key_node<'g>(&self, kn: Shared<'g, KeyNode<N>>, guard: &'g Guard) {
        let kn_ref = unsafe { kn.deref() };
        // Step 1: flag dead. Fails iff an inserter revived the chain.
        if kn_ref
            .head
            .compare_exchange(
                Shared::null(),
                Shared::null().with_tag(DEAD),
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            )
            .is_err()
        {
            return;
        }
        let key = kn_ref.key;
        let _tower = self.tower_lock.lock();
        // Step 2: tag our own level-0 next so no new node can be linked
        // directly behind us (the inserter's CAS expects an untagged value).
        let mut next0 = kn_ref.tower[0].load(Ordering::Acquire, guard);
        while next0.tag() != DEAD {
            match kn_ref.tower[0].compare_exchange(
                next0,
                next0.with_tag(DEAD),
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            ) {
                Ok(_) => break,
                Err(err) => next0 = err.current,
            }
        }
        // Step 3: unlink from every linked level, top-down, behind the
        // predecessors one `find` reports. Upper levels are stable under
        // `tower_lock`; a level-0 CAS that loses to a lock-free insert
        // landing on the predecessor searches again. `find` stops at this
        // node (its key is not below `key`), so it never loads the tagged
        // level-0 next.
        let mut pos = self.find(key, guard);
        for level in (0..kn_ref.height).rev() {
            while pos.succs[level] == kn {
                let next = kn_ref.tower[level]
                    .load(Ordering::Acquire, guard)
                    .with_tag(0);
                if self
                    .level_link(pos.preds[level], level)
                    .compare_exchange(kn, next, Ordering::AcqRel, Ordering::Acquire, guard)
                    .is_ok()
                {
                    break;
                }
                pos = self.find(key, guard);
            }
        }
        unsafe { guard.defer_destroy(kn) };
    }

    /// Iterate over every version whose key lies in the inclusive range
    /// `[lo, hi]`, grouped by key in ascending key order (within one key,
    /// chain order: most recently inserted first).
    ///
    /// As with hash-bucket iteration, callers must still check visibility;
    /// unlike a hash bucket, every yielded version's key *does* match the
    /// predicate — there are no hash collisions to filter out.
    pub fn iter_range<'g>(&self, lo: Key, hi: Key, guard: &'g Guard) -> RangeIter<'g, N> {
        let start = if lo > hi {
            Shared::null()
        } else {
            self.find(lo, guard).succs[0]
        };
        RangeIter {
            slot: self.slot,
            hi,
            node: start,
            version: Shared::null(),
            guard,
        }
    }

    /// Iterate over every version carrying exactly `key` (degenerate range).
    #[inline]
    pub fn iter_key<'g>(&self, key: Key, guard: &'g Guard) -> RangeIter<'g, N> {
        self.iter_range(key, key, guard)
    }

    /// Iterate over every version in the index, in ascending key order.
    #[inline]
    pub fn iter_all<'g>(&self, guard: &'g Guard) -> RangeIter<'g, N> {
        self.iter_range(Key::MIN, Key::MAX, guard)
    }

    /// Number of key nodes currently linked at level 0 (dead-but-not-yet
    /// unlinked nodes included). Intended for tests and leak auditing.
    pub fn key_node_count(&self) -> usize {
        let guard = epoch::pin();
        let mut n = 0;
        let mut curr = self.head_tower[0]
            .load(Ordering::Acquire, &guard)
            .with_tag(0);
        while let Some(c) = unsafe { curr.as_ref() } {
            n += 1;
            curr = c.tower[0].load(Ordering::Acquire, &guard).with_tag(0);
        }
        n
    }

    /// Drain every chain, returning the version pointers without freeing
    /// them, and free all key nodes. Only meaningful when the caller has
    /// exclusive access (e.g. table teardown); the storage layer uses it to
    /// free all versions exactly once.
    pub fn drain_exclusive<'g>(&self, guard: &'g Guard) -> Vec<Shared<'g, N>> {
        let mut out = Vec::new();
        let mut curr = self.head_tower[0]
            .load(Ordering::Acquire, guard)
            .with_tag(0);
        for link in self.head_tower.iter() {
            link.store(Shared::null(), Ordering::Release);
        }
        while !curr.is_null() {
            let next = {
                let kn = unsafe { curr.deref() };
                let mut v = kn.head.load(Ordering::Acquire, guard).with_tag(0);
                while !v.is_null() {
                    out.push(v);
                    v = unsafe { v.deref() }
                        .next_ptr(self.slot)
                        .load(Ordering::Acquire, guard);
                }
                kn.tower[0].load(Ordering::Acquire, guard).with_tag(0)
            };
            unsafe { drop(curr.into_owned()) };
            curr = next;
        }
        out
    }
}

impl<N: ChainNode> Drop for OrderedIndex<N> {
    fn drop(&mut self) {
        // Key nodes are owned by the index; versions are owned by the storage
        // layer (which drains them before dropping the index, or frees them
        // through its own teardown path).
        let guard = epoch::pin();
        let mut curr = self.head_tower[0]
            .load(Ordering::Acquire, &guard)
            .with_tag(0);
        while !curr.is_null() {
            let next = unsafe { curr.deref() }.tower[0]
                .load(Ordering::Acquire, &guard)
                .with_tag(0);
            unsafe { drop(curr.into_owned()) };
            curr = next;
        }
    }
}

impl<N: ChainNode> std::fmt::Debug for OrderedIndex<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedIndex")
            .field("slot", &self.slot)
            .field("key_nodes", &self.key_node_count())
            .finish()
    }
}

/// Iterator over the versions of an inclusive key range.
pub struct RangeIter<'g, N: ChainNode> {
    slot: usize,
    hi: Key,
    /// Next key node to visit (already >= lo), or null when exhausted.
    node: Shared<'g, KeyNode<N>>,
    /// Next version of the current key node's chain, or null.
    version: Shared<'g, N>,
    guard: &'g Guard,
}

impl<'g, N: ChainNode> Iterator for RangeIter<'g, N> {
    type Item = Shared<'g, N>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if !self.version.is_null() {
                let item = self.version;
                self.version = unsafe { item.deref() }
                    .next_ptr(self.slot)
                    .load(Ordering::Acquire, self.guard);
                return Some(item);
            }
            let kn = unsafe { self.node.as_ref() }?;
            if kn.key > self.hi {
                self.node = Shared::null();
                return None;
            }
            // A dead node's head is a tagged null; with_tag(0) makes it a
            // plain null and the node is skipped.
            self.version = kn.head.load(Ordering::Acquire, self.guard).with_tag(0);
            self.node = kn.tower[0].load(Ordering::Acquire, self.guard).with_tag(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    static DROPS: AtomicUsize = AtomicUsize::new(0);

    /// Single-slot test version with a drop counter for leak auditing.
    struct TestNode {
        key: u64,
        payload: u64,
        next: Atomic<TestNode>,
        counted: bool,
    }

    impl TestNode {
        fn new(key: u64, payload: u64) -> Owned<TestNode> {
            Owned::new(TestNode {
                key,
                payload,
                next: Atomic::null(),
                counted: false,
            })
        }

        fn counted(key: u64, payload: u64) -> Owned<TestNode> {
            Owned::new(TestNode {
                key,
                payload,
                next: Atomic::null(),
                counted: true,
            })
        }
    }

    impl Drop for TestNode {
        fn drop(&mut self) {
            if self.counted {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    impl ChainNode for TestNode {
        fn next_ptr(&self, _slot: usize) -> &Atomic<TestNode> {
            &self.next
        }
        fn key(&self, _slot: usize) -> Key {
            self.key
        }
    }

    fn keys_in(index: &OrderedIndex<TestNode>, lo: u64, hi: u64) -> Vec<u64> {
        let guard = epoch::pin();
        index
            .iter_range(lo, hi, &guard)
            .map(|n| unsafe { n.deref() }.key)
            .collect()
    }

    fn free_all(index: &OrderedIndex<TestNode>) {
        let guard = epoch::pin();
        for node in index.drain_exclusive(&guard) {
            unsafe { guard.defer_destroy(node) };
        }
    }

    #[test]
    fn range_iteration_is_sorted_and_inclusive() {
        let index = OrderedIndex::<TestNode>::new(0);
        let guard = epoch::pin();
        for k in [50u64, 10, 30, 20, 40] {
            index.insert(TestNode::new(k, k).into_shared(&guard), &guard);
        }
        drop(guard);
        assert_eq!(keys_in(&index, 10, 50), vec![10, 20, 30, 40, 50]);
        assert_eq!(keys_in(&index, 20, 40), vec![20, 30, 40]);
        assert_eq!(keys_in(&index, 21, 39), vec![30]);
        assert_eq!(keys_in(&index, 35, 35), Vec::<u64>::new());
        assert_eq!(keys_in(&index, 40, 20), Vec::<u64>::new());
        assert_eq!(index.key_node_count(), 5);
        free_all(&index);
    }

    #[test]
    fn duplicate_keys_share_one_key_node() {
        let index = OrderedIndex::<TestNode>::new(0);
        let guard = epoch::pin();
        for payload in 0..5u64 {
            index.insert(TestNode::new(7, payload).into_shared(&guard), &guard);
        }
        index.insert(TestNode::new(3, 99).into_shared(&guard), &guard);
        assert_eq!(index.key_node_count(), 2);
        let chained: Vec<u64> = index
            .iter_key(7, &guard)
            .map(|n| unsafe { n.deref() }.payload)
            .collect();
        // Chain order is push order reversed (head insertion).
        assert_eq!(chained, vec![4, 3, 2, 1, 0]);
        drop(guard);
        free_all(&index);
    }

    #[test]
    fn unlink_retires_emptied_key_nodes() {
        let index = OrderedIndex::<TestNode>::new(0);
        let guard = epoch::pin();
        let mut nodes = Vec::new();
        for k in 0..10u64 {
            let shared = TestNode::new(k, k).into_shared(&guard);
            index.insert(shared, &guard);
            nodes.push(shared);
        }
        // Unlink the lone version of key 4: its key node must be retired.
        assert!(index.unlink(nodes[4], &guard));
        unsafe { guard.defer_destroy(nodes[4]) };
        assert_eq!(index.key_node_count(), 9);
        assert_eq!(keys_in(&index, 0, 9), vec![0, 1, 2, 3, 5, 6, 7, 8, 9]);
        // Unlinking it again finds nothing.
        assert!(!index.unlink(nodes[4], &guard));
        // Reinserting the key builds a fresh key node.
        index.insert(TestNode::new(4, 400).into_shared(&guard), &guard);
        assert_eq!(index.key_node_count(), 10);
        assert_eq!(keys_in(&index, 4, 4), vec![4]);
        drop(guard);
        free_all(&index);
    }

    #[test]
    fn unlink_keeps_key_node_while_chain_is_nonempty() {
        let index = OrderedIndex::<TestNode>::new(0);
        let guard = epoch::pin();
        let a = TestNode::new(5, 1).into_shared(&guard);
        let b = TestNode::new(5, 2).into_shared(&guard);
        index.insert(a, &guard);
        index.insert(b, &guard);
        assert!(index.unlink(a, &guard));
        unsafe { guard.defer_destroy(a) };
        assert_eq!(index.key_node_count(), 1);
        let left: Vec<u64> = index
            .iter_key(5, &guard)
            .map(|n| unsafe { n.deref() }.payload)
            .collect();
        assert_eq!(left, vec![2]);
        drop(guard);
        free_all(&index);
    }

    #[test]
    fn a_range_walk_standing_on_a_retired_key_node_still_reaches_every_linked_one() {
        let index = OrderedIndex::<TestNode>::new(0);
        let guard = epoch::pin();
        let mut nodes = Vec::new();
        for k in [10u64, 20, 30, 40, 50] {
            let shared = TestNode::new(k, k).into_shared(&guard);
            index.insert(shared, &guard);
            nodes.push(shared);
        }
        let mut walk = index.iter_range(10, 50, &guard);
        // Yielding key 10's version advances the walk onto key node 20.
        assert_eq!(unsafe { walk.next().unwrap().deref() }.key, 10);
        // The collector empties key node 20 (the one the walk stands on) and
        // then its successor 30: both are DEAD-tagged, unlinked from every
        // level and retired, but keep their own level-0 `next`, and the
        // guard keeps them allocated.
        for retired in [1, 2] {
            assert!(index.unlink(nodes[retired], &guard));
            unsafe { guard.defer_destroy(nodes[retired]) };
        }
        assert_eq!(index.key_node_count(), 3);
        let rest: Vec<u64> = walk.map(|n| unsafe { n.deref() }.key).collect();
        assert_eq!(rest, vec![40, 50]);
        assert_eq!(keys_in(&index, 10, 50), vec![10, 40, 50]);
        drop(guard);
        free_all(&index);
    }

    #[test]
    fn concurrent_inserts_are_not_lost() {
        let index = Arc::new(OrderedIndex::<TestNode>::new(0));
        let threads = 4;
        let per_thread = 500u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let index = Arc::clone(&index);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    // Interleave key spaces so threads contend on adjacency.
                    let key = i * threads as u64 + t as u64;
                    let guard = epoch::pin();
                    index.insert(TestNode::new(key, key).into_shared(&guard), &guard);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = threads as u64 * per_thread;
        let seen = keys_in(&index, 0, u64::MAX);
        assert_eq!(seen.len() as u64, total);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        free_all(&index);
    }

    #[test]
    fn concurrent_churn_under_epoch_gc_leaks_nothing() {
        // Pushers keep inserting versions while a single GC thread (unlink is
        // GC-serialized by contract) unlinks and retires them. Every counted
        // node must be dropped exactly once by the end.
        let start_drops = DROPS.load(Ordering::Relaxed);
        let index = Arc::new(OrderedIndex::<TestNode>::new(0));
        let rounds = 300u64;
        let keys_per_round = 8u64;

        let pusher = {
            let index = Arc::clone(&index);
            std::thread::spawn(move || {
                for r in 0..rounds {
                    let guard = epoch::pin();
                    for k in 0..keys_per_round {
                        index.insert(
                            TestNode::counted(k * 3, r * keys_per_round + k).into_shared(&guard),
                            &guard,
                        );
                    }
                }
            })
        };
        let collector = {
            let index = Arc::clone(&index);
            std::thread::spawn(move || {
                let mut unlinked = 0u64;
                while unlinked < rounds * keys_per_round {
                    let guard = epoch::pin();
                    let victims: Vec<_> = index.iter_all(&guard).take(16).collect();
                    for v in victims {
                        if index.unlink(v, &guard) {
                            unsafe { guard.defer_destroy(v) };
                            unlinked += 1;
                        }
                    }
                    drop(guard);
                    std::thread::yield_now();
                }
            })
        };
        pusher.join().unwrap();
        collector.join().unwrap();

        assert_eq!(keys_in(&index, 0, u64::MAX), Vec::<u64>::new());
        assert_eq!(index.key_node_count(), 0);
        // The collector thread exited with its last retirements still in its
        // bags; they were orphaned to whoever flushes next — us.
        let dropped = || (DROPS.load(Ordering::Relaxed) - start_drops) as u64;
        crate::test_support::flush_epochs_until(|| dropped() == rounds * keys_per_round);
        assert_eq!(dropped(), rounds * keys_per_round, "every version freed");
    }

    #[test]
    fn retiring_the_last_key_node_of_a_long_index_costs_one_search() {
        // Each cycle inserts a key above every loaded one and unlinks it,
        // retiring its key node at the end of the list. Retirement takes
        // the node's predecessors from one search; a walk of each level
        // from the list head made a cycle cost ~100 000 hops. Pins are
        // short, so the epoch keeps advancing for tests running beside it.
        const LOADED: u64 = 100_000;
        const CYCLES: u64 = 2_000;
        let index = OrderedIndex::<TestNode>::new(0);
        for k in 0..LOADED {
            let guard = epoch::pin();
            index.insert(TestNode::new(k, k).into_shared(&guard), &guard);
        }
        let started = std::time::Instant::now();
        for cycle in 0..CYCLES {
            let guard = epoch::pin();
            let node = TestNode::new(LOADED + cycle, cycle).into_shared(&guard);
            index.insert(node, &guard);
            assert!(index.unlink(node, &guard), "cycle {cycle}: unlink");
            // SAFETY: the node is unlinked and referenced by nothing else;
            // readers that might still see it are pinned, and the epoch
            // defers the free past them.
            unsafe { guard.defer_destroy(node) };
        }
        let elapsed = started.elapsed();
        assert_eq!(index.key_node_count(), LOADED as usize);
        let bound = if cfg!(debug_assertions) {
            std::time::Duration::from_secs(5)
        } else {
            std::time::Duration::from_millis(500)
        };
        assert!(
            elapsed < bound,
            "{CYCLES} insert-and-retire cycles at the end of {LOADED} keys took \
             {elapsed:?} (bound {bound:?})"
        );
        free_all(&index);
    }

    #[test]
    fn drain_exclusive_empties_the_index() {
        let index = OrderedIndex::<TestNode>::new(0);
        let guard = epoch::pin();
        for k in 0..10u64 {
            index.insert(TestNode::new(k % 4, k).into_shared(&guard), &guard);
        }
        let drained = index.drain_exclusive(&guard);
        assert_eq!(drained.len(), 10);
        assert_eq!(index.key_node_count(), 0);
        assert_eq!(index.iter_all(&guard).count(), 0);
        for node in drained {
            unsafe { guard.defer_destroy(node) };
        }
    }

    #[test]
    fn heights_are_deterministic_and_bounded() {
        for k in 0..10_000u64 {
            let h = OrderedIndex::<TestNode>::height_of(k);
            assert_eq!(h, OrderedIndex::<TestNode>::height_of(k));
            assert!((1..=MAX_HEIGHT).contains(&h));
        }
        // The geometric distribution should actually produce tall nodes.
        let tall = (0..10_000u64)
            .filter(|&k| OrderedIndex::<TestNode>::height_of(k) >= 4)
            .count();
        assert!(
            tall > 500,
            "expected ~1/8 of nodes at height >= 4, got {tall}"
        );
    }
}

//! Version visibility, updatability and uniqueness (§2.5, §2.6, Tables 1–2).
//!
//! A read specifies a logical read time `RT`; only versions whose valid time
//! overlaps `RT` are visible. The complication is that a version's Begin or
//! End field may hold a transaction ID rather than a timestamp, in which case
//! the outcome depends on that transaction's state and end timestamp — and we
//! must never block while finding out. When the other transaction is in the
//! Preparing state the outcome is decided *speculatively* and the reader
//! acquires a commit dependency instead of waiting.

use crossbeam::epoch::Guard;
use mmdb_common::ids::{Timestamp, TxnId};
use mmdb_common::word::{BeginWord, EndWord};

use mmdb_storage::txn_table::{TxnState, TxnTable};
use mmdb_storage::version::Version;

/// Outcome of a visibility test.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Visibility {
    /// Is the version visible at the requested read time?
    pub visible: bool,
    /// If `Some`, the outcome is speculative: it holds only if the named
    /// transaction commits, so the reader must take a commit dependency on it
    /// before relying on the outcome (§2.7).
    pub dependency: Option<TxnId>,
}

impl Visibility {
    const VISIBLE: Visibility = Visibility {
        visible: true,
        dependency: None,
    };
    const INVISIBLE: Visibility = Visibility {
        visible: false,
        dependency: None,
    };

    fn speculative(visible: bool, dep: TxnId) -> Visibility {
        Visibility {
            visible,
            dependency: Some(dep),
        }
    }
}

/// Outcome of an updatability test (§2.6).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Updatability {
    /// The version is the latest and can be updated; the CAS that installs
    /// the write lock should expect the End word observed here.
    Updatable {
        /// The End word observed during the test.
        observed: EndWord,
    },
    /// Another (not aborted) transaction already superseded or write-locked
    /// the version: a write-write conflict under first-writer-wins.
    Conflict {
        /// The conflicting transaction, when identifiable.
        holder: Option<TxnId>,
    },
}

/// Outcome of a uniqueness test ([`check_uniqueness`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Uniqueness {
    /// Its creator aborted, or a committed transaction or the tester ended it.
    Free,
    /// The version holds its key in the latest state.
    Duplicate,
    /// The named live transaction is creating or ending the version.
    Pending(TxnId),
}

/// How many times visibility re-reads a field whose owning transaction has
/// left the transaction table before concluding something is wrong. Leaving
/// the table comes after finalizing the field, so one or two retries always
/// suffice in practice.
const MAX_REREADS: u32 = 64;

/// Check whether `version` is visible to transaction `me` at read time `rt`.
///
/// `me` identifies the reading transaction so its own writes resolve correctly.
/// A transaction found [`TxnState::Precommitting`] is drawing its end
/// timestamp right now; both halves re-read until it is published.
pub fn check_visibility(
    version: &Version,
    rt: Timestamp,
    me: TxnId,
    txns: &TxnTable,
    guard: &Guard,
) -> Visibility {
    // ---- Step 1: the Begin field (Table 1). ----
    let mut begin_dep: Option<TxnId> = None;
    let mut rereads = 0;
    loop {
        let tb = match version.begin_word() {
            BeginWord::Timestamp(bts) if bts > rt => {
                // Not yet born at the read time (also covers aborted
                // versions whose Begin was set to infinity).
                return Visibility::INVISIBLE;
            }
            BeginWord::Timestamp(_) => break,
            BeginWord::Txn(tb) if tb == me => {
                // My own uncommitted version: visible only if it is my latest
                // (End still infinity / not superseded by me).
                return match version.end_word() {
                    EndWord::Timestamp(ts) if ts.is_infinity() => Visibility::VISIBLE,
                    EndWord::Lock(lock) if lock.writer.is_none() => Visibility::VISIBLE,
                    _ => Visibility::INVISIBLE,
                };
            }
            BeginWord::Txn(tb) => tb,
        };
        let Some(tb_handle) = txns.get_in(tb, guard) else {
            // TB is not found: it finished postprocessing, which finalized
            // the Begin field, so re-read it.
            rereads += 1;
            if rereads > MAX_REREADS {
                return Visibility::INVISIBLE;
            }
            std::hint::spin_loop();
            continue;
        };
        match tb_handle.state() {
            // TB's writes are uncommitted, or garbage.
            TxnState::Active | TxnState::Aborted => return Visibility::INVISIBLE,
            TxnState::Precommitting => std::hint::spin_loop(),
            TxnState::Preparing(ts) | TxnState::Committed(ts) if ts > rt => {
                return Visibility::INVISIBLE
            }
            // Speculatively readable: proceed, remembering the dependency
            // on TB committing.
            TxnState::Preparing(_) => {
                begin_dep = Some(tb);
                break;
            }
            TxnState::Committed(_) => break,
        }
    }

    // ---- Step 2: the End field (Table 2). ----
    let visible = Visibility {
        visible: true,
        dependency: begin_dep,
    };
    let mut rereads = 0;
    loop {
        let te = match version.end_word() {
            EndWord::Timestamp(ets) => {
                return if rt < ets {
                    visible
                } else {
                    Visibility::INVISIBLE
                };
            }
            EndWord::Lock(lock) => match lock.writer {
                // Read locks only — the version is still the latest.
                None => return visible,
                // I superseded or deleted this version myself; my reads
                // must observe my newer version instead.
                Some(te) if te == me => return Visibility::INVISIBLE,
                Some(te) => te,
            },
        };
        let Some(te_handle) = txns.get_in(te, guard) else {
            // TE is not found: it finalized the End field (commit) or reset
            // it (abort) — re-read it.
            rereads += 1;
            if rereads > MAX_REREADS {
                return visible;
            }
            std::hint::spin_loop();
            continue;
        };
        match te_handle.state() {
            // TE's update is uncommitted, or rolled back: V is still the
            // latest committed version.
            TxnState::Active | TxnState::Aborted => return visible,
            TxnState::Precommitting => std::hint::spin_loop(),
            // Whatever TE does, V remains visible at rt.
            TxnState::Preparing(ts) | TxnState::Committed(ts) if ts > rt => return visible,
            // TS ≤ RT: if TE commits V is invisible; if TE aborts it stays
            // visible. Speculatively ignore.
            TxnState::Preparing(_) => return Visibility::speculative(false, te),
            TxnState::Committed(_) => return Visibility::INVISIBLE,
        }
    }
}

/// Check whether `version` may be updated (or deleted) by transaction `me`
/// (§2.6): it must be the latest version — End equal to infinity, carrying
/// only read locks, or write-locked by a transaction that has aborted.
pub fn check_updatable(
    version: &Version,
    me: TxnId,
    txns: &TxnTable,
    guard: &Guard,
) -> Updatability {
    let mut rereads = 0;
    loop {
        let observed = version.end_word();
        match observed {
            EndWord::Timestamp(ts) if ts.is_infinity() => {
                return Updatability::Updatable { observed };
            }
            EndWord::Timestamp(_) => {
                // Already superseded by a committed transaction.
                return Updatability::Conflict { holder: None };
            }
            EndWord::Lock(lock) => match lock.writer {
                None => return Updatability::Updatable { observed },
                Some(holder) if holder == me => {
                    // Updating the same version twice within one transaction:
                    // the caller should be operating on its own newer version
                    // instead; report a conflict to keep first-writer-wins
                    // semantics simple.
                    return Updatability::Conflict {
                        holder: Some(holder),
                    };
                }
                Some(holder) => match txns.get_in(holder, guard) {
                    // The holder aborted: the version is still the latest
                    // committed one and may be re-locked.
                    Some(h) if h.state() == TxnState::Aborted => {
                        return Updatability::Updatable { observed }
                    }
                    Some(_) => {
                        return Updatability::Conflict {
                            holder: Some(holder),
                        }
                    }
                    None => {
                        // Holder not found: it finalized the End field
                        // (commit) or reset it (abort) — re-read.
                        rereads += 1;
                        if rereads > MAX_REREADS {
                            return Updatability::Conflict {
                                holder: Some(holder),
                            };
                        }
                        std::hint::spin_loop();
                        continue;
                    }
                },
            },
        }
    }
}

/// Judge a version holding a key that `me` writes into a unique index by the
/// latest state, with no read time: the Begin word and its creator's state,
/// then §2.6's first-writer-wins judgment of the End word. A creator missing
/// from the transaction table past the re-reads is `Pending` (fail closed).
pub(crate) fn check_uniqueness(
    version: &Version,
    me: TxnId,
    txns: &TxnTable,
    guard: &Guard,
) -> Uniqueness {
    let mut rereads = 0;
    loop {
        let tb = match version.begin_word() {
            // An aborted creator sets Begin to infinity.
            BeginWord::Timestamp(ts) if ts.is_infinity() => return Uniqueness::Free,
            BeginWord::Timestamp(_) => break,
            BeginWord::Txn(tb) if tb == me => break,
            BeginWord::Txn(tb) => tb,
        };
        match txns.get_in(tb, guard).map(|h| h.state()) {
            Some(TxnState::Aborted) => return Uniqueness::Free,
            Some(TxnState::Committed(_)) => break,
            Some(_) => return Uniqueness::Pending(tb),
            // TB finalized the Begin field and left: re-read it.
            None if rereads < MAX_REREADS => rereads += 1,
            None => return Uniqueness::Pending(tb),
        }
    }
    match check_updatable(version, me, txns, guard) {
        Updatability::Updatable { .. } => Uniqueness::Duplicate,
        Updatability::Conflict { holder: Some(h) } if h != me => Uniqueness::Pending(h),
        Updatability::Conflict { .. } => Uniqueness::Free,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_common::ids::INFINITY_TS;
    use mmdb_common::isolation::{ConcurrencyMode, IsolationLevel};
    use mmdb_common::row::rowbuf;
    use mmdb_common::word::LockWord;
    use mmdb_storage::txn_table::TxnHandle;
    use std::sync::Arc;

    /// Test shorthand: pin a guard per call so the table-driven cases below
    /// keep the paper's 4-argument shape.
    fn check_visibility(
        version: &Version,
        rt: Timestamp,
        me: TxnId,
        txns: &TxnTable,
    ) -> Visibility {
        let guard = crossbeam::epoch::pin();
        super::check_visibility(version, rt, me, txns, &guard)
    }

    fn check_updatable(version: &Version, me: TxnId, txns: &TxnTable) -> Updatability {
        let guard = crossbeam::epoch::pin();
        super::check_updatable(version, me, txns, &guard)
    }

    fn committed_version(begin: u64, end: Option<u64>) -> Version {
        let v = Version::new_committed(Timestamp(begin), rowbuf::keyed_row(1, 16, 0), &[1]);
        if let Some(e) = end {
            v.set_end(EndWord::Timestamp(Timestamp(e)));
        }
        v
    }

    fn handle(id: u64, begin: u64) -> Arc<TxnHandle> {
        TxnHandle::new(
            TxnId(id),
            Timestamp(begin),
            ConcurrencyMode::Optimistic,
            IsolationLevel::Serializable,
        )
    }

    fn register(txns: &TxnTable, id: u64, begin: u64, state: TxnState) {
        let h = handle(id, begin);
        h.set_state(state);
        txns.register(h);
    }

    const PREPARING_60: TxnState = TxnState::Preparing(Timestamp(60));
    const COMMITTED_60: TxnState = TxnState::Committed(Timestamp(60));

    const ME: TxnId = TxnId(500);

    #[test]
    fn plain_timestamps_define_a_window() {
        let txns = TxnTable::new();
        let v = committed_version(10, Some(20));
        assert!(!check_visibility(&v, Timestamp(5), ME, &txns).visible);
        assert!(check_visibility(&v, Timestamp(10), ME, &txns).visible);
        assert!(check_visibility(&v, Timestamp(15), ME, &txns).visible);
        assert!(!check_visibility(&v, Timestamp(20), ME, &txns).visible);
        assert!(!check_visibility(&v, Timestamp(25), ME, &txns).visible);
    }

    #[test]
    fn latest_version_visible_from_begin_onwards() {
        let txns = TxnTable::new();
        let v = committed_version(10, None);
        assert!(check_visibility(&v, Timestamp(1_000_000), ME, &txns).visible);
        assert!(!check_visibility(&v, Timestamp(9), ME, &txns).visible);
    }

    #[test]
    fn own_uncommitted_version_visible_only_to_creator() {
        let txns = TxnTable::new();
        let v = Version::new(ME, rowbuf::keyed_row(1, 16, 0), &[1]);
        assert!(check_visibility(&v, Timestamp(100), ME, &txns).visible);
        // Another transaction (begin word holds an ID of an Active txn).
        register(&txns, ME.0, 50, TxnState::Active);
        assert!(!check_visibility(&v, Timestamp(100), TxnId(7), &txns).visible);
    }

    #[test]
    fn own_superseded_version_is_invisible_to_creator() {
        let txns = TxnTable::new();
        // I created it *and* then updated it (write lock by me): invisible.
        let v = Version::new(ME, rowbuf::keyed_row(1, 16, 0), &[1]);
        v.set_end(EndWord::write_locked(ME));
        assert!(!check_visibility(&v, Timestamp(100), ME, &txns).visible);
    }

    #[test]
    fn begin_id_of_preparing_txn_is_speculative() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, PREPARING_60);
        let v = Version::new(TxnId(9), rowbuf::keyed_row(1, 16, 0), &[1]);
        // Read time after TB's end timestamp: speculatively visible.
        let vis = check_visibility(&v, Timestamp(70), ME, &txns);
        assert!(vis.visible);
        assert_eq!(vis.dependency, Some(TxnId(9)));
        // Read time before TB's end timestamp: plain invisible.
        let vis = check_visibility(&v, Timestamp(55), ME, &txns);
        assert!(!vis.visible);
        assert_eq!(vis.dependency, None);
    }

    #[test]
    fn begin_id_of_committed_txn_uses_its_end_ts() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, COMMITTED_60);
        let v = Version::new(TxnId(9), rowbuf::keyed_row(1, 16, 0), &[1]);
        assert!(check_visibility(&v, Timestamp(61), ME, &txns).visible);
        assert!(!check_visibility(&v, Timestamp(59), ME, &txns).visible);
        // No dependency: the outcome is certain.
        assert_eq!(
            check_visibility(&v, Timestamp(61), ME, &txns).dependency,
            None
        );
    }

    #[test]
    fn begin_id_of_aborted_txn_is_garbage() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, TxnState::Aborted);
        let v = Version::new(TxnId(9), rowbuf::keyed_row(1, 16, 0), &[1]);
        assert!(!check_visibility(&v, Timestamp(100), ME, &txns).visible);
    }

    #[test]
    fn end_id_of_active_txn_keeps_version_visible() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, TxnState::Active);
        let v = committed_version(10, None);
        v.set_end(EndWord::write_locked(TxnId(9)));
        let vis = check_visibility(&v, Timestamp(100), ME, &txns);
        assert!(vis.visible);
        assert_eq!(vis.dependency, None);
    }

    #[test]
    fn end_id_of_preparing_txn_splits_on_read_time() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, PREPARING_60);
        let v = committed_version(10, None);
        v.set_end(EndWord::write_locked(TxnId(9)));
        // RT < TS: visible regardless of TE's outcome, no dependency.
        let vis = check_visibility(&v, Timestamp(55), ME, &txns);
        assert!(vis.visible);
        assert_eq!(vis.dependency, None);
        // RT > TS: speculatively ignore with a dependency on TE.
        let vis = check_visibility(&v, Timestamp(70), ME, &txns);
        assert!(!vis.visible);
        assert_eq!(vis.dependency, Some(TxnId(9)));
    }

    #[test]
    fn end_id_of_aborted_txn_means_visible() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, TxnState::Aborted);
        let v = committed_version(10, None);
        v.set_end(EndWord::write_locked(TxnId(9)));
        assert!(check_visibility(&v, Timestamp(100), ME, &txns).visible);
    }

    #[test]
    fn read_locked_version_is_visible() {
        let txns = TxnTable::new();
        let v = committed_version(10, None);
        v.set_end(EndWord::Lock(LockWord::EMPTY.with_extra_reader().unwrap()));
        assert!(check_visibility(&v, Timestamp(50), ME, &txns).visible);
    }

    #[test]
    fn updatability_rules() {
        let txns = TxnTable::new();
        // Latest (infinity): updatable.
        let v = committed_version(10, None);
        assert!(matches!(
            check_updatable(&v, ME, &txns),
            Updatability::Updatable { .. }
        ));
        // Superseded by a committed version: conflict.
        let v = committed_version(10, Some(20));
        assert!(matches!(
            check_updatable(&v, ME, &txns),
            Updatability::Conflict { .. }
        ));
        // Write-locked by an active transaction: conflict identifying the holder.
        register(&txns, 9, 50, TxnState::Active);
        let v = committed_version(10, None);
        v.set_end(EndWord::write_locked(TxnId(9)));
        assert_eq!(
            check_updatable(&v, ME, &txns),
            Updatability::Conflict {
                holder: Some(TxnId(9))
            }
        );
        // Write-locked by an aborted transaction: updatable again.
        register(&txns, 11, 50, TxnState::Aborted);
        let v = committed_version(10, None);
        v.set_end(EndWord::write_locked(TxnId(11)));
        assert!(matches!(
            check_updatable(&v, ME, &txns),
            Updatability::Updatable { .. }
        ));
        // Read-locked only: updatable (eager update).
        let v = committed_version(10, None);
        v.set_end(EndWord::Lock(LockWord::EMPTY.with_extra_reader().unwrap()));
        assert!(matches!(
            check_updatable(&v, ME, &txns),
            Updatability::Updatable { .. }
        ));
    }

    /// One row per rule of `check_uniqueness`. No row has a read time:
    /// the first one is the shape a read-time judgment let through.
    #[test]
    fn uniqueness_rules() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, PREPARING_60);
        register(&txns, 11, 50, TxnState::Aborted);
        register(&txns, 12, 50, TxnState::Active);
        let own_deleted = committed_version(10, None);
        own_deleted.set_end(EndWord::write_locked(ME));
        let live_deleter = committed_version(10, None);
        live_deleter.set_end(EndWord::write_locked(TxnId(12)));
        let rows = [
            (
                "Begin finalized above any read time",
                committed_version(1 << 40, None),
                Uniqueness::Duplicate,
            ),
            (
                "own version, End infinity",
                Version::new(ME, rowbuf::keyed_row(1, 16, 0), &[1]),
                Uniqueness::Duplicate,
            ),
            ("own-deleted version", own_deleted, Uniqueness::Free),
            (
                "Preparing creator",
                Version::new(TxnId(9), rowbuf::keyed_row(1, 16, 0), &[1]),
                Uniqueness::Pending(TxnId(9)),
            ),
            (
                "End held by a live deleter",
                live_deleter,
                Uniqueness::Pending(TxnId(12)),
            ),
            (
                "committed End",
                committed_version(10, Some(20)),
                Uniqueness::Free,
            ),
            (
                "aborted creator",
                Version::new(TxnId(11), rowbuf::keyed_row(1, 16, 0), &[1]),
                Uniqueness::Free,
            ),
            (
                "Begin infinity",
                committed_version(INFINITY_TS.raw(), None),
                Uniqueness::Free,
            ),
            (
                "creator not found",
                Version::new(TxnId(424_242), rowbuf::keyed_row(1, 16, 0), &[1]),
                Uniqueness::Pending(TxnId(424_242)),
            ),
        ];
        let guard = crossbeam::epoch::pin();
        for (case, version, expected) in rows {
            assert_eq!(
                check_uniqueness(&version, ME, &txns, &guard),
                expected,
                "{case}"
            );
        }
    }

    #[test]
    fn infinity_begin_means_never_visible() {
        let txns = TxnTable::new();
        let v = committed_version(INFINITY_TS.raw(), None);
        assert!(!check_visibility(&v, Timestamp(u64::MAX >> 2), ME, &txns).visible);
    }

    // -----------------------------------------------------------------
    // Table 1, row by row: the Begin field holds value B; the reading
    // transaction T checks visibility at read time RT.
    // -----------------------------------------------------------------

    /// Table 1 row 1 — B is a timestamp: V is visible iff B ≤ RT (End field
    /// permitting). Boundary: equality counts as visible.
    #[test]
    fn table1_begin_timestamp_boundaries() {
        let txns = TxnTable::new();
        let v = committed_version(10, None);
        assert!(!check_visibility(&v, Timestamp(9), ME, &txns).visible);
        assert!(
            check_visibility(&v, Timestamp(10), ME, &txns).visible,
            "B == RT is visible"
        );
        assert!(check_visibility(&v, Timestamp(11), ME, &txns).visible);
    }

    /// Table 1 row 2 — B holds the ID of transaction TB and TB is Active and
    /// TB == T: visible only if the End field is infinity (T's own latest
    /// write); invisible once T superseded it itself.
    #[test]
    fn table1_begin_own_active_txn() {
        let txns = TxnTable::new();
        let own = Version::new(ME, rowbuf::keyed_row(1, 16, 0), &[1]);
        assert!(check_visibility(&own, Timestamp(1), ME, &txns).visible);
        let superseded = Version::new(ME, rowbuf::keyed_row(1, 16, 0), &[1]);
        superseded.set_end(EndWord::write_locked(ME));
        assert!(!check_visibility(&superseded, Timestamp(1), ME, &txns).visible);
    }

    /// Table 1 row 3 — TB is Active and TB ≠ T: never visible, regardless of
    /// read time.
    #[test]
    fn table1_begin_other_active_txn() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, TxnState::Active);
        let v = Version::new(TxnId(9), rowbuf::keyed_row(1, 16, 0), &[1]);
        assert!(!check_visibility(&v, Timestamp(u64::MAX >> 2), ME, &txns).visible);
    }

    /// Table 1 row 4 — TB is Preparing with end timestamp TS: if TS ≤ RT the
    /// version is *speculatively* visible (commit dependency on TB); if
    /// TS > RT it is plainly invisible. Covered value-by-value in
    /// `begin_id_of_preparing_txn_is_speculative`; here the TS == RT boundary.
    #[test]
    fn table1_begin_preparing_boundary() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, PREPARING_60);
        let v = Version::new(TxnId(9), rowbuf::keyed_row(1, 16, 0), &[1]);
        let vis = check_visibility(&v, Timestamp(60), ME, &txns);
        assert!(vis.visible, "TS == RT: speculatively visible");
        assert_eq!(vis.dependency, Some(TxnId(9)));
    }

    /// Table 1 row 5 — TB is Committed with end timestamp TS: treated as if B
    /// were the timestamp TS (visible iff TS ≤ RT), with no dependency.
    #[test]
    fn table1_begin_committed_boundary() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, COMMITTED_60);
        let v = Version::new(TxnId(9), rowbuf::keyed_row(1, 16, 0), &[1]);
        let at_ts = check_visibility(&v, Timestamp(60), ME, &txns);
        assert!(at_ts.visible, "TS == RT is visible");
        assert_eq!(at_ts.dependency, None);
        assert!(!check_visibility(&v, Timestamp(59), ME, &txns).visible);
    }

    /// Table 1 row 6 — TB is Aborted: the version is garbage, never visible.
    /// (Covered by `begin_id_of_aborted_txn_is_garbage`; restated here for
    /// the table audit.)
    #[test]
    fn table1_begin_aborted() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, TxnState::Aborted);
        let v = Version::new(TxnId(9), rowbuf::keyed_row(1, 16, 0), &[1]);
        assert!(!check_visibility(&v, Timestamp(1_000), ME, &txns).visible);
    }

    /// Table 1 row 7 — TB is not found in the transaction table (the
    /// paper's "Terminated or not found"): TB has finalized the Begin
    /// field, so the checker re-reads it.
    /// When the field genuinely never changes (stale ID), the checker gives
    /// up after bounded re-reads and reports invisible rather than spinning.
    #[test]
    fn table1_begin_terminated_rereads_then_fails_closed() {
        let txns = TxnTable::new();
        let v = Version::new(TxnId(424_242), rowbuf::keyed_row(1, 16, 0), &[1]);
        assert!(!check_visibility(&v, Timestamp(1_000), ME, &txns).visible);
    }

    // -----------------------------------------------------------------
    // Table 2, row by row: the End field holds value E.
    // -----------------------------------------------------------------

    /// Table 2 row 1 — E is a timestamp: V is visible iff RT < E. Boundary:
    /// RT == E is invisible (the superseding version takes over at E), and
    /// E = infinity means "still latest".
    #[test]
    fn table2_end_timestamp_boundaries() {
        let txns = TxnTable::new();
        let v = committed_version(10, Some(20));
        assert!(check_visibility(&v, Timestamp(19), ME, &txns).visible);
        assert!(
            !check_visibility(&v, Timestamp(20), ME, &txns).visible,
            "RT == E is invisible"
        );
        let latest = committed_version(10, None);
        assert!(check_visibility(&latest, Timestamp(u64::MAX >> 2), ME, &txns).visible);
    }

    /// Table 2 row 2 — E holds the ID of transaction TE and TE == T: T
    /// superseded or deleted V itself, so V is invisible to T (T must see its
    /// own newer version instead).
    #[test]
    fn table2_end_own_txn() {
        let txns = TxnTable::new();
        let v = committed_version(10, None);
        v.set_end(EndWord::write_locked(ME));
        assert!(!check_visibility(&v, Timestamp(100), ME, &txns).visible);
    }

    /// Table 2 row 3 — TE is Active and TE ≠ T: TE's update is uncommitted,
    /// so V remains the latest committed version and is visible. (Also
    /// covered by `end_id_of_active_txn_keeps_version_visible`.)
    #[test]
    fn table2_end_other_active_txn() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, TxnState::Active);
        let v = committed_version(10, None);
        v.set_end(EndWord::write_locked(TxnId(9)));
        let vis = check_visibility(&v, Timestamp(1_000), ME, &txns);
        assert!(vis.visible);
        assert_eq!(vis.dependency, None);
    }

    /// Table 2 row 4 — TE is Preparing with end timestamp TS: RT < TS means V
    /// is visible whatever TE does; RT ≥ TS means speculatively ignore V with
    /// a commit dependency on TE. Boundary: TS == RT takes the speculative
    /// branch.
    #[test]
    fn table2_end_preparing_boundary() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, PREPARING_60);
        let v = committed_version(10, None);
        v.set_end(EndWord::write_locked(TxnId(9)));
        let vis = check_visibility(&v, Timestamp(60), ME, &txns);
        assert!(!vis.visible, "TS == RT: speculatively ignored");
        assert_eq!(vis.dependency, Some(TxnId(9)));
    }

    /// Table 2 row 5 — TE is Committed with end timestamp TS: treated as if E
    /// were TS (visible iff RT < TS), no dependency.
    #[test]
    fn table2_end_committed_boundary() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, COMMITTED_60);
        let v = committed_version(10, None);
        v.set_end(EndWord::write_locked(TxnId(9)));
        assert!(check_visibility(&v, Timestamp(59), ME, &txns).visible);
        let at_ts = check_visibility(&v, Timestamp(60), ME, &txns);
        assert!(!at_ts.visible, "RT == TS is invisible");
        assert_eq!(at_ts.dependency, None);
    }

    /// Table 2 row 6 — TE is Aborted: the lock evaporates; V is still the
    /// latest committed version and visible. (Also covered by
    /// `end_id_of_aborted_txn_means_visible`.)
    #[test]
    fn table2_end_aborted() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, TxnState::Aborted);
        let v = committed_version(10, None);
        v.set_end(EndWord::write_locked(TxnId(9)));
        assert!(check_visibility(&v, Timestamp(1_000), ME, &txns).visible);
    }

    /// Table 2 row 7 — TE is not found in the transaction table (the
    /// paper's "Terminated or not found"): TE finalized the End field, so
    /// the checker re-reads; with a genuinely stale writer ID it fails
    /// *open* (the version stays visible — a committed writer would have
    /// finalized the field to a timestamp, an aborted one would have cleared
    /// it).
    #[test]
    fn table2_end_terminated_rereads_then_stays_visible() {
        let txns = TxnTable::new();
        let v = committed_version(10, None);
        v.set_end(EndWord::write_locked(TxnId(424_242)));
        assert!(check_visibility(&v, Timestamp(1_000), ME, &txns).visible);
    }

    /// Table 2 addendum — a read-locked version without a writer is simply
    /// the latest version; the lock word carries no visibility information.
    #[test]
    fn table2_read_locks_do_not_affect_visibility() {
        let txns = TxnTable::new();
        let v = committed_version(10, None);
        v.set_end(EndWord::Lock(
            LockWord::EMPTY
                .with_extra_reader()
                .unwrap()
                .with_extra_reader()
                .unwrap(),
        ));
        assert!(check_visibility(&v, Timestamp(50), ME, &txns).visible);
        assert!(
            !check_visibility(&v, Timestamp(9), ME, &txns).visible,
            "Begin still gates"
        );
    }

    // -----------------------------------------------------------------
    // §2.6 updatability — the remaining holder states beyond
    // `updatability_rules`.
    // -----------------------------------------------------------------

    /// A Preparing holder still counts as a conflict (its commit is the
    /// likely outcome; first-writer-wins).
    #[test]
    fn updatability_preparing_holder_conflicts() {
        let txns = TxnTable::new();
        register(&txns, 9, 50, PREPARING_60);
        let v = committed_version(10, None);
        v.set_end(EndWord::write_locked(TxnId(9)));
        assert_eq!(
            check_updatable(&v, ME, &txns),
            Updatability::Conflict {
                holder: Some(TxnId(9))
            }
        );
    }

    /// Updating a version we already write-locked ourselves is reported as a
    /// conflict: the caller must operate on its own newer version instead.
    #[test]
    fn updatability_own_write_lock_conflicts() {
        let txns = TxnTable::new();
        let v = committed_version(10, None);
        v.set_end(EndWord::write_locked(ME));
        assert_eq!(
            check_updatable(&v, ME, &txns),
            Updatability::Conflict { holder: Some(ME) }
        );
    }

    /// A transaction caught between drawing its end timestamp and
    /// publishing it reads `Precommitting`: the checker re-reads until
    /// `Preparing(60)` appears (here from another thread, 20 ms later) and
    /// then answers speculatively, on both tables — never as if the
    /// transaction were still plain Active.
    #[test]
    fn precommitting_txn_is_waited_out_then_treated_as_preparing() {
        let txns = TxnTable::new();
        let h = handle(9, 50);
        h.set_state(TxnState::Precommitting);
        txns.register(Arc::clone(&h));
        let new = Version::new(TxnId(9), rowbuf::keyed_row(1, 16, 0), &[1]);
        let old = committed_version(10, None);
        old.set_end(EndWord::write_locked(TxnId(9)));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                h.set_state(PREPARING_60);
            });
            // Table 1: its new version is speculatively visible past ts 60.
            let vis = check_visibility(&new, Timestamp(70), ME, &txns);
            assert_eq!(
                h.state(),
                PREPARING_60,
                "the checker answered while TB was Precommitting"
            );
            assert!(vis.visible);
            assert_eq!(vis.dependency, Some(TxnId(9)));
        });
        // ... and plainly invisible before it.
        assert!(!check_visibility(&new, Timestamp(55), ME, &txns).visible);
        // Table 2: a version it is superseding splits on the read time.
        assert!(check_visibility(&old, Timestamp(55), ME, &txns).visible);
        let vis = check_visibility(&old, Timestamp(70), ME, &txns);
        assert!(
            !vis.visible,
            "speculatively ignored past the drawn timestamp"
        );
        assert_eq!(vis.dependency, Some(TxnId(9)));
    }

    /// The observed End word returned on the updatable path is exactly what
    /// the caller must CAS against (read locks included).
    #[test]
    fn updatability_reports_observed_word_for_cas() {
        let txns = TxnTable::new();
        let v = committed_version(10, None);
        let word = EndWord::Lock(LockWord::EMPTY.with_extra_reader().unwrap());
        v.set_end(word);
        match check_updatable(&v, ME, &txns) {
            Updatability::Updatable { observed } => assert_eq!(observed, word),
            other => panic!("expected updatable, got {other:?}"),
        }
    }
}

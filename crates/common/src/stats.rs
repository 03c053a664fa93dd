//! Lightweight atomic counters engines use to report what happened during a
//! run: commits, aborts by reason, waits, speculative reads, garbage
//! collection activity. The workload driver snapshots these before/after a
//! measurement interval, so counters only ever increase.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::contention::ContentionMonitor;

/// Writes the counter list once: the atomic [`EngineStats`] fields, their
/// plain [`StatsSnapshot`] copies, and the field-by-field `snapshot` and
/// `delta_since`.
macro_rules! engine_counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Monotone event counters for one engine instance.
        ///
        /// All counters use relaxed atomics: they are statistics, not
        /// synchronization, and must stay cheap enough to leave enabled
        /// during benchmarks.
        #[derive(Debug, Default)]
        pub struct EngineStats {
            $($(#[$doc])* pub $field: AtomicU64,)*
            /// Windowed contention telemetry (per-table + global EWMA'd
            /// conflict scores with hysteresis). Not part of
            /// [`StatsSnapshot`] — it is a decayed live signal, not a
            /// monotone counter; adaptive engines consult it at `begin` time.
            pub contention: ContentionMonitor,
        }

        /// A point-in-time copy of [`EngineStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $(
                #[doc = concat!("See [`EngineStats::", stringify!($field), "`].")]
                pub $field: u64,
            )*
        }

        impl EngineStats {
            /// Take a point-in-time snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                }
            }
        }

        impl StatsSnapshot {
            /// Component-wise difference (`self - earlier`), for measuring an
            /// interval.
            pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($field: self.$field - earlier.$field,)*
                }
            }
        }
    };
}

engine_counters! {
    /// Transactions that committed.
    commits,
    /// Transactions that aborted for any reason.
    aborts,
    /// Aborts caused by write-write conflicts (first-writer-wins).
    write_conflicts,
    /// Aborts caused by optimistic read validation failure.
    validation_failures,
    /// Aborts caused by phantom detection during validation.
    phantom_failures,
    /// Aborts cascaded from a failed commit dependency.
    cascaded_aborts,
    /// Aborts due to deadlock victims or lock timeouts.
    deadlock_aborts,
    /// Commit dependencies taken (speculative reads / ignores).
    commit_dependencies,
    /// Wait-for dependencies taken (pessimistic eager updates).
    wait_for_dependencies,
    /// Times a transaction had to block before precommit or commit.
    commit_waits,
    /// Versions created (inserts + updates).
    versions_created,
    /// Versions reclaimed by the garbage collector.
    versions_collected,
    /// Garbage collection passes executed.
    gc_passes,
    /// Redo log records written.
    log_records,
    /// Redo log bytes written.
    log_bytes,
}

impl EngineStats {
    /// Create a zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bump a counter by one.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Bump a counter by `n`.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Abort rate over the interval (aborts / (commits + aborts)).
    pub fn abort_rate(&self) -> f64 {
        let total = self.commits + self.aborts;
        if total == 0 {
            0.0
        } else {
            self.aborts as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let stats = EngineStats::new();
        EngineStats::bump(&stats.commits);
        EngineStats::bump(&stats.commits);
        EngineStats::bump(&stats.aborts);
        EngineStats::add(&stats.log_bytes, 128);
        let first = stats.snapshot();
        EngineStats::bump(&stats.commits);
        let second = stats.snapshot();
        let delta = second.delta_since(&first);
        assert_eq!(delta.commits, 1);
        assert_eq!(delta.aborts, 0);
        assert_eq!(first.log_bytes, 128);
    }

    #[test]
    fn abort_rate() {
        let snap = StatsSnapshot {
            commits: 75,
            aborts: 25,
            ..Default::default()
        };
        assert!((snap.abort_rate() - 0.25).abs() < 1e-9);
        assert_eq!(StatsSnapshot::default().abort_rate(), 0.0);
    }
}

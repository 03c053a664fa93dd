//! Isolation levels and concurrency-mode selection.

/// Transaction isolation levels supported by all three engines (§2, §3.4).
///
/// The multiversion engines implement them exactly as the paper describes:
///
/// * **ReadCommitted** — read as of "now" (always the latest committed
///   version); no read tracking or validation.
/// * **SnapshotIsolation** — read as of the transaction's begin time; no
///   validation.
/// * **RepeatableRead** — read stability only: the optimistic scheme
///   validates its ReadSet at commit, the pessimistic scheme read-locks the
///   versions it reads; phantoms are not prevented.
/// * **Serializable** — read stability *and* phantom avoidance: the
///   optimistic scheme additionally repeats its scans during validation, the
///   pessimistic scheme additionally takes bucket locks.
///
/// The single-version engine maps ReadCommitted to cursor-stability style
/// short read locks and treats SnapshotIsolation as RepeatableRead (it has no
/// snapshots to offer — this is exactly the limitation that motivates
/// multiversioning).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IsolationLevel {
    /// Only read committed data; each read sees the latest committed version.
    ReadCommitted,
    /// All reads are as of the transaction's begin time.
    SnapshotIsolation,
    /// Reads are stable (re-readable) but phantoms may appear.
    RepeatableRead,
    /// Full serializability: read stability plus phantom avoidance.
    Serializable,
}

impl IsolationLevel {
    /// Does this level require read stability (read locks / read validation)?
    #[inline]
    pub fn requires_read_stability(self) -> bool {
        matches!(
            self,
            IsolationLevel::RepeatableRead | IsolationLevel::Serializable
        )
    }

    /// Does this level require phantom avoidance (bucket locks / rescans)?
    #[inline]
    pub fn requires_phantom_protection(self) -> bool {
        matches!(self, IsolationLevel::Serializable)
    }

    /// All isolation levels, weakest to strongest (useful for sweeps).
    pub const ALL: [IsolationLevel; 4] = [
        IsolationLevel::ReadCommitted,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::RepeatableRead,
        IsolationLevel::Serializable,
    ];

    /// Short label used in benchmark output ("RC", "SI", "RR", "SER").
    pub fn label(self) -> &'static str {
        match self {
            IsolationLevel::ReadCommitted => "RC",
            IsolationLevel::SnapshotIsolation => "SI",
            IsolationLevel::RepeatableRead => "RR",
            IsolationLevel::Serializable => "SER",
        }
    }
}

/// Which concurrency-control scheme a multiversion transaction runs under.
///
/// The paper's two schemes are mutually compatible (§4.5): optimistic and
/// pessimistic transactions may run concurrently against the same database,
/// so the mode is a per-transaction property rather than a per-database one.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ConcurrencyMode {
    /// Validation-based scheme of §3 ("MV/O").
    Optimistic,
    /// Locking-based scheme of §4 ("MV/L").
    Pessimistic,
}

impl ConcurrencyMode {
    /// Label used in benchmark output ("MV/O" or "MV/L").
    pub fn label(self) -> &'static str {
        match self {
            ConcurrencyMode::Optimistic => "MV/O",
            ConcurrencyMode::Pessimistic => "MV/L",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stability_and_phantom_requirements() {
        use IsolationLevel::*;
        assert!(!ReadCommitted.requires_read_stability());
        assert!(!SnapshotIsolation.requires_read_stability());
        assert!(RepeatableRead.requires_read_stability());
        assert!(Serializable.requires_read_stability());

        assert!(!RepeatableRead.requires_phantom_protection());
        assert!(Serializable.requires_phantom_protection());
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = IsolationLevel::ALL.iter().map(|l| l.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
        assert_eq!(ConcurrencyMode::Optimistic.label(), "MV/O");
        assert_eq!(ConcurrencyMode::Pessimistic.label(), "MV/L");
    }

    #[test]
    fn ordering_reflects_strength() {
        assert!(IsolationLevel::ReadCommitted < IsolationLevel::Serializable);
        assert!(IsolationLevel::SnapshotIsolation < IsolationLevel::RepeatableRead);
    }
}

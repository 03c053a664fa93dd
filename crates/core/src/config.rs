//! Engine configuration.

use std::time::Duration;

use mmdb_common::contention;
use mmdb_common::durability::{CheckpointPolicy, Durability};
use mmdb_common::isolation::ConcurrencyMode;

/// How the engine picks a concurrency mode for transactions begun through
/// the generic [`Engine::begin`](mmdb_common::engine::Engine::begin) entry
/// point. Individual transactions can always override the choice via
/// [`MvEngine::begin_with`](crate::engine::MvEngine::begin_with) — the two
/// schemes coexist on the same version chains (§4.5), which is exactly what
/// makes a per-transaction adaptive choice safe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcPolicy {
    /// Every default transaction runs one fixed scheme (the paper's model:
    /// MV/O or MV/L chosen up front).
    Static(ConcurrencyMode),
    /// Pick the scheme per transaction from live conflict telemetry (the
    /// engine's [`ContentionMonitor`](mmdb_common::contention::ContentionMonitor)):
    /// optimistic while the decayed conflict rate is low, pessimistic once a
    /// hotspot pushes it past `enter`, back to optimistic below `exit`.
    Adaptive {
        /// Finished transactions per telemetry window (per monitor cell).
        window: u64,
        /// Decayed conflict rate in `[0, 1]` at which the engine switches
        /// new transactions to the pessimistic scheme.
        enter: f64,
        /// Decayed conflict rate below which it switches back to
        /// optimistic. Must be below `enter`; the gap is the hysteresis
        /// band that stops the mode thrashing at the crossover.
        exit: f64,
    },
}

impl CcPolicy {
    /// Adaptive policy with the monitor's default window and thresholds.
    pub const ADAPTIVE: CcPolicy = CcPolicy::Adaptive {
        window: contention::DEFAULT_WINDOW,
        enter: contention::DEFAULT_ENTER,
        exit: contention::DEFAULT_EXIT,
    };

    /// The fixed mode, if this policy is static.
    pub fn static_mode(&self) -> Option<ConcurrencyMode> {
        match *self {
            CcPolicy::Static(mode) => Some(mode),
            CcPolicy::Adaptive { .. } => None,
        }
    }
}

/// Configuration of the multiversion engine.
#[derive(Debug, Clone)]
pub struct MvConfig {
    /// Concurrency-mode policy for transactions started through the generic
    /// [`Engine::begin`](mmdb_common::engine::Engine::begin) entry point:
    /// a fixed scheme, or a per-transaction adaptive choice driven by the
    /// contention monitor.
    pub cc: CcPolicy,
    /// Upper bound on the time a transaction will wait for outstanding
    /// wait-for or commit dependencies before giving up and aborting. This is
    /// a safety net: a transaction blocked on wait-for dependencies runs
    /// deadlock detection itself while it waits (§4.4), which normally
    /// breaks a cycle long before the timeout.
    pub wait_timeout: Duration,
    /// Run a cooperative maintenance step after this many commits on a
    /// worker thread: a garbage-collection step, then an automatic
    /// checkpoint if `checkpoint` calls for one. 0 turns off the whole step,
    /// automatic checkpoints included; call
    /// [`Engine::maintenance`](mmdb_common::engine::Engine::maintenance) (or
    /// [`MvEngine::collect_garbage`](crate::engine::MvEngine::collect_garbage)
    /// and the explicit checkpoint calls) instead.
    pub gc_every_n_commits: u64,
    /// Default commit durability for transactions started on this engine
    /// ([`Durability::Async`] is the paper's model: commit never waits for
    /// log I/O). Individual transactions override it via
    /// [`MvTransaction::set_durability`](crate::txn::MvTransaction::set_durability).
    pub durability: Durability,
    /// When automatic checkpoints are taken. It acts only on an engine made
    /// by
    /// [`MvEngine::with_checkpoint_store`](crate::engine::MvEngine::with_checkpoint_store):
    /// there each cooperative maintenance step checks it after its GC step
    /// and, once it is due, the committing thread takes the checkpoint. The
    /// default, [`CheckpointPolicy::MANUAL`], leaves checkpoints to explicit
    /// calls such as
    /// [`MvEngine::checkpoint`](crate::engine::MvEngine::checkpoint).
    pub checkpoint: CheckpointPolicy,
}

impl Default for MvConfig {
    fn default() -> Self {
        MvConfig {
            cc: CcPolicy::Static(ConcurrencyMode::Optimistic),
            wait_timeout: Duration::from_secs(2),
            gc_every_n_commits: 128,
            durability: Durability::Async,
            checkpoint: CheckpointPolicy::MANUAL,
        }
    }
}

impl MvConfig {
    /// Configuration whose default transactions run the optimistic scheme.
    pub fn optimistic() -> Self {
        MvConfig {
            cc: CcPolicy::Static(ConcurrencyMode::Optimistic),
            ..Default::default()
        }
    }

    /// Configuration whose default transactions run the pessimistic scheme.
    pub fn pessimistic() -> Self {
        MvConfig {
            cc: CcPolicy::Static(ConcurrencyMode::Pessimistic),
            ..Default::default()
        }
    }

    /// Configuration whose default transactions pick their scheme from live
    /// contention telemetry ([`CcPolicy::ADAPTIVE`]).
    pub fn adaptive() -> Self {
        MvConfig {
            cc: CcPolicy::ADAPTIVE,
            ..Default::default()
        }
    }

    /// Builder-style override of the concurrency-mode policy.
    pub fn with_cc(mut self, cc: CcPolicy) -> Self {
        self.cc = cc;
        self
    }

    /// Builder-style override of the wait timeout.
    pub fn with_wait_timeout(mut self, timeout: Duration) -> Self {
        self.wait_timeout = timeout;
        self
    }

    /// Builder-style override of the cooperative GC frequency.
    pub fn with_gc_every(mut self, commits: u64) -> Self {
        self.gc_every_n_commits = commits;
        self
    }

    /// Builder-style override of the default commit durability.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Builder-style override of the checkpoint policy.
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = MvConfig::default();
        assert_eq!(c.cc, CcPolicy::Static(ConcurrencyMode::Optimistic));
        assert_eq!(c.cc.static_mode(), Some(ConcurrencyMode::Optimistic));
        assert!(c.wait_timeout > Duration::from_millis(100));
        // Paper-faithful: transactions never wait for log I/O by default.
        assert_eq!(c.durability, Durability::Async);
        // Checkpoints are explicit unless a policy is configured.
        assert_eq!(c.checkpoint, CheckpointPolicy::MANUAL);
    }

    #[test]
    fn builders_override() {
        let c = MvConfig::pessimistic()
            .with_wait_timeout(Duration::from_millis(50))
            .with_gc_every(1)
            .with_durability(Durability::Sync)
            .with_checkpoint(CheckpointPolicy::every_log_bytes(1 << 20));
        assert_eq!(c.cc, CcPolicy::Static(ConcurrencyMode::Pessimistic));
        assert_eq!(c.wait_timeout, Duration::from_millis(50));
        assert_eq!(c.gc_every_n_commits, 1);
        assert_eq!(c.durability, Durability::Sync);
        assert!(c.checkpoint.due(1 << 20));
    }

    #[test]
    fn adaptive_policy_has_a_hysteresis_band() {
        let c = MvConfig::adaptive();
        assert_eq!(c.cc.static_mode(), None);
        let CcPolicy::Adaptive {
            window,
            enter,
            exit,
        } = c.cc
        else {
            panic!("adaptive() must install CcPolicy::Adaptive");
        };
        assert!(window > 0);
        assert!(exit < enter, "hysteresis band must be non-empty");
    }
}

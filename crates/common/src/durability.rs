//! The per-transaction durability knob.
//!
//! The paper's experimental setup (§5) runs *asynchronous* commit:
//! transactions emit redo records but never wait for log I/O — durability is
//! hardened in batches by an asynchronous group-commit tick. That is
//! [`Durability::Async`], the default everywhere.
//!
//! [`Durability::Sync`] is the conventional alternative: `commit()` returns
//! only after the transaction's redo record has reached durable storage. A
//! per-transaction group-commit ticket (see `RedoLogger::append_frame_ticketed`
//! and `wait_durable` in `mmdb-storage`) keeps Sync commits batched — a
//! committer waits for the flush covering its ticket rather than forcing its
//! own; `mmdb-benchmark`'s `storage.group_commit.*` cells quantify the
//! difference against a per-transaction flush.

/// When `commit()` may return relative to log durability.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Durability {
    /// Paper-faithful asynchronous commit: the redo record is handed to the
    /// logger and `commit()` returns immediately; durability lags by at most
    /// one group-commit tick. A crash can lose the tail of recently reported
    /// commits (bounded by the tick), never a prefix.
    #[default]
    Async,
    /// `commit()` blocks until the transaction's redo bytes (and, because the
    /// log is a single ordered stream, every earlier commit's bytes) are on
    /// durable storage. Under a group-commit logger many Sync committers
    /// share one flush.
    Sync,
}

impl Durability {
    /// Short label used in reports and experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Durability::Async => "async",
            Durability::Sync => "sync",
        }
    }
}

/// When the engine should take a checkpoint (and truncate the redo log to
/// the checkpoint LSN). The policy itself is passive — the engines expose a
/// `checkpoint()` entry point and consult the policy via
/// [`CheckpointPolicy::due`]; whoever drives maintenance (a server loop, a
/// bench harness, an operator) decides when to ask.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once the redo log has grown this many bytes past the last
    /// checkpoint's LSN. `None` means manual-only: checkpoints happen only
    /// when `checkpoint()` is called explicitly.
    pub log_bytes: Option<u64>,
    /// Maximum length of the checkpoint chain (base image + delta images).
    /// `1` means every checkpoint rewrites a full base image (the classic
    /// behavior). A value `k > 1` lets the engine write *delta* checkpoints
    /// — only rows and deletions since the previous chain element — until
    /// the chain holds `k` files, at which point the next checkpoint
    /// compacts back to a fresh base.
    pub max_chain: u32,
}

impl Default for CheckpointPolicy {
    fn default() -> CheckpointPolicy {
        CheckpointPolicy::MANUAL
    }
}

impl CheckpointPolicy {
    /// Manual-only checkpointing (the default): [`CheckpointPolicy::due`]
    /// never fires on its own, and every explicit checkpoint is a full base
    /// image.
    pub const MANUAL: CheckpointPolicy = CheckpointPolicy {
        log_bytes: None,
        max_chain: 1,
    };

    /// Checkpoint every `bytes` of redo-log growth, always writing a full
    /// base image.
    pub fn every_log_bytes(bytes: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            log_bytes: Some(bytes),
            max_chain: 1,
        }
    }

    /// Checkpoint every `bytes` of redo-log growth, writing deltas until
    /// the chain holds `max_chain` files (then compacting to a fresh base).
    /// `max_chain <= 1` degenerates to [`every_log_bytes`](Self::every_log_bytes).
    pub fn delta(bytes: u64, max_chain: u32) -> CheckpointPolicy {
        CheckpointPolicy {
            log_bytes: Some(bytes),
            max_chain: max_chain.max(1),
        }
    }

    /// Is a checkpoint due, given how many log bytes have accumulated since
    /// the last checkpoint LSN?
    pub fn due(&self, log_bytes_since_checkpoint: u64) -> bool {
        self.log_bytes
            .is_some_and(|trigger| log_bytes_since_checkpoint >= trigger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_faithful_async() {
        assert_eq!(Durability::default(), Durability::Async);
    }

    #[test]
    fn manual_policy_is_never_due() {
        assert!(!CheckpointPolicy::MANUAL.due(u64::MAX));
        assert_eq!(CheckpointPolicy::default(), CheckpointPolicy::MANUAL);
    }

    #[test]
    fn log_bytes_policy_fires_at_the_threshold() {
        let policy = CheckpointPolicy::every_log_bytes(1024);
        assert!(!policy.due(1023));
        assert!(policy.due(1024));
        assert!(policy.due(u64::MAX));
    }

    #[test]
    fn delta_policy_clamps_the_chain_bound() {
        assert_eq!(CheckpointPolicy::delta(64, 0).max_chain, 1);
        assert_eq!(CheckpointPolicy::delta(64, 4).max_chain, 4);
        assert_eq!(CheckpointPolicy::every_log_bytes(64).max_chain, 1);
        assert_eq!(CheckpointPolicy::MANUAL.max_chain, 1);
        assert!(CheckpointPolicy::delta(64, 4).due(64));
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(Durability::Async.label(), Durability::Sync.label());
    }
}

//! The metrics this benchmark declares: names, units, directions and, for
//! the end-to-end ones, regression bounds. `BENCHMARK.json` at the repo root
//! is generated from these tables (`mmdb-benchmark manifest`) and a test
//! keeps the two in step.

use crate::json::Json;
use crate::workloads::WorkloadKind;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    pub fn parse(name: &str) -> Option<Better> {
        match name {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// A metric a user of the engines would see, gated by `bound`: the share of
/// the parent's median by which it may get worse before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer. Reported, never gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The 14 end-to-end metrics, the same on every workload. A bound is three
/// times the worst workload's run-to-run spread (interquartile range ÷
/// median over ten seeds, measured on the recording box), capped at the
/// contract's 25 %; the README has the table.
pub const END_TO_END: [EndToEnd; 14] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("mvo.tps", "1/s", Higher, 0.25),
    e2e("mvl.tps", "1/s", Higher, 0.25),
    e2e("mva.tps", "1/s", Higher, 0.25),
    e2e("mvo.rows_per_s", "1/s", Higher, 0.25),
    e2e("mvl.rows_per_s", "1/s", Higher, 0.25),
    e2e("mvo.p50_us", "us", Lower, 0.25),
    e2e("mvl.p50_us", "us", Lower, 0.25),
    e2e("mvo.p99_us", "us", Lower, 0.25),
    e2e("mvl.p99_us", "us", Lower, 0.25),
    e2e("mvo.commit_share", "share", Higher, 0.02),
    e2e("mvl.commit_share", "share", Higher, 0.02),
    e2e("mva.commit_share", "share", Higher, 0.02),
    e2e("rss_mb", "MB", Lower, 0.15),
];

/// Per-layer metrics; layer = crate/module name. `stats.*` are engine
/// counters over the window, `trace.*` come from the traced MV/O run,
/// `onev.*` observe the single-version engine and are never gated because
/// 1V does not repeat (README).
pub const PER_LAYER: [PerLayer; 78] = [
    layer("epoch.pin_ns", "ns", Lower),
    layer("epoch.pin_2t_ns", "ns", Lower),
    layer("common.clock.next_ts_ns", "ns", Lower),
    layer("common.clock.next_ts_2t_ns", "ns", Lower),
    layer("common.stats.bump_2t_ns", "ns", Lower),
    layer("common.contention.recommend_ns", "ns", Lower),
    layer("common.contention.record_ns", "ns", Lower),
    layer("index.chain.probe_ns", "ns", Lower),
    layer("index.ordered.seek_ns", "ns", Lower),
    layer("index.ordered.next_ns", "ns", Lower),
    layer("index.bucket_lock.lock_unlock_ns", "ns", Lower),
    layer("storage.catalog.table_in_ns", "ns", Lower),
    layer("storage.txn_table.get_in_ns", "ns", Lower),
    layer("storage.txn_table.register_remove_ns", "ns", Lower),
    layer("storage.table.candidates_ns", "ns", Lower),
    layer("storage.version.make_link_ns", "ns", Lower),
    layer("storage.gc.collect_ns_per_version", "ns", Lower),
    layer("storage.log.encode_ns", "ns", Lower),
    layer("storage.group_commit.append_ns", "ns", Lower),
    layer("storage.group_commit.append_2t_ns", "ns", Lower),
    layer("storage.group_commit.sync_commit_us", "us", Lower),
    layer("storage.group_commit.frames_per_batch", "count", Higher),
    layer("storage.log.bytes_per_commit", "bytes", Lower),
    layer("storage.checkpoint.count", "count", Higher),
    layer("storage.checkpoint.bytes_per_commit", "bytes", Lower),
    layer("storage.checkpoint.full_s", "s", Lower),
    layer("storage.checkpoint.delta_s", "s", Lower),
    layer("storage.recovery.s", "s", Lower),
    layer("storage.recovery.rows_per_s", "1/s", Higher),
    layer("core.txn.begin_commit_ns", "ns", Lower),
    layer("core.visibility.check_ns", "ns", Lower),
    layer("core.read.point_ns", "ns", Lower),
    layer("core.read.scan_range8_ns", "ns", Lower),
    layer("core.update.txn_ns", "ns", Lower),
    layer("core.insert_delete.txn_ns", "ns", Lower),
    layer("core.commit.validate_ns_per_read", "ns", Lower),
    layer("ladder.read.residual_share", "share", Lower),
    layer("ladder.update.residual_share", "share", Lower),
    layer("stats.mvo.write_conflicts_per_ktxn", "1/ktxn", Lower),
    layer("stats.mvo.validation_failures_per_ktxn", "1/ktxn", Lower),
    layer("stats.mvo.commit_deps_per_ktxn", "1/ktxn", Lower),
    layer("stats.mvl.write_conflicts_per_ktxn", "1/ktxn", Lower),
    layer("stats.mvl.wait_fors_per_ktxn", "1/ktxn", Lower),
    layer("stats.mvl.commit_waits_per_ktxn", "1/ktxn", Lower),
    layer("stats.mvl.deadlock_aborts_per_ktxn", "1/ktxn", Lower),
    layer("stats.mva.write_conflicts_per_ktxn", "1/ktxn", Lower),
    layer("stats.mva.wait_fors_per_ktxn", "1/ktxn", Lower),
    layer("stats.mvo.versions_per_txn", "count", Lower),
    layer("stats.mvo.gc_keepup", "share", Higher),
    layer("stats.mvo.gc_lag_versions", "count", Lower),
    layer("mvo.abort_share", "share", Lower),
    layer("mvl.abort_share", "share", Lower),
    layer("mva.abort_share", "share", Lower),
    layer("trace.begin_share", "share", Lower),
    layer("trace.read_share", "share", Lower),
    layer("trace.scan_share", "share", Lower),
    layer("trace.write_share", "share", Lower),
    layer("trace.commit_share", "share", Lower),
    layer("trace.client_share", "share", Lower),
    layer("trace.begin_ns", "ns", Lower),
    layer("trace.read_ns", "ns", Lower),
    layer("trace.write_ns", "ns", Lower),
    layer("trace.commit_ns", "ns", Lower),
    layer("trace.commit_p99_ns", "ns", Lower),
    layer("trace.ops_per_txn", "count", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("workload.draw_ns", "ns", Lower),
    layer("workload.read_only_rows_per_s", "1/s", Higher),
    layer("workload.missed_live_rows_per_mtxn", "1/Mtxn", Lower),
    layer("txn.read_only.p99_us", "us", Lower),
    layer("txn.read_write.p99_us", "us", Lower),
    layer("txn.worst_type.p99_us", "us", Lower),
    layer("onev.tps", "1/s", Higher),
    layer("onev.p99_us", "us", Lower),
    layer("onev.abort_share", "share", Lower),
    layer("onev.lock_timeouts_per_ktxn", "1/ktxn", Lower),
    layer("onev.read.point_ns", "ns", Lower),
    layer("onev.update.txn_ns", "ns", Lower),
];

/// How long one run measures by default (`run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 18;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command: Vec<Json> = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ]
    .into_iter()
    .map(Json::from)
    .collect();
    let why = |kind: WorkloadKind| {
        match kind {
        WorkloadKind::Tatp => {
            "80 % single-row reads over a table far larger than the clients, ~0 aborts: the read path does the work; log, GC and conflict handling do almost none"
        }
        WorkloadKind::SmallBankDurable => {
            "write-heavy short transactions with redo log, group commit and background checkpointer on: version alloc, log append and checkpoints dominate; reads are minor"
        }
        WorkloadKind::TpccHot => {
            "both clients collide on one warehouse row and two district counters: aborts, dependencies, range scans and MV/A's mode choice do the work; the log does none"
        }
        WorkloadKind::LongRead => {
            "a 20 000-row snapshot reader beside a short updater: the read layer under version churn GC cannot reclaim, so a read-path gain that costs readers-beside-writers shows"
        }
    }
    };
    Json::obj()
        .with("command", command)
        .with("paths", vec![Json::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            WorkloadKind::ALL
                .into_iter()
                .map(|k| Json::obj().with("name", k.name()).with("why", why(k)))
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            END_TO_END
                .iter()
                .map(|m| {
                    Json::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.name())
                        .with("bound", m.bound)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            PER_LAYER
                .iter()
                .map(|m| {
                    Json::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.name())
                })
                .collect::<Vec<_>>(),
        )
}

//! One `(workload, engine, repeat)` cell, run in a child process of this
//! binary: a fresh allocator, its own peak RSS, and a crash or hang that
//! costs one cell instead of the run.
//!
//! The child populates, warms up, measures one window, runs the workload's
//! oracles and prints one JSON object as the last line of its stdout.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mmdb_common::durability::{CheckpointPolicy, Durability};
use mmdb_common::engine::Engine;
use mmdb_common::stats::StatsSnapshot;
use mmdb_core::{MvConfig, MvEngine};
use mmdb_onev::{SvConfig, SvEngine};
use mmdb_storage::checkpoint::CheckpointStore;
use mmdb_storage::log::RedoLogger as _;

use crate::client::{run_window, WindowReport};
use crate::json::Json;
use crate::layers;
use crate::trace::{self, Op, Traced, OPS};
use crate::workloads::{Populated, WorkloadKind};

/// Which engine a cell runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// `MvEngine`, optimistic (MV/O).
    Mvo,
    /// `MvEngine`, pessimistic (MV/L).
    Mvl,
    /// `MvEngine`, adaptive (MV/A).
    Mva,
    /// `SvEngine`, single-version locking (1V).
    Onev,
}

impl EngineKind {
    pub const MV: [EngineKind; 3] = [EngineKind::Mvo, EngineKind::Mvl, EngineKind::Mva];

    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Mvo => "mvo",
            EngineKind::Mvl => "mvl",
            EngineKind::Mva => "mva",
            EngineKind::Onev => "onev",
        }
    }

    pub fn parse(name: &str) -> Option<EngineKind> {
        [
            EngineKind::Mvo,
            EngineKind::Mvl,
            EngineKind::Mva,
            EngineKind::Onev,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }

    fn mv_config(self) -> MvConfig {
        match self {
            EngineKind::Mvo => MvConfig::optimistic(),
            EngineKind::Mvl => MvConfig::pessimistic(),
            EngineKind::Mva => MvConfig::adaptive(),
            EngineKind::Onev => unreachable!("1V has its own config"),
        }
    }
}

/// What one child process does.
#[derive(Clone, Debug, PartialEq)]
pub struct ChildSpec {
    pub workload: WorkloadKind,
    pub engine: EngineKind,
    pub seed: u64,
    pub warmup_ms: u64,
    pub window_ms: u64,
    /// 10 000-row tables.
    pub quick: bool,
    /// Run on `Traced<MvEngine>` and report the spans.
    pub traced: bool,
    /// Run on the deployment configuration: checkpoint store, group-commit
    /// log, background delta checkpointer, `Durability::Async`.
    pub durable: bool,
    /// After the window also run the single-engine layer fixtures (durable:
    /// checkpoint and recovery timings; 1V: its point read and update).
    pub probes: bool,
    /// Run the MV/O layer fixtures instead of a window.
    pub layers: bool,
    /// Where stores and traces go (`benchmark/out`).
    pub out_dir: PathBuf,
}

impl ChildSpec {
    /// Command-line form, parsed back by [`ChildSpec::from_args`].
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "child".to_string(),
            "--workload".into(),
            self.workload.name().into(),
            "--engine".into(),
            self.engine.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--warmup-ms".into(),
            self.warmup_ms.to_string(),
            "--window-ms".into(),
            self.window_ms.to_string(),
            "--out-dir".into(),
            self.out_dir.display().to_string(),
        ];
        for (flag, on) in [
            ("--quick", self.quick),
            ("--traced", self.traced),
            ("--durable", self.durable),
            ("--probes", self.probes),
            ("--layers", self.layers),
        ] {
            if on {
                args.push(flag.into());
            }
        }
        args
    }

    /// Parse the arguments after `child`.
    pub fn from_args(args: &[String]) -> Result<ChildSpec, String> {
        let mut spec = ChildSpec {
            workload: WorkloadKind::Tatp,
            engine: EngineKind::Mvo,
            seed: 42,
            warmup_ms: 0,
            window_ms: 0,
            quick: false,
            traced: false,
            durable: false,
            probes: false,
            layers: false,
            out_dir: PathBuf::from("benchmark/out"),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => {
                    let v = value()?;
                    spec.workload =
                        WorkloadKind::parse(v).ok_or_else(|| format!("unknown workload {v}"))?;
                }
                "--engine" => {
                    let v = value()?;
                    spec.engine =
                        EngineKind::parse(v).ok_or_else(|| format!("unknown engine {v}"))?;
                }
                "--seed" => spec.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--warmup-ms" => {
                    spec.warmup_ms = value()?.parse().map_err(|e| format!("--warmup-ms: {e}"))?
                }
                "--window-ms" => {
                    spec.window_ms = value()?.parse().map_err(|e| format!("--window-ms: {e}"))?
                }
                "--out-dir" => spec.out_dir = PathBuf::from(value()?),
                "--quick" => spec.quick = true,
                "--traced" => spec.traced = true,
                "--durable" => spec.durable = true,
                "--probes" => spec.probes = true,
                "--layers" => spec.layers = true,
                other => return Err(format!("unknown child argument {other}")),
            }
        }
        Ok(spec)
    }

    /// `(workload, engine, seed)` for failure messages.
    pub fn label(&self) -> String {
        format!(
            "workload={} engine={}{}{} seed={}",
            self.workload.name(),
            self.engine.name(),
            if self.traced { "+traced" } else { "" },
            if self.durable { "+durable" } else { "" },
            self.seed
        )
    }
}

/// Log growth that triggers a background checkpoint. The deployment this
/// models checkpoints every 16 MiB; the windows here are short, so the
/// trigger is scaled down to keep several generations inside each window.
fn checkpoint_policy(quick: bool) -> CheckpointPolicy {
    CheckpointPolicy::delta(if quick { 1 << 20 } else { 4 << 20 }, 4)
}

/// Group-commit flush tick of the durable configuration.
const LOG_TICK: Duration = Duration::from_millis(1);

/// Peak resident set of this process so far, in KiB (`VmHWM`).
fn vm_hwm_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .unwrap_or(0.0)
}

/// Removes a store directory when the child is done with it.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

fn stats_json(s: &StatsSnapshot) -> Json {
    Json::obj()
        .with("commits", s.commits)
        .with("aborts", s.aborts)
        .with("write_conflicts", s.write_conflicts)
        .with("validation_failures", s.validation_failures)
        .with("phantom_failures", s.phantom_failures)
        .with("cascaded_aborts", s.cascaded_aborts)
        .with("deadlock_aborts", s.deadlock_aborts)
        .with("commit_dependencies", s.commit_dependencies)
        .with("wait_for_dependencies", s.wait_for_dependencies)
        .with("commit_waits", s.commit_waits)
        .with("versions_created", s.versions_created)
        .with("versions_collected", s.versions_collected)
        .with("log_records", s.log_records)
        .with("log_bytes", s.log_bytes)
}

/// The window's numbers every cell reports, whatever the engine.
fn window_json(kind: WorkloadKind, report: &WindowReport, stats: &StatsSnapshot) -> Json {
    let headline = report.latency_of(|ty| kind.in_headline_latency(ty));
    let read_only = report.latency_of(|ty| kind.read_only(ty));
    let read_write = report.latency_of(|ty| !kind.read_only(ty));
    let ro_rows: u64 = report
        .types
        .iter()
        .enumerate()
        .filter(|(ty, _)| kind.read_only(*ty))
        .map(|(_, t)| t.rows)
        .sum();
    let types: Vec<Json> = kind
        .type_names()
        .iter()
        .zip(&report.types)
        .map(|(name, t)| {
            Json::obj()
                .with("name", *name)
                .with("committed", t.committed)
                .with("aborted", t.aborted)
                .with("p50_us", us(t.latency.quantile(0.5)))
                .with("p99_us", us(t.latency.quantile(0.99)))
        })
        .collect();
    let worst = report
        .types
        .iter()
        .map(|t| t.latency.quantile(0.99))
        .fold(0.0, f64::max);
    Json::obj()
        .with("tps", report.tps)
        .with("rows_per_s", report.rows_per_s)
        .with("mean_tps", report.mean_tps)
        .with("mean_rows_per_s", report.mean_rows_per_s)
        .with("seconds", report.seconds)
        .with("committed", report.committed())
        .with("aborted", report.aborted())
        .with("failed", report.failed)
        .with(
            "missed_live_rows",
            report.types.iter().map(|t| t.missed).sum::<u64>(),
        )
        .with("p50_us", us(headline.quantile(0.5)))
        .with("p99_us", us(headline.quantile(0.99)))
        .with("latency_samples", headline.count())
        .with("ro_p99_us", us(read_only.quantile(0.99)))
        .with("rw_p99_us", us(read_write.quantile(0.99)))
        .with("worst_type_p99_us", us(worst))
        .with("ro_rows_per_s", ro_rows as f64 / report.seconds.max(1e-9))
        .with("types", types)
        .with("stats", stats_json(stats))
}

/// Shares and per-call times of the traced window's spans.
fn trace_json(spec: &ChildSpec, report: &WindowReport) -> Json {
    let Some(t) = &report.trace else {
        return Json::Null;
    };
    let path = spec
        .out_dir
        .join(format!("trace-{}.jsonl", spec.workload.name()));
    if let Err(e) = std::fs::write(&path, trace::to_jsonl(spec.workload.name(), t)) {
        eprintln!("could not write {}: {e}", path.display());
    }
    let total = t.txn.sum().max(1) as f64;
    let mut out = Json::obj();
    let mut calls = 0u64;
    for op in OPS {
        let h = &t.ops[op as usize];
        calls += h.count();
        out.set(&format!("{}_share", op.name()), h.sum() as f64 / total);
        out.set(&format!("{}_ns", op.name()), h.quantile(0.5));
    }
    let self_sum = t.client.sum() + t.ops.iter().map(|h| h.sum()).sum::<u64>();
    out.with("client_share", t.client.sum() as f64 / total)
        .with("commit_p99_ns", t.ops[Op::Commit as usize].quantile(0.99))
        .with("ops_per_txn", calls as f64 / t.txn.count().max(1) as f64)
        .with("txn_spans", t.txn.count())
        .with("sampled_spans", t.raw.len())
        .with(
            "closure_error_share",
            (self_sum as f64 - t.txn.sum() as f64).abs() / total,
        )
}

/// Skip a destructor: the child exits right after reporting, and freeing a
/// populated engine version by version costs up to a second per cell.
pub(crate) fn leak<T>(value: T) {
    std::mem::forget(value);
}

/// Run the child described by `spec` and return its result object.
pub fn run(spec: &ChildSpec) -> Result<Json, String> {
    std::fs::create_dir_all(&spec.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    if spec.layers {
        return layers::run(spec);
    }
    match spec.engine {
        EngineKind::Onev => run_onev(spec),
        _ => run_mv(spec),
    }
}

fn finish(
    spec: &ChildSpec,
    setup_s: f64,
    report: &WindowReport,
    stats: &StatsSnapshot,
    mut failures: Vec<String>,
) -> Json {
    failures.extend(report.failures.iter().cloned());
    let failed = report.failed + (failures.len() - report.failures.len()) as u64;
    let mut out = window_json(spec.workload, report, stats).with("setup_s", setup_s);
    // Oracle violations found after the window count as failed operations
    // on top of the attempts that failed inside it.
    out.set("failed_total", failed);
    out.set(
        "failures",
        failures
            .into_iter()
            .map(|f| Json::from(format!("{}: {f}", spec.label())))
            .collect::<Vec<_>>(),
    );
    out
}

fn run_onev(spec: &ChildSpec) -> Result<Json, String> {
    let started = Instant::now();
    let engine = SvEngine::new(SvConfig::default());
    let workload = Populated::setup(spec.workload, spec.quick, &engine)
        .map_err(|e| format!("populate: {e:?}"))?;
    let setup_s = started.elapsed().as_secs_f64();
    let (report, before, after) = run_window(
        &engine,
        &workload,
        spec.seed,
        Duration::from_millis(spec.warmup_ms),
        Duration::from_millis(spec.window_ms),
        false,
        || engine.stats().snapshot(),
    );
    let hwm = vm_hwm_kb();
    let failures = workload.check(&engine, report.ledger);
    let stats = after.delta_since(&before);
    let mut out = finish(spec, setup_s, &report, &stats, failures).with("vm_hwm_kb", hwm);
    if spec.probes {
        // Two probes after the window; a tenth of it each is plenty.
        let timer = layers::Timer::with_budget(Duration::from_millis(spec.window_ms / 10));
        out.set("probes", layers::engine_probes(timer, &engine, &workload));
    }
    leak(engine);
    Ok(out)
}

fn run_mv(spec: &ChildSpec) -> Result<Json, String> {
    let started = Instant::now();
    let scratch = ScratchDir(spec.out_dir.join(format!("store-{}", std::process::id())));
    let store = if spec.durable {
        let _ = std::fs::remove_dir_all(&scratch.0);
        Some(Arc::new(
            CheckpointStore::create_with_tick(&scratch.0, LOG_TICK)
                .map_err(|e| format!("create checkpoint store: {e:?}"))?,
        ))
    } else {
        None
    };
    let engine = match &store {
        Some(store) => MvEngine::with_checkpoint_store(
            spec.engine
                .mv_config()
                .with_durability(Durability::Async)
                .with_checkpoint(checkpoint_policy(spec.quick)),
            Arc::clone(store),
        ),
        None => MvEngine::new(spec.engine.mv_config()),
    };
    let workload = Populated::setup(spec.workload, spec.quick, &engine)
        .map_err(|e| format!("populate: {e:?}"))?;
    let setup_s = started.elapsed().as_secs_f64();

    let (warmup, window) = (
        Duration::from_millis(spec.warmup_ms),
        Duration::from_millis(spec.window_ms),
    );
    let (report, before, after) = {
        // Engine counters plus, on the durable configuration, the store's:
        // (generation, checkpoint bytes, group-commit batches).
        let sample = || {
            let store_counters = store.as_ref().map_or([0; 3], |s| {
                [
                    s.generation(),
                    s.checkpoint_bytes_written(),
                    s.logger().batches_hardened(),
                ]
            });
            (engine.stats().snapshot(), store_counters)
        };
        if spec.traced {
            let traced = Traced(engine.clone());
            run_window(&traced, &workload, spec.seed, warmup, window, true, sample)
        } else {
            run_window(&engine, &workload, spec.seed, warmup, window, false, sample)
        }
    };
    let hwm = vm_hwm_kb();
    let stats = after.0.delta_since(&before.0);
    let mut failures = workload.check(&engine, report.ledger);

    // Versions still reachable beyond one per live row, over the tables
    // whose row count never changes.
    let mut gc_lag = 0i64;
    for (table, rows) in workload.fixed_tables() {
        let versions = engine.version_count(table).unwrap_or(0);
        gc_lag += versions as i64 - rows as i64;
    }

    let mut durable = Json::Null;
    let trace = trace_json(spec, &report);
    if let Some(store) = store {
        let commits = stats.commits.max(1) as f64;
        let batches = (after.1[2] - before.1[2]).max(1) as f64;
        durable = Json::obj()
            .with("checkpoints", after.1[0] - before.1[0])
            .with(
                "checkpoint_bytes_per_commit",
                (after.1[1] - before.1[1]) as f64 / commits,
            )
            .with("log_bytes_per_commit", stats.log_bytes as f64 / commits)
            .with("frames_per_batch", stats.log_records as f64 / batches);
        match recover_and_compare(spec, engine, &workload, store, &scratch.0) {
            Ok(recovery) => durable.merge(recovery),
            Err(what) => failures.push(what),
        }
    } else {
        leak(engine);
    }

    Ok(finish(spec, setup_s, &report, &stats, failures)
        .with("vm_hwm_kb", hwm)
        .with("gc_lag_versions", gc_lag as f64)
        .with("durable", durable)
        .with("trace", trace))
}

/// The durability oracle: read the live rows, stop the engine, flush, copy
/// its store directory, recover the copy into a fresh engine and compare every row of
/// the workload's fixed-population tables with what the live engine held.
/// Returns the recovery (and, with `probes`, checkpoint) timings.
fn recover_and_compare(
    spec: &ChildSpec,
    engine: MvEngine,
    workload: &Populated,
    store: Arc<CheckpointStore>,
    store_dir: &Path,
) -> Result<Json, String> {
    let live = workload
        .snapshot_rows(&engine)
        .map_err(|e| format!("read live rows: {e:?}"))?;
    // Dropping the last engine handle joins the background checkpointer, so
    // no checkpoint is installing (renaming images, rotating the log) while
    // the directory is copied file by file; the flush makes every commit
    // the clients saw durable. The copy is then a crash image of a quiescent
    // store.
    drop(engine);
    store
        .logger()
        .flush()
        .map_err(|e| format!("flush before recovery: {e:?}"))?;
    let copy = ScratchDir(store_dir.with_extension("copy"));
    let _ = std::fs::remove_dir_all(&copy.0);
    copy_dir(store_dir, &copy.0).map_err(|e| format!("copy store: {e}"))?;

    // The recovered engine gets a store of its own so the checkpoint
    // fixtures below can run against it; `MANUAL` means no background
    // checkpointer races them.
    let fresh_dir = ScratchDir(store_dir.with_extension("fresh"));
    let _ = std::fs::remove_dir_all(&fresh_dir.0);
    let fresh_store = Arc::new(
        CheckpointStore::create_with_tick(&fresh_dir.0, LOG_TICK)
            .map_err(|e| format!("create second store: {e:?}"))?,
    );
    let recovered = MvEngine::with_checkpoint_store(
        MvConfig::optimistic().with_checkpoint(CheckpointPolicy::MANUAL),
        Arc::clone(&fresh_store),
    );
    let tables = Populated::create_tables(spec.workload, spec.quick, &recovered)
        .map_err(|e| format!("create tables for recovery: {e:?}"))?;
    let started = Instant::now();
    let plan = CheckpointStore::plan(&copy.0).map_err(|e| format!("recovery plan: {e:?}"))?;
    let report = recovered
        .recover_from_checkpoint(&plan)
        .map_err(|e| format!("recover: {e:?}"))?;
    let recovery_s = started.elapsed().as_secs_f64();
    let after = tables
        .snapshot_rows(&recovered)
        .map_err(|e| format!("read recovered rows: {e:?}"))?;

    let different =
        live.iter().zip(&after).filter(|(a, b)| a != b).count() + live.len().abs_diff(after.len());
    if different > 0 {
        return Err(format!(
            "{different} of {} rows differ between the live and the recovered engine (chain {}, {} tail records)",
            live.len(),
            plan.chain.len(),
            report.records_applied
        ));
    }
    // Right after a recovery every row has exactly one version.
    let recovered_rows: usize = tables
        .table_ids()
        .into_iter()
        .map(|t| recovered.version_count(t).unwrap_or(0))
        .sum();
    let mut out = Json::obj()
        .with("recovery_s", recovery_s)
        .with(
            "recovery_rows_per_s",
            recovered_rows as f64 / recovery_s.max(1e-9),
        )
        .with("recovered_rows", recovered_rows)
        .with("compared_rows", live.len())
        .with("recovery_chain_len", plan.chain.len())
        .with("recovery_tail_records", report.records_applied);
    if spec.probes {
        out.merge(layers::checkpoint_probes(
            &recovered,
            &fresh_store,
            &tables,
            spec.seed,
        )?);
    }
    leak(recovered);
    Ok(out)
}

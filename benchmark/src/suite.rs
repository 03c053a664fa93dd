//! The full suite: every workload, untraced and traced, into one result file
//! that records the environment next to the numbers.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::run::{self, Metric, RunConfig, RunResult};
use crate::workloads::{WorkloadKind, CLIENTS};

/// What `mmdb-benchmark suite` runs.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out_dir: PathBuf,
    /// Result file; defaults to `<out_dir>/result-<seed>.json`.
    pub out: Option<PathBuf>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mountinfo`.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            // "... <mount point> <options> [optional fields] - <fs type> ..."
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs_type = right.split(' ').next()?;
            dir.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers were taken.
pub fn environment(out_dir: &Path) -> Json {
    Json::obj()
        .with("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .with("rustc", command_line("rustc", &["--version"]))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("client_threads", CLIENTS)
        .with("out_dir_filesystem", filesystem_of(out_dir))
}

fn cell_json(m: &Metric) -> Json {
    let mut cell = Json::obj()
        .with("value", m.cell.value)
        .with("unit", m.unit)
        .with("min", m.cell.min)
        .with("max", m.cell.max)
        .with("dev", m.cell.dev)
        .with("n", m.cell.n);
    if let Some(d) = END_TO_END.iter().find(|d| d.name == m.name) {
        cell.set("better", d.better.name());
        cell.set("bound", d.bound);
    } else if let Some(d) = PER_LAYER.iter().find(|d| d.name == m.name) {
        cell.set("better", d.better.name());
    }
    cell
}

fn metrics_json(metrics: &[Metric]) -> Json {
    let mut out = Json::obj();
    for m in metrics {
        out.set(&m.name, cell_json(m));
    }
    out
}

/// Run everything; returns the result document and whether all was correct.
pub fn run_suite(config: &SuiteConfig) -> (Json, bool) {
    let mut workloads = Json::obj();
    let mut correct = true;
    for workload in WorkloadKind::ALL {
        let one = |trace: bool| -> RunResult {
            let result = run::run(&RunConfig {
                workload,
                seed: config.seed,
                seconds: config.seconds,
                trace,
                quick: config.quick,
                out_dir: config.out_dir.clone(),
            });
            run::print_metrics(workload, &result);
            result
        };
        let untraced = one(false);
        let traced = one(true);
        correct &= untraced.correct() && traced.correct();
        let failures: Vec<Json> = untraced
            .failures
            .iter()
            .chain(&traced.failures)
            .map(|f| Json::from(f.as_str()))
            .collect();
        let missing: Vec<Json> = untraced
            .missing
            .iter()
            .chain(&traced.missing)
            .map(|m| Json::from(*m))
            .collect();
        workloads.set(
            workload.name(),
            Json::obj()
                .with("attempted", untraced.attempted + traced.attempted)
                .with("failed", untraced.failed + traced.failed)
                .with("failures", failures)
                .with("missing", missing)
                .with("end_to_end", metrics_json(&untraced.metrics))
                .with("per_layer", metrics_json(&traced.metrics))
                .with(
                    "detail",
                    metrics_json(
                        &untraced
                            .detail
                            .iter()
                            .chain(&traced.detail)
                            .cloned()
                            .collect::<Vec<_>>(),
                    ),
                ),
        );
    }
    let doc = Json::obj()
        .with("schema", 1u64)
        // This change defines the benchmark; it claims no gain.
        .with("claim", Json::Null)
        .with("correct", correct)
        .with("environment", environment(&config.out_dir))
        .with(
            "settings",
            Json::obj()
                .with("seed", config.seed)
                .with("seconds_per_run", config.seconds)
                .with("default_seconds_per_run", RUN_SECONDS)
                .with("quick", config.quick)
                .with("client_threads", CLIENTS)
                .with("loop", "closed")
                .with("windows", run::settings(config.quick, config.seconds)),
        )
        .with("workloads", workloads);
    (doc, correct)
}

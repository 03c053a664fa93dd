//! One benchmark run of one workload: spawn the child cells, interleaved
//! across engines, and fold their results into the declared metrics.
//!
//! An untraced run (`--trace 0`) yields the end-to-end metrics: `repeats`
//! windows per engine, the reported value the median with min and max
//! alongside. A traced run (`--trace 1`) yields the per-layer metrics: the
//! layer fixtures, one counted window per MV engine, the traced MV/O window,
//! one 1V observation and one window on the durable configuration.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::child::{ChildSpec, EngineKind};
use crate::hist::median;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::WorkloadKind;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: WorkloadKind,
    pub seed: u64,
    /// Total measured time, split evenly over the run's windows.
    pub seconds: f64,
    pub trace: bool,
    /// 10 000-row tables, one repeat, short warm-up and fixtures.
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// A reported value: the median of `n` samples with their extremes and
/// their mean absolute deviation from that median (what `compare` takes as
/// the cell's run-to-run spread).
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub dev: f64,
    pub n: usize,
}

impl Cell {
    /// Median (mean of the middle two for an even count) of `samples`.
    pub fn of(samples: &[f64]) -> Option<Cell> {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        let value = median(&mut sorted);
        Some(Cell {
            value,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            dev: sorted.iter().map(|v| (v - value).abs()).sum::<f64>() / sorted.len() as f64,
            n: sorted.len(),
        })
    }

    fn single(value: f64) -> Option<Cell> {
        Cell::of(&[value])
    }
}

/// A named value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub cell: Cell,
}

/// The outcome of one run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// The declared metrics of this run's kind, in declaration order. A
    /// declared metric is missing only if the cells it needs all failed.
    pub metrics: Vec<Metric>,
    /// Undeclared detail (per-transaction-type latencies, sample counts).
    pub detail: Vec<Metric>,
    /// Transaction attempts over all measured windows.
    pub attempted: u64,
    /// Attempts that panicked, hit a non-abort error or violated an oracle,
    /// plus end-of-window oracle violations and crashed or hung children.
    pub failed: u64,
    pub failures: Vec<String>,
    pub missing: Vec<&'static str>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.missing.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Unmeasured warm-up before every window.
fn warmup_ms(quick: bool) -> u64 {
    if quick {
        50
    } else {
        300
    }
}

/// Repeats per engine of an untraced run.
fn repeats(quick: bool) -> usize {
    if quick {
        1
    } else {
        3
    }
}

/// Time budget of one layer fixture (five batches).
fn fixture_ms(quick: bool) -> u64 {
    if quick {
        15
    } else {
        200
    }
}

/// Length of every window, traced or not: `seconds` over the cells of an
/// untraced run (repeats × MV engines). A traced run has six such windows
/// (MV/O, MV/L, MV/A, traced MV/O, 1V, the durable-configuration probe);
/// the rest of its `seconds` is roughly what the layer fixtures take.
fn window_ms(quick: bool, seconds: f64) -> u64 {
    let cells = repeats(quick) * EngineKind::MV.len();
    ((seconds * 1_000.0 / cells as f64) as u64).max(1)
}

/// The window, repeat and warm-up settings a run of `seconds` uses, for the
/// result file.
pub fn settings(quick: bool, seconds: f64) -> Json {
    Json::obj()
        .with("warmup_s", warmup_ms(quick) as f64 / 1_000.0)
        .with("repeats_per_engine", repeats(quick))
        .with("window_s", window_ms(quick, seconds) as f64 / 1_000.0)
        .with("fixture_s", fixture_ms(quick) as f64 / 1_000.0)
}

/// Spawn one child cell and parse the JSON object on its last stdout line.
/// A child that exits non-zero, prints nothing parseable or outlives
/// `timeout` (it is then killed) is an error naming the cell.
fn spawn(spec: &ChildSpec, timeout: Duration) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(spec.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("{}: spawn: {e}", spec.label()))?;
    // The child prints a few KiB, well inside the pipe buffer, so it never
    // blocks on a reader that only reads after exit.
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{}: child timed out after {timeout:?}",
                    spec.label()
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{}: wait: {e}", spec.label()));
            }
        }
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        let _ = pipe.read_to_string(&mut stdout);
    }
    if !status.success() {
        return Err(format!("{}: child exited with {status}", spec.label()));
    }
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    last.ok_or_else(|| format!("{}: child printed nothing", spec.label()))
        .and_then(|line| Json::parse(line).map_err(|e| format!("{}: {e}", spec.label())))
}

struct Runner<'a> {
    config: &'a RunConfig,
    result: RunResult,
}

impl Runner<'_> {
    fn spec(&self, engine: EngineKind, window_ms: u64) -> ChildSpec {
        ChildSpec {
            workload: self.config.workload,
            engine,
            seed: self.config.seed,
            warmup_ms: warmup_ms(self.config.quick),
            window_ms,
            quick: self.config.quick,
            traced: false,
            durable: self.config.workload.durable(),
            probes: false,
            layers: false,
            out_dir: self.config.out_dir.clone(),
        }
    }

    /// Run one cell; fold its attempts and failures into the result. `None`
    /// (after recording the failure) if the child itself failed.
    fn cell(&mut self, spec: &ChildSpec, repeat: usize) -> Option<Json> {
        let timeout = Duration::from_millis(spec.warmup_ms + spec.window_ms) * 2
            + Duration::from_secs(if spec.layers { 120 } else { 60 });
        match spawn(spec, timeout) {
            Ok(out) => {
                if !spec.layers {
                    self.result.attempted += attempts(&out) as u64;
                    self.result.failed += out.num("failed_total") as u64;
                    for failure in out.get("failures").map(Json::items).unwrap_or_default() {
                        let what = failure.as_str().unwrap_or("unprintable failure");
                        self.result.failures.push(format!("{what} repeat={repeat}"));
                    }
                }
                Some(out)
            }
            Err(what) => {
                self.result.failed += 1;
                self.result.failures.push(format!("{what} repeat={repeat}"));
                None
            }
        }
    }

    fn push(&mut self, name: &str, cell: Option<Cell>) {
        let unit = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map(|(_, unit)| unit);
        let Some(cell) = cell else { return };
        match unit {
            Some(unit) => self.result.metrics.push(Metric {
                name: name.to_string(),
                unit,
                cell,
            }),
            None => panic!("{name} is not a declared metric"),
        }
    }

    fn detail(&mut self, name: String, unit: &'static str, value: f64) {
        if let Some(cell) = Cell::single(value) {
            self.result.detail.push(Metric { name, unit, cell });
        }
    }

    fn untraced(&mut self) {
        let repeats = repeats(self.config.quick);
        let window_ms = window_ms(self.config.quick, self.config.seconds);
        let mut cells: Vec<Vec<Json>> = vec![Vec::new(); EngineKind::MV.len()];
        // Interleaved (mvo, mvl, mva, mvo, ...) so slow drift of the box
        // lands on every engine alike.
        for repeat in 0..repeats {
            for (slot, engine) in EngineKind::MV.into_iter().enumerate() {
                let spec = self.spec(engine, window_ms);
                if let Some(out) = self.cell(&spec, repeat) {
                    cells[slot].push(out);
                }
            }
        }

        let cell_of = |cells: &[Json], f: &dyn Fn(&Json) -> f64| {
            Cell::of(&cells.iter().map(f).collect::<Vec<_>>())
        };
        let all: Vec<Json> = cells.iter().flatten().cloned().collect();
        self.push("setup_s", cell_of(&all, &|c| c.num("setup_s")));
        for (engine, cells) in EngineKind::MV.into_iter().zip(&cells) {
            let e = engine.name();
            self.push(&format!("{e}.tps"), cell_of(cells, &|c| c.num("tps")));
            self.push(&format!("{e}.commit_share"), cell_of(cells, &commit_share));
            if engine != EngineKind::Mva {
                for key in ["rows_per_s", "p50_us", "p99_us"] {
                    self.push(&format!("{e}.{key}"), cell_of(cells, &|c| c.num(key)));
                }
            }
            for (key, unit) in [("mean_tps", "1/s"), ("latency_samples", "count")] {
                if let Some(cell) = cell_of(cells, &|c| c.num(key)) {
                    self.result.detail.push(Metric {
                        name: format!("{e}.{key}"),
                        unit,
                        cell,
                    });
                }
            }
        }
        // Peak resident set over every MV cell: the max, with the spread of
        // the cells alongside.
        let rss = cell_of(&all, &|c| c.num("vm_hwm_kb") / 1024.0).map(|cell| Cell {
            value: cell.max,
            ..cell
        });
        self.push("rss_mb", rss);
        self.detail(
            "workload.missed_live_rows".into(),
            "count",
            all.iter().map(|c| c.num("missed_live_rows")).sum(),
        );
        self.sort_as_declared();
    }

    fn traced(&mut self) {
        let quick = self.config.quick;
        let window_ms = window_ms(quick, self.config.seconds);

        let layers = self.cell(
            &ChildSpec {
                layers: true,
                durable: false,
                window_ms: fixture_ms(quick),
                ..self.spec(EngineKind::Mvo, 0)
            },
            0,
        );
        let mut windows: Vec<Option<Json>> = Vec::new();
        for engine in EngineKind::MV {
            // On a durable workload the MV/O window doubles as the
            // durable-configuration probe.
            let spec = ChildSpec {
                probes: engine == EngineKind::Mvo && self.config.workload.durable(),
                ..self.spec(engine, window_ms)
            };
            windows.push(self.cell(&spec, 0));
        }
        let traced = self.cell(
            &ChildSpec {
                traced: true,
                ..self.spec(EngineKind::Mvo, window_ms)
            },
            0,
        );
        // 1V is observed on the quick-size tables whatever the run's size:
        // its transactional inserts populate TATP at ~40 us a row (41 s for
        // 100 000 subscribers) and its oracle reads take seconds at full
        // size, more than a run can afford.
        let onev = self.cell(
            &ChildSpec {
                durable: false,
                probes: true,
                quick: true,
                ..self.spec(EngineKind::Onev, window_ms)
            },
            0,
        );
        let durable = if self.config.workload.durable() {
            windows[0].clone()
        } else {
            self.cell(
                &ChildSpec {
                    durable: true,
                    probes: true,
                    ..self.spec(EngineKind::Mvo, window_ms)
                },
                0,
            )
        };

        if let Some(layers) = &layers {
            for (name, value) in layers.fields() {
                self.push(name, value.as_f64().and_then(Cell::single));
            }
        }

        let abort_share = |c: &Json| 1.0 - commit_share(c);
        for (engine, window) in EngineKind::MV.into_iter().zip(&windows) {
            let Some(w) = window else { continue };
            let e = engine.name();
            let stats = w.get("stats").cloned().unwrap_or(Json::Null);
            let per_ktxn = |key: &str| stats.num(key) / stats.num("commits").max(1.0) * 1_000.0;
            let wanted: &[(&str, &str)] = match engine {
                EngineKind::Mvo => &[
                    ("write_conflicts_per_ktxn", "write_conflicts"),
                    ("validation_failures_per_ktxn", "validation_failures"),
                    ("commit_deps_per_ktxn", "commit_dependencies"),
                ],
                EngineKind::Mvl => &[
                    ("write_conflicts_per_ktxn", "write_conflicts"),
                    ("wait_fors_per_ktxn", "wait_for_dependencies"),
                    ("commit_waits_per_ktxn", "commit_waits"),
                    ("deadlock_aborts_per_ktxn", "deadlock_aborts"),
                ],
                _ => &[
                    ("write_conflicts_per_ktxn", "write_conflicts"),
                    ("wait_fors_per_ktxn", "wait_for_dependencies"),
                ],
            };
            for (metric, counter) in wanted {
                self.push(
                    &format!("stats.{e}.{metric}"),
                    Cell::single(per_ktxn(counter)),
                );
            }
            self.push(&format!("{e}.abort_share"), Cell::single(abort_share(w)));
            if engine == EngineKind::Mvo {
                let created = stats.num("versions_created");
                self.push(
                    "stats.mvo.versions_per_txn",
                    Cell::single(created / stats.num("commits").max(1.0)),
                );
                self.push(
                    "stats.mvo.gc_keepup",
                    Cell::single(stats.num("versions_collected") / created.max(1.0)),
                );
                self.push(
                    "stats.mvo.gc_lag_versions",
                    Cell::single(w.num("gc_lag_versions")),
                );
                self.push(
                    "workload.read_only_rows_per_s",
                    Cell::single(w.num("ro_rows_per_s")),
                );
                self.push("txn.read_only.p99_us", Cell::single(w.num("ro_p99_us")));
                self.push("txn.read_write.p99_us", Cell::single(w.num("rw_p99_us")));
                self.push(
                    "txn.worst_type.p99_us",
                    Cell::single(w.num("worst_type_p99_us")),
                );
                for ty in w.get("types").map(Json::items).unwrap_or_default() {
                    let name = ty.get("name").and_then(Json::as_str).unwrap_or("?");
                    self.detail(format!("txn.{name}.p99_us"), "us", ty.num("p99_us"));
                    self.detail(format!("txn.{name}.p50_us"), "us", ty.num("p50_us"));
                    self.detail(
                        format!("txn.{name}.committed"),
                        "count",
                        ty.num("committed"),
                    );
                }
            }
        }

        if let Some(t) = traced.as_ref().and_then(|c| c.get("trace")) {
            for key in [
                "begin_share",
                "read_share",
                "scan_share",
                "write_share",
                "commit_share",
                "client_share",
                "begin_ns",
                "read_ns",
                "write_ns",
                "commit_ns",
                "commit_p99_ns",
                "ops_per_txn",
            ] {
                self.push(&format!("trace.{key}"), Cell::single(t.num(key)));
            }
            self.detail("trace.scan_ns".into(), "ns", t.num("scan_ns"));
            self.detail("trace.txn_spans".into(), "count", t.num("txn_spans"));
            self.detail(
                "trace.sampled_spans".into(),
                "count",
                t.num("sampled_spans"),
            );
            self.detail(
                "trace.closure_error_share".into(),
                "share",
                t.num("closure_error_share"),
            );
            if let (Some(plain), Some(traced)) = (&windows[0], &traced) {
                let untraced_tps = plain.num("tps");
                self.push(
                    "trace.overhead_share",
                    Cell::single((untraced_tps - traced.num("tps")) / untraced_tps.max(1e-9)),
                );
            }
        }

        if let Some(o) = &onev {
            let stats = o.get("stats").cloned().unwrap_or(Json::Null);
            // The mean, not the slice median the MV engines report: with
            // 500 ms lock timeouts most of 1V's slices can be empty.
            self.push("onev.tps", Cell::single(o.num("mean_tps")));
            self.push("onev.p99_us", Cell::single(o.num("p99_us")));
            self.push("onev.abort_share", Cell::single(abort_share(o)));
            self.push(
                "onev.lock_timeouts_per_ktxn",
                Cell::single(
                    stats.num("deadlock_aborts") / stats.num("commits").max(1.0) * 1_000.0,
                ),
            );
            if let Some(p) = o.get("probes") {
                self.push("onev.read.point_ns", Cell::single(p.num("read_point_ns")));
                self.push("onev.update.txn_ns", Cell::single(p.num("update_txn_ns")));
            }
        }

        if let Some(d) = durable.as_ref().and_then(|c| c.get("durable")) {
            for (metric, key) in [
                ("storage.group_commit.frames_per_batch", "frames_per_batch"),
                ("storage.log.bytes_per_commit", "log_bytes_per_commit"),
                ("storage.checkpoint.count", "checkpoints"),
                (
                    "storage.checkpoint.bytes_per_commit",
                    "checkpoint_bytes_per_commit",
                ),
                ("storage.checkpoint.full_s", "checkpoint_full_s"),
                ("storage.checkpoint.delta_s", "checkpoint_delta_s"),
                ("storage.recovery.s", "recovery_s"),
                ("storage.recovery.rows_per_s", "recovery_rows_per_s"),
            ] {
                self.push(
                    metric,
                    d.get(key).and_then(Json::as_f64).and_then(Cell::single),
                );
            }
        }

        let mv: Vec<&Json> = windows.iter().flatten().collect();
        let attempts: f64 = mv.iter().map(|w| attempts(w)).sum();
        let missed: f64 = mv.iter().map(|w| w.num("missed_live_rows")).sum();
        if !mv.is_empty() {
            self.push(
                "workload.missed_live_rows_per_mtxn",
                Cell::single(missed / attempts.max(1.0) * 1e6),
            );
        }
        self.sort_as_declared();
    }

    /// Declaration order, whatever order the cells reported in.
    fn sort_as_declared(&mut self) {
        self.result.metrics.sort_by_key(|m| {
            END_TO_END
                .iter()
                .map(|d| d.name)
                .chain(PER_LAYER.iter().map(|d| d.name))
                .position(|name| name == m.name)
        });
    }
}

/// Transaction attempts of one window cell.
fn attempts(cell: &Json) -> f64 {
    cell.num("committed") + cell.num("aborted") + cell.num("failed")
}

/// Committed share of one window cell's attempts.
fn commit_share(cell: &Json) -> f64 {
    cell.num("committed") / attempts(cell).max(1.0)
}

/// Run one workload once.
pub fn run(config: &RunConfig) -> RunResult {
    let mut runner = Runner {
        config,
        result: RunResult::default(),
    };
    if config.trace {
        runner.traced();
    } else {
        runner.untraced();
    }
    let mut result = runner.result;
    let declared: Vec<&'static str> = if config.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    result.missing = declared
        .into_iter()
        .filter(|name| result.get(name).is_none())
        .collect();
    result
}

/// Every metric by name with its unit, one per line, for people.
pub fn print_metrics(workload: WorkloadKind, result: &RunResult) {
    for m in result.metrics.iter().chain(&result.detail) {
        println!(
            "{:<18} {:<42} {:>16.4} {:<7} (min {:.4}, max {:.4}, n={})",
            workload.name(),
            m.name,
            m.cell.value,
            m.unit,
            m.cell.min,
            m.cell.max,
            m.cell.n
        );
    }
    for failure in &result.failures {
        println!("FAILED {failure}");
    }
    for name in &result.missing {
        println!("MISSING {} {name}", workload.name());
    }
}

/// The one-line result object the builder's driver reads.
pub fn contract_line(result: &RunResult) -> Json {
    let mut metrics = Json::obj();
    for m in &result.metrics {
        metrics.set(
            &m.name,
            Json::obj().with("value", m.cell.value).with("unit", m.unit),
        );
    }
    Json::obj()
        .with("correct", result.correct())
        .with("attempted", result.attempted.max(1))
        .with("failed", result.failed)
        .with("metrics", metrics)
}

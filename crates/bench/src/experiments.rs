//! The paper's experiments (§5), one function per table/figure.
//!
//! Every function sweeps the relevant parameter, runs the workload against
//! every scheme through the generic driver, and returns a [`SeriesTable`]
//! whose rows correspond to the series the paper plots. Each sweep runs
//! [`PASSES`] times and every cell is the median over the passes.
//! Absolute numbers depend on the host; the *shape* (which scheme wins,
//! roughly by how much, and where the curves cross) is what reproduces the
//! paper — see `EXPERIMENTS.md` for the recorded comparison. Numbers that
//! gate changes live in `benchmark/` (`mmdb-benchmark`), not here.

use std::time::Duration;

use mmdb_common::engine::Engine;
use mmdb_common::isolation::IsolationLevel;
use mmdb_core::{MvConfig, MvEngine};

use mmdb_workload::driver::{run_for, DriverReport, TxnKind};
use mmdb_workload::heterogeneous::{LongReaderMix, ReadMix};
use mmdb_workload::homogeneous::Homogeneous;
use mmdb_workload::tatp::Tatp;

use crate::scheme::Scheme;
use crate::with_engine;

/// Parameters shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Rows in the low-contention table (the paper uses 10,000,000).
    pub rows: u64,
    /// Rows in the hotspot table (the paper uses 1,000).
    pub hot_rows: u64,
    /// Thread counts swept by the scalability experiments.
    pub threads: Vec<usize>,
    /// Multiprogramming level for the fixed-MPL experiments (paper: 24).
    pub mpl: usize,
    /// Measurement interval per data point.
    pub duration: Duration,
    /// TATP subscriber count (the paper uses 20,000,000).
    pub subscribers: u64,
    /// Lock / wait timeout used to break deadlocks and bound waits.
    pub lock_timeout: Duration,
}

impl ExpConfig {
    /// Laptop-scale defaults: a 1,000,000-row table, 24-thread MPL, one
    /// second per data point, 200,000 TATP subscribers.
    pub fn standard() -> ExpConfig {
        ExpConfig {
            rows: 1_000_000,
            hot_rows: 1_000,
            threads: vec![1, 2, 4, 6, 8, 12, 16, 20, 24],
            mpl: 24,
            duration: Duration::from_secs(1),
            subscribers: 200_000,
            lock_timeout: Duration::from_millis(500),
        }
    }

    /// CI-sized configuration: tiny tables and very short intervals so the
    /// full suite runs in a minute or two.
    pub fn quick() -> ExpConfig {
        ExpConfig {
            rows: 20_000,
            hot_rows: 500,
            threads: vec![1, 2, 4],
            mpl: 4,
            duration: Duration::from_millis(200),
            subscribers: 2_000,
            lock_timeout: Duration::from_millis(100),
        }
    }
}

/// A result table: one row per scheme (or scheme/level), one column per swept
/// parameter value.
#[derive(Debug, Clone)]
pub struct SeriesTable {
    /// Experiment title (e.g. "Figure 4: scalability under low contention").
    pub title: String,
    /// Label of the swept parameter.
    pub x_label: String,
    /// Values of the swept parameter.
    pub xs: Vec<String>,
    /// (series label, value per x) rows.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Unit of the cell values.
    pub unit: String,
}

impl SeriesTable {
    /// Render as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("Values are {}.\n\n", self.unit));
        out.push_str(&format!("| {} |", self.x_label));
        for x in &self.xs {
            out.push_str(&format!(" {x} |"));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &self.xs {
            out.push_str("---|");
        }
        out.push('\n');
        for (label, values) in &self.rows {
            out.push_str(&format!("| {label} |"));
            for v in values {
                if *v >= 1000.0 {
                    out.push_str(&format!(" {:.0} |", v));
                } else {
                    out.push_str(&format!(" {:.2} |", v));
                }
            }
            out.push('\n');
        }
        out.push('\n');
        out
    }

    /// Look a cell up by series label and column index.
    pub fn value(&self, series: &str, column: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|(l, _)| l == series)
            .and_then(|(_, vs)| vs.get(column))
            .copied()
    }
}

/// How many times every experiment repeats its whole sweep.
pub const PASSES: usize = 3;

/// Per-cell values of one metric: `grid[row][x]`.
type Grid = Vec<Vec<f64>>;

/// Measure every cell of a `rows × xs` grid with `measure(row, x)`, which
/// returns `M` metrics per cell, and return one [`Grid`] of per-cell medians
/// per metric. The whole grid is swept [`PASSES`] times back to back, so the
/// series interleave within a pass and a slow phase of the host hits every
/// series alike instead of whichever one it coincided with.
fn sweep<const M: usize>(
    rows: usize,
    xs: usize,
    mut measure: impl FnMut(usize, usize) -> [f64; M],
) -> [Grid; M] {
    let passes: Vec<Vec<[f64; M]>> = (0..PASSES)
        .map(|_| (0..rows * xs).map(|i| measure(i / xs, i % xs)).collect())
        .collect();
    cell_medians(&passes, xs)
}

/// Per-cell, per-metric median over `passes`, each a row-major grid that is
/// `xs` cells wide.
fn cell_medians<const M: usize>(passes: &[Vec<[f64; M]>], xs: usize) -> [Grid; M] {
    std::array::from_fn(|metric| {
        (0..passes[0].len())
            .map(|cell| {
                let mut values: Vec<f64> = passes.iter().map(|p| p[cell][metric]).collect();
                values.sort_by(f64::total_cmp);
                values[values.len() / 2]
            })
            .collect::<Vec<f64>>()
            .chunks(xs)
            .map(<[f64]>::to_vec)
            .collect()
    })
}

/// Label the rows of a per-scheme grid: "`<scheme><suffix>`".
fn per_scheme(grid: Grid, suffix: &str) -> impl Iterator<Item = (String, Vec<f64>)> + '_ {
    Scheme::ALL
        .iter()
        .zip(grid)
        .map(move |(scheme, series)| (format!("{scheme}{suffix}"), series))
}

/// One measurement interval of the homogeneous workload on a fresh engine.
fn homogeneous_report(
    scheme: Scheme,
    cfg: &ExpConfig,
    workload: &Homogeneous,
    threads: usize,
) -> DriverReport {
    with_engine!(scheme, cfg.lock_timeout, |engine| {
        let table = workload.setup(engine).expect("setup homogeneous workload");
        run_for(engine, threads, cfg.duration, |e, rng, _| {
            workload.run_one(e, table, rng)
        })
    })
}

fn scalability(cfg: &ExpConfig, rows: u64, title: &str) -> SeriesTable {
    let workload = Homogeneous {
        rows,
        ..Default::default()
    };
    let [tps, aborts] = sweep(Scheme::ALL.len(), cfg.threads.len(), |s, x| {
        let report = homogeneous_report(Scheme::ALL[s], cfg, &workload, cfg.threads[x]);
        [report.tps(), report.abort_rate()]
    });
    SeriesTable {
        title: title.to_string(),
        x_label: "threads".into(),
        xs: cfg.threads.iter().map(|t| t.to_string()).collect(),
        // Throughput first, then the abort-rate companion series — the paper
        // quotes both, and the abort rates explain the throughput cliffs
        // under contention.
        rows: per_scheme(tps, "")
            .chain(per_scheme(aborts, " abort rate"))
            .collect(),
        unit: "committed transactions / second (and abort rate per scheme)".into(),
    }
}

/// **Figure 4** — scalability under low contention: R=10 W=2 transactions on
/// a large table at Read Committed, sweeping the multiprogramming level.
pub fn fig4(cfg: &ExpConfig) -> SeriesTable {
    scalability(
        cfg,
        cfg.rows,
        "Figure 4: scalability under low contention (R=10, W=2, read committed)",
    )
}

/// **Figure 5** — scalability under high contention: the same transaction on
/// a 1,000-row hotspot table.
pub fn fig5(cfg: &ExpConfig) -> SeriesTable {
    scalability(
        cfg,
        cfg.hot_rows,
        "Figure 5: scalability under high contention (hotspot table)",
    )
}

/// **Table 3** — throughput at higher isolation levels (fixed MPL), plus the
/// percentage drop relative to Read Committed.
pub fn table3(cfg: &ExpConfig) -> SeriesTable {
    let levels = [
        IsolationLevel::ReadCommitted,
        IsolationLevel::RepeatableRead,
        IsolationLevel::Serializable,
    ];
    let [tps, aborts] = sweep(Scheme::ALL.len(), levels.len(), |s, x| {
        let workload = Homogeneous {
            rows: cfg.rows,
            isolation: levels[x],
            ..Default::default()
        };
        let report = homogeneous_report(Scheme::ALL[s], cfg, &workload, cfg.mpl);
        [report.tps(), report.abort_rate()]
    });
    let rows = Scheme::ALL.iter().zip(tps.iter().zip(&aborts));
    SeriesTable {
        title: "Table 3: throughput at higher isolation levels (MPL = 24 in the paper)".into(),
        x_label: "scheme".into(),
        xs: vec![
            "RC tx/s".into(),
            "RC abort rate".into(),
            "RR tx/s".into(),
            "RR % drop".into(),
            "RR abort rate".into(),
            "SER tx/s".into(),
            "SER % drop".into(),
            "SER abort rate".into(),
        ],
        rows: rows
            .map(|(scheme, (tps, aborts))| {
                let drop_of = |x: f64| {
                    if tps[0] > 0.0 {
                        (1.0 - x / tps[0]) * 100.0
                    } else {
                        0.0
                    }
                };
                let cells = vec![
                    tps[0],
                    aborts[0],
                    tps[1],
                    drop_of(tps[1]),
                    aborts[1],
                    tps[2],
                    drop_of(tps[2]),
                    aborts[2],
                ];
                (scheme.to_string(), cells)
            })
            .collect(),
        unit: "committed transactions / second (plus % drop vs read committed and abort rate)"
            .into(),
    }
}

fn read_mix(cfg: &ExpConfig, rows: u64, title: &str) -> SeriesTable {
    let fractions = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let [tps] = sweep(Scheme::ALL.len(), fractions.len(), |s, x| {
        let mix = ReadMix::new(rows, fractions[x]);
        with_engine!(Scheme::ALL[s], cfg.lock_timeout, |engine| {
            let table = mix.base.setup(engine).expect("setup read mix");
            let report = run_for(engine, cfg.mpl, cfg.duration, |e, rng, _| {
                mix.run_one(e, table, rng)
            });
            [report.tps()]
        })
    });
    SeriesTable {
        title: title.to_string(),
        x_label: "read-only fraction".into(),
        xs: fractions
            .iter()
            .map(|f| format!("{:.0}%", f * 100.0))
            .collect(),
        rows: per_scheme(tps, "").collect(),
        unit: "committed transactions / second".into(),
    }
}

/// **Figure 6** — impact of short read-only transactions, low contention.
pub fn fig6(cfg: &ExpConfig) -> SeriesTable {
    read_mix(
        cfg,
        cfg.rows,
        "Figure 6: impact of short read-only transactions (low contention)",
    )
}

/// **Figure 7** — impact of short read-only transactions, hotspot table.
pub fn fig7(cfg: &ExpConfig) -> SeriesTable {
    read_mix(
        cfg,
        cfg.hot_rows,
        "Figure 7: impact of short read-only transactions (high contention)",
    )
}

/// **Figures 8 & 9** — one experiment, two tables: update throughput as long
/// read-only transactions are added (Figure 8) and the read throughput of
/// those long readers (Figure 9), per scheme and per long-reader count.
pub fn long_readers(cfg: &ExpConfig) -> [SeriesTable; 2] {
    let mut counts: Vec<usize> = vec![0, 1, 2, 4, 6, 12, 18, 24];
    counts.retain(|&c| c <= cfg.mpl);
    if *counts.last().unwrap_or(&0) != cfg.mpl {
        counts.push(cfg.mpl);
    }
    let [updates, reads] = sweep(Scheme::ALL.len(), counts.len(), |s, x| {
        let scheme = Scheme::ALL[s];
        // Transactionally consistent read-only queries: snapshot isolation on
        // the multiversion engines (no locking/validation for read-only
        // transactions, §3.4); the single-version engine must take
        // serializable read locks.
        let long_iso = match scheme {
            Scheme::OneV => IsolationLevel::Serializable,
            _ => IsolationLevel::SnapshotIsolation,
        };
        let mix = LongReaderMix::new(cfg.rows, counts[x], long_iso);
        with_engine!(scheme, cfg.lock_timeout, |engine| {
            let table = mix.base.setup(engine).expect("setup long-reader mix");
            let report = run_for(engine, cfg.mpl, cfg.duration, |e, rng, worker| {
                mix.run_one(e, table, rng, worker)
            });
            [
                report.tps_of(TxnKind::Update),
                report.read_rate_of(TxnKind::LongRead),
            ]
        })
    });
    let table = |title: &str, grid: Grid, unit: &str| SeriesTable {
        title: title.into(),
        x_label: "long readers (of MPL)".into(),
        xs: counts.iter().map(|c| c.to_string()).collect(),
        rows: per_scheme(grid, "").collect(),
        unit: unit.into(),
    };
    [
        table(
            "Figure 8: update throughput with concurrent long read-only transactions",
            updates,
            "committed update transactions / second",
        ),
        table(
            "Figure 9: read throughput of the long read-only transactions",
            reads,
            "rows read / second by long readers",
        ),
    ]
}

/// **Table 4** — TATP throughput per scheme at the fixed MPL.
pub fn table4(cfg: &ExpConfig) -> SeriesTable {
    let tatp = Tatp::new(cfg.subscribers);
    let [tps, aborts] = sweep(Scheme::ALL.len(), 1, |s, _| {
        with_engine!(Scheme::ALL[s], cfg.lock_timeout, |engine| {
            let tables = tatp.setup(engine).expect("setup TATP");
            let report = run_for(engine, cfg.mpl, cfg.duration, |e, rng, _| {
                tatp.run_one(e, tables, rng)
            });
            [report.tps(), report.abort_rate()]
        })
    });
    SeriesTable {
        title: "Table 4: TATP results".into(),
        x_label: "scheme".into(),
        xs: vec!["transactions / second".into(), "abort rate".into()],
        rows: Scheme::ALL
            .iter()
            .zip(tps.iter().zip(&aborts))
            .map(|(scheme, (tps, aborts))| (scheme.to_string(), vec![tps[0], aborts[0]]))
            .collect(),
        unit: "committed TATP transactions / second".into(),
    }
}

/// Ablation: cost of higher isolation for MV/O as the read set grows
/// (validation is O(|ReadSet|)). Sweeps the reads-per-transaction parameter
/// and reports committed transactions per second at Serializable vs Read
/// Committed on the optimistic engine.
pub fn ablation_validation_cost(cfg: &ExpConfig) -> SeriesTable {
    let read_counts = [2usize, 10, 50, 200];
    let levels = [
        ("MV/O read committed", IsolationLevel::ReadCommitted),
        ("MV/O serializable", IsolationLevel::Serializable),
    ];
    let [tps] = sweep(levels.len(), read_counts.len(), |l, x| {
        let workload = Homogeneous {
            rows: cfg.rows,
            reads: read_counts[x],
            writes: 2,
            isolation: levels[l].1,
        };
        [homogeneous_report(Scheme::MvO, cfg, &workload, cfg.mpl).tps()]
    });
    SeriesTable {
        title: "Ablation: optimistic validation cost vs read-set size (MV/O)".into(),
        x_label: "reads per transaction".into(),
        xs: read_counts.iter().map(|r| r.to_string()).collect(),
        rows: levels
            .iter()
            .zip(tps)
            .map(|((label, _), series)| (label.to_string(), series))
            .collect(),
        unit: "committed transactions / second".into(),
    }
}

/// Ablation: effect of cooperative garbage collection on version counts.
/// Runs an update-heavy workload with GC enabled vs disabled and reports the
/// number of versions left in the table afterwards.
pub fn ablation_gc(cfg: &ExpConfig) -> SeriesTable {
    let workload = Homogeneous {
        rows: cfg.hot_rows.max(500),
        ..Default::default()
    };
    let configs = [
        ("GC enabled (every 128 commits)", 128u64),
        ("GC disabled", 0u64),
    ];
    let [after, reclaimed] = sweep(configs.len(), 1, |c, _| {
        let engine = MvEngine::optimistic(MvConfig::default().with_gc_every(configs[c].1));
        let table = workload.setup(&engine).expect("setup");
        run_for(&engine, cfg.mpl.min(8), cfg.duration, |e, rng, _| {
            workload.run_one(e, table, rng)
        });
        [
            engine.version_count(table).expect("count") as f64,
            engine.stats().snapshot().versions_collected as f64,
        ]
    });
    SeriesTable {
        title: "Ablation: cooperative garbage collection (MV/O, update-heavy hotspot)".into(),
        x_label: "configuration".into(),
        xs: vec!["versions after run".into(), "versions reclaimed".into()],
        rows: configs
            .iter()
            .zip(after.iter().zip(&reclaimed))
            .map(|((label, _), (after, reclaimed))| {
                (label.to_string(), vec![after[0], reclaimed[0]])
            })
            .collect(),
        unit: "version counts".into(),
    }
}

/// Run every experiment and return the ten tables in paper order, the two
/// ablations last.
pub fn run_all(cfg: &ExpConfig) -> Vec<SeriesTable> {
    let [fig8, fig9] = long_readers(cfg);
    vec![
        fig4(cfg),
        fig5(cfg),
        table3(cfg),
        fig6(cfg),
        fig7(cfg),
        fig8,
        fig9,
        table4(cfg),
        ablation_validation_cost(cfg),
        ablation_gc(cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            rows: 2_000,
            hot_rows: 200,
            threads: vec![1, 2],
            mpl: 2,
            duration: Duration::from_millis(40),
            subscribers: 300,
            lock_timeout: Duration::from_millis(50),
        }
    }

    #[test]
    fn cell_medians_takes_the_middle_pass_per_cell_and_metric() {
        // 2 rows × 2 xs, two metrics per cell; which pass holds the median
        // differs from cell to cell and from metric to metric.
        let passes = vec![
            vec![[1.0, 30.0], [5.0, 0.1], [9.0, 7.0], [2.0, 2.0]],
            vec![[3.0, 10.0], [4.0, 0.3], [7.0, 8.0], [2.0, 1.0]],
            vec![[2.0, 20.0], [6.0, 0.2], [8.0, 9.0], [2.0, 3.0]],
        ];
        let [first, second] = cell_medians(&passes, 2);
        assert_eq!(first, vec![vec![2.0, 5.0], vec![8.0, 2.0]]);
        assert_eq!(second, vec![vec![20.0, 0.2], vec![8.0, 2.0]]);
    }

    #[test]
    fn run_all_populates_every_paper_table() {
        let schemes = ["1V", "MV/L", "MV/O", "MV/A"];
        // (title prefix, series, columns, every non-rate cell must be > 0).
        // Figures 8 and 9 legitimately hold zeros (no updaters at
        // long = MPL, no long readers at long = 0) and the GC ablation
        // reclaims nothing with GC off.
        let shapes = [
            ("Figure 4", 8, 2, true),
            ("Figure 5", 8, 2, true),
            ("Table 3", 4, 8, true),
            ("Figure 6", 4, 6, true),
            ("Figure 7", 4, 6, true),
            ("Figure 8", 4, 3, false),
            ("Figure 9", 4, 3, false),
            ("Table 4", 4, 2, true),
            ("Ablation: optimistic validation", 2, 4, true),
            ("Ablation: cooperative garbage", 2, 2, false),
        ];
        let tables = run_all(&tiny());
        assert_eq!(tables.len(), shapes.len());
        for (t, (title, series, columns, positive)) in tables.iter().zip(shapes) {
            assert!(t.title.starts_with(title), "{} is not {title}", t.title);
            assert_eq!(t.rows.len(), series, "{t:?}");
            assert_eq!(t.xs.len(), columns, "{t:?}");
            if series >= schemes.len() {
                for scheme in schemes {
                    assert!(t.value(scheme, 0).is_some(), "{scheme} missing: {t:?}");
                }
            }
            for (label, values) in &t.rows {
                assert_eq!(values.len(), columns, "{label}: {t:?}");
                for (x, &v) in t.xs.iter().zip(values) {
                    assert!(v.is_finite(), "{label} / {x}: {t:?}");
                    if label.ends_with("abort rate") || x.ends_with("abort rate") {
                        assert!((0.0..=1.0).contains(&v), "{label} / {x}: {t:?}");
                    } else if x.ends_with("% drop") {
                        assert!(v <= 100.0, "{label} / {x}: {t:?}");
                    } else if positive {
                        assert!(v > 0.0, "{label} / {x}: {t:?}");
                    } else {
                        assert!(v >= 0.0, "{label} / {x}: {t:?}");
                    }
                }
            }
        }
        let md = tables[0].to_markdown();
        assert!(md.contains("| MV/A |") && md.contains("| MV/O abort rate |"));
        for scheme in schemes {
            // Without long readers the updaters run alone and nothing is
            // read by a long reader.
            assert!(tables[5].value(scheme, 0).unwrap() > 0.0, "{:?}", tables[5]);
            assert_eq!(tables[6].value(scheme, 0), Some(0.0), "{:?}", tables[6]);
            // TATP is low-contention: aborts stay rare.
            assert!(tables[7].value(scheme, 1).unwrap() < 0.5, "{:?}", tables[7]);
        }
    }
}

//! The paper's experiments (§5), one function per table/figure.
//!
//! Every function sweeps the relevant parameter, runs the workload against
//! all three schemes through the generic driver, and returns a
//! [`SeriesTable`] whose rows correspond to the series the paper plots.
//! Absolute numbers depend on the host; the *shape* (which scheme wins,
//! roughly by how much, and where the curves cross) is what reproduces the
//! paper — see `EXPERIMENTS.md` for the recorded comparison.

use std::time::Duration;

use mmdb_common::engine::Engine;
use mmdb_common::isolation::IsolationLevel;

use mmdb_workload::driver::{run_for, DriverReport, TxnKind};
use mmdb_workload::heterogeneous::{LongReaderMix, ReadMix};
use mmdb_workload::homogeneous::Homogeneous;
use mmdb_workload::smallbank::SmallBank;
use mmdb_workload::tatp::Tatp;
use mmdb_workload::tpcc_lite::TpccLite;

use crate::dispatch_engine;
use crate::scheme::Scheme;

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
    /// full suite runs in well under a minute.
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

    /// Look a cell up by series label and column index (used by tests and by
    /// the shape checks in `repro --check`).
    pub fn value(&self, series: &str, column: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|(l, _)| l == series)
            .and_then(|(_, vs)| vs.get(column))
            .copied()
    }
}

// ---------------------------------------------------------------------
// Generic per-scheme runners
// ---------------------------------------------------------------------

fn run_homogeneous_on<E: Engine>(
    engine: &E,
    workload: &Homogeneous,
    threads: usize,
    duration: Duration,
) -> DriverReport {
    let table = workload.setup(engine).expect("setup homogeneous workload");
    run_for(engine, threads, duration, |e, rng, _| {
        workload.run_one(e, table, rng)
    })
}

fn run_read_mix_on<E: Engine>(
    engine: &E,
    mix: &ReadMix,
    threads: usize,
    duration: Duration,
) -> DriverReport {
    let table = mix.base.setup(engine).expect("setup read mix");
    run_for(engine, threads, duration, |e, rng, _| {
        mix.run_one(e, table, rng)
    })
}

fn run_long_readers_on<E: Engine>(
    engine: &E,
    mix: &LongReaderMix,
    threads: usize,
    duration: Duration,
) -> DriverReport {
    let table = mix.base.setup(engine).expect("setup long-reader mix");
    run_for(engine, threads, duration, |e, rng, worker| {
        mix.run_one(e, table, rng, worker)
    })
}

fn run_smallbank_on<E: Engine>(
    engine: &E,
    sb: &SmallBank,
    threads: usize,
    duration: Duration,
) -> DriverReport {
    let tables = sb.setup(engine).expect("setup SmallBank");
    run_for(engine, threads, duration, |e, rng, _| {
        sb.run_one(e, tables, rng)
    })
}

fn run_tpcc_on<E: Engine>(
    engine: &E,
    tpcc: &TpccLite,
    threads: usize,
    duration: Duration,
) -> DriverReport {
    let tables = tpcc.setup(engine).expect("setup TPC-C-lite");
    run_for(engine, threads, duration, |e, rng, _| {
        tpcc.run_one(e, tables, rng)
    })
}

fn run_tatp_on<E: Engine>(
    engine: &E,
    tatp: &Tatp,
    threads: usize,
    duration: Duration,
) -> DriverReport {
    let tables = tatp.setup(engine).expect("setup TATP");
    run_for(engine, threads, duration, |e, rng, _| {
        tatp.run_one(e, tables, rng)
    })
}

fn scalability(cfg: &ExpConfig, rows: u64, title: &str) -> SeriesTable {
    let workload = Homogeneous {
        rows,
        ..Default::default()
    };
    let mut table = SeriesTable {
        title: title.to_string(),
        x_label: "threads".into(),
        xs: cfg.threads.iter().map(|t| t.to_string()).collect(),
        rows: Vec::new(),
        unit: "committed transactions / second (and abort rate per scheme)".into(),
    };
    // Throughput first, then the abort-rate companion series — the paper
    // quotes both, and the abort rates explain the throughput cliffs under
    // contention.
    let mut abort_rows = Vec::new();
    for scheme in Scheme::ALL {
        let mut series = Vec::with_capacity(cfg.threads.len());
        let mut aborts = Vec::with_capacity(cfg.threads.len());
        for &threads in &cfg.threads {
            let report = scheme.with_engine(cfg.lock_timeout, |factory| {
                dispatch_engine!(factory, |engine| {
                    run_homogeneous_on(engine, &workload, threads, cfg.duration)
                })
            });
            series.push(report.tps());
            aborts.push(report.abort_rate());
        }
        table.rows.push((scheme.label().to_string(), series));
        abort_rows.push((format!("{} abort rate", scheme.label()), aborts));
    }
    table.rows.extend(abort_rows);
    table
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
    let mut table = SeriesTable {
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
        rows: Vec::new(),
        unit: "committed transactions / second (plus % drop vs read committed and abort rate)"
            .into(),
    };
    for scheme in Scheme::ALL {
        let mut tps = Vec::new();
        let mut aborts = Vec::new();
        for level in levels {
            let workload = Homogeneous {
                rows: cfg.rows,
                isolation: level,
                ..Default::default()
            };
            let report = scheme.with_engine(cfg.lock_timeout, |factory| {
                dispatch_engine!(factory, |engine| {
                    run_homogeneous_on(engine, &workload, cfg.mpl, cfg.duration)
                })
            });
            tps.push(report.tps());
            aborts.push(report.abort_rate());
        }
        let drop_of = |x: f64| {
            if tps[0] > 0.0 {
                (1.0 - x / tps[0]) * 100.0
            } else {
                0.0
            }
        };
        table.rows.push((
            scheme.label().to_string(),
            vec![
                tps[0],
                aborts[0],
                tps[1],
                drop_of(tps[1]),
                aborts[1],
                tps[2],
                drop_of(tps[2]),
                aborts[2],
            ],
        ));
    }
    table
}

fn read_mix(cfg: &ExpConfig, rows: u64, title: &str) -> SeriesTable {
    let fractions = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let mut table = SeriesTable {
        title: title.to_string(),
        x_label: "read-only fraction".into(),
        xs: fractions
            .iter()
            .map(|f| format!("{:.0}%", f * 100.0))
            .collect(),
        rows: Vec::new(),
        unit: "committed transactions / second".into(),
    };
    for scheme in Scheme::ALL {
        let mut series = Vec::new();
        for &fraction in &fractions {
            let mix = ReadMix::new(rows, fraction);
            let tps = scheme.with_engine(cfg.lock_timeout, |factory| {
                dispatch_engine!(factory, |engine| {
                    run_read_mix_on(engine, &mix, cfg.mpl, cfg.duration).tps()
                })
            });
            series.push(tps);
        }
        table.rows.push((scheme.label().to_string(), series));
    }
    table
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

/// Shared runner for Figures 8 and 9: returns (update throughput, long-read
/// row throughput) per scheme and per long-reader count.
fn long_readers(cfg: &ExpConfig) -> (SeriesTable, SeriesTable) {
    let mut counts: Vec<usize> = vec![0, 1, 2, 4, 6, 12, 18, 24];
    counts.retain(|&c| c <= cfg.mpl);
    if *counts.last().unwrap_or(&0) != cfg.mpl {
        counts.push(cfg.mpl);
    }
    let xs: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
    let mut updates = SeriesTable {
        title: "Figure 8: update throughput with concurrent long read-only transactions".into(),
        x_label: "long readers (of MPL)".into(),
        xs: xs.clone(),
        rows: Vec::new(),
        unit: "committed update transactions / second".into(),
    };
    let mut reads = SeriesTable {
        title: "Figure 9: read throughput of the long read-only transactions".into(),
        x_label: "long readers (of MPL)".into(),
        xs,
        rows: Vec::new(),
        unit: "rows read / second by long readers".into(),
    };
    for scheme in Scheme::ALL {
        // Transactionally consistent read-only queries: snapshot isolation on
        // the multiversion engines (no locking/validation for read-only
        // transactions, §3.4); the single-version engine must take
        // serializable read locks.
        let long_iso = match scheme {
            Scheme::OneV => IsolationLevel::Serializable,
            _ => IsolationLevel::SnapshotIsolation,
        };
        let mut update_series = Vec::new();
        let mut read_series = Vec::new();
        for &long in &counts {
            let mix = LongReaderMix::new(cfg.rows, long, long_iso);
            let report = scheme.with_engine(cfg.lock_timeout, |factory| {
                dispatch_engine!(factory, |engine| {
                    run_long_readers_on(engine, &mix, cfg.mpl, cfg.duration)
                })
            });
            update_series.push(report.tps_of(TxnKind::Update));
            read_series.push(report.read_rate_of(TxnKind::LongRead));
        }
        updates
            .rows
            .push((scheme.label().to_string(), update_series));
        reads.rows.push((scheme.label().to_string(), read_series));
    }
    (updates, reads)
}

/// **Figure 8** — update throughput as long read-only transactions are added.
pub fn fig8(cfg: &ExpConfig) -> SeriesTable {
    long_readers(cfg).0
}

/// **Figure 9** — read throughput of the long read-only transactions in the
/// same experiment.
pub fn fig9(cfg: &ExpConfig) -> SeriesTable {
    long_readers(cfg).1
}

/// **Figures 8 & 9** from a single run (avoids running the sweep twice).
pub fn fig8_and_fig9(cfg: &ExpConfig) -> (SeriesTable, SeriesTable) {
    long_readers(cfg)
}

/// **Table 4** — TATP throughput per scheme at the fixed MPL.
pub fn table4(cfg: &ExpConfig) -> SeriesTable {
    let tatp = Tatp::new(cfg.subscribers);
    let mut table = SeriesTable {
        title: "Table 4: TATP results".into(),
        x_label: "scheme".into(),
        xs: vec!["transactions / second".into(), "abort rate".into()],
        rows: Vec::new(),
        unit: "committed TATP transactions / second".into(),
    };
    for scheme in Scheme::ALL {
        let report = scheme.with_engine(cfg.lock_timeout, |factory| {
            dispatch_engine!(factory, |engine| run_tatp_on(
                engine,
                &tatp,
                cfg.mpl,
                cfg.duration
            ))
        });
        table.rows.push((
            scheme.label().to_string(),
            vec![report.tps(), report.abort_rate()],
        ));
    }
    table
}

/// **SmallBank benchmark** — the banking workload as a perf client
/// (`BENCH_smallbank.json`). All four schemes at the fixed MPL under the
/// six-transaction SmallBank mix at snapshot isolation, once with uniform
/// account selection and once with the hotspot knob turned up (most traffic
/// aimed at a small set of hot customers — the regime where the schemes'
/// conflict handling diverges). Abort-rate companions explain the
/// throughput gaps.
pub fn smallbank_perf(cfg: &ExpConfig) -> SeriesTable {
    let accounts = cfg.rows.clamp(1_000, 100_000);
    let hot_accounts = cfg.hot_rows.clamp(10, accounts / 2);
    let bank = |hot_fraction: f64| SmallBank {
        accounts,
        initial_balance: 10_000,
        hot_accounts,
        hot_fraction,
        isolation: IsolationLevel::SnapshotIsolation,
    };
    let variants = [("uniform", bank(0.0)), ("hotspot", bank(0.9))];
    let mut table = SeriesTable {
        title: format!(
            "SmallBank: throughput per scheme, uniform vs {hot_accounts}-account hotspot \
             ({accounts} accounts, snapshot isolation, MPL {})",
            cfg.mpl
        ),
        x_label: "scheme".into(),
        xs: variants
            .iter()
            .flat_map(|(name, _)| [format!("{name} tx/s"), format!("{name} abort rate")])
            .collect(),
        rows: Vec::new(),
        unit: "committed SmallBank transactions / second (and abort rate)".into(),
    };
    for scheme in Scheme::ALL {
        let mut cells = Vec::with_capacity(table.xs.len());
        for (_, sb) in &variants {
            let report = scheme.with_engine(cfg.lock_timeout, |factory| {
                dispatch_engine!(factory, |engine| run_smallbank_on(
                    engine,
                    sb,
                    cfg.mpl,
                    cfg.duration
                ))
            });
            cells.push(report.tps());
            cells.push(report.abort_rate());
        }
        table.rows.push((scheme.label().to_string(), cells));
    }
    table
}

/// **TPC-C-lite benchmark** — the order-entry workload as a perf client
/// (`BENCH_tpcc.json`). All four schemes at the fixed MPL under the
/// new-order / payment / order-status mix at snapshot isolation. New-order
/// exercises the single-writer district counter (a natural hotspot) plus
/// ordered-index inserts; order-status range-scans the order and order-line
/// tables through the ordered secondary index. The new-order column is the
/// classic TPC-C headline rate.
pub fn tpcc_perf(cfg: &ExpConfig) -> SeriesTable {
    let tpcc = TpccLite {
        warehouses: 2,
        districts_per_wh: 4,
        customers_per_district: (cfg.rows / 64).clamp(64, 4_096),
        initial_orders: 3,
        isolation: IsolationLevel::SnapshotIsolation,
    };
    let mut table = SeriesTable {
        title: format!(
            "TPC-C-lite: throughput per scheme ({} warehouses x {} districts, \
             {} customers/district, snapshot isolation, MPL {})",
            tpcc.warehouses, tpcc.districts_per_wh, tpcc.customers_per_district, cfg.mpl
        ),
        x_label: "scheme".into(),
        xs: vec!["tx/s".into(), "new-order tx/s".into(), "abort rate".into()],
        rows: Vec::new(),
        unit: "committed TPC-C-lite transactions / second (and abort rate)".into(),
    };
    for scheme in Scheme::ALL {
        let report = scheme.with_engine(cfg.lock_timeout, |factory| {
            dispatch_engine!(factory, |engine| run_tpcc_on(
                engine,
                &tpcc,
                cfg.mpl,
                cfg.duration
            ))
        });
        table.rows.push((
            scheme.label().to_string(),
            vec![
                report.tps(),
                report.tps_of(TxnKind::TpccNewOrder),
                report.abort_rate(),
            ],
        ));
    }
    table
}

/// Ablation: cost of higher isolation for MV/O as the read set grows
/// (validation is O(|ReadSet|)). Sweeps the reads-per-transaction parameter
/// and reports committed transactions per second at Serializable vs Read
/// Committed on the optimistic engine.
pub fn ablation_validation_cost(cfg: &ExpConfig) -> SeriesTable {
    let read_counts = [2usize, 10, 50, 200];
    let mut table = SeriesTable {
        title: "Ablation: optimistic validation cost vs read-set size (MV/O)".into(),
        x_label: "reads per transaction".into(),
        xs: read_counts.iter().map(|r| r.to_string()).collect(),
        rows: Vec::new(),
        unit: "committed transactions / second".into(),
    };
    for (label, iso) in [
        ("MV/O read committed", IsolationLevel::ReadCommitted),
        ("MV/O serializable", IsolationLevel::Serializable),
    ] {
        let mut series = Vec::new();
        for &reads in &read_counts {
            let workload = Homogeneous {
                rows: cfg.rows,
                reads,
                writes: 2,
                isolation: iso,
                ..Default::default()
            };
            let tps = Scheme::MvO.with_engine(cfg.lock_timeout, |factory| {
                dispatch_engine!(factory, |engine| {
                    run_homogeneous_on(engine, &workload, cfg.mpl, cfg.duration).tps()
                })
            });
            series.push(tps);
        }
        table.rows.push((label.to_string(), series));
    }
    table
}

/// Ablation: effect of cooperative garbage collection on version counts.
/// Runs an update-heavy workload with GC enabled vs disabled and reports the
/// number of versions left in the table afterwards.
pub fn ablation_gc(cfg: &ExpConfig) -> SeriesTable {
    use mmdb_common::engine::Engine as _;
    let rows = cfg.hot_rows.max(500);
    let mut table = SeriesTable {
        title: "Ablation: cooperative garbage collection (MV/O, update-heavy hotspot)".into(),
        x_label: "configuration".into(),
        xs: vec!["versions after run".into(), "versions reclaimed".into()],
        rows: Vec::new(),
        unit: "version counts".into(),
    };
    for (label, gc_every) in [
        ("GC enabled (every 128 commits)", 128u64),
        ("GC disabled", 0u64),
    ] {
        let engine =
            mmdb_core::MvEngine::optimistic(mmdb_core::MvConfig::default().with_gc_every(gc_every));
        let workload = Homogeneous {
            rows,
            ..Default::default()
        };
        let t = workload.setup(&engine).expect("setup");
        let _ = run_for(&engine, cfg.mpl.min(8), cfg.duration, |e, rng, _| {
            workload.run_one(e, t, rng)
        });
        let after = engine.version_count(t).expect("count") as f64;
        let reclaimed = engine.stats().snapshot().versions_collected as f64;
        table.rows.push((label.to_string(), vec![after, reclaimed]));
    }
    table
}

/// Time `op` over `iters` iterations after `iters / 8` warm-up calls and
/// return nanoseconds per operation.
fn ns_per_op(iters: u64, mut op: impl FnMut()) -> f64 {
    for _ in 0..iters / 8 {
        op();
    }
    let start = std::time::Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// **Read-path microbenchmark** — the perf baseline this repository's
/// trajectory starts from (`BENCH_readpath.json`). Single-threaded ns/op of
/// the system's hottest operations on a warmed engine:
///
/// * MV/O point read and short (8-row) secondary scan, through both the
///   materializing API (`read` / `scan_key`, clones rows into
///   `Option<Row>` / `Vec<Row>`) and the visitor API (`read_with` /
///   `scan_key_with`, allocation-free steady state);
/// * the 1V point read for comparison (lock-coupled, inherently allocating);
/// * the transaction-table lookup (`get_in` borrows under an epoch guard) —
///   the per-version visibility cost of §2.5.
pub fn readpath_perf(cfg: &ExpConfig) -> SeriesTable {
    use mmdb_common::engine::EngineTxn as _;
    use mmdb_common::ids::{IndexId, TxnId};
    use mmdb_common::row::rowbuf;

    use crate::readpath::{
        registered_txn_table, warmed_mv_engine, warmed_sv_engine, GROUP_SIZE, GROUP_STRIDE,
        KEY_STRIDE, TXN_TABLE_ENTRIES,
    };

    let rows = cfg.rows.clamp(8_192, 262_144);
    // Iteration counts scale with the configured measurement interval so the
    // quick/CI configuration stays fast while the standard one averages over
    // enough operations for stable numbers.
    let read_iters = (cfg.duration.as_millis() as u64 * 200).clamp(20_000, 400_000);
    let scan_iters = read_iters / 5;
    let lookup_iters = read_iters * 5;

    let mut table = SeriesTable {
        title: format!("Read path: ns/op on a warmed engine ({rows} rows, single thread)"),
        x_label: "operation".into(),
        xs: vec!["ns/op".into()],
        rows: Vec::new(),
        unit: "nanoseconds per operation".into(),
    };

    // --- MV/O ---
    let (engine, t) = warmed_mv_engine(rows);
    let mut txn = engine.begin(IsolationLevel::ReadCommitted);
    let mut key = 0u64;
    let read_mat = ns_per_op(read_iters, || {
        key = (key.wrapping_add(KEY_STRIDE)) % rows;
        std::hint::black_box(txn.read(t, IndexId(0), key).expect("read"));
    });
    let mut key = 1u64;
    let read_vis = ns_per_op(read_iters, || {
        key = (key.wrapping_add(KEY_STRIDE)) % rows;
        txn.read_with(t, IndexId(0), key, &mut |row| {
            std::hint::black_box(rowbuf::key_of(row));
        })
        .expect("read_with");
    });
    let mut group = 0u64;
    let scan_mat = ns_per_op(scan_iters, || {
        group = (group.wrapping_add(GROUP_STRIDE)) % (rows / GROUP_SIZE);
        std::hint::black_box(txn.scan_key(t, IndexId(1), group).expect("scan_key").len());
    });
    let mut group = 1u64;
    let scan_vis = ns_per_op(scan_iters, || {
        group = (group.wrapping_add(GROUP_STRIDE)) % (rows / GROUP_SIZE);
        let mut sum = 0u64;
        txn.scan_key_with(t, IndexId(1), group, &mut |row| sum += rowbuf::key_of(row))
            .expect("scan_key_with");
        std::hint::black_box(sum);
    });
    txn.abort();

    // --- 1V ---
    let (sv, t1) = warmed_sv_engine(rows, cfg.lock_timeout);
    let mut txn = sv.begin(IsolationLevel::ReadCommitted);
    let mut key = 0u64;
    let sv_read_vis = ns_per_op(read_iters, || {
        key = (key.wrapping_add(KEY_STRIDE)) % rows;
        txn.read_with(t1, IndexId(0), key, &mut |row| {
            std::hint::black_box(rowbuf::key_of(row));
        })
        .expect("read_with");
    });
    txn.abort();

    // --- TxnTable lookups (the §2.5 per-version visibility cost) ---
    let txns = registered_txn_table();
    let guard = crossbeam::epoch::pin();
    let mut id = 1u64;
    let get_borrow = ns_per_op(lookup_iters, || {
        id = id % TXN_TABLE_ENTRIES + 1;
        std::hint::black_box(txns.get_in(TxnId(id), &guard).expect("registered").id());
    });
    drop(guard);

    for (label, value) in [
        ("MV/O point read (materializing `read`)", read_mat),
        ("MV/O point read (visitor `read_with`)", read_vis),
        ("MV/O scan x8 (materializing `scan_key`)", scan_mat),
        ("MV/O scan x8 (visitor `scan_key_with`)", scan_vis),
        ("1V point read (visitor `read_with`)", sv_read_vis),
        ("TxnTable lookup (`get_in`, guard borrow)", get_borrow),
    ] {
        table.rows.push((label.to_string(), vec![value]));
    }
    table
}

/// **Range-scan microbenchmark** — the ordered-index companion of
/// [`readpath_perf`] (`BENCH_rangescan.json`). Single-threaded ns/op of
/// inclusive range scans over a skip-list-ordered primary-key index on a
/// warmed engine:
///
/// * MV/O short (8-key) and long (64-key) range scans through the visitor
///   API (`scan_range_with`, allocation-free steady state below
///   serializable) plus the materializing `scan_range` for contrast;
/// * whole serializable range-scan transactions on both MV schemes — MV/O
///   pays commit-time §4.3.2 revalidation of the scanned range, MV/L pays
///   range-lock registration and release;
/// * the 1V comparison: the single-version engine has no ordered structure,
///   so a range scan shared-locks the whole index and filters every row —
///   the baseline the skip list exists to beat (its iteration count is
///   scaled down so the O(rows) walks keep the experiment bounded).
pub fn rangescan_perf(cfg: &ExpConfig) -> SeriesTable {
    use mmdb_common::engine::EngineTxn as _;
    use mmdb_common::isolation::ConcurrencyMode;
    use mmdb_common::row::rowbuf;

    use crate::readpath::{
        warmed_ordered_mv_engine, warmed_ordered_sv_engine, KEY_STRIDE, ORDERED_INDEX,
    };

    let rows = cfg.rows.clamp(8_192, 262_144);
    let scan_iters = (cfg.duration.as_millis() as u64 * 40).clamp(4_000, 80_000);
    // Serializable transactions carry per-txn registration/validation work on
    // top of the scan; 1V walks the whole index per scan.
    let txn_iters = scan_iters / 4;
    let sv_iters = scan_iters.min((50_000_000 / rows).max(100));

    let mut table = SeriesTable {
        title: format!("Range scans: ns/op on a warmed ordered index ({rows} rows, single thread)"),
        x_label: "operation".into(),
        xs: vec!["ns/op".into()],
        rows: Vec::new(),
        unit: "nanoseconds per operation".into(),
    };

    let (engine, t) = warmed_ordered_mv_engine(ConcurrencyMode::Optimistic, rows);
    let mut txn = engine.begin(IsolationLevel::ReadCommitted);
    let scan_span = |txn: &mut mmdb_core::MvTransaction, key: &mut u64, span: u64| {
        *key = (key.wrapping_add(KEY_STRIDE)) % (rows - span);
        let mut sum = 0u64;
        txn.scan_range_with(t, ORDERED_INDEX, *key, *key + span - 1, &mut |row| {
            sum += rowbuf::key_of(row)
        })
        .expect("scan_range_with");
        std::hint::black_box(sum);
    };
    let mut key = 0u64;
    let short_vis = ns_per_op(scan_iters, || scan_span(&mut txn, &mut key, 8));
    let mut key = 1u64;
    let long_vis = ns_per_op(scan_iters / 4, || scan_span(&mut txn, &mut key, 64));
    let mut key = 2u64;
    let short_mat = ns_per_op(scan_iters, || {
        key = (key.wrapping_add(KEY_STRIDE)) % (rows - 8);
        std::hint::black_box(
            txn.scan_range(t, ORDERED_INDEX, key, key + 7)
                .expect("scan_range")
                .len(),
        );
    });
    txn.abort();

    let mv_ser_txn = |mode: ConcurrencyMode| {
        let (engine, t) = warmed_ordered_mv_engine(mode, rows);
        let mut key = 0u64;
        ns_per_op(txn_iters, || {
            key = (key.wrapping_add(KEY_STRIDE)) % (rows - 8);
            let mut txn = engine.begin(IsolationLevel::Serializable);
            let mut sum = 0u64;
            txn.scan_range_with(t, ORDERED_INDEX, key, key + 7, &mut |row| {
                sum += rowbuf::key_of(row)
            })
            .expect("scan_range_with");
            std::hint::black_box(sum);
            txn.commit().expect("commit");
        })
    };
    let mvo_ser = mv_ser_txn(ConcurrencyMode::Optimistic);
    let mvl_ser = mv_ser_txn(ConcurrencyMode::Pessimistic);

    let (sv, t1) = warmed_ordered_sv_engine(rows, cfg.lock_timeout);
    let mut txn = sv.begin(IsolationLevel::ReadCommitted);
    let mut key = 0u64;
    let sv_scan = ns_per_op(sv_iters, || {
        key = (key.wrapping_add(KEY_STRIDE)) % (rows - 8);
        let mut sum = 0u64;
        txn.scan_range_with(t1, ORDERED_INDEX, key, key + 7, &mut |row| {
            sum += rowbuf::key_of(row)
        })
        .expect("scan_range_with");
        std::hint::black_box(sum);
    });
    txn.abort();

    for (label, value) in [
        ("MV/O range x8 (visitor `scan_range_with`, RC)", short_vis),
        ("MV/O range x64 (visitor `scan_range_with`, RC)", long_vis),
        ("MV/O range x8 (materializing `scan_range`, RC)", short_mat),
        ("MV/O ser range txn x8 (scan+commit revalidate)", mvo_ser),
        ("MV/L ser range txn x8 (range lock + release)", mvl_ser),
        ("1V range x8 (full-index lock + filter walk, RC)", sv_scan),
    ] {
        table.rows.push((label.to_string(), vec![value]));
    }
    table
}

/// **Write-path microbenchmark** — the companion of [`readpath_perf`]
/// (`BENCH_writepath.json`). Single-threaded ns per *whole warmed write
/// transaction* on a populated engine:
///
/// * MV/O and MV/L single-row update transactions (begin → update → commit)
///   at snapshot isolation — the shape the allocation-free write path pins
///   (`crates/core/tests/alloc_free.rs`);
/// * an MV/O insert-then-delete transaction pair (version churn through the
///   cooperative garbage collector);
/// * the 1V update transaction for comparison (in-place update under
///   two-phase bucket locks).
pub fn writepath_perf(cfg: &ExpConfig) -> SeriesTable {
    use mmdb_common::engine::EngineTxn as _;
    use mmdb_common::ids::IndexId;
    use mmdb_common::isolation::ConcurrencyMode;

    use crate::writepath::{grouped_row, warmed_mv_engine_with, warmed_sv_engine, KEY_STRIDE};

    let rows = cfg.rows.clamp(8_192, 262_144);
    // A whole write transaction is ~two orders of magnitude more work than a
    // point read; scale the iteration counts down accordingly.
    let txn_iters = (cfg.duration.as_millis() as u64 * 20).clamp(2_000, 40_000);

    let mut table = SeriesTable {
        title: format!("Write path: ns/txn on a warmed engine ({rows} rows, single thread)"),
        x_label: "operation".into(),
        xs: vec!["ns/txn".into()],
        rows: Vec::new(),
        unit: "nanoseconds per committed write transaction".into(),
    };

    let mv_update = |mode: ConcurrencyMode| {
        let (engine, t) = warmed_mv_engine_with(mode, rows);
        let mut key = 0u64;
        ns_per_op(txn_iters, || {
            key = (key.wrapping_add(KEY_STRIDE)) % rows;
            let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
            assert!(txn
                .update(t, IndexId(0), key, grouped_row(key))
                .expect("update"));
            txn.commit().expect("commit");
        })
    };
    let mvo_update = mv_update(ConcurrencyMode::Optimistic);
    let mvl_update = mv_update(ConcurrencyMode::Pessimistic);

    // Insert-then-delete: every iteration creates a fresh key above the
    // populated range, inserts it in one transaction and deletes it in the
    // next — steady-state version churn straight through the GC queue. The
    // loop commits two transactions, so halve the measured time to report
    // it in the table's per-transaction unit.
    let (engine, t) = warmed_mv_engine_with(ConcurrencyMode::Optimistic, rows);
    let mut k = 0u64;
    let mvo_insert_delete = ns_per_op(txn_iters / 2, || {
        k += 1;
        let key = rows + k;
        let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
        txn.insert(t, grouped_row(key)).expect("insert");
        txn.commit().expect("insert commit");
        let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
        assert!(txn.delete(t, IndexId(0), key).expect("delete"));
        txn.commit().expect("delete commit");
    }) / 2.0;

    let (sv, t1) = warmed_sv_engine(rows, cfg.lock_timeout);
    let mut key = 0u64;
    let sv_update = ns_per_op(txn_iters, || {
        key = (key.wrapping_add(KEY_STRIDE)) % rows;
        let mut txn = sv.begin(IsolationLevel::ReadCommitted);
        assert!(txn
            .update(t1, IndexId(0), key, grouped_row(key))
            .expect("update"));
        txn.commit().expect("commit");
    });

    // The per-operation table-lookup cost (every read/scan/write resolves
    // its table): the epoch-published catalog both ways — `table` clones an
    // `Arc`, `table_in` borrows under an epoch guard (the hot-path variant).
    let (engine, t) = warmed_mv_engine_with(ConcurrencyMode::Optimistic, rows);
    let lookup_iters = txn_iters * 50;
    let catalog_arc = ns_per_op(lookup_iters, || {
        std::hint::black_box(engine.store().table(t).expect("published").id());
    });
    let guard = crossbeam::epoch::pin();
    let catalog_borrow = ns_per_op(lookup_iters, || {
        std::hint::black_box(engine.store().table_in(t, &guard).expect("published").id());
    });
    drop(guard);

    for (label, value) in [
        ("MV/O update txn (begin→update→commit, SI)", mvo_update),
        ("MV/L update txn (begin→update→commit, SI)", mvl_update),
        (
            "MV/O insert+delete (ns/txn, avg over the pair, SI)",
            mvo_insert_delete,
        ),
        ("1V update txn (begin→update→commit, RC)", sv_update),
        ("Catalog table lookup (`table`, Arc clone)", catalog_arc),
        (
            "Catalog table lookup (`table_in`, guard borrow)",
            catalog_borrow,
        ),
    ] {
        table.rows.push((label.to_string(), vec![value]));
    }
    table
}

/// **Commit-durability benchmark** — the group-commit A/B
/// (`BENCH_groupcommit.json`). Committed single-row update transactions per
/// second on a warmed MV/O engine with a real redo log underneath, workers
/// on disjoint key ranges (the log is the only shared resource under test):
///
/// * **Sync, tickless** — the first waiter becomes the leader and flushes
///   for everyone queued. The single-threaded column is the conventional
///   one-`write`+sync-per-transaction baseline (a lone committer is always
///   its own leader); the multi-threaded column is what batching buys.
/// * **Sync, 200 µs tick** — committers wait at most one tick; the
///   background flusher hardens whole batches.
/// * **Async** — the paper's model (§5: transactions never wait for log
///   I/O), tickless (hardened when the buffer fills and at the end) and
///   ticked, for the headline contrast.
pub fn commitpath_perf(cfg: &ExpConfig) -> SeriesTable {
    use mmdb_common::durability::Durability;

    use crate::commitpath::commit_throughput;

    // The contended resource is the log, not the table: a modest table keeps
    // populate time out of the measurement without changing what is measured.
    let rows = cfg.rows.clamp(4_096, 65_536);
    let tick = Some(Duration::from_micros(200));
    // One single-threaded column (batching cannot help a lone Sync
    // committer — kept honest) and one at a group-commit-friendly
    // multiprogramming level.
    let thread_counts = vec![1usize, cfg.mpl.clamp(2, 8)];

    let mut table = SeriesTable {
        title: format!(
            "Commit path: committed update txns/s vs durability and log batching \
             ({rows} rows)"
        ),
        x_label: "threads".into(),
        xs: thread_counts.iter().map(|t| t.to_string()).collect(),
        rows: Vec::new(),
        unit: "committed transactions per second".into(),
    };

    let series = [
        (
            "Sync, group commit (tickless leader)",
            Durability::Sync,
            None,
        ),
        ("Sync, group commit (200us tick)", Durability::Sync, tick),
        (
            "Async, group commit (tickless, flush at end)",
            Durability::Async,
            None,
        ),
        ("Async, group commit (200us tick)", Durability::Async, tick),
    ];
    for (i, (label, durability, tick)) in series.into_iter().enumerate() {
        let mut values = Vec::with_capacity(thread_counts.len());
        for &threads in &thread_counts {
            values.push(commit_throughput(
                &format!("s{i}-t{threads}"),
                rows,
                threads,
                cfg.duration,
                durability,
                tick,
            ));
        }
        table.rows.push((label.to_string(), values));
    }
    table
}

/// **Recovery benchmark** — checkpoint + tail replay vs full log replay,
/// and delta chains vs full images (`BENCH_recovery.json`). The point of
/// the checkpoint subsystem is to bound restart time: without one,
/// recovery replays the whole redo history; with one, it bulk-loads the
/// last image and replays only the tail above the checkpoint LSN. This
/// experiment runs one deterministic update-heavy history twice — once
/// into a store that never checkpoints and once into a store that
/// checkpoints every 1/12th of the final log (so the log is ≥ 10× the
/// checkpoint interval) — then times recovery of each directory into a
/// fresh engine and cross-checks that both recovered states agree.
///
/// A second A/B targets the *writing* side: a hot-set history (all updates
/// confined to 5% of the rows, the regime delta checkpoints exist for)
/// runs once under full images and once under a delta chain
/// (`CheckpointPolicy::delta`, chain bound 16). Steady-state checkpoint
/// bytes must drop at least 5× (asserted — this is the CI smoke guard
/// against checkpoint-write regressions) and recovery from
/// base + deltas + tail is timed against the full-image directory; both
/// land in the committed JSON. Recovery itself runs the partitioned
/// loader, so the delta rows also measure chain-apply + parallel-replay
/// cost. Timings here are single-process wall clock — see EXPERIMENTS.md
/// for the single-core caveat.
pub fn recovery_perf(cfg: &ExpConfig) -> SeriesTable {
    use std::sync::Arc;
    use std::time::Instant;

    use mmdb_common::durability::CheckpointPolicy;
    use mmdb_common::engine::EngineTxn as _;
    use mmdb_common::ids::IndexId;
    use mmdb_common::row::{rowbuf, TableSpec};
    use mmdb_storage::checkpoint::CheckpointStore;
    use mmdb_storage::durable::Durable as _;
    use mmdb_storage::log::{NullLogger, RedoLogger as _};

    const FILLER: usize = 16;
    let rows = cfg.rows.clamp(2_000, 20_000);
    let updates = (cfg.duration.as_millis() as u64 * 200).clamp(10_000, 400_000);
    let lcg = |x: u64| {
        x.wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
    };
    let spec = || TableSpec::keyed_u64("recovery", rows as usize);
    let dir_for = |tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("mmdb-bench-recovery-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };

    // The same seeded history into a checkpoint store; `policy` None = never
    // checkpoint (the full-replay baseline), and `hot` confines updates to
    // the first `hot` keys (the delta-checkpoint regime). Returns the number
    // of checkpoints taken, the total bytes appended to the log stream and
    // the total checkpoint-image bytes written.
    let run = |dir: &std::path::Path,
               policy: Option<CheckpointPolicy>,
               hot: Option<u64>|
     -> (usize, u64, u64) {
        let store = CheckpointStore::create(dir).expect("create checkpoint store");
        let engine = mmdb_core::MvEngine::with_logger(
            mmdb_core::MvConfig::optimistic().with_deadlock_detector(false),
            store.logger().clone(),
        );
        let table = engine.create_table(spec()).expect("create table");
        let mut setup = engine.begin(IsolationLevel::ReadCommitted);
        for k in 0..rows {
            setup
                .insert(table, rowbuf::keyed_row(k, FILLER, 1))
                .expect("populate");
        }
        setup.commit().expect("populate commit");
        let span = hot.unwrap_or(rows).max(1);
        let mut checkpoints = 0usize;
        let mut x = 0x5EEDu64;
        for _ in 0..updates {
            x = lcg(x);
            let k = (x >> 33) % span;
            let fill = (x % 7 + 1) as u8;
            let mut txn = engine.begin(IsolationLevel::SnapshotIsolation);
            assert!(txn
                .update(table, IndexId(0), k, rowbuf::keyed_row(k, FILLER, fill))
                .expect("update"));
            txn.commit().expect("commit");
            if let Some(policy) = &policy {
                if store.checkpoint_due(policy) {
                    engine.checkpoint_auto(&store, policy).expect("checkpoint");
                    checkpoints += 1;
                }
            }
        }
        store.logger().flush().expect("flush");
        (
            checkpoints,
            store.logger().appended_lsn().0,
            store.checkpoint_bytes_written(),
        )
    };

    // Timed recovery of a store directory into a fresh engine. Returns
    // (elapsed ms, records replayed, bytes read, recovered-state dump).
    let recover = |dir: &std::path::Path| -> (f64, usize, u64, Vec<(u64, u8)>) {
        let plan = CheckpointStore::plan(dir).expect("recovery plan");
        let engine = mmdb_core::MvEngine::with_logger(
            mmdb_core::MvConfig::optimistic().with_deadlock_detector(false),
            Arc::new(NullLogger::new()),
        );
        let table = engine.create_table(spec()).expect("create table");
        let start = Instant::now();
        let report = engine.recover_from_checkpoint(&plan).expect("recover");
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        let image_bytes: u64 = plan
            .chain
            .iter()
            .map(|c| std::fs::metadata(&c.path).expect("image metadata").len())
            .sum();
        let bytes_read = image_bytes + (report.valid_bytes - plan.log_tail_offset());
        let mut txn = engine.begin(IsolationLevel::ReadCommitted);
        let mut state = Vec::with_capacity(rows as usize);
        for k in 0..rows {
            if let Some(row) = txn.read(table, IndexId(0), k).expect("read") {
                state.push((k, rowbuf::fill_of(&row)));
            }
        }
        txn.commit().expect("verify commit");
        (ms, report.records_applied, bytes_read, state)
    };
    // Timings on shared hardware are noisy; everything but the elapsed time
    // is deterministic, so take the fastest of three recoveries.
    let recover = |dir: &std::path::Path| -> (f64, usize, u64, Vec<(u64, u8)>) {
        let (mut best_ms, records, bytes, state) = recover(dir);
        for _ in 0..2 {
            best_ms = best_ms.min(recover(dir).0);
        }
        (best_ms, records, bytes, state)
    };

    let full_dir = dir_for("full");
    let (_, total_bytes, _) = run(&full_dir, None, None);
    let interval = (total_bytes / 12).max(1);
    let ckpt_dir = dir_for("ckpt");
    let (checkpoints, _, ckpt_written) = run(
        &ckpt_dir,
        Some(CheckpointPolicy::every_log_bytes(interval)),
        None,
    );

    let (full_ms, full_records, full_bytes, full_state) = recover(&full_dir);
    let (ckpt_ms, ckpt_records, ckpt_bytes, ckpt_state) = recover(&ckpt_dir);
    assert_eq!(
        full_state, ckpt_state,
        "full replay and checkpoint + tail must recover the same state"
    );
    let _ = std::fs::remove_dir_all(&full_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    // Delta A/B: the same hot-set history (≤ 5 % of the rows ever touched
    // after load) once under full images and once under a delta chain. The
    // log streams are byte-identical, so one interval drives both runs to
    // the same checkpoint cadence; only the image format differs.
    let hot = (rows / 20).max(1);
    let hot_full_dir = dir_for("hot-full");
    let (hot_checkpoints, _, hot_full_written) = run(
        &hot_full_dir,
        Some(CheckpointPolicy::every_log_bytes(interval)),
        Some(hot),
    );
    let delta_dir = dir_for("hot-delta");
    let (_, _, delta_written) = run(
        &delta_dir,
        Some(CheckpointPolicy::delta(interval, 16)),
        Some(hot),
    );
    let delta_chain = CheckpointStore::plan(&delta_dir)
        .expect("delta recovery plan")
        .chain
        .len();

    let (hot_full_ms, hot_full_records, hot_full_bytes, hot_full_state) = recover(&hot_full_dir);
    let (delta_ms, delta_records, delta_bytes, delta_state) = recover(&delta_dir);
    assert_eq!(
        hot_full_state, delta_state,
        "full images and delta chain must recover the same state"
    );
    assert!(
        hot_checkpoints == 0 || delta_written * 5 <= hot_full_written,
        "delta checkpoints must write ≥ 5x fewer bytes than full images on a hot-set \
         workload (delta {delta_written} B vs full {hot_full_written} B)"
    );
    let _ = std::fs::remove_dir_all(&hot_full_dir);
    let _ = std::fs::remove_dir_all(&delta_dir);

    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { f64::NAN };
    SeriesTable {
        title: format!(
            "Recovery: full log replay vs checkpoint + tail, full images vs delta chain \
             ({rows} rows, {updates} update txns, {checkpoints} checkpoints, interval {} KiB, \
             hot set {hot} rows, final chain {delta_chain} images)",
            interval / 1024
        ),
        x_label: "metric".into(),
        xs: vec![
            "recovery ms".into(),
            "MiB read".into(),
            "records replayed".into(),
            "ckpt MiB written".into(),
        ],
        rows: vec![
            (
                "Full log replay (no checkpoint)".to_string(),
                vec![full_ms, mib(full_bytes), full_records as f64, 0.0],
            ),
            (
                "Checkpoint + tail replay".to_string(),
                vec![
                    ckpt_ms,
                    mib(ckpt_bytes),
                    ckpt_records as f64,
                    mib(ckpt_written),
                ],
            ),
            (
                "Speedup (full / checkpoint+tail)".to_string(),
                vec![
                    ratio(full_ms, ckpt_ms),
                    ratio(mib(full_bytes), mib(ckpt_bytes)),
                    ratio(full_records as f64, ckpt_records as f64),
                    0.0,
                ],
            ),
            (
                "Hot set, full images".to_string(),
                vec![
                    hot_full_ms,
                    mib(hot_full_bytes),
                    hot_full_records as f64,
                    mib(hot_full_written),
                ],
            ),
            (
                "Hot set, delta chain".to_string(),
                vec![
                    delta_ms,
                    mib(delta_bytes),
                    delta_records as f64,
                    mib(delta_written),
                ],
            ),
            (
                "Delta savings (full / delta)".to_string(),
                vec![
                    ratio(hot_full_ms, delta_ms),
                    ratio(mib(hot_full_bytes), mib(delta_bytes)),
                    ratio(hot_full_records as f64, delta_records as f64),
                    ratio(mib(hot_full_written), mib(delta_written)),
                ],
            ),
        ],
        unit: "milliseconds / MiB / record counts (ratio rows are ratios)".into(),
    }
}

/// **Adaptive-CC experiment** — the Figure 4 → Figure 5 contention axis,
/// made continuous (`BENCH_adaptive.json`). The paper picks a scheme up
/// front and shows each one losing somewhere; this experiment sweeps the
/// fraction of traffic aimed at a small hotspot and runs the two static MV
/// schemes against the adaptive mode (`MV/A`), which starts optimistic and
/// switches per transaction once its contention monitor's decayed
/// conflict-rate score crosses the hysteresis thresholds. Serializable
/// isolation, where the schemes genuinely diverge: MV/O pays validation
/// aborts on a hot read-write set, MV/L pays read locks and waits. The
/// companion abort-rate series show the mechanism: adaptive tracks MV/O's
/// near-zero abort rate at the uniform end and MV/L's wait-based profile at
/// the hotspot end.
pub fn adaptive_perf(cfg: &ExpConfig) -> SeriesTable {
    let fractions = [0.0, 0.25, 0.5, 0.75, 0.9];
    let hot_keys = cfg.hot_rows.clamp(8, 100);
    let mut table = SeriesTable {
        title: format!(
            "Adaptive CC: throughput along the fig4→fig5 contention axis \
             ({} rows, {hot_keys}-key hotspot, serializable, MPL {})",
            cfg.rows, cfg.mpl
        ),
        x_label: "hotspot access fraction".into(),
        xs: fractions.iter().map(|f| format!("{f:.2}")).collect(),
        rows: Vec::new(),
        unit: "committed transactions / second (and abort rate per scheme)".into(),
    };
    let schemes = [Scheme::MvO, Scheme::MvL, Scheme::Adaptive];
    const REPS: usize = 13;
    let mut series = vec![Vec::with_capacity(fractions.len()); schemes.len()];
    let mut aborts = vec![Vec::with_capacity(fractions.len()); schemes.len()];
    // All three schemes are MvEngine variants, so one x-point holds all
    // three engines at once and interleaves their measurement intervals
    // round-robin: background interference (another tenant on the host, a
    // slow scheduling phase) then hits every scheme about equally instead
    // of biasing whichever sweep it coincided with. The per-scheme result
    // is the median interval — robust against the outliers such phases
    // still produce.
    for &fraction in &fractions {
        let workload = Homogeneous {
            rows: cfg.rows,
            isolation: IsolationLevel::Serializable,
            hot_keys,
            hot_fraction: fraction,
            ..Default::default()
        };
        let engines: Vec<mmdb_core::MvEngine> = schemes
            .iter()
            .map(|s| {
                let config = mmdb_core::MvConfig::default().with_wait_timeout(cfg.lock_timeout);
                match s {
                    Scheme::MvO => mmdb_core::MvEngine::optimistic(config),
                    Scheme::MvL => mmdb_core::MvEngine::pessimistic(config),
                    Scheme::Adaptive => mmdb_core::MvEngine::adaptive(config),
                    Scheme::OneV => unreachable!("1V is not part of the adaptive sweep"),
                }
            })
            .collect();
        let tables: Vec<_> = engines
            .iter()
            .map(|e| workload.setup(e).expect("setup adaptive workload"))
            .collect();
        // One unmeasured interval per engine faults in the fresh table and
        // (for MV/A) lets the contention EWMA reach steady state.
        for (engine, &t) in engines.iter().zip(&tables) {
            run_for(engine, cfg.mpl, cfg.duration / 4, |e, rng, _| {
                workload.run_one(e, t, rng)
            });
        }
        let mut samples = vec![Vec::with_capacity(REPS); schemes.len()];
        for _ in 0..REPS {
            for (s, (engine, &t)) in engines.iter().zip(&tables).enumerate() {
                let report = run_for(engine, cfg.mpl, cfg.duration, |e, rng, _| {
                    workload.run_one(e, t, rng)
                });
                samples[s].push((report.tps(), report.abort_rate()));
                // Drain garbage between intervals so version-chain growth
                // over the engine's lifetime doesn't skew later intervals.
                while engine.collect_garbage() > 0 {}
            }
        }
        for (s, mut reps) in samples.into_iter().enumerate() {
            // Upper quartile, not median: throughput noise on a shared host
            // is one-sided (interference only ever slows an interval down),
            // so a high quantile estimates the undisturbed rate while still
            // discarding the implausibly lucky top interval.
            reps.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (tps, abort_rate) = reps[(reps.len() * 3) / 4];
            series[s].push(tps);
            aborts[s].push(abort_rate);
        }
    }
    for (s, scheme) in schemes.iter().enumerate() {
        table
            .rows
            .push((scheme.label().to_string(), std::mem::take(&mut series[s])));
    }
    for (s, scheme) in schemes.iter().enumerate() {
        table.rows.push((
            format!("{} abort rate", scheme.label()),
            std::mem::take(&mut aborts[s]),
        ));
    }
    table
}

/// Run every experiment and return the rendered tables in paper order, with
/// the read- and write-path microbenchmarks appended.
pub fn run_all(cfg: &ExpConfig) -> Vec<SeriesTable> {
    let mut out = vec![fig4(cfg), fig5(cfg), table3(cfg), fig6(cfg), fig7(cfg)];
    let (f8, f9) = fig8_and_fig9(cfg);
    out.push(f8);
    out.push(f9);
    out.push(table4(cfg));
    out.push(smallbank_perf(cfg));
    out.push(tpcc_perf(cfg));
    out.push(ablation_validation_cost(cfg));
    out.push(ablation_gc(cfg));
    out.push(readpath_perf(cfg));
    out.push(rangescan_perf(cfg));
    out.push(writepath_perf(cfg));
    out.push(commitpath_perf(cfg));
    out.push(recovery_perf(cfg));
    out.push(adaptive_perf(cfg));
    out
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
            duration: Duration::from_millis(80),
            subscribers: 300,
            lock_timeout: Duration::from_millis(50),
        }
    }

    #[test]
    fn fig4_produces_throughput_and_abort_series() {
        let table = fig4(&tiny());
        // Four throughput series plus four abort-rate companions.
        assert_eq!(table.rows.len(), 8);
        assert_eq!(table.xs.len(), 2);
        for (label, series) in &table.rows {
            if label.ends_with("abort rate") {
                assert!(
                    series.iter().all(|&v| (0.0..=1.0).contains(&v)),
                    "abort rates are fractions: {table:?}"
                );
            } else {
                assert!(
                    series.iter().all(|&v| v > 0.0),
                    "every scheme commits something: {table:?}"
                );
            }
        }
        let md = table.to_markdown();
        assert!(md.contains("| 1V |") && md.contains("| MV/O |") && md.contains("| MV/L |"));
        assert!(md.contains("| MV/A |"));
        assert!(md.contains("| MV/O abort rate |"));
    }

    #[test]
    fn table3_reports_drops_and_abort_rates() {
        let t = table3(&tiny());
        assert_eq!(t.xs.len(), 8);
        for (_, series) in &t.rows {
            assert_eq!(series.len(), 8);
        }
        assert!(t.value("MV/O", 0).unwrap() > 0.0);
        // Abort-rate columns are fractions.
        for scheme in ["1V", "MV/O", "MV/L", "MV/A"] {
            for col in [1, 4, 7] {
                let v = t.value(scheme, col).unwrap();
                assert!((0.0..=1.0).contains(&v), "{scheme} col {col}: {v}");
            }
        }
    }

    #[test]
    fn long_reader_experiment_reports_both_series() {
        let (f8, f9) = fig8_and_fig9(&tiny());
        assert_eq!(f8.rows.len(), 4);
        assert_eq!(f9.rows.len(), 4);
        // With zero long readers there is no long-read throughput.
        for (_, series) in &f9.rows {
            assert_eq!(series[0], 0.0);
        }
    }

    #[test]
    fn readpath_perf_reports_every_series() {
        let t = readpath_perf(&tiny());
        assert_eq!(t.xs, vec!["ns/op".to_string()]);
        assert_eq!(t.rows.len(), 6);
        for (label, series) in &t.rows {
            assert_eq!(series.len(), 1);
            assert!(
                series[0].is_finite() && series[0] > 0.0,
                "{label}: ns/op must be positive: {t:?}"
            );
        }
    }

    #[test]
    fn rangescan_perf_reports_every_series() {
        let t = rangescan_perf(&tiny());
        assert_eq!(t.xs, vec!["ns/op".to_string()]);
        assert_eq!(t.rows.len(), 6);
        for (label, series) in &t.rows {
            assert_eq!(series.len(), 1);
            assert!(
                series[0].is_finite() && series[0] > 0.0,
                "{label}: ns/op must be positive: {t:?}"
            );
        }
        // Sanity, not a perf assertion: a 64-key scan does more work than an
        // 8-key scan, but never hundreds of times more (it would mean the
        // skip-list cursor restarted from the head per visited key).
        let short = t
            .value("MV/O range x8 (visitor `scan_range_with`, RC)", 0)
            .unwrap();
        let long = t
            .value("MV/O range x64 (visitor `scan_range_with`, RC)", 0)
            .unwrap();
        assert!(long < short * 100.0, "x64 {long} vs x8 {short}");
    }

    #[test]
    fn writepath_perf_reports_every_series() {
        let t = writepath_perf(&tiny());
        assert_eq!(t.xs, vec!["ns/txn".to_string()]);
        assert_eq!(t.rows.len(), 6);
        for (label, series) in &t.rows {
            assert_eq!(series.len(), 1);
            assert!(
                series[0].is_finite() && series[0] > 0.0,
                "{label}: ns/txn must be positive: {t:?}"
            );
        }
        // The lock-free borrow can never be slower than clone-the-Arc by an
        // order of magnitude (sanity, not a perf assertion).
        let arc = t
            .value("Catalog table lookup (`table`, Arc clone)", 0)
            .unwrap();
        let borrow = t
            .value("Catalog table lookup (`table_in`, guard borrow)", 0)
            .unwrap();
        assert!(borrow < arc * 10.0, "table_in {borrow} vs table {arc}");
    }

    #[test]
    fn commitpath_perf_reports_every_series() {
        let t = commitpath_perf(&tiny());
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.xs.len(), 2);
        for (label, series) in &t.rows {
            assert_eq!(series.len(), 2);
            for v in series {
                assert!(
                    v.is_finite() && *v > 0.0,
                    "{label}: txns/s must be positive: {t:?}"
                );
            }
        }
        // Sanity, not a perf assertion: an Async commit never syncs, so it
        // cannot be slower than the per-transaction-flush Sync baseline by
        // an order of magnitude.
        let sync_per_txn = t.value("Sync, group commit (tickless leader)", 0).unwrap();
        let async_gc = t.value("Async, group commit (200us tick)", 0).unwrap();
        assert!(
            async_gc * 10.0 > sync_per_txn,
            "async {async_gc} vs per-txn-flush sync {sync_per_txn}"
        );
    }

    #[test]
    fn recovery_perf_reports_every_series() {
        let t = recovery_perf(&tiny());
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.xs.len(), 4);
        for (label, series) in &t.rows {
            assert_eq!(series.len(), 4);
            for v in series {
                assert!(
                    v.is_finite() && *v >= 0.0,
                    "{label}: every metric must be finite and non-negative: {t:?}"
                );
            }
        }
        // Deterministic, not timing-dependent: the checkpointed store reads
        // strictly fewer bytes and replays strictly fewer records than the
        // full-replay baseline (same history, log >= 10x the interval).
        let full_mib = t.value("Full log replay (no checkpoint)", 1).unwrap();
        let ckpt_mib = t.value("Checkpoint + tail replay", 1).unwrap();
        assert!(
            ckpt_mib < full_mib,
            "ckpt {ckpt_mib} MiB vs full {full_mib} MiB"
        );
        let full_rec = t.value("Full log replay (no checkpoint)", 2).unwrap();
        let ckpt_rec = t.value("Checkpoint + tail replay", 2).unwrap();
        assert!(
            ckpt_rec < full_rec,
            "ckpt {ckpt_rec} records vs full {full_rec}"
        );
        // The headline delta claim (the >= 5x floor is asserted inside the
        // experiment itself); here just pin that the savings row is a real
        // ratio above 1.
        let savings = t.value("Delta savings (full / delta)", 3).unwrap();
        assert!(
            savings >= 5.0,
            "delta chain must write >= 5x fewer checkpoint bytes: {savings}"
        );
    }

    #[test]
    fn adaptive_perf_reports_all_three_mv_series() {
        let t = adaptive_perf(&tiny());
        // MV/O, MV/L, MV/A throughput plus their abort-rate companions.
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.xs.len(), 5);
        for (label, series) in &t.rows {
            assert_eq!(series.len(), 5);
            if label.ends_with("abort rate") {
                assert!(
                    series.iter().all(|&v| (0.0..=1.0).contains(&v)),
                    "abort rates are fractions: {t:?}"
                );
            } else {
                assert!(
                    series.iter().all(|&v| v > 0.0),
                    "every scheme commits something at every point: {t:?}"
                );
            }
        }
        assert!(t.value("MV/A", 0).is_some());
        assert!(t.value("MV/A abort rate", 4).is_some());
    }

    #[test]
    fn smallbank_perf_reports_all_schemes_and_both_variants() {
        let t = smallbank_perf(&tiny());
        assert_eq!(t.rows.len(), 4);
        assert_eq!(
            t.xs,
            vec![
                "uniform tx/s".to_string(),
                "uniform abort rate".to_string(),
                "hotspot tx/s".to_string(),
                "hotspot abort rate".to_string(),
            ]
        );
        for scheme in ["1V", "MV/L", "MV/O", "MV/A"] {
            for (col, is_rate) in [(0, false), (1, true), (2, false), (3, true)] {
                let v = t.value(scheme, col).unwrap();
                if is_rate {
                    assert!((0.0..=1.0).contains(&v), "{scheme} col {col}: {v}");
                } else {
                    assert!(v > 0.0, "{scheme} must commit SmallBank txns: {t:?}");
                }
            }
        }
    }

    #[test]
    fn tpcc_perf_reports_all_schemes() {
        let t = tpcc_perf(&tiny());
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.xs.len(), 3);
        for scheme in ["1V", "MV/L", "MV/O", "MV/A"] {
            let total = t.value(scheme, 0).unwrap();
            let new_order = t.value(scheme, 1).unwrap();
            let abort_rate = t.value(scheme, 2).unwrap();
            assert!(total > 0.0, "{scheme} must commit TPC-C-lite txns: {t:?}");
            assert!(
                new_order > 0.0 && new_order <= total,
                "{scheme}: new-order rate {new_order} must be a positive part of {total}"
            );
            assert!((0.0..=1.0).contains(&abort_rate), "{scheme}: {abort_rate}");
        }
    }

    #[test]
    fn table4_runs_tatp_on_all_schemes() {
        let t = table4(&tiny());
        assert_eq!(t.rows.len(), 4);
        for (_, series) in &t.rows {
            assert!(series[0] > 0.0, "TATP throughput must be positive: {t:?}");
            assert!(series[1] < 0.5, "TATP abort rate should be small: {t:?}");
        }
    }
}

//! `repro` — regenerate the paper's evaluation tables and figures.
//!
//! ```text
//! cargo run -p mmdb-bench --release --bin repro -- [options] <experiment>...
//!
//! experiments: fig4 fig5 table3 fig6 fig7 fig8 fig9 table4 ablation
//!              all       (the ten tables above; fig8 and fig9 are one
//!                         experiment and each prints both tables)
//!              recover   (crash/replay durability smoke — not part of `all`)
//!
//! options:
//!   --quick              CI-sized run (tiny tables, short intervals)
//!   --rows N             low-contention table size        [default 1000000]
//!   --hot-rows N         hotspot table size               [default 1000]
//!   --mpl N              multiprogramming level           [default 24]
//!   --threads a,b,c      thread counts for fig4/fig5      [default 1,2,4,6,8,12,16,20,24]
//!   --duration-ms MS     measurement interval per point   [default 1000]
//!   --subscribers N      TATP subscribers                 [default 200000]
//! ```
//!
//! Every cell is the median of three passes over the experiment's whole
//! sweep. Numbers that gate changes come from `benchmark/` (see its README).

use std::time::Duration;

use mmdb_bench::experiments::{self, ExpConfig};

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--rows N] [--hot-rows N] [--mpl N] [--threads a,b,c] \
         [--duration-ms MS] [--subscribers N] \
         <fig4|fig5|table3|fig6|fig7|fig8|fig9|table4|ablation|recover|all>..."
    );
    std::process::exit(2);
}

fn parse_args() -> (ExpConfig, Vec<String>) {
    let mut cfg = ExpConfig::standard();
    let mut experiments = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg = ExpConfig::quick(),
            "--rows" => {
                cfg.rows = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--hot-rows" => {
                cfg.hot_rows = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--mpl" => {
                cfg.mpl = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--threads" => {
                let list = args.next().unwrap_or_else(|| usage());
                cfg.threads = list
                    .split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .collect();
                if cfg.threads.is_empty() {
                    usage();
                }
            }
            "--duration-ms" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                cfg.duration = Duration::from_millis(ms);
            }
            "--subscribers" => {
                cfg.subscribers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            name if !name.starts_with('-') => experiments.push(name.to_string()),
            _ => usage(),
        }
    }
    if experiments.is_empty() {
        usage();
    }
    (cfg, experiments)
}

fn main() {
    let (cfg, requested) = parse_args();
    println!("# mmdb experiment reproduction");
    println!();
    println!(
        "configuration: rows={} hot_rows={} mpl={} duration={:?} subscribers={} threads={:?} \
         passes={}",
        cfg.rows,
        cfg.hot_rows,
        cfg.mpl,
        cfg.duration,
        cfg.subscribers,
        cfg.threads,
        experiments::PASSES
    );
    println!();

    for name in requested {
        let tables = match name.as_str() {
            "fig4" => vec![experiments::fig4(&cfg)],
            "fig5" => vec![experiments::fig5(&cfg)],
            "table3" => vec![experiments::table3(&cfg)],
            "fig6" => vec![experiments::fig6(&cfg)],
            "fig7" => vec![experiments::fig7(&cfg)],
            "fig8" | "fig9" => experiments::long_readers(&cfg).into(),
            "table4" => vec![experiments::table4(&cfg)],
            "ablation" => vec![
                experiments::ablation_validation_cost(&cfg),
                experiments::ablation_gc(&cfg),
            ],
            "all" => experiments::run_all(&cfg),
            "recover" => {
                recover_smoke(&cfg);
                Vec::new()
            }
            other => {
                eprintln!("unknown experiment: {other}");
                usage();
            }
        };
        for table in tables {
            print!("{}", table.to_markdown());
        }
    }
}

/// `recover` — crash/replay durability smoke: run an update-heavy logged
/// workload on MV/O and 1V, "crash" the redo log at several byte offsets
/// (clean end, mid-log, mid-record), recover each prefix into a fresh
/// engine and verify the rebuilt state against a model replay of the
/// surviving records. Panics on divergence; prints one grep-able
/// `MMDB-RECOVER` line per check.
fn recover_smoke(cfg: &ExpConfig) {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use mmdb_common::engine::EngineTxn;
    use mmdb_common::ids::{IndexId, TableId};
    use mmdb_common::isolation::IsolationLevel;
    use mmdb_common::row::{rowbuf, IndexSpec, KeySpec, TableSpec};
    use mmdb_storage::durable::Durable;
    use mmdb_storage::group_commit::GroupCommitLog;
    use mmdb_storage::log::{read_log_bytes, LogOp, NullLogger, RedoLogger};

    const PRIMARY: IndexId = IndexId(0);
    const FILLER: usize = 16;

    fn spec(rows: u64) -> TableSpec {
        TableSpec::keyed_u64("recover", rows as usize * 2).with_index(IndexSpec {
            name: "by_fill".into(),
            key: KeySpec::BytesAt { offset: 8, len: 1 },
            buckets: 64,
            unique: false,
            ordered: false,
        })
    }

    fn smoke<E: Durable>(label: &str, rows: u64, make: &dyn Fn(Arc<dyn RedoLogger>) -> E) {
        let path = std::env::temp_dir().join(format!(
            "mmdb-repro-recover-{}-{}.log",
            std::process::id(),
            label.replace('/', "_")
        ));
        let logger = Arc::new(GroupCommitLog::create(&path).expect("create log file"));
        let engine = make(logger.clone());
        let table = engine.create_table(spec(rows)).expect("create table");

        // Populate through a logged transaction, then an update/delete/insert
        // mix, one transaction each, so the log carries a realistic history.
        let mut setup = engine.begin(IsolationLevel::ReadCommitted);
        for k in 0..rows {
            setup
                .insert(table, rowbuf::keyed_row(k, FILLER, 1))
                .expect("populate");
        }
        setup.commit().expect("populate commit");
        let mut x = 0x5EEDu64;
        for _ in 0..rows * 4 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33) % rows;
            let fill = (x % 7 + 1) as u8;
            let mut txn = engine.begin(IsolationLevel::Serializable);
            match x % 8 {
                0 => {
                    let _ = txn.delete(table, PRIMARY, k);
                }
                1 => {
                    if txn.read(table, PRIMARY, k).expect("read").is_none() {
                        txn.insert(table, rowbuf::keyed_row(k, FILLER, fill))
                            .expect("insert");
                    }
                }
                _ => {
                    let _ = txn.update(table, PRIMARY, k, rowbuf::keyed_row(k, FILLER, fill));
                }
            }
            txn.commit().expect("workload commit");
        }
        logger.flush().expect("flush log");
        let bytes = std::fs::read(&path).expect("read log");
        let _ = std::fs::remove_file(&path);

        // Crash offsets: clean end, mid-log, one byte short (mid-record).
        for offset in [bytes.len(), bytes.len() / 2, bytes.len().saturating_sub(1)] {
            let prefix = &bytes[..offset];
            let outcome = read_log_bytes(prefix).expect("truncation is torn, not corrupt");
            // Model replay of the surviving records, end-timestamp order.
            let mut sorted: Vec<_> = outcome.records.iter().collect();
            sorted.sort_by_key(|r| r.end_ts);
            let mut model: BTreeMap<u64, u8> = BTreeMap::new();
            for record in sorted {
                for op in &record.ops {
                    match op {
                        LogOp::Write { row, .. } => {
                            model.insert(rowbuf::key_of(row), rowbuf::fill_of(row));
                        }
                        LogOp::Delete { key, .. } => {
                            model.remove(key);
                        }
                    }
                }
            }

            let fresh: E = make(Arc::new(NullLogger::new()));
            let fresh_table: TableId = fresh.create_table(spec(rows)).expect("create table");
            let report = fresh.recover_bytes(prefix).expect("recovery succeeds");

            let mut txn = fresh.begin(IsolationLevel::ReadCommitted);
            let mut recovered: BTreeMap<u64, u8> = BTreeMap::new();
            for k in 0..rows {
                if let Some(row) = txn.read(fresh_table, PRIMARY, k).expect("read") {
                    recovered.insert(k, rowbuf::fill_of(&row));
                }
            }
            txn.commit().expect("verify commit");
            assert_eq!(
                recovered, model,
                "MMDB-RECOVER engine={label} offset={offset}: recovered state diverges \
                 from the surviving log records"
            );
            println!(
                "MMDB-RECOVER engine={label} offset={offset} records={} torn_bytes={} \
                 rows={} status=ok",
                report.records_applied,
                report.torn_bytes,
                recovered.len()
            );
        }
    }

    let rows = cfg.hot_rows.clamp(64, 500);
    println!("## recover — crash/replay durability smoke ({rows} rows)");
    println!();
    smoke("MV/O", rows, &|logger| {
        mmdb_core::MvEngine::with_logger(mmdb_core::MvConfig::optimistic(), logger)
    });
    smoke("1V", rows, &|logger| {
        mmdb_onev::SvEngine::with_logger(mmdb_onev::SvConfig::default(), logger)
    });
    println!();
}

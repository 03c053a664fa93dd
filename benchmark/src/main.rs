//! Command line of `mmdb-benchmark`. See `usage` below.

use std::path::PathBuf;
use std::process::ExitCode;

use mmdb_benchmark::child::{self, ChildSpec};
use mmdb_benchmark::compare::compare;
use mmdb_benchmark::json::Json;
use mmdb_benchmark::metrics::{manifest, RUN_SECONDS};
use mmdb_benchmark::run::{self, RunConfig};
use mmdb_benchmark::suite::{run_suite, SuiteConfig};
use mmdb_benchmark::workloads::WorkloadKind;

const USAGE: &str = "\
usage:
  mmdb-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
      One run of one workload (tatp, smallbank-durable, tpcc-hot, longread).
      Prints every metric by name and unit, then one JSON object as the last
      line. --trace 0 measures the end-to-end metrics, --trace 1 the per-layer
      ones. Exits non-zero if an oracle failed or a cell crashed.
  mmdb-benchmark suite [--seed N] [--seconds S] [--quick] [--out FILE]
      Every workload, untraced and traced, into one result file (default
      benchmark/out/result-<seed>.json) with the environment recorded.
  mmdb-benchmark compare <a.json> <b.json>
      Per (metric, workload) cell: both medians, change, bound, verdict.
      Exits non-zero on a regressed end-to-end cell or abort share.
  mmdb-benchmark manifest
      Print BENCHMARK.json as the code declares it.
Defaults: --seed 42, --seconds 18, 2 closed-loop client threads.";

/// Everything the benchmark writes goes under `benchmark/out` of the
/// directory it is started from (the root of a checkout).
fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

struct Options {
    workload: Option<WorkloadKind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload =
                    Some(WorkloadKind::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(o.seconds > 0.0 && o.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if o.quick && !seconds_given {
        o.seconds = 1.2;
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fail = |what: String| {
        eprintln!("{what}\n{USAGE}");
        ExitCode::from(2)
    };
    match args.first().map(String::as_str) {
        Some("child") => match ChildSpec::from_args(&args[1..]).and_then(|s| child::run(&s)) {
            Ok(out) => {
                println!("{out}");
                ExitCode::SUCCESS
            }
            Err(what) => {
                eprintln!("child failed: {what}");
                ExitCode::FAILURE
            }
        },
        Some("manifest") => {
            print!("{}", manifest().pretty());
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return fail("compare takes two result files".into());
            };
            let load = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("{path}: {e}"))
                    .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
            };
            match (load(a), load(b)) {
                (Ok(a), Ok(b)) => {
                    let (report, regressed) = compare(&a, &b);
                    print!("{report}");
                    if regressed {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                (Err(e), _) | (_, Err(e)) => fail(e),
            }
        }
        Some("suite") => {
            let o = match parse_options(&args[1..]) {
                Ok(o) if o.workload.is_none() => o,
                Ok(_) => return fail("suite runs every workload; drop --workload".into()),
                Err(e) => return fail(e),
            };
            let config = SuiteConfig {
                seed: o.seed,
                seconds: o.seconds,
                quick: o.quick,
                out_dir: out_dir(),
                out: o.out,
            };
            let (doc, correct) = run_suite(&config);
            let path = config
                .out
                .clone()
                .unwrap_or_else(|| config.out_dir.join(format!("result-{}.json", config.seed)));
            if let Err(e) = std::fs::write(&path, doc.pretty()) {
                eprintln!("could not write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(_) => {
            let o = match parse_options(&args) {
                Ok(o) => o,
                Err(e) => return fail(e),
            };
            let Some(workload) = o.workload else {
                return fail("--workload is required".into());
            };
            let result = run::run(&RunConfig {
                workload,
                seed: o.seed,
                seconds: o.seconds,
                trace: o.trace,
                quick: o.quick,
                out_dir: out_dir(),
            });
            run::print_metrics(workload, &result);
            println!("{}", run::contract_line(&result));
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

//! Tests of the benchmark itself: the manifest matches the code, a quick
//! suite reports every declared metric for every workload, tracing does not
//! change what a run does, and a seed fixes the inputs.

use std::path::{Path, PathBuf};
use std::process::Command;

use mmdb_benchmark::child::{ChildSpec, EngineKind};
use mmdb_benchmark::client::{attempt_one, client_rng};
use mmdb_benchmark::json::Json;
use mmdb_benchmark::metrics::{manifest, END_TO_END, PER_LAYER};
use mmdb_benchmark::trace::{self, Traced};
use mmdb_benchmark::workloads::{Attempt, Populated, WorkloadKind};
use mmdb_core::{MvConfig, MvEngine};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

fn committed_manifest() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn manifest_matches_the_code_and_the_contract() {
    let committed = committed_manifest();
    assert_eq!(
        committed,
        manifest(),
        "BENCHMARK.json is stale: regenerate it with `mmdb-benchmark manifest`"
    );

    let ok_name = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let ok_unit = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::HashSet::new();
    for w in committed.get("workloads").unwrap().items() {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        assert!(ok_name(name) && seen.insert(name.to_string()), "{name}");
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is {}",
            why.len()
        );
    }
    assert_eq!(END_TO_END.len(), 14);
    assert!(PER_LAYER.len() <= 128);
    for (name, unit) in END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
    {
        assert!(ok_name(name) && seen.insert(name.to_string()), "{name}");
        assert!(ok_unit(unit), "{name}: unit {unit}");
    }
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better.name()), ("s", "lower"));
    assert!(committed.to_string().len() <= 64 * 1024);
}

#[test]
fn child_arguments_round_trip() {
    let spec = ChildSpec {
        workload: WorkloadKind::TpccHot,
        engine: EngineKind::Mva,
        seed: 7,
        warmup_ms: 120,
        window_ms: 900,
        quick: true,
        traced: true,
        durable: true,
        probes: true,
        layers: false,
        out_dir: PathBuf::from("some/out"),
    };
    let args = spec.to_args();
    assert_eq!(args[0], "child");
    assert_eq!(ChildSpec::from_args(&args[1..]).unwrap(), spec);
    assert!(ChildSpec::from_args(&["--engine".into(), "2v".into()]).is_err());
}

/// Run `n` attempts of client `worker` on `engine`, as the client loop would.
fn drive<E: mmdb_common::engine::Engine>(
    engine: &E,
    workload: &Populated,
    seed: u64,
    worker: usize,
    n: usize,
) -> (Vec<Attempt>, i64) {
    let mut rng = client_rng(seed, worker);
    let mut ledger = 0i64;
    let attempts = (0..n)
        .map(|_| attempt_one(engine, workload, &mut rng, worker, &mut ledger))
        .collect();
    (attempts, ledger)
}

#[test]
fn tracing_leaves_the_same_table_contents() {
    for kind in WorkloadKind::ALL {
        // Client 1 is the one that writes on `longread`.
        let worker = 1;
        let bare = MvEngine::new(MvConfig::optimistic());
        let on_bare = Populated::setup(kind, true, &bare).unwrap();
        let (bare_attempts, bare_ledger) = drive(&bare, &on_bare, 11, worker, 1_500);

        let inner = MvEngine::new(MvConfig::optimistic());
        let on_traced = Populated::setup(kind, true, &inner).unwrap();
        let traced = Traced(inner.clone());
        trace::reset();
        let (traced_attempts, traced_ledger) = drive(&traced, &on_traced, 11, worker, 1_500);
        let spans = trace::take();

        assert_eq!(bare_attempts, traced_attempts, "{}", kind.name());
        assert_eq!(bare_ledger, traced_ledger);
        assert_eq!(
            on_bare.snapshot_rows(&bare).unwrap(),
            on_traced.snapshot_rows(&inner).unwrap(),
            "{}: table contents differ under tracing",
            kind.name()
        );
        assert!(on_traced.check(&inner, traced_ledger).is_empty());
        // Every transaction began and ended inside the wrapper.
        assert!(spans.ops[trace::Op::Begin as usize].count() >= 1_500);
        assert!(spans.ops[trace::Op::Commit as usize].count() >= 1_400);
    }
}

#[test]
fn a_seed_fixes_the_first_thousand_transactions() {
    for kind in WorkloadKind::ALL {
        // What the transactions did and what they left behind: the keys and
        // values drawn show in the table contents.
        let run = |seed: u64| {
            let engine = MvEngine::new(MvConfig::optimistic());
            let workload = Populated::setup(kind, true, &engine).unwrap();
            let attempts = drive(&engine, &workload, seed, 1, 1_000).0;
            (attempts, workload.snapshot_rows(&engine).unwrap())
        };
        let first = run(42);
        assert!(
            first == run(42),
            "{}: same seed, different inputs",
            kind.name()
        );
        assert!(first != run(43), "{}: the seed is ignored", kind.name());
        assert!(first.0.iter().all(|a| a.missed == 0));
    }
}

#[test]
fn quick_suite_reports_every_declared_metric_for_every_workload() {
    let out =
        std::env::temp_dir().join(format!("mmdb-benchmark-quick-{}.json", std::process::id()));
    let started = std::time::Instant::now();
    // Started from the repo root, like the builder's driver does, so stores
    // and traces land in `benchmark/out`.
    let status = Command::new(env!("CARGO_BIN_EXE_mmdb-benchmark"))
        .args(["suite", "--quick", "--seed", "5", "--out"])
        .arg(&out)
        .current_dir(repo_root())
        .status()
        .expect("run the suite");
    eprintln!("quick suite took {:?}", started.elapsed());
    assert!(status.success(), "quick suite failed: {status}");

    let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let _ = std::fs::remove_file(&out);
    assert_eq!(doc.get("claim"), Some(&Json::Null));
    let env = doc.get("environment").unwrap();
    for key in ["git_commit", "rustc", "nproc", "out_dir_filesystem"] {
        assert!(env.get(key).is_some(), "environment lacks {key}");
    }
    let committed = committed_manifest();
    let declared = [
        ("end_to_end", names(committed.get("end_to_end").unwrap())),
        ("per_layer", names(committed.get("per_layer").unwrap())),
    ];
    for workload in names(committed.get("workloads").unwrap()) {
        let w = doc
            .get("workloads")
            .and_then(|ws| ws.get(&workload))
            .unwrap_or_else(|| panic!("no results for {workload}"));
        for (section, metric_names) in &declared {
            for name in metric_names {
                let cell = w
                    .get(section)
                    .and_then(|s| s.get(name))
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert!(cell.get("value").and_then(Json::as_f64).is_some());
                assert!(cell.num("n") >= 1.0 && cell.get("unit").is_some());
            }
        }
        assert_eq!(w.num("failed"), 0.0, "{workload}: {:?}", w.get("failures"));
    }
}

//! Workload-level differential tests: SmallBank and TPC-C-lite as
//! first-class harness clients.
//!
//! The generic differential suite (`tests/differential.rs`) replays synthetic
//! histories; this suite replays the two canonical *application* workloads
//! against all four engines — MV/O, MV/L, MV/A and 1V — at all four isolation
//! levels, sequentially and with racing worker threads, and checks the
//! application-level invariant oracles from `tests/support/invariants.rs`:
//!
//! * **SmallBank**: the final per-account state must equal the
//!   commit-timestamp-order replay of every committed transaction's
//!   after-images (all levels), and the bank's total holdings must be exactly
//!   conserved wherever lost updates are impossible (single-threaded runs, or
//!   repeatable read and up under concurrency).
//! * **TPC-C-lite**: district counters advance exactly once per committed
//!   new-order with a dense order stream, every order's line count matches the
//!   ordered-index range scan of its lines (all levels), and payment YTD
//!   totals are conserved (repeatable read and up).
//!
//! 30 seeded rounds each; failures print a grep-able `MMDB-REPRO:` line with
//! the workload name, engine, isolation level and seed.

mod support;

use std::sync::Mutex;

use mmdb::prelude::*;
use mmdb_workload::smallbank::{SbExec, SmallBank};
use mmdb_workload::tpcc_lite::TpccLite;
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::invariants::{check_smallbank, check_tpcc, TpccTally};
use support::with_repro_artifacts;

/// Repeat count of every sweep (the "30/30" differential convention).
const ROUNDS: u64 = 30;
const WORKERS: usize = 3;
const SEQ_TXNS: usize = 60;
const CONC_TXNS_PER_WORKER: usize = 12;

fn smallbank(iso: IsolationLevel) -> SmallBank {
    SmallBank {
        accounts: 24,
        initial_balance: 1_000,
        hot_accounts: 8,
        hot_fraction: 0.6,
        isolation: iso,
    }
}

fn tpcc(iso: IsolationLevel) -> TpccLite {
    TpccLite {
        warehouses: 2,
        districts_per_wh: 2,
        customers_per_district: 8,
        initial_orders: 2,
        isolation: iso,
    }
}

/// A transaction that did not commit must have been aborted by concurrency
/// control (or, on TPC-C-lite at the weaker levels, have drawn an order id a
/// racing NEW_ORDER already inserted). Anything else — in particular the
/// drivers' "live row not found" — is an engine fault: fail the case here,
/// inside the repro wrapper, instead of counting it as one more abort.
fn expect_abort(label: &str, err: &MmdbError) {
    assert!(
        err.is_retryable() || matches!(err, MmdbError::DuplicateKey { .. }),
        "[{label}] a transaction failed with a non-abort error: {err}"
    );
}

/// Run one engine's SmallBank case and check the invariant oracle. Returns
/// `(committed, attempted, final balances)` for cross-engine comparison.
fn smallbank_case<E: Engine>(
    engine: &E,
    iso: IsolationLevel,
    seed: u64,
    concurrent: bool,
) -> (Vec<SbExec>, u64, Vec<(i64, i64)>) {
    let sb = smallbank(iso);
    let tables = sb.setup(engine).expect("setup must succeed");
    let label = format!("{} iso={iso:?} seed={seed:#x}", engine.label());
    let committed = Mutex::new(Vec::new());
    let attempted = if concurrent {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for worker in 0..WORKERS {
                let sb = &sb;
                let label = &label;
                let committed = &committed;
                handles.push(scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    for _ in 0..CONC_TXNS_PER_WORKER {
                        let params = sb.draw(&mut rng);
                        match sb.exec(engine, tables, &params) {
                            Ok(exec) => committed.lock().unwrap().push(exec),
                            Err(err) => expect_abort(label, &err),
                        }
                    }
                    CONC_TXNS_PER_WORKER as u64
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..SEQ_TXNS {
            let params = sb.draw(&mut rng);
            match sb.exec(engine, tables, &params) {
                Ok(exec) => committed.lock().unwrap().push(exec),
                Err(err) => expect_abort(&label, &err),
            }
        }
        SEQ_TXNS as u64
    };
    let committed = committed.into_inner().unwrap();
    check_smallbank(&label, engine, &sb, tables, iso, !concurrent, &committed);
    // Degenerate runs (everything aborted) would vacuously pass the oracle.
    assert!(
        committed.len() as u64 * 4 >= attempted,
        "[{label}] degenerate run: only {} of {attempted} committed",
        committed.len()
    );
    let balances = mmdb_workload::smallbank::all_balances(engine, tables, sb.accounts).unwrap();
    (committed, attempted, balances)
}

/// Run one engine's TPC-C-lite case and check the invariant oracle.
/// Returns the committed-transaction count.
fn tpcc_case<E: Engine>(engine: &E, iso: IsolationLevel, seed: u64, concurrent: bool) -> u64 {
    let t = tpcc(iso);
    let tables = t.setup(engine).expect("setup must succeed");
    let label = format!("{} iso={iso:?} seed={seed:#x}", engine.label());
    let tally = Mutex::new(TpccTally::default());
    let committed = Mutex::new(0u64);
    let attempted = if concurrent {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for worker in 0..WORKERS {
                let t = &t;
                let label = &label;
                let tally = &tally;
                let committed = &committed;
                handles.push(scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    for _ in 0..CONC_TXNS_PER_WORKER {
                        let params = t.draw(&mut rng);
                        match t.exec(engine, tables, &params) {
                            Ok(exec) => {
                                tally.lock().unwrap().record(label, &exec.detail);
                                *committed.lock().unwrap() += 1;
                            }
                            Err(err) => expect_abort(label, &err),
                        }
                    }
                    CONC_TXNS_PER_WORKER as u64
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..SEQ_TXNS {
            let params = t.draw(&mut rng);
            match t.exec(engine, tables, &params) {
                Ok(exec) => {
                    tally.lock().unwrap().record(&label, &exec.detail);
                    *committed.lock().unwrap() += 1;
                }
                Err(err) => expect_abort(&label, &err),
            }
        }
        SEQ_TXNS as u64
    };
    let tally = tally.into_inner().unwrap();
    let committed = committed.into_inner().unwrap();
    check_tpcc(&label, engine, &t, tables, iso, !concurrent, &tally);
    assert!(
        committed * 4 >= attempted,
        "[{label}] degenerate run: only {committed} of {attempted} committed"
    );
    committed
}

/// Run `case` for all four engines under a repro wrapper naming the workload.
macro_rules! all_engines {
    ($workload:literal, $iso:expr, $seed:expr, |$engine:ident| $case:expr) => {{
        let iso = $iso;
        let seed: u64 = $seed;
        let runs: [(&str, Box<dyn Fn() -> _>); 4] = [
            (
                "MV/O",
                Box::new(|| {
                    let $engine = MvEngine::optimistic(MvConfig::default());
                    $case
                }),
            ),
            (
                "MV/L",
                Box::new(|| {
                    let $engine = MvEngine::pessimistic(MvConfig::default());
                    $case
                }),
            ),
            (
                "MV/A",
                Box::new(|| {
                    let $engine = MvEngine::adaptive(MvConfig::default());
                    $case
                }),
            ),
            (
                "1V",
                Box::new(|| {
                    let $engine = SvEngine::new(SvConfig::default());
                    $case
                }),
            ),
        ];
        let mut results = Vec::new();
        for (name, run) in runs {
            results.push((
                name,
                with_repro_artifacts(
                    &format!(
                        "suite=workload-differential workload={} engine={name} \
                         iso={iso:?} seed={seed:#x}",
                        $workload
                    ),
                    &[],
                    run,
                ),
            ));
        }
        results
    }};
}

#[test]
fn smallbank_sequential_agrees_across_engines() {
    for round in 0..ROUNDS {
        let seed = 0x5BA2_0000 ^ round;
        for iso in IsolationLevel::ALL {
            let results = all_engines!("smallbank", iso, seed, |engine| {
                smallbank_case(&engine, iso, seed, false)
            });
            // With no concurrency every engine must commit the same
            // transactions with the same effects and end in the same state.
            let (_, (baseline_committed, _, baseline_balances)) = &results[0];
            for (name, (committed, _, balances)) in &results[1..] {
                assert_eq!(
                    committed.len(),
                    baseline_committed.len(),
                    "[smallbank iso={iso:?} seed={seed:#x}] {name} committed a \
                     different transaction count than {}",
                    results[0].0
                );
                assert_eq!(
                    balances, baseline_balances,
                    "[smallbank iso={iso:?} seed={seed:#x}] {name} final \
                     balances diverge from {}",
                    results[0].0
                );
            }
        }
    }
}

#[test]
fn smallbank_concurrent_conserves_on_all_engines() {
    for round in 0..ROUNDS {
        let seed = 0x5BA2_1000 ^ round;
        for iso in IsolationLevel::ALL {
            all_engines!("smallbank", iso, seed, |engine| {
                smallbank_case(&engine, iso, seed, true)
            });
        }
    }
}

#[test]
fn tpcc_sequential_holds_invariants_on_all_engines() {
    for round in 0..ROUNDS {
        let seed = 0x79CC_0000 ^ round;
        for iso in IsolationLevel::ALL {
            let results = all_engines!("tpcc-lite", iso, seed, |engine| {
                tpcc_case(&engine, iso, seed, false)
            });
            let (_, baseline) = results[0];
            for (name, committed) in &results[1..] {
                assert_eq!(
                    *committed, baseline,
                    "[tpcc-lite iso={iso:?} seed={seed:#x}] {name} committed a \
                     different transaction count than {}",
                    results[0].0
                );
            }
        }
    }
}

#[test]
fn tpcc_concurrent_holds_invariants_on_all_engines() {
    for round in 0..ROUNDS {
        let seed = 0x79CC_1000 ^ round;
        for iso in IsolationLevel::ALL {
            all_engines!("tpcc-lite", iso, seed, |engine| {
                tpcc_case(&engine, iso, seed, true)
            });
        }
    }
}

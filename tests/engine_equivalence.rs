//! Cross-engine properties, checked on seeded random scripts.
//!
//! * Applied sequentially (no concurrency), the three engines must produce
//!   identical results for any sequence of operations — multiversioning and
//!   locking are concurrency-control mechanisms, not semantics changes.
//! * A model-checked single-engine property: the visible state after a
//!   sequence of committed/aborted transactions equals a simple HashMap model
//!   that applies only the committed ones.
//! * Garbage collection must never change query results.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mmdb::prelude::*;
use mmdb_common::test_support::for_each_seed;

const FILLER: usize = 16;

/// One step of a generated workload.
#[derive(Debug, Clone)]
enum Op {
    Read(u64),
    Update(u64, u8),
    Insert(u64, u8),
    Delete(u64),
}

/// A generated transaction: operations plus whether to commit or abort.
#[derive(Debug, Clone)]
struct TxnScript {
    ops: Vec<Op>,
    commit: bool,
}

fn any_op(rng: &mut StdRng, key_space: u64) -> Op {
    match rng.gen_range(0..4) {
        0 => Op::Read(rng.gen_range(0..key_space)),
        1 => Op::Update(rng.gen_range(0..key_space), rng.gen::<u8>().max(1)),
        2 => Op::Insert(
            rng.gen_range(key_space..key_space * 2),
            rng.gen::<u8>().max(1),
        ),
        _ => Op::Delete(rng.gen_range(0..key_space * 2)),
    }
}

fn any_txn(rng: &mut StdRng, key_space: u64) -> TxnScript {
    TxnScript {
        ops: (0..rng.gen_range(1..8))
            .map(|_| any_op(rng, key_space))
            .collect(),
        commit: rng.gen(),
    }
}

/// Between one and `below - 1` generated transactions.
fn any_txns(rng: &mut StdRng, below: usize) -> Vec<TxnScript> {
    (0..rng.gen_range(1..below))
        .map(|_| any_txn(rng, KEY_SPACE))
        .collect()
}

/// Run `case` on 48 seeded generators.
fn for_each_case(case: impl Fn(&mut StdRng)) {
    for_each_seed(48, |seed| case(&mut StdRng::seed_from_u64(seed)));
}

/// Apply a script to an engine sequentially; returns the reads it performed.
fn apply<E: Engine>(engine: &E, table: TableId, scripts: &[TxnScript]) -> Vec<Option<u8>> {
    let mut reads = Vec::new();
    for script in scripts {
        let mut txn = engine.begin(IsolationLevel::Serializable);
        let mut failed = false;
        for op in &script.ops {
            let result: Result<()> = (|| {
                match *op {
                    Op::Read(k) => {
                        reads.push(txn.read(table, IndexId(0), k)?.map(|r| rowbuf::fill_of(&r)));
                    }
                    Op::Update(k, v) => {
                        txn.update(table, IndexId(0), k, rowbuf::keyed_row(k, FILLER, v))?;
                    }
                    Op::Insert(k, v) => {
                        // Duplicate inserts are expected when the same key is
                        // generated twice; skip them (checked via read).
                        if txn.read(table, IndexId(0), k)?.is_none() {
                            txn.insert(table, rowbuf::keyed_row(k, FILLER, v))?;
                        }
                    }
                    Op::Delete(k) => {
                        txn.delete(table, IndexId(0), k)?;
                    }
                }
                Ok(())
            })();
            if result.is_err() {
                failed = true;
                break;
            }
        }
        if failed {
            panic!("sequential execution must not fail: {script:?}");
        }
        if script.commit {
            txn.commit().expect("sequential commit cannot conflict");
        } else {
            txn.abort();
        }
    }
    reads
}

/// Dump the visible state of the table (keys 0..bound).
fn dump<E: Engine>(engine: &E, table: TableId, bound: u64) -> HashMap<u64, u8> {
    let mut txn = engine.begin(IsolationLevel::ReadCommitted);
    let mut out = HashMap::new();
    for k in 0..bound {
        if let Some(row) = txn.read(table, IndexId(0), k).unwrap() {
            out.insert(k, rowbuf::fill_of(&row));
        }
    }
    txn.commit().unwrap();
    out
}

/// Apply the committed scripts to a plain HashMap model.
fn model(scripts: &[TxnScript], initial_rows: u64) -> HashMap<u64, u8> {
    let mut state: HashMap<u64, u8> = (0..initial_rows).map(|k| (k, 1)).collect();
    for script in scripts.iter().filter(|s| s.commit) {
        let mut scratch = state.clone();
        for op in &script.ops {
            match *op {
                Op::Read(_) => {}
                Op::Update(k, v) => {
                    if scratch.contains_key(&k) {
                        scratch.insert(k, v);
                    }
                }
                Op::Insert(k, v) => {
                    scratch.entry(k).or_insert(v);
                }
                Op::Delete(k) => {
                    scratch.remove(&k);
                }
            }
        }
        state = scratch;
    }
    state
}

const KEY_SPACE: u64 = 16;
const INITIAL_ROWS: u64 = 16;

fn fresh_mv(mode: ConcurrencyMode) -> (MvEngine, TableId) {
    let engine = match mode {
        ConcurrencyMode::Optimistic => MvEngine::optimistic(MvConfig::default()),
        ConcurrencyMode::Pessimistic => MvEngine::pessimistic(MvConfig::default()),
    };
    let t = engine.create_table(TableSpec::keyed_u64("t", 128)).unwrap();
    engine
        .populate(
            t,
            (0..INITIAL_ROWS).map(|k| rowbuf::keyed_row(k, FILLER, 1)),
        )
        .unwrap();
    (engine, t)
}

fn fresh_sv() -> (SvEngine, TableId) {
    let engine = SvEngine::new(SvConfig::default());
    let t = engine.create_table(TableSpec::keyed_u64("t", 128)).unwrap();
    engine
        .populate(
            t,
            (0..INITIAL_ROWS).map(|k| rowbuf::keyed_row(k, FILLER, 1)),
        )
        .unwrap();
    (engine, t)
}

/// Sequential execution: all three engines agree with each other and with
/// the HashMap model, both on the reads performed and on the final state.
#[test]
fn engines_agree_sequentially() {
    for_each_case(|rng| {
        let scripts = any_txns(rng, 12);
        let (mvo, t_mvo) = fresh_mv(ConcurrencyMode::Optimistic);
        let (mvl, t_mvl) = fresh_mv(ConcurrencyMode::Pessimistic);
        let (sv, t_sv) = fresh_sv();

        let reads_mvo = apply(&mvo, t_mvo, &scripts);
        let reads_mvl = apply(&mvl, t_mvl, &scripts);
        let reads_sv = apply(&sv, t_sv, &scripts);
        assert_eq!(reads_mvo, reads_mvl);
        assert_eq!(reads_mvo, reads_sv);

        let expected = model(&scripts, INITIAL_ROWS);
        assert_eq!(dump(&mvo, t_mvo, KEY_SPACE * 2), expected);
        assert_eq!(dump(&mvl, t_mvl, KEY_SPACE * 2), expected);
        assert_eq!(dump(&sv, t_sv, KEY_SPACE * 2), expected);
    });
}

/// Garbage collection never changes what queries see.
#[test]
fn gc_preserves_visible_state() {
    for_each_case(|rng| {
        let scripts = any_txns(rng, 10);
        let (engine, table) = fresh_mv(ConcurrencyMode::Optimistic);
        apply(&engine, table, &scripts);
        let before = dump(&engine, table, KEY_SPACE * 2);
        // Run GC until it stops reclaiming.
        let mut total = 0;
        loop {
            let n = engine.collect_garbage();
            total += n;
            if n == 0 {
                break;
            }
        }
        let after = dump(&engine, table, KEY_SPACE * 2);
        assert_eq!(
            before, after,
            "GC changed query results (reclaimed {total} versions)"
        );
    });
}

/// Aborted transactions leave no trace, regardless of what they did.
#[test]
fn aborted_transactions_are_invisible() {
    for_each_case(|rng| {
        let aborted = TxnScript {
            commit: false,
            ..any_txn(rng, KEY_SPACE)
        };
        for mode in [ConcurrencyMode::Optimistic, ConcurrencyMode::Pessimistic] {
            let (engine, table) = fresh_mv(mode);
            let before = dump(&engine, table, KEY_SPACE * 2);
            apply(&engine, table, std::slice::from_ref(&aborted));
            let after = dump(&engine, table, KEY_SPACE * 2);
            assert_eq!(before, after);
        }
    });
}

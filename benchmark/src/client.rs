//! The closed-loop client: [`CLIENTS`] threads each run one transaction after
//! another against a shared engine for a warm-up and then a measured window,
//! timing every attempt into per-type histograms.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use mmdb_common::engine::Engine;

use crate::hist::{median, Histogram};
use crate::trace::{self, WorkerTrace};
use crate::workloads::{Attempt, Outcome, Populated, CLIENTS};

/// Failure messages kept verbatim per window; the rest are only counted.
const MAX_FAILURE_MESSAGES: usize = 8;

/// Per-transaction-type counts and latencies of one window.
#[derive(Default, Clone)]
pub struct TypeTally {
    pub committed: u64,
    pub aborted: u64,
    /// Draw → `commit()` returned, committed attempts only.
    pub latency: Histogram,
    /// Row reads + writes performed by attempts of this type.
    pub rows: u64,
    /// See [`Attempt::missed`].
    pub missed: u64,
}

/// What the clients did during one measured window.
#[derive(Default, Clone)]
pub struct WindowReport {
    pub types: Vec<TypeTally>,
    /// Attempts that panicked, violated an oracle or hit a non-abort error,
    /// warm-up included: a fault is a fault whenever it happens.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Committed transactions per second: the median over the window's
    /// [`SLICE_MS`] slices of what both clients committed in the slice. The
    /// median, not the mean, because on a shared box whole stretches of a
    /// window are slowed from outside; `mean_tps` is reported beside it.
    pub tps: f64,
    /// Same, for row reads + writes (of committed and aborted attempts).
    pub rows_per_s: f64,
    /// Sum over clients of (committed by that client ÷ its own measured
    /// time): clients stop on transaction boundaries, not together.
    pub mean_tps: f64,
    /// Same, for row reads + writes.
    pub mean_rows_per_s: f64,
    /// Longest client's measured time.
    pub seconds: f64,
    /// Oracle ledger summed over clients since the first warm-up transaction.
    pub ledger: i64,
    /// Merged spans (traced runs only).
    pub trace: Option<WorkerTrace>,
}

impl WindowReport {
    pub fn committed(&self) -> u64 {
        self.types.iter().map(|t| t.committed).sum()
    }

    pub fn aborted(&self) -> u64 {
        self.types.iter().map(|t| t.aborted).sum()
    }

    pub fn attempts(&self) -> u64 {
        self.committed() + self.aborted() + self.failed
    }

    /// Latencies of the types selected by `keep`, merged.
    pub fn latency_of(&self, keep: impl Fn(usize) -> bool) -> Histogram {
        let mut merged = Histogram::default();
        for (ty, tally) in self.types.iter().enumerate() {
            if keep(ty) {
                merged.merge(&tally.latency);
            }
        }
        merged
    }
}

/// Length of the slices a client's commits are also counted in.
const SLICE_MS: usize = 100;

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

/// What one client did in one slice of the window.
#[derive(Default, Clone, Copy)]
struct Slice {
    committed: u32,
    rows: u32,
}

struct WorkerResult {
    types: Vec<TypeTally>,
    slices: Vec<Slice>,
    failed: u64,
    failures: Vec<String>,
    seconds: f64,
    ledger: i64,
    trace: Option<WorkerTrace>,
}

/// The per-client random stream: the benchmark's `--seed` and the client
/// index, nothing else, so every engine and repeat sees the same inputs.
pub fn client_rng(seed: u64, worker: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (worker as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One attempt, with a panic inside the generator (an `expect` on a row
/// that must exist) turned into a counted failure.
pub fn attempt_one<E: Engine>(
    engine: &E,
    workload: &Populated,
    rng: &mut StdRng,
    worker: usize,
    ledger: &mut i64,
) -> Attempt {
    catch_unwind(AssertUnwindSafe(|| {
        workload.run_one(engine, rng, worker, ledger)
    }))
    .unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Attempt {
            ty: 0,
            outcome: Outcome::Failed(format!("panicked: {what}")),
            reads: 0,
            writes: 0,
            missed: 0,
        }
    })
}

/// Run the workload on `engine` with [`CLIENTS`] closed-loop clients:
/// `warmup` unmeasured, then `window` measured. With `traced`, `engine` must
/// be a [`trace::Traced`] engine; the clients then close a root span per
/// transaction and the report carries the merged spans. `sample` reads
/// whatever counters the caller wants over the window; it is called when the
/// window opens and when it closes, and both readings are returned.
pub fn run_window<E: Engine, S>(
    engine: &E,
    workload: &Populated,
    seed: u64,
    warmup: Duration,
    window: Duration,
    traced: bool,
    sample: impl Fn() -> S,
) -> (WindowReport, S, S) {
    let phase = AtomicU8::new(WARMUP);
    let n_types = workload.kind().type_names().len();

    let (workers, before, after) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|worker| {
                let phase = &phase;
                scope.spawn(move || {
                    let mut rng = client_rng(seed, worker);
                    let mut types = vec![TypeTally::default(); n_types];
                    let mut failed = 0u64;
                    let mut failures = Vec::new();
                    let mut ledger = 0i64;
                    let mut slices: Vec<Slice> =
                        Vec::with_capacity(window.as_millis() as usize / SLICE_MS + 64);
                    let mut measuring = false;
                    let mut started = Instant::now();
                    let mut prev = started;
                    loop {
                        match phase.load(Ordering::Relaxed) {
                            STOP => break,
                            MEASURE if !measuring => {
                                measuring = true;
                                for t in &mut types {
                                    *t = TypeTally::default();
                                }
                                slices.clear();
                                if traced {
                                    trace::reset();
                                }
                                started = Instant::now();
                                prev = started;
                            }
                            _ => {}
                        }
                        let attempt = attempt_one(engine, workload, &mut rng, worker, &mut ledger);
                        // One clock read per transaction: the end of this
                        // attempt is the start of the next.
                        let now = Instant::now();
                        if traced {
                            trace::end_txn(prev, now);
                        }
                        let tally = &mut types[attempt.ty];
                        let rows = attempt.reads + attempt.writes;
                        tally.rows += rows;
                        tally.missed += attempt.missed;
                        let slice = (now - started).as_millis() as usize / SLICE_MS;
                        if slice >= slices.len() {
                            slices.resize(slice + 1, Slice::default());
                        }
                        slices[slice].rows += rows as u32;
                        match attempt.outcome {
                            Outcome::Committed => {
                                tally.committed += 1;
                                tally.latency.record((now - prev).as_nanos() as u64);
                                slices[slice].committed += 1;
                            }
                            Outcome::Aborted => tally.aborted += 1,
                            Outcome::Failed(what) => {
                                failed += 1;
                                if failures.len() < MAX_FAILURE_MESSAGES {
                                    failures.push(what);
                                }
                            }
                        }
                        prev = now;
                    }
                    WorkerResult {
                        types,
                        slices,
                        failed,
                        failures,
                        seconds: (prev - started).as_secs_f64(),
                        ledger,
                        trace: traced.then(trace::take),
                    }
                })
            })
            .collect();

        std::thread::sleep(warmup);
        let before = sample();
        phase.store(MEASURE, Ordering::Relaxed);
        std::thread::sleep(window);
        phase.store(STOP, Ordering::Relaxed);
        let after = sample();
        let workers: Vec<WorkerResult> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread catches its panics"))
            .collect();
        (workers, before, after)
    });

    let mut report = WindowReport {
        types: vec![TypeTally::default(); n_types],
        trace: traced.then(WorkerTrace::default),
        ..Default::default()
    };
    // Per slice, what all clients did in it. The last slice of each client
    // is partial, so only slices every client completed count.
    let full = workers
        .iter()
        .map(|w| w.slices.len().saturating_sub(1))
        .min()
        .unwrap_or(0);
    let per_second = |f: &dyn Fn(&Slice) -> u32| {
        let mut totals: Vec<f64> = (0..full)
            .map(|i| workers.iter().map(|w| f(&w.slices[i]) as f64).sum())
            .collect();
        median(&mut totals) * (1_000.0 / SLICE_MS as f64)
    };
    report.tps = per_second(&|s| s.committed);
    report.rows_per_s = per_second(&|s| s.rows);
    for w in workers {
        let secs = w.seconds.max(1e-9);
        for (sum, t) in report.types.iter_mut().zip(&w.types) {
            sum.committed += t.committed;
            sum.aborted += t.aborted;
            sum.rows += t.rows;
            sum.missed += t.missed;
            sum.latency.merge(&t.latency);
        }
        report.mean_tps += w.types.iter().map(|t| t.committed).sum::<u64>() as f64 / secs;
        report.mean_rows_per_s += w.types.iter().map(|t| t.rows).sum::<u64>() as f64 / secs;
        report.seconds = report.seconds.max(w.seconds);
        report.failed += w.failed;
        report.failures.extend(w.failures);
        report.ledger += w.ledger;
        if let (Some(sum), Some(t)) = (report.trace.as_mut(), w.trace.as_ref()) {
            sum.merge(t);
        }
    }
    report.failures.truncate(MAX_FAILURE_MESSAGES);
    (report, before, after)
}

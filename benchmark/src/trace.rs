//! The traced run: `Traced<E>` / `TracedTxn<T>` implement `Engine` /
//! `EngineTxn` by delegation and record a span around every call into the
//! engine, under a root `txn` span the client loop closes.
//!
//! Spans are recorded from this benchmark's side of the engine's public API;
//! spans inside the engine are a later issue. A span is (name, start, end,
//! parent, transaction id). They aggregate into per-worker histograms in
//! memory, plus the raw spans of one transaction in 1024, and are written to
//! `benchmark/out/trace-<workload>.jsonl` after the window. A span's self time
//! is its duration minus the time its children cover; the `txn` span's self
//! time is the client's own work (drawing parameters, building rows, glue).

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

use mmdb_common::durability::Durability;
use mmdb_common::engine::{Engine, EngineTxn};
use mmdb_common::error::Result;
use mmdb_common::ids::{IndexId, Key, TableId, Timestamp, TxnId};
use mmdb_common::isolation::IsolationLevel;
use mmdb_common::row::{Row, TableSpec};
use mmdb_common::stats::EngineStats;

use crate::hist::Histogram;
use crate::json::Json;

/// Span names below the root `txn` span: one per engine call family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Begin = 0,
    Read = 1,
    Scan = 2,
    Write = 3,
    /// `commit()` or `abort()`.
    Commit = 4,
}

pub const OPS: [Op; 5] = [Op::Begin, Op::Read, Op::Scan, Op::Write, Op::Commit];

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Begin => "begin",
            Op::Read => "read",
            Op::Scan => "scan",
            Op::Write => "write",
            Op::Commit => "commit",
        }
    }
}

/// Every this-many-th transaction keeps its raw spans.
const SAMPLE_EVERY: u64 = 1024;

fn ns_since_start(t: Instant) -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    let start = *START.get_or_init(Instant::now);
    t.saturating_duration_since(start).as_nanos() as u64
}

/// Name of the root span the client loop closes around each transaction.
const ROOT: &str = "txn";

/// A sampled raw span: the root span of transaction `txn` if `name` is
/// [`ROOT`], else an engine call under it.
#[derive(Clone, Debug)]
pub struct RawSpan {
    pub txn: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One worker's spans, aggregated.
#[derive(Default, Clone)]
pub struct WorkerTrace {
    /// Duration of each engine-call span, by [`Op`].
    pub ops: [Histogram; 5],
    /// Duration of the root `txn` spans.
    pub txn: Histogram,
    /// Self time of the root `txn` spans (duration minus children).
    pub client: Histogram,
    /// Engine-call time recorded outside any root span's interval; zero
    /// unless the span tree is broken.
    pub stray_ns: u64,
    pub raw: Vec<RawSpan>,
    txn_seq: u64,
    cur_children_ns: u64,
    cur_spans: Vec<(Op, Instant, Instant)>,
}

thread_local! {
    static TRACE: RefCell<WorkerTrace> = RefCell::new(WorkerTrace::default());
}

impl WorkerTrace {
    fn sampled(&self) -> bool {
        self.txn_seq.is_multiple_of(SAMPLE_EVERY)
    }

    pub fn merge(&mut self, other: &WorkerTrace) {
        for (mine, theirs) in self.ops.iter_mut().zip(other.ops.iter()) {
            mine.merge(theirs);
        }
        self.txn.merge(&other.txn);
        self.client.merge(&other.client);
        self.stray_ns += other.stray_ns;
        self.raw.extend(other.raw.iter().cloned());
    }
}

fn record_op(op: Op, start: Instant, end: Instant) {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        t.ops[op as usize].record(ns);
        t.cur_children_ns += ns;
        if t.sampled() {
            t.cur_spans.push((op, start, end));
        }
    });
}

/// Start collecting on this thread: forget everything recorded so far (the
/// warm-up's spans) so the trace covers the measured window only.
pub fn reset() {
    TRACE.with(|t| *t.borrow_mut() = WorkerTrace::default());
}

/// Close the root span `[start, end]` of the transaction this thread just
/// ran; every engine call since the previous root is its child.
pub fn end_txn(start: Instant, end: Instant) {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        let children = std::mem::take(&mut t.cur_children_ns);
        t.txn.record(ns);
        t.client.record(ns.saturating_sub(children));
        t.stray_ns += children.saturating_sub(ns);
        if t.sampled() {
            let txn = t.txn_seq;
            t.raw.push(RawSpan {
                txn,
                name: ROOT,
                start_ns: ns_since_start(start),
                end_ns: ns_since_start(end),
            });
            let spans = std::mem::take(&mut t.cur_spans);
            for (op, s, e) in &spans {
                t.raw.push(RawSpan {
                    txn,
                    name: op.name(),
                    start_ns: ns_since_start(*s),
                    end_ns: ns_since_start(*e),
                });
            }
            t.cur_spans = spans;
            t.cur_spans.clear();
        }
        t.txn_seq += 1;
    });
}

/// Take this thread's aggregated spans.
pub fn take() -> WorkerTrace {
    TRACE.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// Render a merged trace as JSON lines: one summary line per span name
/// (count, total, self time, p50, p99) and one line per sampled raw span.
pub fn to_jsonl(workload: &str, trace: &WorkerTrace) -> String {
    let mut out = String::new();
    let mut summary = |name: &str, h: &Histogram, self_ns: u64, parent: Json| {
        let line = Json::obj()
            .with("kind", "summary")
            .with("workload", workload)
            .with("span", name)
            .with("parent", parent)
            .with("count", h.count())
            .with("total_ns", h.sum())
            .with("self_ns", self_ns)
            .with("p50_ns", h.quantile(0.5))
            .with("p99_ns", h.quantile(0.99));
        out.push_str(&line.to_string());
        out.push('\n');
    };
    summary(ROOT, &trace.txn, trace.client.sum(), Json::Null);
    for op in OPS {
        let h = &trace.ops[op as usize];
        summary(op.name(), h, h.sum(), ROOT.into());
    }
    let self_sum: u64 = trace.client.sum() + trace.ops.iter().map(Histogram::sum).sum::<u64>();
    let closure = Json::obj()
        .with("kind", "closure")
        .with("txn_total_ns", trace.txn.sum())
        .with("self_sum_ns", self_sum)
        .with("stray_ns", trace.stray_ns)
        .with(
            "error_share",
            (self_sum as f64 - trace.txn.sum() as f64).abs() / trace.txn.sum().max(1) as f64,
        );
    out.push_str(&closure.to_string());
    out.push('\n');
    for span in &trace.raw {
        let line = Json::obj()
            .with("kind", "span")
            .with("txn", span.txn)
            .with("span", span.name)
            .with(
                "parent",
                if span.name == ROOT {
                    Json::Null
                } else {
                    ROOT.into()
                },
            )
            .with("start_ns", span.start_ns)
            .with("end_ns", span.end_ns);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

/// An engine whose every call is wrapped in a span.
pub struct Traced<E>(pub E);

/// A transaction whose every call is wrapped in a span.
pub struct TracedTxn<T>(T);

fn span<R>(op: Op, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    record_op(op, start, Instant::now());
    out
}

impl<E: Engine> Engine for Traced<E> {
    type Txn = TracedTxn<E::Txn>;

    fn create_table(&self, spec: TableSpec) -> Result<TableId> {
        self.0.create_table(spec)
    }

    fn begin(&self, isolation: IsolationLevel) -> Self::Txn {
        span(Op::Begin, || TracedTxn(self.0.begin(isolation)))
    }

    fn begin_hinted(
        &self,
        read_only: bool,
        tables: &[TableId],
        isolation: IsolationLevel,
    ) -> Self::Txn {
        span(Op::Begin, || {
            TracedTxn(self.0.begin_hinted(read_only, tables, isolation))
        })
    }

    fn stats(&self) -> &EngineStats {
        self.0.stats()
    }

    fn label(&self) -> &'static str {
        self.0.label()
    }

    fn maintenance(&self) {
        self.0.maintenance()
    }
}

impl<T: EngineTxn> EngineTxn for TracedTxn<T> {
    fn id(&self) -> TxnId {
        self.0.id()
    }

    fn isolation(&self) -> IsolationLevel {
        self.0.isolation()
    }

    fn set_durability(&mut self, durability: Durability) {
        self.0.set_durability(durability)
    }

    fn insert(&mut self, table: TableId, row: Row) -> Result<()> {
        span(Op::Write, || self.0.insert(table, row))
    }

    fn read(&mut self, table: TableId, index: IndexId, key: Key) -> Result<Option<Row>> {
        span(Op::Read, || self.0.read(table, index, key))
    }

    fn scan_key(&mut self, table: TableId, index: IndexId, key: Key) -> Result<Vec<Row>> {
        span(Op::Scan, || self.0.scan_key(table, index, key))
    }

    fn read_with(
        &mut self,
        table: TableId,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<bool> {
        span(Op::Read, || self.0.read_with(table, index, key, visit))
    }

    fn scan_key_with(
        &mut self,
        table: TableId,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        span(Op::Scan, || self.0.scan_key_with(table, index, key, visit))
    }

    fn scan_range(&mut self, table: TableId, index: IndexId, lo: Key, hi: Key) -> Result<Vec<Row>> {
        span(Op::Scan, || self.0.scan_range(table, index, lo, hi))
    }

    fn scan_range_with(
        &mut self,
        table: TableId,
        index: IndexId,
        lo: Key,
        hi: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        span(Op::Scan, || {
            self.0.scan_range_with(table, index, lo, hi, visit)
        })
    }

    fn update(&mut self, table: TableId, index: IndexId, key: Key, new_row: Row) -> Result<bool> {
        span(Op::Write, || self.0.update(table, index, key, new_row))
    }

    fn delete(&mut self, table: TableId, index: IndexId, key: Key) -> Result<bool> {
        span(Op::Write, || self.0.delete(table, index, key))
    }

    fn commit(self) -> Result<Timestamp> {
        span(Op::Commit, || self.0.commit())
    }

    fn abort(self) {
        span(Op::Commit, || self.0.abort())
    }
}

//! Morsel-driven parallel execution (no external runtime).
//!
//! The relational operators are embarrassingly parallel across tuples: all
//! per-tuple work (`product`, `floor`, `marginalize`, history collapses)
//! reads the [`HistoryRegistry`] immutably, and a query operator never
//! writes it. The input is cut into fixed-size *morsels* (contiguous index
//! ranges); a scoped-thread worker pool claims morsels from an atomic
//! cursor and evaluates the per-tuple closure into per-morsel buffers,
//! which are stitched back **in input order**.
//!
//! Because the per-tuple work is pure and the stitch keeps input order,
//! output tuples, pdf values and history ids are bit-identical to serial
//! execution at any thread count. Errors are deterministic too: the error
//! reported is the one the lowest-indexed failing tuple produced.
//!
//! Bulk insertion ([`insert_batch`]) is the one writer. It builds and
//! validates rows in parallel, then commits them serially in row order:
//! it reserves one contiguous id range ([`HistoryRegistry::reserve_ids`])
//! and installs base pdfs row by row, so the ids are exactly those a
//! serial tuple-at-a-time load would have assigned.

use crate::batch::ExecMode;
use crate::error::{EngineError, Result};
use crate::history::{Ancestors, HistoryRegistry};
use crate::relation::Relation;
use crate::schema::AttrId;
use crate::select::ExecOptions;
use crate::tuple::{PdfNode, ProbTuple};
use crate::value::Value;
use orion_obs::Span;
use orion_pdf::prelude::JointPdf;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Default tuples per morsel. Inputs no larger than one morsel run
/// serially, so small relations (and the unit-test corpus) never pay
/// thread spawn costs.
pub const DEFAULT_MORSEL_SIZE: usize = 1024;

/// Resolves a thread-count request: `0` means "auto" — the `ORION_THREADS`
/// environment variable if set to a positive integer, otherwise the
/// machine's available parallelism.
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("ORION_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Applies `f` to every item, in parallel when the options ask for it,
/// returning the results in input order. `f` receives the item index and
/// must not write shared state.
pub(crate) fn run_tuples<T, U, F>(items: &[T], opts: &ExecOptions, f: F) -> Result<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> Result<U> + Sync,
{
    let morsel = opts.morsel_size.max(1);
    let threads = effective_threads(opts.threads);
    if threads <= 1 || items.len() <= morsel {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let n_morsels = items.len().div_ceil(morsel);
    let workers = threads.min(n_morsels);
    let cursor = AtomicUsize::new(0);
    // Tracing is record-only: spans observe the claim loop but never feed
    // back into scheduling or results (see `tests/parallel_equiv.rs`).
    let tracer = &opts.trace;
    // Finished morsels, tagged with their index for in-order stitching.
    let done: Mutex<Vec<(usize, Result<Vec<U>>)>> = Mutex::new(Vec::with_capacity(n_morsels));

    let mut p1 = match tracer {
        Some(t) => t.lane("exec").span("phase1.compute", "exec"),
        None => Span::noop(),
    };
    if p1.is_recording() {
        p1.arg("morsels", n_morsels as u64);
        p1.arg("workers", workers as u64);
    }
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (cursor, done, f) = (&cursor, &done, &f);
            handles.push(scope.spawn(move || {
                // One trace lane per worker, one span per morsel claim.
                // Parallel operators of a statement run one after another,
                // so a later operator's worker `w` reuses this lane.
                let lane = tracer.as_ref().map(|t| t.lane(&format!("worker-{w}")));
                let start = Instant::now();
                let mut claimed = 0u64;
                loop {
                    let m = cursor.fetch_add(1, Ordering::Relaxed);
                    if m >= n_morsels {
                        break;
                    }
                    claimed += 1;
                    let lo = m * morsel;
                    let hi = ((m + 1) * morsel).min(items.len());
                    let mut mspan = match &lane {
                        Some(l) => l.span("morsel", "exec"),
                        None => Span::noop(),
                    };
                    if mspan.is_recording() {
                        mspan.arg("morsel", m as u64);
                        mspan.arg("lo", lo as u64);
                        mspan.arg("hi", hi as u64);
                    }
                    let mut buf = Vec::with_capacity(hi - lo);
                    let mut res = Ok(());
                    for (i, t) in items[lo..hi].iter().enumerate() {
                        match f(lo + i, t) {
                            Ok(u) => buf.push(u),
                            Err(e) => {
                                // Serial execution stops at the first
                                // failing tuple of the morsel; so do we.
                                res = Err(e);
                                break;
                            }
                        }
                    }
                    done.lock().push((m, res.map(|()| buf)));
                }
                (w, claimed, start.elapsed())
            }));
        }
        for h in handles {
            match h.join() {
                Ok((w, claimed, busy)) => {
                    if let Some(s) = opts.stats_ref() {
                        let nanos = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
                        s.record_worker(w, claimed, nanos);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    drop(p1);

    // Ordered stitch; the error from the lowest input index wins, matching
    // what serial in-order evaluation would have reported. The
    // `phase2.stitch` span marks the parallel/serial boundary in the trace.
    let _p2 = match tracer {
        Some(t) => t.lane("exec").span("phase2.stitch", "exec"),
        None => Span::noop(),
    };
    let mut slots = done.into_inner();
    slots.sort_unstable_by_key(|(m, _)| *m);
    let mut out = Vec::with_capacity(items.len());
    for (_, r) in slots {
        out.extend(r?);
    }
    Ok(out)
}

/// Applies `f` to every morsel-sized chunk of `items` — one morsel becomes
/// one batch — returning the per-chunk results stitched in input order.
/// `f` receives the morsel index, the chunk's starting item index, and the
/// chunk itself; like [`run_tuples`] it must not write shared state. Batch
/// counters (`batches`, `batch_rows`) are recorded per chunk in both the
/// serial and the parallel path, so `EXPLAIN ANALYZE` can report batch
/// geometry. Error semantics match [`run_tuples`]: the error from the
/// lowest-indexed failing chunk wins.
pub(crate) fn run_batches<T, U, F>(items: &[T], opts: &ExecOptions, f: F) -> Result<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, usize, &[T]) -> Result<Vec<U>> + Sync,
{
    let morsel = opts.morsel_size.max(1);
    let threads = effective_threads(opts.threads);
    let record = |chunk: &[T]| {
        if let Some(s) = opts.stats_ref() {
            s.batches.inc();
            s.batch_rows.add(chunk.len() as u64);
        }
    };
    if threads <= 1 || items.len() <= morsel {
        // Serial execution still chunks into batches: batch-mode compute
        // (and its counters) must not depend on the thread count.
        let mut out = Vec::with_capacity(items.len());
        let mut lo = 0;
        let mut m = 0;
        while lo < items.len() {
            let hi = (lo + morsel).min(items.len());
            let chunk = &items[lo..hi];
            record(chunk);
            out.extend(f(m, lo, chunk)?);
            lo = hi;
            m += 1;
        }
        return Ok(out);
    }

    let n_morsels = items.len().div_ceil(morsel);
    let workers = threads.min(n_morsels);
    let cursor = AtomicUsize::new(0);
    let tracer = &opts.trace;
    let done: Mutex<Vec<(usize, Result<Vec<U>>)>> = Mutex::new(Vec::with_capacity(n_morsels));

    let mut p1 = match tracer {
        Some(t) => t.lane("exec").span("phase1.compute", "exec"),
        None => Span::noop(),
    };
    if p1.is_recording() {
        p1.arg("morsels", n_morsels as u64);
        p1.arg("workers", workers as u64);
    }
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (cursor, done, f, record) = (&cursor, &done, &f, &record);
            handles.push(scope.spawn(move || {
                let lane = tracer.as_ref().map(|t| t.lane(&format!("worker-{w}")));
                let start = Instant::now();
                let mut claimed = 0u64;
                loop {
                    let m = cursor.fetch_add(1, Ordering::Relaxed);
                    if m >= n_morsels {
                        break;
                    }
                    claimed += 1;
                    let lo = m * morsel;
                    let hi = ((m + 1) * morsel).min(items.len());
                    let mut mspan = match &lane {
                        Some(l) => l.span("morsel", "exec"),
                        None => Span::noop(),
                    };
                    if mspan.is_recording() {
                        mspan.arg("morsel", m as u64);
                        mspan.arg("lo", lo as u64);
                        mspan.arg("hi", hi as u64);
                    }
                    let chunk = &items[lo..hi];
                    record(chunk);
                    done.lock().push((m, f(m, lo, chunk)));
                }
                (w, claimed, start.elapsed())
            }));
        }
        for h in handles {
            match h.join() {
                Ok((w, claimed, busy)) => {
                    if let Some(s) = opts.stats_ref() {
                        let nanos = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
                        s.record_worker(w, claimed, nanos);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    drop(p1);

    let _p2 = match tracer {
        Some(t) => t.lane("exec").span("phase2.stitch", "exec"),
        None => Span::noop(),
    };
    let mut slots = done.into_inner();
    slots.sort_unstable_by_key(|(m, _)| *m);
    let mut out = Vec::with_capacity(items.len());
    for (_, r) in slots {
        out.extend(r?);
    }
    Ok(out)
}

/// Mode dispatch for the per-tuple operators: row mode runs [`run_tuples`];
/// batch mode runs [`run_batches`] with the same per-tuple closure applied
/// across each chunk. Within a chunk, tuples are evaluated in input order
/// and evaluation stops at the first failing tuple — exactly the row-mode
/// morsel semantics — so results, stats counts, and reported errors are
/// bit-identical across modes.
pub(crate) fn run_tuples_mode<T, U, F>(items: &[T], opts: &ExecOptions, f: F) -> Result<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> Result<U> + Sync,
{
    match opts.mode {
        ExecMode::Row => run_tuples(items, opts, f),
        ExecMode::Batch => run_batches(items, opts, |_, lo, chunk| {
            chunk.iter().enumerate().map(|(k, t)| f(lo + k, t)).collect()
        }),
    }
}

/// One row of a bulk insert: certain values by column name, plus one joint
/// pdf per dependency set (the set's columns in the pdf's dimension order)
/// — the same shape [`Relation::insert`] takes.
#[derive(Debug, Clone)]
pub struct BulkRow {
    /// Values for the certain columns.
    pub certain: Vec<(String, Value)>,
    /// One joint pdf per dependency set.
    pub uncertain: Vec<(Vec<String>, JointPdf)>,
}

/// A validated row awaiting the commit phase: the full certain-value row
/// and the attribute/joint prototype of each pdf node, in insertion order.
struct StagedRow {
    certain: Vec<Value>,
    protos: Vec<(Vec<AttrId>, JointPdf)>,
}

/// Bulk-inserts `n_rows` rows built by `build(row_index)`, validating and
/// materializing rows in parallel, then committing them — including
/// history-id assignment — in row order. The resulting relation, registry
/// contents **and pdf ids** are bit-identical to calling
/// [`Relation::insert`] once per row, at any thread count.
pub fn insert_batch<F>(
    rel: &mut Relation,
    reg: &mut HistoryRegistry,
    opts: &ExecOptions,
    n_rows: usize,
    build: F,
) -> Result<()>
where
    F: Fn(usize) -> BulkRow + Sync,
{
    // Phase 1: parallel build + validation against the (shared) schema.
    let indices: Vec<usize> = (0..n_rows).collect();
    let staged: Vec<StagedRow> = run_tuples(&indices, opts, |_, &i| stage_row(rel, build(i)))?;

    // Phase 2: ordered serial commit. One contiguous reservation covers
    // every base pdf; walking rows in order assigns exactly the ids a
    // serial load would have produced.
    let mut p2 = match &opts.trace {
        Some(t) => t.lane("exec").span("insert_batch.commit", "exec"),
        None => Span::noop(),
    };
    if p2.is_recording() {
        p2.arg("rows", staged.len() as u64);
    }
    let total: u64 = staged.iter().map(|r| r.protos.len() as u64).sum();
    let mut id = reg.reserve_ids(total);
    let tuples = rel.tuples_mut();
    tuples.reserve(staged.len());
    for row in staged {
        let mut nodes = Vec::with_capacity(row.protos.len());
        for (attrs, joint) in row.protos {
            reg.install_reserved(id, attrs.clone(), joint.clone());
            let ancestors: Ancestors = [id].into_iter().collect();
            reg.add_refs(&ancestors);
            nodes.push(PdfNode::base(id, &attrs, joint, ancestors));
            id += 1;
        }
        tuples.push(ProbTuple { certain: row.certain, nodes });
    }
    Ok(())
}

/// Validates one bulk row against the relation's schema (mirroring
/// [`Relation::insert`]) without touching the registry.
fn stage_row(rel: &Relation, row: BulkRow) -> Result<StagedRow> {
    let mut certain = vec![Value::Null; rel.schema.columns().len()];
    for (name, v) in row.certain {
        let idx = rel
            .schema
            .index_of(&name)
            .ok_or_else(|| EngineError::Schema(format!("unknown column '{name}'")))?;
        if rel.schema.columns()[idx].uncertain {
            return Err(EngineError::Schema(format!(
                "column '{name}' is uncertain; supply a pdf instead"
            )));
        }
        certain[idx] = v;
    }
    let mut protos = Vec::with_capacity(row.uncertain.len());
    let mut covered: Vec<AttrId> = Vec::new();
    for (names, joint) in row.uncertain {
        let mut attrs = Vec::with_capacity(names.len());
        for name in &names {
            let col = rel
                .schema
                .column(name)
                .ok_or_else(|| EngineError::Schema(format!("unknown column '{name}'")))?;
            if !col.uncertain {
                return Err(EngineError::Schema(format!(
                    "column '{name}' is certain; supply a value instead"
                )));
            }
            attrs.push(col.id);
        }
        if joint.arity() != attrs.len() {
            return Err(EngineError::Schema(format!(
                "pdf arity {} does not match {} attributes",
                joint.arity(),
                attrs.len()
            )));
        }
        covered.extend(&attrs);
        protos.push((attrs, joint));
    }
    for c in rel.schema.columns() {
        if c.uncertain && !covered.contains(&c.id) {
            return Err(EngineError::Schema(format!("uncertain column '{}' has no pdf", c.name)));
        }
    }
    Ok(StagedRow { certain, protos })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, ProbSchema};
    use orion_pdf::prelude::*;

    fn small_opts(threads: usize) -> ExecOptions {
        ExecOptions { threads, morsel_size: 2, ..ExecOptions::default() }
    }

    #[test]
    fn run_tuples_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 4, 8] {
            let out =
                run_tuples(&items, &small_opts(threads), |i, &x| Ok(x * 2 + i as u64)).unwrap();
            let want: Vec<u64> = (0..100).map(|x| x * 3).collect();
            assert_eq!(out, want, "threads={threads}");
        }
    }

    #[test]
    fn run_tuples_reports_lowest_index_error() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let err = run_tuples(&items, &small_opts(threads), |i, _| {
                if i >= 9 {
                    Err(EngineError::Operator(format!("boom at {i}")))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert!(err.to_string().contains("boom at 9"), "threads={threads}: {err}");
        }
    }

    #[test]
    fn run_tuples_records_worker_lanes() {
        let stats = std::sync::Arc::new(orion_obs::ExecStats::new());
        let opts = ExecOptions { stats: Some(stats.clone()), ..small_opts(4) };
        let items: Vec<u64> = (0..64).collect();
        run_tuples(&items, &opts, |_, &x| Ok(x)).unwrap();
        let snap = stats.snapshot();
        assert!(!snap.workers.is_empty());
        let morsels: u64 = snap.workers.iter().map(|l| l.morsels).sum();
        assert_eq!(morsels, 32, "64 items / morsel_size 2");
    }

    #[test]
    fn serial_path_records_no_lanes() {
        let stats = std::sync::Arc::new(orion_obs::ExecStats::new());
        let opts = ExecOptions { stats: Some(stats.clone()), threads: 1, ..ExecOptions::default() };
        let items: Vec<u64> = (0..64).collect();
        run_tuples(&items, &opts, |_, &x| Ok(x)).unwrap();
        assert!(stats.snapshot().workers.is_empty());
    }

    #[test]
    fn run_batches_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 4, 8] {
            let out = run_batches(&items, &small_opts(threads), |_, lo, chunk| {
                Ok(chunk.iter().enumerate().map(|(k, &x)| x * 2 + (lo + k) as u64).collect())
            })
            .unwrap();
            let want: Vec<u64> = (0..100).map(|x| x * 3).collect();
            assert_eq!(out, want, "threads={threads}");
        }
    }

    #[test]
    fn run_batches_reports_lowest_chunk_error() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let err = run_batches(&items, &small_opts(threads), |m, _, _| {
                if m >= 3 {
                    Err(EngineError::Operator(format!("boom at morsel {m}")))
                } else {
                    Ok(Vec::<u64>::new())
                }
            })
            .unwrap_err();
            assert!(err.to_string().contains("boom at morsel 3"), "threads={threads}: {err}");
        }
    }

    #[test]
    fn run_batches_counts_batches_in_both_paths() {
        let items: Vec<u64> = (0..65).collect();
        for threads in [1, 4] {
            let stats = std::sync::Arc::new(orion_obs::ExecStats::new());
            let opts = ExecOptions { stats: Some(stats.clone()), ..small_opts(threads) };
            run_batches(&items, &opts, |_, _, chunk| Ok(chunk.to_vec())).unwrap();
            let snap = stats.snapshot();
            assert_eq!(snap.batches, 33, "threads={threads}: 65 items / morsel_size 2");
            assert_eq!(snap.batch_rows, 65, "threads={threads}");
        }
    }

    #[test]
    fn run_tuples_mode_dispatch_is_equivalent() {
        let items: Vec<u64> = (0..50).collect();
        let row = run_tuples_mode(&items, &small_opts(4), |i, &x| Ok(x + i as u64)).unwrap();
        for threads in [1, 2, 4] {
            let stats = std::sync::Arc::new(orion_obs::ExecStats::new());
            let opts = ExecOptions {
                mode: ExecMode::Batch,
                stats: Some(stats.clone()),
                ..small_opts(threads)
            };
            let batch = run_tuples_mode(&items, &opts, |i, &x| Ok(x + i as u64)).unwrap();
            assert_eq!(batch, row, "threads={threads}");
            assert_eq!(stats.snapshot().batches, 25, "threads={threads}");
        }
    }

    #[test]
    fn run_tuples_mode_batch_stops_at_first_failing_tuple() {
        // Within a chunk, batch mode must report the same (lowest-index)
        // error row mode would.
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 4] {
            let opts = ExecOptions { mode: ExecMode::Batch, ..small_opts(threads) };
            let err = run_tuples_mode(&items, &opts, |i, _| {
                if i >= 9 {
                    Err(EngineError::Operator(format!("boom at {i}")))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert!(err.to_string().contains("boom at 9"), "threads={threads}: {err}");
        }
    }

    fn bulk_schema() -> ProbSchema {
        ProbSchema::new(vec![("id", ColumnType::Int, false), ("x", ColumnType::Real, true)], vec![])
            .unwrap()
    }

    fn bulk_row(i: usize) -> BulkRow {
        BulkRow {
            certain: vec![("id".into(), Value::Int(i as i64))],
            uncertain: vec![(
                vec!["x".into()],
                JointPdf::from_pdf1(Pdf1::gaussian(i as f64, 1.0).unwrap()),
            )],
        }
    }

    #[test]
    fn insert_batch_matches_serial_insert_exactly() {
        const N: usize = 23;
        // One schema for every run: AttrIds are globally allocated, and the
        // tuples record them.
        let schema = bulk_schema();
        let mut serial_reg = HistoryRegistry::new();
        let mut serial = Relation::new("t", schema.clone());
        for i in 0..N {
            let row = bulk_row(i);
            let certain: Vec<(&str, Value)> =
                row.certain.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
            let uncertain = row
                .uncertain
                .iter()
                .map(|(ns, j)| (ns.iter().map(|s| s.as_str()).collect(), j.clone()))
                .collect();
            serial.insert(&mut serial_reg, &certain, uncertain).unwrap();
        }

        for threads in [1, 2, 4, 8] {
            let mut reg = HistoryRegistry::new();
            let mut rel = Relation::new("t", schema.clone());
            insert_batch(&mut rel, &mut reg, &small_opts(threads), N, bulk_row).unwrap();
            assert_eq!(rel.tuples, serial.tuples, "threads={threads}");
            assert_eq!(reg.last_id(), serial_reg.last_id());
            assert_eq!(reg.len(), serial_reg.len());
            for (id, base) in serial_reg.iter_bases() {
                let b = reg.base(id).unwrap();
                assert_eq!(b.attrs, base.attrs);
                assert_eq!(reg.ref_count(id), serial_reg.ref_count(id));
            }
        }
    }

    #[test]
    fn insert_batch_validation_errors_are_deterministic() {
        let mut reg = HistoryRegistry::new();
        let mut rel = Relation::new("t", bulk_schema());
        let err = insert_batch(&mut rel, &mut reg, &small_opts(4), 16, |i| {
            if i >= 5 {
                BulkRow { certain: vec![("nope".into(), Value::Int(0))], uncertain: vec![] }
            } else {
                bulk_row(i)
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
        assert!(rel.is_empty(), "failed batch leaves the relation untouched");
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn effective_threads_prefers_explicit_request() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }
}

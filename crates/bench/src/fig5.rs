//! Figure 5 — **Performance of Discretized PDFs**.
//!
//! The paper compares range-query runtime over relations of 0.5M–3M
//! uncertain tuples stored three ways: 5-bucket histograms and 25-point
//! discrete samplings (chosen for equal accuracy per Figure 4), with
//! symbolic pdfs "just under the five-bin histogram times". Discretized
//! data both costs more CPU per tuple and occupies more pages, so the
//! discrete line rises steepest — it incurs more disk reads.
//!
//! This reproduction stores each relation in an on-disk heap file behind a
//! bounded buffer pool (the cost model PostgreSQL contributed in the
//! original) and measures a cold full-scan range query plus the physical
//! reads it triggers.

use orion_core::batch::ExecMode;
use orion_obs::{json, OpProfile};
use orion_pdf::prelude::{Interval, Pdf1, Pdf1Batch};
use orion_sql::{DurableSession, Output};
use orion_storage::codec::{decode_pdf1, decode_pdf1_into, encode_pdf1};
use orion_storage::{FileStore, HeapFile, IoSnapshot};
use orion_workload::SensorWorkload;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Records accumulated per batch in the batch-mode scan — one morsel's
/// worth, matching the executor's default morsel size.
const SCAN_BATCH: usize = 1024;

/// The three physical representations compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repr {
    /// Exact symbolic pdfs (`Gaus(m, v)` parameters).
    Symbolic,
    /// Equi-width histogram with the given bucket count.
    Histogram(usize),
    /// Discrete sampling with the given point count.
    Discrete(usize),
}

impl Repr {
    /// Display label matching the paper's legend.
    pub fn label(&self) -> String {
        match self {
            Repr::Symbolic => "Symbolic".to_string(),
            Repr::Histogram(n) => format!("Histogram({n})"),
            Repr::Discrete(n) => format!("Discrete({n})"),
        }
    }

    /// Converts an exact pdf into this representation.
    pub fn materialize(&self, exact: &Pdf1) -> Pdf1 {
        match self {
            Repr::Symbolic => exact.clone(),
            Repr::Histogram(n) => Pdf1::Histogram(exact.to_histogram(*n).expect("non-vacuous")),
            Repr::Discrete(n) => Pdf1::Discrete(exact.to_discrete(*n).expect("non-vacuous")),
        }
    }
}

/// Configuration for the Figure 5 sweep.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Tuple counts to sweep (paper: 0.5M–3M).
    pub tuple_counts: Vec<usize>,
    /// Representations to compare (paper: Histogram(5) vs Discrete(25)).
    pub reprs: Vec<Repr>,
    /// Buffer-pool size in pages (bounded, so large relations spill).
    pub pool_pages: usize,
    /// Number of range queries evaluated in one scan.
    pub n_queries: usize,
    /// Workload seed.
    pub seed: u64,
    /// Directory for the on-disk heap files.
    pub dir: PathBuf,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            tuple_counts: vec![500_000, 1_000_000, 1_500_000, 2_000_000, 2_500_000, 3_000_000],
            reprs: vec![Repr::Histogram(5), Repr::Discrete(25), Repr::Symbolic],
            pool_pages: 2048,
            n_queries: 4,
            seed: 42,
            dir: std::env::temp_dir().join("orion_fig5"),
        }
    }
}

impl Fig5Config {
    /// A scaled-down sweep for quick runs and CI.
    pub fn quick() -> Self {
        Fig5Config {
            tuple_counts: vec![50_000, 100_000, 150_000, 200_000, 250_000, 300_000],
            ..Self::default()
        }
    }
}

/// One measurement of the Figure 5 sweep.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    pub n_tuples: usize,
    pub repr: String,
    /// Execution mode of the query phase (`row` or `batch`).
    pub mode: String,
    /// Time to build (discretize + write) the relation.
    pub build_secs: f64,
    /// Cold full-scan range-query time.
    pub query_secs: f64,
    /// Physical page reads during the query.
    pub physical_reads: u64,
    /// Total pages occupied by the relation.
    pub pages: u32,
    /// Number of tuples whose probability in the first query range
    /// exceeded 0.5 (sanity output so work is not optimized away).
    pub matches: usize,
    /// Worker threads in effect while the row was measured (the scan
    /// itself is sequential I/O; recorded so runs on different
    /// `ORION_THREADS` settings are distinguishable in the results).
    pub threads: usize,
    /// Full buffer-pool counter snapshot for the query phase.
    pub io: IoSnapshot,
}

impl Fig5Row {
    /// JSON form with one field per measurement plus the nested I/O
    /// snapshot.
    pub fn to_json(&self) -> json::Value {
        json::Value::object()
            .with("n_tuples", self.n_tuples)
            .with("repr", self.repr.as_str())
            .with("mode", self.mode.as_str())
            .with("build_secs", self.build_secs)
            .with("query_secs", self.query_secs)
            .with("physical_reads", self.physical_reads)
            .with("pages", self.pages)
            .with("matches", self.matches)
            .with("threads", self.threads)
            .with("io", self.io.to_json())
    }
}

/// JSON array over the whole sweep.
pub fn rows_to_json(rows: &[Fig5Row]) -> json::Value {
    let mut arr = json::Value::array();
    for r in rows {
        arr.push(r.to_json());
    }
    arr
}

/// The operator-stats snapshot the `fig5_performance` binary writes next
/// to its results: the per-configuration buffer-pool counters that explain
/// the figure's read curve, plus the planner's estimate-vs-actual record
/// for the workload's threshold query (un-analyzed and analyzed).
pub fn stats_json(
    rows: &[Fig5Row],
    estimates: &[EstimateReport],
    statements: json::Value,
) -> json::Value {
    let mut arr = json::Value::array();
    for r in rows {
        arr.push(
            json::Value::object()
                .with("n_tuples", r.n_tuples)
                .with("repr", r.repr.as_str())
                .with("io", r.io.to_json()),
        );
    }
    json::Value::object()
        .with("figure", "fig5")
        .with("buffer_pool", arr)
        .with("estimates", estimates_json(estimates))
        .with("statements", statements)
}

/// Runs the figure's threshold-query shape through a durable session with
/// the workload repository enabled, and returns the per-statement
/// repository plus the planner-feedback summaries as the `statements`
/// section of the `.stats.json` sidecar.
pub fn workload_report(n: usize, seed: u64) -> json::Value {
    let dir = std::env::temp_dir().join(format!("orion_fig5_workload_{n}_{seed}"));
    std::fs::remove_dir_all(&dir).ok();
    let mut s = DurableSession::open(&dir).expect("open durable session");
    let repo = s.db().workload();
    repo.set_enabled(true);
    s.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)").expect("create");
    let mut workload = SensorWorkload::new(seed);
    for chunk in workload.readings(n).chunks(256) {
        let values: Vec<String> = chunk
            .iter()
            .map(|r| format!("({}, GAUSSIAN({}, {}))", r.rid, r.mean, r.sd * r.sd))
            .collect();
        s.execute(&format!("INSERT INTO readings VALUES {}", values.join(", "))).expect("insert");
    }
    s.execute("ANALYZE readings").expect("analyze");
    // Literal variations collapse onto one fingerprint in the repository.
    for thr in [30, 50, 70] {
        s.execute(&format!("SELECT rid FROM readings WHERE PROB(value < {thr}) > 0.5"))
            .expect("threshold query");
    }
    // A profiled run folds est-vs-actual into the planner-feedback store.
    s.execute("EXPLAIN ANALYZE SELECT rid FROM readings WHERE PROB(value < 50) > 0.5")
        .expect("profiled run");
    let out = json::Value::object()
        .with("workload", repo.to_json())
        .with("plan_feedback", s.db().plan_feedback().to_json());
    drop(s);
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// One operator's estimate-vs-actual record from a profiled plan.
#[derive(Debug, Clone)]
pub struct OpEstimate {
    /// `Name [detail]` of the operator.
    pub op: String,
    /// Planner cardinality estimate (0 when none was attached).
    pub est_rows: u64,
    /// Observed output cardinality.
    pub actual_rows: u64,
    /// `|est - actual| / max(actual, 1)`.
    pub rel_err: f64,
}

/// Estimate-vs-actual over the sensor threshold query
/// `SELECT rid FROM readings WHERE PROB(value < 50) > 0.5`, the query shape
/// Figure 5 sweeps: one record per plan operator, plus whether the table
/// had been `ANALYZE`d when the plan was costed.
#[derive(Debug, Clone)]
pub struct EstimateReport {
    pub analyzed: bool,
    pub n_tuples: usize,
    pub query: String,
    pub operators: Vec<OpEstimate>,
}

impl EstimateReport {
    /// The record for the threshold operator (`ThresholdPred`), the node
    /// whose estimate the stats catalog exists to improve.
    pub fn threshold_op(&self) -> Option<&OpEstimate> {
        self.operators.iter().find(|o| o.op.starts_with("ThresholdPred"))
    }
}

/// Flattens a profile tree into pre-order estimate records.
fn collect_ops(p: &OpProfile, out: &mut Vec<OpEstimate>) {
    out.push(OpEstimate {
        op: format!("{} [{}]", p.name, p.detail),
        est_rows: p.est_rows.unwrap_or(0),
        actual_rows: p.stats.tuples_out,
        rel_err: p.est_error().unwrap_or(0.0),
    });
    for c in &p.children {
        collect_ops(c, out);
    }
}

/// Loads the seeded sensor workload into a scratch database and profiles
/// the threshold query, with or without a preceding `ANALYZE`.
pub fn estimate_report(n: usize, seed: u64, analyzed: bool) -> EstimateReport {
    let query = "SELECT rid FROM readings WHERE PROB(value < 50) > 0.5";
    let mut db = DurableSession::temporary("fig5-estimates").expect("open a scratch database");
    db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)").expect("create");
    let mut workload = SensorWorkload::new(seed);
    for chunk in workload.readings(n).chunks(256) {
        let values: Vec<String> = chunk
            .iter()
            .map(|r| format!("({}, GAUSSIAN({}, {}))", r.rid, r.mean, r.sd * r.sd))
            .collect();
        db.execute(&format!("INSERT INTO readings VALUES {}", values.join(", "))).expect("insert");
    }
    if analyzed {
        db.execute("ANALYZE readings").expect("analyze");
    }
    let out = db.execute(&format!("EXPLAIN ANALYZE {query}")).expect("explain");
    let Output::Explain { profile, .. } = out else { panic!("EXPLAIN returns Explain output") };
    let mut operators = Vec::new();
    collect_ops(&profile, &mut operators);
    EstimateReport { analyzed, n_tuples: n, query: query.to_string(), operators }
}

/// JSON array form of the estimate reports.
pub fn estimates_json(reports: &[EstimateReport]) -> json::Value {
    let mut arr = json::Value::array();
    for r in reports {
        let mut ops = json::Value::array();
        for o in &r.operators {
            ops.push(
                json::Value::object()
                    .with("op", o.op.as_str())
                    .with("est_rows", o.est_rows)
                    .with("actual_rows", o.actual_rows)
                    .with("rel_err", o.rel_err),
            );
        }
        arr.push(
            json::Value::object()
                .with("analyzed", r.analyzed)
                .with("n_tuples", r.n_tuples)
                .with("query", r.query.as_str())
                .with("operators", ops),
        );
    }
    arr
}

/// Build phase: generate, convert, encode, append. Returns the heap, the
/// build time, the relation's path, and the sweep's range queries. The
/// workload RNG stream (queries first, then readings) is identical to the
/// original single-mode runner, so matches are comparable across modes and
/// with historical results.
fn build_relation(
    cfg: &Fig5Config,
    n: usize,
    repr: Repr,
) -> std::io::Result<(HeapFile<FileStore>, f64, PathBuf, Vec<Interval>)> {
    std::fs::create_dir_all(&cfg.dir)?;
    let path: PathBuf = cfg.dir.join(format!("readings_{}_{}.dat", n, repr.label()));
    let mut workload = SensorWorkload::new(cfg.seed);
    let queries: Vec<Interval> =
        workload.range_queries(cfg.n_queries).iter().map(|q| q.interval()).collect();

    let build_start = Instant::now();
    let mut heap = HeapFile::new(FileStore::create(&path)?, cfg.pool_pages);
    let mut buf = Vec::with_capacity(512);
    for _ in 0..n {
        let r = workload.reading();
        let pdf = repr.materialize(&r.pdf());
        buf.clear();
        buf.extend_from_slice(&r.rid.to_le_bytes());
        encode_pdf1(&pdf, &mut buf);
        heap.insert(&buf)?;
    }
    heap.pool().flush()?;
    let build_secs = build_start.elapsed().as_secs_f64();
    Ok((heap, build_secs, path, queries))
}

/// Evaluates every range query over every surviving pdf of one batch,
/// counting first-query matches (`p > 0.5`), then resets the batch for
/// reuse. The batched kernels are bitwise-identical to the scalar
/// `Pdf1::range_prob`, so the count matches row mode exactly.
fn flush_batch(batch: &mut Pdf1Batch, queries: &[Interval], probs: &mut Vec<f64>) -> usize {
    let mut matches = 0usize;
    for (qi, q) in queries.iter().enumerate() {
        batch.range_prob_into(q, probs);
        if qi == 0 {
            matches += probs.iter().filter(|&&p| p > 0.5).count();
        }
    }
    batch.clear();
    matches
}

/// Query phase: cold scan, evaluate every query against every tuple.
/// Row mode decodes each record into a scalar [`Pdf1`] and probes it;
/// batch mode appends ~[`SCAN_BATCH`] records into a reusable arena-backed
/// [`Pdf1Batch`] and probes them with the flat-loop kernels.
fn query_phase(
    heap: &HeapFile<FileStore>,
    queries: &[Interval],
    mode: ExecMode,
) -> std::io::Result<(f64, usize, IoSnapshot)> {
    heap.pool().clear_cache()?;
    heap.pool().stats().reset();
    let query_start = Instant::now();
    let mut matches = 0usize;
    let mut scan_err: Option<std::io::Error> = None;
    match mode {
        ExecMode::Row => {
            heap.scan(|_, rec| {
                let mut slice = &rec[8..];
                match decode_pdf1(&mut slice) {
                    Ok(pdf) => {
                        for (qi, q) in queries.iter().enumerate() {
                            let p = pdf.range_prob(q);
                            if qi == 0 && p > 0.5 {
                                matches += 1;
                            }
                        }
                        true
                    }
                    Err(e) => {
                        scan_err = Some(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
                        false
                    }
                }
            })?;
        }
        ExecMode::Batch => {
            // The batch path scans through the pool's scan-resistant bulk
            // reader (no per-page LRU maintenance) and decodes straight
            // into a reusable columnar arena.
            let mut batch = Pdf1Batch::new();
            let mut probs: Vec<f64> = Vec::with_capacity(SCAN_BATCH);
            heap.scan_bulk(|_, rec| {
                let mut slice = &rec[8..];
                match decode_pdf1_into(&mut slice, &mut batch) {
                    Ok(()) => {
                        if batch.len() >= SCAN_BATCH {
                            matches += flush_batch(&mut batch, queries, &mut probs);
                        }
                        true
                    }
                    Err(e) => {
                        scan_err = Some(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
                        false
                    }
                }
            })?;
            if scan_err.is_none() {
                matches += flush_batch(&mut batch, queries, &mut probs);
            }
        }
    }
    if let Some(e) = scan_err {
        return Err(e);
    }
    Ok((query_start.elapsed().as_secs_f64(), matches, heap.pool().stats().snapshot()))
}

/// Builds one on-disk relation and runs the range-query scan in row mode.
pub fn run_one(cfg: &Fig5Config, n: usize, repr: Repr) -> std::io::Result<Fig5Row> {
    run_one_mode(cfg, n, repr, ExecMode::Row)
}

/// Builds one on-disk relation and runs the range-query scan in `mode`.
pub fn run_one_mode(
    cfg: &Fig5Config,
    n: usize,
    repr: Repr,
    mode: ExecMode,
) -> std::io::Result<Fig5Row> {
    let (heap, build_secs, path, queries) = build_relation(cfg, n, repr)?;
    let result = query_phase(&heap, &queries, mode);
    std::fs::remove_file(&path).ok();
    let (query_secs, matches, stats) = result?;
    Ok(Fig5Row {
        n_tuples: n,
        repr: repr.label(),
        mode: mode.to_string(),
        build_secs,
        query_secs,
        physical_reads: stats.physical_reads,
        pages: heap.page_count(),
        matches,
        threads: orion_core::exec_par::effective_threads(0),
        io: stats,
    })
}

/// Runs the full sweep in row mode.
pub fn run(cfg: &Fig5Config) -> std::io::Result<Vec<Fig5Row>> {
    run_mode(cfg, ExecMode::Row)
}

/// Runs the full sweep in `mode`.
pub fn run_mode(cfg: &Fig5Config, mode: ExecMode) -> std::io::Result<Vec<Fig5Row>> {
    let mut rows = Vec::new();
    for &n in &cfg.tuple_counts {
        for &repr in &cfg.reprs {
            rows.push(run_one_mode(cfg, n, repr, mode)?);
        }
    }
    Ok(rows)
}

/// One row-vs-batch measurement over the same on-disk relation: the heap
/// is built once and the query phase runs cold in each mode.
#[derive(Debug, Clone)]
pub struct Fig5Compare {
    pub n_tuples: usize,
    pub repr: String,
    pub row_query_secs: f64,
    pub batch_query_secs: f64,
    /// `row_query_secs / batch_query_secs`.
    pub speedup: f64,
    /// First-query match count — identical across modes by construction
    /// (the batch kernels are bitwise-equal to the scalar path), verified
    /// on every run.
    pub matches: usize,
    pub threads: usize,
    /// On-disk footprint per tuple (pages × page size / tuples) — orders
    /// the representations by width for [`wide_repr_speedup`].
    pub record_bytes: usize,
}

impl Fig5Compare {
    /// JSON form, one field per measurement.
    pub fn to_json(&self) -> json::Value {
        json::Value::object()
            .with("n_tuples", self.n_tuples)
            .with("repr", self.repr.as_str())
            .with("row_query_secs", self.row_query_secs)
            .with("batch_query_secs", self.batch_query_secs)
            .with("speedup", self.speedup)
            .with("matches", self.matches)
            .with("threads", self.threads)
            .with("record_bytes", self.record_bytes)
    }
}

/// JSON array over a compare sweep, with the aggregate speedups attached
/// (overall and per representation).
pub fn compare_to_json(rows: &[Fig5Compare]) -> json::Value {
    let mut arr = json::Value::array();
    for r in rows {
        arr.push(r.to_json());
    }
    let mut per_repr = json::Value::object();
    for repr in rows.iter().map(|r| r.repr.as_str()).collect::<BTreeSet<_>>() {
        let subset: Vec<Fig5Compare> = rows.iter().filter(|r| r.repr == repr).cloned().collect();
        per_repr = per_repr.with(repr, aggregate_speedup(&subset));
    }
    json::Value::object()
        .with("figure", "fig5_batch")
        .with("aggregate_speedup", aggregate_speedup(rows))
        .with("repr_aggregate_speedups", per_repr)
        .with("wide_repr_aggregate_speedup", wide_repr_speedup(rows))
        .with("rows", arr)
}

/// Aggregate speedup of the representation where the columnar layout has
/// the most to win: the one with the largest encoded tuples (most bytes
/// per record — fig5's `Discrete(25)`). This is the number the check
/// script's ≥3x gate reads; narrow representations bottleneck on the same
/// scalar `erf`/`exp` in both modes and dilute the sweep-wide aggregate.
pub fn wide_repr_speedup(rows: &[Fig5Compare]) -> f64 {
    let Some(widest) =
        rows.iter().max_by(|a, b| a.record_bytes.cmp(&b.record_bytes)).map(|r| r.repr.clone())
    else {
        return f64::INFINITY;
    };
    let subset: Vec<Fig5Compare> = rows.iter().filter(|r| r.repr == widest).cloned().collect();
    aggregate_speedup(&subset)
}

/// Sweep-level speedup: total row query time over total batch query time
/// (time-weighted, so large configurations dominate — the same weighting
/// the figure's wall clock has).
pub fn aggregate_speedup(rows: &[Fig5Compare]) -> f64 {
    let row: f64 = rows.iter().map(|r| r.row_query_secs).sum();
    let batch: f64 = rows.iter().map(|r| r.batch_query_secs).sum();
    if batch > 0.0 {
        row / batch
    } else {
        f64::INFINITY
    }
}

/// Builds one relation and measures the query phase in both modes.
/// Returns an error if the modes disagree on the match count — they are
/// bitwise-identical by construction, so a mismatch is a kernel bug, not
/// noise.
pub fn compare_one(cfg: &Fig5Config, n: usize, repr: Repr) -> std::io::Result<Fig5Compare> {
    let (heap, _build_secs, path, queries) = build_relation(cfg, n, repr)?;
    let result = (|| {
        let (row_secs, row_matches, _) = query_phase(&heap, &queries, ExecMode::Row)?;
        let (batch_secs, batch_matches, _) = query_phase(&heap, &queries, ExecMode::Batch)?;
        if row_matches != batch_matches {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "mode mismatch on {} x {}: row matched {row_matches}, batch {batch_matches}",
                    n,
                    repr.label()
                ),
            ));
        }
        Ok(Fig5Compare {
            n_tuples: n,
            repr: repr.label(),
            row_query_secs: row_secs,
            batch_query_secs: batch_secs,
            speedup: if batch_secs > 0.0 { row_secs / batch_secs } else { f64::INFINITY },
            matches: row_matches,
            threads: orion_core::exec_par::effective_threads(0),
            record_bytes: heap.page_count() as usize * orion_storage::PAGE_SIZE / n.max(1),
        })
    })();
    std::fs::remove_file(&path).ok();
    result
}

/// Row-vs-batch compare over the whole sweep.
pub fn compare(cfg: &Fig5Config) -> std::io::Result<Vec<Fig5Compare>> {
    let mut rows = Vec::new();
    for &n in &cfg.tuple_counts {
        for &repr in &cfg.reprs {
            rows.push(compare_one(cfg, n, repr)?);
        }
    }
    Ok(rows)
}

/// Removes the scratch directory.
pub fn cleanup(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Fig5Config {
        // Tests run on parallel threads and each removes its directory when
        // done, so every config gets a directory of its own.
        static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Fig5Config {
            tuple_counts: vec![2_000],
            pool_pages: 16,
            n_queries: 2,
            dir: std::env::temp_dir().join(format!("orion_fig5_test_{}_{n}", std::process::id())),
            ..Fig5Config::default()
        }
    }

    #[test]
    fn discrete_occupies_more_pages_and_reads() {
        let cfg = tiny_cfg();
        let hist = run_one(&cfg, 2_000, Repr::Histogram(5)).unwrap();
        let disc = run_one(&cfg, 2_000, Repr::Discrete(25)).unwrap();
        let symb = run_one(&cfg, 2_000, Repr::Symbolic).unwrap();
        assert!(disc.pages > hist.pages, "{} vs {}", disc.pages, hist.pages);
        assert!(disc.physical_reads > hist.physical_reads);
        assert!(symb.pages <= hist.pages);
        cleanup(&cfg.dir);
    }

    #[test]
    fn matches_are_consistent_across_reprs() {
        // At equal accuracy (hist-5 vs disc-25) the query answers should
        // largely agree; symbolic is the ground truth.
        let cfg = tiny_cfg();
        let hist = run_one(&cfg, 2_000, Repr::Histogram(5)).unwrap();
        let disc = run_one(&cfg, 2_000, Repr::Discrete(25)).unwrap();
        let symb = run_one(&cfg, 2_000, Repr::Symbolic).unwrap();
        let tol = 2_000 / 20; // 5% of tuples
        assert!((hist.matches as i64 - symb.matches as i64).unsigned_abs() < tol as u64);
        assert!((disc.matches as i64 - symb.matches as i64).unsigned_abs() < tol as u64);
        cleanup(&cfg.dir);
    }

    #[test]
    fn batch_mode_matches_row_mode_per_repr() {
        // The batched range-probe kernels must agree with the scalar path
        // exactly: compare_one errors out on any match-count divergence.
        let cfg = tiny_cfg();
        for repr in [Repr::Histogram(5), Repr::Discrete(25), Repr::Symbolic] {
            let cmp = compare_one(&cfg, 2_000, repr).unwrap();
            assert!(cmp.matches > 0, "{}: degenerate workload", cmp.repr);
            assert!(cmp.speedup > 0.0);
        }
        cleanup(&cfg.dir);
    }

    #[test]
    fn run_one_mode_reports_its_mode() {
        let cfg = tiny_cfg();
        let row = run_one_mode(&cfg, 1_000, Repr::Histogram(5), ExecMode::Row).unwrap();
        let batch = run_one_mode(&cfg, 1_000, Repr::Histogram(5), ExecMode::Batch).unwrap();
        assert_eq!(row.mode, "row");
        assert_eq!(batch.mode, "batch");
        assert_eq!(row.matches, batch.matches, "modes must agree bitwise");
        let text = rows_to_json(&[batch]).to_string_compact();
        assert!(text.contains("\"mode\":\"batch\""), "{text}");
        cleanup(&cfg.dir);
    }

    #[test]
    fn compare_json_carries_aggregate_speedup() {
        let mk = |repr: &str, row: f64, batch: f64, bytes: usize| Fig5Compare {
            n_tuples: 10,
            repr: repr.into(),
            row_query_secs: row,
            batch_query_secs: batch,
            speedup: row / batch,
            matches: 3,
            threads: 1,
            record_bytes: bytes,
        };
        let rows = vec![mk("hist-5", 2.0, 1.0, 70), mk("disc-25", 8.0, 2.0, 413)];
        assert!((aggregate_speedup(&rows) - 10.0 / 3.0).abs() < 1e-12);
        // The gate metric follows the widest representation, not the sweep.
        assert!((wide_repr_speedup(&rows) - 4.0).abs() < 1e-12);
        let text = compare_to_json(&rows).to_string_compact();
        assert!(text.contains("\"figure\":\"fig5_batch\""), "{text}");
        assert!(text.contains("\"aggregate_speedup\""), "{text}");
        assert!(text.contains("\"repr_aggregate_speedups\""), "{text}");
        assert!(text.contains("\"wide_repr_aggregate_speedup\":4"), "{text}");
        assert!(text.contains("\"disc-25\":4"), "{text}");
        assert!(text.contains("\"speedup\""), "{text}");
    }

    #[test]
    fn io_snapshot_rides_along_in_json() {
        let cfg = tiny_cfg();
        let row = run_one(&cfg, 1_000, Repr::Histogram(5)).unwrap();
        assert_eq!(row.io.physical_reads, row.physical_reads);
        assert!(row.threads >= 1);
        let text = rows_to_json(std::slice::from_ref(&row)).to_string_compact();
        assert!(text.contains("\"threads\""), "{text}");
        let text = stats_json(&[row], &[], json::Value::object()).to_string_compact();
        assert!(text.contains("\"physical_reads\""), "{text}");
        assert!(text.contains("\"cache_misses\""), "{text}");
        assert!(text.contains("\"evictions\""), "{text}");
        assert!(text.contains("\"estimates\""), "{text}");
        assert!(text.contains("\"statements\""), "{text}");
        cleanup(&cfg.dir);
    }

    #[test]
    fn workload_report_populates_statements_and_feedback() {
        let doc = workload_report(500, 42);
        let text = doc.to_string_compact();
        assert!(text.contains("\"workload\""), "{text}");
        assert!(text.contains("\"plan_feedback\""), "{text}");
        // The three literal variants collapsed onto one SELECT entry.
        let stmts = doc
            .get("workload")
            .and_then(|w| w.get("statements"))
            .and_then(json::Value::as_array)
            .expect("statements array");
        let sel = stmts
            .iter()
            .find(|s| {
                s.get("text")
                    .and_then(json::Value::as_str)
                    .is_some_and(|t| t.starts_with("SELECT rid FROM readings"))
            })
            .expect("SELECT entry");
        assert_eq!(sel.get("calls").and_then(json::Value::as_u64), Some(3));
        let fb = doc
            .get("plan_feedback")
            .and_then(|f| f.get("feedback"))
            .and_then(json::Value::as_array)
            .expect("feedback array");
        assert!(!fb.is_empty(), "profiled run folded q-errors");
    }

    #[test]
    fn analyzed_threshold_estimate_within_2x() {
        // The acceptance gate: after ANALYZE, the threshold operator's
        // cardinality estimate tracks the actual within a 2x relative
        // error on the Figure 5 sensor workload.
        let n = 2_000;
        let plain = estimate_report(n, 42, false);
        let analyzed = estimate_report(n, 42, true);
        let before = plain.threshold_op().expect("threshold op in plan");
        let after = analyzed.threshold_op().expect("threshold op in plan");
        // Un-analyzed plans fall back to the magic constants
        // (1000 rows * 0.2 threshold selectivity = 200)...
        assert_eq!(before.est_rows, 200, "magic fallback");
        // ...while analyzed plans use the cdf sketch, and must not be the
        // magic value (non-default per the acceptance criterion).
        assert_ne!(after.est_rows, 200);
        assert!(
            after.rel_err < 2.0,
            "rel_err {} (est {} actual {})",
            after.rel_err,
            after.est_rows,
            after.actual_rows
        );
        assert!(after.rel_err <= before.rel_err, "ANALYZE must not make the estimate worse");
        let text = estimates_json(&[plain, analyzed]).to_string_compact();
        assert!(text.contains("\"analyzed\":true"), "{text}");
        assert!(text.contains("\"actual_rows\""), "{text}");
    }

    #[test]
    fn pages_scale_linearly_with_tuples() {
        let cfg = tiny_cfg();
        let a = run_one(&cfg, 1_000, Repr::Histogram(5)).unwrap();
        let b = run_one(&cfg, 2_000, Repr::Histogram(5)).unwrap();
        let ratio = b.pages as f64 / a.pages as f64;
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
        cleanup(&cfg.dir);
    }
}

//! Morsel-driven parallel scaling of the selection operator.
//!
//! An in-memory relation of Gaussian sensor readings is queried with a
//! probabilistic range selection (`σ_{lo ≤ v ≤ hi}`, the paper's bread-and-
//! butter query) at increasing worker counts. Each run must produce
//! **bit-identical** tuples — the morsel protocol's determinism guarantee —
//! so the sweep doubles as an end-to-end equivalence check on a large
//! input; the reported numbers are wall-clock per thread count and the
//! speedup over single-threaded execution.

use orion_core::prelude::*;
use orion_core::select::select;
use orion_obs::{json, ExecStats, ExecStatsSnapshot};
use orion_pdf::prelude::JointPdf;
use orion_workload::SensorWorkload;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Configuration for the parallel-scaling sweep.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Relation size (acceptance target: 500K; `--quick`: 100K).
    pub n_tuples: usize,
    /// Worker counts to sweep; 1 is always measured first as the baseline.
    pub thread_counts: Vec<usize>,
    /// Morsel size handed to [`ExecOptions`].
    pub morsel_size: usize,
    /// Timed repetitions per thread count (best time wins, to damp noise).
    pub repeats: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            n_tuples: 500_000,
            thread_counts: vec![1, 2, 4, 8],
            morsel_size: orion_core::exec_par::DEFAULT_MORSEL_SIZE,
            repeats: 3,
            seed: 42,
        }
    }
}

impl ParallelConfig {
    /// A scaled-down sweep for quick runs and CI gates.
    pub fn quick() -> Self {
        ParallelConfig { n_tuples: 100_000, repeats: 2, ..Self::default() }
    }
}

/// One measurement of the sweep.
#[derive(Debug, Clone)]
pub struct ParallelRow {
    /// Workload label.
    pub workload: String,
    /// Worker count for this row.
    pub threads: usize,
    /// Best wall-clock selection time across the repeats.
    pub query_secs: f64,
    /// `serial query_secs / this query_secs` (1.0 for the baseline row).
    pub speedup: f64,
    /// Relation size.
    pub n_tuples: usize,
    /// Tuples per morsel.
    pub morsel_size: usize,
    /// `available_parallelism` of the machine that produced the row —
    /// speedups above this core count are not expected.
    pub host_cores: usize,
    /// Result cardinality (identical across thread counts by construction).
    pub out_tuples: usize,
    /// Operator counters accumulated over the repeats, including the
    /// per-worker morsel/busy-time lanes (empty for the serial row) —
    /// the raw material for worker-skew analysis.
    pub stats: ExecStatsSnapshot,
}

impl ParallelRow {
    /// JSON form, one field per measurement.
    pub fn to_json(&self) -> json::Value {
        json::Value::object()
            .with("workload", self.workload.as_str())
            .with("threads", self.threads)
            .with("query_secs", self.query_secs)
            .with("speedup", self.speedup)
            .with("n_tuples", self.n_tuples)
            .with("morsel_size", self.morsel_size)
            .with("host_cores", self.host_cores)
            .with("out_tuples", self.out_tuples)
    }
}

/// JSON array over the whole sweep.
pub fn rows_to_json(rows: &[ParallelRow]) -> json::Value {
    let mut arr = json::Value::array();
    for r in rows {
        arr.push(r.to_json());
    }
    arr
}

/// Operator-stats snapshot for the `.stats.json` sibling artifact: one
/// entry per thread count carrying the full counter set, worker lanes
/// included (so per-worker skew is inspectable after the run).
pub fn stats_json(rows: &[ParallelRow]) -> json::Value {
    let mut arr = json::Value::array();
    for r in rows {
        arr.push(
            json::Value::object()
                .with("threads", r.threads)
                .with("morsel_size", r.morsel_size)
                .with("stats", r.stats.to_json()),
        );
    }
    json::Value::object().with("figure", "fig_parallel").with("rows", arr)
}

/// Builds the reading relation with the parallel bulk loader (ids are
/// nevertheless bit-identical to a serial load, see
/// [`orion_core::exec_par::insert_batch`]).
fn build_relation(cfg: &ParallelConfig) -> (HashMap<String, Relation>, HistoryRegistry) {
    let readings = SensorWorkload::new(cfg.seed).readings(cfg.n_tuples);
    let schema = ProbSchema::new(
        vec![("rid", ColumnType::Int, false), ("v", ColumnType::Real, true)],
        vec![],
    )
    .expect("valid schema");
    let mut rel = Relation::new("readings", schema);
    let mut reg = HistoryRegistry::new();
    let opts = ExecOptions { morsel_size: cfg.morsel_size, ..ExecOptions::default() };
    orion_core::exec_par::insert_batch(&mut rel, &mut reg, &opts, cfg.n_tuples, |i| BulkRow {
        certain: vec![("rid".into(), Value::Int(readings[i].rid))],
        uncertain: vec![(vec!["v".into()], JointPdf::from_pdf1(readings[i].pdf()))],
    })
    .expect("bulk load");
    let mut tables = HashMap::new();
    tables.insert("readings".to_string(), rel);
    (tables, reg)
}

/// Runs the sweep: selection at every requested thread count over one
/// shared relation, verifying bit-identical output against the serial
/// baseline. Panics if any thread count disagrees with serial.
pub fn run(cfg: &ParallelConfig) -> Vec<ParallelRow> {
    let (tables, reg) = build_relation(cfg);
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // The paper's range query: P(v in [40, 60]) — selection floors every
    // Gaussian to the interval, which is the per-tuple work being scaled.
    let pred = Predicate::And(vec![
        Predicate::cmp("v", CmpOp::Ge, 40.0),
        Predicate::cmp("v", CmpOp::Le, 60.0),
    ]);
    let rel = &tables["readings"];

    let mut baseline: Option<Relation> = None;
    let mut serial_secs = 0.0;
    let mut rows = Vec::new();
    let mut counts = cfg.thread_counts.clone();
    if counts.first() != Some(&1) {
        counts.insert(0, 1);
    }
    for threads in counts {
        let stats = Arc::new(ExecStats::new());
        let opts = ExecOptions { threads, morsel_size: cfg.morsel_size, ..ExecOptions::default() }
            .with_stats(Arc::clone(&stats));
        let mut best = f64::INFINITY;
        let mut out_len = 0usize;
        for _ in 0..cfg.repeats.max(1) {
            let start = Instant::now();
            let out = select(rel, &pred, &reg, &opts).expect("selection");
            best = best.min(start.elapsed().as_secs_f64());
            out_len = out.len();
            match &baseline {
                None => baseline = Some(out),
                Some(base) => {
                    assert_eq!(
                        out.tuples, base.tuples,
                        "threads={threads} diverged from serial output"
                    );
                }
            }
        }
        if threads == 1 {
            serial_secs = best;
        }
        rows.push(ParallelRow {
            workload: "select_range_gaussian".to_string(),
            threads,
            query_secs: best,
            speedup: if best > 0.0 { serial_secs / best } else { 0.0 },
            n_tuples: cfg.n_tuples,
            morsel_size: cfg.morsel_size,
            host_cores,
            out_tuples: out_len,
            stats: stats.snapshot(),
        });
    }
    rows
}

/// The speedup measured at `threads`, if that row exists.
pub fn speedup_at(rows: &[ParallelRow], threads: usize) -> Option<f64> {
    rows.iter().find(|r| r.threads == threads).map(|r| r.speedup)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ParallelConfig {
        ParallelConfig {
            n_tuples: 2_000,
            thread_counts: vec![1, 2, 4],
            morsel_size: 64,
            repeats: 1,
            ..ParallelConfig::default()
        }
    }

    #[test]
    fn sweep_produces_one_row_per_thread_count() {
        let rows = run(&tiny_cfg());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].threads, 1);
        assert!((rows[0].speedup - 1.0).abs() < 1e-12);
        let n = rows[0].out_tuples;
        assert!(n > 0, "selection keeps some tuples");
        assert!(rows.iter().all(|r| r.out_tuples == n));
        assert!(rows.iter().all(|r| r.query_secs > 0.0 && r.speedup > 0.0));
    }

    #[test]
    fn stats_snapshot_carries_worker_lanes() {
        let rows = run(&tiny_cfg());
        let par = rows.iter().find(|r| r.threads == 4).expect("4-thread row");
        assert!(!par.stats.workers.is_empty(), "parallel row records worker lanes");
        assert!(par.stats.pdf_floors > 0, "range selection floors pdfs");
        let text = stats_json(&rows).to_string_compact();
        assert!(text.contains("\"figure\":\"fig_parallel\""), "{text}");
        assert!(text.contains("\"workers\""), "{text}");
        assert!(text.contains("\"busy_nanos\""), "{text}");
    }

    #[test]
    fn json_rows_carry_thread_counts() {
        let rows = run(&ParallelConfig { thread_counts: vec![1, 2], ..tiny_cfg() });
        let text = rows_to_json(&rows).to_string_compact();
        assert!(text.contains("\"threads\":1"), "{text}");
        assert!(text.contains("\"threads\":2"), "{text}");
        assert!(text.contains("\"host_cores\""), "{text}");
        assert!(speedup_at(&rows, 2).is_some());
    }
}

//! Figure 6 — **Overhead of Histories**.
//!
//! The paper times two query types over relations of 1K–5K tuples, with
//! and without history maintenance: *joins over range queries* (floors +
//! products) and *projections of the resulting correlated data* (collapse
//! of the 2-D pdfs). The reported overhead is 5–20%; disabling histories
//! is faster but **incorrect** (Figure 3's phantom tuples appear).
//!
//! Setup mirrors the paper's pipeline: a base table `T(id, a, b)` with
//! jointly distributed `(a, b)`; two derived views `Ta = Π_{id,a}(σ(T))`
//! and `Tb = Π_{id,b}(σ(T))` which are historically dependent; the join
//! recombines them per `id`, and the projection then collapses the merged
//! 2-D pdfs back to one attribute.

use orion_core::prelude::*;
use orion_core::project::project;
use orion_core::select::select;
use orion_obs::{json, ExecStats, ExecStatsSnapshot};
use orion_pdf::prelude::*;
use orion_storage::codec::{decode_joint, encode_joint};
use orion_storage::{FileStore, HeapFile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Configuration for the Figure 6 sweep.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// Tuple counts to sweep (paper: 1K–5K).
    pub tuple_counts: Vec<usize>,
    /// Support points per base joint pdf.
    pub points_per_pdf: usize,
    /// Workload seed.
    pub seed: u64,
    /// Measurement repetitions (minimum is reported).
    pub repeats: usize,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config {
            tuple_counts: vec![1_000, 2_000, 3_000, 4_000, 5_000],
            points_per_pdf: 4,
            seed: 42,
            repeats: 3,
        }
    }
}

/// One measurement of the Figure 6 sweep.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    pub n_tuples: usize,
    /// `"join"` or `"project"`.
    pub query: String,
    /// Seconds with history maintenance (correct).
    pub with_hist_secs: f64,
    /// Seconds without history maintenance (fast but wrong).
    pub without_hist_secs: f64,
    /// Relative overhead, percent.
    pub overhead_pct: f64,
    /// Pdf-operation counters with histories on, cumulative over the
    /// measurement repeats.
    pub with_hist_ops: ExecStatsSnapshot,
    /// Pdf-operation counters with histories off, cumulative over the
    /// measurement repeats.
    pub without_hist_ops: ExecStatsSnapshot,
}

impl Fig6Row {
    /// JSON form: timings plus the two nested operator-stats snapshots.
    pub fn to_json(&self) -> json::Value {
        json::Value::object()
            .with("n_tuples", self.n_tuples)
            .with("query", self.query.as_str())
            .with("with_hist_secs", self.with_hist_secs)
            .with("without_hist_secs", self.without_hist_secs)
            .with("overhead_pct", self.overhead_pct)
            .with("with_hist_ops", self.with_hist_ops.to_json())
            .with("without_hist_ops", self.without_hist_ops.to_json())
    }
}

/// JSON array over the whole sweep.
pub fn rows_to_json(rows: &[Fig6Row]) -> json::Value {
    let mut arr = json::Value::array();
    for r in rows {
        arr.push(r.to_json());
    }
    arr
}

/// The operator-stats snapshot the `fig6_history_overhead` binary writes
/// next to its results: the pdf-operation counts that explain where the
/// history overhead comes from (extra collapses and marginalizations).
pub fn stats_json(rows: &[Fig6Row]) -> json::Value {
    let mut arr = json::Value::array();
    for r in rows {
        arr.push(
            json::Value::object()
                .with("n_tuples", r.n_tuples)
                .with("query", r.query.as_str())
                .with("with_hist", r.with_hist_ops.to_json())
                .with("without_hist", r.without_hist_ops.to_json()),
        );
    }
    json::Value::object().with("figure", "fig6").with("operators", arr)
}

/// Builds the base table `T(id, a, b)` with correlated discrete joints.
pub fn base_table(n: usize, points: usize, seed: u64, reg: &mut HistoryRegistry) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = ProbSchema::new(
        vec![
            ("id", ColumnType::Int, false),
            ("a", ColumnType::Real, true),
            ("b", ColumnType::Real, true),
        ],
        vec![vec!["a", "b"]],
    )
    .expect("valid schema");
    let mut rel = Relation::new("T", schema);
    for id in 1..=n as i64 {
        let mut weights: Vec<f64> = (0..points).map(|_| rng.gen_range(0.2..1.0)).collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        let mut pts = Vec::with_capacity(points);
        for p in weights {
            let a = rng.gen_range(0.0..100.0f64).round();
            let b = (a + rng.gen_range(-10.0..10.0f64)).round();
            pts.push((vec![a, b], p));
        }
        let joint = JointPdf::from_points(JointDiscrete::from_points(2, pts).expect("valid joint"));
        rel.insert(reg, &[("id", Value::Int(id))], vec![(vec!["a", "b"], joint)])
            .expect("valid insert");
    }
    rel
}

/// Writes the base table into an on-disk heap file (id + encoded joint per
/// record), so the timed pipelines include a real scan + decode phase, as
/// the paper's PostgreSQL-resident queries did.
pub fn write_base_heap(
    base: &Relation,
    path: &std::path::Path,
) -> std::io::Result<HeapFile<FileStore>> {
    let mut heap = HeapFile::new(FileStore::create(path)?, 256);
    let mut buf = Vec::with_capacity(512);
    for t in base.tuples.iter() {
        let Value::Int(id) = t.certain[0] else { panic!("id is certain Int") };
        buf.clear();
        buf.extend_from_slice(&id.to_le_bytes());
        encode_joint(&t.nodes[0].joint, &mut buf);
        heap.insert(&buf)?;
    }
    heap.pool().flush()?;
    heap.pool().clear_cache()?;
    Ok(heap)
}

/// Scans the heap file back into a relation, registering fresh histories.
fn load_base(heap: &HeapFile<FileStore>, reg: &mut HistoryRegistry) -> Relation {
    let schema = ProbSchema::new(
        vec![
            ("id", ColumnType::Int, false),
            ("a", ColumnType::Real, true),
            ("b", ColumnType::Real, true),
        ],
        vec![vec!["a", "b"]],
    )
    .expect("valid schema");
    let mut rel = Relation::new("T", schema);
    heap.scan(|_, rec| {
        let id = i64::from_le_bytes(rec[..8].try_into().expect("8-byte id"));
        let mut slice = &rec[8..];
        let joint = decode_joint(&mut slice).expect("valid joint");
        rel.insert(reg, &[("id", Value::Int(id))], vec![(vec!["a", "b"], joint)])
            .expect("valid insert");
        true
    })
    .expect("scan");
    rel
}

/// Runs the full join-over-range-queries pipeline (the paper times whole
/// queries: scan + decode, range selections, projections, then the join),
/// with the supplied collapse policy. Returns `(seconds, result tuples,
/// relation)`.
fn join_query(
    heap: &HeapFile<FileStore>,
    reg: &mut HistoryRegistry,
    opts: &ExecOptions,
) -> (f64, usize, Relation) {
    heap.pool().clear_cache().expect("cache clear");
    let t0 = Instant::now();
    let base = &load_base(heap, reg);
    let sel_a = select(base, &Predicate::cmp("a", CmpOp::Lt, 80.0), reg, opts).expect("select a");
    let mut ta = project(&sel_a, &["id", "a"], reg, opts).expect("project a");
    ta.name = "Ta".to_string();
    let sel_b = select(base, &Predicate::cmp("b", CmpOp::Gt, 20.0), reg, opts).expect("select b");
    let mut tb = project(&sel_b, &["id", "b"], reg, opts).expect("project b");
    tb.name = "Tb".to_string();
    // The shared `id` column gets qualified by the view names.
    let join_pred = Predicate::cmp_cols("Ta.id", CmpOp::Eq, "Tb.id");
    let joined = orion_core::join::join(&ta, &tb, Some(&join_pred), reg, opts).expect("join");
    let secs = t0.elapsed().as_secs_f64();
    let n = joined.len();
    (secs, n, joined)
}

/// The projection query over the (lazily joined) correlated data. With
/// histories, projecting triggers the collapse of the dependent 2-D pdfs
/// (the paper's "Project (with histories)" series); without, the nodes are
/// carried as-is — faster, but the output marginals are wrong.
fn project_query(
    joined: &Relation,
    reg: &HistoryRegistry,
    collapse_first: bool,
    opts: &ExecOptions,
) -> (f64, usize) {
    let a_col = joined
        .schema
        .columns()
        .iter()
        .find(|c| c.uncertain && (c.name == "a" || c.name.ends_with(".a")))
        .expect("a column")
        .name
        .clone();
    let t0 = Instant::now();
    let input = if collapse_first {
        let mut collapsed = joined.clone();
        collapsed.tuples = joined
            .tuples
            .iter()
            .map(|t| {
                orion_core::collapse::collapse_tuple_with_stats(
                    t,
                    reg,
                    opts.resolution,
                    opts.stats_ref(),
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .expect("collapse")
            .into();
        collapsed
    } else {
        joined.clone()
    };
    let projected = project(&input, &[a_col.as_str()], reg, opts).expect("project");
    let secs = t0.elapsed().as_secs_f64();
    (secs, projected.len())
}

/// Numbers the sweeps of this process, for their scratch heap file names.
static SWEEP: AtomicU64 = AtomicU64::new(0);

/// Runs the sweep: each tuple count measured with and without histories.
pub fn run(cfg: &Fig6Config) -> Vec<Fig6Row> {
    let mut rows = Vec::new();
    for &n in &cfg.tuple_counts {
        // One collector per (query, policy) cell; counts accumulate over
        // the repeats and ride along in the row for the stats exporter.
        let join_w_stats = Arc::new(ExecStats::new());
        let join_wo_stats = Arc::new(ExecStats::new());
        let proj_w_stats = Arc::new(ExecStats::new());
        let proj_wo_stats = Arc::new(ExecStats::new());
        let with = ExecOptions::default().with_stats(join_w_stats.clone());
        let without = ExecOptions { use_histories: false, ..ExecOptions::default() }
            .with_stats(join_wo_stats.clone());
        let proj_with = ExecOptions::default().with_stats(proj_w_stats.clone());
        let proj_without = ExecOptions { use_histories: false, ..ExecOptions::default() }
            .with_stats(proj_wo_stats.clone());
        // Lazy mode defers the dependent-node merge to the projection.
        let lazy = ExecOptions { eager_collapse: false, ..ExecOptions::default() };

        let mut reg0 = HistoryRegistry::new();
        let base = base_table(n, cfg.points_per_pdf, cfg.seed, &mut reg0);
        let dir = std::env::temp_dir().join("orion_fig6");
        std::fs::create_dir_all(&dir).expect("mkdir");
        // Unique per sweep: concurrent sweeps (the unit tests run two)
        // would otherwise rewrite and delete each other's heap mid-scan.
        let sweep = SWEEP.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("base_{n}_{}_{sweep}.dat", std::process::id()));
        let heap = write_base_heap(&base, &path).expect("write heap");

        // Repeat each measurement and keep the minimum to suppress I/O
        // and allocator jitter.
        let mut join_w = f64::INFINITY;
        let mut join_wo = f64::INFINITY;
        let mut proj_w = f64::INFINITY;
        let mut proj_wo = f64::INFINITY;
        for _ in 0..cfg.repeats {
            let mut reg1 = HistoryRegistry::new();
            let (jw, len_w, _) = join_query(&heap, &mut reg1, &with);
            join_w = join_w.min(jw);

            let mut reg2 = HistoryRegistry::new();
            let (jwo, len_wo, _) = join_query(&heap, &mut reg2, &without);
            join_wo = join_wo.min(jwo);
            debug_assert!(len_w <= len_wo, "histories can only remove phantom combinations");

            // Projection overhead: same lazily-joined input, collapse on/off.
            let mut reg3 = HistoryRegistry::new();
            let (_, _, lazy_joined) = join_query(&heap, &mut reg3, &lazy);
            let (pw, _) = project_query(&lazy_joined, &reg3, true, &proj_with);
            proj_w = proj_w.min(pw);
            let (pwo, _) = project_query(&lazy_joined, &reg3, false, &proj_without);
            proj_wo = proj_wo.min(pwo);
        }
        drop(heap);
        std::fs::remove_file(&path).ok();

        rows.push(Fig6Row {
            n_tuples: n,
            query: "join".to_string(),
            with_hist_secs: join_w,
            without_hist_secs: join_wo,
            overhead_pct: (join_w / join_wo - 1.0) * 100.0,
            with_hist_ops: join_w_stats.snapshot(),
            without_hist_ops: join_wo_stats.snapshot(),
        });
        rows.push(Fig6Row {
            n_tuples: n,
            query: "project".to_string(),
            with_hist_secs: proj_w,
            without_hist_secs: proj_wo,
            overhead_pct: (proj_w / proj_wo - 1.0) * 100.0,
            with_hist_ops: proj_w_stats.snapshot(),
            without_hist_ops: proj_wo_stats.snapshot(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_table_masses_are_full() {
        let mut reg = HistoryRegistry::new();
        let rel = base_table(50, 4, 1, &mut reg);
        assert_eq!(rel.len(), 50);
        for t in rel.tuples.iter() {
            assert!((t.naive_existence() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn histories_change_results_not_just_time() {
        // The with-histories join must produce the exact per-tuple
        // distribution; the without-histories join is a plain product.
        let mut reg0 = HistoryRegistry::new();
        let base = base_table(30, 3, 9, &mut reg0);
        let path = orion_obs::scratch_dir("fig6-test").join("hist.dat");
        let heap = write_base_heap(&base, &path).unwrap();
        let with = ExecOptions::default();
        let mut reg1 = HistoryRegistry::new();
        let (_, n_with, _) = join_query(&heap, &mut reg1, &with);

        let without = ExecOptions { use_histories: false, ..ExecOptions::default() };
        let mut reg2 = HistoryRegistry::new();
        let (_, n_without, _) = join_query(&heap, &mut reg2, &without);
        drop(heap);
        std::fs::remove_file(&path).ok();

        assert!(n_with >= 1);
        assert!(n_without >= n_with);
    }

    #[test]
    fn sweep_produces_both_query_rows() {
        let rows = run(&Fig6Config {
            tuple_counts: vec![100, 200],
            points_per_pdf: 3,
            seed: 3,
            repeats: 1,
        });
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().any(|r| r.query == "join"));
        assert!(rows.iter().any(|r| r.query == "project"));
        for r in &rows {
            assert!(r.with_hist_secs > 0.0 && r.without_hist_secs > 0.0);
        }
    }

    #[test]
    fn sweep_records_operator_stats() {
        let rows =
            run(&Fig6Config { tuple_counts: vec![100], points_per_pdf: 3, seed: 3, repeats: 1 });
        let join = rows.iter().find(|r| r.query == "join").unwrap();
        assert!(join.with_hist_ops.pdf_floors > 0, "{:?}", join.with_hist_ops);
        assert!(join.without_hist_ops.pdf_floors > 0, "{:?}", join.without_hist_ops);
        // History maintenance is the source of collapse + marginalization
        // work; the naive join never does either.
        assert!(join.with_hist_ops.collapses > 0, "{:?}", join.with_hist_ops);
        assert_eq!(join.without_hist_ops.collapses, 0);
        assert_eq!(join.without_hist_ops.pdf_marginalizations, 0);
        let proj = rows.iter().find(|r| r.query == "project").unwrap();
        // Only the with-histories projection collapses the dependent pdfs;
        // the naive one records no pdf operations at all. (Batch counters
        // are bookkeeping, not pdf work, so they are not asserted on —
        // this test must pass under ORION_MODE=batch too.)
        assert!(proj.with_hist_ops.collapses > 0, "{:?}", proj.with_hist_ops);
        let naive = &proj.without_hist_ops;
        assert_eq!(
            (naive.pdf_products, naive.pdf_floors, naive.pdf_marginalizations, naive.collapses),
            (0, 0, 0, 0),
            "{naive:?}"
        );
        let text = stats_json(&rows).to_string_compact();
        assert!(text.contains("\"with_hist\""), "{text}");
        assert!(text.contains("\"pdf_floors\""), "{text}");
    }
}

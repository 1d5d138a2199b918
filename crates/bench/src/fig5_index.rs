//! Figure 5 (index variant) — **threshold queries through a persistent
//! cdf-summary index vs the seed full scan**.
//!
//! The paper's Section IV motivates probabilistic threshold indexing: for
//! selective `σ_{Pr(θ) > p}` queries, a cdf-summary index rules out most
//! tuples from their stored quantile levels alone, so only a small
//! candidate set pays the full probability machinery. This harness builds
//! the fig5 sensor workload in memory, picks predicate thresholds that hit
//! exact target selectivities, and times the same query twice:
//!
//! * **scan** — the seed path: every tuple pays `Pr(value > T)`.
//! * **index** — the cost-based access path over a persistent `cdf` index;
//!   the candidate mask is a sound superset, so the output is
//!   bitwise-identical to the scan (verified on every query).
//!
//! Both paths run in row and batch execution modes. The index build is
//! DDL, timed separately (`build_secs`); `query_speedup` compares steady
//! state while `total_speedup` charges the build to the index side. Each
//! timed batch runs [`REPEATS`] times after a warmup and the best time is
//! kept (see `REPEATS` for why the minimum).

use orion_core::pindex::{IndexDef, IndexHandle, IndexKind, PlannerMode};
use orion_core::plan::plan_threshold_access;
use orion_core::prelude::*;
use orion_core::threshold::threshold_pred_masked;
use orion_obs::json;
use orion_workload::SensorWorkload;
use std::time::Instant;

/// Timed repetitions of each query batch; the best (minimum) batch time is
/// reported. On shared hosts a single descheduling stall can double one
/// batch's wall time — the minimum is the only estimator of steady-state
/// cost that such stalls cannot bias.
pub const REPEATS: usize = 3;

/// Configuration for the index-vs-scan sweep.
#[derive(Debug, Clone)]
pub struct FigIndexConfig {
    /// Relation size.
    pub n_tuples: usize,
    /// Target selectivities to sweep (fraction of tuples passing).
    pub selectivities: Vec<f64>,
    /// Timed repetitions of each query (steady-state measurement).
    pub n_queries: usize,
    /// Probability threshold `p` of `Pr(value > T) > p`.
    pub p: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for FigIndexConfig {
    fn default() -> Self {
        FigIndexConfig {
            n_tuples: 20_000,
            selectivities: vec![0.02, 0.05, 0.1],
            n_queries: 6,
            p: 0.9,
            seed: 42,
        }
    }
}

impl FigIndexConfig {
    /// The paper-scale sweep.
    pub fn full() -> Self {
        FigIndexConfig { n_tuples: 100_000, ..Self::default() }
    }
}

/// One index-vs-scan measurement.
#[derive(Debug, Clone)]
pub struct FigIndexRow {
    pub n_tuples: usize,
    /// Execution mode of both paths (`row` or `batch`).
    pub mode: String,
    /// Requested selectivity.
    pub target_selectivity: f64,
    /// `matches / n_tuples` actually observed.
    pub achieved_selectivity: f64,
    /// The predicate cutoff `T` realizing the target.
    pub threshold: f64,
    /// Probability bound `p`.
    pub p: f64,
    /// Tuples passing the threshold (identical across paths by
    /// construction, verified per query).
    pub matches: usize,
    /// One-time cdf-index build (DDL side).
    pub build_secs: f64,
    /// Scan time for one `n_queries` batch — best of [`REPEATS`] timed
    /// repetitions after a warmup, so scheduler noise on shared hosts
    /// cannot masquerade as a slowdown of either path.
    pub scan_secs: f64,
    /// Index-path time for one `n_queries` batch (planning + probe +
    /// residual evaluation; build excluded), best of [`REPEATS`].
    pub index_secs: f64,
    /// `scan_secs / index_secs` — the figure's gate metric.
    pub query_speedup: f64,
    /// `scan_secs / (index_secs + build_secs)` — build amortized over the
    /// measured repetitions.
    pub total_speedup: f64,
    /// Whether the cost model picked the index (it must at these
    /// selectivities).
    pub chose_index: bool,
    /// Tuples the index mask pruned per query.
    pub pruned: usize,
    pub threads: usize,
}

impl FigIndexRow {
    /// JSON form, one field per measurement.
    pub fn to_json(&self) -> json::Value {
        json::Value::object()
            .with("n_tuples", self.n_tuples)
            .with("mode", self.mode.as_str())
            .with("target_selectivity", self.target_selectivity)
            .with("achieved_selectivity", self.achieved_selectivity)
            .with("threshold", self.threshold)
            .with("p", self.p)
            .with("matches", self.matches)
            .with("build_secs", self.build_secs)
            .with("scan_secs", self.scan_secs)
            .with("index_secs", self.index_secs)
            .with("query_speedup", self.query_speedup)
            .with("total_speedup", self.total_speedup)
            .with("chose_index", self.chose_index)
            .with("pruned", self.pruned)
            .with("threads", self.threads)
    }
}

/// Smallest steady-state speedup among rows at selectivity ≤ 0.1 — the
/// number the check script's gate reads.
pub fn min_query_speedup(rows: &[FigIndexRow]) -> f64 {
    rows.iter()
        .filter(|r| r.target_selectivity <= 0.1 + 1e-12)
        .map(|r| r.query_speedup)
        .fold(f64::INFINITY, f64::min)
}

/// JSON document over the whole sweep with the gate metric attached.
pub fn rows_to_json(rows: &[FigIndexRow]) -> json::Value {
    let mut arr = json::Value::array();
    for r in rows {
        arr.push(r.to_json());
    }
    json::Value::object()
        .with("figure", "fig5_index")
        .with("min_query_speedup", min_query_speedup(rows))
        .with("rows", arr)
}

/// The generated relation plus the per-tuple cutoffs `c_i` with
/// `Pr(value_i > c_i) = p` exactly: a tuple passes `Pr(value > T) > p` iff
/// `T < c_i`, so the sorted cutoffs convert target selectivities into
/// predicate thresholds with no search.
struct Workbench {
    rel: Relation,
    reg: HistoryRegistry,
    stats: StatsCatalog,
    cuts: Vec<f64>,
}

fn build_workbench(cfg: &FigIndexConfig) -> EngineResult<Workbench> {
    let schema = ProbSchema::new(
        vec![("rid", ColumnType::Int, false), ("value", ColumnType::Real, true)],
        vec![],
    )?;
    let mut rel = Relation::new("readings", schema);
    let mut reg = HistoryRegistry::new();
    let mut workload = SensorWorkload::new(cfg.seed);
    let mut cuts = Vec::with_capacity(cfg.n_tuples);
    for r in workload.readings(cfg.n_tuples) {
        let pdf = r.pdf();
        cuts.push(
            pdf.quantile(1.0 - cfg.p)
                .ok_or_else(|| EngineError::Operator("workload pdf has no quantile".into()))?,
        );
        rel.insert_simple(&mut reg, &[("rid", Value::Int(r.rid))], &[("value", pdf)])?;
    }
    cuts.sort_by(f64::total_cmp);
    let mut stats = StatsCatalog::new();
    stats.insert(analyze_relation(&rel)?);
    Ok(Workbench { rel, reg, stats, cuts })
}

/// The cutoff realizing `sel`: just below the `k`-th largest per-tuple
/// cutoff, so exactly `k = round(sel · n)` tuples pass.
fn threshold_for(cuts: &[f64], sel: f64) -> f64 {
    let k = ((cuts.len() as f64) * sel).round().max(1.0) as usize;
    cuts[cuts.len() - k.min(cuts.len())] - 1e-9
}

/// Runs the query and returns the passing rids.
fn run_query(
    wb: &Workbench,
    pred: &Predicate,
    p: f64,
    mask: Option<&[bool]>,
    opts: &ExecOptions,
) -> EngineResult<Vec<i64>> {
    let out = threshold_pred_masked(&wb.rel, pred, CmpOp::Gt, p, mask, &wb.reg, opts)?;
    let rids = out
        .tuples
        .iter()
        .map(|t| match t.certain[0] {
            Value::Int(v) => v,
            _ => unreachable!("rid is INT"),
        })
        .collect();
    Ok(rids)
}

/// One selectivity × mode measurement over a prebuilt workbench.
fn measure(
    cfg: &FigIndexConfig,
    wb: &Workbench,
    sel: f64,
    mode: orion_core::batch::ExecMode,
) -> EngineResult<FigIndexRow> {
    let t = threshold_for(&wb.cuts, sel);
    let pred = Predicate::cmp("value", CmpOp::Gt, t);

    // Seed path: no catalog in the options, so nothing can prune.
    let scan_opts = ExecOptions { mode, ..ExecOptions::default() };
    let scan_rids = run_query(wb, &pred, cfg.p, None, &scan_opts)?; // warmup
    let mut scan_secs = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        for _ in 0..cfg.n_queries {
            let rids = run_query(wb, &pred, cfg.p, None, &scan_opts)?;
            debug_assert_eq!(rids, scan_rids);
        }
        scan_secs = scan_secs.min(start.elapsed().as_secs_f64());
    }

    // Index path: persistent cdf index + cost-based access planning.
    let handle = IndexHandle::new();
    handle.lock().create(IndexDef {
        name: "ix_value".into(),
        table: "readings".into(),
        column: "value".into(),
        kind: IndexKind::Cdf,
    })?;
    let idx_opts = ExecOptions {
        mode,
        planner: PlannerMode::Cost,
        indexes: Some(handle.clone()),
        ..ExecOptions::default()
    };
    let build_start = Instant::now();
    handle.lock().ensure_built("ix_value", &wb.rel)?;
    let build_secs = build_start.elapsed().as_secs_f64();

    // Warmup probe: captures the planner's verdict and verifies identity
    // once before the clock starts.
    let ap = plan_threshold_access(&wb.rel, &pred, CmpOp::Gt, cfg.p, Some(&wb.stats), &idx_opts)?;
    let chose_index = ap.alternatives.get(1).is_some_and(|a| a.chosen);
    let pruned = ap.mask.as_ref().map_or(0, |m| m.iter().filter(|&&keep| !keep).count());
    let warm_rids = run_query(wb, &pred, cfg.p, ap.mask.as_deref(), &idx_opts)?;
    if warm_rids != scan_rids {
        return Err(EngineError::Operator(format!(
            "index path diverged from scan at selectivity {sel}: {} vs {} matches",
            warm_rids.len(),
            scan_rids.len()
        )));
    }

    let mut index_secs = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        for _ in 0..cfg.n_queries {
            let ap = plan_threshold_access(
                &wb.rel,
                &pred,
                CmpOp::Gt,
                cfg.p,
                Some(&wb.stats),
                &idx_opts,
            )?;
            let idx_rids = run_query(wb, &pred, cfg.p, ap.mask.as_deref(), &idx_opts)?;
            if idx_rids != scan_rids {
                return Err(EngineError::Operator(format!(
                    "index path diverged from scan at selectivity {sel}: {} vs {} matches",
                    idx_rids.len(),
                    scan_rids.len()
                )));
            }
        }
        index_secs = index_secs.min(start.elapsed().as_secs_f64());
    }
    Ok(FigIndexRow {
        n_tuples: cfg.n_tuples,
        mode: mode.to_string(),
        target_selectivity: sel,
        achieved_selectivity: scan_rids.len() as f64 / cfg.n_tuples as f64,
        threshold: t,
        p: cfg.p,
        matches: scan_rids.len(),
        build_secs,
        scan_secs,
        index_secs,
        query_speedup: if index_secs > 0.0 { scan_secs / index_secs } else { f64::INFINITY },
        total_speedup: if index_secs + build_secs > 0.0 {
            scan_secs / (index_secs + build_secs)
        } else {
            f64::INFINITY
        },
        chose_index,
        pruned,
        threads: orion_core::exec_par::effective_threads(0),
    })
}

/// Runs the sweep: every selectivity in both execution modes over one
/// generated relation.
pub fn run(cfg: &FigIndexConfig) -> EngineResult<Vec<FigIndexRow>> {
    use orion_core::batch::ExecMode;
    let wb = build_workbench(cfg)?;
    let mut rows = Vec::new();
    for &sel in &cfg.selectivities {
        for mode in [ExecMode::Row, ExecMode::Batch] {
            rows.push(measure(cfg, &wb, sel, mode)?);
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> FigIndexConfig {
        FigIndexConfig {
            n_tuples: 2_000,
            selectivities: vec![0.05],
            n_queries: 2,
            ..Default::default()
        }
    }

    #[test]
    fn index_path_matches_scan_and_hits_target_selectivity() {
        // measure() errors out on any rid divergence, so a clean run is
        // the bitwise-identity check.
        let rows = run(&tiny_cfg()).unwrap();
        assert_eq!(rows.len(), 2, "row and batch mode");
        for r in &rows {
            assert!((r.achieved_selectivity - 0.05).abs() < 0.01, "{r:?}");
            assert!(r.matches > 0 && r.matches < r.n_tuples);
            assert!(r.chose_index, "cost model must take the index at 5%: {r:?}");
            assert!(r.pruned > r.n_tuples / 2, "mask prunes most tuples: {r:?}");
        }
    }

    #[test]
    fn json_carries_the_gate_metric() {
        let rows = run(&tiny_cfg()).unwrap();
        let text = rows_to_json(&rows).to_string_compact();
        assert!(text.contains("\"figure\":\"fig5_index\""), "{text}");
        assert!(text.contains("\"min_query_speedup\""), "{text}");
        assert!(text.contains("\"query_speedup\""), "{text}");
        assert!(text.contains("\"build_secs\""), "{text}");
        assert!(min_query_speedup(&rows) > 0.0);
    }

    #[test]
    fn threshold_for_realizes_exact_counts() {
        let cuts: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let t = threshold_for(&cuts, 0.1);
        assert_eq!(cuts.iter().filter(|&&c| c > t).count(), 10);
        let t = threshold_for(&cuts, 0.005); // rounds to at least one
        assert_eq!(cuts.iter().filter(|&&c| c > t).count(), 1);
    }
}

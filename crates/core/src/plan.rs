//! Logical query plans and their execution over the probabilistic engine.
//!
//! A [`Plan`] is a small algebra tree (scan / select / project / join /
//! threshold). The same tree can be executed by the probabilistic operators
//! ([`run`]) and by the brute-force possible-worlds reference engine
//! ([`crate::pws`]), which is how the test suite certifies PWS consistency.

use crate::error::{EngineError, Result};
use crate::history::HistoryRegistry;
use crate::join::join;
use crate::pindex::{
    BuildCache, BuiltIndex, IndexDef, IndexHandle, IndexKind, PlannerMode, MIN_PRUNABLE_P,
};
use crate::predicate::{CmpOp, Predicate};
use crate::project::project;
use crate::relation::Relation;
use crate::select::{select_masked, ExecOptions};
use crate::stats_catalog::{
    pred_interval, StatsCatalog, TableStats, MAGIC_ROWS, MAGIC_SELECTIVITY,
    MAGIC_THRESHOLD_SELECTIVITY,
};
use crate::threshold::{threshold_attrs, threshold_pred, threshold_pred_masked};
use orion_obs::{AltPath, ExecStats, OpProfile, Span};
use orion_pdf::prelude::Interval;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// A logical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a named base table.
    Scan(String),
    /// σ_θ.
    Select(Box<Plan>, Predicate),
    /// Π_cols.
    Project(Box<Plan>, Vec<String>),
    /// `left ⋈_θ right` (cross product when the predicate is `None`).
    Join(Box<Plan>, Box<Plan>, Option<Predicate>),
    /// σ_{Pr(attrs) ⊙ p} (outside PWS, Section III-E).
    ThresholdAttrs(Box<Plan>, Vec<String>, CmpOp, f64),
    /// σ_{Pr(θ) ⊙ p} (outside PWS, Section III-E).
    ThresholdPred(Box<Plan>, Predicate, CmpOp, f64),
}

impl Plan {
    /// Convenience: scan.
    pub fn scan(name: &str) -> Plan {
        Plan::Scan(name.to_string())
    }

    /// Convenience: σ_θ over this plan.
    pub fn select(self, pred: Predicate) -> Plan {
        Plan::Select(Box::new(self), pred)
    }

    /// Convenience: Π_cols over this plan.
    pub fn project(self, cols: &[&str]) -> Plan {
        Plan::Project(Box::new(self), cols.iter().map(|s| s.to_string()).collect())
    }

    /// Convenience: join with another plan.
    pub fn join_on(self, other: Plan, pred: Option<Predicate>) -> Plan {
        Plan::Join(Box::new(self), Box::new(other), pred)
    }

    /// The table names the plan scans, left to right.
    pub fn scans(&self) -> Vec<&str> {
        match self {
            Plan::Scan(name) => vec![name],
            Plan::Select(p, _)
            | Plan::Project(p, _)
            | Plan::ThresholdAttrs(p, ..)
            | Plan::ThresholdPred(p, ..) => p.scans(),
            Plan::Join(l, r, _) => [l.scans(), r.scans()].concat(),
        }
    }

    /// Whether the plan contains threshold operators (which possible-worlds
    /// semantics does not define).
    pub fn has_threshold(&self) -> bool {
        match self {
            Plan::Scan(_) => false,
            Plan::Select(p, _) | Plan::Project(p, _) => p.has_threshold(),
            Plan::Join(l, r, _) => l.has_threshold() || r.has_threshold(),
            Plan::ThresholdAttrs(..) | Plan::ThresholdPred(..) => true,
        }
    }
}

/// Estimated output cardinality of `plan` against a [`StatsCatalog`],
/// bottom-up. Scans of analyzed tables use collected row counts; selects
/// and thresholds scale by histogram/cdf-sketch selectivities; anything
/// the catalog cannot answer falls back to the textbook magic constants
/// ([`MAGIC_ROWS`], [`MAGIC_SELECTIVITY`], [`MAGIC_THRESHOLD_SELECTIVITY`]).
/// Returns the estimate plus the table stats in scope (lost after joins,
/// which merge columns from both sides).
fn estimate_node<'a>(plan: &Plan, catalog: &'a StatsCatalog) -> (f64, Option<&'a TableStats>) {
    match plan {
        Plan::Scan(name) => match catalog.get(name) {
            Some(ts) => (ts.rows as f64, Some(ts)),
            None => (MAGIC_ROWS as f64, None),
        },
        Plan::Select(p, pred) => {
            let (rows, ctx) = estimate_node(p, catalog);
            let sel = ctx.map_or(MAGIC_SELECTIVITY, |ts| ts.est_select(pred));
            (rows * sel, ctx)
        }
        Plan::Project(p, _) => estimate_node(p, catalog),
        Plan::Join(l, r, pred) => {
            let (lr, _) = estimate_node(l, catalog);
            let (rr, _) = estimate_node(r, catalog);
            let sel = if pred.is_some() { MAGIC_SELECTIVITY } else { 1.0 };
            (lr * rr * sel, None)
        }
        Plan::ThresholdAttrs(p, attrs, op, prob) => {
            let (rows, ctx) = estimate_node(p, catalog);
            let sel = ctx.map_or(MAGIC_THRESHOLD_SELECTIVITY, |ts| {
                ts.est_threshold_attrs(attrs, *op, *prob)
            });
            (rows * sel, ctx)
        }
        Plan::ThresholdPred(p, pred, op, prob) => {
            let (rows, ctx) = estimate_node(p, catalog);
            let sel = ctx
                .map_or(MAGIC_THRESHOLD_SELECTIVITY, |ts| ts.est_threshold_pred(pred, *op, *prob));
            (rows * sel, ctx)
        }
    }
}

/// Estimated output cardinality of `plan`, rounded to whole rows.
pub fn estimate_rows(plan: &Plan, catalog: &StatsCatalog) -> u64 {
    estimate_node(plan, catalog).0.round().max(0.0) as u64
}

/// Attaches `est_rows` to every node of a profile tree produced by a
/// profiled [`run`] over the same plan. The profile mirrors the plan
/// shape (one node per operator, children in input order), so the walk is
/// positional.
pub fn annotate_estimates(profile: &mut OpProfile, plan: &Plan, catalog: &StatsCatalog) {
    profile.est_rows = Some(estimate_rows(plan, catalog));
    match plan {
        Plan::Scan(_) => {}
        Plan::Select(p, _)
        | Plan::Project(p, _)
        | Plan::ThresholdAttrs(p, ..)
        | Plan::ThresholdPred(p, ..) => {
            if let Some(child) = profile.children.first_mut() {
                annotate_estimates(child, p, catalog);
            }
        }
        Plan::Join(l, r, _) => {
            let mut kids = profile.children.iter_mut();
            if let Some(lp) = kids.next() {
                annotate_estimates(lp, l, catalog);
            }
            if let Some(rp) = kids.next() {
                annotate_estimates(rp, r, catalog);
            }
        }
    }
}

/// Abstract per-operation cost constants for the access-path planner.
///
/// The units are arbitrary but the *ratios* are calibrated from orion-obs
/// counters on the fig5 sensor workload (`elapsed_nanos` attributed per
/// counter increment): one pdf floor-and-collapse costs on the order of
/// microseconds, per-tuple plumbing and an index-page fault-in cost tens to
/// hundreds of nanoseconds, and a candidate-mask probe costs a few
/// nanoseconds. Setting `cpu_tuple = 1` as the unit gives the defaults
/// below.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Faulting one 8 KiB index page through the buffer pool.
    pub io_page: f64,
    /// Per-tuple executor plumbing (clone, refcount, dispatch).
    pub cpu_tuple: f64,
    /// Evaluating one tuple's predicate probability (floor + collapse).
    pub cpu_pdf: f64,
    /// Checking one tuple against an index candidate mask.
    pub cpu_probe: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel { io_page: 10.0, cpu_tuple: 1.0, cpu_pdf: 50.0, cpu_probe: 0.05 }
    }
}

/// The outcome of an access-path decision: the candidate mask to execute
/// with (`None` means full scan) and every alternative the planner priced,
/// winner flagged, for `EXPLAIN` and the profile tree.
#[derive(Debug, Clone, Default)]
pub struct AccessPlan {
    /// Candidate mask from the chosen index path (`None` for scan).
    pub mask: Option<Vec<bool>>,
    /// Priced alternatives (empty when no index path was applicable, so
    /// un-indexed plans render exactly as before).
    pub alternatives: Vec<AltPath>,
}

/// An index definition that could serve an access path over `rel`, with
/// the tree already built for this table version, if any.
struct IndexChoice {
    def: IndexDef,
    cached: Option<Arc<BuiltIndex>>,
    cache: BuildCache,
    epoch: u64,
}

impl IndexChoice {
    /// The first `kind` index over `rel.col`. The catalog lock is held
    /// only for this lookup, never for a build.
    fn find(handle: &IndexHandle, rel: &Relation, col: &str, kind: IndexKind) -> Option<Self> {
        let cat = handle.lock();
        let def = cat.find(&rel.name, Some(col)).into_iter().find(|d| d.kind == kind)?.clone();
        let cache = cat.build_cache();
        Some(IndexChoice {
            cached: cache.tree(&def, rel),
            epoch: cat.epoch(&def.table),
            def,
            cache,
        })
    }

    /// `rebuild + pages · io_page`: a tree built for this version costs
    /// only its pages; otherwise a rebuild of `N · cpu_tuple` plus an
    /// estimated `N / 100` pages.
    fn build_and_pages_cost(&self, n: f64, cm: &CostModel) -> f64 {
        match &self.cached {
            Some(b) => b.pages() as f64 * cm.io_page,
            None => n * cm.cpu_tuple + (n / 100.0).ceil().max(1.0) * cm.io_page,
        }
    }

    /// The tree over `rel`, built with no lock held on a miss.
    fn built(self, rel: &Relation) -> Result<Arc<BuiltIndex>> {
        match self.cached {
            Some(b) => Ok(b),
            None => self.cache.tree_or_build(&self.def, rel, self.epoch),
        }
    }
}

/// Chooses the access path for `σ_{Pr(θ) ⊙ p}` over `rel`: full scan vs an
/// index-assisted threshold through a persistent cdf-summary index.
///
/// * scan cost: `N · (cpu_tuple + cpu_pdf)`
/// * index cost: `rebuild + pages · io_page + N · cpu_probe +
///   C · (cpu_tuple + cpu_pdf)` where `C` is the catalog's threshold
///   estimate (magic `N/3` when unanalyzed) and `rebuild = N · cpu_tuple`
///   when no tree was built for this table version yet.
///
/// [`PlannerMode::Rule`] always takes a usable index; [`PlannerMode::Cost`]
/// compares the two totals. Either way the returned mask is a *sound
/// superset* of the passing set, so execution results are bitwise identical
/// to the scan.
pub fn plan_threshold_access(
    rel: &Relation,
    pred: &Predicate,
    op: CmpOp,
    p: f64,
    catalog: Option<&StatsCatalog>,
    opts: &ExecOptions,
) -> Result<AccessPlan> {
    let Some(handle) = opts.indexes.as_ref() else { return Ok(AccessPlan::default()) };
    if !matches!(op, CmpOp::Gt | CmpOp::Ge) || p.is_nan() || p < MIN_PRUNABLE_P {
        return Ok(AccessPlan::default());
    }
    let Some((col, lo, hi)) = pred_interval(pred) else { return Ok(AccessPlan::default()) };
    if lo > hi {
        return Ok(AccessPlan::default());
    }
    let Some(ix) = IndexChoice::find(handle, rel, &col, IndexKind::Cdf) else {
        return Ok(AccessPlan::default());
    };
    let def = &ix.def;
    let cm = CostModel::default();
    let n = rel.len() as f64;
    let scan_cost = n * (cm.cpu_tuple + cm.cpu_pdf);
    let sel = catalog
        .and_then(|c| c.get(&rel.name))
        .map_or(MAGIC_SELECTIVITY, |ts| ts.est_threshold_pred(pred, op, p));
    let index_cost =
        ix.build_and_pages_cost(n, &cm) + n * cm.cpu_probe + sel * n * (cm.cpu_tuple + cm.cpu_pdf);
    let use_index = match opts.planner {
        PlannerMode::Rule => true,
        PlannerMode::Cost => index_cost < scan_cost,
    };
    let mut alternatives = vec![
        AltPath { path: "scan".into(), cost: scan_cost, chosen: !use_index },
        AltPath {
            path: format!("index-threshold({})", def.name),
            cost: index_cost,
            chosen: use_index,
        },
    ];
    if !use_index {
        return Ok(AccessPlan { mask: None, alternatives });
    }
    match ix.built(rel)?.threshold_mask(&Interval::new(lo, hi), op, p)? {
        Some((mask, _probes)) => Ok(AccessPlan { mask: Some(mask), alternatives }),
        None => {
            // The built index declined (not prunable after all): execute as
            // a scan and report that in the decision record.
            alternatives[0].chosen = true;
            alternatives[1].chosen = false;
            Ok(AccessPlan { mask: None, alternatives })
        }
    }
}

/// Chooses the access path for `σ_θ` with a certain-column range predicate:
/// full scan vs an index-range scan through a persistent expected-value
/// index. Cost formulas mirror [`plan_threshold_access`] minus the pdf
/// term (`scan = N · cpu_tuple`, `index = rebuild + pages · io_page +
/// N · cpu_probe + C · cpu_tuple`).
///
/// Masks are only ever produced for predicates confined to one *certain*
/// column — for uncertain predicates, flooring leaves residual mass an
/// index bound cannot decide, so those always scan.
pub fn plan_select_access(
    rel: &Relation,
    pred: &Predicate,
    catalog: Option<&StatsCatalog>,
    opts: &ExecOptions,
) -> Result<AccessPlan> {
    let Some(handle) = opts.indexes.as_ref() else { return Ok(AccessPlan::default()) };
    let Some((col, lo, hi)) = pred_interval(pred) else { return Ok(AccessPlan::default()) };
    if lo > hi || rel.schema.column(&col).is_none_or(|c| c.uncertain) {
        return Ok(AccessPlan::default());
    }
    let Some(ix) = IndexChoice::find(handle, rel, &col, IndexKind::Evx) else {
        return Ok(AccessPlan::default());
    };
    let def = &ix.def;
    let cm = CostModel::default();
    let n = rel.len() as f64;
    let scan_cost = n * cm.cpu_tuple;
    let sel =
        catalog.and_then(|c| c.get(&rel.name)).map_or(MAGIC_SELECTIVITY, |ts| ts.est_select(pred));
    let index_cost = ix.build_and_pages_cost(n, &cm) + n * cm.cpu_probe + sel * n * cm.cpu_tuple;
    let use_index = match opts.planner {
        PlannerMode::Rule => true,
        PlannerMode::Cost => index_cost < scan_cost,
    };
    let mut alternatives = vec![
        AltPath { path: "scan".into(), cost: scan_cost, chosen: !use_index },
        AltPath { path: format!("index-range({})", def.name), cost: index_cost, chosen: use_index },
    ];
    if !use_index {
        return Ok(AccessPlan { mask: None, alternatives });
    }
    match ix.built(rel)?.range_mask(lo, hi)? {
        Some((mask, _probes)) => Ok(AccessPlan { mask: Some(mask), alternatives }),
        None => {
            alternatives[0].chosen = true;
            alternatives[1].chosen = false;
            Ok(AccessPlan { mask: None, alternatives })
        }
    }
}

/// The operator name a plan node traces and profiles under.
fn op_name(plan: &Plan) -> &'static str {
    match plan {
        Plan::Scan(_) => "Scan",
        Plan::Select(..) => "Select",
        Plan::Project(..) => "Project",
        Plan::Join(..) => "Join",
        Plan::ThresholdAttrs(..) => "ThresholdAttrs",
        Plan::ThresholdPred(..) => "ThresholdPred",
    }
}

/// The argument summary a plan node profiles under (`EXPLAIN`'s brackets).
fn op_detail(plan: &Plan) -> String {
    match plan {
        Plan::Scan(name) => name.clone(),
        Plan::Select(_, pred) => pred.to_string(),
        Plan::Project(_, cols) => cols.join(", "),
        Plan::Join(_, _, Some(pred)) => pred.to_string(),
        Plan::Join(_, _, None) => "cross".to_string(),
        Plan::ThresholdAttrs(_, attrs, op, prob) => format!("Pr({}) {op} {prob}", attrs.join(", ")),
        Plan::ThresholdPred(_, pred, op, prob) => format!("Pr({pred}) {op} {prob}"),
    }
}

/// A span on the statement's `exec` lane, inert when the statement is not
/// traced. Operator spans open before child recursion, so they nest like
/// the plan tree and cover inclusive time — self time lives in the
/// `ExecStats` args a profiled run attaches.
fn op_span(opts: &ExecOptions, plan: &Plan) -> Span {
    match &opts.trace {
        Some(t) => t.lane("exec").span(op_name(plan), "exec"),
        None => Span::noop(),
    }
}

/// Executes a plan with the probabilistic operators, scans resolved against
/// a table map. [`run`] without a catalog, the profile dropped.
pub fn execute(
    plan: &Plan,
    tables: &HashMap<String, Relation>,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<Relation> {
    run(plan, &|name| tables.get(name), reg, opts, None).map(|(rel, _)| rel.into_owned())
}

/// The plan runner: every query — SQL `SELECT`, `EXPLAIN`, the differential
/// oracles — executes through this one recursion.
///
/// `source` resolves scan names; a scan hands its relation on by reference,
/// so only a plan that *is* a bare scan ever copies a stored table
/// (`into_owned` on the result). `catalog` feeds the access-path planner's
/// cost estimates; path choice never changes results, only which
/// (bitwise-identical) execution strategy pays for them.
///
/// Profiling is on exactly when the caller attached a collector
/// (`opts.stats`): each operator then counts into a collector of its own,
/// snapshotted into the returned [`OpProfile`] tree (tuple flow and self
/// time are recorded here, at the operator boundaries) and rolled up into
/// the caller's collector. Without one, operators run on `opts` as given
/// and the returned profile is empty.
pub fn run<'t>(
    plan: &Plan,
    source: &dyn Fn(&str) -> Option<&'t Relation>,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
    catalog: Option<&StatsCatalog>,
) -> Result<(Cow<'t, Relation>, OpProfile)> {
    let mut span = op_span(opts, plan);
    let stats = opts.stats.as_ref().map(|_| Arc::new(ExecStats::new()));
    let own_opts = stats.as_ref().map(|s| ExecOptions { stats: Some(s.clone()), ..opts.clone() });
    let node_opts = own_opts.as_ref().unwrap_or(opts);
    let mut children = Vec::new();
    let mut input = |p: &Plan| -> Result<Cow<'t, Relation>> {
        let (rel, profile) = run(p, source, reg, opts, catalog)?;
        if let Some(s) = &stats {
            s.tuples_in.add(rel.len() as u64);
            children.push(profile);
        }
        Ok(rel)
    };
    // Inputs (and the access-path decision) come before each node's timer
    // starts, so elapsed time is per-operator self time.
    let timer = || stats.as_deref().map(ExecStats::timer);
    let mut alternatives = Vec::new();
    let out = match plan {
        Plan::Scan(name) => {
            let _t = timer();
            Cow::Borrowed(
                source(name)
                    .ok_or_else(|| EngineError::Operator(format!("unknown table '{name}'")))?,
            )
        }
        Plan::Select(p, pred) => {
            let rel = input(p)?;
            let ap = plan_select_access(&rel, pred, catalog, opts)?;
            alternatives = ap.alternatives;
            let _t = timer();
            Cow::Owned(select_masked(&rel, pred, ap.mask.as_deref(), reg, node_opts)?)
        }
        Plan::Project(p, cols) => {
            let rel = input(p)?;
            let refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
            let _t = timer();
            Cow::Owned(project(&rel, &refs, reg, node_opts)?)
        }
        Plan::Join(l, r, pred) => {
            let left = input(l)?;
            let right = input(r)?;
            let _t = timer();
            Cow::Owned(join(&left, &right, pred.as_ref(), reg, node_opts)?)
        }
        Plan::ThresholdAttrs(p, attrs, op, prob) => {
            let rel = input(p)?;
            let refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
            let _t = timer();
            Cow::Owned(threshold_attrs(&rel, &refs, *op, *prob, reg, node_opts)?)
        }
        Plan::ThresholdPred(p, pred, op, prob) => {
            let rel = input(p)?;
            let ap = plan_threshold_access(&rel, pred, *op, *prob, catalog, opts)?;
            alternatives = ap.alternatives;
            let _t = timer();
            Cow::Owned(match &ap.mask {
                Some(m) => threshold_pred_masked(&rel, pred, *op, *prob, Some(m), reg, node_opts)?,
                // No persistent index chose to serve this: the
                // support-interval fallback inside threshold_pred (cached
                // per table version) may still prune.
                None => threshold_pred(&rel, pred, *op, *prob, reg, node_opts)?,
            })
        }
    };
    if span.is_recording() {
        span.arg("tuples_out", out.len() as u64);
    }
    let (Some(stats), Some(total)) = (stats, &opts.stats) else {
        return Ok((out, OpProfile::default()));
    };
    stats.tuples_out.add(out.len() as u64);
    let mut profile =
        OpProfile::new(op_name(plan), op_detail(plan)).with_alternatives(alternatives);
    profile.children = children;
    profile.stats = stats.snapshot();
    total.absorb(&profile.stats);
    if span.is_recording() {
        // The per-operator ExecStats delta rides on the span, so the trace
        // alone explains where pdf work happened.
        span.arg("detail", profile.detail.as_str());
        span.arg("tuples_in", profile.stats.tuples_in);
        span.arg("pdf_products", profile.stats.pdf_products);
        span.arg("pdf_floors", profile.stats.pdf_floors);
        span.arg("pdf_marginalizations", profile.stats.pdf_marginalizations);
        span.arg("collapses", profile.stats.collapses);
        span.arg("pairs_pruned", profile.stats.pairs_pruned);
        span.arg("self_nanos", profile.stats.elapsed_nanos);
    }
    Ok((out, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, ProbSchema};
    use crate::value::Value;
    use orion_pdf::prelude::*;

    fn db() -> (HashMap<String, Relation>, HistoryRegistry) {
        let mut reg = HistoryRegistry::new();
        let schema = ProbSchema::new(
            vec![("id", ColumnType::Int, false), ("x", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("t", schema);
        for (id, lo, hi) in [(1, 0.0, 10.0), (2, 5.0, 15.0)] {
            rel.insert_simple(
                &mut reg,
                &[("id", Value::Int(id))],
                &[("x", Pdf1::uniform(lo, hi).unwrap())],
            )
            .unwrap();
        }
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), rel);
        (tables, reg)
    }

    #[test]
    fn execute_pipeline() {
        let (tables, reg) = db();
        let plan = Plan::scan("t").select(Predicate::cmp("x", CmpOp::Lt, 8.0)).project(&["id"]);
        let out = execute(&plan, &tables, &reg, &ExecOptions::default()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema.columns().len(), 1);
        // Tuple 2 exists with probability 0.3 after the floor.
        assert!((out.tuples[1].naive_existence() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn execute_threshold() {
        let (tables, reg) = db();
        let plan = Plan::ThresholdPred(
            Box::new(Plan::scan("t")),
            Predicate::cmp("x", CmpOp::Lt, 8.0),
            CmpOp::Gt,
            0.5,
        );
        let out = execute(&plan, &tables, &reg, &ExecOptions::default()).unwrap();
        assert_eq!(out.len(), 1, "only id=1 has P(x<8) = 0.8 > 0.5");
        assert_eq!(out.value(0, "id").unwrap(), &Value::Int(1));
    }

    /// A profiled run: [`run`] with a fresh collector attached.
    fn profiled(
        plan: &Plan,
        tables: &HashMap<String, Relation>,
        reg: &HistoryRegistry,
        opts: &ExecOptions,
    ) -> (Relation, OpProfile) {
        let opts = opts.clone().with_stats(Arc::new(ExecStats::new()));
        let (rel, profile) = run(plan, &|name| tables.get(name), reg, &opts, None).unwrap();
        (rel.into_owned(), profile)
    }

    #[test]
    fn run_counts_per_operator_and_rolls_up_into_the_callers_collector() {
        let (tables, reg) = db();
        let plan = Plan::scan("t").select(Predicate::cmp("x", CmpOp::Lt, 8.0)).project(&["id"]);
        let total = Arc::new(ExecStats::new());
        let opts = ExecOptions::default().with_stats(total.clone());
        let (_, profile) = run(&plan, &|name| tables.get(name), &reg, &opts, None).unwrap();
        assert_eq!(profile.name, "Project");
        assert_eq!(profile.stats.tuples_in, 2);
        assert_eq!(profile.stats.tuples_out, 2);
        let sel = &profile.children[0];
        assert_eq!(sel.name, "Select");
        assert_eq!(sel.detail, "x < 8");
        assert_eq!(sel.stats.tuples_in, 2);
        assert_eq!(sel.stats.tuples_out, 2);
        assert_eq!(sel.stats.pdf_floors, 2, "one symbolic floor per tuple");
        let scan = &sel.children[0];
        assert_eq!(scan.name, "Scan");
        assert_eq!(scan.stats.tuples_out, 2);
        assert_eq!(total.snapshot().pdf_floors, 2, "the statement total sees every operator");
        // No collector, no profile.
        let plain = ExecOptions::default();
        let (_, profile) = run(&plan, &|name| tables.get(name), &reg, &plain, None).unwrap();
        assert_eq!(profile, OpProfile::default());
    }

    #[test]
    fn unknown_table_errors() {
        let (tables, reg) = db();
        assert!(execute(&Plan::scan("nope"), &tables, &reg, &ExecOptions::default()).is_err());
    }

    #[test]
    fn estimates_use_magic_constants_when_unanalyzed() {
        let plan = Plan::scan("t").select(Predicate::cmp("x", CmpOp::Lt, 8.0));
        let catalog = StatsCatalog::new();
        let est = estimate_rows(&plan, &catalog);
        assert_eq!(est, (MAGIC_ROWS as f64 * MAGIC_SELECTIVITY).round() as u64);
        let t = Plan::ThresholdPred(
            Box::new(Plan::scan("t")),
            Predicate::cmp("x", CmpOp::Lt, 8.0),
            CmpOp::Gt,
            0.5,
        );
        assert_eq!(
            estimate_rows(&t, &catalog),
            (MAGIC_ROWS as f64 * MAGIC_THRESHOLD_SELECTIVITY).round() as u64
        );
    }

    #[test]
    fn estimates_track_analyzed_tables_and_annotate_profiles() {
        let (tables, reg) = db();
        let mut catalog = StatsCatalog::new();
        catalog.insert(crate::stats_catalog::analyze_relation(&tables["t"]).unwrap());
        let scan = Plan::scan("t");
        assert_eq!(estimate_rows(&scan, &catalog), 2, "analyzed scan uses real row count");
        let plan = scan.select(Predicate::cmp("x", CmpOp::Lt, 8.0)).project(&["id"]);
        let (_, mut profile) = profiled(&plan, &tables, &reg, &ExecOptions::default());
        annotate_estimates(&mut profile, &plan, &catalog);
        assert!(profile.est_rows.is_some());
        let sel = &profile.children[0];
        let scan_node = &sel.children[0];
        assert_eq!(scan_node.est_rows, Some(2));
        // Symbolic selects keep maybe-tuples, so actual out is 2; the
        // histogram estimate must be within the table size.
        assert!(sel.est_rows.unwrap() <= 2);
    }

    #[test]
    fn cost_planner_chooses_cdf_index_and_matches_scan() {
        use crate::pindex::{IndexDef, IndexHandle, IndexKind};
        use orion_pdf::sample::XorShift;
        let schema = ProbSchema::new(
            vec![("rid", ColumnType::Int, false), ("v", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("r", schema);
        let mut reg = HistoryRegistry::new();
        let mut rng = XorShift::new(31);
        for rid in 1..=200i64 {
            let mean = rng.next_f64() * 100.0;
            let sd = 1.0 + rng.next_f64() * 2.0;
            rel.insert_simple(
                &mut reg,
                &[("rid", Value::Int(rid))],
                &[("v", Pdf1::gaussian(mean, sd * sd).unwrap())],
            )
            .unwrap();
        }
        let mut tables = HashMap::new();
        tables.insert("r".to_string(), rel);
        let pred = Predicate::And(vec![
            Predicate::cmp("v", CmpOp::Ge, 40.0),
            Predicate::cmp("v", CmpOp::Le, 45.0),
        ]);
        let plan = Plan::ThresholdPred(Box::new(Plan::scan("r")), pred, CmpOp::Gt, 0.5);
        let ids = |r: &Relation| -> Vec<Value> {
            r.tuples.iter().map(|t| t.certain[0].clone()).collect()
        };
        let base = execute(&plan, &tables, &reg, &ExecOptions::default()).unwrap();

        let handle = IndexHandle::new();
        handle
            .lock()
            .create(IndexDef {
                name: "ix_v".into(),
                table: "r".into(),
                column: "v".into(),
                kind: IndexKind::Cdf,
            })
            .unwrap();
        for mode in [PlannerMode::Cost, PlannerMode::Rule] {
            let opts = ExecOptions {
                planner: mode,
                indexes: Some(handle.clone()),
                ..ExecOptions::default()
            };
            let (out, profile) = profiled(&plan, &tables, &reg, &opts);
            assert_eq!(ids(&out), ids(&base), "mode {mode:?} must match the scan bitwise");
            assert_eq!(profile.alternatives.len(), 2, "scan and index both priced");
            assert!(profile.alternatives[1].chosen, "index path wins under {mode:?}");
            assert!(profile.alternatives[1].cost < profile.alternatives[0].cost);
            assert_eq!(profile.stats.index_probes, 200);
            assert!(profile.stats.index_pruned > 100, "selective query prunes most tuples");
        }
    }

    #[test]
    fn select_planner_weighs_rebuild_and_prefers_index_when_fresh() {
        use crate::pindex::{IndexDef, IndexHandle, IndexKind};
        let schema = ProbSchema::new(
            vec![("rid", ColumnType::Int, false), ("x", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("r", schema);
        let mut reg = HistoryRegistry::new();
        for rid in 1..=100i64 {
            rel.insert_simple(
                &mut reg,
                &[("rid", Value::Int(rid))],
                &[("x", Pdf1::uniform(0.0, 1.0).unwrap())],
            )
            .unwrap();
        }
        let mut tables = HashMap::new();
        tables.insert("r".to_string(), rel);
        let plan = Plan::scan("r").select(Predicate::cmp("rid", CmpOp::Le, 10.0));
        let ids = |r: &Relation| -> Vec<Value> {
            r.tuples.iter().map(|t| t.certain[0].clone()).collect()
        };
        let base = execute(&plan, &tables, &reg, &ExecOptions::default()).unwrap();
        assert_eq!(base.len(), 10);

        let handle = IndexHandle::new();
        handle
            .lock()
            .create(IndexDef {
                name: "ix_rid".into(),
                table: "r".into(),
                column: "rid".into(),
                kind: IndexKind::Evx,
            })
            .unwrap();
        // Cold cache under Cost: the rebuild term makes the scan cheaper
        // for a certain-only (pdf-free) predicate.
        let cost_opts = ExecOptions {
            planner: PlannerMode::Cost,
            indexes: Some(handle.clone()),
            ..ExecOptions::default()
        };
        let (out, profile) = profiled(&plan, &tables, &reg, &cost_opts);
        assert_eq!(ids(&out), ids(&base));
        assert!(profile.alternatives[0].chosen, "cold build: scan wins on cost");
        // Rule mode forces the index (building it as a side effect) ...
        let rule_opts = ExecOptions { planner: PlannerMode::Rule, ..cost_opts.clone() };
        let (out, profile) = profiled(&plan, &tables, &reg, &rule_opts);
        assert_eq!(ids(&out), ids(&base));
        assert!(profile.alternatives[1].chosen, "rule mode always takes a usable index");
        assert_eq!(profile.stats.index_probes, 100);
        assert_eq!(profile.stats.index_pruned, 90);
        // ... after which the Cost planner flips to the now-fresh index.
        let (out, profile) = profiled(&plan, &tables, &reg, &cost_opts);
        assert_eq!(ids(&out), ids(&base));
        assert!(profile.alternatives[1].chosen, "fresh build: index-range wins on cost");
    }

    #[test]
    fn has_threshold_detection() {
        let p = Plan::scan("t").select(Predicate::cmp("x", CmpOp::Lt, 1.0));
        assert!(!p.has_threshold());
        let t = Plan::ThresholdAttrs(Box::new(p), vec!["x".into()], CmpOp::Gt, 0.5);
        assert!(t.has_threshold());
        assert!(Plan::scan("a").join_on(t, None).has_threshold());
    }
}

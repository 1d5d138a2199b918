//! The selection operator σ_θ (paper Section III-C).
//!
//! * **Case 1** — every predicate attribute is certain: classical filtering.
//! * **Case 2(a)** — dependency sets disjoint from the predicate are copied.
//! * **Case 2(b)** — dependency sets intersecting the predicate are merged
//!   (`product`, history-aware) and floored where the predicate is false;
//!   fully-floored tuples are removed.
//!
//! A fast path keeps floors **symbolic** when the predicate decomposes into
//! single-attribute comparisons against constants (`[Gaus(5,1),
//! Floor{[5,∞]}]` instead of a materialized histogram) — the paper's
//! Section III-A optimization.

use crate::batch::{CertainLanes, ExecMode, TriVec};
use crate::collapse;
use crate::error::{EngineError, Result};
use crate::history::HistoryRegistry;
use crate::predicate::{BoundPredicate, Predicate, Slot};
use crate::relation::Relation;
use crate::schema::{closure, AttrId};
use crate::tuple::{PdfNode, ProbTuple};
use crate::value::Value;
use orion_obs::{ExecStats, Tracer};
use orion_pdf::prelude::RegionSet;
use std::borrow::Cow;
use std::sync::Arc;

/// Execution options shared by the relational operators.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Grid bins per dimension when continuous pdfs must be materialized.
    pub resolution: usize,
    /// Maintain and honor histories (turning this off reproduces the
    /// paper's incorrect-but-fast Figure 6 baseline).
    pub use_histories: bool,
    /// Collapse historically dependent nodes eagerly after joins
    /// (Section III-D leaves the timing to the implementation).
    pub eager_collapse: bool,
    /// Execution-stats collector. When present, the operators count the pdf
    /// operations they perform (products, floors, marginalizations,
    /// history collapses) into it; tuple flow and wall time are recorded by
    /// the plan runner ([`crate::plan::run`]), which knows operator
    /// boundaries and profiles exactly when a collector is attached here.
    pub stats: Option<Arc<ExecStats>>,
    /// Worker threads for morsel-parallel operators. `0` (the default)
    /// means auto: the `ORION_THREADS` environment variable if set,
    /// otherwise the machine's available parallelism. Output is
    /// bit-identical at any thread count (see [`crate::exec_par`]).
    pub threads: usize,
    /// Tuples per morsel. Inputs no larger than one morsel run serially,
    /// so small relations never pay thread costs; tests shrink this to
    /// force parallelism on tiny inputs.
    pub morsel_size: usize,
    /// Span tracer for this statement. `None` (the default) records
    /// nothing; `EXPLAIN TRACE` attaches a fresh tracer for its statement,
    /// and the plan runner and morsel workers record into it.
    /// Tracing is record-only and never affects results (see
    /// `tests/parallel_equiv.rs`).
    pub trace: Option<Tracer>,
    /// Row- or batch-at-a-time execution. The default honors the
    /// `ORION_MODE` environment variable (`batch` selects batch mode).
    /// Both modes are bit-identical (see `tests/batch_equiv.rs`); batch
    /// mode vectorizes certain-column predicate work and reports batch
    /// counters through [`ExecStats`].
    pub mode: crate::batch::ExecMode,
    /// Access-path policy: cost-based (estimate scan vs index and pick the
    /// cheaper; the default) or rule-based (always prefer a usable index;
    /// set by tests that force the index path). Either way results are
    /// bit-identical — only the access path differs.
    pub planner: crate::pindex::PlannerMode,
    /// Shared secondary-index catalog. `None` (the default) plans pure
    /// scans; sessions attach their catalog so threshold and certain-range
    /// operators can consult persistent indexes.
    pub indexes: Option<crate::pindex::IndexHandle>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            resolution: collapse::DEFAULT_RESOLUTION,
            use_histories: true,
            eager_collapse: true,
            stats: None,
            threads: 0,
            morsel_size: crate::exec_par::DEFAULT_MORSEL_SIZE,
            trace: None,
            mode: crate::batch::ExecMode::from_env(),
            planner: crate::pindex::PlannerMode::Cost,
            indexes: None,
        }
    }
}

impl ExecOptions {
    /// This options set with a stats collector attached.
    pub fn with_stats(mut self, stats: Arc<ExecStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// This options set with a span tracer attached.
    pub fn with_trace(mut self, trace: Tracer) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Borrows the collector in the form the collapse helpers take.
    pub fn stats_ref(&self) -> Option<&ExecStats> {
        self.stats.as_deref()
    }
}

/// Evaluates σ_θ over a relation.
pub fn select(
    rel: &Relation,
    pred: &Predicate,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<Relation> {
    select_masked(rel, pred, None, reg, opts)
}

/// σ_θ with an optional index-supplied candidate mask: tuples with
/// `mask[i] == false` are skipped without evaluation. The access-path
/// planner only supplies masks over *certain-only* predicates (an `evx`
/// index probe), where the mask is a proven superset of the passing set —
/// a skipped tuple would have failed `Predicate::eval` anyway, so masked
/// and unmasked runs are bitwise identical. Predicates touching uncertain
/// columns ignore the mask: flooring leaves residual mass an index bound
/// cannot decide, so every tuple must be floored.
pub fn select_masked(
    rel: &Relation,
    pred: &Predicate,
    mask: Option<&[bool]>,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<Relation> {
    pred.validate(&rel.schema)?;
    if let (Some(m), Some(s)) = (mask, opts.stats_ref()) {
        s.index_probes.add(m.len() as u64);
        s.index_pruned.add(m.iter().filter(|&&keep| !keep).count() as u64);
    }
    let pred_cols = pred.columns();
    let uncertain_cols: Vec<&str> = pred_cols
        .iter()
        .filter(|c| rel.schema.column(c).expect("validated").uncertain)
        .map(|s| s.as_str())
        .collect();

    let mut out = Relation::new(format!("sigma({})", rel.name), rel.schema.clone());
    if uncertain_cols.is_empty() {
        // Case 1: certain-only predicate. Batch mode evaluates the
        // predicate over columnar lanes, one chunk at a time; the lane
        // evaluator reproduces `Predicate::eval` exactly (see
        // `crate::batch`), so the kept set is identical.
        let kept = match opts.mode {
            ExecMode::Row => crate::exec_par::run_tuples(&rel.tuples, opts, |i, t| {
                if mask.is_some_and(|m| !m[i]) {
                    return Ok(None);
                }
                let lookup = certain_lookup(rel, t);
                Ok((pred.eval(&lookup) == Some(true)).then(|| t.clone()))
            })?,
            ExecMode::Batch => crate::exec_par::run_batches(&rel.tuples, opts, |_, lo, chunk| {
                // The index mask composes with the lane verdicts: a masked
                // -out tuple is dropped regardless (it could not pass), so
                // the kept set matches the unmasked scan exactly.
                let lanes = CertainLanes::build(rel, chunk, &pred_cols);
                let tri = lanes.eval(pred);
                Ok(chunk
                    .iter()
                    .enumerate()
                    .zip(tri)
                    .map(|((j, t), k)| {
                        (k == 1 && mask.is_none_or(|m| m[lo + j])).then(|| t.clone())
                    })
                    .collect())
            })?,
        };
        record_selected(opts, &kept);
        out.tuples = Arc::new(kept.into_iter().flatten().collect());
        return Ok(out);
    }

    // Update the visible dependency information: Δ_R = Ω(Δ_T ∪ {A}).
    let a_ids: Vec<AttrId> =
        uncertain_cols.iter().map(|c| rel.schema.column(c).expect("validated").id).collect();
    let mut sets: Vec<Vec<AttrId>> = rel.schema.deps().to_vec();
    sets.push(a_ids.clone());
    out.schema.set_deps(closure(&sets));

    let fast = fast_path_atoms(rel, pred);
    let bound = fast.is_none().then(|| bind_general(rel, pred, &a_ids));
    let computed = match (&fast, opts.mode) {
        // Batch fast path: certain atoms evaluated as chunk-wide lane
        // vectors, floors applied tuple-major — same arithmetic, same
        // order, same counters as the row path.
        (Some(atoms), ExecMode::Batch) => {
            crate::exec_par::run_batches(&rel.tuples, opts, |_, _, chunk| {
                select_chunk_fast(rel, chunk, atoms, opts.stats_ref())
            })?
        }
        _ => crate::exec_par::run_tuples_mode(&rel.tuples, opts, |_, t| match &fast {
            Some(atoms) => select_tuple_fast(rel, t, atoms, opts.stats_ref()),
            None => {
                let bound = bound.as_ref().expect("bound when there is no fast path");
                select_tuple_general(t, bound, &a_ids, reg, opts)
            }
        })?,
    };
    record_selected(opts, &computed);
    out.tuples = Arc::new(computed.into_iter().flatten().filter(|t| !t.is_vacuous()).collect());
    Ok(out)
}

/// Records batch selection density (`Some` entries of the computed vector,
/// before the vacuity check) — the `sel=…%` figure `EXPLAIN ANALYZE`
/// prints. Row mode reports no batch counters.
fn record_selected(opts: &ExecOptions, computed: &[Option<ProbTuple>]) {
    if opts.mode.is_batch() {
        if let Some(s) = opts.stats_ref() {
            s.batch_selected.add(computed.iter().filter(|t| t.is_some()).count() as u64);
        }
    }
}

/// Value lookup over a tuple's certain columns.
pub(crate) fn certain_lookup<'a>(
    rel: &'a Relation,
    t: &'a ProbTuple,
) -> impl Fn(&str) -> Value + 'a {
    move |name| rel.schema.index_of(name).map(|i| t.certain[i].clone()).unwrap_or(Value::Null)
}

/// One fast-path conjunct: either a certain-only atom, or a single
/// uncertain column with its failing region.
pub(crate) enum FastAtom {
    Certain(Predicate),
    Floor { col: String, attr: AttrId, region: RegionSet },
}

/// Decomposes the predicate into fast-path atoms when possible: a
/// conjunction in which each conjunct is either certain-only or a
/// single-uncertain-column comparison against a constant. σ and the
/// `Pr(θ)` evaluator ([`crate::threshold::ProbPredicate`]) share this
/// compiled form.
pub(crate) fn fast_path_atoms(rel: &Relation, pred: &Predicate) -> Option<Vec<FastAtom>> {
    let mut atoms = Vec::new();
    for conj in pred.conjuncts() {
        // OR/NOT inside a conjunct disables the fast path unless certain-only.
        let cols = conj.columns();
        let all_certain =
            cols.iter().all(|c| rel.schema.column(c).is_some_and(|col| !col.uncertain));
        if all_certain {
            atoms.push(FastAtom::Certain(conj.clone()));
            continue;
        }
        let (col, region) = conj.single_column_floor()?;
        let column = rel.schema.column(&col)?;
        if !column.uncertain {
            // Shape matched but the column is certain — treat as certain atom.
            atoms.push(FastAtom::Certain(conj.clone()));
            continue;
        }
        atoms.push(FastAtom::Floor { attr: column.id, col, region });
    }
    Some(atoms)
}

/// Fast path: apply symbolic floors per uncertain column; evaluate certain
/// atoms directly. Returns `None` when the tuple is filtered out.
pub(crate) fn select_tuple_fast(
    rel: &Relation,
    t: &ProbTuple,
    atoms: &[FastAtom],
    stats: Option<&ExecStats>,
) -> Result<Option<ProbTuple>> {
    let mut nodes: Vec<Cow<PdfNode>> = t.nodes.iter().map(Cow::Borrowed).collect();
    for atom in atoms {
        match atom {
            FastAtom::Certain(p) => {
                if p.eval(&certain_lookup(rel, t)) != Some(true) {
                    return Ok(None);
                }
            }
            FastAtom::Floor { col, attr, region } => {
                floor_node(&mut nodes, col, *attr, region, stats)?;
            }
        }
    }
    Ok(Some(with_nodes(t, nodes)))
}

/// Floors the node covering `attr` by `region`. A node still borrowed from
/// the input tuple is replaced by its floored copy; no joint is copied only
/// to be overwritten.
fn floor_node(
    nodes: &mut [Cow<'_, PdfNode>],
    col: &str,
    attr: AttrId,
    region: &RegionSet,
    stats: Option<&ExecStats>,
) -> Result<()> {
    let ni = nodes
        .iter()
        .position(|n| n.covers(attr))
        .ok_or_else(|| EngineError::Operator(format!("no pdf node for '{col}'")))?;
    let dim = nodes[ni].dim_of(attr).expect("node covers attr");
    if let Some(s) = stats {
        s.pdf_floors.inc();
    }
    let floored = nodes[ni].joint.floor_axis(dim, region);
    match &mut nodes[ni] {
        Cow::Owned(n) => n.joint = floored,
        Cow::Borrowed(n) => {
            let n: &PdfNode = n;
            nodes[ni] = Cow::Owned(PdfNode::new(n.dims.clone(), floored, n.ancestors.clone()));
        }
    }
    Ok(())
}

/// `t` with its pdf nodes replaced by `nodes`.
fn with_nodes(t: &ProbTuple, nodes: Vec<Cow<'_, PdfNode>>) -> ProbTuple {
    ProbTuple {
        certain: t.certain.clone(),
        nodes: nodes.into_iter().map(Cow::into_owned).collect(),
    }
}

/// Batch fast path over one chunk. Certain atoms are pure functions of the
/// (immutable) certain values, so their tri-state vectors are precomputed
/// chunk-wide over columnar lanes; the tuple-major walk then replays
/// [`select_tuple_fast`]'s atom sequence per tuple — identical
/// short-circuiting, identical floor order, identical `pdf_floors` counts,
/// and errors surface at the same tuple position as row mode.
fn select_chunk_fast(
    rel: &Relation,
    chunk: &[ProbTuple],
    atoms: &[FastAtom],
    stats: Option<&ExecStats>,
) -> Result<Vec<Option<ProbTuple>>> {
    let tri: Vec<Option<TriVec>> = atoms
        .iter()
        .map(|a| match a {
            FastAtom::Certain(p) => {
                let lanes = CertainLanes::build(rel, chunk, &p.columns());
                Some(lanes.eval(p))
            }
            FastAtom::Floor { .. } => None,
        })
        .collect();
    let mut out = Vec::with_capacity(chunk.len());
    'tuples: for (i, t) in chunk.iter().enumerate() {
        // Flooring never touches certain values, so the precomputed
        // tri-states stay valid throughout the walk.
        let mut nodes: Vec<Cow<PdfNode>> = t.nodes.iter().map(Cow::Borrowed).collect();
        for (k, atom) in atoms.iter().enumerate() {
            match atom {
                FastAtom::Certain(_) => {
                    if tri[k].as_ref().expect("certain atom has a tri vector")[i] != 1 {
                        out.push(None);
                        continue 'tuples;
                    }
                }
                FastAtom::Floor { col, attr, region } => {
                    floor_node(&mut nodes, col, *attr, region, stats)?;
                }
            }
        }
        out.push(Some(with_nodes(t, nodes)));
    }
    Ok(out)
}

/// Binds a general-path predicate once per statement: each uncertain
/// column reads coordinate `i` of the floored point, where `a_ids[i]` is
/// its attribute; each certain column reads its certain value.
pub(crate) fn bind_general(rel: &Relation, pred: &Predicate, a_ids: &[AttrId]) -> BoundPredicate {
    pred.bind(&|name| {
        let idx = rel.schema.index_of(name)?;
        let col = &rel.schema.columns()[idx];
        if col.uncertain {
            a_ids.iter().position(|&a| a == col.id).map(Slot::Dim)
        } else {
            Some(Slot::Certain(idx))
        }
    })
}

/// General path (Case 2(b)): merge the dependency sets intersecting the
/// predicate and floor where θ — bound by [`bind_general`] over `a_ids` —
/// is false.
pub(crate) fn select_tuple_general(
    t: &ProbTuple,
    pred: &BoundPredicate,
    a_ids: &[AttrId],
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<Option<ProbTuple>> {
    // Nodes touched by the predicate.
    let mut touched: Vec<usize> = Vec::new();
    for &a in a_ids {
        match t.node_index_for(a) {
            Some(i) => {
                if !touched.contains(&i) {
                    touched.push(i);
                }
            }
            None => {
                return Err(EngineError::Operator(format!(
                    "uncertain attribute {a} has no pdf node"
                )))
            }
        }
    }
    touched.sort_unstable();

    // Merge them (history-aware product; naive product when histories are
    // disabled for the Figure 6 ablation).
    let merged = if touched.len() == 1 {
        Cow::Borrowed(&t.nodes[touched[0]])
    } else {
        let refs: Vec<&PdfNode> = touched.iter().map(|&i| &t.nodes[i]).collect();
        Cow::Owned(if opts.use_histories {
            collapse::merge_nodes_with_stats(&refs, reg, opts.resolution, opts.stats_ref())?
        } else {
            if let Some(s) = opts.stats_ref() {
                s.pdf_products.add(refs.len() as u64 - 1);
            }
            naive_merge(&refs)?
        })
    };

    // Predicate column `i` is the merged node's dimension `dims[i]`.
    let dims: Vec<usize> = a_ids
        .iter()
        .map(|&a| {
            merged
                .dim_of(a)
                .ok_or_else(|| EngineError::Operator(format!("merged node misses attr {a}")))
        })
        .collect::<Result<_>>()?;

    // Pre-compute the dimension reorder floor_predicate will apply.
    let order = merged.joint.dim_order_after_merge(&dims);

    if let Some(s) = opts.stats_ref() {
        s.pdf_floors.inc();
    }
    let floored = merged
        .joint
        .floor_predicate(&dims, opts.resolution, |x| pred.eval(x, &t.certain) == Some(true))?;
    let new_dims: Vec<crate::tuple::NodeDim> = order.iter().map(|&i| merged.dims[i]).collect();
    let ancestors = match merged {
        Cow::Borrowed(n) => n.ancestors.clone(),
        Cow::Owned(n) => n.ancestors,
    };
    let mut new_node = Some(PdfNode::new(new_dims, floored, ancestors));
    let nodes = (t.nodes.iter().enumerate())
        .filter_map(|(i, n)| match touched.binary_search(&i) {
            Ok(0) => new_node.take(),
            Ok(_) => None,
            Err(_) => Some(n.clone()),
        })
        .collect();
    Ok(Some(ProbTuple { certain: t.certain.clone(), nodes }))
}

/// Plain product of nodes, ignoring histories — the paper's incorrect
/// Figure 3 baseline (public for the ablation harness).
pub fn naive_merge(nodes: &[&PdfNode]) -> Result<PdfNode> {
    let mut it = nodes.iter();
    let first = it.next().ok_or_else(|| EngineError::Operator("merge of zero nodes".into()))?;
    let mut dims = first.dims.clone();
    let mut joint = first.joint.clone();
    let mut ancestors = first.ancestors.clone();
    for n in it {
        for d in &n.dims {
            if let Some(a) = d.column {
                if dims.iter().any(|e| e.column == Some(a)) {
                    return Err(EngineError::Operator(
                        "naive merge of nodes sharing a visible column".into(),
                    ));
                }
            }
        }
        dims.extend_from_slice(&n.dims);
        joint = joint.product(&n.joint);
        ancestors.extend(n.ancestors.iter().copied());
    }
    Ok(PdfNode::new(dims, joint, ancestors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::schema::{ColumnType, ProbSchema};
    use orion_pdf::prelude::*;

    /// The paper's Table II relation.
    fn table2() -> (Relation, HistoryRegistry) {
        let schema = ProbSchema::new(
            vec![("a", ColumnType::Int, true), ("b", ColumnType::Int, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("T", schema);
        let mut reg = HistoryRegistry::new();
        rel.insert_simple(
            &mut reg,
            &[],
            &[
                ("a", Pdf1::discrete(vec![(0.0, 0.1), (1.0, 0.9)]).unwrap()),
                ("b", Pdf1::discrete(vec![(1.0, 0.6), (2.0, 0.4)]).unwrap()),
            ],
        )
        .unwrap();
        rel.insert_simple(&mut reg, &[], &[("a", Pdf1::certain(7.0)), ("b", Pdf1::certain(3.0))])
            .unwrap();
        (rel, reg)
    }

    #[test]
    fn selection_a_lt_b_matches_paper() {
        // Section III-C: σ_{a<b}(T) yields one tuple with joint
        // Discrete({0,1}:0.06, {0,2}:0.04, {1,2}:0.36).
        let (rel, reg) = table2();
        let out =
            select(&rel, &Predicate::cmp_cols("a", CmpOp::Lt, "b"), &reg, &ExecOptions::default())
                .unwrap();
        assert_eq!(out.len(), 1, "tuple 2 (7 !< 3) is fully floored");
        let t = &out.tuples[0];
        assert_eq!(t.nodes.len(), 1, "a and b merged into one dependency set");
        let n = &t.nodes[0];
        let (pa, pb) = (
            n.dim_of(rel.schema.column("a").unwrap().id).unwrap(),
            n.dim_of(rel.schema.column("b").unwrap().id).unwrap(),
        );
        let d = |a: f64, b: f64| {
            let mut pt = vec![0.0; 2];
            pt[pa] = a;
            pt[pb] = b;
            n.joint.density(&pt)
        };
        assert!((d(0.0, 1.0) - 0.06).abs() < 1e-12);
        assert!((d(0.0, 2.0) - 0.04).abs() < 1e-12);
        assert!((d(1.0, 2.0) - 0.36).abs() < 1e-12);
        assert_eq!(d(1.0, 1.0), 0.0);
        assert!((n.mass() - 0.46).abs() < 1e-12);
        // History: the new set descends from both base pdfs.
        assert_eq!(n.ancestors.len(), 2);
        // Visible dependency info merged: Δ = {{a, b}}.
        assert_eq!(out.schema.deps().len(), 1);
        assert_eq!(out.schema.deps()[0].len(), 2);
    }

    #[test]
    fn case1_certain_selection() {
        // σ_{id=1} on the Table I relation keeps one tuple, pdf untouched.
        let schema = ProbSchema::new(
            vec![("id", ColumnType::Int, false), ("loc", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("readings", schema);
        let mut reg = HistoryRegistry::new();
        for (id, m, v) in [(1, 20.0, 5.0), (2, 25.0, 4.0), (3, 13.0, 1.0)] {
            rel.insert_simple(
                &mut reg,
                &[("id", Value::Int(id))],
                &[("loc", Pdf1::gaussian(m, v).unwrap())],
            )
            .unwrap();
        }
        let out =
            select(&rel, &Predicate::cmp("id", CmpOp::Eq, 1i64), &reg, &ExecOptions::default())
                .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.marginal(0, "loc").unwrap().to_string(), "Gaus(20,5)");
    }

    #[test]
    fn fast_path_keeps_symbolic_floor() {
        let schema = ProbSchema::new(vec![("x", ColumnType::Real, true)], vec![]).unwrap();
        let mut rel = Relation::new("t", schema);
        let mut reg = HistoryRegistry::new();
        rel.insert_simple(&mut reg, &[], &[("x", Pdf1::gaussian(5.0, 1.0).unwrap())]).unwrap();
        let out = select(&rel, &Predicate::cmp("x", CmpOp::Lt, 5.0), &reg, &ExecOptions::default())
            .unwrap();
        let m = out.marginal(0, "x").unwrap();
        // The representation stays symbolic: [Gaus(5,1), Floor{[5,inf]}].
        assert_eq!(m.to_string(), "[Gaus(5,1), Floor{[5,inf]}]");
        assert!((m.mass() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fast_path_mixed_certain_and_uncertain_conjuncts() {
        let schema = ProbSchema::new(
            vec![("id", ColumnType::Int, false), ("x", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("t", schema);
        let mut reg = HistoryRegistry::new();
        for id in 1..=3i64 {
            rel.insert_simple(
                &mut reg,
                &[("id", Value::Int(id))],
                &[("x", Pdf1::uniform(0.0, 10.0).unwrap())],
            )
            .unwrap();
        }
        let pred = Predicate::And(vec![
            Predicate::cmp("id", CmpOp::Le, 2i64),
            Predicate::cmp("x", CmpOp::Ge, 5.0),
        ]);
        let out = select(&rel, &pred, &reg, &ExecOptions::default()).unwrap();
        assert_eq!(out.len(), 2);
        for i in 0..2 {
            let m = out.marginal(i, "x").unwrap();
            assert!((m.mass() - 0.5).abs() < 1e-9);
            assert_eq!(m.density(4.0), 0.0);
        }
    }

    #[test]
    fn fully_floored_tuple_removed() {
        let (rel, reg) = table2();
        // a < 0 is impossible for both tuples.
        let out =
            select(&rel, &Predicate::cmp("a", CmpOp::Lt, -1i64), &reg, &ExecOptions::default())
                .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn uncertain_vs_certain_column_comparison() {
        // Predicate mixes an uncertain column with a certain one:
        // x > bound, where bound is a certain per-tuple value.
        let schema = ProbSchema::new(
            vec![("bound", ColumnType::Int, false), ("x", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("t", schema);
        let mut reg = HistoryRegistry::new();
        rel.insert_simple(
            &mut reg,
            &[("bound", Value::Int(5))],
            &[("x", Pdf1::uniform(0.0, 10.0).unwrap())],
        )
        .unwrap();
        let out = select(
            &rel,
            &Predicate::cmp_cols("x", CmpOp::Gt, "bound"),
            &reg,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let m = out.marginal(0, "x").unwrap();
        assert!((m.mass() - 0.5).abs() < 0.05);
        assert!(m.density(2.0) < 1e-9);
    }

    #[test]
    fn or_predicate_takes_general_path() {
        let (rel, reg) = table2();
        // a = 0 OR a = 7: keeps world a=0 of tuple 1 (p 0.1) and tuple 2.
        let pred = Predicate::Or(vec![
            Predicate::cmp("a", CmpOp::Eq, 0i64),
            Predicate::cmp("a", CmpOp::Eq, 7i64),
        ]);
        let out = select(&rel, &pred, &reg, &ExecOptions::default()).unwrap();
        assert_eq!(out.len(), 2);
        let m0 = out.tuples[0].node_for(rel.schema.column("a").unwrap().id).unwrap();
        assert!((m0.mass() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn selection_is_composable_and_order_independent() {
        let schema = ProbSchema::new(vec![("x", ColumnType::Real, true)], vec![]).unwrap();
        let mut rel = Relation::new("t", schema);
        let mut reg = HistoryRegistry::new();
        rel.insert_simple(&mut reg, &[], &[("x", Pdf1::gaussian(0.0, 1.0).unwrap())]).unwrap();
        let opts = ExecOptions::default();
        let p1 = Predicate::cmp("x", CmpOp::Gt, -1.0);
        let p2 = Predicate::cmp("x", CmpOp::Lt, 1.0);
        let ab = select(&select(&rel, &p1, &reg, &opts).unwrap(), &p2, &reg, &opts).unwrap();
        let ba = select(&select(&rel, &p2, &reg, &opts).unwrap(), &p1, &reg, &opts).unwrap();
        let (ma, mb) = (ab.marginal(0, "x").unwrap(), ba.marginal(0, "x").unwrap());
        assert!((ma.mass() - mb.mass()).abs() < 1e-12);
        for &x in &[-1.5, -0.5, 0.0, 0.5, 1.5] {
            assert!((ma.density(x) - mb.density(x)).abs() < 1e-15);
        }
    }

    /// Row and batch mode must agree bit-for-bit on every select path.
    fn assert_modes_agree(build: impl Fn() -> (Relation, HistoryRegistry), pred: &Predicate) {
        // One relation for both runs: AttrIds are globally allocated, so
        // separate builds would not be comparable.
        let (rel, reg) = build();
        let row = select(
            &rel,
            pred,
            &reg,
            &ExecOptions { mode: ExecMode::Row, ..ExecOptions::default() },
        )
        .unwrap();
        let stats = std::sync::Arc::new(orion_obs::ExecStats::new());
        let opts = ExecOptions {
            mode: ExecMode::Batch,
            stats: Some(stats.clone()),
            ..ExecOptions::default()
        };
        let batch = select(&rel, pred, &reg, &opts).unwrap();
        assert_eq!(batch.tuples, row.tuples, "{pred}");
        let snap = stats.snapshot();
        assert!(snap.batches > 0, "batch mode must record batches");
        assert_eq!(snap.batch_rows, rel.len() as u64);
    }

    #[test]
    fn batch_mode_matches_row_mode_on_all_paths() {
        // Case 1 (certain-only), fast path (symbolic floors + mixed certain
        // conjuncts), and the general path (OR over an uncertain column).
        assert_modes_agree(table2, &Predicate::cmp_cols("a", CmpOp::Lt, "b"));
        assert_modes_agree(table2, &Predicate::cmp("a", CmpOp::Lt, 5i64));
        assert_modes_agree(
            table2,
            &Predicate::Or(vec![
                Predicate::cmp("a", CmpOp::Eq, 0i64),
                Predicate::cmp("a", CmpOp::Eq, 7i64),
            ]),
        );
        let certain_rel = || {
            let schema = ProbSchema::new(
                vec![("id", ColumnType::Int, false), ("loc", ColumnType::Real, true)],
                vec![],
            )
            .unwrap();
            let mut rel = Relation::new("readings", schema);
            let mut reg = HistoryRegistry::new();
            for (id, m, v) in [(1, 20.0, 5.0), (2, 25.0, 4.0), (3, 13.0, 1.0)] {
                rel.insert_simple(
                    &mut reg,
                    &[("id", Value::Int(id))],
                    &[("loc", Pdf1::gaussian(m, v).unwrap())],
                )
                .unwrap();
            }
            (rel, reg)
        };
        assert_modes_agree(certain_rel, &Predicate::cmp("id", CmpOp::Le, 2i64));
        assert_modes_agree(
            certain_rel,
            &Predicate::And(vec![
                Predicate::cmp("id", CmpOp::Le, 2i64),
                Predicate::cmp("loc", CmpOp::Ge, 20.0),
            ]),
        );
    }

    #[test]
    fn batch_mode_counts_floors_like_row_mode() {
        // The plan-level regression pins exact pdf_floors counts; the batch
        // fast path must count per tuple exactly as the row path does.
        let count = |mode: ExecMode| {
            let (rel, reg) = table2();
            let stats = std::sync::Arc::new(orion_obs::ExecStats::new());
            let opts = ExecOptions { mode, stats: Some(stats.clone()), ..ExecOptions::default() };
            select(&rel, &Predicate::cmp("a", CmpOp::Lt, 5i64), &reg, &opts).unwrap();
            stats.snapshot().pdf_floors
        };
        assert_eq!(count(ExecMode::Batch), count(ExecMode::Row));
    }

    #[test]
    fn unknown_column_rejected() {
        let (rel, reg) = table2();
        assert!(select(
            &rel,
            &Predicate::cmp("zzz", CmpOp::Eq, 1i64),
            &reg,
            &ExecOptions::default()
        )
        .is_err());
    }
}

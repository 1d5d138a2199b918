//! Operations on probability values (paper Section III-E).
//!
//! These operators act on the probabilistic *model* rather than on possible
//! worlds: `σ_{Pr(A) ⊙ p}` filters tuples by the probability mass of an
//! attribute set, and `σ_{Pr(θ) ⊙ p}` by the probability that a predicate
//! holds. Result tuples are unchanged (no flooring); histories are copied
//! over, as in selection Case 1.
//!
//! `Pr(θ)` is a number, not a derived tuple, and [`ProbPredicate`]
//! computes it as one. It compiles θ once per statement, with σ's atom
//! decomposition, and per tuple reads the mass the floor *would* leave
//! ([`JointPdf::floored_mass`]) instead of building the floored tuple and
//! collapsing it. That fast path applies when every floored block is a
//! 1-D pdf and the tuple's nodes are pairwise ancestor-disjoint (or
//! histories are off). Collapsing is then the identity, and the product of
//! node masses is exactly what the floored tuple's existence probability
//! multiplies. Each mass kernel repeats `floor_axis(..).mass()` operation
//! for operation, so the result is bit-identical to materializing, and so
//! are the `ExecStats` counters. Everything else — `Points`/`Grid` blocks,
//! history-dependent nodes after an UPDATE or a join, predicates with no
//! atom decomposition — takes the materializing path.
//!
//! [`JointPdf::floored_mass`]: orion_pdf::prelude::JointPdf::floored_mass

use crate::collapse;
use crate::error::{EngineError, Result};
use crate::history::HistoryRegistry;
use crate::predicate::{BoundPredicate, CmpOp, Predicate};
use crate::relation::Relation;
use crate::schema::AttrId;
use crate::select::{
    bind_general, certain_lookup, fast_path_atoms, select_tuple_fast, select_tuple_general,
    ExecOptions, FastAtom,
};
use crate::tuple::{PdfNode, ProbTuple};
use orion_pdf::prelude::RegionSet;
use std::sync::Arc;

/// `σ_{Pr(A) ⊙ p}`: keeps tuples whose probability over the attribute set
/// `A` (the mass of its — history-merged — dependency sets) satisfies the
/// comparison.
pub fn threshold_attrs(
    rel: &Relation,
    attrs: &[&str],
    op: CmpOp,
    p: f64,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<Relation> {
    if attrs.is_empty() {
        return Err(EngineError::Operator("Pr() of an empty attribute set".into()));
    }
    let ids: Vec<AttrId> = attrs
        .iter()
        .map(|a| {
            let col = rel
                .schema
                .column(a)
                .ok_or_else(|| EngineError::Schema(format!("unknown column '{a}'")))?;
            if !col.uncertain {
                return Err(EngineError::Operator(format!("Pr() over certain column '{a}'")));
            }
            Ok(col.id)
        })
        .collect::<Result<_>>()?;

    let kept = crate::exec_par::run_tuples_mode(&rel.tuples, opts, |_, t| {
        let prob = attr_set_probability(t, &ids, reg, opts)?;
        let cmp = prob
            .partial_cmp(&p)
            .ok_or_else(|| EngineError::Operator("non-finite probability".into()))?;
        Ok(op.test(cmp).then(|| t.clone()))
    })?;
    Ok(kept_relation(format!("sigma_pr({})", rel.name), rel, kept))
}

/// The threshold result: the kept input tuples, unchanged and in input
/// order, under the input's schema.
fn kept_relation(name: String, rel: &Relation, kept: Vec<Option<ProbTuple>>) -> Relation {
    Relation {
        name,
        schema: rel.schema.clone(),
        tuples: Arc::new(kept.into_iter().flatten().collect()),
    }
}

/// The probability mass of the (merged) dependency sets covering `ids`.
pub fn attr_set_probability(
    t: &ProbTuple,
    ids: &[AttrId],
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<f64> {
    let mut touched: Vec<usize> = Vec::new();
    for &a in ids {
        let i = t
            .node_index_for(a)
            .ok_or_else(|| EngineError::Operator(format!("no pdf node for attr {a}")))?;
        if !touched.contains(&i) {
            touched.push(i);
        }
    }
    let nodes: Vec<&PdfNode> = touched.iter().map(|&i| &t.nodes[i]).collect();
    if nodes.len() == 1 {
        return Ok(nodes[0].mass());
    }
    if opts.use_histories {
        Ok(collapse::merge_nodes_with_stats(&nodes, reg, opts.resolution, opts.stats_ref())?.mass())
    } else {
        if let Some(s) = opts.stats_ref() {
            s.pdf_products.add(nodes.len() as u64 - 1);
        }
        Ok(nodes.iter().map(|n| n.mass()).product())
    }
}

/// `σ_{Pr(θ) ⊙ p}`: keeps tuples for which the probability that θ holds
/// (and the tuple exists) satisfies the comparison. This is the paper's
/// probabilistic threshold range query when θ is a range predicate.
///
/// When the session carries an index catalog ([`ExecOptions::indexes`]) but
/// no persistent index covers the predicate's column, a
/// [`crate::index::SupportIndex`], cached per table version, prunes tuples
/// whose support interval or total mass already rules them out; surviving
/// candidates pay exactly the scan's probability machinery, so results are
/// bitwise identical.
pub fn threshold_pred(
    rel: &Relation,
    pred: &Predicate,
    op: CmpOp,
    p: f64,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<Relation> {
    let mask = support_fallback_mask(rel, pred, op, p, opts);
    threshold_pred_masked(rel, pred, op, p, mask.as_deref(), reg, opts)
}

/// [`threshold_pred`] with an optional candidate mask from an access-path
/// decision. `mask[i] == false` asserts tuple `i` cannot satisfy the
/// threshold (a *sound* claim the index layer must guarantee); such tuples
/// never enter probability evaluation. The iteration set is compacted to
/// the candidate indices up front. Candidates keep their ascending input
/// order, so the surviving tuples come out in exactly the order a full
/// scan would deliver them, and the output is bitwise identical to the
/// unmasked run.
pub fn threshold_pred_masked(
    rel: &Relation,
    pred: &Predicate,
    op: CmpOp,
    p: f64,
    mask: Option<&[bool]>,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<Relation> {
    pred.validate(&rel.schema)?;
    if let (Some(m), Some(s)) = (mask, opts.stats_ref()) {
        s.index_probes.add(m.len() as u64);
        s.index_pruned.add(m.iter().filter(|&&keep| !keep).count() as u64);
    }
    let compiled = ProbPredicate::compile(rel, pred);
    let eval = |t: &ProbTuple| -> Result<Option<ProbTuple>> {
        let prob = compiled.eval(t, reg, opts)?;
        let cmp = prob
            .partial_cmp(&p)
            .ok_or_else(|| EngineError::Operator("non-finite probability".into()))?;
        Ok(op.test(cmp).then(|| t.clone()))
    };
    let kept = match mask {
        // Compacting to the candidate set (rather than early-returning
        // `None` per masked-out tuple) keeps the index path's cost
        // proportional to the candidates, not the relation: a dense
        // `Option<ProbTuple>` buffer over all N tuples costs more than the
        // pruned evaluations save at low selectivities.
        Some(m) => {
            let cands: Vec<usize> =
                m.iter().enumerate().filter_map(|(i, &keep)| keep.then_some(i)).collect();
            crate::exec_par::run_tuples_mode(&cands, opts, |_, &ti| eval(&rel.tuples[ti]))?
        }
        None => crate::exec_par::run_tuples_mode(&rel.tuples, opts, |_, t| eval(t))?,
    };
    Ok(kept_relation(format!("sigma_prob({})", rel.name), rel, kept))
}

/// Builds a candidate mask from a support-interval index when no
/// persistent index covers the predicate's column. The index is cached per
/// table version in the catalog's [`crate::pindex::BuildCache`] (keyed by
/// table, column and the relation's tuple allocation), so a version is
/// indexed once, not once per statement; it is built with no lock held.
///
/// Engages only when the session has index infrastructure at all
/// (`opts.indexes` is `Some`): plain library callers keep the exact scan
/// cost profile they always had. Pruning is restricted to `>`/`>=`
/// thresholds at `p ≥` [`crate::pindex::MIN_PRUNABLE_P`], where the
/// effective-support tail (≤ 1e-9 mass) cannot flip a verdict. Tuples with
/// NULL/missing pdf nodes make [`crate::index::SupportIndex::build`] fail,
/// which disables the fallback wholesale — three-valued logic stays in the
/// per-tuple evaluator, never in the index. Such a failure is cached too.
pub(crate) fn support_fallback_mask(
    rel: &Relation,
    pred: &Predicate,
    op: CmpOp,
    p: f64,
    opts: &ExecOptions,
) -> Option<Vec<bool>> {
    if !matches!(op, CmpOp::Gt | CmpOp::Ge) || p.is_nan() || p < crate::pindex::MIN_PRUNABLE_P {
        return None;
    }
    let handle = opts.indexes.as_ref()?;
    let (col, lo, hi) = crate::stats_catalog::pred_interval(pred)?;
    if lo > hi {
        return None; // contradictory conjunction; let the scan report it
    }
    let cache = {
        let cat = handle.lock();
        if !cat.find(&rel.name, Some(&col)).is_empty() {
            return None; // a persistent index exists — the planner owns this path
        }
        cat.build_cache()
    };
    if !rel.schema.column(&col)?.uncertain {
        return None;
    }
    let idx = cache.support(rel, &col)?;
    let min_mass = if op == CmpOp::Gt { p } else { p - 1e-12 };
    let mut mask = vec![false; rel.len()];
    for ti in idx.candidates(&orion_pdf::prelude::Interval::new(lo, hi), min_mass) {
        mask[ti] = true;
    }
    Some(mask)
}

/// `Pr(θ ∧ tuple exists)` for one tuple: [`ProbPredicate::compile`] then
/// [`ProbPredicate::eval`]. Statements compile once and evaluate every
/// tuple; this wrapper is for one-off calls. The result equals, bit for
/// bit, the existence probability of the tuple floored by θ (collapsed
/// through `reg` when histories are on), clamped into `[0, 1]`.
pub fn predicate_probability(
    rel: &Relation,
    t: &ProbTuple,
    pred: &Predicate,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<f64> {
    ProbPredicate::compile(rel, pred).eval(t, reg, opts)
}

/// Floor atoms per tuple the fast path handles; more take the
/// materializing path.
const MAX_FAST_FLOORS: usize = 8;

/// Fills the unused slots of the fast path's per-node floor list.
static NO_FLOOR: RegionSet = RegionSet::empty();

/// `Pr(θ ∧ tuple exists)` over the tuples of one relation, with θ's shape
/// decided once. See the module docs for the fast path and its
/// bit-identity guarantee.
pub struct ProbPredicate<'a> {
    rel: &'a Relation,
    shape: Shape,
}

enum Shape {
    /// θ reads no uncertain column: evaluated whole, three-valued.
    Certain(Predicate),
    /// A conjunction of certain atoms and single-column floors (σ's fast
    /// path). `fast` is false when there are too many floors to list.
    Atoms { atoms: Vec<FastAtom>, fast: bool },
    /// Anything else: σ's general merge-and-floor path over θ's
    /// uncertain attributes.
    General(BoundPredicate, Vec<AttrId>),
}

impl<'a> ProbPredicate<'a> {
    /// Compiles θ against `rel`'s schema.
    pub fn compile(rel: &'a Relation, pred: &Predicate) -> Self {
        let uncertain: Vec<AttrId> = pred
            .columns()
            .iter()
            .filter_map(|c| {
                let col = rel.schema.column(c)?;
                col.uncertain.then_some(col.id)
            })
            .collect();
        let shape = if uncertain.is_empty() {
            Shape::Certain(pred.clone())
        } else {
            match fast_path_atoms(rel, pred) {
                Some(atoms) => {
                    let floors = atoms.iter().filter(|a| matches!(a, FastAtom::Floor { .. }));
                    let fast = floors.count() <= MAX_FAST_FLOORS;
                    Shape::Atoms { atoms, fast }
                }
                None => Shape::General(bind_general(rel, pred, &uncertain), uncertain),
            }
        };
        ProbPredicate { rel, shape }
    }

    /// `Pr(θ ∧ t exists)`, clamped into `[0, 1]`; an error when it is not
    /// finite.
    pub fn eval(&self, t: &ProbTuple, reg: &HistoryRegistry, opts: &ExecOptions) -> Result<f64> {
        let p = match self.floored_mass(t, opts)? {
            Some(p) => p,
            None => self.materialized(t, reg, opts)?,
        };
        if !p.is_finite() {
            return Err(EngineError::Operator("non-finite probability".into()));
        }
        // Clamp rounding residue (including negative zero) into [0, 1].
        Ok(if p <= 0.0 { 0.0 } else { p.min(1.0) })
    }

    /// The fast path alone, unclamped: certain atoms in order (any
    /// failure gives 0), then the product of node masses in node order,
    /// floored nodes read through
    /// [`orion_pdf::prelude::JointPdf::floored_mass`]. `Ok(None)` means
    /// the tuple needs [`ProbPredicate::materialized`], which counts its
    /// own floors; so this counts floors only once it has a result, and
    /// then exactly as many as the materializing path would have.
    pub fn floored_mass(&self, t: &ProbTuple, opts: &ExecOptions) -> Result<Option<f64>> {
        let count = |floors: u64| {
            if let Some(s) = opts.stats_ref() {
                s.pdf_floors.add(floors);
            }
        };
        let atoms: &[FastAtom] = match &self.shape {
            Shape::General(..) | Shape::Atoms { fast: false, .. } => return Ok(None),
            Shape::Certain(pred) => {
                if pred.eval(&certain_lookup(self.rel, t)) != Some(true) {
                    return Ok(Some(0.0));
                }
                &[]
            }
            Shape::Atoms { atoms, .. } => atoms,
        };
        let mut floors = 0;
        for atom in atoms {
            match atom {
                FastAtom::Certain(p) => {
                    if p.eval(&certain_lookup(self.rel, t)) != Some(true) {
                        count(floors);
                        return Ok(Some(0.0));
                    }
                }
                FastAtom::Floor { col, attr, .. } => {
                    if t.node_index_for(*attr).is_none() {
                        count(floors);
                        return Err(EngineError::Operator(format!("no pdf node for '{col}'")));
                    }
                    floors += 1;
                }
            }
        }
        if opts.use_histories && !collapse::ancestor_disjoint(&t.nodes) {
            return Ok(None);
        }
        // Each floor lands on the first node covering its column, as
        // `node_index_for` picks it; `claimed` marks the floors placed.
        let mut claimed = 0u32;
        let mut p = 1.0;
        for node in &t.nodes {
            let mut here = [(0, &NO_FLOOR); MAX_FAST_FLOORS];
            let mut n = 0;
            let floor_atoms = atoms.iter().filter_map(|a| match a {
                FastAtom::Floor { attr, region, .. } => Some((*attr, region)),
                FastAtom::Certain(_) => None,
            });
            for (k, (attr, region)) in floor_atoms.enumerate() {
                if claimed & (1 << k) == 0 {
                    if let Some(dim) = node.dim_of(attr) {
                        claimed |= 1 << k;
                        here[n] = (dim, region);
                        n += 1;
                    }
                }
            }
            p *= if n == 0 {
                node.mass()
            } else {
                match node.joint.floored_mass(&here[..n]) {
                    Some(m) => m,
                    None => return Ok(None),
                }
            };
        }
        count(floors);
        Ok(Some(p))
    }

    /// The materializing path alone, unclamped: floor a copy of the tuple
    /// as σ would, then take its existence probability, collapsed through
    /// `reg` when histories are on. The reference the fast path is checked
    /// against.
    pub fn materialized(
        &self,
        t: &ProbTuple,
        reg: &HistoryRegistry,
        opts: &ExecOptions,
    ) -> Result<f64> {
        let floored = match &self.shape {
            Shape::Certain(pred) => {
                (pred.eval(&certain_lookup(self.rel, t)) == Some(true)).then(|| t.clone())
            }
            Shape::Atoms { atoms, .. } => select_tuple_fast(self.rel, t, atoms, opts.stats_ref())?,
            Shape::General(pred, attrs) => select_tuple_general(t, pred, attrs, reg, opts)?,
        };
        Ok(match floored {
            None => 0.0,
            Some(ft) if opts.use_histories => {
                collapse::existence_prob_with_stats(&ft, reg, opts.resolution, opts.stats_ref())?
            }
            Some(ft) => ft.naive_existence(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, ProbSchema};
    use crate::value::Value;
    use orion_pdf::prelude::*;

    fn readings() -> (Relation, HistoryRegistry) {
        let schema = ProbSchema::new(
            vec![("id", ColumnType::Int, false), ("v", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("readings", schema);
        let mut reg = HistoryRegistry::new();
        for (id, m, var) in [(1, 20.0, 5.0), (2, 25.0, 4.0), (3, 13.0, 1.0)] {
            rel.insert_simple(
                &mut reg,
                &[("id", Value::Int(id))],
                &[("v", Pdf1::gaussian(m, var).unwrap())],
            )
            .unwrap();
        }
        (rel, reg)
    }

    #[test]
    fn probabilistic_threshold_range_query() {
        // Which sensors are in [18, 22] with probability > 0.5? Only the
        // Gaus(20, 5) reading.
        let (rel, reg) = readings();
        let pred = Predicate::And(vec![
            Predicate::cmp("v", CmpOp::Ge, 18.0),
            Predicate::cmp("v", CmpOp::Le, 22.0),
        ]);
        let out =
            threshold_pred(&rel, &pred, CmpOp::Gt, 0.5, &reg, &ExecOptions::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.value(0, "id").unwrap(), &Value::Int(1));
        // Result pdfs are NOT floored (operation on probability values).
        assert_eq!(out.marginal(0, "v").unwrap().to_string(), "Gaus(20,5)");
    }

    #[test]
    fn predicate_probability_matches_range_prob() {
        let (rel, reg) = readings();
        let pred = Predicate::And(vec![
            Predicate::cmp("v", CmpOp::Ge, 18.0),
            Predicate::cmp("v", CmpOp::Le, 22.0),
        ]);
        let p = predicate_probability(&rel, &rel.tuples[0], &pred, &reg, &ExecOptions::default())
            .unwrap();
        let want = Pdf1::gaussian(20.0, 5.0).unwrap().range_prob(&Interval::new(18.0, 22.0));
        assert!((p - want).abs() < 1e-9);
    }

    #[test]
    fn threshold_attrs_filters_on_existence_mass() {
        // One certain tuple (mass 1) and one partial tuple (mass 0.4).
        let schema = ProbSchema::new(vec![("x", ColumnType::Real, true)], vec![]).unwrap();
        let mut rel = Relation::new("t", schema);
        let mut reg = HistoryRegistry::new();
        rel.insert_simple(&mut reg, &[], &[("x", Pdf1::certain(1.0))]).unwrap();
        rel.insert_simple(&mut reg, &[], &[("x", Pdf1::discrete(vec![(2.0, 0.4)]).unwrap())])
            .unwrap();
        let out =
            threshold_attrs(&rel, &["x"], CmpOp::Gt, 0.5, &reg, &ExecOptions::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert!((out.marginal(0, "x").unwrap().density(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_attrs_validation() {
        let (rel, reg) = readings();
        let opts = ExecOptions::default();
        assert!(threshold_attrs(&rel, &[], CmpOp::Gt, 0.5, &reg, &opts).is_err());
        assert!(threshold_attrs(&rel, &["id"], CmpOp::Gt, 0.5, &reg, &opts).is_err());
        assert!(threshold_attrs(&rel, &["nope"], CmpOp::Gt, 0.5, &reg, &opts).is_err());
    }

    #[test]
    fn support_fallback_prunes_without_changing_results() {
        // Mixed relation: an in-range gaussian (kept), a far-away gaussian
        // (support-pruned), and a partial mass-0.4 maybe-tuple carrying a
        // NULL certain key (mass-pruned for p = 0.5).
        let schema = ProbSchema::new(
            vec![("id", ColumnType::Int, false), ("v", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("r", schema);
        let mut reg = HistoryRegistry::new();
        rel.insert_simple(
            &mut reg,
            &[("id", Value::Int(1))],
            &[("v", Pdf1::gaussian(20.0, 4.0).unwrap())],
        )
        .unwrap();
        rel.insert_simple(
            &mut reg,
            &[("id", Value::Int(2))],
            &[("v", Pdf1::gaussian(500.0, 1.0).unwrap())],
        )
        .unwrap();
        rel.insert_simple(
            &mut reg,
            &[("id", Value::Null)],
            &[("v", Pdf1::discrete(vec![(21.0, 0.4)]).unwrap())],
        )
        .unwrap();
        let pred = Predicate::And(vec![
            Predicate::cmp("v", CmpOp::Ge, 18.0),
            Predicate::cmp("v", CmpOp::Le, 22.0),
        ]);
        let ids = |r: &Relation| -> Vec<String> {
            r.tuples.iter().map(|t| format!("{:?}", t.certain[0])).collect()
        };
        // Plain scan: no index infrastructure attached.
        let scan =
            threshold_pred(&rel, &pred, CmpOp::Gt, 0.5, &reg, &ExecOptions::default()).unwrap();
        // Fallback path: a session-level catalog exists but holds no
        // persistent index for this column.
        let stats = Arc::new(orion_obs::ExecStats::new());
        let opts = ExecOptions {
            indexes: Some(crate::pindex::IndexHandle::new()),
            ..ExecOptions::default().with_stats(stats.clone())
        };
        let pruned = threshold_pred(&rel, &pred, CmpOp::Gt, 0.5, &reg, &opts).unwrap();
        assert_eq!(ids(&scan), vec!["Int(1)"]);
        assert_eq!(ids(&scan), ids(&pruned));
        let snap = stats.snapshot();
        assert_eq!(snap.index_probes, 3, "whole relation examined against the mask");
        assert_eq!(snap.index_pruned, 2, "far support and low mass skip evaluation");
        // A conjunct on the NULL-bearing certain column spans two columns,
        // so no interval extracts and the fallback stands down — NULL
        // three-valued logic stays entirely in the per-tuple evaluator,
        // and both paths agree the NULL row fails.
        let pred3 = Predicate::And(vec![
            Predicate::cmp("id", CmpOp::Eq, 1i64),
            Predicate::cmp("v", CmpOp::Le, 22.0),
        ]);
        let a =
            threshold_pred(&rel, &pred3, CmpOp::Gt, 0.1, &reg, &ExecOptions::default()).unwrap();
        let b = threshold_pred(&rel, &pred3, CmpOp::Gt, 0.1, &reg, &opts).unwrap();
        assert_eq!(ids(&a), vec!["Int(1)"]);
        assert_eq!(ids(&a), ids(&b));
        assert_eq!(stats.snapshot().index_probes, 3, "fallback did not engage for pred3");
    }

    #[test]
    fn support_index_is_cached_per_version() {
        let handle = crate::pindex::IndexHandle::new();
        let opts = ExecOptions { indexes: Some(handle.clone()), ..ExecOptions::default() };
        let cache = handle.lock().build_cache();
        let pred = Predicate::And(vec![
            Predicate::cmp("v", CmpOp::Ge, 18.0),
            Predicate::cmp("v", CmpOp::Le, 22.0),
        ]);
        let mask = |rel: &Relation| support_fallback_mask(rel, &pred, CmpOp::Gt, 0.5, &opts);
        let far = || Pdf1::gaussian(500.0, 1.0).unwrap();
        type Write = fn(&mut Relation, &mut HistoryRegistry, Pdf1);
        let writes: [(&str, Write); 3] = [
            ("in-place push", |rel, reg, pdf| {
                rel.insert_simple(reg, &[("id", Value::Int(4))], &[("v", pdf)]).unwrap();
            }),
            ("update", |rel, reg, pdf| {
                let mut fresh = Relation::new("scratch", rel.schema.clone());
                fresh.insert_simple(reg, &[("id", Value::Int(1))], &[("v", pdf)]).unwrap();
                rel.tuples_mut()[0] = fresh.tuples[0].clone();
            }),
            ("delete", |rel, reg, _| {
                rel.delete_where(reg, |t| t.certain[0] == Value::Int(1));
            }),
        ];
        for (what, write) in writes {
            let (mut rel, mut reg) = readings();
            assert_eq!(mask(&rel), Some(vec![true; 3]));
            let before = cache.support(&rel, "v").expect("built and cached");
            let view = rel.clone();
            assert!(mask(&view).is_some());
            assert!(Arc::ptr_eq(&before, &cache.support(&view, "v").unwrap()), "{what}: hit");
            drop(view);
            write(&mut rel, &mut reg, far());
            let got = mask(&rel).expect("fallback engages");
            let after = cache.support(&rel, "v").unwrap();
            assert!(!Arc::ptr_eq(&before, &after), "{what}: must miss");
            assert_eq!(after.len(), rel.len(), "{what}");
            // A deep copy is a version nobody has indexed: a fresh build.
            let mut copy = rel.clone();
            copy.tuples = Arc::new(rel.tuples.to_vec());
            assert_eq!(mask(&copy), Some(got.clone()), "{what}: answers like a fresh build");
            assert_eq!(got.iter().filter(|&&k| !k).count(), usize::from(what != "delete"));
        }
        // Dead versions are swept on insert: only the live one stays.
        let (mut rel, mut reg) = readings();
        for i in 0..100 {
            rel.insert_simple(&mut reg, &[("id", Value::Int(10 + i))], &[("v", far())]).unwrap();
            assert!(mask(&rel).is_some());
            assert_eq!(cache.entries().1, 1, "version {i}");
        }
    }

    #[test]
    fn certain_predicate_probability_is_zero_or_one() {
        let (rel, reg) = readings();
        let opts = ExecOptions::default();
        let p = predicate_probability(
            &rel,
            &rel.tuples[0],
            &Predicate::cmp("id", CmpOp::Eq, 1i64),
            &reg,
            &opts,
        )
        .unwrap();
        assert_eq!(p, 1.0);
        let p = predicate_probability(
            &rel,
            &rel.tuples[0],
            &Predicate::cmp("id", CmpOp::Eq, 2i64),
            &reg,
            &opts,
        )
        .unwrap();
        assert_eq!(p, 0.0);
    }
}

//! Cross product and join (paper Section III-D).
//!
//! `T1 ⋈_θ T2 = σ_θ(T1 × T2)`. The cross product concatenates schemas and
//! copies pdf nodes; the subsequent selection introduces the new
//! dependencies. Tuples combined from historically dependent sources (e.g.
//! two projections of the same base table, Figure 3) are recombined through
//! their common ancestors — eagerly when
//! [`ExecOptions::eager_collapse`](crate::select::ExecOptions) is set,
//! otherwise lazily at the next operation that needs the joint.

use crate::collapse;
use crate::error::{EngineError, Result};
use crate::history::HistoryRegistry;
use crate::predicate::Predicate;
use crate::relation::Relation;
use crate::schema::{Column, ProbSchema};
use crate::select::{select, ExecOptions};
use crate::tuple::ProbTuple;
use crate::value::Value;
use std::sync::Arc;

/// Nested-loop join used as the correctness oracle for the hash path
/// (exposed for tests and ablation benchmarks). Pairs whose *certain*
/// equi-join attributes already mismatch are skipped before any pdf work
/// (counted as `pairs_pruned`); the full predicate is still applied to the
/// survivors, so results are identical to an unfiltered cross + select.
pub fn join_nested_loop(
    left: &Relation,
    right: &Relation,
    pred: Option<&Predicate>,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<Relation> {
    let template = cross(&left.clone_empty(), &right.clone_empty(), reg, opts)?;
    let equalities = pred.map_or_else(Vec::new, |p| certain_equalities(&template.schema, p));
    let crossed = if equalities.is_empty() {
        cross(left, right, reg, opts)?
    } else {
        cross_prefiltered(left, right, &template, &equalities, opts)?
    };
    finish_join(crossed, pred, reg, opts)
}

/// The cross product `T1 × T2`.
///
/// Column names are disambiguated with a `name.` prefix when both inputs
/// share a name. Two views of the same base table may share *certain*
/// columns (their values simply appear twice — the Figure 3 pipeline);
/// sharing an **uncertain** column is rejected because one pdf identity
/// cannot occupy two result columns — alias (deep-copy) one side first.
/// Concatenation reads no history; the registry argument only keeps the
/// operators' signatures uniform.
pub fn cross(
    left: &Relation,
    right: &Relation,
    _reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<Relation> {
    for cl in left.schema.columns().iter().filter(|c| c.uncertain) {
        if right.schema.columns().iter().any(|cr| cr.id == cl.id) {
            return Err(EngineError::Operator(format!(
                "self-join on shared uncertain attribute '{}' — alias one side first",
                cl.name
            )));
        }
    }
    let mut columns: Vec<Column> = Vec::new();
    for c in left.schema.columns() {
        let mut col = c.clone();
        if right.schema.column(&c.name).is_some() {
            col.name = format!("{}.{}", left.name, c.name);
        }
        columns.push(col);
    }
    for c in right.schema.columns() {
        let mut col = c.clone();
        if left.schema.column(&c.name).is_some() {
            col.name = format!("{}.{}", right.name, c.name);
        }
        columns.push(col);
    }
    let mut deps = left.schema.deps().to_vec();
    deps.extend_from_slice(right.schema.deps());
    let schema = ProbSchema::from_columns(columns, deps);
    // Pair materialization fans out over left tuples.
    let groups = crate::exec_par::run_tuples_mode(&left.tuples, opts, |_, tl| {
        Ok(right.tuples.iter().map(|tr| pair_tuple(tl, tr)).collect::<Vec<_>>())
    })?;
    Ok(Relation {
        name: format!("({} x {})", left.name, right.name),
        schema,
        tuples: concat(groups),
    })
}

/// Stitches per-left-tuple pair groups, in input order, into one tuple
/// vector.
fn concat(groups: Vec<Vec<ProbTuple>>) -> Arc<Vec<ProbTuple>> {
    let mut tuples = Vec::with_capacity(groups.iter().map(Vec::len).sum());
    groups.into_iter().for_each(|g| tuples.extend(g));
    Arc::new(tuples)
}

/// Reads crossed-row position `i` from an (unmaterialized) left/right pair
/// — the first `n_left` positions come from the left tuple. This is the
/// single access path the certain-equality prefilter uses in both row and
/// batch mode, equivalent to indexing `pair_tuple(tl, tr).certain[i]`
/// without materializing the pair.
fn crossed_value<'a>(tl: &'a ProbTuple, tr: &'a ProbTuple, n_left: usize, i: usize) -> &'a Value {
    if i < n_left {
        &tl.certain[i]
    } else {
        &tr.certain[i - n_left]
    }
}

/// Concatenates a left and a right tuple (no registry side effects).
fn pair_tuple(tl: &ProbTuple, tr: &ProbTuple) -> ProbTuple {
    let mut certain = tl.certain.clone();
    certain.extend(tr.certain.iter().cloned());
    let mut nodes = tl.nodes.clone();
    nodes.extend(tr.nodes.iter().cloned());
    ProbTuple { certain, nodes }
}

/// The certain-certain equality conjuncts of a join predicate, resolved
/// once against the crossed schema to value positions `(i, j)` into the
/// crossed row. These can be decided from certain values alone, so a
/// mismatching pair can be skipped before any pdf work — and resolving
/// names here keeps string lookups off the per-pair hot path.
fn certain_equalities(crossed_schema: &ProbSchema, pred: &Predicate) -> Vec<(usize, usize)> {
    let certain_idx = |name: &str| -> Option<usize> {
        let idx = crossed_schema.index_of(name)?;
        (!crossed_schema.columns()[idx].uncertain).then_some(idx)
    };
    pred.conjuncts()
        .into_iter()
        .filter_map(|conj| match conj {
            Predicate::Cmp(
                crate::predicate::Scalar::Col(a),
                crate::predicate::CmpOp::Eq,
                crate::predicate::Scalar::Col(b),
            ) => Some((certain_idx(a)?, certain_idx(b)?)),
            _ => None,
        })
        .collect()
}

/// Nested-loop cross product that skips pairs whose certain equi-join
/// attributes mismatch. Only a definite `false` prunes (three-valued
/// logic: an equality involving NULL is unknown, and the full predicate
/// applied afterwards is what decides those pairs), so the surviving pairs
/// select to exactly the unfiltered result.
fn cross_prefiltered(
    left: &Relation,
    right: &Relation,
    template: &Relation,
    equalities: &[(usize, usize)],
    opts: &ExecOptions,
) -> Result<Relation> {
    let n_left = left.schema.columns().len();
    // Evaluate the pre-resolved certain equalities per pair. A comparison
    // involving NULL (or incomparable types) yields `None` — UNKNOWN,
    // never pruned — matching `Predicate::eval`. Both
    // execution modes run this same closure through `run_tuples_mode`, so
    // pair access goes through one path (`crossed_value`) rather than a
    // row-mode-only shortcut into the relation.
    let groups = crate::exec_par::run_tuples_mode(&left.tuples, opts, |_, tl| {
        let mut matches = Vec::new();
        let mut pruned = 0u64;
        for tr in right.tuples.iter() {
            if equalities.iter().any(|&(ia, ib)| {
                matches!(
                    crossed_value(tl, tr, n_left, ia).compare(crossed_value(tl, tr, n_left, ib)),
                    Some(ord) if ord != std::cmp::Ordering::Equal
                )
            }) {
                pruned += 1;
                continue;
            }
            matches.push(pair_tuple(tl, tr));
        }
        if let Some(s) = opts.stats_ref() {
            s.pairs_pruned.add(pruned);
        }
        Ok(matches)
    })?;
    Ok(template.with_tuples(concat(groups)))
}

/// Extracts a hash-joinable equality over *certain* columns from the
/// predicate's top-level conjuncts, resolving names against the crossed
/// schema (whose first `n_left` columns come from the left input). Returns
/// `(left index, right index)` into the respective inputs.
fn equi_key(
    crossed_schema: &ProbSchema,
    n_left: usize,
    pred: &Predicate,
) -> Option<(usize, usize)> {
    for conj in pred.conjuncts() {
        if let Predicate::Cmp(
            crate::predicate::Scalar::Col(a),
            crate::predicate::CmpOp::Eq,
            crate::predicate::Scalar::Col(b),
        ) = conj
        {
            let certain_idx = |name: &str| -> Option<usize> {
                let col = crossed_schema.column(name)?;
                (!col.uncertain).then(|| crossed_schema.index_of(name).expect("column exists"))
            };
            let (Some(ia), Some(ib)) = (certain_idx(a), certain_idx(b)) else {
                continue;
            };
            if ia < n_left && ib >= n_left {
                return Some((ia, ib - n_left));
            }
            if ib < n_left && ia >= n_left {
                return Some((ib, ia - n_left));
            }
        }
    }
    None
}

/// Hash-partitioned cross product: only pairs whose certain key columns
/// match are materialized. The full predicate is still applied afterwards,
/// so this is a pure optimization of `cross`. Pairs the partitioning
/// avoids are counted as `pairs_pruned`.
fn cross_matching(
    left: &Relation,
    right: &Relation,
    template: &Relation,
    key: (usize, usize),
    opts: &ExecOptions,
) -> Result<Relation> {
    use crate::pws::CanonValue;
    let mut buckets: std::collections::HashMap<CanonValue, Vec<usize>> = Default::default();
    for (i, t) in right.tuples.iter().enumerate() {
        buckets.entry(CanonValue::from(&t.certain[key.1])).or_default().push(i);
    }
    // Probe the shared bucket table per left tuple.
    let groups = crate::exec_par::run_tuples_mode(&left.tuples, opts, |_, tl| {
        let matches = buckets.get(&CanonValue::from(&tl.certain[key.0]));
        let hits: Vec<ProbTuple> = matches
            .map(|ms| ms.iter().map(|&ri| pair_tuple(tl, &right.tuples[ri])).collect())
            .unwrap_or_default();
        if let Some(s) = opts.stats_ref() {
            s.pairs_pruned.add((right.tuples.len() - hits.len()) as u64);
        }
        Ok(hits)
    })?;
    Ok(template.with_tuples(concat(groups)))
}

impl Relation {
    /// A copy of this relation with no tuples (schema/naming only).
    pub(crate) fn clone_empty(&self) -> Relation {
        Relation::new(self.name.clone(), self.schema.clone())
    }

    /// This relation's name and schema over `tuples`.
    fn with_tuples(&self, tuples: Arc<Vec<ProbTuple>>) -> Relation {
        Relation { name: self.name.clone(), schema: self.schema.clone(), tuples }
    }
}

/// The join `T1 ⋈_θ T2 = σ_θ(T1 × T2)`; pass `None` for a pure cross
/// product with collapse policy applied. When θ contains a certain-column
/// equality conjunct, the cross product is hash-partitioned on it.
pub fn join(
    left: &Relation,
    right: &Relation,
    pred: Option<&Predicate>,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<Relation> {
    let template = cross(&left.clone_empty(), &right.clone_empty(), reg, opts)?;
    let crossed =
        match pred.and_then(|p| equi_key(&template.schema, left.schema.columns().len(), p)) {
            Some(key) => cross_matching(left, right, &template, key, opts)?,
            None => cross(left, right, reg, opts)?,
        };
    finish_join(crossed, pred, reg, opts)
}

/// Applies the join predicate and the collapse policy to a crossed input.
fn finish_join(
    crossed: Relation,
    pred: Option<&Predicate>,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<Relation> {
    let mut result = match pred {
        Some(p) => select(&crossed, p, reg, opts)?,
        None => crossed,
    };
    if opts.eager_collapse && opts.use_histories {
        // Only tuples holding historically dependent nodes collapse; the
        // rest would come back unchanged, so they are kept, not copied.
        let computed = crate::exec_par::run_tuples_mode(&result.tuples, opts, |_, t| {
            if collapse::ancestor_disjoint(&t.nodes) {
                return Ok(None);
            }
            collapse::collapse_tuple_with_stats(t, reg, opts.resolution, opts.stats_ref()).map(Some)
        })?;
        let tuples = Arc::try_unwrap(result.tuples).unwrap_or_else(|shared| (*shared).clone());
        // A vacuous collapse is a historically impossible combination
        // (e.g. Figure 3's phantom pairs): drop it.
        result.tuples = Arc::new(
            (tuples.into_iter().zip(computed))
                .map(|(t, c)| c.unwrap_or(t))
                .filter(|c| !c.is_vacuous())
                .collect(),
        );
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::project::project;
    use crate::schema::{ColumnType, ProbSchema};
    use crate::value::Value;
    use orion_pdf::prelude::*;

    fn sensors() -> (Relation, Relation, HistoryRegistry) {
        let mut reg = HistoryRegistry::new();
        let s1 = ProbSchema::new(
            vec![("id", ColumnType::Int, false), ("x", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut r1 = Relation::new("L", s1);
        r1.insert_simple(
            &mut reg,
            &[("id", Value::Int(1))],
            &[("x", Pdf1::discrete(vec![(1.0, 0.5), (3.0, 0.5)]).unwrap())],
        )
        .unwrap();
        let s2 = ProbSchema::new(
            vec![("id", ColumnType::Int, false), ("y", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut r2 = Relation::new("R", s2);
        r2.insert_simple(
            &mut reg,
            &[("id", Value::Int(7))],
            &[("y", Pdf1::discrete(vec![(2.0, 0.5), (4.0, 0.5)]).unwrap())],
        )
        .unwrap();
        (r1, r2, reg)
    }

    #[test]
    fn cross_product_concatenates() {
        let (r1, r2, reg) = sensors();
        let c = cross(&r1, &r2, &reg, &ExecOptions::default()).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.schema.columns().len(), 4);
        // Shared column name gets qualified.
        assert!(c.schema.column("L.id").is_some());
        assert!(c.schema.column("R.id").is_some());
        assert_eq!(c.tuples[0].nodes.len(), 2);
    }

    #[test]
    fn join_with_uncertain_predicate() {
        let (r1, r2, reg) = sensors();
        let out = join(
            &r1,
            &r2,
            Some(&Predicate::cmp_cols("x", CmpOp::Lt, "y")),
            &reg,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let t = &out.tuples[0];
        // Worlds: (1,2) .25, (1,4) .25, (3,4) .25 pass; (3,2) fails.
        assert!((t.naive_existence() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hash_equi_join_matches_nested_loop() {
        let mut reg = HistoryRegistry::new();
        let mk = |name: &str, col: &str, reg: &mut HistoryRegistry| {
            let s = ProbSchema::new(
                vec![("id", ColumnType::Int, false), (col, ColumnType::Real, true)],
                vec![],
            )
            .unwrap();
            let mut r = Relation::new(name, s);
            for id in 1..=4i64 {
                r.insert_simple(
                    reg,
                    &[("id", Value::Int(id))],
                    &[(
                        col,
                        Pdf1::discrete(vec![(id as f64, 0.5), (id as f64 + 1.0, 0.5)]).unwrap(),
                    )],
                )
                .unwrap();
            }
            r
        };
        let l = mk("L", "x", &mut reg);
        let r = mk("R", "y", &mut reg);
        let opts = ExecOptions::default();
        let pred = Predicate::And(vec![
            Predicate::cmp_cols("L.id", CmpOp::Eq, "R.id"),
            Predicate::cmp_cols("x", CmpOp::Le, "y"),
        ]);
        let a = join(&l, &r, Some(&pred), &reg, &opts).unwrap();
        let b = join_nested_loop(&l, &r, Some(&pred), &reg, &opts).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 4, "only same-id pairs match");
        for (ta, tb) in a.tuples.iter().zip(b.tuples.iter()) {
            assert_eq!(ta.certain, tb.certain);
            assert!((ta.naive_existence() - tb.naive_existence()).abs() < 1e-12);
        }
    }

    #[test]
    fn nested_loop_prunes_certain_mismatches_and_counts_them() {
        // 4x4 pairs, only the 4 same-id ones survive the certain equality:
        // the prefilter must skip the other 12 before any pdf work and
        // still produce the same relation as an unfiltered cross + select.
        let mut reg = HistoryRegistry::new();
        let mk = |name: &str, col: &str, reg: &mut HistoryRegistry| {
            let s = ProbSchema::new(
                vec![("id", ColumnType::Int, false), (col, ColumnType::Real, true)],
                vec![],
            )
            .unwrap();
            let mut r = Relation::new(name, s);
            for id in 1..=4i64 {
                r.insert_simple(
                    reg,
                    &[("id", Value::Int(id))],
                    &[(col, Pdf1::gaussian(id as f64, 1.0).unwrap())],
                )
                .unwrap();
            }
            r
        };
        let l = mk("L", "x", &mut reg);
        let r = mk("R", "y", &mut reg);
        let pred = Predicate::And(vec![
            Predicate::cmp_cols("L.id", CmpOp::Eq, "R.id"),
            Predicate::cmp_cols("x", CmpOp::Le, "y"),
        ]);

        let stats = std::sync::Arc::new(orion_obs::ExecStats::new());
        let opts = ExecOptions { stats: Some(stats.clone()), ..ExecOptions::default() };
        let pruned_out = join_nested_loop(&l, &r, Some(&pred), &reg, &opts).unwrap();
        assert_eq!(stats.snapshot().pairs_pruned, 12);

        // Oracle: full cross + selection, no prefilter.
        let unfiltered =
            finish_join(cross(&l, &r, &reg, &opts).unwrap(), Some(&pred), &reg, &opts).unwrap();
        assert_eq!(pruned_out.tuples, unfiltered.tuples);
    }

    #[test]
    fn null_keys_never_pruned_in_batch_mode() {
        // 3VL regression: a certain-equality involving NULL is UNKNOWN, so
        // the prefilter must not prune the pair in either mode — the full
        // predicate decides it (UNKNOWN -> filtered, but via select, with
        // the same counters).
        use crate::batch::ExecMode;
        let mut reg = HistoryRegistry::new();
        let mk = |name: &str, col: &str, ids: &[Option<i64>], reg: &mut HistoryRegistry| {
            let s = ProbSchema::new(
                vec![("id", ColumnType::Int, false), (col, ColumnType::Real, true)],
                vec![],
            )
            .unwrap();
            let mut r = Relation::new(name, s);
            for (k, id) in ids.iter().enumerate() {
                let idv = id.map(Value::Int).unwrap_or(Value::Null);
                r.insert_simple(
                    reg,
                    &[("id", idv)],
                    &[(col, Pdf1::gaussian(k as f64, 1.0).unwrap())],
                )
                .unwrap();
            }
            r
        };
        let l = mk("L", "x", &[Some(1), None, Some(3)], &mut reg);
        let r = mk("R", "y", &[Some(1), Some(2), None], &mut reg);
        let pred = Predicate::cmp_cols("L.id", CmpOp::Eq, "R.id");

        let run = |mode: ExecMode, reg0: &HistoryRegistry| {
            let reg = reg0.clone();
            let stats = std::sync::Arc::new(orion_obs::ExecStats::new());
            let opts = ExecOptions {
                mode,
                stats: Some(stats.clone()),
                morsel_size: 2,
                ..ExecOptions::default()
            };
            let out = join_nested_loop(&l, &r, Some(&pred), &reg, &opts).unwrap();
            (out, stats.snapshot().pairs_pruned, reg)
        };
        let (row, row_pruned, reg_row) = run(ExecMode::Row, &reg);
        let (batch, batch_pruned, reg_batch) = run(ExecMode::Batch, &reg);
        // Only definite mismatches prune: the 3 pairs of non-NULL unequal
        // ids — (1,2), (3,1), (3,2); the 5 NULL-involving pairs all
        // survive to the full predicate.
        assert_eq!(row_pruned, 3);
        assert_eq!(batch_pruned, row_pruned);
        assert_eq!(row.len(), 1, "only the (1,1) pair joins");
        assert_eq!(batch.tuples, row.tuples, "modes agree bitwise");
        assert_eq!(reg_batch.len(), reg_row.len());
        assert_eq!(reg_batch.last_id(), reg_row.last_id());
    }

    #[test]
    fn self_join_requires_alias() {
        let (r1, _, reg) = sensors();
        assert!(cross(&r1, &r1, &reg, &ExecOptions::default()).is_err());
    }

    #[test]
    fn fig3_join_with_histories_is_correct() {
        // Full Figure 3 pipeline: T(a,b) joint; Ta = Π_a(T);
        // Tb = Π_b(σ_{b>4}(T)); Ta × Tb with eager collapse.
        let mut reg = HistoryRegistry::new();
        let schema = ProbSchema::new(
            vec![("a", ColumnType::Int, true), ("b", ColumnType::Int, true)],
            vec![vec!["a", "b"]],
        )
        .unwrap();
        let mut t = Relation::new("T", schema);
        t.insert(
            &mut reg,
            &[],
            vec![(
                vec!["a", "b"],
                JointPdf::from_points(
                    JointDiscrete::from_points(
                        2,
                        vec![(vec![4.0, 5.0], 0.9), (vec![2.0, 3.0], 0.1)],
                    )
                    .unwrap(),
                ),
            )],
        )
        .unwrap();
        t.insert(
            &mut reg,
            &[],
            vec![(
                vec!["a", "b"],
                JointPdf::from_points(
                    JointDiscrete::from_points(2, vec![(vec![7.0, 3.0], 0.7)]).unwrap(),
                ),
            )],
        )
        .unwrap();
        let opts = ExecOptions::default();
        let ta = project(&t, &["a"], &reg, &opts).unwrap();
        let sel = select(&t, &Predicate::cmp("b", CmpOp::Gt, 4i64), &reg, &opts).unwrap();
        let tb = project(&sel, &["b"], &reg, &opts).unwrap();
        assert_eq!(tb.len(), 1, "t2 fails b > 4 entirely");

        let joined = join(&ta, &tb, None, &reg, &opts).unwrap();
        assert_eq!(joined.len(), 2);
        // t'1 = ta1 x tb1 (same ancestor): joint must be Discrete({4,5}:0.9).
        let a_id = t.schema.column("a").unwrap().id;
        let b_id = t.schema.column("b").unwrap().id;
        let t1 = joined
            .tuples
            .iter()
            .find(|tp| {
                tp.nodes
                    .iter()
                    .any(|n| n.covers(a_id) && n.marginal(a_id).unwrap().density(4.0) > 0.0)
            })
            .expect("t'1 present");
        let n = t1.node_for(a_id).unwrap();
        assert!(n.covers(b_id), "collapsed into one joint node");
        let pa = n.dim_of(a_id).unwrap();
        let pb = n.dim_of(b_id).unwrap();
        let mut pt = vec![0.0; n.dims.len()];
        pt[pa] = 4.0;
        pt[pb] = 5.0;
        assert!((n.joint.density(&pt) - 0.9).abs() < 1e-12, "paper's T2, not T1");
        pt[pa] = 2.0;
        assert_eq!(n.joint.density(&pt), 0.0, "phantom world (2,5) excluded");
        assert!((t1.naive_existence() - 0.9).abs() < 1e-12);
        // t'2 = ta2 x tb1 (independent): {7,5} with 0.7 * 0.9 = 0.63.
        let t2 = joined
            .tuples
            .iter()
            .find(|tp| {
                tp.nodes
                    .iter()
                    .any(|n| n.covers(a_id) && n.marginal(a_id).unwrap().density(7.0) > 0.0)
            })
            .expect("t'2 present");
        assert!((t2.naive_existence() - 0.63).abs() < 1e-12);
        // Regression: column b of t'2 must resolve to Tb's visible node
        // (b = 5 w.p. 0.9), not to Ta's phantom copy of tuple 2's own b.
        let mb = t2.node_for(b_id).unwrap().marginal(b_id).unwrap();
        assert!((mb.density(5.0) - 0.9).abs() < 1e-12);
        assert_eq!(mb.density(3.0), 0.0);
    }

    #[test]
    fn fig3_join_without_histories_is_wrong() {
        // The ablation: histories off reproduces the paper's incorrect T1.
        let mut reg = HistoryRegistry::new();
        let schema = ProbSchema::new(
            vec![("a", ColumnType::Int, true), ("b", ColumnType::Int, true)],
            vec![vec!["a", "b"]],
        )
        .unwrap();
        let mut t = Relation::new("T", schema);
        t.insert(
            &mut reg,
            &[],
            vec![(
                vec!["a", "b"],
                JointPdf::from_points(
                    JointDiscrete::from_points(
                        2,
                        vec![(vec![4.0, 5.0], 0.9), (vec![2.0, 3.0], 0.1)],
                    )
                    .unwrap(),
                ),
            )],
        )
        .unwrap();
        let opts = ExecOptions { use_histories: false, ..ExecOptions::default() };
        let ta = project(&t, &["a"], &reg, &opts).unwrap();
        let sel = select(&t, &Predicate::cmp("b", CmpOp::Gt, 4i64), &reg, &opts).unwrap();
        let tb = project(&sel, &["b"], &reg, &opts).unwrap();
        let joined = join(&ta, &tb, None, &reg, &opts).unwrap();
        // Naive product: 1.0 (marginal a mass) * 0.9 (floored b mass) = 0.9
        // but distributed wrongly: P(a=4, b=5) = 0.81 and the phantom
        // (2, 5) carries 0.09.
        let t1 = &joined.tuples[0];
        assert_eq!(t1.nodes.len(), 2, "no collapse without histories");
        let a_id = t.schema.column("a").unwrap().id;
        let m = t1.node_for(a_id).unwrap().marginal(a_id).unwrap();
        assert!((m.density(2.0) - 0.1).abs() < 1e-12, "phantom world kept");
        assert!((t1.naive_existence() - 0.9).abs() < 1e-12);
    }
}

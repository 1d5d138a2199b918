//! Brute-force possible-worlds reference engine (paper Section I-A).
//!
//! For finite, discrete base relations, every possible world can be
//! enumerated: each pdf node independently takes one of its support points
//! (or "tuple absent" for the residual mass of a partial pdf). The query is
//! executed classically in each world and the result-row probabilities are
//! aggregated. Comparing these against the probabilistic operators is how
//! the test suite certifies that the model is **consistent with and closed
//! under PWS** (Theorems 1 and 2).
//!
//! The enumeration is exponential — use only on small inputs.

use crate::collapse;
use crate::error::{EngineError, Result};
use crate::history::HistoryRegistry;
use crate::plan::Plan;
use crate::relation::Relation;
use crate::schema::Column;
use crate::select::ExecOptions;
use crate::value::Value;
use std::collections::HashMap;

/// A hashable canonical form of a row value (reals compared bit-exactly —
/// world values flow through both engines without arithmetic on them).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CanonValue {
    Null,
    Int(i64),
    Real(u64),
    Text(String),
    Bool(bool),
}

impl From<&Value> for CanonValue {
    fn from(v: &Value) -> Self {
        match v {
            Value::Null => CanonValue::Null,
            Value::Int(i) => CanonValue::Int(*i),
            // Normalize -0.0 and integral reals so Int/Real comparisons in
            // different code paths canonicalize identically.
            Value::Real(r) => CanonValue::Real((r + 0.0).to_bits()),
            Value::Text(s) => CanonValue::Text(s.clone()),
            Value::Bool(b) => CanonValue::Bool(*b),
        }
    }
}

/// A canonical output row.
pub type CanonRow = Vec<CanonValue>;

/// Probability of each distinct output row appearing in the result.
pub type RowDistribution = HashMap<CanonRow, f64>;

/// A concrete (certain) table inside one possible world.
#[derive(Debug, Clone)]
pub(crate) struct ConcreteTable {
    pub(crate) name: String,
    pub(crate) columns: Vec<Column>,
    pub(crate) rows: Vec<Vec<Value>>,
}

/// One enumeration choice for a pdf node: a concrete point, or absence.
enum NodeChoice {
    Point(Vec<f64>, f64),
    Absent(f64),
}

/// Outcome list of one joint pdf: `(point-or-absent, probability)` pairs.
type JointChoices = (Vec<Option<Vec<f64>>>, Vec<f64>);

/// Enumerates a joint pdf's outcomes: each support point with its
/// probability, plus `None` for the absent residual of a partial pdf.
/// Shared by both reference engines.
fn joint_choices(joint: &orion_pdf::prelude::JointPdf) -> Result<JointChoices> {
    let j = joint.enumerate().map_err(|_| {
        EngineError::Operator(
            "PWS enumeration requires discrete base pdfs (continuous pdf found)".into(),
        )
    })?;
    let mut outcomes: Vec<Option<Vec<f64>>> = j.points().map(|(v, _)| Some(v.to_vec())).collect();
    let mut probs: Vec<f64> = j.points().map(|(_, p)| p).collect();
    let mass = j.mass();
    if mass < 1.0 - 1e-12 {
        outcomes.push(None);
        probs.push(1.0 - mass);
    }
    Ok((outcomes, probs))
}

/// Enumerates all outcomes of a node (its points plus the absent residual).
fn node_choices(node: &crate::tuple::PdfNode) -> Result<Vec<NodeChoice>> {
    let (outcomes, probs) = joint_choices(&node.joint)?;
    Ok(outcomes
        .into_iter()
        .zip(probs)
        .map(|(o, p)| match o {
            Some(v) => NodeChoice::Point(v, p),
            None => NodeChoice::Absent(p),
        })
        .collect())
}

/// Visits every possible world of the base tables, calling `visit` with the
/// concrete tables and the world's probability.
fn for_each_world(
    tables: &HashMap<String, Relation>,
    visit: &mut dyn FnMut(&HashMap<String, ConcreteTable>, f64),
) -> Result<()> {
    // Flatten: (table, tuple index, node index) -> choices.
    struct Site {
        table: String,
        tuple: usize,
        node: usize,
        choices: Vec<NodeChoice>,
    }
    let mut sites: Vec<Site> = Vec::new();
    let mut names: Vec<&String> = tables.keys().collect();
    names.sort();
    for name in &names {
        let rel = &tables[*name];
        for (ti, t) in rel.tuples.iter().enumerate() {
            for (ni, n) in t.nodes.iter().enumerate() {
                sites.push(Site {
                    table: (*name).clone(),
                    tuple: ti,
                    node: ni,
                    choices: node_choices(n)?,
                });
            }
        }
    }
    let mut picks = vec![0usize; sites.len()];
    loop {
        // Probability of this world and concrete instantiation.
        let mut prob = 1.0;
        // (table, tuple) -> Some(assignments) or None if absent.
        let mut absent: HashMap<(String, usize), bool> = HashMap::new();
        let mut assign: HashMap<(String, usize, usize), Vec<f64>> = HashMap::new();
        for (s, &k) in sites.iter().zip(&picks) {
            match &s.choices[k] {
                NodeChoice::Point(v, p) => {
                    prob *= p;
                    assign.insert((s.table.clone(), s.tuple, s.node), v.clone());
                }
                NodeChoice::Absent(p) => {
                    prob *= p;
                    absent.insert((s.table.clone(), s.tuple), true);
                }
            }
        }
        if prob > 0.0 {
            let mut world = HashMap::new();
            for name in &names {
                let rel = &tables[*name];
                let mut rows = Vec::new();
                for (ti, t) in rel.tuples.iter().enumerate() {
                    if absent.contains_key(&((*name).clone(), ti)) {
                        continue;
                    }
                    let mut row = t.certain.clone();
                    for (ni, n) in t.nodes.iter().enumerate() {
                        let v = &assign[&((*name).clone(), ti, ni)];
                        for (dim, nd) in n.dims.iter().enumerate() {
                            let Some(attr) = nd.column else { continue };
                            if let Some(pos) =
                                rel.schema.columns().iter().position(|c| c.id == attr)
                            {
                                row[pos] = Value::Real(v[dim]);
                            }
                        }
                    }
                    rows.push(row);
                }
                world.insert(
                    (*name).clone(),
                    ConcreteTable {
                        name: (*name).clone(),
                        columns: rel.schema.columns().to_vec(),
                        rows,
                    },
                );
            }
            visit(&world, prob);
        }
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == sites.len() {
                return Ok(());
            }
            picks[i] += 1;
            if picks[i] < sites[i].choices.len() {
                break;
            }
            picks[i] = 0;
            i += 1;
        }
    }
}

/// Executes a plan classically within one world, mirroring the engine's
/// derived-relation naming so join-time column qualification matches.
pub(crate) fn run_classical(
    plan: &Plan,
    world: &HashMap<String, ConcreteTable>,
) -> Result<ConcreteTable> {
    match plan {
        Plan::Scan(name) => world
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::Operator(format!("unknown table '{name}'"))),
        Plan::Select(p, pred) => {
            let t = run_classical(p, world)?;
            let rows = t
                .rows
                .iter()
                .filter(|row| {
                    let lookup = |name: &str| -> Value {
                        t.columns
                            .iter()
                            .position(|c| c.name == name)
                            .map(|i| row[i].clone())
                            .unwrap_or(Value::Null)
                    };
                    pred.eval(&lookup) == Some(true)
                })
                .cloned()
                .collect();
            Ok(ConcreteTable { name: format!("sigma({})", t.name), columns: t.columns, rows })
        }
        Plan::Project(p, cols) => {
            let t = run_classical(p, world)?;
            let idx: Vec<usize> = cols
                .iter()
                .map(|c| {
                    t.columns
                        .iter()
                        .position(|col| &col.name == c)
                        .ok_or_else(|| EngineError::Schema(format!("unknown column '{c}'")))
                })
                .collect::<Result<_>>()?;
            Ok(ConcreteTable {
                name: format!("pi({})", t.name),
                columns: idx.iter().map(|&i| t.columns[i].clone()).collect(),
                rows: t.rows.iter().map(|r| idx.iter().map(|&i| r[i].clone()).collect()).collect(),
            })
        }
        Plan::Join(l, r, pred) => {
            let lt = run_classical(l, world)?;
            let rt = run_classical(r, world)?;
            // Mirror the engine's column qualification on name conflicts.
            let mut columns: Vec<Column> = Vec::new();
            for c in &lt.columns {
                let mut col = c.clone();
                if rt.columns.iter().any(|rc| rc.name == c.name) {
                    col.name = format!("{}.{}", lt.name, c.name);
                }
                columns.push(col);
            }
            for c in &rt.columns {
                let mut col = c.clone();
                if lt.columns.iter().any(|lc| lc.name == c.name) {
                    col.name = format!("{}.{}", rt.name, c.name);
                }
                columns.push(col);
            }
            let mut rows = Vec::new();
            for rl in &lt.rows {
                for rr in &rt.rows {
                    let mut row = rl.clone();
                    row.extend(rr.iter().cloned());
                    let keep = match pred {
                        None => true,
                        Some(p) => {
                            let lookup = |name: &str| -> Value {
                                columns
                                    .iter()
                                    .position(|c| c.name == name)
                                    .map(|i| row[i].clone())
                                    .unwrap_or(Value::Null)
                            };
                            p.eval(&lookup) == Some(true)
                        }
                    };
                    if keep {
                        rows.push(row);
                    }
                }
            }
            Ok(ConcreteTable { name: format!("({} x {})", lt.name, rt.name), columns, rows })
        }
        Plan::ThresholdAttrs(..) | Plan::ThresholdPred(..) => Err(EngineError::Operator(
            "threshold operators are defined outside possible-worlds semantics".into(),
        )),
    }
}

/// Ancestor-level possible-worlds enumeration: instead of treating every
/// pdf *node* as independent (valid only for freshly inserted base
/// tables), enumerate the outcomes of every registered **base pdf** and
/// derive each tuple's values and existence from them. This makes
/// cross-tuple correlation — shared phantom ancestors, mutual-exclusion
/// groups, rejoined projections — exactly checkable.
///
/// A node exists in a world iff none of its variables' bases drew the
/// absent residual and the node's own (possibly floored) joint has
/// positive density at the drawn point.
pub fn pws_row_distribution_via_ancestors(
    plan: &Plan,
    tables: &HashMap<String, Relation>,
    reg: &HistoryRegistry,
) -> Result<RowDistribution> {
    if plan.has_threshold() {
        return Err(EngineError::Operator(
            "threshold operators are defined outside possible-worlds semantics".into(),
        ));
    }
    // Bases actually referenced by the tables.
    let mut base_ids: Vec<crate::history::PdfId> = tables
        .values()
        .flat_map(|r| r.tuples.iter())
        .flat_map(|t| t.nodes.iter())
        .flat_map(|n| n.ancestors.iter().copied())
        .collect();
    base_ids.sort_unstable();
    base_ids.dedup();
    // Enumerate each base's outcomes (+ absent residual for partial mass).
    struct BaseChoices {
        id: crate::history::PdfId,
        outcomes: Vec<Option<Vec<f64>>>,
        probs: Vec<f64>,
    }
    let mut bases = Vec::with_capacity(base_ids.len());
    for id in base_ids {
        let b = reg.base(id)?;
        let (outcomes, probs) = joint_choices(&b.joint)?;
        bases.push(BaseChoices { id, outcomes, probs });
    }
    let lookup: HashMap<crate::history::PdfId, usize> =
        bases.iter().enumerate().map(|(i, b)| (b.id, i)).collect();
    // Precompute, per tuple and node, the (base index, base dim, visible row
    // position) triples and per-table skeletons, so the world loop only
    // indexes vectors. This pass also validates every variable reference.
    struct DimMap {
        base_idx: usize,
        base_dim: usize,
        row_pos: Option<usize>,
    }
    struct TuplePlan<'a> {
        tuple: &'a crate::tuple::ProbTuple,
        nodes: Vec<(Vec<DimMap>, &'a orion_pdf::prelude::JointPdf)>,
    }
    struct TablePlan<'a> {
        name: &'a String,
        columns: Vec<Column>,
        tuples: Vec<TuplePlan<'a>>,
    }
    let mut names: Vec<&String> = tables.keys().collect();
    names.sort();
    let mut plans: Vec<TablePlan> = Vec::with_capacity(names.len());
    for name in &names {
        let rel = &tables[*name];
        let mut tuples = Vec::with_capacity(rel.tuples.len());
        for t in rel.tuples.iter() {
            let mut nodes = Vec::with_capacity(t.nodes.len());
            for n in &t.nodes {
                let mut dims = Vec::with_capacity(n.dims.len());
                for d in &n.dims {
                    let base_idx = *lookup.get(&d.var.base).ok_or_else(|| {
                        EngineError::Operator(format!(
                            "variable references base {} outside the ancestor sets",
                            d.var.base
                        ))
                    })?;
                    let base_dim = d.var.dim as usize;
                    if base_dim >= reg.base(d.var.base)?.joint.arity() {
                        return Err(EngineError::Operator(format!(
                            "variable dim {base_dim} out of range for base {}",
                            d.var.base
                        )));
                    }
                    let row_pos = d
                        .column
                        .and_then(|attr| rel.schema.columns().iter().position(|c| c.id == attr));
                    dims.push(DimMap { base_idx, base_dim, row_pos });
                }
                nodes.push((dims, &n.joint));
            }
            tuples.push(TuplePlan { tuple: t, nodes });
        }
        plans.push(TablePlan { name, columns: rel.schema.columns().to_vec(), tuples });
    }

    let mut dist = RowDistribution::new();
    let mut picks = vec![0usize; bases.len()];
    'worlds: loop {
        let mut prob = 1.0;
        for (b, &k) in bases.iter().zip(&picks) {
            prob *= b.probs[k];
        }
        if prob > 0.0 {
            // Instantiate every table from the precomputed plans.
            let mut world = HashMap::new();
            for p in &plans {
                let mut rows = Vec::new();
                'tuples: for tp in p.tuples.iter() {
                    let mut row = tp.tuple.certain.clone();
                    for (dims, joint) in &tp.nodes {
                        let mut point = Vec::with_capacity(dims.len());
                        for d in dims {
                            match &bases[d.base_idx].outcomes[picks[d.base_idx]] {
                                Some(v) => point.push(v[d.base_dim]),
                                None => continue 'tuples, // base absent
                            }
                        }
                        if joint.density(&point) <= 0.0 {
                            continue 'tuples; // floored world
                        }
                        for (x, d) in point.iter().zip(dims) {
                            if let Some(pos) = d.row_pos {
                                row[pos] = Value::Real(*x);
                            }
                        }
                    }
                    rows.push(row);
                }
                world.insert(
                    p.name.clone(),
                    ConcreteTable { name: p.name.clone(), columns: p.columns.clone(), rows },
                );
            }
            let out = run_classical(plan, &world)?;
            let mut seen: std::collections::HashSet<CanonRow> = Default::default();
            for row in &out.rows {
                let canon: CanonRow = row.iter().map(CanonValue::from).collect();
                if seen.insert(canon.clone()) {
                    *dist.entry(canon).or_insert(0.0) += prob;
                }
            }
        }
        // Odometer (empty base set => single world, handled by the break).
        let mut i = 0;
        loop {
            if i == bases.len() {
                break 'worlds;
            }
            picks[i] += 1;
            if picks[i] < bases[i].outcomes.len() {
                break;
            }
            picks[i] = 0;
            i += 1;
        }
    }
    Ok(dist)
}

/// The PWS ground truth: for each distinct output row, the total
/// probability of the worlds in which the query emits it.
///
/// (Rows emitted more than once in the same world contribute once — the
/// test queries keep keys so this does not arise.)
pub fn pws_row_distribution(
    plan: &Plan,
    tables: &HashMap<String, Relation>,
) -> Result<RowDistribution> {
    if plan.has_threshold() {
        return Err(EngineError::Operator(
            "threshold operators are defined outside possible-worlds semantics".into(),
        ));
    }
    let mut dist = RowDistribution::new();
    let mut err: Option<EngineError> = None;
    for_each_world(tables, &mut |world, prob| {
        if err.is_some() {
            return;
        }
        match run_classical(plan, world) {
            Ok(t) => {
                let mut seen: Vec<CanonRow> = Vec::new();
                for row in &t.rows {
                    let canon: CanonRow = row.iter().map(CanonValue::from).collect();
                    if !seen.contains(&canon) {
                        seen.push(canon.clone());
                        *dist.entry(canon).or_insert(0.0) += prob;
                    }
                }
            }
            Err(e) => err = Some(e),
        }
    })?;
    match err {
        Some(e) => Err(e),
        None => Ok(dist),
    }
}

/// The engine side of the comparison: for a probabilistic result relation,
/// the probability of each distinct visible row (per tuple: enumerate the
/// collapsed nodes' joint support and marginalize phantom dimensions).
pub fn engine_row_distribution(
    rel: &Relation,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<RowDistribution> {
    let mut dist = RowDistribution::new();
    for t in rel.tuples.iter() {
        let ct = if opts.use_histories {
            collapse::collapse_tuple(t, reg, opts.resolution)?
        } else {
            t.clone()
        };
        // Per-node enumerations projected to visible dims.
        struct NodeEnum {
            /// (visible column position, value) assignments and probability.
            outcomes: Vec<(Vec<(usize, f64)>, f64)>,
        }
        let mut enums: Vec<NodeEnum> = Vec::new();
        for n in &ct.nodes {
            let j = n.joint.enumerate().map_err(|_| {
                EngineError::Operator("engine_row_distribution requires discrete pdfs".into())
            })?;
            // Group by visible coordinates.
            let mut grouped: HashMap<Vec<(usize, u64)>, f64> = HashMap::new();
            for (v, p) in j.points() {
                let mut key = Vec::new();
                for (dim, nd) in n.dims.iter().enumerate() {
                    let Some(attr) = nd.column else { continue };
                    if let Some(pos) = rel.schema.columns().iter().position(|c| c.id == attr) {
                        key.push((pos, v[dim].to_bits()));
                    }
                }
                *grouped.entry(key).or_insert(0.0) += p;
            }
            enums.push(NodeEnum {
                outcomes: grouped
                    .into_iter()
                    .map(|(k, p)| {
                        (k.into_iter().map(|(pos, bits)| (pos, f64::from_bits(bits))).collect(), p)
                    })
                    .collect(),
            });
        }
        // Cartesian product across nodes (a node with zero outcomes makes
        // the tuple vacuous; a tuple with zero nodes emits one certain row).
        if enums.iter().any(|e| e.outcomes.is_empty()) {
            continue;
        }
        let mut picks = vec![0usize; enums.len()];
        'combos: loop {
            let mut prob = 1.0;
            let mut row = ct.certain.clone();
            for (e, &k) in enums.iter().zip(&picks) {
                let (assignments, p) = &e.outcomes[k];
                prob *= p;
                for &(pos, v) in assignments {
                    row[pos] = Value::Real(v);
                }
            }
            if prob > 0.0 {
                let canon: CanonRow = row.iter().map(CanonValue::from).collect();
                *dist.entry(canon).or_insert(0.0) += prob;
            }
            let mut i = 0;
            loop {
                if i == enums.len() {
                    break 'combos;
                }
                picks[i] += 1;
                if picks[i] < enums[i].outcomes.len() {
                    break;
                }
                picks[i] = 0;
                i += 1;
            }
        }
    }
    Ok(dist)
}

/// Full conformance check: executes the plan with the engine (using the
/// caller's registry, which must be the one the base tables were built
/// with) and compares row distributions against PWS enumeration.
pub fn conformance_report(
    plan: &Plan,
    tables: &HashMap<String, Relation>,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<(RowDistribution, RowDistribution)> {
    let truth = pws_row_distribution(plan, tables)?;
    let result = crate::plan::execute(plan, tables, reg, opts)?;
    let engine = engine_row_distribution(&result, reg, opts)?;
    Ok((truth, engine))
}

/// Maximum absolute probability deviation between two row distributions
/// (rows missing from one side count with their full probability).
pub fn distribution_distance(a: &RowDistribution, b: &RowDistribution) -> f64 {
    let mut worst = 0.0f64;
    for (k, &pa) in a {
        let pb = b.get(k).copied().unwrap_or(0.0);
        worst = worst.max((pa - pb).abs());
    }
    for (k, &pb) in b {
        if !a.contains_key(k) {
            worst = worst.max(pb);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, Predicate};
    use crate::schema::{ColumnType, ProbSchema};
    use orion_pdf::prelude::*;

    fn table2() -> (HashMap<String, Relation>, HistoryRegistry) {
        let mut reg = HistoryRegistry::new();
        let schema = ProbSchema::new(
            vec![("a", ColumnType::Int, true), ("b", ColumnType::Int, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("T", schema);
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
        let mut tables = HashMap::new();
        tables.insert("T".to_string(), rel);
        (tables, reg)
    }

    #[test]
    fn table3_possible_worlds() {
        // The paper's Table III: worlds of Table II with probabilities
        // 0.06, 0.04, 0.54, 0.36 — checked through the identity query.
        let (tables, _) = table2();
        let dist = pws_row_distribution(&Plan::scan("T"), &tables).unwrap();
        // Row (a=0, b=1) appears in the world with probability 0.06.
        let row =
            |a: f64, b: f64| vec![CanonValue::Real(a.to_bits()), CanonValue::Real(b.to_bits())];
        assert!((dist[&row(0.0, 1.0)] - 0.06).abs() < 1e-12);
        assert!((dist[&row(0.0, 2.0)] - 0.04).abs() < 1e-12);
        assert!((dist[&row(1.0, 1.0)] - 0.54).abs() < 1e-12);
        assert!((dist[&row(1.0, 2.0)] - 0.36).abs() < 1e-12);
        // The certain tuple appears in all worlds.
        assert!((dist[&row(7.0, 3.0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn selection_conforms_to_pws() {
        let (tables, reg) = table2();
        let plan = Plan::scan("T").select(Predicate::cmp_cols("a", CmpOp::Lt, "b"));
        let (truth, engine) =
            conformance_report(&plan, &tables, &reg, &ExecOptions::default()).unwrap();
        assert!(distribution_distance(&truth, &engine) < 1e-9, "{truth:?} vs {engine:?}");
        assert!(!truth.is_empty());
    }

    #[test]
    fn projection_conforms_to_pws() {
        let (tables, reg) = table2();
        let plan = Plan::scan("T").select(Predicate::cmp("b", CmpOp::Gt, 1i64)).project(&["a"]);
        let (truth, engine) =
            conformance_report(&plan, &tables, &reg, &ExecOptions::default()).unwrap();
        assert!(distribution_distance(&truth, &engine) < 1e-9, "{truth:?} vs {engine:?}");
    }

    #[test]
    fn continuous_base_rejected() {
        let mut reg = HistoryRegistry::new();
        let schema = ProbSchema::new(vec![("x", ColumnType::Real, true)], vec![]).unwrap();
        let mut rel = Relation::new("g", schema);
        rel.insert_simple(&mut reg, &[], &[("x", Pdf1::gaussian(0.0, 1.0).unwrap())]).unwrap();
        let mut tables = HashMap::new();
        tables.insert("g".to_string(), rel);
        assert!(pws_row_distribution(&Plan::scan("g"), &tables).is_err());
    }

    #[test]
    fn threshold_rejected_under_pws() {
        let (tables, _) = table2();
        let plan =
            Plan::ThresholdAttrs(Box::new(Plan::scan("T")), vec!["a".into()], CmpOp::Gt, 0.5);
        assert!(pws_row_distribution(&plan, &tables).is_err());
    }

    #[test]
    fn distribution_distance_detects_missing_rows() {
        let mut a = RowDistribution::new();
        a.insert(vec![CanonValue::Int(1)], 0.5);
        let b = RowDistribution::new();
        assert!((distribution_distance(&a, &b) - 0.5).abs() < 1e-12);
        assert!((distribution_distance(&b, &a) - 0.5).abs() < 1e-12);
        assert_eq!(distribution_distance(&b, &b), 0.0);
    }
}

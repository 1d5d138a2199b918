//! Probabilistic relations: a probabilistic schema plus tuples, with
//! history-registering insertion and phantom-preserving deletion.

use crate::error::{EngineError, Result};
use crate::history::{Ancestors, HistoryRegistry};
use crate::schema::{AttrId, ProbSchema};
use crate::tuple::{PdfNode, ProbTuple};
use crate::value::Value;
use orion_pdf::prelude::{JointPdf, Pdf1};
use std::sync::Arc;

/// One alternative of a mutual-exclusion group: its certain values and the
/// independent pdfs of its uncertain columns.
pub type MutexAlternative<'a> = (Vec<(&'a str, Value)>, Vec<(&'a str, Pdf1)>);

/// A probabilistic relation.
///
/// The tuple storage is shared: cloning a relation clones one pointer, and
/// every clone reads the same tuples until one of them writes through
/// [`Relation::tuples_mut`], which copies the vector only if another clone
/// still holds it. A point-in-time view of a table is therefore a clone.
#[derive(Debug, Clone)]
pub struct Relation {
    /// Relation name (informational).
    pub name: String,
    /// The probabilistic schema `(Σ, Δ)`.
    pub schema: ProbSchema,
    /// The tuples (shared copy-on-write; derefs to `&[ProbTuple]`).
    pub tuples: Arc<Vec<ProbTuple>>,
}

impl Relation {
    /// An empty relation.
    pub fn new(name: impl Into<String>, schema: ProbSchema) -> Self {
        Relation { name: name.into(), schema, tuples: Arc::default() }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples for writing: copied first if another clone of this
    /// relation still shares them, in place otherwise.
    pub fn tuples_mut(&mut self) -> &mut Vec<ProbTuple> {
        Arc::make_mut(&mut self.tuples)
    }

    /// Inserts a base tuple.
    ///
    /// `certain` gives values for the certain columns by name; `uncertain`
    /// gives one pdf per dependency set, keyed by the set's column names in
    /// the pdf's dimension order. Every dependency set of the schema must
    /// be supplied (partial pdfs — total mass < 1 — are allowed and encode
    /// a tuple that only probably exists, Section II-B).
    ///
    /// Each dependency set's joint pdf is registered in `reg` as a base pdf
    /// and becomes its own single ancestor (Definition 2). A rejected
    /// insert leaves the relation and `reg` untouched.
    pub fn insert(
        &mut self,
        reg: &mut HistoryRegistry,
        certain: &[(&str, Value)],
        uncertain: Vec<(Vec<&str>, JointPdf)>,
    ) -> Result<()> {
        let t = self.build_tuple(reg, certain, uncertain)?;
        self.tuples_mut().push(t);
        Ok(())
    }

    /// The tuple [`Relation::insert`] would push, without pushing it: every
    /// column is validated first, and only then are the base pdfs
    /// registered in `reg` and referenced.
    pub(crate) fn build_tuple(
        &self,
        reg: &mut HistoryRegistry,
        certain: &[(&str, Value)],
        uncertain: Vec<(Vec<&str>, JointPdf)>,
    ) -> Result<ProbTuple> {
        let row = self.certain_row(certain)?;
        let mut sets = Vec::with_capacity(uncertain.len());
        let mut covered: Vec<AttrId> = Vec::new();
        for (names, joint) in uncertain {
            let mut attrs = Vec::with_capacity(names.len());
            for name in &names {
                let col = self
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
            sets.push((attrs, joint));
        }
        for c in self.schema.columns() {
            if c.uncertain && !covered.contains(&c.id) {
                return Err(EngineError::Schema(format!(
                    "uncertain column '{}' has no pdf",
                    c.name
                )));
            }
        }
        let nodes = sets
            .into_iter()
            .map(|(attrs, joint)| {
                let id = reg.register(attrs.clone(), joint.clone());
                let ancestors: Ancestors = [id].into_iter().collect();
                reg.add_refs(&ancestors);
                PdfNode::base(id, &attrs, joint, ancestors)
            })
            .collect();
        Ok(ProbTuple { certain: row, nodes })
    }

    /// A full row of certain values (`Null` where `certain` names no
    /// value), rejecting unknown and uncertain columns.
    fn certain_row(&self, certain: &[(&str, Value)]) -> Result<Vec<Value>> {
        let mut row = vec![Value::Null; self.schema.columns().len()];
        for (name, v) in certain {
            let idx = self
                .schema
                .index_of(name)
                .ok_or_else(|| EngineError::Schema(format!("unknown column '{name}'")))?;
            if self.schema.columns()[idx].uncertain {
                return Err(EngineError::Schema(format!(
                    "column '{name}' is uncertain; supply a pdf instead"
                )));
            }
            row[idx] = v.clone();
        }
        Ok(row)
    }

    /// Inserts a tuple from pre-built pdf nodes (advanced: inter-tuple
    /// correlation via shared phantom ancestors). Every uncertain column
    /// must be covered by exactly one node's visible dimensions; phantom
    /// dimensions and extra constraint nodes are allowed. Reference counts
    /// for all ancestors are taken once every check has passed, so a
    /// rejected insert leaves the relation and `reg` untouched.
    pub fn insert_raw(
        &mut self,
        reg: &mut HistoryRegistry,
        certain: &[(&str, Value)],
        nodes: Vec<PdfNode>,
    ) -> Result<()> {
        let row = self.certain_row(certain)?;
        for c in self.schema.columns().iter().filter(|c| c.uncertain) {
            let covering = nodes.iter().filter(|n| n.covers(c.id)).count();
            if covering != 1 {
                return Err(EngineError::Schema(format!(
                    "uncertain column '{}' covered by {covering} nodes (need exactly 1)",
                    c.name
                )));
            }
        }
        for n in &nodes {
            reg.add_refs(&n.ancestors);
        }
        self.tuples_mut().push(ProbTuple { certain: row, nodes });
        Ok(())
    }

    /// Inserts a group of **mutually exclusive** alternative tuples — the
    /// paper's tuple-uncertainty constraint, modeled exactly as Definition
    /// 2 suggests: a shared *phantom ancestor* (a selector variable) that
    /// every alternative's existence derives from. Alternative `i` exists
    /// with probability `probs[i]`; at most one exists in any possible
    /// world; with probability `1 - Σ probs` none does.
    ///
    /// Joining or recombining two alternatives of the same group later
    /// yields a vacuous (impossible) result through the ordinary
    /// history-aware merge — no special casing anywhere downstream.
    pub fn insert_mutex_group(
        &mut self,
        reg: &mut HistoryRegistry,
        alternatives: Vec<MutexAlternative<'_>>,
        probs: &[f64],
    ) -> Result<()> {
        if alternatives.len() != probs.len() || alternatives.is_empty() {
            return Err(EngineError::Operator("need one probability per alternative".into()));
        }
        let total: f64 = probs.iter().sum();
        if probs.iter().any(|p| !(0.0..=1.0).contains(p)) || total > 1.0 + 1e-9 {
            return Err(EngineError::Operator(format!(
                "alternative probabilities must be in [0,1] and sum to <= 1 (got {total})"
            )));
        }
        // Validate every alternative's columns up front so a failure leaves
        // the relation and registry untouched (atomic insert).
        for (certain, pdfs) in &alternatives {
            for (name, _) in certain {
                let col = self
                    .schema
                    .column(name)
                    .ok_or_else(|| EngineError::Schema(format!("unknown column '{name}'")))?;
                if col.uncertain {
                    return Err(EngineError::Schema(format!(
                        "column '{name}' is uncertain; supply a pdf instead"
                    )));
                }
            }
            for (name, _) in pdfs {
                let col = self
                    .schema
                    .column(name)
                    .ok_or_else(|| EngineError::Schema(format!("unknown column '{name}'")))?;
                if !col.uncertain {
                    return Err(EngineError::Schema(format!(
                        "column '{name}' is certain; supply a value instead"
                    )));
                }
            }
            for c in self.schema.columns().iter().filter(|c| c.uncertain) {
                if pdfs.iter().filter(|(n, _)| *n == c.name).count() != 1 {
                    return Err(EngineError::Schema(format!(
                        "uncertain column '{}' needs exactly one pdf per alternative",
                        c.name
                    )));
                }
            }
        }
        // The shared phantom ancestor: a selector over {0, .., k-1}.
        let selector = JointPdf::from_pdf1(Pdf1::discrete(
            probs.iter().enumerate().map(|(i, &p)| (i as f64, p)).collect(),
        )?);
        let phantom_attr = crate::schema::fresh_attr_id();
        let selector_id = reg.register(vec![phantom_attr], selector.clone());
        let anc: Ancestors = [selector_id].into_iter().collect();
        for (i, (certain, pdfs)) in alternatives.into_iter().enumerate() {
            // The alternative's own attribute nodes.
            let mut nodes = Vec::with_capacity(pdfs.len() + 1);
            for (name, p) in &pdfs {
                let col = self
                    .schema
                    .column(name)
                    .ok_or_else(|| EngineError::Schema(format!("unknown column '{name}'")))?;
                let joint = JointPdf::from_pdf1(p.clone());
                let id = reg.register(vec![col.id], joint.clone());
                nodes.push(PdfNode::base(id, &[col.id], joint, [id].into_iter().collect()));
            }
            // The existence-constraint node: the selector floored to i
            // (zero everywhere the selector differs from i).
            let not_i =
                crate::interval_of_cmp::failing_region(crate::predicate::CmpOp::Eq, i as f64);
            let floored = selector.floor_axis(0, &not_i);
            nodes.push(PdfNode::new(
                vec![crate::tuple::NodeDim {
                    var: crate::tuple::VarId { base: selector_id, dim: 0 },
                    column: None,
                }],
                floored,
                anc.clone(),
            ));
            self.insert_raw(reg, &certain, nodes)?;
        }
        Ok(())
    }

    /// Convenience: inserts a tuple whose uncertain columns are all
    /// independent 1-D pdfs.
    pub fn insert_simple(
        &mut self,
        reg: &mut HistoryRegistry,
        certain: &[(&str, Value)],
        pdfs: &[(&str, Pdf1)],
    ) -> Result<()> {
        let uncertain =
            pdfs.iter().map(|(name, p)| (vec![*name], JointPdf::from_pdf1(p.clone()))).collect();
        self.insert(reg, certain, uncertain)
    }

    /// Deletes the tuples selected by `keep(tuple) == false`, handling
    /// history bookkeeping: each deleted tuple's *base* pdfs become
    /// phantoms while still referenced elsewhere (Section II-C).
    ///
    /// A base pdf *shared* across tuples (a mutex group's selector) is
    /// marked phantom as soon as any of its alternatives is deleted; this
    /// only defers reclamation to the moment the last referencing node is
    /// released — lookups through still-live siblings keep working.
    pub fn delete_where(
        &mut self,
        reg: &mut HistoryRegistry,
        mut remove: impl FnMut(&ProbTuple) -> bool,
    ) -> usize {
        let mut removed = 0;
        let mut kept = Vec::with_capacity(self.tuples.len());
        for t in Arc::unwrap_or_clone(std::mem::take(&mut self.tuples)) {
            if remove(&t) {
                removed += 1;
                for n in &t.nodes {
                    reg.release_refs(&n.ancestors);
                    // A base node is its own single ancestor.
                    if n.ancestors.len() == 1 {
                        let id = *n.ancestors.iter().next().expect("len checked");
                        reg.delete_base(id);
                    }
                }
            } else {
                kept.push(t);
            }
        }
        self.tuples = Arc::new(kept);
        removed
    }

    /// Releases all history references held by this relation's tuples —
    /// call when a *stored* relation is dropped. Query results hold no
    /// references, so there is nothing to release for them.
    pub fn release(&self, reg: &mut HistoryRegistry) {
        for t in self.tuples.iter() {
            for n in &t.nodes {
                reg.release_refs(&n.ancestors);
            }
        }
    }

    /// The visible marginal pdf of an uncertain column in one tuple.
    pub fn marginal(&self, tuple: usize, column: &str) -> Result<Pdf1> {
        let col = self
            .schema
            .column(column)
            .ok_or_else(|| EngineError::Schema(format!("unknown column '{column}'")))?;
        let t = self
            .tuples
            .get(tuple)
            .ok_or_else(|| EngineError::Operator(format!("tuple {tuple} out of range")))?;
        let node = t
            .node_for(col.id)
            .ok_or_else(|| EngineError::Operator(format!("column '{column}' is certain")))?;
        node.marginal(col.id)
            .ok_or_else(|| EngineError::Operator("marginal extraction failed".into()))
    }

    /// The certain value of a column in one tuple.
    pub fn value(&self, tuple: usize, column: &str) -> Result<&Value> {
        let idx = self
            .schema
            .index_of(column)
            .ok_or_else(|| EngineError::Schema(format!("unknown column '{column}'")))?;
        self.tuples
            .get(tuple)
            .map(|t| &t.certain[idx])
            .ok_or_else(|| EngineError::Operator(format!("tuple {tuple} out of range")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use orion_pdf::prelude::*;

    fn sensor_relation() -> (Relation, HistoryRegistry) {
        // The paper's Table I.
        let schema = ProbSchema::new(
            vec![("id", ColumnType::Int, false), ("loc", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("readings", schema);
        let mut reg = HistoryRegistry::new();
        for (id, mean, var) in [(1, 20.0, 5.0), (2, 25.0, 4.0), (3, 13.0, 1.0)] {
            rel.insert_simple(
                &mut reg,
                &[("id", Value::Int(id))],
                &[("loc", Pdf1::gaussian(mean, var).unwrap())],
            )
            .unwrap();
        }
        (rel, reg)
    }

    #[test]
    fn table1_sensor_relation() {
        let (rel, reg) = sensor_relation();
        assert_eq!(rel.len(), 3);
        assert_eq!(reg.len(), 3, "one base pdf per tuple");
        assert_eq!(rel.value(0, "id").unwrap(), &Value::Int(1));
        let m = rel.marginal(1, "loc").unwrap();
        assert!((m.expected_value().unwrap() - 25.0).abs() < 1e-9);
        assert_eq!(m.to_string(), "Gaus(25,4)");
    }

    #[test]
    fn insert_validation() {
        let (mut rel, mut reg) = sensor_relation();
        // Pdf for a certain column.
        assert!(rel.insert_simple(&mut reg, &[], &[("id", Pdf1::certain(1.0))]).is_err());
        // Value for an uncertain column.
        assert!(rel
            .insert(
                &mut reg,
                &[("loc", Value::Real(1.0))],
                vec![(vec!["loc"], JointPdf::from_pdf1(Pdf1::certain(1.0)))]
            )
            .is_err());
        // Missing pdf.
        assert!(rel.insert(&mut reg, &[("id", Value::Int(9))], vec![]).is_err());
        // Unknown column.
        assert!(rel.insert_simple(&mut reg, &[("nope", Value::Int(1))], &[]).is_err());
        // Arity mismatch.
        assert!(rel
            .insert(
                &mut reg,
                &[("id", Value::Int(9))],
                vec![(
                    vec!["loc"],
                    JointPdf::independent(vec![Pdf1::certain(1.0), Pdf1::certain(2.0)]).unwrap()
                )]
            )
            .is_err());
    }

    #[test]
    fn rejected_insert_leaves_registry_untouched() {
        let schema = ProbSchema::new(
            vec![
                ("id", ColumnType::Int, false),
                ("x", ColumnType::Real, true),
                ("y", ColumnType::Real, true),
            ],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("t", schema);
        let mut reg = HistoryRegistry::new();
        let xy = [("x", Pdf1::certain(1.0)), ("y", Pdf1::certain(2.0))];
        rel.insert_simple(&mut reg, &[("id", Value::Int(1))], &xy).unwrap();
        let before = (reg.len(), reg.last_id(), rel.len());
        // `y` has no pdf: rejected after `x`'s pdf was already checked.
        let missing = rel.insert_simple(&mut reg, &[("id", Value::Int(2))], &xy[..1]);
        assert!(missing.is_err());
        // `id` is certain: rejected at the second pdf.
        let certain =
            rel.insert_simple(&mut reg, &[], &[xy[0].clone(), ("id", Pdf1::certain(3.0))]);
        assert!(certain.is_err());
        assert_eq!((reg.len(), reg.last_id(), rel.len()), before, "nothing registered");
        let tables = std::collections::HashMap::from([("t".to_string(), rel)]);
        crate::durable::check_invariants(&tables, &reg).unwrap();
    }

    #[test]
    fn partial_pdf_insert_encodes_maybe_tuple() {
        // Table IV row 2: tuple exists with probability 0.8.
        let schema = ProbSchema::new(
            vec![
                ("a", ColumnType::Int, false),
                ("b", ColumnType::Real, true),
                ("c", ColumnType::Real, true),
            ],
            vec![vec!["b", "c"]],
        )
        .unwrap();
        let mut rel = Relation::new("t", schema);
        let mut reg = HistoryRegistry::new();
        let joint = JointPdf::from_points(
            JointDiscrete::from_points(2, vec![(vec![4.0, 7.0], 0.2), (vec![4.1, 3.7], 0.6)])
                .unwrap(),
        );
        rel.insert(&mut reg, &[("a", Value::Int(2))], vec![(vec!["b", "c"], joint)]).unwrap();
        assert!((rel.tuples[0].naive_existence() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn delete_without_references_drops_base() {
        let (mut rel, mut reg) = sensor_relation();
        let n = rel.delete_where(&mut reg, |t| t.certain[0] == Value::Int(2));
        assert_eq!(n, 1);
        assert_eq!(rel.len(), 2);
        assert_eq!(reg.len(), 2, "unreferenced base removed");
    }

    #[test]
    fn delete_with_reference_keeps_phantom() {
        let (mut rel, mut reg) = sensor_relation();
        // Simulate a derived relation referencing tuple 0's base pdf.
        let anc = rel.tuples[0].nodes[0].ancestors.clone();
        reg.add_refs(&anc);
        rel.delete_where(&mut reg, |t| t.certain[0] == Value::Int(1));
        assert_eq!(reg.len(), 3, "phantom survives");
        let id = *anc.iter().next().unwrap();
        assert!(reg.base(id).unwrap().phantom);
        reg.release_refs(&anc);
        assert!(reg.base(id).is_err(), "reclaimed after last reference");
    }

    #[test]
    fn release_decrements_refs() {
        let (rel, mut reg) = sensor_relation();
        let id = *rel.tuples[0].nodes[0].ancestors.iter().next().unwrap();
        assert_eq!(reg.ref_count(id), 1);
        rel.release(&mut reg);
        assert_eq!(reg.ref_count(id), 0);
    }
}

//! The projection operator Π_A (paper Section III-B).
//!
//! Projection narrows the *visible* schema but must not discard floor
//! information: a dependency set whose pdf is partial (mass < 1) or that
//! intersects the kept attributes is retained in full — its projected-out
//! attributes become **phantom attributes**, invisible to the user but
//! available to later history-aware recombination. Dependency sets disjoint
//! from `A` with full mass carry no information and are dropped.
//!
//! Duplicate elimination is intentionally not performed (the paper defers
//! it as future work because it induces complex historical dependencies).

use crate::error::{EngineError, Result};
use crate::history::HistoryRegistry;
use crate::relation::Relation;
use crate::schema::{AttrId, Column, ProbSchema};
use crate::select::ExecOptions;
use crate::tuple::ProbTuple;

/// Mass slack under which a pdf still counts as "complete" for the
/// drop-disjoint-full-mass-sets rule.
const FULL_MASS_EPS: f64 = 1e-9;

/// Evaluates Π_cols over a relation. Narrowing reads no history, so the
/// registry argument only keeps the operators' signatures uniform.
pub fn project(
    rel: &Relation,
    cols: &[&str],
    _reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<Relation> {
    if cols.is_empty() {
        return Err(EngineError::Operator("projection onto zero columns".into()));
    }
    let mut new_cols: Vec<Column> = Vec::with_capacity(cols.len());
    let mut kept_ids: Vec<AttrId> = Vec::with_capacity(cols.len());
    let mut kept_idx: Vec<usize> = Vec::with_capacity(cols.len());
    for &c in cols {
        let col = rel
            .schema
            .column(c)
            .ok_or_else(|| EngineError::Schema(format!("unknown column '{c}'")))?;
        if kept_ids.contains(&col.id) {
            return Err(EngineError::Operator(format!("duplicate projection column '{c}'")));
        }
        new_cols.push(col.clone());
        kept_ids.push(col.id);
        kept_idx.push(rel.schema.index_of(c).expect("column exists"));
    }
    // Visible dependency info: old sets restricted to the kept attributes.
    let deps: Vec<Vec<AttrId>> = rel
        .schema
        .deps()
        .iter()
        .filter_map(|s| {
            let v: Vec<AttrId> = s.iter().copied().filter(|a| kept_ids.contains(a)).collect();
            (!v.is_empty()).then_some(v)
        })
        .collect();
    let projected = crate::exec_par::run_tuples_mode(&rel.tuples, opts, |_, t| {
        let certain: Vec<_> = kept_idx.iter().map(|&i| t.certain[i].clone()).collect();
        let mut nodes = Vec::new();
        for n in &t.nodes {
            let intersects = n.dims.iter().any(|d| d.column.is_some_and(|a| kept_ids.contains(&a)));
            if intersects || n.mass() < 1.0 - FULL_MASS_EPS {
                // Kept in full; columns outside `kept_ids` become phantom
                // dimensions (visible to histories, hidden from users).
                let hidden: Vec<AttrId> = n
                    .dims
                    .iter()
                    .filter_map(|d| d.column.filter(|a| !kept_ids.contains(a)))
                    .collect();
                let kept = if hidden.is_empty() { n.clone() } else { n.hide_columns(&hidden) };
                nodes.push(kept);
            }
        }
        Ok(ProbTuple { certain, nodes })
    })?;
    Ok(Relation {
        name: format!("pi({})", rel.name),
        schema: ProbSchema::from_columns(new_cols, deps),
        tuples: projected.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, Predicate};
    use crate::schema::ColumnType;
    use crate::select::{select, ExecOptions};
    use crate::value::Value;
    use orion_pdf::prelude::*;

    fn ab_relation() -> (Relation, HistoryRegistry) {
        let schema = ProbSchema::new(
            vec![
                ("id", ColumnType::Int, false),
                ("a", ColumnType::Int, true),
                ("b", ColumnType::Int, true),
            ],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("T", schema);
        let mut reg = HistoryRegistry::new();
        rel.insert_simple(
            &mut reg,
            &[("id", Value::Int(1))],
            &[
                ("a", Pdf1::discrete(vec![(0.0, 0.1), (1.0, 0.9)]).unwrap()),
                ("b", Pdf1::discrete(vec![(1.0, 0.6), (2.0, 0.4)]).unwrap()),
            ],
        )
        .unwrap();
        (rel, reg)
    }

    #[test]
    fn projection_narrows_schema() {
        let (rel, reg) = ab_relation();
        let out = project(&rel, &["id", "a"], &reg, &ExecOptions::default()).unwrap();
        assert_eq!(out.schema.columns().len(), 2);
        assert_eq!(out.len(), 1);
        assert_eq!(out.value(0, "id").unwrap(), &Value::Int(1));
        // b's full-mass singleton set was dropped entirely.
        assert_eq!(out.tuples[0].nodes.len(), 1);
        let m = out.marginal(0, "a").unwrap();
        assert!((m.density(1.0) - 0.9).abs() < 1e-12);
        assert!(out.marginal(0, "b").is_err(), "b no longer visible");
    }

    #[test]
    fn partial_pdf_survives_projection_as_phantom() {
        // Select b > 1 (mass 0.4), project to a: the b node must be kept
        // (phantom) because its floor constrains tuple existence.
        let (rel, reg) = ab_relation();
        let sel =
            select(&rel, &Predicate::cmp("b", CmpOp::Gt, 1i64), &reg, &ExecOptions::default())
                .unwrap();
        let out = project(&sel, &["a"], &reg, &ExecOptions::default()).unwrap();
        assert_eq!(out.schema.columns().len(), 1);
        let t = &out.tuples[0];
        assert_eq!(t.nodes.len(), 2, "partial b node kept as phantom");
        assert!((t.naive_existence() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn merged_set_keeps_projected_attr_as_phantom() {
        // σ_{a<b} merges {a,b}; Π_a then keeps the joint with phantom b.
        let (rel, reg) = ab_relation();
        let sel =
            select(&rel, &Predicate::cmp_cols("a", CmpOp::Lt, "b"), &reg, &ExecOptions::default())
                .unwrap();
        let out = project(&sel, &["a"], &reg, &ExecOptions::default()).unwrap();
        let t = &out.tuples[0];
        assert_eq!(t.nodes.len(), 1);
        assert_eq!(t.nodes[0].dims.len(), 2, "b retained as phantom dimension");
        let m = out.marginal(0, "a").unwrap();
        assert!((m.mass() - 0.46).abs() < 1e-12);
        assert!((m.density(0.0) - 0.10).abs() < 1e-12);
        assert!((m.density(1.0) - 0.36).abs() < 1e-12);
        // Visible dependency info shows only 'a'.
        assert_eq!(out.schema.deps(), &[vec![rel.schema.column("a").unwrap().id]]);
    }

    #[test]
    fn projection_validation() {
        let (rel, reg) = ab_relation();
        assert!(project(&rel, &[], &reg, &ExecOptions::default()).is_err());
        assert!(project(&rel, &["zzz"], &reg, &ExecOptions::default()).is_err());
        assert!(project(&rel, &["a", "a"], &reg, &ExecOptions::default()).is_err());
    }

    #[test]
    fn projection_preserves_certain_columns_only() {
        let (rel, reg) = ab_relation();
        let out = project(&rel, &["id"], &reg, &ExecOptions::default()).unwrap();
        assert_eq!(out.schema.columns().len(), 1);
        assert!(out.tuples[0].nodes.is_empty(), "full-mass pdfs dropped");
        assert!((out.tuples[0].naive_existence() - 1.0).abs() < 1e-12);
    }
}

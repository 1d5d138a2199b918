//! Tuple uncertainty through shared phantom ancestors — the paper's claim
//! that the attribute-uncertainty model "can directly handle tuple
//! uncertainty, and thus is more general", including mutual-exclusion
//! constraints among tuples (Section I / Definition 2's phantom-ancestor
//! note). Verified against the ancestor-level possible-worlds engine,
//! which enumerates base pdf outcomes and therefore sees cross-tuple
//! correlation exactly.

use orion_core::plan::{execute, Plan};
use orion_core::prelude::*;
use orion_core::pws::{
    distribution_distance, engine_row_distribution, pws_row_distribution_via_ancestors, CanonValue,
};
use orion_pdf::prelude::*;
use std::collections::HashMap;

/// A table of data-cleaning alternatives: the extractor produced two
/// mutually exclusive readings for the same record, plus one independent
/// certain record.
fn mutex_table() -> (HashMap<String, Relation>, HistoryRegistry) {
    let mut reg = HistoryRegistry::new();
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
    rel.insert_mutex_group(
        &mut reg,
        vec![
            (
                vec![("id", Value::Int(1))],
                vec![("a", Pdf1::certain(10.0)), ("b", Pdf1::certain(100.0))],
            ),
            (
                vec![("id", Value::Int(2))],
                vec![("a", Pdf1::certain(20.0)), ("b", Pdf1::certain(200.0))],
            ),
        ],
        &[0.3, 0.5],
    )
    .unwrap();
    rel.insert_simple(
        &mut reg,
        &[("id", Value::Int(3))],
        &[("a", Pdf1::certain(30.0)), ("b", Pdf1::certain(300.0))],
    )
    .unwrap();
    let mut tables = HashMap::new();
    tables.insert("T".to_string(), rel);
    (tables, reg)
}

fn int_key(i: i64) -> Vec<CanonValue> {
    vec![CanonValue::Int(i)]
}

#[test]
fn alternatives_exist_with_declared_probabilities() {
    let (tables, reg) = mutex_table();
    let rel = &tables["T"];
    let opts = ExecOptions::default();
    let p1 = orion_core::collapse::existence_prob(&rel.tuples[0], &reg, opts.resolution).unwrap();
    let p2 = orion_core::collapse::existence_prob(&rel.tuples[1], &reg, opts.resolution).unwrap();
    assert!((p1 - 0.3).abs() < 1e-12);
    assert!((p2 - 0.5).abs() < 1e-12);
}

#[test]
fn ancestor_level_pws_sees_mutual_exclusion() {
    let (tables, reg) = mutex_table();
    // Row-presence probabilities over the projection to id.
    let plan = Plan::scan("T").project(&["id"]);
    let dist = pws_row_distribution_via_ancestors(&plan, &tables, &reg).unwrap();
    assert!((dist[&int_key(1)] - 0.3).abs() < 1e-12);
    assert!((dist[&int_key(2)] - 0.5).abs() < 1e-12);
    assert!((dist[&int_key(3)] - 1.0).abs() < 1e-12);
    // A query whose output combines both alternatives can never fire: the
    // self-combination (a from alt 1, b from alt 2) is impossible.
    let both = Plan::scan("T").project(&["id", "a"]).join_on(
        Plan::scan("T").project(&["id", "b"]),
        Some(Predicate::cmp_cols("a", CmpOp::Lt, "b")),
    );
    let dist = pws_row_distribution_via_ancestors(&both, &tables, &reg).unwrap();
    // Output rows: (left id, a, right id, b). Surviving pairs are the
    // diagonal and the always-compatible pairs with tuple 3; the
    // anti-diagonal pairs (alt 1 with alt 2) have probability 0.
    let row = |lid: i64, a: f64, rid: i64, b: f64| {
        vec![
            CanonValue::Int(lid),
            CanonValue::Real(a.to_bits()),
            CanonValue::Int(rid),
            CanonValue::Real(b.to_bits()),
        ]
    };
    assert!((dist[&row(1, 10.0, 1, 100.0)] - 0.3).abs() < 1e-12);
    assert!((dist[&row(2, 20.0, 2, 200.0)] - 0.5).abs() < 1e-12);
    assert!(!dist.contains_key(&row(1, 10.0, 2, 200.0)), "mutually exclusive pair");
    assert!(!dist.contains_key(&row(2, 20.0, 1, 100.0)), "mutually exclusive pair");
    assert!((dist[&row(1, 10.0, 3, 300.0)] - 0.3).abs() < 1e-12);
    assert!((dist[&row(3, 30.0, 3, 300.0)] - 1.0).abs() < 1e-12);
}

#[test]
fn engine_join_drops_mutually_exclusive_pairs() {
    let (tables, reg) = mutex_table();
    let opts = ExecOptions::default();
    let plan = Plan::scan("T").project(&["id", "a"]).join_on(
        Plan::scan("T").project(&["id", "b"]),
        Some(Predicate::cmp_cols("a", CmpOp::Lt, "b")),
    );
    let truth = pws_row_distribution_via_ancestors(&plan, &tables, &reg).unwrap();
    let result = execute(&plan, &tables, &reg, &opts).unwrap();
    let engine = engine_row_distribution(&result, &reg, &opts).unwrap();
    // Project rows to the certain key columns for comparison: engine rows
    // also carry the uncertain columns; restrict both to shared keys by
    // comparing full distributions (values are certain here, so rows match
    // exactly).
    let d = distribution_distance(&truth, &engine);
    assert!(d < 1e-9, "deviation {d}\ntruth {truth:?}\nengine {engine:?}");
    // The anti-diagonal pairs were dropped as vacuous by the collapse.
    assert_eq!(result.len(), 7, "9 pairs minus the 2 impossible ones");
}

#[test]
fn selection_composes_with_mutex_constraints() {
    let (tables, reg) = mutex_table();
    let opts = ExecOptions::default();
    // Selection over an uncertain attribute of the alternatives.
    let plan = Plan::scan("T").select(Predicate::cmp("a", CmpOp::Lt, 25i64)).project(&["id"]);
    let truth = pws_row_distribution_via_ancestors(&plan, &tables, &reg).unwrap();
    let result = execute(&plan, &tables, &reg, &opts).unwrap();
    let engine = engine_row_distribution(&result, &reg, &opts).unwrap();
    assert!(distribution_distance(&truth, &engine) < 1e-9);
    assert!((truth[&int_key(1)] - 0.3).abs() < 1e-12);
    assert!((truth[&int_key(2)] - 0.5).abs() < 1e-12);
    assert!(!truth.contains_key(&int_key(3)), "30 fails a < 25");
}

#[test]
fn mutex_group_validation() {
    let mut reg = HistoryRegistry::new();
    let schema = ProbSchema::new(vec![("a", ColumnType::Int, true)], vec![]).unwrap();
    let mut rel = Relation::new("t", schema);
    // Probabilities exceeding 1.
    assert!(rel
        .insert_mutex_group(
            &mut reg,
            vec![
                (vec![], vec![("a", Pdf1::certain(1.0))]),
                (vec![], vec![("a", Pdf1::certain(2.0))]),
            ],
            &[0.7, 0.7],
        )
        .is_err());
    // Arity mismatch.
    assert!(rel
        .insert_mutex_group(&mut reg, vec![(vec![], vec![("a", Pdf1::certain(1.0))])], &[0.5, 0.5])
        .is_err());
    // Residual: with probability 0.2 neither exists.
    rel.insert_mutex_group(
        &mut reg,
        vec![(vec![], vec![("a", Pdf1::certain(1.0))]), (vec![], vec![("a", Pdf1::certain(2.0))])],
        &[0.3, 0.5],
    )
    .unwrap();
    let opts = ExecOptions::default();
    let total: f64 = rel
        .tuples
        .iter()
        .map(|t| orion_core::collapse::existence_prob(t, &reg, opts.resolution).unwrap())
        .sum();
    assert!((total - 0.8).abs() < 1e-12, "expected count 0.8");
}

#[test]
fn node_and_ancestor_level_pws_agree_on_independent_data() {
    // For plain base tables the two reference engines must coincide.
    let (tables, reg) = orion_tests::table2();
    let plan = Plan::scan("T").select(Predicate::cmp_cols("a", CmpOp::Lt, "b"));
    let node_level = orion_core::pws::pws_row_distribution(&plan, &tables).unwrap();
    let anc_level = pws_row_distribution_via_ancestors(&plan, &tables, &reg).unwrap();
    assert!(distribution_distance(&node_level, &anc_level) < 1e-12);
}

//! Property-based certification of Theorems 1 and 2: on randomly generated
//! finite discrete databases and randomly composed select / project / join
//! pipelines, the probabilistic operators must produce exactly the row
//! distribution obtained by brute-force possible-worlds enumeration.

use orion_core::plan::Plan;
use orion_core::prelude::*;
use orion_core::pws::{conformance_report, distribution_distance};
use orion_pdf::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

const TOL: f64 = 1e-9;

/// A generated uncertain attribute: up to 3 integer support points with
/// rational-ish probabilities summing to <= 1.
fn arb_discrete_pdf() -> impl Strategy<Value = Pdf1> {
    (prop::collection::vec((0i64..6, 1u32..5), 1..3), prop::bool::ANY).prop_map(|(raw, partial)| {
        let mut points: Vec<(f64, f64)> = Vec::new();
        let denom: u32 = raw.iter().map(|(_, w)| w).sum::<u32>() + u32::from(partial);
        for (v, w) in raw {
            points.push((v as f64, w as f64 / denom as f64));
        }
        Pdf1::discrete(points).expect("valid pdf")
    })
}

/// A generated joint 2-attribute pdf (correlated dependency set).
fn arb_joint2() -> impl Strategy<Value = JointPdf> {
    prop::collection::vec(((0i64..4, 0i64..4), 1u32..4), 1..4).prop_map(|raw| {
        let denom: u32 = raw.iter().map(|(_, w)| w).sum();
        let pts: Vec<(Vec<f64>, f64)> = raw
            .into_iter()
            .map(|((a, b), w)| (vec![a as f64, b as f64], w as f64 / denom as f64))
            .collect();
        JointPdf::from_points(JointDiscrete::from_points(2, pts).expect("valid joint"))
    })
}

/// Builds a small random relation T(id, a, b) where (a, b) is either a
/// correlated joint or two independent pdfs, per tuple count 1..=2.
fn arb_relation(name: &'static str) -> impl Strategy<Value = (&'static str, Vec<TupleSpec>)> {
    prop::collection::vec(arb_tuple_spec(), 1..3).prop_map(move |ts| (name, ts))
}

#[derive(Debug, Clone)]
enum TupleSpec {
    Independent(Pdf1, Pdf1),
    Correlated(JointPdf),
}

fn arb_tuple_spec() -> impl Strategy<Value = TupleSpec> {
    prop_oneof![
        (arb_discrete_pdf(), arb_discrete_pdf()).prop_map(|(a, b)| TupleSpec::Independent(a, b)),
        arb_joint2().prop_map(TupleSpec::Correlated),
    ]
}

fn build_tables(
    specs: Vec<(&'static str, Vec<TupleSpec>)>,
) -> (HashMap<String, Relation>, HistoryRegistry) {
    let mut reg = HistoryRegistry::new();
    let mut tables = HashMap::new();
    for (name, tuples) in specs {
        let schema = ProbSchema::new(
            vec![
                ("id", ColumnType::Int, false),
                ("a", ColumnType::Int, true),
                ("b", ColumnType::Int, true),
            ],
            vec![],
        )
        .expect("valid schema");
        let mut rel = Relation::new(name, schema);
        for (i, spec) in tuples.into_iter().enumerate() {
            match spec {
                TupleSpec::Independent(a, b) => rel
                    .insert(
                        &mut reg,
                        &[("id", Value::Int(i as i64))],
                        vec![
                            (vec!["a"], JointPdf::from_pdf1(a)),
                            (vec!["b"], JointPdf::from_pdf1(b)),
                        ],
                    )
                    .expect("insert"),
                TupleSpec::Correlated(j) => rel
                    .insert(&mut reg, &[("id", Value::Int(i as i64))], vec![(vec!["a", "b"], j)])
                    .expect("insert"),
            }
        }
        tables.insert(name.to_string(), rel);
    }
    (tables, reg)
}

/// A random comparison predicate over the relation's columns.
fn arb_pred() -> impl Strategy<Value = Predicate> {
    let op = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ];
    prop_oneof![
        (op.clone(), 0i64..6).prop_map(|(o, c)| Predicate::cmp("a", o, c)),
        (op.clone(), 0i64..6).prop_map(|(o, c)| Predicate::cmp("b", o, c)),
        op.clone().prop_map(|o| Predicate::cmp_cols("a", o, "b")),
        (op.clone(), op).prop_map(|(o1, o2)| {
            Predicate::And(vec![Predicate::cmp("a", o1, 2i64), Predicate::cmp("b", o2, 2i64)])
        }),
    ]
}

fn check(plan: &Plan, tables: &HashMap<String, Relation>, reg: &HistoryRegistry) {
    let opts = ExecOptions::default();
    let (truth, engine) = conformance_report(plan, tables, reg, &opts).expect("both engines run");
    let d = distribution_distance(&truth, &engine);
    assert!(d < TOL, "deviation {d} for plan {plan:?}\ntruth: {truth:?}\nengine: {engine:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn selection_conforms(spec in arb_relation("t"), pred in arb_pred()) {
        let (tables, reg) = build_tables(vec![spec]);
        let plan = Plan::scan("t").select(pred);
        check(&plan, &tables, &reg);
    }

    #[test]
    fn select_then_project_conforms(spec in arb_relation("t"), pred in arb_pred()) {
        let (tables, reg) = build_tables(vec![spec]);
        let plan = Plan::scan("t").select(pred).project(&["id", "a"]);
        check(&plan, &tables, &reg);
    }

    #[test]
    fn double_selection_conforms(
        spec in arb_relation("t"),
        p1 in arb_pred(),
        p2 in arb_pred(),
    ) {
        let (tables, reg) = build_tables(vec![spec]);
        let plan = Plan::scan("t").select(p1).select(p2);
        check(&plan, &tables, &reg);
    }

    #[test]
    fn join_of_two_tables_conforms(
        l in arb_relation("l"),
        r in arb_relation("r"),
        op in prop_oneof![Just(CmpOp::Lt), Just(CmpOp::Eq), Just(CmpOp::Ge)],
    ) {
        let (tables, reg) = build_tables(vec![l, r]);
        // Join on an uncertain cross-table comparison. After projecting,
        // `a` lives only on the left and `b` only on the right, so the
        // names need no qualification.
        let pred = Predicate::cmp_cols("a", op, "b");
        let plan = Plan::scan("l").project(&["id", "a"]).join_on(
            Plan::scan("r").project(&["id", "b"]),
            Some(pred),
        );
        check(&plan, &tables, &reg);
    }

    #[test]
    fn fig3_shape_pipeline_conforms(spec in arb_relation("t"), thresh in 0i64..5) {
        // Project two views of the same table, then rejoin them: the
        // history mechanism must reconstruct the original correlations.
        let (tables, reg) = build_tables(vec![spec]);
        let ta = Plan::scan("t").project(&["id", "a"]);
        let tb = Plan::scan("t")
            .select(Predicate::cmp("b", CmpOp::Gt, thresh))
            .project(&["id", "b"]);
        let plan = ta.join_on(tb, Some(Predicate::cmp_cols("pi(t).id", CmpOp::Eq, "pi(sigma(t)).id")));
        check(&plan, &tables, &reg);
    }
}

#[test]
fn join_project_join_composition() {
    // A deterministic deeper pipeline kept out of proptest for speed.
    let (tables, reg) = orion_tests::table2();
    let plan = Plan::scan("T").select(Predicate::cmp_cols("a", CmpOp::Lt, "b")).project(&["a"]);
    let opts = ExecOptions::default();
    let (truth, engine) = conformance_report(&plan, &tables, &reg, &opts).unwrap();
    assert!(distribution_distance(&truth, &engine) < TOL);
}

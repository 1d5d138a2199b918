//! Parallel-execution equivalence: on randomly generated discrete
//! databases and randomly composed plans, morsel-driven execution must be
//! **bit-identical** to serial execution at any thread count — same result
//! tuples (certain values, pdf values, history ids), same registry
//! contents and reference counts, same existence probabilities — and the
//! serial result itself must conform to brute-force possible-worlds
//! enumeration (Theorems 1 and 2), so the whole family is certified
//! against one oracle.

use orion_core::collapse;
use orion_core::plan::{execute, Plan};
use orion_core::prelude::*;
use orion_core::pws::{conformance_report, distribution_distance};
use orion_pdf::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

const TOL: f64 = 1e-9;

/// Thread counts exercised against the serial baseline. Morsel size is
/// forced to 2 so even the tiny generated relations split into many
/// morsels.
const THREADS: [usize; 3] = [2, 4, 8];

fn opts_with(threads: usize) -> ExecOptions {
    ExecOptions { threads, morsel_size: 2, ..ExecOptions::default() }
}

/// A generated uncertain attribute: up to 3 integer support points, with
/// an optional missing share (partial pdf).
fn arb_discrete_pdf() -> impl Strategy<Value = Pdf1> {
    (prop::collection::vec((0i64..6, 1u32..5), 1..3), prop::bool::ANY).prop_map(|(raw, partial)| {
        let denom: u32 = raw.iter().map(|(_, w)| w).sum::<u32>() + u32::from(partial);
        let points: Vec<(f64, f64)> =
            raw.into_iter().map(|(v, w)| (v as f64, w as f64 / denom as f64)).collect();
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

fn arb_tuples() -> impl Strategy<Value = Vec<TupleSpec>> {
    prop::collection::vec(arb_tuple_spec(), 3..7)
}

/// One `T(id, a, b)` schema per generated database, shared (cloned) by
/// every thread-count run so attribute ids — recorded inside the result
/// tuples — line up across runs.
fn shared_schema() -> ProbSchema {
    ProbSchema::new(
        vec![
            ("id", ColumnType::Int, false),
            ("a", ColumnType::Int, true),
            ("b", ColumnType::Int, true),
        ],
        vec![],
    )
    .expect("valid schema")
}

/// Materializes one table set + fresh registry from the specs. Each run
/// gets its own registry, so serial and parallel runs assign history ids
/// from the same starting point.
fn build(
    schemas: &[(&str, &ProbSchema)],
    specs: &[Vec<TupleSpec>],
) -> (HashMap<String, Relation>, HistoryRegistry) {
    let mut reg = HistoryRegistry::new();
    let mut tables = HashMap::new();
    for ((name, schema), tuples) in schemas.iter().zip(specs) {
        let mut rel = Relation::new(*name, (*schema).clone());
        for (i, spec) in tuples.iter().enumerate() {
            match spec {
                TupleSpec::Independent(a, b) => rel
                    .insert(
                        &mut reg,
                        &[("id", Value::Int(i as i64))],
                        vec![
                            (vec!["a"], JointPdf::from_pdf1(a.clone())),
                            (vec!["b"], JointPdf::from_pdf1(b.clone())),
                        ],
                    )
                    .expect("insert"),
                TupleSpec::Correlated(j) => rel
                    .insert(
                        &mut reg,
                        &[("id", Value::Int(i as i64))],
                        vec![(vec!["a", "b"], j.clone())],
                    )
                    .expect("insert"),
            }
        }
        tables.insert(name.to_string(), rel);
    }
    (tables, reg)
}

/// A random comparison predicate over `a` / `b`.
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

/// A compact fingerprint of the registry: base count, highest id, and the
/// reference count of every live id.
fn registry_fingerprint(reg: &HistoryRegistry) -> (usize, u64, Vec<(u64, usize)>) {
    let mut refs: Vec<(u64, usize)> =
        reg.iter_bases().map(|(id, _)| (id, reg.ref_count(id))).collect();
    refs.sort_unstable();
    (reg.len(), reg.last_id(), refs)
}

/// Runs the plan serially and at every thread count in [`THREADS`], each
/// over a freshly built copy of the database, and asserts the outputs are
/// bit-identical: tuples, registry fingerprint, existence probabilities.
fn assert_parallel_equivalent(
    plan: &Plan,
    schemas: &[(&str, &ProbSchema)],
    specs: &[Vec<TupleSpec>],
) {
    let (tables, reg) = build(schemas, specs);
    let serial = execute(plan, &tables, &reg, &opts_with(1)).expect("serial run");
    let serial_fp = registry_fingerprint(&reg);
    let serial_probs: Vec<f64> = serial
        .tuples
        .iter()
        .map(|t| collapse::existence_prob(t, &reg, 64).expect("existence"))
        .collect();

    for threads in THREADS {
        let (tables, reg) = build(schemas, specs);
        let par = execute(plan, &tables, &reg, &opts_with(threads)).expect("parallel run");
        assert_eq!(par.tuples, serial.tuples, "threads={threads}, plan={plan:?}");
        assert_eq!(registry_fingerprint(&reg), serial_fp, "threads={threads}, plan={plan:?}");
        let probs: Vec<f64> = par
            .tuples
            .iter()
            .map(|t| collapse::existence_prob(t, &reg, 64).expect("existence"))
            .collect();
        // Identical tuples + identical registries make these identical
        // bit patterns, not merely close.
        assert_eq!(probs, serial_probs, "threads={threads}, plan={plan:?}");
    }
}

/// PWS oracle on a fresh copy (threshold-free plans only).
fn assert_pws_conforms(plan: &Plan, schemas: &[(&str, &ProbSchema)], specs: &[Vec<TupleSpec>]) {
    let (tables, reg) = build(schemas, specs);
    let (truth, engine) =
        conformance_report(plan, &tables, &reg, &opts_with(1)).expect("both engines run");
    let d = distribution_distance(&truth, &engine);
    assert!(d < TOL, "PWS deviation {d} for plan {plan:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn selection_is_thread_count_invariant(specs in arb_tuples(), pred in arb_pred()) {
        let schema = shared_schema();
        let schemas = [("t", &schema)];
        let plan = Plan::scan("t").select(pred);
        assert_parallel_equivalent(&plan, &schemas, std::slice::from_ref(&specs));
        assert_pws_conforms(&plan, &schemas, &[specs]);
    }

    #[test]
    fn select_project_is_thread_count_invariant(specs in arb_tuples(), pred in arb_pred()) {
        let schema = shared_schema();
        let schemas = [("t", &schema)];
        let plan = Plan::scan("t").select(pred).project(&["id", "a"]);
        assert_parallel_equivalent(&plan, &schemas, std::slice::from_ref(&specs));
        assert_pws_conforms(&plan, &schemas, &[specs]);
    }

    #[test]
    fn join_is_thread_count_invariant(
        l in arb_tuples(),
        r in arb_tuples(),
        op in prop_oneof![Just(CmpOp::Lt), Just(CmpOp::Eq), Just(CmpOp::Ge)],
    ) {
        let (sl, sr) = (shared_schema(), shared_schema());
        let schemas = [("l", &sl), ("r", &sr)];
        let pred = Predicate::cmp_cols("a", op, "b");
        let plan = Plan::scan("l").project(&["id", "a"]).join_on(
            Plan::scan("r").project(&["id", "b"]),
            Some(pred),
        );
        assert_parallel_equivalent(&plan, &schemas, &[l.clone(), r.clone()]);
    }

    #[test]
    fn equi_join_is_thread_count_invariant(l in arb_tuples(), r in arb_tuples()) {
        // Certain equi-join: exercises the hash path and the nested-loop
        // prefilter's pruning accounting under parallel probing.
        let (sl, sr) = (shared_schema(), shared_schema());
        let schemas = [("l", &sl), ("r", &sr)];
        let pred = Predicate::And(vec![
            Predicate::cmp_cols("pi(l).id", CmpOp::Eq, "pi(r).id"),
            Predicate::cmp_cols("a", CmpOp::Le, "b"),
        ]);
        let plan = Plan::scan("l").project(&["id", "a"]).join_on(
            Plan::scan("r").project(&["id", "b"]),
            Some(pred),
        );
        assert_parallel_equivalent(&plan, &schemas, &[l, r]);
    }

    #[test]
    fn threshold_attrs_is_thread_count_invariant(specs in arb_tuples(), p in 0u32..10) {
        let schema = shared_schema();
        let schemas = [("t", &schema)];
        let plan = Plan::ThresholdAttrs(
            Box::new(Plan::scan("t")),
            vec!["a".into()],
            CmpOp::Gt,
            f64::from(p) / 10.0,
        );
        assert_parallel_equivalent(&plan, &schemas, &[specs]);
    }

    #[test]
    fn threshold_pred_is_thread_count_invariant(
        specs in arb_tuples(),
        pred in arb_pred(),
        p in 0u32..10,
    ) {
        let schema = shared_schema();
        let schemas = [("t", &schema)];
        let plan = Plan::ThresholdPred(
            Box::new(Plan::scan("t")),
            pred,
            CmpOp::Ge,
            f64::from(p) / 10.0,
        );
        assert_parallel_equivalent(&plan, &schemas, &[specs]);
    }

    #[test]
    fn tracing_is_bitwise_invisible(specs in arb_tuples(), pred in arb_pred()) {
        // Tracing is record-only: a run with a tracer attached
        // must be bitwise identical to the untraced run — same tuples,
        // same registry fingerprint — at serial and parallel thread
        // counts, while still recording spans.
        let schema = shared_schema();
        let schemas = [("t", &schema)];
        let plan = Plan::scan("t").select(pred).project(&["id", "a"]);
        for threads in [1usize, 4] {
            let (tables, reg) = build(&schemas, std::slice::from_ref(&specs));
            let plain = execute(&plan, &tables, &reg, &opts_with(threads))
                .expect("untraced run");
            let plain_fp = registry_fingerprint(&reg);

            let tracer = orion_obs::Tracer::new();
            let (tables, reg) = build(&schemas, std::slice::from_ref(&specs));
            let opts = opts_with(threads).with_trace(tracer.clone());
            let traced = execute(&plan, &tables, &reg, &opts).expect("traced run");
            prop_assert_eq!(&traced.tuples, &plain.tuples);
            prop_assert_eq!(registry_fingerprint(&reg), plain_fp);
            prop_assert!(!tracer.events().is_empty(), "tracer recorded spans");
        }
    }

    #[test]
    fn fig3_pipeline_is_thread_count_invariant(specs in arb_tuples(), thresh in 0i64..5) {
        // The history-heavy shape: two projections of the same table,
        // rejoined. Recombination through common ancestors must commute
        // with morsel-parallel execution.
        let schema = shared_schema();
        let schemas = [("t", &schema)];
        let ta = Plan::scan("t").project(&["id", "a"]);
        let tb = Plan::scan("t")
            .select(Predicate::cmp("b", CmpOp::Gt, thresh))
            .project(&["id", "b"]);
        let plan = ta.join_on(
            tb,
            Some(Predicate::cmp_cols("pi(t).id", CmpOp::Eq, "pi(sigma(t)).id")),
        );
        assert_parallel_equivalent(&plan, &schemas, std::slice::from_ref(&specs));
        assert_pws_conforms(&plan, &schemas, &[specs]);
    }
}

/// Bulk insertion must assign the same history ids a serial load would.
#[test]
fn bulk_insert_id_protocol_matches_serial() {
    let schema = ProbSchema::new(
        vec![("id", ColumnType::Int, false), ("x", ColumnType::Real, true)],
        vec![],
    )
    .unwrap();
    let row = |i: usize| BulkRow {
        certain: vec![("id".into(), Value::Int(i as i64))],
        uncertain: vec![(
            vec!["x".into()],
            JointPdf::from_pdf1(Pdf1::gaussian(i as f64, 1.0 + i as f64).unwrap()),
        )],
    };
    let mut serial_reg = HistoryRegistry::new();
    let mut serial = Relation::new("t", schema.clone());
    for i in 0..50 {
        let r = row(i);
        let certain: Vec<(&str, Value)> =
            r.certain.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
        let uncertain = r
            .uncertain
            .iter()
            .map(|(ns, j)| (ns.iter().map(|s| s.as_str()).collect(), j.clone()))
            .collect();
        serial.insert(&mut serial_reg, &certain, uncertain).unwrap();
    }
    for threads in [1, 2, 4, 8] {
        let mut reg = HistoryRegistry::new();
        let mut rel = Relation::new("t", schema.clone());
        insert_batch(&mut rel, &mut reg, &opts_with(threads), 50, row).unwrap();
        assert_eq!(rel.tuples, serial.tuples, "threads={threads}");
        assert_eq!(
            registry_fingerprint(&reg),
            registry_fingerprint(&serial_reg),
            "threads={threads}"
        );
    }
}

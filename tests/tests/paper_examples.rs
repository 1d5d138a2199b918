//! Every worked example in the paper, reproduced end to end and asserted
//! against the numbers printed in the text.

use orion_core::plan::Plan;
use orion_core::prelude::*;
use orion_core::pws::{pws_row_distribution, CanonValue};
use orion_pdf::prelude::*;
use orion_sql::{DurableSession, Output};
use orion_tests::{stored, table2};

fn real_row(vals: &[f64]) -> Vec<CanonValue> {
    vals.iter().map(|v| CanonValue::Real(v.to_bits())).collect()
}

#[test]
fn table1_sensor_database() {
    // Table I: three sensors with Gaus(20,5), Gaus(25,4), Gaus(13,1).
    let mut db = DurableSession::temporary("paper-table1").unwrap();
    db.execute("CREATE TABLE sensors (id INT, location REAL UNCERTAIN)").unwrap();
    db.execute(
        "INSERT INTO sensors VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4)), \
         (3, GAUSSIAN(13, 1))",
    )
    .unwrap();
    let rel = stored(&db, "sensors");
    assert_eq!(rel.len(), 3);
    for (i, (m, v)) in [(20.0, 5.0), (25.0, 4.0), (13.0, 1.0)].iter().enumerate() {
        let pdf = rel.marginal(i, "location").unwrap();
        assert!((pdf.expected_value().unwrap() - m).abs() < 1e-9);
        match pdf {
            Pdf1::Symbolic { dist: Symbolic::Gaussian { mean, variance }, .. } => {
                assert_eq!(mean, *m);
                assert_eq!(variance, *v);
            }
            other => panic!("stored symbolically, got {other}"),
        }
    }
}

#[test]
fn table3_possible_worlds_probabilities() {
    // Table III: the four worlds of tuple 1 have probabilities
    // 0.06, 0.04, 0.54, 0.36 (and tuple 2 is certain).
    let (tables, _) = table2();
    let dist = pws_row_distribution(&Plan::scan("T"), &tables).unwrap();
    assert!((dist[&real_row(&[0.0, 1.0])] - 0.06).abs() < 1e-12);
    assert!((dist[&real_row(&[0.0, 2.0])] - 0.04).abs() < 1e-12);
    assert!((dist[&real_row(&[1.0, 1.0])] - 0.54).abs() < 1e-12);
    assert!((dist[&real_row(&[1.0, 2.0])] - 0.36).abs() < 1e-12);
    assert!((dist[&real_row(&[7.0, 3.0])] - 1.0).abs() < 1e-12);
    assert_eq!(dist.len(), 5);
}

#[test]
fn section_3c_selection_example() {
    // σ_{a<b}(T) = one tuple with Discrete({0,1}:0.06, {0,2}:0.04,
    // {1,2}:0.36), schema Δ = {{a,b}}, ancestors {t1.a, t1.b}.
    let (tables, reg) = table2();
    let rel = &tables["T"];
    let out = orion_core::select::select(
        rel,
        &Predicate::cmp_cols("a", CmpOp::Lt, "b"),
        &reg,
        &ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(out.len(), 1);
    let n = &out.tuples[0].nodes[0];
    assert_eq!(n.ancestors.len(), 2);
    assert!((n.mass() - 0.46).abs() < 1e-12);
    let j = n.joint.enumerate().unwrap();
    assert_eq!(j.len(), 3);
    // Dimension order follows the merge; look probabilities up via columns.
    let pa = n.dim_of(rel.schema.column("a").unwrap().id).unwrap();
    let pb = n.dim_of(rel.schema.column("b").unwrap().id).unwrap();
    let prob = |a: f64, b: f64| {
        let mut pt = vec![0.0; 2];
        pt[pa] = a;
        pt[pb] = b;
        j.prob_at(&pt)
    };
    assert!((prob(0.0, 1.0) - 0.06).abs() < 1e-12);
    assert!((prob(0.0, 2.0) - 0.04).abs() < 1e-12);
    assert!((prob(1.0, 2.0) - 0.36).abs() < 1e-12);
}

#[test]
fn table4_missing_values_vs_missing_tuples() {
    let mut db = DurableSession::temporary("paper-table4").unwrap();
    db.execute("CREATE TABLE t (a INT, b REAL UNCERTAIN, c REAL UNCERTAIN, CORRELATED (b, c))")
        .unwrap();
    // Missing *attribute values*: the tuple certainly exists but b, c are
    // NULL-like (here: an uninformative full-mass pdf is the probabilistic
    // analogue; SQL NULL stays available for certain columns).
    db.execute("INSERT INTO t VALUES (1, JOINT((2, 3):0.8, (0, 0):0.2))").unwrap();
    // Missing *tuple*: partial pdf summing to 0.8 (closed world).
    db.execute("INSERT INTO t VALUES (2, JOINT((4, 7):0.2, (4.1, 3.7):0.6))").unwrap();
    let rel = stored(&db, "t");
    assert!((rel.tuples[0].naive_existence() - 1.0).abs() < 1e-12);
    assert!((rel.tuples[1].naive_existence() - 0.8).abs() < 1e-12);
}

#[test]
fn figure3_complete_pipeline() {
    // T with joint {a,b}: t1 = Discrete({4,5}:0.9, {2,3}:0.1),
    // t2 = Discrete({7,3}:0.7). Ta = Π_a(T); Tb = Π_b(σ_{b>4}(T)).
    let mut reg = HistoryRegistry::new();
    let schema = ProbSchema::new(
        vec![("a", ColumnType::Int, true), ("b", ColumnType::Int, true)],
        vec![vec!["a", "b"]],
    )
    .unwrap();
    let mut t = Relation::new("T", schema);
    for pts in [vec![(vec![4.0, 5.0], 0.9), (vec![2.0, 3.0], 0.1)], vec![(vec![7.0, 3.0], 0.7)]] {
        t.insert(
            &mut reg,
            &[],
            vec![(
                vec!["a", "b"],
                JointPdf::from_points(JointDiscrete::from_points(2, pts).unwrap()),
            )],
        )
        .unwrap();
    }
    let opts = ExecOptions::default();
    let mut ta = orion_core::project::project(&t, &["a"], &reg, &opts).unwrap();
    ta.name = "Ta".into();
    // Ta's marginals: Discrete(4:0.9, 2:0.1) and Discrete(7:0.7).
    let a_id = t.schema.column("a").unwrap().id;
    let b_id = t.schema.column("b").unwrap().id;
    let ma = ta.marginal(0, "a").unwrap();
    assert!((ma.density(4.0) - 0.9).abs() < 1e-12);
    assert!((ma.density(2.0) - 0.1).abs() < 1e-12);

    let sel =
        orion_core::select::select(&t, &Predicate::cmp("b", CmpOp::Gt, 4i64), &reg, &opts).unwrap();
    let mut tb = orion_core::project::project(&sel, &["b"], &reg, &opts).unwrap();
    tb.name = "Tb".into();
    assert_eq!(tb.len(), 1, "t2 fails b > 4");
    let mb = tb.marginal(0, "b").unwrap();
    assert!((mb.density(5.0) - 0.9).abs() < 1e-12);

    // The joined T2 (correct): t'1 joint = Discrete({4,5}:0.9);
    // t'2 = Discrete({7,5}:0.63) via independence.
    let joined = orion_core::join::join(&ta, &tb, None, &reg, &opts).unwrap();
    assert_eq!(joined.len(), 2);
    let existences: Vec<f64> = joined.tuples.iter().map(|tp| tp.naive_existence()).collect();
    let mut sorted = existences.clone();
    sorted.sort_by(f64::total_cmp);
    assert!((sorted[0] - 0.63).abs() < 1e-12);
    assert!((sorted[1] - 0.90).abs() < 1e-12);
    // Per-tuple joint distributions.
    for tp in joined.tuples.iter() {
        let ma = tp.node_for(a_id).unwrap().marginal(a_id).unwrap();
        let mb = tp.node_for(b_id).unwrap().marginal(b_id).unwrap();
        if ma.density(4.0) > 0.0 {
            // t'1: no phantom (2, 5) world.
            assert_eq!(ma.density(2.0), 0.0, "phantom world excluded");
            assert!((mb.density(5.0) - 0.9).abs() < 1e-12);
        } else {
            // t'2: independent pair (7, 5).
            assert!((ma.density(7.0) - 0.7).abs() < 1e-12);
            assert!((mb.density(5.0) - 0.9).abs() < 1e-12);
        }
    }
}

#[test]
fn gaussian_floor_representation_example() {
    // Section III-A: Gaus(5,1) under x < 5 is stored as
    // [Gaus(5,1), Floor{[5, oo]}].
    let mut db = DurableSession::temporary("paper-floor").unwrap();
    db.execute("CREATE TABLE t (x REAL UNCERTAIN)").unwrap();
    db.execute("INSERT INTO t VALUES (GAUSSIAN(5, 1))").unwrap();
    let out = db.execute("SELECT * FROM t WHERE x < 5").unwrap();
    let Output::Table(rel) = out else { panic!("expected table") };
    assert_eq!(rel.marginal(0, "x").unwrap().to_string(), "[Gaus(5,1), Floor{[5,inf]}]");
}

//! End-to-end SQL scenarios spanning the parser, planner, engine, and pdf
//! layers.

use orion_core::prelude::Value;
use orion_core::prelude::{check_invariants, ExecOptions};
use orion_sql::{render_output, Database, DurableSession, Output};
use orion_tests::stored_tables;

fn table(out: Output) -> orion_core::prelude::Relation {
    match out {
        Output::Table(rel) => rel,
        other => panic!("expected table, got {other:?}"),
    }
}

fn rows(out: Output) -> (Vec<String>, Vec<Vec<String>>) {
    match out {
        Output::Rows { header, rows } => (header, rows),
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn sensor_monitoring_scenario() {
    let mut db = DurableSession::temporary("sql_e2e-sensor_monitoring").unwrap();
    db.execute("CREATE TABLE readings (rid INT, site TEXT, temp REAL UNCERTAIN)").unwrap();
    db.execute(
        "INSERT INTO readings VALUES \
         (1, 'north', GAUSSIAN(20, 4)), \
         (2, 'north', GAUSSIAN(35, 9)), \
         (3, 'south', GAUSSIAN(50, 1)), \
         (4, 'south', UNIFORM(10, 30))",
    )
    .unwrap();

    // Mixed certain + uncertain predicates.
    let rel =
        table(db.execute("SELECT * FROM readings WHERE site = 'north' AND temp < 30").unwrap());
    assert_eq!(rel.len(), 2);
    // Gaus(20,4): nearly all mass below 30; Gaus(35,9): small tail mass.
    assert!(rel.tuples[0].naive_existence() > 0.99);
    assert!(rel.tuples[1].naive_existence() < 0.05);

    // Threshold prunes low-probability matches.
    let rel = table(
        db.execute("SELECT * FROM readings WHERE site = 'north' AND PROB(temp < 30) > 0.5")
            .unwrap(),
    );
    assert_eq!(rel.len(), 1);
    assert_eq!(rel.value(0, "rid").unwrap(), &Value::Int(1));

    // Expected values across mixed distribution families.
    let (_, out_rows) = rows(db.execute("SELECT rid, EXPECTED(temp) FROM readings").unwrap());
    let expected: Vec<f64> = out_rows.iter().map(|r| r[1].parse().unwrap()).collect();
    assert!((expected[0] - 20.0).abs() < 1e-6);
    assert!((expected[3] - 20.0).abs() < 1e-6, "uniform [10,30] mean");
}

#[test]
fn join_pipeline_scenario() {
    let mut db = DurableSession::temporary("sql_e2e-join_pipeline").unwrap();
    db.execute("CREATE TABLE trucks (tid INT, pos REAL UNCERTAIN)").unwrap();
    db.execute("CREATE TABLE zones (zid INT, boundary REAL UNCERTAIN)").unwrap();
    db.execute("INSERT INTO trucks VALUES (1, GAUSSIAN(10, 4)), (2, GAUSSIAN(45, 4))").unwrap();
    db.execute("INSERT INTO zones VALUES (7, UNIFORM(20, 30)), (8, UNIFORM(40, 60))").unwrap();
    // Which (truck, zone) pairs have the truck west of the boundary?
    let rel = table(db.execute("SELECT * FROM trucks JOIN zones ON pos < boundary").unwrap());
    // Truck 1 is west of both zones almost surely; truck 2 of zone 8 with
    // moderate probability and of zone 7 almost never.
    assert!(rel.len() >= 3);
    let find = |tid: i64, zid: i64| {
        rel.tuples
            .iter()
            .find(|t| {
                t.certain[rel.schema.index_of("tid").unwrap()] == Value::Int(tid)
                    && t.certain[rel.schema.index_of("zid").unwrap()] == Value::Int(zid)
            })
            .map(|t| t.naive_existence())
    };
    assert!(find(1, 7).unwrap() > 0.99);
    assert!(find(1, 8).unwrap() > 0.99);
    let t2z8 = find(2, 8).unwrap();
    assert!(t2z8 > 0.3 && t2z8 < 0.9, "t2z8 = {t2z8}");
}

#[test]
fn correlated_insert_and_query() {
    let mut db = DurableSession::temporary("sql_e2e-correlated_insert").unwrap();
    db.execute("CREATE TABLE obj (oid INT, x REAL UNCERTAIN, y REAL UNCERTAIN, CORRELATED (x, y))")
        .unwrap();
    db.execute(
        "INSERT INTO obj VALUES (1, JOINT((0, 0):0.5, (10, 10):0.5)), \
         (2, JOINT((0, 10):0.5, (10, 0):0.5))",
    )
    .unwrap();
    // x < 5 AND y < 5: object 1 satisfies with p 0.5 (world (0,0));
    // object 2 never (its worlds are anti-correlated).
    let rel = table(db.execute("SELECT * FROM obj WHERE x < 5 AND y < 5").unwrap());
    assert_eq!(rel.len(), 1);
    assert_eq!(rel.value(0, "oid").unwrap(), &Value::Int(1));
    assert!((rel.tuples[0].naive_existence() - 0.5).abs() < 1e-9);
}

#[test]
fn discrete_and_symbolic_families_coexist() {
    let mut db = DurableSession::temporary("sql_e2e-families").unwrap();
    db.execute("CREATE TABLE mixed (k INT, v REAL UNCERTAIN)").unwrap();
    db.execute(
        "INSERT INTO mixed VALUES \
         (1, POISSON(3)), (2, BINOMIAL(10, 0.5)), (3, BERNOULLI(0.25)), \
         (4, GEOMETRIC(0.5)), (5, EXPONENTIAL(0.1)), \
         (6, HISTOGRAM(0, 2, 0.25, 0.25, 0.5)), (7, DISCRETE(1:0.4, 2:0.6))",
    )
    .unwrap();
    let (_, out_rows) = rows(db.execute("SELECT k, EXPECTED(v) FROM mixed").unwrap());
    let means: Vec<f64> = out_rows.iter().map(|r| r[1].parse().unwrap()).collect();
    assert!((means[0] - 3.0).abs() < 1e-6);
    assert!((means[1] - 5.0).abs() < 1e-6);
    assert!((means[2] - 0.25).abs() < 1e-6);
    assert!((means[3] - 2.0).abs() < 1e-6);
    assert!((means[4] - 10.0).abs() < 1e-6);
    // Histogram buckets [0,2):.25, [2,4):.25, [4,6):.5 -> 1*.25+3*.25+5*.5.
    assert!((means[5] - 3.5).abs() < 1e-6);
    assert!((means[6] - 1.6).abs() < 1e-6);

    // A selection floors all families consistently.
    let rel = table(db.execute("SELECT * FROM mixed WHERE v >= 2").unwrap());
    for t in rel.tuples.iter() {
        assert!(t.naive_existence() > 0.0);
    }
    // Bernoulli(0.25) has no mass at v >= 2: its tuple is gone.
    assert!(rel
        .tuples
        .iter()
        .all(|t| t.certain[rel.schema.index_of("k").unwrap()] != Value::Int(3)));
}

#[test]
fn update_workflow_delete_and_reinsert() {
    let mut db = DurableSession::temporary("sql_e2e-update_workflow").unwrap();
    db.execute("CREATE TABLE t (k INT, v REAL UNCERTAIN)").unwrap();
    db.execute("INSERT INTO t VALUES (1, GAUSSIAN(0, 1)), (2, GAUSSIAN(5, 1))").unwrap();
    assert!(matches!(db.execute("DELETE FROM t WHERE k = 1").unwrap(), Output::Count(1)));
    db.execute("INSERT INTO t VALUES (1, GAUSSIAN(100, 1))").unwrap();
    let (_, out_rows) = rows(db.execute("SELECT k, EXPECTED(v) FROM t WHERE k = 1").unwrap());
    assert_eq!(out_rows.len(), 1);
    assert!((out_rows[0][1].parse::<f64>().unwrap() - 100.0).abs() < 1e-6);
}

#[test]
fn error_paths_are_reported() {
    let mut db = DurableSession::temporary("sql_e2e-error_paths").unwrap();
    assert!(db.execute("SELECT * FROM missing").is_err());
    db.execute("CREATE TABLE t (v REAL UNCERTAIN)").unwrap();
    assert!(db.execute("CREATE TABLE t (v REAL UNCERTAIN)").is_err());
    assert!(db.execute("INSERT INTO t VALUES (GAUSSIAN(0, -1))").is_err(), "bad variance");
    assert!(db.execute("INSERT INTO t VALUES (DISCRETE(1:0.9, 2:0.9))").is_err(), "mass > 1");
    assert!(db.execute("SELECT nope FROM t").is_err());
    assert!(
        db.execute("SELECT * FROM t WHERE PROB(v < 1) > 0.5 OR v > 2").is_err(),
        "thresholds must be top-level conjuncts"
    );
}

#[test]
fn three_statement_composition_keeps_histories_consistent() {
    // Build a view chain through SQL and check existence probabilities stay
    // PWS-consistent (composition of floors).
    let mut db = DurableSession::temporary("sql_e2e-composition").unwrap();
    db.execute("CREATE TABLE t (k INT, v REAL UNCERTAIN)").unwrap();
    db.execute("INSERT INTO t VALUES (1, DISCRETE(1:0.25, 2:0.25, 3:0.25, 4:0.25))").unwrap();
    let rel = table(db.execute("SELECT * FROM t WHERE v > 1 AND v < 4").unwrap());
    assert!((rel.tuples[0].naive_existence() - 0.5).abs() < 1e-12);
    let rel = table(db.execute("SELECT * FROM t WHERE v > 1 AND v < 4 AND v <> 2").unwrap());
    assert!((rel.tuples[0].naive_existence() - 0.25).abs() < 1e-12);
}

/// A database holding every table the scenarios above use.
fn corpus_db() -> DurableSession {
    let mut db = DurableSession::temporary("sql_e2e-corpus").unwrap();
    for sql in [
        "CREATE TABLE readings (rid INT, site TEXT, temp REAL UNCERTAIN)",
        "INSERT INTO readings VALUES (1, 'north', GAUSSIAN(20, 4)), (2, 'north', GAUSSIAN(35, 9)), \
         (3, 'south', GAUSSIAN(50, 1)), (4, 'south', UNIFORM(10, 30))",
        "CREATE TABLE trucks (tid INT, pos REAL UNCERTAIN)",
        "CREATE TABLE zones (zid INT, boundary REAL UNCERTAIN)",
        "INSERT INTO trucks VALUES (1, GAUSSIAN(10, 4)), (2, GAUSSIAN(45, 4))",
        "INSERT INTO zones VALUES (7, UNIFORM(20, 30)), (8, UNIFORM(40, 60))",
        "CREATE TABLE obj (oid INT, x REAL UNCERTAIN, y REAL UNCERTAIN, CORRELATED (x, y))",
        "INSERT INTO obj VALUES (1, JOINT((0, 0):0.5, (10, 10):0.5)), \
         (2, JOINT((0, 10):0.5, (10, 0):0.5))",
        "CREATE TABLE mixed (k INT, v REAL UNCERTAIN)",
        "INSERT INTO mixed VALUES (1, POISSON(3)), (2, BINOMIAL(10, 0.5)), (3, BERNOULLI(0.25)), \
         (6, HISTOGRAM(0, 2, 0.25, 0.25, 0.5)), (7, DISCRETE(1:0.4, 2:0.6))",
    ] {
        db.execute(sql).unwrap();
    }
    db
}

/// The SELECT shapes of the scenarios above, plus the post-relational
/// forms EXPLAIN refuses.
const CORPUS: &[&str] = &[
    "SELECT * FROM readings",
    "SELECT rid FROM readings",
    "SELECT * FROM readings WHERE site = 'north' AND temp < 30",
    "SELECT * FROM readings WHERE site = 'north' AND PROB(temp < 30) > 0.5",
    "SELECT rid, site FROM readings WHERE PROB(temp BETWEEN 15 AND 25) > 0.3 AND rid < 4",
    "SELECT rid FROM readings WHERE PROB(temp) > 0.9",
    "SELECT * FROM trucks JOIN zones ON pos < boundary",
    "SELECT tid, zid FROM trucks JOIN zones ON pos < boundary WHERE tid = 1",
    "SELECT * FROM trucks JOIN zones",
    "SELECT * FROM obj WHERE x < 5 AND y < 5",
    "SELECT oid FROM obj WHERE PROB(x < 5) >= 0.5",
    "SELECT * FROM mixed WHERE v >= 2",
    "SELECT k FROM mixed WHERE v > 1 AND v < 4 AND v <> 2",
    "SELECT rid, EXPECTED(temp) FROM readings",
    "SELECT ECOUNT(*), ESUM(temp) FROM readings WHERE temp < 30",
    "SELECT rid FROM readings ORDER BY temp DESC LIMIT 2",
    "SELECT DISTINCT site FROM readings",
];

/// Operator names, details and output cardinalities of a profile tree, in
/// pre-order.
fn shape(p: &orion_obs::OpProfile, out: &mut Vec<(String, String, u64)>) {
    out.push((p.name.clone(), p.detail.clone(), p.stats.tuples_out));
    for c in &p.children {
        shape(c, out);
    }
}

/// A served SELECT runs the plan `lower` produces through the core runner:
/// its rows equal that plan run directly, and the profile it keeps equals
/// what `EXPLAIN ANALYZE` of the same statement reports.
#[test]
fn select_runs_the_plan_explain_prints() {
    use orion_core::plan::execute;

    let mut session = corpus_db();
    let tables = stored_tables(&session);
    let mut db = session.query_db(ExecOptions::default());
    db.set_exec_stats(std::sync::Arc::default());
    let mut explained = 0;
    for sql in CORPUS {
        let lowered = orion_sql::lower(orion_sql::parse(sql).unwrap()).unwrap();
        if !lowered.post.is_empty() {
            assert!(db.execute(&format!("EXPLAIN {sql}")).is_err(), "{sql}");
            assert!(db.execute(sql).is_ok(), "{sql}");
            continue;
        }
        explained += 1;
        let reg = db.registry_mut().clone();
        let oracle = execute(&lowered.plan, &tables, &reg, &ExecOptions::default()).unwrap();

        let rel = table(db.execute(sql).unwrap());
        assert_eq!(rel.tuples, oracle.tuples, "{sql}");
        assert_eq!(rel.schema.columns(), oracle.schema.columns(), "{sql}");

        let ran = db.take_profile().expect("profiled SELECT keeps its profile");
        assert_eq!(ran.stats.tuples_out as usize, rel.len(), "{sql}");
        let out = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let Output::Explain { profile, .. } = out else { panic!("expected explain") };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        shape(&ran, &mut a);
        shape(&profile, &mut b);
        assert_eq!(a, b, "{sql}");
    }
    assert_eq!(explained, 13, "every relational statement of the corpus was checked");
}

/// Statements whose shape is wrong are refused before any operator runs:
/// the tables and the history registry (reference counts included) of the
/// runner they ran on are exactly as they were.
#[test]
fn shape_errors_leave_the_registry_untouched() {
    let mut session = corpus_db();
    let tables = stored_tables(&session);
    let stats = session.db().stats_catalog();
    let mut db = session.query_db(ExecOptions::default());
    let state = |db: &mut Database| orion_tests::fingerprint(&tables, db.registry_mut(), &stats);
    let before = state(&mut db);
    assert_eq!(before, session.db().with_tables(|t, reg| orion_tests::fingerprint(t, reg, &stats)));
    for sql in [
        "SELECT *, rid FROM readings WHERE temp < 30",
        "SELECT DISTINCT * FROM readings WHERE temp < 30",
        "SELECT ECOUNT(*), rid FROM trucks JOIN zones ON pos < boundary",
        "SELECT ESUM(temp), EXPECTED(temp) FROM readings WHERE temp < 30",
    ] {
        assert!(db.execute(sql).is_err(), "{sql}");
        assert!(state(&mut db) == before, "{sql} changed the runner's state");
    }
}

/// `PROB(..)` select items compile once per statement; the rendered
/// probabilities over symbolic, histogram and discrete rows (and over
/// rows a σ already floored) must not change in any digit.
#[test]
fn prob_items_render_unchanged() {
    let mut db = DurableSession::temporary("sql_e2e-prob_items").unwrap();
    db.execute("CREATE TABLE r (rid INT, v REAL UNCERTAIN)").unwrap();
    db.execute(
        "INSERT INTO r VALUES \
         (1, GAUSSIAN(20, 4)), (2, GAUSSIAN(35, 9)), (3, UNIFORM(10, 30)), \
         (4, HISTOGRAM(10, 5, 0.1, 0.2, 0.3, 0.3)), (5, HISTOGRAM(0, 2, 0.25, 0.25, 0.4)), \
         (6, DISCRETE(15:0.2, 20:0.3, 25:0.4)), (7, DISCRETE(21:1.0))",
    )
    .unwrap();
    let render = |db: &mut DurableSession, q: &str| render_output(&db.execute(q).unwrap()).unwrap();
    assert_eq!(
        render(&mut db, "SELECT rid, PROB(v BETWEEN 18 AND 24) FROM r"),
        "\
+-----+----------+
| rid | prob     |
+-----+----------+
| 1   | 0.818595 |
| 2   | 0.000123 |
| 3   | 0.300000 |
| 4   | 0.320000 |
| 5   | 0.000000 |
| 6   | 0.300000 |
| 7   | 1.000000 |
+-----+----------+"
    );
    assert_eq!(
        render(&mut db, "SELECT rid, PROB(v < 21.5), PROB(v >= 30) FROM r WHERE v > 19"),
        "\
+-----+----------+----------+
| rid | prob     | prob     |
+-----+----------+----------+
| 1   | 0.464835 | 0.000000 |
| 2   | 0.000003 | 0.952210 |
| 3   | 0.125000 | 0.000000 |
| 4   | 0.130000 | 0.000000 |
| 6   | 0.300000 | 0.000000 |
| 7   | 1.000000 | 0.000000 |
+-----+----------+----------+"
    );
}

/// Reads leave the registry as they found it: a SELECT's result is not
/// stored, so it takes no references on the bases it cites. Every read runs
/// on one runner, and after each one the stored tables and that runner's
/// registry still agree (every base's ref count equals its citing stored
/// nodes). Deleting every row reclaims every base.
#[test]
fn reads_leave_reference_counts_untouched() {
    let mut session = DurableSession::temporary("sql_e2e-reads_refcounts").unwrap();
    session.execute("CREATE TABLE r (rid INT, v REAL UNCERTAIN)").unwrap();
    session.execute("CREATE TABLE s (sid INT, w REAL UNCERTAIN)").unwrap();
    session
        .execute(
            "INSERT INTO r VALUES (1, GAUSSIAN(20, 4)), (2, UNIFORM(10, 40)), (3, GAUSSIAN(30, 1))",
        )
        .unwrap();
    session.execute("INSERT INTO s VALUES (1, UNIFORM(15, 35)), (2, GAUSSIAN(25, 2))").unwrap();
    let tables = stored_tables(&session);
    let mut db = session.query_db(ExecOptions::default());
    let check = |db: &mut Database, sql: &str| {
        if let Err(e) = check_invariants(&tables, db.registry_mut()) {
            panic!("after `{sql}`: {e}");
        }
    };
    check(&mut db, "INSERT");
    let reads = [
        "SELECT rid FROM r WHERE v > 20",
        "SELECT * FROM r WHERE PROB(v > 20) > 0.5",
        "SELECT * FROM r WHERE PROB(v > 20) > 0.5",
        "SELECT * FROM r WHERE PROB(v > 20) > 0.5",
        "SELECT * FROM r LIMIT 1",
        "SELECT * FROM r ORDER BY v LIMIT 1",
        "SELECT * FROM r JOIN s ON rid = sid AND v < w",
    ];
    for sql in reads {
        db.execute(sql).unwrap();
        check(&mut db, sql);
    }
    session.execute("DELETE FROM r").unwrap();
    if let Err(e) = session.db().with_tables(check_invariants) {
        panic!("after `DELETE FROM r`: {e}");
    }
    let bases = |session: &DurableSession| session.db().with_tables(|_, reg| reg.len());
    assert_eq!(bases(&session), 2, "only s's bases are left");
    session.execute("DELETE FROM s").unwrap();
    assert!(session.db().with_tables(|_, reg| reg.is_empty()), "{} bases left", bases(&session));
}

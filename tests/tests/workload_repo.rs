//! Integration tests for the workload repository: fingerprint normalization
//! properties, counter conservation under concurrent sessions, slow-query
//! capture with validated dumps, and the `orion.statements` /
//! `orion.slow_queries` / `orion.plan_feedback` virtual tables.

use orion_core::prelude::{q_error, Value};
use orion_obs::{json, validate_slow_dump, SlowCause};
use orion_sql::{fingerprint, parse, DurableSession, Output};
use orion_tests::scratch_dir;
use proptest::prelude::*;
use std::path::Path;

/// Opens a session whose repository is force-enabled with slow capture off,
/// regardless of ambient `ORION_*` environment.
fn session(dir: &Path) -> DurableSession {
    let s = DurableSession::open(dir).unwrap();
    let repo = s.db().workload();
    let mut cfg = repo.config();
    cfg.enabled = true;
    cfg.slow_nanos = u64::MAX;
    cfg.sample_every = 0;
    repo.set_config(cfg);
    s
}

fn fp(sql: &str) -> u64 {
    fingerprint(&parse(sql).unwrap()).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same statement shape with different number / pdf / string
    /// literals fingerprints identically; structural changes (comparison
    /// operator, table name, constructor, projection) do not.
    #[test]
    fn fingerprint_is_literal_invariant(
        a in 0.0..100.0f64,
        b in 0.0..100.0f64,
        p1 in 0.01..0.99f64,
        p2 in 0.01..0.99f64,
        l1 in 1usize..50,
        l2 in 1usize..50,
        k1 in 0i64..1000,
        k2 in 0i64..1000,
    ) {
        // Threshold query: probability bound, cutoff and LIMIT are literals.
        let q1 = format!("SELECT rid FROM t WHERE PROB(v < {a:.3}) > {p1:.3} LIMIT {l1}");
        let q2 = format!("SELECT rid FROM t WHERE PROB(v < {b:.3}) > {p2:.3} LIMIT {l2}");
        prop_assert_eq!(fp(&q1), fp(&q2));
        // Flipping the comparison operator is a different shape.
        let q3 = format!("SELECT rid FROM t WHERE PROB(v > {a:.3}) > {p1:.3} LIMIT {l1}");
        prop_assert!(fp(&q1) != fp(&q3));
        // A different table is a different shape.
        let q4 = format!("SELECT rid FROM u WHERE PROB(v < {a:.3}) > {p1:.3} LIMIT {l1}");
        prop_assert!(fp(&q1) != fp(&q4));

        // Pdf constructor parameters are literals; the constructor is not.
        let i1 = format!("INSERT INTO t VALUES ({k1}, GAUSSIAN({a:.3}, {b:.3}))");
        let i2 = format!("INSERT INTO t VALUES ({k2}, GAUSSIAN({b:.3}, {a:.3}))");
        prop_assert_eq!(fp(&i1), fp(&i2));
        let i3 = format!("INSERT INTO t VALUES ({k1}, UNIFORM({a:.3}, {b:.3}))");
        prop_assert!(fp(&i1) != fp(&i3));
        // DISCRETE point lists collapse to one placeholder: different
        // support sizes still share the statement shape.
        let d1 = format!("INSERT INTO t VALUES ({k1}, DISCRETE(1:0.4))");
        let d2 = format!("INSERT INTO t VALUES ({k2}, DISCRETE(1:0.2, 2:0.3, 3:0.5))");
        prop_assert_eq!(fp(&d1), fp(&d2));

        // String literals normalize too.
        let s1 = format!("SELECT a FROM t WHERE name = 'x{k1}'");
        let s2 = format!("SELECT a FROM t WHERE name = 'y{k2}'");
        prop_assert_eq!(fp(&s1), fp(&s2));
        // Projection list is structure.
        prop_assert!(fp("SELECT a FROM t") != fp("SELECT b FROM t"));
    }
}

/// `sum(calls)` over every fingerprint equals the number of executed
/// statements — including failed ones — under a 4-client concurrent mix
/// with autocommit conflict retries in play.
#[test]
fn counters_conserve_under_four_concurrent_clients() {
    const CLIENTS: usize = 4;
    const STMTS: usize = 30;
    let dir = scratch_dir("workload_repo-conserve");
    let mut root = session(&dir);
    let repo = root.db().workload();
    root.execute("CREATE TABLE wl (a INT, x REAL UNCERTAIN)").unwrap();
    let db = root.db().clone();
    let per_client: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let db = db.clone();
                scope.spawn(move || {
                    let mut s = DurableSession::from_db(db);
                    let mut n = 0u64;
                    for j in 0..STMTS {
                        let k = (c * STMTS + j) as i64;
                        let sql = match j % 5 {
                            0 => format!("INSERT INTO wl VALUES ({k}, GAUSSIAN({}, 4))", 10 + j),
                            1 => format!("SELECT a FROM wl WHERE a < {k}"),
                            2 => format!(
                                "UPDATE wl SET x = GAUSSIAN({}, 1) WHERE a = {}",
                                20 + j,
                                k - 1
                            ),
                            3 => format!("SELECT a FROM wl WHERE PROB(x < {}) > 0.5", 30 + j),
                            // Per-client failing shape: errors count as calls.
                            _ => format!("SELECT a FROM missing_{c}"),
                        };
                        let _ = s.execute(&sql);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let executed = 1 + per_client.iter().sum::<u64>(); // +1 for CREATE TABLE
    assert_eq!(repo.total_calls(), executed, "sum(calls) == executed statements");
    assert_eq!(repo.overflowed(), 0, "bounded registry never overflowed this mix");

    let stmts = repo.statements();
    let ins = stmts.iter().find(|s| s.text.starts_with("INSERT INTO wl")).unwrap();
    assert_eq!(ins.calls as usize, CLIENTS * STMTS / 5, "literal variants share one fingerprint");
    assert_eq!(ins.errors, 0);
    let failing: Vec<_> = stmts.iter().filter(|s| s.text.contains("missing_")).collect();
    assert_eq!(failing.len(), CLIENTS, "one fingerprint per distinct missing table");
    for f in &failing {
        assert_eq!(f.errors, f.calls, "every call of the failing shape errored");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Per-operator q-errors in `orion.plan_feedback` match the est-vs-actual
/// figures of the `EXPLAIN ANALYZE` run that produced them.
#[test]
fn plan_feedback_matches_explain_analyze() {
    let dir = scratch_dir("workload_repo-feedback");
    let mut s = session(&dir);
    s.execute("CREATE TABLE wl (a INT, x REAL UNCERTAIN)").unwrap();
    let rows: Vec<String> =
        (0..50).map(|i| format!("({i}, GAUSSIAN({}, 9))", 20 + (i % 40))).collect();
    s.execute(&format!("INSERT INTO wl VALUES {}", rows.join(", "))).unwrap();
    s.execute("ANALYZE wl").unwrap();
    let out = s.execute("EXPLAIN ANALYZE SELECT a FROM wl WHERE PROB(x < 30) > 0.5").unwrap();
    let Output::Explain { profile, .. } = out else { panic!("explain") };

    fn flatten(p: &orion_obs::OpProfile, out: &mut Vec<(String, u64, u64)>) {
        out.push((p.name.clone(), p.est_rows.unwrap_or(0), p.stats.tuples_out));
        for c in &p.children {
            flatten(c, out);
        }
    }
    let mut ops = Vec::new();
    flatten(&profile, &mut ops);
    let summaries = s.db().plan_feedback().summaries();
    assert!(!summaries.is_empty(), "profiled run folded feedback");
    for fb in &summaries {
        assert_eq!(fb.table, "wl");
        assert_eq!(fb.n, 1, "exactly one profiled run folded");
        let (_, est, actual) =
            ops.iter().find(|(name, _, _)| name == &fb.op).expect("summary op is in the plan");
        assert_eq!(fb.last_est, *est);
        assert_eq!(fb.last_actual, *actual);
        let q = q_error(*est, *actual);
        assert!((fb.max_q - q).abs() < 1e-9, "{}: {} vs {q}", fb.op, fb.max_q);
        assert!((fb.mean_q() - q).abs() < 1e-9);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Slow-query capture by threshold and by sampling, plus the validated
/// JSON dump.
#[test]
fn slow_queries_capture_and_dump_validates() {
    let dir = scratch_dir("workload_repo-slow");
    let mut s = session(&dir);
    let repo = s.db().workload();
    s.execute("CREATE TABLE wl (a INT, x REAL UNCERTAIN)").unwrap();
    s.execute("INSERT INTO wl VALUES (1, GAUSSIAN(20, 4)), (2, GAUSSIAN(40, 4))").unwrap();

    // Threshold mode: zero threshold captures everything.
    let mut cfg = repo.config();
    cfg.slow_nanos = 0;
    repo.set_config(cfg.clone());
    s.execute("SELECT a FROM wl WHERE PROB(x < 30) > 0.5").unwrap();
    let slow = repo.slow_queries();
    let sq = slow.iter().find(|q| q.text.starts_with("SELECT")).expect("captured select");
    assert_eq!(sq.cause, SlowCause::Threshold);
    assert!(sq.plan.contains("Scan"), "captured EXPLAIN ANALYZE tree: {:?}", sq.plan);
    assert!(sq.plan.contains("actual="), "{:?}", sq.plan);

    // Sampling mode: every 2nd statement is captured even under threshold.
    cfg.slow_nanos = u64::MAX;
    cfg.sample_every = 2;
    repo.set_config(cfg);
    let before = repo.slow_queries().len();
    for i in 0..6 {
        s.execute(&format!("SELECT a FROM wl WHERE a < {i}")).unwrap();
    }
    let sampled: Vec<_> = repo.slow_queries().into_iter().skip(before).collect();
    assert_eq!(sampled.len(), 3, "1-in-2 sampling over six statements");
    assert!(sampled.iter().all(|q| q.cause == SlowCause::Sampled));

    // The dump validates both directly and through the shared validator.
    let path = repo.dump_slow_to_dir(&dir).unwrap();
    let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let n = validate_slow_dump(&doc).unwrap();
    assert_eq!(n, repo.slow_queries().len());
    std::fs::remove_dir_all(&dir).ok();
}

/// The three new vtables expose the stores through plain SQL, join with
/// user tables, and agree with the repository's own accounting.
#[test]
fn workload_vtables_join_with_user_tables() {
    let dir = scratch_dir("workload_repo-vtables");
    let mut s = session(&dir);
    let repo = s.db().workload();
    let mut cfg = repo.config();
    cfg.slow_nanos = 0;
    repo.set_config(cfg);
    s.execute("CREATE TABLE wl (a INT, x REAL UNCERTAIN)").unwrap();
    s.execute("INSERT INTO wl VALUES (1, GAUSSIAN(20, 4)), (2, GAUSSIAN(40, 4))").unwrap();
    s.execute("ANALYZE wl").unwrap();
    s.execute("SELECT a FROM wl WHERE a < 5").unwrap();
    s.execute("SELECT a FROM wl WHERE a < 7").unwrap();

    // orion.statements golden row for the literal-collapsed SELECT.
    let Output::Table(rel) =
        s.execute("SELECT stmt, calls, rows FROM orion.statements WHERE calls = 2").unwrap()
    else {
        panic!("table")
    };
    assert_eq!(rel.len(), 1);
    assert_eq!(rel.value(0, "stmt").unwrap(), &Value::Text("SELECT a FROM wl WHERE a < ?".into()));
    assert_eq!(rel.value(0, "rows").unwrap(), &Value::Int(4));

    // Join the statement repository against a user annotation table.
    s.execute("CREATE TABLE notes (nstmt TEXT, note TEXT)").unwrap();
    s.execute("INSERT INTO notes VALUES ('SELECT a FROM wl WHERE a < ?', 'hot path')").unwrap();
    let Output::Table(rel) =
        s.execute("SELECT stmt, note FROM orion.statements JOIN notes ON stmt = nstmt").unwrap()
    else {
        panic!("table")
    };
    assert_eq!(rel.len(), 1);
    assert_eq!(rel.value(0, "note").unwrap(), &Value::Text("hot path".into()));

    // Join planner feedback against a user annotation table on operator
    // name (orion.tables shares the `tbl` column name, which a join would
    // disambiguate with table prefixes — a user table keeps names bare).
    s.execute("CREATE TABLE opnames (opname TEXT, descr TEXT)").unwrap();
    s.execute("INSERT INTO opnames VALUES ('Scan', 'full table scan')").unwrap();
    let Output::Table(rel) = s
        .execute(
            "SELECT tbl, op, descr FROM orion.plan_feedback JOIN opnames ON op = opname \
             WHERE tbl = 'wl'",
        )
        .unwrap()
    else {
        panic!("table")
    };
    assert_eq!(rel.len(), 1, "one Scan summary for wl");
    assert_eq!(rel.value(0, "tbl").unwrap(), &Value::Text("wl".into()));
    assert_eq!(rel.value(0, "descr").unwrap(), &Value::Text("full table scan".into()));

    // orion.slow_queries rows carry the capture cause.
    let Output::Table(rel) = s.execute("SELECT seq, cause FROM orion.slow_queries").unwrap() else {
        panic!("table")
    };
    assert!(rel.len() >= 4);
    assert_eq!(rel.value(0, "cause").unwrap(), &Value::Text("slow".into()));
    std::fs::remove_dir_all(&dir).ok();
}

/// Sums every `key=<n>` counter of a rendered `EXPLAIN ANALYZE` tree.
fn sum_counter(plan: &str, key: &str) -> u64 {
    plan.split_whitespace().filter_map(|tok| tok.strip_prefix(key)?.parse::<u64>().ok()).sum()
}

/// The slow-query log holds the plan of the execution that was slow — the
/// statement is not run a second time to learn it. So the captured tree's
/// pdf work is the pdf work the statement repository charged the statement,
/// its root cardinality is the statement's row count, plan feedback gains
/// one observation per operator, and statements `EXPLAIN` refuses (ORDER BY
/// / LIMIT here) are captured all the same.
#[test]
fn slow_log_keeps_the_plan_that_ran() {
    let dir = scratch_dir("workload_repo-ran_once");
    let mut s = session(&dir);
    let repo = s.db().workload();
    s.execute("CREATE TABLE wl (a INT, x REAL UNCERTAIN)").unwrap();
    let rows: Vec<String> = (0..40).map(|i| format!("({i}, GAUSSIAN({}, 9))", 10 + i)).collect();
    s.execute(&format!("INSERT INTO wl VALUES {}", rows.join(", "))).unwrap();
    let mut cfg = repo.config();
    cfg.slow_nanos = 0; // what ORION_SLOW_MS=0 configures
    repo.set_config(cfg);

    let Output::Table(rel) = s.execute("SELECT a FROM wl WHERE x < 30 AND a < 35").unwrap() else {
        panic!("table")
    };
    let slow = repo.slow_queries();
    let sq = slow.iter().find(|q| q.text.contains("x < ?")).unwrap();
    assert_eq!(sq.rows as usize, rel.len());
    let root = sq.plan.lines().next().unwrap();
    assert!(root.starts_with("Project [a]"), "{root}");
    assert!(root.contains(&format!("actual={} ", rel.len())), "{root}");

    let pdf_ops = ["products=", "floors=", "marginalize="]
        .iter()
        .map(|k| sum_counter(&sq.plan, k))
        .sum::<u64>();
    assert!(pdf_ops >= 35, "one floor per tuple the certain conjunct kept: {}", sq.plan);
    let stmts = repo.statements();
    let st = stmts.iter().find(|st| st.text.contains("x < ?")).unwrap();
    assert_eq!(
        (st.calls, st.pdf_ops),
        (1, pdf_ops),
        "the captured plan is the run that was charged"
    );

    let feedback = s.db().plan_feedback().summaries();
    let ops: Vec<(&str, u64)> = feedback.iter().map(|f| (f.op.as_str(), f.n)).collect();
    assert_eq!(ops, [("Project", 1), ("Scan", 1), ("Select", 1)], "one observation per operator");
    let project = &feedback[0];
    assert_eq!(project.last_actual as usize, rel.len());

    // ORDER BY / LIMIT run beneath the projection; the captured tree shows
    // the projection over the two rows LIMIT kept.
    let Output::Table(top) = s.execute("SELECT a FROM wl ORDER BY x DESC LIMIT 2").unwrap() else {
        panic!("table")
    };
    assert_eq!(top.value(0, "a").unwrap(), &Value::Int(39));
    let slow = repo.slow_queries();
    let sq = slow.iter().find(|q| q.text.contains("ORDER BY")).unwrap();
    let mut lines = sq.plan.lines();
    let root = lines.next().unwrap();
    assert!(root.starts_with("Project [a]") && root.contains("in=2 out=2"), "{}", sq.plan);
    let scan = lines.next().unwrap();
    assert!(scan.contains("Scan [wl]") && scan.contains("out=40"), "{}", sq.plan);
    std::fs::remove_dir_all(&dir).ok();
}

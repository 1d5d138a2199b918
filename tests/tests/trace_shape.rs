//! Chrome trace-event shape and end-to-end tracing tests.
//!
//! The golden test pins the exported document shape — required keys on
//! every complete event, monotone timestamps, well-formed nesting — against
//! a hand-built span hierarchy. The end-to-end tests drive the real
//! pipeline: `EXPLAIN TRACE` at 4 workers with single-tuple morsels must
//! write a validating file with worker lanes and morsel spans; concurrent
//! `EXPLAIN TRACE`s on two databases must each get exactly their own
//! statement's spans; and tracing must not change a query's answer.

use orion_core::prelude::*;
use orion_obs::{json, validate_chrome_trace, Tracer};
use orion_sql::{render_output, Database, DurableSession, Output};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// Required keys of a Chrome `"X"` event, checked field by field so the
/// shape stays pinned even if the validator loosens later.
const X_KEYS: [&str; 6] = ["ph", "ts", "dur", "pid", "tid", "name"];

/// Eight uncertain readings, enough for 8 single-tuple morsels.
const READINGS: &str = "(1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4)), (3, GAUSSIAN(13, 1)), \
                        (4, GAUSSIAN(30, 2)), (5, GAUSSIAN(17, 3)), (6, GAUSSIAN(22, 2)), \
                        (7, GAUSSIAN(11, 1)), (8, GAUSSIAN(28, 4))";

/// The `traceEvents` of one `EXPLAIN TRACE` file, parsed.
fn trace_events(path: &str) -> Vec<json::Value> {
    let text = std::fs::read_to_string(path).expect("trace file written");
    let doc = json::parse(&text).expect("trace parses");
    validate_chrome_trace(&doc).unwrap_or_else(|e| panic!("{path}: {e}"));
    doc.get("traceEvents").and_then(json::Value::as_array).expect("traceEvents array").to_vec()
}

/// Events of phase `ph` (`"M"` lane records, `"X"` spans).
fn phase<'a>(events: &'a [json::Value], ph: &'a str) -> impl Iterator<Item = &'a json::Value> {
    events.iter().filter(move |e| e.get("ph").and_then(json::Value::as_str) == Some(ph))
}

/// The lane names a trace file declares.
fn lane_names(events: &[json::Value]) -> Vec<&str> {
    phase(events, "M").filter_map(|e| e.get("args")?.get("name")?.as_str()).collect()
}

/// Whether every lane is the statement's driver or one of its workers.
fn statement_lanes_only(lanes: &[&str]) -> bool {
    lanes.iter().all(|l| *l == "exec" || l.starts_with("worker-"))
}

#[test]
fn chrome_export_shape_is_golden() {
    let t = Tracer::new();
    let exec = t.lane("exec");
    let wal = t.lane("wal");
    {
        let mut root = exec.span("query", "exec");
        root.arg("tuples", 8u64);
        for i in 0..3 {
            let mut m = exec.span("morsel", "exec");
            m.arg("morsel", i as u64);
        }
        let _f = wal.span("wal.fsync", "wal");
    }
    let text = t.export_chrome_json().to_string_pretty();
    let doc = json::parse(&text).expect("export parses");
    validate_chrome_trace(&doc).expect("export validates");

    let events = doc.get("traceEvents").and_then(json::Value::as_array).expect("traceEvents array");
    let mut last_ts = 0u64;
    let mut n_complete = 0;
    let mut n_meta = 0;
    for e in events {
        match e.get("ph").and_then(json::Value::as_str).expect("ph key") {
            "M" => {
                n_meta += 1;
                assert_eq!(e.get("name").and_then(json::Value::as_str), Some("thread_name"));
            }
            "X" => {
                n_complete += 1;
                for k in X_KEYS {
                    assert!(e.get(k).is_some(), "X event missing key {k:?}: {e:?}");
                }
                let ts = e.get("ts").and_then(json::Value::as_u64).expect("numeric ts");
                assert!(ts >= last_ts, "ts monotone");
                last_ts = ts;
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(n_meta, 2, "one thread_name record per lane");
    assert_eq!(n_complete, 5, "query + 3 morsels + fsync");

    // Nesting: the three morsel spans are children of the query span.
    let query = events
        .iter()
        .find(|e| e.get("name").and_then(json::Value::as_str) == Some("query"))
        .expect("query span");
    let (q_ts, q_dur) = (
        query.get("ts").and_then(json::Value::as_u64).unwrap(),
        query.get("dur").and_then(json::Value::as_u64).unwrap(),
    );
    for e in events {
        if e.get("name").and_then(json::Value::as_str) != Some("morsel") {
            continue;
        }
        let ts = e.get("ts").and_then(json::Value::as_u64).unwrap();
        let dur = e.get("dur").and_then(json::Value::as_u64).unwrap();
        assert!(ts >= q_ts && ts + dur <= q_ts + q_dur, "morsel inside query");
    }
}

#[test]
fn explain_trace_end_to_end_records_workers_and_morsels() {
    use orion_pdf::prelude::Pdf1;

    // A durable workload commits through the group WAL while nothing is
    // traced: none of it may reach the trace file below.
    let dir = orion_tests::scratch_dir("trace_shape_e2e");
    let ddb = orion_tests::open_db(&dir);
    let schema = ProbSchema::new(
        vec![("id", ColumnType::Int, false), ("v", ColumnType::Real, true)],
        vec![],
    )
    .expect("schema");
    orion_tests::txn_create_table(&ddb, "s", schema).expect("create");
    for i in 0..4 {
        orion_tests::txn_insert_simple(
            &ddb,
            "s",
            &[("id", Value::Int(i))],
            &[("v", Pdf1::gaussian(f64::from(i as i32), 1.0).expect("pdf"))],
        )
        .expect("durable insert");
    }
    drop(ddb);

    // EXPLAIN TRACE at 4 workers with single-tuple morsels: the selection
    // is forced down the parallel path, so the trace must carry one lane
    // per worker and a span per morsel claim, and only the statement's
    // own lanes (`explain_trace_lanes.rs` repeats the statement).
    let opts = ExecOptions { threads: 4, morsel_size: 1, ..ExecOptions::default() };
    let mut db = Database::with_options(opts);
    db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)").expect("create");
    db.execute(&format!("INSERT INTO readings VALUES {READINGS}")).expect("insert");
    let out = db
        .execute("EXPLAIN TRACE SELECT rid FROM readings WHERE value < 20")
        .expect("explain trace");
    let Output::Explain { trace: Some(info), .. } = out else { panic!("expected trace info") };
    let events = trace_events(&info.path);
    let lanes = lane_names(&events);
    for w in 0..4 {
        let name = format!("worker-{w}");
        assert!(lanes.iter().any(|n| *n == name), "missing lane {name}: {lanes:?}");
    }
    assert!(statement_lanes_only(&lanes), "foreign lanes: {lanes:?}");
    let span_names: Vec<&str> =
        phase(&events, "X").filter_map(|e| e.get("name")?.as_str()).collect();
    assert!(span_names.contains(&"morsel"), "no morsel spans: {span_names:?}");
    assert!(span_names.contains(&"Select"), "no operator spans: {span_names:?}");

    // The span tree the SQL layer reports names a worker lane too (a
    // worker that claims no morsel has no spans, so not every one).
    assert!(info.tree.contains("[worker-"), "tree:\n{}", info.tree);
    std::fs::remove_file(&info.path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_sessions_get_only_their_own_spans() {
    // Two databases each answer 50 concurrent EXPLAIN TRACEs while a third
    // takes autocommit INSERTs; every trace file must hold its own
    // statement's spans and nothing of the others.
    const PER_DB: usize = 50;
    let tables = ["alpha_readings", "beta_readings"];
    let dirs: Vec<_> =
        tables.iter().map(|t| orion_tests::scratch_dir(&format!("trace_sessions-{t}"))).collect();
    let dbs: Vec<_> = tables
        .iter()
        .zip(&dirs)
        .map(|(t, dir)| {
            let mut s = DurableSession::open(dir).expect("open");
            s.execute(&format!("CREATE TABLE {t} (rid INT, value REAL UNCERTAIN)"))
                .expect("create");
            s.execute(&format!("INSERT INTO {t} VALUES {READINGS}")).expect("insert");
            s.db().clone()
        })
        .collect();
    let writer_dir = orion_tests::scratch_dir("trace_sessions-writer");
    let mut writer = DurableSession::open(&writer_dir).expect("open");
    writer.execute("CREATE TABLE gamma_log (id INT, v REAL UNCERTAIN)").expect("create");

    let start = Barrier::new(2 * PER_DB + 1);
    let done = AtomicBool::new(false);
    let files: Vec<(usize, String)> = std::thread::scope(|s| {
        let (start, done) = (&start, &done);
        s.spawn(move || {
            start.wait();
            let mut i = 0;
            while !done.load(Ordering::Relaxed) {
                let sql = format!("INSERT INTO gamma_log VALUES ({i}, GAUSSIAN({i}, 1))");
                writer.execute(&sql).expect("insert");
                i += 1;
            }
        });
        let readers: Vec<_> = (0..2 * PER_DB)
            .map(|k| {
                let (side, db) = (k % 2, dbs[k % 2].clone());
                s.spawn(move || {
                    let mut session = DurableSession::from_db(db);
                    let sql =
                        format!("EXPLAIN TRACE SELECT rid FROM {} WHERE value < 20", tables[side]);
                    start.wait();
                    let out = session.execute(&sql).expect("explain trace");
                    let Output::Explain { trace: Some(info), .. } = out else {
                        panic!("expected trace info")
                    };
                    (side, info.path)
                })
            })
            .collect();
        let files = readers.into_iter().map(|h| h.join().expect("reader")).collect();
        done.store(true, Ordering::Relaxed);
        files
    });

    let paths: HashSet<&str> = files.iter().map(|(_, p)| p.as_str()).collect();
    assert_eq!(paths.len(), 2 * PER_DB, "every statement writes its own file");
    let (mut missing, mut foreign, mut bad_lanes) = (0, 0, Vec::new());
    for (side, path) in &files {
        let events = trace_events(path);
        let (own, other) = (tables[*side], tables[1 - side]);
        let own_scan = phase(&events, "X").any(|e| {
            e.get("name").and_then(json::Value::as_str) == Some("Scan")
                && e.get("args").and_then(|a| a.get("detail")).and_then(json::Value::as_str)
                    == Some(own)
        });
        missing += usize::from(!own_scan);
        foreign += usize::from(phase(&events, "X").any(|e| e.to_string_compact().contains(other)));
        let lanes = lane_names(&events);
        if !statement_lanes_only(&lanes) {
            bad_lanes.push(lanes.join(","));
        }
        std::fs::remove_file(path).ok();
    }
    assert_eq!(
        (missing, foreign),
        (0, 0),
        "of {} files: (missing their own Scan span, holding the other table's spans)",
        files.len()
    );
    assert!(bad_lanes.is_empty(), "files with non-statement lanes: {bad_lanes:?}");
    for dir in dirs.iter().chain([&writer_dir]) {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn tracing_leaves_the_index_threshold_answer_unchanged() {
    // The threshold query forced down the cdf index and the parallel
    // operators answers the same with and without a tracer attached, and
    // the traced run really recorded its morsels.
    fn answer(trace: Option<Tracer>) -> String {
        let opts = ExecOptions {
            threads: 4,
            morsel_size: 1,
            planner: PlannerMode::Rule,
            trace,
            ..ExecOptions::default()
        };
        let mut db = Database::with_options(opts);
        for sql in [
            "CREATE TABLE t (id INT, v REAL UNCERTAIN)",
            "CREATE INDEX ix_v ON t (v) USING cdf",
            "INSERT INTO t VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4)), \
             (3, GAUSSIAN(13, 1)), (4, GAUSSIAN(30, 2)), (5, GAUSSIAN(17, 3)), \
             (6, UNIFORM(10, 14)), (7, DISCRETE(11:0.3, 12:0.4)), (8, GAUSSIAN(28, 4))",
            "UPDATE t SET v = GAUSSIAN(12, 1) WHERE id = 2",
            "DELETE FROM t WHERE id = 4",
        ] {
            db.execute(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        }
        let sql = "SELECT id FROM t WHERE PROB(v < 15) > 0.5";
        let plan = render_output(&db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap()).unwrap();
        assert!(plan.contains("ix_v"), "the threshold must be offered the cdf index:\n{plan}");
        let out = db.execute(sql).unwrap();
        let Output::Table(rel) = &out else { panic!("expected rows, got {out:?}") };
        assert!(!rel.is_empty(), "the threshold query selects rows");
        render_output(&out).unwrap()
    }

    let tracer = Tracer::new();
    assert_eq!(answer(None), answer(Some(tracer.clone())), "tracing changed the answer");
    let names: Vec<String> = tracer.events().into_iter().map(|e| e.name).collect();
    assert!(names.iter().any(|n| n == "morsel"), "traced run recorded no morsel span: {names:?}");
}

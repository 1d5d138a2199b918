//! Chrome trace-event shape and end-to-end tracing tests.
//!
//! The golden test pins the exported document shape — required keys on
//! every complete event, monotone timestamps, well-formed nesting — against
//! a hand-built span hierarchy on a private tracer. The end-to-end test
//! drives the real pipeline: a durable database commits through the WAL
//! (append / fsync spans), then `EXPLAIN TRACE` runs a selection at 4
//! workers with single-tuple morsels, and the emitted file must validate
//! and carry one lane per worker, morsel spans, and WAL fsync spans.

use orion_obs::{json, validate_chrome_trace, Tracer};

/// Required keys of a Chrome `"X"` event, checked field by field so the
/// shape stays pinned even if the validator loosens later.
const X_KEYS: [&str; 6] = ["ph", "ts", "dur", "pid", "tid", "name"];

#[test]
fn chrome_export_shape_is_golden() {
    let t = Tracer::new();
    t.set_enabled(true);
    t.begin_trace();
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
fn explain_trace_end_to_end_records_workers_wal_and_morsels() {
    use orion_core::prelude::*;
    use orion_pdf::prelude::Pdf1;
    use orion_sql::exec::{Database, Output};

    // Enable the process-wide tracer up front (idempotent under
    // `ORION_TRACE=1`) so the WAL workload below records its spans.
    Tracer::global().set_enabled(true);

    // A durable workload: every insert transaction commits through the
    // group WAL, so the tracer picks up wal.append / wal.fsync spans.
    let dir = std::env::temp_dir().join("orion_trace_shape_e2e");
    std::fs::remove_dir_all(&dir).ok();
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
    // per worker and a span per morsel claim.
    let trace_file = dir.join("explain.trace.json");
    std::env::set_var("ORION_TRACE_FILE", &trace_file);
    let opts = ExecOptions { threads: 4, morsel_size: 1, ..ExecOptions::default() };
    let mut db = Database::with_options(opts);
    db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)").expect("create");
    db.execute(
        "INSERT INTO readings VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4)), \
         (3, GAUSSIAN(13, 1)), (4, GAUSSIAN(30, 2)), (5, GAUSSIAN(17, 3)), \
         (6, GAUSSIAN(22, 2)), (7, GAUSSIAN(11, 1)), (8, GAUSSIAN(28, 4))",
    )
    .expect("insert");
    let out = db
        .execute("EXPLAIN TRACE SELECT rid FROM readings WHERE value < 20")
        .expect("explain trace");
    let Output::Explain { trace: Some(info), .. } = out else { panic!("expected trace info") };
    assert_eq!(
        std::path::Path::new(&info.path),
        trace_file.as_path(),
        "ORION_TRACE_FILE is honored"
    );
    std::env::remove_var("ORION_TRACE_FILE");

    let text = std::fs::read_to_string(&trace_file).expect("trace file written");
    let doc = json::parse(&text).expect("trace parses");
    validate_chrome_trace(&doc).expect("trace validates");

    let events = doc.get("traceEvents").and_then(json::Value::as_array).expect("traceEvents array");
    let lane_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("M"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    for w in 0..4 {
        let name = format!("worker-{w}");
        assert!(lane_names.iter().any(|n| *n == name), "missing lane {name}: {lane_names:?}");
    }
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
        .filter_map(|e| e.get("name")?.as_str())
        .collect();
    assert!(span_names.contains(&"morsel"), "no morsel spans: {span_names:?}");
    assert!(span_names.contains(&"wal.fsync"), "no WAL fsync spans: {span_names:?}");
    assert!(span_names.contains(&"wal.append"), "no WAL append spans: {span_names:?}");
    assert!(span_names.contains(&"Select"), "no operator spans: {span_names:?}");

    // The span tree the SQL layer reports names the worker lanes too.
    assert!(info.tree.contains("worker-0"), "tree:\n{}", info.tree);

    if !orion_obs::trace::env_trace_enabled() {
        Tracer::global().set_enabled(false);
    }
    std::fs::remove_dir_all(&dir).ok();
}

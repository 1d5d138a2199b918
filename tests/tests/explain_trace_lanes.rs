//! Repeated `EXPLAIN TRACE` must not grow the global tracer's lane
//! registry.
//!
//! Every traced parallel operator opens one fresh lane per worker. A lane
//! nobody holds any more is forgotten when the next `EXPLAIN TRACE` clears
//! the tracer, so each trace file names the same number of lanes (one
//! Chrome `"M"` `thread_name` record per registered lane) instead of
//! accumulating every earlier statement's workers.
//!
//! This binary holds only this test, so no other test registers lanes on
//! the global tracer while it runs.

use orion_core::prelude::*;
use orion_obs::{json, validate_chrome_trace, Tracer};
use orion_sql::{Database, Output};

/// `(thread_name records, complete spans)` of one Chrome trace file.
fn count_records(path: &str) -> (usize, usize) {
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    validate_chrome_trace(&doc).unwrap();
    let events = doc.get("traceEvents").and_then(json::Value::as_array).unwrap();
    let phase = |ph: &str| {
        events.iter().filter(|e| e.get("ph").and_then(json::Value::as_str) == Some(ph)).count()
    };
    (phase("M"), phase("X"))
}

#[test]
fn repeated_explain_trace_keeps_lane_registry_bounded() {
    assert!(!Tracer::global().enabled(), "the global tracer starts disabled");
    let opts = ExecOptions { threads: 4, morsel_size: 1, ..ExecOptions::default() };
    let mut db = Database::with_options(opts);
    db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)").unwrap();
    db.execute(
        "INSERT INTO readings VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4)), \
         (3, GAUSSIAN(13, 1)), (4, GAUSSIAN(30, 2)), (5, GAUSSIAN(17, 3)), \
         (6, GAUSSIAN(22, 2)), (7, GAUSSIAN(11, 1)), (8, GAUSSIAN(28, 4))",
    )
    .unwrap();
    let mut counts = Vec::new();
    for _ in 0..3 {
        let out = db.execute("EXPLAIN TRACE SELECT rid FROM readings WHERE value < 20").unwrap();
        let Output::Explain { trace: Some(info), .. } = out else { panic!("expected trace info") };
        counts.push(count_records(&info.path));
        std::fs::remove_file(&info.path).ok();
    }
    assert!(!Tracer::global().enabled(), "EXPLAIN TRACE restores the disabled tracer");
    let (lanes, spans) = counts[0];
    assert!(lanes > 4, "one lane per worker plus the exec lane: {counts:?}");
    assert!(spans > 0, "{counts:?}");
    assert!(
        counts.iter().all(|&(m, _)| m == lanes),
        "lane registry grew across statements (thread_name, spans): {counts:?}"
    );
}

//! Repeated `EXPLAIN TRACE` must not grow the lanes a trace file declares.
//!
//! Every traced parallel operator opens one lane per worker. Each
//! `EXPLAIN TRACE` records into a fresh tracer of its own, so each trace
//! file names the same lanes (one Chrome `"M"` `thread_name` record per
//! lane: the statement's `exec` driver and its `worker-*` lanes) instead of
//! accumulating every earlier statement's workers.

use orion_core::prelude::*;
use orion_obs::{json, validate_chrome_trace};
use orion_sql::{Database, Output};

/// `(sorted lane names, complete spans)` of one Chrome trace file. Workers
/// open their lanes in whatever order they start, so the names are sorted.
fn lanes_and_spans(path: &str) -> (Vec<String>, usize) {
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    validate_chrome_trace(&doc).unwrap();
    let events = doc.get("traceEvents").and_then(json::Value::as_array).unwrap();
    let phase = |ph: &'static str| {
        events.iter().filter(move |e| e.get("ph").and_then(json::Value::as_str) == Some(ph))
    };
    let mut lanes: Vec<String> = phase("M")
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .map(str::to_owned)
        .collect();
    lanes.sort();
    (lanes, phase("X").count())
}

#[test]
fn repeated_explain_trace_keeps_lane_registry_bounded() {
    let opts = ExecOptions { threads: 4, morsel_size: 1, ..ExecOptions::default() };
    let mut db = Database::with_options(opts);
    db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)").unwrap();
    db.execute(
        "INSERT INTO readings VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4)), \
         (3, GAUSSIAN(13, 1)), (4, GAUSSIAN(30, 2)), (5, GAUSSIAN(17, 3)), \
         (6, GAUSSIAN(22, 2)), (7, GAUSSIAN(11, 1)), (8, GAUSSIAN(28, 4))",
    )
    .unwrap();
    let mut files = Vec::new();
    for _ in 0..3 {
        let out = db.execute("EXPLAIN TRACE SELECT rid FROM readings WHERE value < 20").unwrap();
        let Output::Explain { trace: Some(info), .. } = out else { panic!("expected trace info") };
        files.push(lanes_and_spans(&info.path));
        std::fs::remove_file(&info.path).ok();
    }
    let (lanes, spans) = &files[0];
    assert!(lanes.len() > 4, "one lane per worker plus the exec lane: {files:?}");
    assert!(*spans > 0, "{files:?}");
    assert!(
        files.iter().all(|(l, _)| l == lanes),
        "lanes changed across statements (lane names, spans): {files:?}"
    );
}

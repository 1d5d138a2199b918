//! Tracing is record-only: a durable script run with the process-wide
//! tracer on must leave exactly the committed state it leaves with the
//! tracer off.
//!
//! The script creates a table with a cdf index, inserts, updates, deletes,
//! checkpoints, reopens (recovery loads the snapshot through the buffer
//! pool) and answers a threshold query through the index at 4 workers with
//! single-tuple morsels. It runs twice in fresh directories, untraced and
//! then traced; the recovered states must fingerprint identically
//! ([`orion_tests::fingerprint`], the crash oracles' notion of logical
//! state) and the query must return the same rows, bit for bit. The traced
//! run must actually have traced the WAL, the morsel workers and the
//! buffer pool, or the comparison proves nothing.
//!
//! This binary holds only this test, so nothing else toggles the global
//! tracer while the untraced run is in flight.

use orion_core::prelude::*;
use orion_obs::Tracer;
use orion_sql::{render_output, Database, DurableSession, Output};
use std::path::Path;

/// Runs the script in `dir`; returns the recovered state's fingerprint and
/// the rendered threshold-query answer.
fn run_script(dir: &Path) -> (String, String) {
    std::fs::remove_dir_all(dir).ok();
    {
        let mut s = DurableSession::open(dir).unwrap();
        for sql in [
            "CREATE TABLE t (id INT, v REAL UNCERTAIN)",
            "CREATE INDEX ix_v ON t (v) USING cdf",
            "INSERT INTO t VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4)), \
             (3, GAUSSIAN(13, 1)), (4, GAUSSIAN(30, 2)), (5, GAUSSIAN(17, 3)), \
             (6, UNIFORM(10, 14)), (7, DISCRETE(11:0.3, 12:0.4)), (8, GAUSSIAN(28, 4))",
            "UPDATE t SET v = GAUSSIAN(12, 1) WHERE id = 2",
            "DELETE FROM t WHERE id = 4",
        ] {
            s.execute(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        }
        s.db().checkpoint().unwrap();
    }
    let rec = orion_tests::recover(dir);
    let fingerprint = rec.fingerprint();

    // The threshold query on a view of the recovered state, forced down
    // the index path and the parallel operators.
    let opts = ExecOptions {
        threads: 4,
        morsel_size: 1,
        planner: PlannerMode::Rule,
        indexes: Some(IndexHandle::from_catalog(rec.db.indexes().lock().snapshot())),
        ..ExecOptions::default()
    };
    let mut q = Database::with_options(opts);
    for rel in rec.tables.into_values() {
        q.register_table(rel);
    }
    *q.registry_mut() = rec.reg;
    let sql = "SELECT id FROM t WHERE PROB(v < 15) > 0.5";
    let explain = q.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let plan = render_output(&explain).unwrap();
    assert!(plan.contains("ix_v"), "the threshold must be offered the cdf index:\n{plan}");
    let out = q.execute(sql).unwrap();
    let Output::Table(rel) = &out else { panic!("expected rows, got {out:?}") };
    assert!(!rel.is_empty(), "the threshold query selects rows");
    (fingerprint, render_output(&out).unwrap())
}

#[test]
fn traced_durable_run_commits_the_untraced_state_bit_for_bit() {
    let base = std::env::temp_dir().join("orion_trace_equiv");
    let tracer = Tracer::global();
    assert!(!tracer.enabled(), "the global tracer starts disabled");

    let untraced = run_script(&base.join("untraced"));
    assert!(tracer.events().is_empty(), "a disabled tracer records nothing");

    tracer.clear();
    tracer.set_enabled(true);
    let traced = run_script(&base.join("traced"));
    tracer.set_enabled(false);

    assert_eq!(untraced.0, traced.0, "traced run committed a different state");
    assert_eq!(untraced.1, traced.1, "traced run answered the threshold query differently");

    let names: Vec<String> = tracer.events().into_iter().map(|e| e.name).collect();
    for want in ["wal.fsync", "morsel", "page.fault_in"] {
        assert!(names.iter().any(|n| n == want), "traced run recorded no {want} span: {names:?}");
    }
    tracer.clear();
    std::fs::remove_dir_all(&base).ok();
}

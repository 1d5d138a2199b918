//! # orion-obs — the Orion-RS observability layer
//!
//! The paper's evaluation (Figures 5–6) is entirely about *where time
//! goes*: operator cost and the overhead of history maintenance. This crate
//! gives the engine the counters to answer that question without guessing:
//!
//! * [`metrics`] — atomic [`Counter`]s and log2-bucketed latency
//!   [`Histogram`]s, held as plain fields by the structs that own them;
//! * [`stats`] — the per-operator [`ExecStats`] collector threaded through
//!   the relational operators (tuples in/out, pdf products / floors /
//!   marginalizations, history collapses, wall time);
//! * [`profile`] — the [`OpProfile`] tree rendered by `EXPLAIN ANALYZE`
//!   and exported by the bench binaries;
//! * [`json`] — a dependency-free JSON value builder, pretty printer, and
//!   parser (the build environment is offline, so no `serde_json`);
//! * [`trace`] — structured, query-scoped hierarchical spans recorded into
//!   per-lane ring buffers, exported as Chrome trace-event JSON;
//! * [`workload`] — the pg_stat_statements-style statement repository:
//!   per-fingerprint call/latency/IO counters plus the bounded slow-query
//!   ring with captured plans, fed by the SQL session layer.
//!
//! No metric here is process-wide: counters, stats, profiles and the
//! statement repository belong to the engine or statement that owns them,
//! so two engines in one process keep independent metrics. A
//! [`trace::Tracer`] belongs to one statement: `EXPLAIN TRACE` creates it
//! and hands it to the executor.

pub mod json;
pub mod metrics;
pub mod profile;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

pub use metrics::{Counter, Histogram, HistogramSnapshot};
pub use profile::{AltPath, OpProfile};
pub use stats::{ExecStats, ExecStatsSnapshot, ExecTimer, WorkerLane};
pub use trace::{validate_chrome_trace, Lane, Span, TraceEvent, Tracer};
pub use workload::{
    validate_slow_dump, ExecSample, SlowCause, SlowQuery, SlowTicket, StatementStats,
    WorkloadConfig, WorkloadRepo,
};

/// A fresh, empty scratch directory, `temp_dir()/orion-<name>-<pid>-<n>`
/// with `n` counting this process's calls: two test processes running at
/// once, or two tests of one process, never share a directory.
pub fn scratch_dir(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("orion-{name}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("the temporary directory is writable");
    dir
}

/// Formats a nanosecond count in adaptive human units (`412ns`, `3.1us`,
/// `2.4ms`, `1.20s`).
pub fn fmt_nanos(nanos: u64) -> String {
    let n = nanos as f64;
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}us", n / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", n / 1e6)
    } else {
        format!("{:.2}s", n / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::fmt_nanos;

    #[test]
    fn nanos_formatting_units() {
        assert_eq!(fmt_nanos(17), "17ns");
        assert_eq!(fmt_nanos(4_200), "4.2us");
        assert_eq!(fmt_nanos(7_350_000), "7.3ms");
        assert_eq!(fmt_nanos(2_500_000_000), "2.50s");
    }
}

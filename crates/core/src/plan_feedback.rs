//! Planner-feedback store: per-(table, operator) cardinality-misestimate
//! summaries folded from profiled executions.
//!
//! `EXPLAIN ANALYZE` already annotates every operator profile with the
//! planner's `est_rows` next to the measured `tuples_out`
//! ([`crate::plan::annotate_estimates`]). This module keeps that signal:
//! after each profiled execution the executor folds the (estimate, actual)
//! pairs into a [`PlanFeedbackStore`], summarized as q-error — the standard
//! symmetric misestimate ratio `max(est, actual) / min(est, actual)` — per
//! base table and operator kind. The store surfaces as the
//! `orion.plan_feedback` virtual table and round-trips through JSON so the
//! durable engine can persist it alongside the workload repository, giving a
//! future join-ordering cost model measured errors instead of magic
//! constants.

use orion_obs::{json, OpProfile};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// The q-error of a cardinality estimate: `max(est, actual) / min(est,
/// actual)`, with both sides floored at one row so empty results stay
/// finite. 1.0 is a perfect estimate; q-error is symmetric in over- and
/// under-estimation.
pub fn q_error(est: u64, actual: u64) -> f64 {
    let e = est.max(1) as f64;
    let a = actual.max(1) as f64;
    (e / a).max(a / e)
}

/// Misestimate summary for one (table, operator-kind) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackSummary {
    /// Base table the operator subtree reads (`*` when a join mixes
    /// tables).
    pub table: String,
    /// Operator name as profiled (`Scan`, `ThresholdPred`, `Join`, ...).
    pub op: String,
    /// Observations folded in.
    pub n: u64,
    /// Worst q-error seen.
    pub max_q: f64,
    /// Sum of q-errors (mean is `sum_q / n`).
    pub sum_q: f64,
    /// Estimate from the most recent observation.
    pub last_est: u64,
    /// Actual rows from the most recent observation.
    pub last_actual: u64,
}

impl FeedbackSummary {
    /// Mean q-error across observations.
    pub fn mean_q(&self) -> f64 {
        if self.n == 0 {
            1.0
        } else {
            self.sum_q / self.n as f64
        }
    }
}

/// Thread-safe store of [`FeedbackSummary`] keyed by (table, operator).
/// Shared via `Arc`; all methods take `&self`.
#[derive(Debug, Default)]
pub struct PlanFeedbackStore {
    inner: Mutex<BTreeMap<(String, String), FeedbackSummary>>,
}

impl PlanFeedbackStore {
    /// An empty store.
    pub fn new() -> PlanFeedbackStore {
        PlanFeedbackStore::default()
    }

    /// Folds one (estimate, actual) observation into the summary for
    /// `(table, op)`.
    pub fn observe(&self, table: &str, op: &str, est: u64, actual: u64) {
        let q = q_error(est, actual);
        let mut inner = self.inner.lock();
        let entry =
            inner.entry((table.to_string(), op.to_string())).or_insert_with(|| FeedbackSummary {
                table: table.to_string(),
                op: op.to_string(),
                n: 0,
                max_q: 1.0,
                sum_q: 0.0,
                last_est: 0,
                last_actual: 0,
            });
        entry.n += 1;
        entry.sum_q += q;
        entry.max_q = entry.max_q.max(q);
        entry.last_est = est;
        entry.last_actual = actual;
    }

    /// Walks an annotated profile ([`crate::plan::annotate_estimates`]),
    /// folding every operator's `est_rows` against its measured
    /// `tuples_out`.
    pub fn fold(&self, profile: &OpProfile) {
        if let Some(est) = profile.est_rows {
            let table = profile_table(profile).unwrap_or("*");
            self.observe(table, &profile.name, est, profile.stats.tuples_out);
        }
        for child in &profile.children {
            self.fold(child);
        }
    }

    /// Every summary, sorted by (table, operator) — the row source for
    /// `orion.plan_feedback`.
    pub fn summaries(&self) -> Vec<FeedbackSummary> {
        self.inner.lock().values().cloned().collect()
    }

    /// Number of (table, operator) pairs tracked.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether no observations have been folded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every summary.
    pub fn reset(&self) {
        self.inner.lock().clear();
    }

    /// JSON form of every summary (the bench `.stats.json` sidecars embed it).
    pub fn to_json(&self) -> json::Value {
        let mut arr = json::Value::array();
        for s in self.summaries() {
            arr.push(
                json::Value::object()
                    .with("table", s.table.as_str())
                    .with("op", s.op.as_str())
                    .with("n", s.n)
                    .with("max_q", s.max_q)
                    .with("sum_q", s.sum_q)
                    .with("last_est", s.last_est)
                    .with("last_actual", s.last_actual),
            );
        }
        json::Value::object().with("feedback", arr)
    }
}

/// The base table a profiled subtree reads: the scan's table (a leaf's
/// detail) threaded up through the unary operators. Joins mix tables, so
/// attribution stops there.
fn profile_table(profile: &OpProfile) -> Option<&str> {
    match profile.children.as_slice() {
        [] => Some(&profile.detail),
        [input] => profile_table(input),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_obs::ExecStatsSnapshot;

    #[test]
    fn q_error_is_symmetric_and_floored() {
        assert_eq!(q_error(10, 10), 1.0);
        assert_eq!(q_error(100, 10), 10.0);
        assert_eq!(q_error(10, 100), 10.0);
        // Zero rows floor to one instead of dividing by zero.
        assert_eq!(q_error(0, 0), 1.0);
        assert_eq!(q_error(8, 0), 8.0);
    }

    #[test]
    fn observe_accumulates_max_and_mean() {
        let store = PlanFeedbackStore::new();
        store.observe("readings", "Scan", 100, 100);
        store.observe("readings", "Scan", 100, 25);
        let s = &store.summaries()[0];
        assert_eq!((s.table.as_str(), s.op.as_str()), ("readings", "Scan"));
        assert_eq!(s.n, 2);
        assert_eq!(s.max_q, 4.0);
        assert!((s.mean_q() - 2.5).abs() < 1e-12);
        assert_eq!((s.last_est, s.last_actual), (100, 25));
    }

    fn profiled(name: &str, table: &str, est: u64, actual: u64, kids: Vec<OpProfile>) -> OpProfile {
        let mut p = OpProfile::new(name, table)
            .with_stats(ExecStatsSnapshot { tuples_out: actual, ..Default::default() });
        p.est_rows = Some(est);
        p.children = kids;
        p
    }

    #[test]
    fn fold_walks_the_profile_and_attributes_tables() {
        // σ over scan(readings) joined with scan(sites): the join node gets
        // "*", each side keeps its base table.
        let profile = profiled(
            "Join",
            "cross",
            40,
            60,
            vec![
                profiled(
                    "Select",
                    "v < 50",
                    10,
                    20,
                    vec![profiled("Scan", "readings", 100, 100, vec![])],
                ),
                profiled("Scan", "sites", 5, 5, vec![]),
            ],
        );
        let store = PlanFeedbackStore::new();
        store.fold(&profile);
        let keys: Vec<(String, String)> =
            store.summaries().iter().map(|s| (s.table.clone(), s.op.clone())).collect();
        assert_eq!(
            keys,
            vec![
                ("*".to_string(), "Join".to_string()),
                ("readings".to_string(), "Scan".to_string()),
                ("readings".to_string(), "Select".to_string()),
                ("sites".to_string(), "Scan".to_string()),
            ]
        );
        let join = &store.summaries()[0];
        assert!((join.max_q - 1.5).abs() < 1e-12);
    }
}

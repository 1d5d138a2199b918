//! The per-operator execution-stats collector.
//!
//! An [`ExecStats`] is a bundle of atomic counters that the relational
//! operators increment while they run: tuple flow, the three pdf operations
//! the paper's cost model is built on (`product`, `floor`, `marginalize`),
//! history-dependent collapses, and wall time. The plan runner hands each
//! operator its own `Arc<ExecStats>` (via `ExecOptions::stats`), snapshots
//! it into an [`crate::OpProfile`] node, and rolls it up into the caller's
//! whole-statement collector ([`ExecStats::absorb`]).

use crate::metrics::Counter;
use crate::{fmt_nanos, json};
use std::sync::Mutex;
use std::time::Instant;

/// Work done by one worker of a morsel-parallel operator: how many morsels
/// it claimed and how long it was busy. Recorded by the parallel executor,
/// rendered by `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerLane {
    /// Worker index within the pool (0-based).
    pub worker: usize,
    /// Morsels this worker processed.
    pub morsels: u64,
    /// Wall time the worker spent computing, in nanoseconds.
    pub busy_nanos: u64,
}

/// Atomic execution counters for one operator (or one whole query).
#[derive(Debug, Default)]
pub struct ExecStats {
    /// Tuples entering the operator.
    pub tuples_in: Counter,
    /// Tuples in the operator's output.
    pub tuples_out: Counter,
    /// Joint-pdf products taken (independent or history-aware merges).
    pub pdf_products: Counter,
    /// Floors applied (symbolic `floor_axis` and materialized
    /// `floor_predicate` alike).
    pub pdf_floors: Counter,
    /// Marginalizations evaluated during history reconstruction.
    pub pdf_marginalizations: Counter,
    /// History-dependent merges (the paper's Section III-D collapses).
    pub collapses: Counter,
    /// Join pairs skipped before any pdf work because their certain
    /// equi-join attributes already mismatch.
    pub pairs_pruned: Counter,
    /// Columnar batches processed (zero when the operator ran row-at-a-time).
    pub batches: Counter,
    /// Tuples entering those batches (for rows-per-batch diagnostics).
    pub batch_rows: Counter,
    /// Tuples surviving batch-level selection (selection-vector density).
    pub batch_selected: Counter,
    /// Tuples an index access path examined against a candidate mask
    /// (zero when the operator ran without index support).
    pub index_probes: Counter,
    /// Tuples an index access path pruned before probability evaluation.
    pub index_pruned: Counter,
    /// Wall time attributed to the operator, in nanoseconds.
    pub elapsed_nanos: Counter,
    /// Per-worker morsel counts and busy time (empty for serial execution).
    workers: Mutex<Vec<WorkerLane>>,
}

impl ExecStats {
    /// Fresh, all-zero stats.
    pub fn new() -> ExecStats {
        ExecStats::default()
    }

    /// Starts an RAII timer adding to `elapsed_nanos` when dropped.
    pub fn timer(&self) -> ExecTimer<'_> {
        ExecTimer { stats: self, start: Instant::now() }
    }

    /// Adds one worker's contribution to the per-worker lanes. Lanes with
    /// the same worker index accumulate (an operator may run several
    /// parallel phases over one collector).
    pub fn record_worker(&self, worker: usize, morsels: u64, busy_nanos: u64) {
        let mut lanes = self.workers.lock().expect("worker lanes poisoned");
        match lanes.iter_mut().find(|l| l.worker == worker) {
            Some(l) => {
                l.morsels += morsels;
                l.busy_nanos += busy_nanos;
            }
            None => {
                lanes.push(WorkerLane { worker, morsels, busy_nanos });
                lanes.sort_by_key(|l| l.worker);
            }
        }
    }

    /// Adds a snapshot's counters and worker lanes into this collector: how
    /// the plan runner rolls each operator's own collector up into the
    /// whole-statement one its caller attached.
    pub fn absorb(&self, s: &ExecStatsSnapshot) {
        self.tuples_in.add(s.tuples_in);
        self.tuples_out.add(s.tuples_out);
        self.pdf_products.add(s.pdf_products);
        self.pdf_floors.add(s.pdf_floors);
        self.pdf_marginalizations.add(s.pdf_marginalizations);
        self.collapses.add(s.collapses);
        self.pairs_pruned.add(s.pairs_pruned);
        self.batches.add(s.batches);
        self.batch_rows.add(s.batch_rows);
        self.batch_selected.add(s.batch_selected);
        self.index_probes.add(s.index_probes);
        self.index_pruned.add(s.index_pruned);
        self.elapsed_nanos.add(s.elapsed_nanos);
        for l in &s.workers {
            self.record_worker(l.worker, l.morsels, l.busy_nanos);
        }
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> ExecStatsSnapshot {
        ExecStatsSnapshot {
            tuples_in: self.tuples_in.get(),
            tuples_out: self.tuples_out.get(),
            pdf_products: self.pdf_products.get(),
            pdf_floors: self.pdf_floors.get(),
            pdf_marginalizations: self.pdf_marginalizations.get(),
            collapses: self.collapses.get(),
            pairs_pruned: self.pairs_pruned.get(),
            batches: self.batches.get(),
            batch_rows: self.batch_rows.get(),
            batch_selected: self.batch_selected.get(),
            index_probes: self.index_probes.get(),
            index_pruned: self.index_pruned.get(),
            elapsed_nanos: self.elapsed_nanos.get(),
            workers: self.workers.lock().expect("worker lanes poisoned").clone(),
        }
    }
}

/// RAII timer feeding [`ExecStats::elapsed_nanos`].
#[derive(Debug)]
pub struct ExecTimer<'a> {
    stats: &'a ExecStats,
    start: Instant,
}

impl ExecTimer<'_> {
    /// Stops and records now instead of at scope end.
    pub fn stop(self) {}
}

impl Drop for ExecTimer<'_> {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.elapsed_nanos.add(nanos);
    }
}

/// Plain-value copy of an [`ExecStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStatsSnapshot {
    /// Tuples entering the operator.
    pub tuples_in: u64,
    /// Tuples in the operator's output.
    pub tuples_out: u64,
    /// Joint-pdf products taken.
    pub pdf_products: u64,
    /// Floors applied.
    pub pdf_floors: u64,
    /// Marginalizations evaluated.
    pub pdf_marginalizations: u64,
    /// History-dependent merges.
    pub collapses: u64,
    /// Join pairs pruned by the certain equi-key pre-filter.
    pub pairs_pruned: u64,
    /// Columnar batches processed (zero for row-at-a-time execution).
    pub batches: u64,
    /// Tuples entering those batches.
    pub batch_rows: u64,
    /// Tuples surviving batch-level selection.
    pub batch_selected: u64,
    /// Tuples examined against an index candidate mask.
    pub index_probes: u64,
    /// Tuples pruned by an index before probability evaluation.
    pub index_pruned: u64,
    /// Attributed wall time in nanoseconds.
    pub elapsed_nanos: u64,
    /// Per-worker morsel counts and busy time, sorted by worker index
    /// (empty when the operator ran serially).
    pub workers: Vec<WorkerLane>,
}

impl ExecStatsSnapshot {
    /// Adds another snapshot's counters into this one.
    pub fn merge(&mut self, other: &ExecStatsSnapshot) {
        self.tuples_in += other.tuples_in;
        self.tuples_out += other.tuples_out;
        self.pdf_products += other.pdf_products;
        self.pdf_floors += other.pdf_floors;
        self.pdf_marginalizations += other.pdf_marginalizations;
        self.collapses += other.collapses;
        self.pairs_pruned += other.pairs_pruned;
        self.batches += other.batches;
        self.batch_rows += other.batch_rows;
        self.batch_selected += other.batch_selected;
        self.index_probes += other.index_probes;
        self.index_pruned += other.index_pruned;
        self.elapsed_nanos += other.elapsed_nanos;
        for lane in &other.workers {
            match self.workers.iter_mut().find(|l| l.worker == lane.worker) {
                Some(l) => {
                    l.morsels += lane.morsels;
                    l.busy_nanos += lane.busy_nanos;
                }
                None => {
                    self.workers.push(lane.clone());
                    self.workers.sort_by_key(|l| l.worker);
                }
            }
        }
    }

    /// One-line rendering used by `EXPLAIN ANALYZE` rows. The worker-lane
    /// section appears only when the operator actually ran in parallel, so
    /// serial plans render exactly as before.
    pub fn render(&self) -> String {
        let mut line = format!(
            "in={} out={} products={} floors={} marginalize={} collapses={} pruned={} time={}",
            self.tuples_in,
            self.tuples_out,
            self.pdf_products,
            self.pdf_floors,
            self.pdf_marginalizations,
            self.collapses,
            self.pairs_pruned,
            fmt_nanos(self.elapsed_nanos),
        );
        if self.batches > 0 {
            let sel_pct = (self.batch_selected * 100).checked_div(self.batch_rows).unwrap_or(0);
            line.push_str(&format!(
                " mode=batch batches={} rows/batch={} sel={}%",
                self.batches,
                self.batch_rows / self.batches,
                sel_pct,
            ));
        } else {
            line.push_str(" mode=row");
        }
        // Index counters render only when an index path actually ran, so
        // un-indexed plans keep their exact historical rendering.
        if self.index_probes > 0 {
            line.push_str(&format!(
                " idx_probes={} idx_pruned={}",
                self.index_probes, self.index_pruned
            ));
        }
        if !self.workers.is_empty() {
            line.push_str(" workers=[");
            for (i, l) in self.workers.iter().enumerate() {
                if i > 0 {
                    line.push(' ');
                }
                line.push_str(&format!("{}:{}m/{}", l.worker, l.morsels, fmt_nanos(l.busy_nanos)));
            }
            line.push(']');
        }
        line
    }

    /// JSON form with one field per counter.
    pub fn to_json(&self) -> json::Value {
        let mut workers = json::Value::array();
        for l in &self.workers {
            workers.push(
                json::Value::object()
                    .with("worker", l.worker as u64)
                    .with("morsels", l.morsels)
                    .with("busy_nanos", l.busy_nanos),
            );
        }
        json::Value::object()
            .with("tuples_in", self.tuples_in)
            .with("tuples_out", self.tuples_out)
            .with("pdf_products", self.pdf_products)
            .with("pdf_floors", self.pdf_floors)
            .with("pdf_marginalizations", self.pdf_marginalizations)
            .with("collapses", self.collapses)
            .with("pairs_pruned", self.pairs_pruned)
            .with("batches", self.batches)
            .with("batch_rows", self.batch_rows)
            .with("batch_selected", self.batch_selected)
            .with("elapsed_nanos", self.elapsed_nanos)
            .with("workers", workers)
            // Appended after the stable keys so existing consumers keep
            // their prefix shape.
            .with("index_probes", self.index_probes)
            .with("index_pruned", self.index_pruned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let s = ExecStats::new();
        s.tuples_in.add(10);
        s.tuples_out.add(4);
        s.pdf_products.inc();
        s.pdf_floors.add(2);
        s.pdf_marginalizations.add(3);
        s.collapses.inc();
        let snap = s.snapshot();
        assert_eq!(snap.tuples_in, 10);
        assert_eq!(snap.tuples_out, 4);
        assert_eq!(snap.pdf_products, 1);
        assert_eq!(snap.pdf_floors, 2);
        assert_eq!(snap.pdf_marginalizations, 3);
        assert_eq!(snap.collapses, 1);
    }

    #[test]
    fn absorb_rolls_a_snapshot_up() {
        let node = ExecStats::new();
        node.pdf_floors.add(2);
        node.record_worker(1, 3, 500);
        let total = ExecStats::new();
        total.pdf_floors.inc();
        total.absorb(&node.snapshot());
        total.absorb(&node.snapshot());
        let snap = total.snapshot();
        assert_eq!(snap.pdf_floors, 5);
        assert_eq!(snap.workers, vec![WorkerLane { worker: 1, morsels: 6, busy_nanos: 1_000 }]);
    }

    #[test]
    fn timer_accumulates_elapsed() {
        let s = ExecStats::new();
        {
            let _t = s.timer();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(s.snapshot().elapsed_nanos >= 1_000_000);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = ExecStatsSnapshot { tuples_in: 1, pdf_floors: 2, ..Default::default() };
        let b = ExecStatsSnapshot { tuples_in: 3, collapses: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.tuples_in, 4);
        assert_eq!(a.pdf_floors, 2);
        assert_eq!(a.collapses, 5);
    }

    #[test]
    fn render_mentions_every_counter() {
        let snap = ExecStatsSnapshot {
            tuples_in: 2,
            tuples_out: 1,
            pdf_products: 3,
            pdf_floors: 4,
            pdf_marginalizations: 5,
            collapses: 6,
            pairs_pruned: 7,
            batches: 0,
            batch_rows: 0,
            batch_selected: 0,
            index_probes: 0,
            index_pruned: 0,
            elapsed_nanos: 1_500,
            workers: Vec::new(),
        };
        assert_eq!(
            snap.render(),
            "in=2 out=1 products=3 floors=4 marginalize=5 collapses=6 pruned=7 time=1.5us mode=row"
        );
    }

    #[test]
    fn index_counters_render_only_when_probed() {
        let quiet = ExecStatsSnapshot::default();
        assert!(!quiet.render().contains("idx_probes"), "{}", quiet.render());
        let probed =
            ExecStatsSnapshot { index_probes: 100, index_pruned: 93, ..Default::default() };
        assert!(probed.render().contains("idx_probes=100 idx_pruned=93"), "{}", probed.render());
        let mut merged = probed.clone();
        merged.merge(&probed);
        assert_eq!((merged.index_probes, merged.index_pruned), (200, 186));
        assert!(probed.to_json().to_string_compact().contains(r#""index_probes":100"#));
    }

    #[test]
    fn render_reports_batch_counters() {
        let snap = ExecStatsSnapshot {
            tuples_in: 100,
            tuples_out: 25,
            batches: 4,
            batch_rows: 100,
            batch_selected: 25,
            ..Default::default()
        };
        assert!(
            snap.render().ends_with("mode=batch batches=4 rows/batch=25 sel=25%"),
            "{}",
            snap.render()
        );
        // Empty batches render without dividing by zero.
        let empty = ExecStatsSnapshot { batches: 2, ..Default::default() };
        assert!(empty.render().ends_with("mode=batch batches=2 rows/batch=0 sel=0%"));
        // Batch counters merge like the rest.
        let mut a = snap.clone();
        a.merge(&empty);
        assert_eq!((a.batches, a.batch_rows, a.batch_selected), (6, 100, 25));
    }

    #[test]
    fn worker_lanes_accumulate_and_render() {
        let s = ExecStats::new();
        s.record_worker(1, 2, 500);
        s.record_worker(0, 3, 1_000);
        s.record_worker(1, 1, 500);
        let snap = s.snapshot();
        assert_eq!(
            snap.workers,
            vec![
                WorkerLane { worker: 0, morsels: 3, busy_nanos: 1_000 },
                WorkerLane { worker: 1, morsels: 3, busy_nanos: 1_000 },
            ]
        );
        assert!(snap.render().ends_with("workers=[0:3m/1.0us 1:3m/1.0us]"), "{}", snap.render());
    }

    #[test]
    fn merge_sums_worker_lanes_by_index() {
        let mut a = ExecStatsSnapshot {
            workers: vec![WorkerLane { worker: 0, morsels: 1, busy_nanos: 10 }],
            ..Default::default()
        };
        let b = ExecStatsSnapshot {
            workers: vec![
                WorkerLane { worker: 0, morsels: 2, busy_nanos: 5 },
                WorkerLane { worker: 2, morsels: 4, busy_nanos: 7 },
            ],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(
            a.workers,
            vec![
                WorkerLane { worker: 0, morsels: 3, busy_nanos: 15 },
                WorkerLane { worker: 2, morsels: 4, busy_nanos: 7 },
            ]
        );
    }
}

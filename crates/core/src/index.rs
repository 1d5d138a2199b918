//! Support-interval indexing for probabilistic threshold range queries.
//!
//! The paper's companion work (refs 6 and 7 in its bibliography) builds index
//! structures over pdf attributes so threshold queries need not evaluate
//! every tuple's probability. This module implements the core pruning idea
//! in its simplest effective form: per tuple, store the (effective)
//! support interval and total mass of one uncertain column. A range
//! threshold query `Pr(x ∈ [l, u]) ⊙ p` can then skip
//!
//! * tuples whose support does not intersect `[l, u]` (probability 0), and
//! * tuples whose total mass already fails an upper-bound test
//!   (`mass ≤ p` can never satisfy `> p`).
//!
//! Only the surviving candidates pay for exact probability evaluation:
//! [`crate::threshold::threshold_pred`] builds the candidate mask from this
//! index, cached per table version, when a session catalog is attached but
//! no persistent index covers the column.
//!
//! Pruning is exact up to the *effective-support* tail: unbounded
//! distributions are indexed by the interval holding all but
//! [`orion_pdf::pdf1d::TAIL_EPS`] (= 1e-9) of their mass, so a pruned
//! tuple's true probability is at most 1e-9. Thresholds above that bound
//! (any practical `p`) are answered identically to a full scan.

use crate::error::{EngineError, Result};
use crate::relation::Relation;
use orion_pdf::prelude::Interval;

/// One index entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    lo: f64,
    hi: f64,
    mass: f64,
    tuple: usize,
}

/// A support-interval index over one uncertain column of a relation.
///
/// The index is a snapshot: it indexes the relation it was built from by
/// tuple position and must be rebuilt after updates.
#[derive(Debug, Clone)]
pub struct SupportIndex {
    /// Entries sorted by `lo`.
    entries: Vec<Entry>,
    /// `max_hi[i]` = max of `entries[..=i].hi` — enables early pruning of
    /// the sorted scan (a classic interval-list acceleration).
    max_hi: Vec<f64>,
}

impl SupportIndex {
    /// Builds the index for `column` over `rel`.
    pub fn build(rel: &Relation, column: &str) -> Result<Self> {
        let col = rel
            .schema
            .column(column)
            .ok_or_else(|| EngineError::Schema(format!("unknown column '{column}'")))?;
        if !col.uncertain {
            return Err(EngineError::Operator(format!(
                "support index over certain column '{column}'"
            )));
        }
        let mut entries = Vec::with_capacity(rel.len());
        for (i, t) in rel.tuples.iter().enumerate() {
            let node = t.node_for(col.id).ok_or_else(|| {
                EngineError::Operator(format!("tuple {i} has no pdf node for '{column}'"))
            })?;
            let marginal = node
                .marginal(col.id)
                .ok_or_else(|| EngineError::Operator("marginal extraction failed".into()))?;
            let support = marginal.effective_support().unwrap_or_else(|| Interval::point(f64::NAN));
            entries.push(Entry { lo: support.lo, hi: support.hi, mass: node.mass(), tuple: i });
        }
        entries.sort_by(|a, b| a.lo.partial_cmp(&b.lo).expect("finite supports"));
        let mut max_hi = Vec::with_capacity(entries.len());
        let mut running = f64::NEG_INFINITY;
        for e in &entries {
            running = running.max(e.hi);
            max_hi.push(running);
        }
        Ok(SupportIndex { entries, max_hi })
    }

    /// Number of indexed tuples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Tuple positions whose support intersects `iv`, in index order.
    /// `min_mass` additionally prunes tuples whose total mass is at or
    /// below the threshold an over-`p` query needs.
    pub fn candidates(&self, iv: &Interval, min_mass: f64) -> Vec<usize> {
        // Entries with lo > iv.hi can never intersect; the sort bounds the
        // scan. Within the prefix, skip runs whose max_hi < iv.lo.
        let end = self.entries.partition_point(|e| e.lo <= iv.hi);
        let mut out = Vec::new();
        for i in 0..end {
            if self.max_hi[i] < iv.lo {
                continue;
            }
            let e = &self.entries[i];
            if e.hi >= iv.lo && e.mass > min_mass {
                out.push(e.tuple);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryRegistry;
    use crate::predicate::{CmpOp, Predicate};
    use crate::schema::{ColumnType, ProbSchema};
    use crate::select::ExecOptions;
    use crate::threshold::threshold_pred;
    use crate::value::Value;
    use orion_pdf::prelude::*;
    use orion_pdf::sample::{Uniform, XorShift};
    use std::sync::Arc;

    /// Deterministic sensor-style readings without depending on the
    /// workload crate (which sits above this one).
    fn readings(n: usize) -> (Relation, HistoryRegistry) {
        let schema = ProbSchema::new(
            vec![("rid", ColumnType::Int, false), ("v", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("r", schema);
        let mut reg = HistoryRegistry::new();
        let mut rng = XorShift::new(31);
        for rid in 1..=n as i64 {
            let mean = rng.next_f64() * 100.0;
            let sd = 1.0 + rng.next_f64() * 2.0;
            rel.insert_simple(
                &mut reg,
                &[("rid", Value::Int(rid))],
                &[("v", Pdf1::gaussian(mean, sd * sd).unwrap())],
            )
            .unwrap();
        }
        (rel, reg)
    }

    #[test]
    fn candidates_prune_disjoint_supports() {
        let (rel, _) = readings(500);
        let idx = SupportIndex::build(&rel, "v").unwrap();
        assert_eq!(idx.len(), 500);
        let iv = Interval::new(40.0, 45.0);
        let cands = idx.candidates(&iv, 0.0);
        assert!(!cands.is_empty());
        assert!(cands.len() < 500, "pruning must discard most tuples");
        // Every non-candidate really has (numerically) zero probability.
        for ti in 0..rel.len() {
            if !cands.contains(&ti) {
                let m = rel.marginal(ti, "v").unwrap();
                assert!(m.range_prob(&iv) < 1e-6, "tuple {ti} wrongly pruned");
            }
        }
    }

    /// Options with a session catalog that holds no persistent index, so
    /// `threshold_pred` prunes through the cached [`SupportIndex`] (the
    /// support fallback), counting into `stats`.
    fn fallback_opts(stats: &Arc<orion_obs::ExecStats>) -> ExecOptions {
        ExecOptions {
            indexes: Some(crate::pindex::IndexHandle::new()),
            ..ExecOptions::default().with_stats(stats.clone())
        }
    }

    #[test]
    fn indexed_threshold_matches_scan() {
        let (rel, reg) = readings(300);
        let opts = ExecOptions::default();
        let iv = Interval::new(20.0, 28.0);
        let pred = Predicate::And(vec![
            Predicate::cmp("v", CmpOp::Ge, iv.lo),
            Predicate::cmp("v", CmpOp::Le, iv.hi),
        ]);
        for (op, p) in [(CmpOp::Gt, 0.5), (CmpOp::Ge, 0.9), (CmpOp::Lt, 0.1), (CmpOp::Gt, 1e-6)] {
            let stats = Arc::new(orion_obs::ExecStats::new());
            let indexed = threshold_pred(&rel, &pred, op, p, &reg, &fallback_opts(&stats)).unwrap();
            let scanned = threshold_pred(&rel, &pred, op, p, &reg, &opts).unwrap();
            // Same tuples in the same order: pruning only skips evaluations.
            assert_eq!(indexed.tuples, scanned.tuples, "op {op:?} p {p}");
            let snap = stats.snapshot();
            if op == CmpOp::Lt {
                // `< p` admits probability 0, so nothing may be pruned.
                assert_eq!(snap.index_probes, 0, "op {op:?} p {p}");
            } else {
                assert_eq!(snap.index_probes, rel.len() as u64, "op {op:?} p {p}");
                assert!(snap.index_pruned > 0, "op {op:?} p {p}: nothing pruned");
            }
        }
    }

    #[test]
    fn mass_pruning_respects_partial_pdfs() {
        let schema = ProbSchema::new(vec![("v", ColumnType::Real, true)], vec![]).unwrap();
        let mut rel = Relation::new("t", schema);
        let mut reg = HistoryRegistry::new();
        // Mass 0.4 tuple can never satisfy Pr > 0.5.
        rel.insert_simple(&mut reg, &[], &[("v", Pdf1::discrete(vec![(5.0, 0.4)]).unwrap())])
            .unwrap();
        rel.insert_simple(&mut reg, &[], &[("v", Pdf1::certain(5.0))]).unwrap();
        let idx = SupportIndex::build(&rel, "v").unwrap();
        let iv = Interval::new(0.0, 10.0);
        assert_eq!(idx.candidates(&iv, 0.5), vec![1]);
        let pred = Predicate::And(vec![
            Predicate::cmp("v", CmpOp::Ge, iv.lo),
            Predicate::cmp("v", CmpOp::Le, iv.hi),
        ]);
        let stats = Arc::new(orion_obs::ExecStats::new());
        let out =
            threshold_pred(&rel, &pred, CmpOp::Gt, 0.5, &reg, &fallback_opts(&stats)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples[0], rel.tuples[1]);
        assert_eq!(stats.snapshot().index_pruned, 1, "the mass-0.4 tuple is pruned");
    }

    #[test]
    fn build_validation() {
        let (rel, _) = readings(5);
        assert!(SupportIndex::build(&rel, "rid").is_err());
        assert!(SupportIndex::build(&rel, "nope").is_err());
        assert!(!SupportIndex::build(&rel, "v").unwrap().is_empty());
    }
}

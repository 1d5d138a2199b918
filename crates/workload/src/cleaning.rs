//! Data-cleaning workload: dirty readings with discrete alternative values
//! — the paper's Section I motivation "multiple alternatives for an
//! incorrect value".

use orion_core::prelude::*;
use orion_pdf::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator for records whose corrupted fields have a small set of
/// candidate repairs with confidences.
pub struct CleaningWorkload {
    rng: StdRng,
    /// Maximum number of alternative repairs per dirty value.
    pub max_alternatives: usize,
}

impl CleaningWorkload {
    /// A deterministic workload from a seed.
    pub fn new(seed: u64) -> Self {
        CleaningWorkload { rng: StdRng::seed_from_u64(seed), max_alternatives: 4 }
    }

    /// A discrete pdf over candidate repairs around a true value.
    pub fn repair_pdf(&mut self, truth: f64) -> Pdf1 {
        let k = self.rng.gen_range(2..=self.max_alternatives);
        // Random positive weights, normalized; candidates near the truth.
        let mut weights: Vec<f64> = (0..k).map(|_| self.rng.gen_range(0.2..1.0)).collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        let mut points = Vec::with_capacity(k);
        let mut used = std::collections::BTreeSet::new();
        for w in weights {
            let mut off = self.rng.gen_range(-3i64..=3);
            while !used.insert(off) {
                off = self.rng.gen_range(-10i64..=10);
            }
            points.push((truth + off as f64, w));
        }
        Pdf1::discrete(points).expect("valid discrete pdf")
    }

    /// Builds a relation `dirty(rid, amount)` with `n` records whose
    /// amounts carry discrete repair uncertainty.
    pub fn relation(&mut self, n: usize, reg: &mut HistoryRegistry) -> Relation {
        let schema = ProbSchema::new(
            vec![("rid", ColumnType::Int, false), ("amount", ColumnType::Real, true)],
            vec![],
        )
        .expect("valid schema");
        let mut rel = Relation::new("dirty", schema);
        for rid in 1..=n as i64 {
            let truth = self.rng.gen_range(10.0..1000.0_f64).round();
            let pdf = self.repair_pdf(truth);
            rel.insert_simple(reg, &[("rid", Value::Int(rid))], &[("amount", pdf)])
                .expect("valid insert");
        }
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_pdfs_are_normalized_discrete() {
        let mut w = CleaningWorkload::new(21);
        for _ in 0..50 {
            let p = w.repair_pdf(100.0);
            assert!((p.mass() - 1.0).abs() < 1e-9);
            assert!(p.is_discrete());
        }
    }

    #[test]
    fn relation_supports_pws_enumeration() {
        let mut w = CleaningWorkload::new(8);
        let mut reg = HistoryRegistry::new();
        let rel = w.relation(3, &mut reg);
        assert_eq!(rel.len(), 3);
        // Discrete base data enumerates under PWS.
        for t in rel.tuples.iter() {
            assert!(t.nodes[0].joint.enumerate().is_ok());
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut r1 = HistoryRegistry::new();
        let mut r2 = HistoryRegistry::new();
        let a = CleaningWorkload::new(3).relation(5, &mut r1);
        let b = CleaningWorkload::new(3).relation(5, &mut r2);
        for (x, y) in a.tuples.iter().zip(b.tuples.iter()) {
            assert_eq!(x.certain, y.certain);
            assert_eq!(x.nodes[0].joint, y.nodes[0].joint);
        }
    }
}

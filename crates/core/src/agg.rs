//! Aggregation over uncertain attributes.
//!
//! The paper motivates continuous representations with aggregates: a SUM
//! over n discrete uncertain attributes has exponentially many possible
//! values, so "one can save space as well as time by approximating with a
//! continuous pdf" (Section I). This module provides both sides of that
//! trade-off:
//!
//! * [`sum_exact`] — exact discrete convolution (support can blow up);
//! * [`sum_gaussian`] — a constant-size moment-matched Gaussian;
//! * [`count_expected`] / [`avg_expected`] — scalar expectation aggregates.
//!
//! All aggregate results are *new* distributions: they are assigned fresh
//! (empty) histories, because an aggregate value is an approximation that
//! no longer supports exact ancestor-based recombination.

use crate::collapse;
use crate::error::{EngineError, Result};
use crate::history::HistoryRegistry;
use crate::relation::Relation;
use crate::select::ExecOptions;
use orion_pdf::discrete::DiscretePdf;
use orion_pdf::ops::{convolve_discrete, sum_gaussian_approx};
use orion_pdf::prelude::Pdf1;

/// Collects the 1-D marginals of `col` across all tuples.
fn marginals(rel: &Relation, col: &str) -> Result<Vec<Pdf1>> {
    let c = rel
        .schema
        .column(col)
        .ok_or_else(|| EngineError::Schema(format!("unknown column '{col}'")))?;
    if !c.uncertain {
        return Err(EngineError::Operator(format!(
            "aggregate over certain column '{col}'; use plain arithmetic"
        )));
    }
    let mut out = Vec::with_capacity(rel.len());
    for (i, t) in rel.tuples.iter().enumerate() {
        let n = t.node_for(c.id).ok_or_else(|| {
            EngineError::Operator(format!("tuple {i} has no pdf node for '{col}'"))
        })?;
        out.push(
            n.marginal(c.id)
                .ok_or_else(|| EngineError::Operator("marginal extraction failed".into()))?,
        );
    }
    Ok(out)
}

/// Exact SUM over a discrete uncertain column: the full convolution.
/// Every tuple must exist with certainty (mass 1) — partial pdfs make the
/// exact sum a mixture over subsets, which is precisely the blow-up the
/// Gaussian approximation avoids.
pub fn sum_exact(rel: &Relation, col: &str) -> Result<DiscretePdf> {
    let ms = marginals(rel, col)?;
    if ms.is_empty() {
        return Ok(DiscretePdf::certain(0.0));
    }
    let mut acc: Option<DiscretePdf> = None;
    for m in &ms {
        if (m.mass() - 1.0).abs() > 1e-9 {
            return Err(EngineError::Operator(
                "sum_exact requires full-mass (certainly existing) tuples".into(),
            ));
        }
        let d = m
            .enumerate()
            .map_err(|_| EngineError::Operator("sum_exact requires discrete pdfs".into()))?;
        acc = Some(match acc {
            None => d.into_owned(),
            Some(a) => convolve_discrete(&a, &d)?,
        });
    }
    Ok(acc.expect("non-empty"))
}

/// SUM via repeated grid convolution: an `O(n * bins^2)` middle ground
/// between the exponential exact convolution and the constant-size
/// Gaussian approximation — exact up to the grid resolution, valid for
/// continuous and discrete inputs alike. Requires full-mass tuples (as
/// [`sum_exact`] does) and, like every aggregate here, assumes the
/// summed attributes are historically independent across tuples. The
/// result is a histogram for n >= 2 inputs; a single input is returned
/// unchanged (already exact).
pub fn sum_grid(rel: &Relation, col: &str, bins: usize) -> Result<Pdf1> {
    let ms = marginals(rel, col)?;
    if ms.is_empty() {
        return Ok(Pdf1::certain(0.0));
    }
    // Validate every input before paying for any O(bins^2) convolution.
    for m in &ms {
        if (m.mass() - 1.0).abs() > 1e-9 {
            return Err(EngineError::Operator(
                "sum_grid requires full-mass (certainly existing) tuples".into(),
            ));
        }
    }
    let mut acc: Option<Pdf1> = None;
    for m in &ms {
        acc = Some(match acc {
            None => m.clone(),
            Some(a) => Pdf1::Histogram(orion_pdf::ops::convolve_grid(&a, m, bins)?),
        });
    }
    Ok(acc.expect("non-empty"))
}

/// SUM approximated by a moment-matched Gaussian (constant-size result).
/// Works for continuous and discrete inputs alike.
pub fn sum_gaussian(rel: &Relation, col: &str) -> Result<Pdf1> {
    let ms = marginals(rel, col)?;
    if ms.is_empty() {
        return Ok(Pdf1::certain(0.0));
    }
    Ok(sum_gaussian_approx(&ms)?)
}

/// Expected COUNT: the sum of tuple existence probabilities
/// (history-aware).
pub fn count_expected(rel: &Relation, reg: &HistoryRegistry, opts: &ExecOptions) -> Result<f64> {
    let mut total = 0.0;
    for t in rel.tuples.iter() {
        total += if opts.use_histories {
            collapse::existence_prob(t, reg, opts.resolution)?
        } else {
            t.naive_existence()
        };
    }
    Ok(total)
}

/// Expected AVG of an uncertain column: existence-weighted mean of the
/// per-tuple conditional expectations.
pub fn avg_expected(rel: &Relation, col: &str) -> Result<Option<f64>> {
    let ms = marginals(rel, col)?;
    let mut num = 0.0;
    let mut den = 0.0;
    for m in &ms {
        let mass = m.mass();
        if mass <= 0.0 {
            continue;
        }
        let e =
            m.expected_value().ok_or_else(|| EngineError::Operator("vacuous pdf in AVG".into()))?;
        num += mass * e;
        den += mass;
    }
    Ok((den > 0.0).then(|| num / den))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, ProbSchema};

    fn coins(n: usize) -> (Relation, HistoryRegistry) {
        let schema = ProbSchema::new(vec![("x", ColumnType::Int, true)], vec![]).unwrap();
        let mut rel = Relation::new("coins", schema);
        let mut reg = HistoryRegistry::new();
        for _ in 0..n {
            rel.insert_simple(
                &mut reg,
                &[],
                &[("x", Pdf1::discrete(vec![(0.0, 0.5), (1.0, 0.5)]).unwrap())],
            )
            .unwrap();
        }
        (rel, reg)
    }

    #[test]
    fn exact_sum_of_coins_is_binomial() {
        let (rel, _) = coins(4);
        let s = sum_exact(&rel, "x").unwrap();
        assert_eq!(s.len(), 5);
        assert!((s.prob_at(2.0) - 6.0 / 16.0).abs() < 1e-12);
        assert!((s.mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gaussian_sum_matches_exact_moments() {
        let (rel, _) = coins(16);
        let g = sum_gaussian(&rel, "x").unwrap();
        assert!((g.expected_value().unwrap() - 8.0).abs() < 1e-9);
        // Variance 16 * 0.25 = 4 => sd 2; P(X <= 8) = 0.5.
        assert!((g.cumulative(8.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn gaussian_sum_is_constant_size_while_exact_blows_up() {
        // Irrational steps defeat support collapse: exact support = 2^n.
        let schema = ProbSchema::new(vec![("x", ColumnType::Real, true)], vec![]).unwrap();
        let mut rel = Relation::new("t", schema);
        let mut reg = HistoryRegistry::new();
        for i in 0..8 {
            let step = (2.0_f64 + i as f64).sqrt();
            rel.insert_simple(
                &mut reg,
                &[],
                &[("x", Pdf1::discrete(vec![(0.0, 0.5), (step, 0.5)]).unwrap())],
            )
            .unwrap();
        }
        let exact = sum_exact(&rel, "x").unwrap();
        assert_eq!(exact.len(), 256, "exponential support");
        let g = sum_gaussian(&rel, "x").unwrap();
        assert_eq!(g.param_count(), 3, "constant-size approximation");
        // The approximation matches the exact mean.
        assert!((g.expected_value().unwrap() - exact.expected_value().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn grid_sum_tracks_exact_and_gaussian() {
        let (rel, _) = coins(8);
        let grid = sum_grid(&rel, "x", 64).unwrap();
        let exact = sum_exact(&rel, "x").unwrap();
        // Means agree; cdf midpoint agrees with the binomial.
        assert!((grid.expected_value().unwrap() - exact.expected_value().unwrap()).abs() < 0.1);
        assert!((grid.mass() - 1.0).abs() < 1e-6);
        // Continuous inputs (which sum_exact rejects) work here.
        let schema = ProbSchema::new(vec![("x", ColumnType::Real, true)], vec![]).unwrap();
        let mut cont = Relation::new("c", schema);
        let mut reg = HistoryRegistry::new();
        for _ in 0..2 {
            cont.insert_simple(&mut reg, &[], &[("x", Pdf1::gaussian(1.0, 1.0).unwrap())]).unwrap();
        }
        assert!(sum_exact(&cont, "x").is_err());
        let g = sum_grid(&cont, "x", 64).unwrap();
        assert!((g.expected_value().unwrap() - 2.0).abs() < 0.05);
    }

    #[test]
    fn sum_exact_rejects_partial_and_continuous() {
        let schema = ProbSchema::new(vec![("x", ColumnType::Real, true)], vec![]).unwrap();
        let mut rel = Relation::new("t", schema);
        let mut reg = HistoryRegistry::new();
        rel.insert_simple(&mut reg, &[], &[("x", Pdf1::discrete(vec![(1.0, 0.5)]).unwrap())])
            .unwrap();
        assert!(sum_exact(&rel, "x").is_err(), "partial pdf");
        let mut rel2 = Relation::new(
            "t2",
            ProbSchema::new(vec![("x", ColumnType::Real, true)], vec![]).unwrap(),
        );
        rel2.insert_simple(&mut reg, &[], &[("x", Pdf1::gaussian(0.0, 1.0).unwrap())]).unwrap();
        assert!(sum_exact(&rel2, "x").is_err(), "continuous pdf");
    }

    #[test]
    fn count_and_avg() {
        let schema = ProbSchema::new(vec![("x", ColumnType::Real, true)], vec![]).unwrap();
        let mut rel = Relation::new("t", schema);
        let mut reg = HistoryRegistry::new();
        rel.insert_simple(&mut reg, &[], &[("x", Pdf1::certain(10.0))]).unwrap();
        rel.insert_simple(&mut reg, &[], &[("x", Pdf1::discrete(vec![(20.0, 0.5)]).unwrap())])
            .unwrap();
        let opts = ExecOptions::default();
        assert!((count_expected(&rel, &reg, &opts).unwrap() - 1.5).abs() < 1e-12);
        // AVG weighted by existence: (1*10 + 0.5*20) / 1.5
        assert!((avg_expected(&rel, "x").unwrap().unwrap() - (20.0 / 1.5)).abs() < 1e-12);
    }

    #[test]
    fn empty_relation_aggregates() {
        let schema = ProbSchema::new(vec![("x", ColumnType::Real, true)], vec![]).unwrap();
        let rel = Relation::new("t", schema);
        let reg = HistoryRegistry::new();
        assert_eq!(sum_exact(&rel, "x").unwrap().prob_at(0.0), 1.0);
        assert!(avg_expected(&rel, "x").unwrap().is_none());
        assert_eq!(count_expected(&rel, &reg, &ExecOptions::default()).unwrap(), 0.0);
    }

    #[test]
    fn aggregate_validation() {
        let schema = ProbSchema::new(
            vec![("id", ColumnType::Int, false), ("x", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let rel = Relation::new("t", schema);
        assert!(sum_exact(&rel, "id").is_err());
        assert!(sum_exact(&rel, "nope").is_err());
    }
}

//! Discrete sampling pdfs — the paper's `Discrete` representation: an
//! explicit list of value–probability pairs.
//!
//! This is both (a) the native representation for genuinely discrete
//! uncertain attributes (data cleaning alternatives, categorical data) and
//! (b) the sampled approximation of a continuous pdf that tuple-uncertainty
//! models are forced into, whose accuracy/size trade-off Figure 4 measures.

use crate::error::{PdfError, Result};
use crate::interval::{Interval, RegionSet};
use serde::{Deserialize, Serialize};

/// A finite value–probability list, sorted by value, with total mass <= 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscretePdf {
    points: Vec<(f64, f64)>,
}

impl DiscretePdf {
    /// Builds a discrete pdf from `(value, probability)` pairs. Duplicate
    /// values are merged by summing their probabilities; zero-probability
    /// points are dropped. Total mass must not exceed `1 + 1e-9`.
    pub fn from_points(mut points: Vec<(f64, f64)>) -> Result<Self> {
        for &(v, p) in &points {
            if !v.is_finite() || !p.is_finite() || p < 0.0 {
                return Err(PdfError::InvalidParameter(format!(
                    "discrete point ({v}, {p}) must be finite with p >= 0"
                )));
            }
        }
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(points.len());
        for (v, p) in points {
            if p == 0.0 {
                continue;
            }
            match merged.last_mut() {
                Some(last) if last.0 == v => last.1 += p,
                _ => merged.push((v, p)),
            }
        }
        let total: f64 = merged.iter().map(|(_, p)| p).sum();
        if total > 1.0 + 1e-9 {
            return Err(PdfError::InvalidParameter(format!(
                "total discrete mass {total} exceeds 1"
            )));
        }
        Ok(DiscretePdf { points: merged })
    }

    /// Reassembles a discrete pdf from already sorted/merged points (used by
    /// the columnar batch arena to reconstruct records bit-for-bit — unlike
    /// [`DiscretePdf::from_points`], zero-probability points produced by
    /// `scale(0.0)` are preserved, matching the scalar operators).
    pub(crate) fn from_sorted_points_unchecked(points: Vec<(f64, f64)>) -> Self {
        DiscretePdf { points }
    }

    /// A certain (probability-1) single value.
    pub fn certain(v: f64) -> Self {
        DiscretePdf { points: vec![(v, 1.0)] }
    }

    /// The empty (vacuous, zero-mass) discrete pdf.
    pub fn vacuous() -> Self {
        DiscretePdf { points: Vec::new() }
    }

    /// The sorted `(value, probability)` pairs.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of support points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the pdf has no support points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total probability mass (< 1 for partial pdfs).
    pub fn mass(&self) -> f64 {
        self.points.iter().map(|(_, p)| p).sum()
    }

    /// Probability mass exactly at `v`.
    pub fn prob_at(&self, v: f64) -> f64 {
        match self.points.binary_search_by(|(x, _)| x.partial_cmp(&v).unwrap()) {
            Ok(i) => self.points[i].1,
            Err(_) => 0.0,
        }
    }

    /// Unnormalized cumulative `P(X <= x and tuple exists)`.
    pub fn cumulative(&self, x: f64) -> f64 {
        self.points.iter().take_while(|(v, _)| *v <= x).map(|(_, p)| p).sum()
    }

    /// Probability mass on the closed interval.
    pub fn range_prob(&self, iv: &Interval) -> f64 {
        let start = self.points.partition_point(|(v, _)| *v < iv.lo);
        self.points[start..].iter().take_while(|(v, _)| *v <= iv.hi).map(|(_, p)| p).sum()
    }

    /// Smallest and largest support values, or `None` when vacuous.
    pub fn support(&self) -> Option<Interval> {
        Some(Interval::new(self.points.first()?.0, self.points.last()?.0))
    }

    /// Applies a floor: drops every point inside `region` (their possible
    /// worlds fail the selection, so the tuple does not exist there).
    pub fn floor_region(&self, region: &RegionSet) -> DiscretePdf {
        self.filter(|v| !region.contains(v))
    }

    /// The mass of `floor_region(r₁).floor_region(r₂)…` over `regions`,
    /// summed over the same surviving points in the same order.
    pub(crate) fn floored_mass<'r>(
        &self,
        regions: impl Iterator<Item = &'r RegionSet> + Clone,
    ) -> f64 {
        self.points
            .iter()
            .filter(|(v, _)| !regions.clone().any(|r| r.contains(*v)))
            .map(|(_, p)| p)
            .sum()
    }

    /// Retains only the points satisfying `keep` (generalized floor for
    /// predicates that are not interval-shaped).
    pub fn filter(&self, mut keep: impl FnMut(f64) -> bool) -> DiscretePdf {
        DiscretePdf { points: self.points.iter().filter(|(v, _)| keep(*v)).copied().collect() }
    }

    /// Expected value conditioned on existence; `None` when vacuous.
    pub fn expected_value(&self) -> Option<f64> {
        let mass = self.mass();
        if mass <= 0.0 {
            return None;
        }
        Some(self.points.iter().map(|(v, p)| v * p).sum::<f64>() / mass)
    }

    /// Rescales all probabilities by `factor` in `[0, 1]`.
    pub fn scale(&self, factor: f64) -> DiscretePdf {
        debug_assert!((0.0..=1.0 + 1e-12).contains(&factor));
        DiscretePdf { points: self.points.iter().map(|(v, p)| (*v, p * factor)).collect() }
    }
}

impl std::fmt::Display for DiscretePdf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Discrete(")?;
        for (i, (v, p)) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}:{p}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_a() -> DiscretePdf {
        // Table II, attribute a of tuple 1: Discrete(0:0.1, 1:0.9)
        DiscretePdf::from_points(vec![(0.0, 0.1), (1.0, 0.9)]).unwrap()
    }

    #[test]
    fn constructor_merges_and_validates() {
        let d = DiscretePdf::from_points(vec![(2.0, 0.2), (1.0, 0.3), (2.0, 0.1)]).unwrap();
        assert_eq!(d.len(), 2);
        assert!((d.prob_at(1.0) - 0.3).abs() < 1e-12);
        assert!((d.prob_at(2.0) - 0.3).abs() < 1e-12);
        assert!(DiscretePdf::from_points(vec![(0.0, 0.6), (1.0, 0.6)]).is_err());
        assert!(DiscretePdf::from_points(vec![(f64::NAN, 0.5)]).is_err());
        assert!(DiscretePdf::from_points(vec![(0.0, -0.1)]).is_err());
        // Zero-probability points are dropped.
        let d = DiscretePdf::from_points(vec![(0.0, 0.0), (1.0, 1.0)]).unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn mass_and_prob_at() {
        let d = paper_a();
        assert!((d.mass() - 1.0).abs() < 1e-12);
        assert_eq!(d.prob_at(0.0), 0.1);
        assert_eq!(d.prob_at(1.0), 0.9);
        assert_eq!(d.prob_at(0.5), 0.0);
    }

    #[test]
    fn cumulative_and_range() {
        let d = DiscretePdf::from_points(vec![(1.0, 0.2), (2.0, 0.3), (5.0, 0.5)]).unwrap();
        assert_eq!(d.cumulative(0.0), 0.0);
        assert!((d.cumulative(2.0) - 0.5).abs() < 1e-12);
        assert!((d.cumulative(10.0) - 1.0).abs() < 1e-12);
        assert!((d.range_prob(&Interval::new(2.0, 5.0)) - 0.8).abs() < 1e-12);
        assert!((d.range_prob(&Interval::new(1.5, 1.9))).abs() < 1e-12);
    }

    #[test]
    fn floor_drops_points() {
        let d = paper_a();
        let f = d.floor_region(&RegionSet::from_interval(Interval::at_most(0.5)));
        assert_eq!(f.points(), &[(1.0, 0.9)]);
        assert!((f.mass() - 0.9).abs() < 1e-12, "partial pdf after floor");
        // Flooring everything yields the vacuous pdf.
        let all = d.floor_region(&RegionSet::all());
        assert!(all.is_empty());
        assert!(all.support().is_none());
        assert!(all.expected_value().is_none());
    }

    #[test]
    fn filter_generalizes_floor() {
        let d = DiscretePdf::from_points(vec![(1.0, 0.25), (2.0, 0.25), (3.0, 0.5)]).unwrap();
        let odd = d.filter(|v| (v as i64) % 2 == 1);
        assert_eq!(odd.points(), &[(1.0, 0.25), (3.0, 0.5)]);
    }

    #[test]
    fn expected_value_conditions_on_existence() {
        let d = DiscretePdf::from_points(vec![(0.0, 0.25), (4.0, 0.25)]).unwrap();
        // Partial pdf, mass 0.5; conditional expectation is 2.
        assert!((d.expected_value().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn certain_and_vacuous() {
        let c = DiscretePdf::certain(7.0);
        assert_eq!(c.mass(), 1.0);
        assert_eq!(c.prob_at(7.0), 1.0);
        assert!(DiscretePdf::vacuous().is_empty());
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(paper_a().to_string(), "Discrete(0:0.1, 1:0.9)");
    }
}

//! Equi-width histogram pdfs — the paper's generic `Hist` representation for
//! non-standard continuous distributions.
//!
//! A histogram stores the probability **mass** per bucket; within a bucket
//! the density is uniform. Partial pdfs (total mass < 1) arise naturally
//! from floors. Because the density is piecewise-constant, a range query can
//! interpolate inside a bucket, which is why histograms beat same-size
//! discrete samplings in the paper's Figure 4.

use crate::error::{PdfError, Result};
use crate::interval::{Interval, RegionSet};
use serde::{Deserialize, Serialize};

/// An equi-width histogram over `[lo, lo + width * masses.len()]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    width: f64,
    masses: Vec<f64>,
}

impl Histogram {
    /// Builds a histogram from bucket masses. Masses must be non-negative
    /// and sum to at most `1 + 1e-9` (partial pdfs are allowed).
    pub fn from_masses(lo: f64, width: f64, masses: Vec<f64>) -> Result<Self> {
        if !lo.is_finite() || !width.is_finite() || width <= 0.0 {
            return Err(PdfError::InvalidParameter(format!(
                "histogram requires finite lo and width > 0, got ({lo}, {width})"
            )));
        }
        if masses.is_empty() {
            return Err(PdfError::InvalidParameter("histogram needs >= 1 bucket".into()));
        }
        let mut total = 0.0;
        for &m in &masses {
            if !m.is_finite() || m < 0.0 {
                return Err(PdfError::InvalidParameter(format!(
                    "bucket masses must be finite and >= 0, got {m}"
                )));
            }
            total += m;
        }
        if total > 1.0 + 1e-9 {
            return Err(PdfError::InvalidParameter(format!(
                "total histogram mass {total} exceeds 1"
            )));
        }
        Ok(Histogram { lo, width, masses })
    }

    /// Reassembles a histogram from parts already validated by
    /// [`Histogram::from_masses`] (used by the columnar batch arena to
    /// reconstruct records bit-for-bit, including zero-probability buckets).
    pub(crate) fn from_parts_unchecked(lo: f64, width: f64, masses: Vec<f64>) -> Self {
        Histogram { lo, width, masses }
    }

    /// Builds a histogram by binning an arbitrary cdf over `[lo, hi]` into
    /// `bins` equi-width buckets; bucket mass is the exact cdf difference.
    pub fn from_cdf(lo: f64, hi: f64, bins: usize, cdf: impl Fn(f64) -> f64) -> Result<Self> {
        if bins == 0 || lo >= hi || lo.is_nan() || hi.is_nan() {
            return Err(PdfError::InvalidParameter(format!(
                "from_cdf requires bins >= 1 and lo < hi, got ({lo}, {hi}, {bins})"
            )));
        }
        let width = (hi - lo) / bins as f64;
        let mut masses = Vec::with_capacity(bins);
        let mut prev = cdf(lo);
        for i in 1..=bins {
            let x = if i == bins { hi } else { lo + i as f64 * width };
            let c = cdf(x);
            masses.push((c - prev).max(0.0));
            prev = c;
        }
        Histogram::from_masses(lo, width, masses)
    }

    /// Lower edge of the first bucket.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the last bucket.
    pub fn hi(&self) -> f64 {
        self.lo + self.width * self.masses.len() as f64
    }

    /// Bucket width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Number of buckets.
    pub fn bins(&self) -> usize {
        self.masses.len()
    }

    /// Bucket masses.
    pub fn masses(&self) -> &[f64] {
        &self.masses
    }

    /// Total probability mass (<= 1; < 1 for partial pdfs).
    pub fn mass(&self) -> f64 {
        self.masses.iter().sum()
    }

    /// Support interval of the histogram grid.
    pub fn support(&self) -> Interval {
        Interval::new(self.lo, self.hi())
    }

    /// Probability density at `x` (uniform within each bucket).
    pub fn density(&self, x: f64) -> f64 {
        if x < self.lo || x >= self.hi() {
            // Closed upper edge belongs to the last bucket.
            if x == self.hi() {
                return self.masses[self.masses.len() - 1] / self.width;
            }
            return 0.0;
        }
        let idx = (((x - self.lo) / self.width) as usize).min(self.masses.len() - 1);
        self.masses[idx] / self.width
    }

    /// Unnormalized cumulative `P(X <= x and tuple exists)`,
    /// piecewise-linear across buckets.
    pub fn cumulative(&self, x: f64) -> f64 {
        if x <= self.lo {
            return 0.0;
        }
        if x >= self.hi() {
            return self.mass();
        }
        let pos = (x - self.lo) / self.width;
        let idx = (pos as usize).min(self.masses.len() - 1);
        let frac = pos - idx as f64;
        self.masses[..idx].iter().sum::<f64>() + self.masses[idx] * frac
    }

    /// Probability mass on `[iv.lo, iv.hi]`, interpolating partial buckets.
    pub fn range_prob(&self, iv: &Interval) -> f64 {
        (self.cumulative(iv.hi) - self.cumulative(iv.lo)).max(0.0)
    }

    /// Applies a floor: zeroes the density on `region`, scaling partially
    /// overlapped buckets by the surviving fraction of their width.
    pub fn floor_region(&self, region: &RegionSet) -> Histogram {
        let mut masses = self.masses.clone();
        for (i, m) in masses.iter_mut().enumerate() {
            if *m == 0.0 {
                continue;
            }
            *m *= self.kept_fraction(i, region);
        }
        Histogram { lo: self.lo, width: self.width, masses }
    }

    /// The share of bucket `i`'s width outside `region`: the factor
    /// [`Histogram::floor_region`] scales a non-empty bucket by.
    fn kept_fraction(&self, i: usize, region: &RegionSet) -> f64 {
        let b_lo = self.lo + i as f64 * self.width;
        let bucket = Interval::new(b_lo, b_lo + self.width);
        let mut removed = 0.0;
        for riv in region.intervals() {
            if let Some(x) = bucket.intersect(riv) {
                removed += x.length();
            }
        }
        ((self.width - removed) / self.width).clamp(0.0, 1.0)
    }

    /// The mass of `floor_region(r₁).floor_region(r₂)…` over `regions`, in
    /// order, computed operation for operation without the copies.
    pub(crate) fn floored_mass<'r>(
        &self,
        regions: impl Iterator<Item = &'r RegionSet> + Clone,
    ) -> f64 {
        self.masses
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                regions
                    .clone()
                    .fold(m, |m, r| if m == 0.0 { m } else { m * self.kept_fraction(i, r) })
            })
            .sum()
    }

    /// Expected value of `X` conditioned on existence; `None` when the pdf
    /// is vacuous (zero mass). Uses bucket midpoints.
    pub fn expected_value(&self) -> Option<f64> {
        let mass = self.mass();
        if mass <= 0.0 {
            return None;
        }
        let num: f64 = self
            .masses
            .iter()
            .enumerate()
            .map(|(i, m)| m * (self.lo + (i as f64 + 0.5) * self.width))
            .sum();
        Some(num / mass)
    }

    /// Rescales all bucket masses by `factor` (used by product and
    /// existence-probability arithmetic). Factor must be in `[0, 1]`.
    pub fn scale(&self, factor: f64) -> Histogram {
        debug_assert!((0.0..=1.0 + 1e-12).contains(&factor));
        Histogram {
            lo: self.lo,
            width: self.width,
            masses: self.masses.iter().map(|m| m * factor).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Histogram {
        // 4 buckets over [0, 4], masses .1 .2 .3 .4
        Histogram::from_masses(0.0, 1.0, vec![0.1, 0.2, 0.3, 0.4]).unwrap()
    }

    #[test]
    fn constructor_validation() {
        assert!(Histogram::from_masses(0.0, 0.0, vec![1.0]).is_err());
        assert!(Histogram::from_masses(0.0, 1.0, vec![]).is_err());
        assert!(Histogram::from_masses(0.0, 1.0, vec![-0.1]).is_err());
        assert!(Histogram::from_masses(0.0, 1.0, vec![0.7, 0.7]).is_err());
        assert!(Histogram::from_masses(0.0, 1.0, vec![0.5, 0.3]).is_ok());
    }

    #[test]
    fn geometry() {
        let h = simple();
        assert_eq!(h.hi(), 4.0);
        assert_eq!(h.bins(), 4);
        assert!((h.mass() - 1.0).abs() < 1e-12);
        assert_eq!(h.support(), Interval::new(0.0, 4.0));
    }

    #[test]
    fn density_is_piecewise_uniform() {
        let h = simple();
        assert!((h.density(0.5) - 0.1).abs() < 1e-12);
        assert!((h.density(3.9) - 0.4).abs() < 1e-12);
        assert!((h.density(4.0) - 0.4).abs() < 1e-12, "closed upper edge");
        assert_eq!(h.density(-0.1), 0.0);
        assert_eq!(h.density(4.1), 0.0);
    }

    #[test]
    fn cumulative_interpolates() {
        let h = simple();
        assert_eq!(h.cumulative(0.0), 0.0);
        assert!((h.cumulative(1.0) - 0.1).abs() < 1e-12);
        assert!((h.cumulative(1.5) - 0.2).abs() < 1e-12);
        assert!((h.cumulative(4.0) - 1.0).abs() < 1e-12);
        assert!((h.cumulative(100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn range_prob_partial_buckets() {
        let h = simple();
        let p = h.range_prob(&Interval::new(0.5, 2.5));
        // half of .1 + all of .2 + half of .3
        assert!((p - (0.05 + 0.2 + 0.15)).abs() < 1e-12);
    }

    #[test]
    fn from_cdf_matches_source() {
        let cdf = |x: f64| (x / 4.0).clamp(0.0, 1.0); // uniform on [0,4]
        let h = Histogram::from_cdf(0.0, 4.0, 8, cdf).unwrap();
        assert!((h.mass() - 1.0).abs() < 1e-12);
        for &x in &[0.3, 1.7, 2.2, 3.9] {
            assert!(
                (h.cumulative(x) - cdf(x)).abs() < 1e-12,
                "piecewise-linear cdf is exact for uniform"
            );
        }
    }

    #[test]
    fn floor_scales_partial_overlap() {
        let h = simple();
        // Zero everything above x = 2.5: bucket 2 keeps half, bucket 3 gone.
        let f = h.floor_region(&RegionSet::from_interval(Interval::at_least(2.5)));
        assert!((f.mass() - (0.1 + 0.2 + 0.15)).abs() < 1e-12);
        assert_eq!(f.density(3.0), 0.0);
        // NOTE: histogram floors scale partially-overlapped buckets by the
        // surviving width fraction, so re-flooring the same region scales
        // again — a documented consequence of the piecewise-uniform
        // approximation (symbolic pdfs keep floors exactly instead).
        let f2 = f.floor_region(&RegionSet::from_interval(Interval::at_least(2.5)));
        assert!(f2.mass() < f.mass());
        assert!((f2.mass() - (0.1 + 0.2 + 0.075)).abs() < 1e-12);
    }

    #[test]
    fn floor_order_independence() {
        let h = simple();
        let r1 = RegionSet::from_interval(Interval::new(0.0, 1.2));
        let r2 = RegionSet::from_interval(Interval::new(3.1, 4.0));
        let a = h.floor_region(&r1).floor_region(&r2);
        let b = h.floor_region(&r2).floor_region(&r1);
        let c = h.floor_region(&r1.union(&r2));
        for (x, y) in a.masses().iter().zip(b.masses()) {
            assert!((x - y).abs() < 1e-12);
        }
        for (x, y) in a.masses().iter().zip(c.masses()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn expected_value_uses_midpoints() {
        let h = Histogram::from_masses(0.0, 2.0, vec![0.5, 0.5]).unwrap();
        // midpoints 1 and 3, equal mass
        assert!((h.expected_value().unwrap() - 2.0).abs() < 1e-12);
        let vac = h.scale(0.0);
        assert!(vac.expected_value().is_none());
    }

    #[test]
    fn scale_preserves_shape() {
        let h = simple().scale(0.5);
        assert!((h.mass() - 0.5).abs() < 1e-12);
        assert!((h.density(3.5) - 0.2).abs() < 1e-12);
    }
}

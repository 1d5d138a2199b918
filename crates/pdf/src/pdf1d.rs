//! The unified one-dimensional (partial) pdf: a symbolic distribution with
//! symbolic floors, a histogram, or a discrete sampling.
//!
//! This is the paper's attribute-level pdf value. Floors applied to a
//! symbolic distribution are kept **symbolically** as an interval-set
//! attached to the distribution (`[Gaus(5,1), Floor{[5,inf]}]`, Section
//! III-A), so subsequent operations stay exact; histograms and discrete
//! samplings absorb floors directly into their buckets/points.

use crate::discrete::DiscretePdf;
use crate::error::{PdfError, Result};
use crate::histogram::Histogram;
use crate::interval::{Interval, RegionSet};
use crate::symbolic::Symbolic;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Mass below which a pdf is considered vacuous (the tuple cannot exist).
pub const VACUOUS_EPS: f64 = 1e-12;

/// Tail mass discarded when a symbolic distribution with unbounded support
/// must be materialized onto a bounded grid.
pub const TAIL_EPS: f64 = 1e-9;

/// A one-dimensional, possibly partial, probability distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Pdf1 {
    /// A symbolic distribution with an attached floored-out region and an
    /// existence scale factor (`scale` multiplies all densities; floors from
    /// *other* attributes in the same dependency set shrink it).
    Symbolic { dist: Symbolic, floor: RegionSet, scale: f64 },
    /// A generic histogram.
    Histogram(Histogram),
    /// A discrete value–probability list.
    Discrete(DiscretePdf),
}

impl Pdf1 {
    /// Wraps a symbolic distribution as an un-floored, full-mass pdf.
    pub fn symbolic(dist: Symbolic) -> Self {
        Pdf1::Symbolic { dist, floor: RegionSet::empty(), scale: 1.0 }
    }

    /// Shorthand: `Gaus(mean, variance)`.
    pub fn gaussian(mean: f64, variance: f64) -> Result<Self> {
        Ok(Pdf1::symbolic(Symbolic::gaussian(mean, variance)?))
    }

    /// Shorthand: `Unif(lo, hi)`.
    pub fn uniform(lo: f64, hi: f64) -> Result<Self> {
        Ok(Pdf1::symbolic(Symbolic::uniform(lo, hi)?))
    }

    /// Shorthand: a discrete pdf from points.
    pub fn discrete(points: Vec<(f64, f64)>) -> Result<Self> {
        Ok(Pdf1::Discrete(DiscretePdf::from_points(points)?))
    }

    /// Shorthand: a histogram pdf from bucket masses.
    pub fn histogram(lo: f64, width: f64, masses: Vec<f64>) -> Result<Self> {
        Ok(Pdf1::Histogram(Histogram::from_masses(lo, width, masses)?))
    }

    /// A certain (deterministic) value as a probability-1 point mass.
    pub fn certain(v: f64) -> Self {
        Pdf1::Discrete(DiscretePdf::certain(v))
    }

    /// Total probability mass; < 1 means the tuple only exists with that
    /// probability (partial pdf, closed-world assumption — Section II-B).
    pub fn mass(&self) -> f64 {
        match self {
            Pdf1::Symbolic { dist, floor, scale } => {
                let floored: f64 = floor.intervals().iter().map(|iv| dist.interval_prob(iv)).sum();
                scale * (1.0 - floored).max(0.0)
            }
            Pdf1::Histogram(h) => h.mass(),
            Pdf1::Discrete(d) => d.mass(),
        }
    }

    /// The mass of `self` floored by the regions of `floors` tagged `key`,
    /// in order: `floor_region(r₁).floor_region(r₂)….mass()` operation for
    /// operation, hence bit for bit, but without building the floored
    /// pdfs. `None` when a symbolic floor is not sorted (see
    /// [`crate::interval`]); nothing this crate builds is.
    pub(crate) fn floored_mass(&self, floors: &[(usize, &RegionSet)], key: usize) -> Option<f64> {
        let regions = floors.iter().filter(move |&&(k, _)| k == key).map(|&(_, r)| r);
        match self {
            Pdf1::Symbolic { dist, floor, scale } => {
                // `Sum for f64` folds from -0.0; so does this.
                let mut floored = -0.0;
                let mut add = |iv: Interval| floored += dist.interval_prob(&iv);
                crate::interval::for_each_union_interval(floor, floors, key, &mut add)
                    .then(|| scale * (1.0 - floored).max(0.0))
            }
            Pdf1::Histogram(h) => Some(h.floored_mass(regions)),
            Pdf1::Discrete(d) => Some(d.floored_mass(regions)),
        }
    }

    /// Whether effectively no possible world retains this tuple.
    pub fn is_vacuous(&self) -> bool {
        self.mass() < VACUOUS_EPS
    }

    /// Whether the underlying value domain is discrete.
    pub fn is_discrete(&self) -> bool {
        match self {
            Pdf1::Symbolic { dist, .. } => dist.is_discrete(),
            Pdf1::Histogram(_) => false,
            Pdf1::Discrete(_) => true,
        }
    }

    /// Density (or point mass) at `x`, honoring floors.
    pub fn density(&self, x: f64) -> f64 {
        match self {
            Pdf1::Symbolic { dist, floor, scale } => {
                if floor.contains(x) {
                    0.0
                } else {
                    scale * dist.density(x)
                }
            }
            Pdf1::Histogram(h) => h.density(x),
            Pdf1::Discrete(d) => d.prob_at(x),
        }
    }

    /// Unnormalized cumulative `P(X <= x and tuple exists)`.
    pub fn cumulative(&self, x: f64) -> f64 {
        match self {
            Pdf1::Symbolic { dist, floor, scale } => {
                let mut c = dist.cdf(x);
                for iv in floor.intervals() {
                    if iv.lo > x {
                        break;
                    }
                    let clipped = Interval::new(iv.lo, iv.hi.min(x));
                    c -= dist.interval_prob(&clipped);
                }
                scale * c.max(0.0)
            }
            Pdf1::Histogram(h) => h.cumulative(x),
            Pdf1::Discrete(d) => d.cumulative(x),
        }
    }

    /// Probability that the value lies in the closed interval (and the tuple
    /// exists): the paper's range-query primitive.
    pub fn range_prob(&self, iv: &Interval) -> f64 {
        match self {
            Pdf1::Symbolic { dist, floor, scale } => {
                let mut p = dist.interval_prob(iv);
                for f in floor.intervals() {
                    if let Some(x) = f.intersect(iv) {
                        p -= dist.interval_prob(&x);
                    }
                }
                scale * p.max(0.0)
            }
            Pdf1::Histogram(h) => h.range_prob(iv),
            Pdf1::Discrete(d) => d.range_prob(iv),
        }
    }

    /// Applies a floor over `region` (Section III-A `floor(f, F)`):
    /// densities inside `region` become zero; the result is a partial pdf.
    /// Symbolic pdfs keep the floor symbolically; histograms and discrete
    /// pdfs absorb it.
    pub fn floor_region(&self, region: &RegionSet) -> Pdf1 {
        match self {
            Pdf1::Symbolic { dist, floor, scale } => {
                Pdf1::Symbolic { dist: *dist, floor: floor.union(region), scale: *scale }
            }
            Pdf1::Histogram(h) => Pdf1::Histogram(h.floor_region(region)),
            Pdf1::Discrete(d) => Pdf1::Discrete(d.floor_region(region)),
        }
    }

    /// Multiplies all densities by `factor` in `[0, 1]` — used when floors
    /// on *sibling* attributes reduce the joint existence probability.
    pub fn scale(&self, factor: f64) -> Pdf1 {
        match self {
            Pdf1::Symbolic { dist, floor, scale } => {
                Pdf1::Symbolic { dist: *dist, floor: floor.clone(), scale: scale * factor }
            }
            Pdf1::Histogram(h) => Pdf1::Histogram(h.scale(factor)),
            Pdf1::Discrete(d) => Pdf1::Discrete(d.scale(factor)),
        }
    }

    /// Expected value conditioned on existence. For floored symbolic pdfs
    /// the expectation is computed on a materialized grid.
    pub fn expected_value(&self) -> Option<f64> {
        match self {
            Pdf1::Symbolic { dist, floor, scale } => {
                if *scale <= 0.0 {
                    return None;
                }
                if floor.is_empty() {
                    return Some(dist.mean());
                }
                if dist.is_discrete() {
                    let pts = dist.enumerate_discrete(TAIL_EPS)?;
                    let d = DiscretePdf::from_points(pts).ok()?;
                    return d.floor_region(floor).expected_value();
                }
                // Materialize onto a fine histogram and floor it.
                let h = self.to_histogram(EXPECTATION_GRID)?;
                h.expected_value()
            }
            Pdf1::Histogram(h) => h.expected_value(),
            Pdf1::Discrete(d) => d.expected_value(),
        }
    }

    /// A bounded interval covering the (effective) support, or `None` for a
    /// vacuous discrete pdf.
    pub fn effective_support(&self) -> Option<Interval> {
        match self {
            Pdf1::Symbolic { dist, .. } => Some(dist.effective_support(TAIL_EPS)),
            Pdf1::Histogram(h) => Some(h.support()),
            Pdf1::Discrete(d) => d.support(),
        }
    }

    /// Materializes this pdf as an equi-width histogram with `bins` buckets
    /// over the effective support, preserving floors and partial mass.
    /// Returns `None` for a vacuous pdf with no support.
    pub fn to_histogram(&self, bins: usize) -> Option<Histogram> {
        let support = self.effective_support()?;
        let (lo, hi) = if support.is_point() {
            (support.lo - 0.5, support.hi + 0.5)
        } else {
            (support.lo, support.hi)
        };
        // A discrete atom exactly at `lo` is already included in cdf(lo) and
        // would otherwise be lost; nudge the left edge outward.
        let lo = if self.is_discrete() { lo - ((hi - lo) * 1e-6 + 1e-9) } else { lo };
        match self {
            Pdf1::Symbolic { dist, floor, scale } => {
                let base = Histogram::from_cdf(lo, hi, bins, |x| dist.cdf(x)).ok()?;
                let mut h = base.floor_region(floor);
                if *scale != 1.0 {
                    h = h.scale(*scale);
                }
                Some(h)
            }
            Pdf1::Histogram(h) => {
                // Re-bin by exact cdf interpolation.
                Histogram::from_cdf(lo, hi, bins, |x| h.cumulative(x)).ok()
            }
            Pdf1::Discrete(d) => {
                if d.is_empty() {
                    return None;
                }
                Histogram::from_cdf(lo, hi, bins, |x| d.cumulative(x)).ok()
            }
        }
    }

    /// Materializes this pdf as an `n`-point discrete sampling: the support
    /// is split into `n` equal-width cells and each cell's mass is placed at
    /// its midpoint. This is the approximation a pure tuple-uncertainty
    /// model is forced into (Figure 4's `Discrete` series).
    pub fn to_discrete(&self, n: usize) -> Option<DiscretePdf> {
        if n == 0 {
            return None;
        }
        if let Pdf1::Discrete(d) = self {
            if d.len() <= n {
                return Some(d.clone());
            }
        }
        let support = self.effective_support()?;
        if support.is_point() {
            return DiscretePdf::from_points(vec![(support.lo, self.mass())]).ok();
        }
        let width = support.length() / n as f64;
        // One shared edge array so adjacent cells agree bit-for-bit on their
        // boundary: cell i = (edges[i], edges[i+1]] (first cell closed at
        // the left, last edge pinned to the exact support bound). Without a
        // shared edge, independently rounded `lo + width` values can
        // overlap by one ulp and double-count an atom sitting exactly on a
        // boundary — or drop one at the support maximum.
        let mut edges = Vec::with_capacity(n + 1);
        for i in 0..=n {
            edges.push(support.lo + i as f64 * width);
        }
        edges[n] = edges[n].max(support.hi);
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            let cell_lo = if i == 0 { edges[0] } else { edges[i].next_up() };
            let cell = Interval::new(cell_lo.min(edges[i + 1]), edges[i + 1]);
            let mass = self.range_prob(&cell);
            if mass > 0.0 {
                pts.push((edges[i] + width / 2.0, mass));
            }
        }
        DiscretePdf::from_points(pts).ok()
    }

    /// The explicit discrete pdf when the domain is genuinely discrete:
    /// borrowed from a `Discrete` pdf, enumerated from a discrete symbolic
    /// one (exactly up to `TAIL_EPS` tail mass). Returns an error for
    /// continuous pdfs.
    pub fn enumerate(&self) -> Result<Cow<'_, DiscretePdf>> {
        match self {
            Pdf1::Discrete(d) => Ok(Cow::Borrowed(d)),
            Pdf1::Symbolic { dist, floor, scale } if dist.is_discrete() => {
                let pts = dist.enumerate_discrete(TAIL_EPS).expect("discrete symbolic enumerates");
                let d = DiscretePdf::from_points(pts)?;
                Ok(Cow::Owned(d.floor_region(floor).scale(*scale)))
            }
            _ => Err(PdfError::IncompatibleOperands("cannot enumerate a continuous pdf".into())),
        }
    }

    /// Conditional quantile: the smallest `x` with
    /// `P(X <= x | tuple exists) >= q`. Returns `None` for vacuous pdfs,
    /// for `q` outside `[0, 1]` (or NaN), and for unbounded results
    /// (`q = 0` / `q = 1` over an unbounded symbolic support).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        let mass = self.mass();
        if mass < VACUOUS_EPS {
            return None;
        }
        match self {
            Pdf1::Symbolic { dist, floor, .. } if floor.is_empty() => {
                let x = dist.quantile(q);
                x.is_finite().then_some(x)
            }
            // Floored discrete symbolic: enumerate exactly (mirrors
            // expected_value's path) instead of smearing onto a grid.
            Pdf1::Symbolic { dist, floor, scale } if dist.is_discrete() => {
                let pts = dist.enumerate_discrete(TAIL_EPS)?;
                let d = DiscretePdf::from_points(pts).ok()?;
                Pdf1::Discrete(d.floor_region(floor).scale(*scale)).quantile(q)
            }
            Pdf1::Discrete(d) => {
                let target = q * mass;
                let mut acc = 0.0;
                for &(v, p) in d.points() {
                    acc += p;
                    // Relative slack only: an absolute epsilon would let
                    // sub-epsilon atoms satisfy quantiles above their cdf.
                    if acc >= target * (1.0 - 1e-12) {
                        return Some(v);
                    }
                }
                d.points().last().map(|&(v, _)| v)
            }
            // Plain histograms: invert the piecewise-linear cumulative
            // directly instead of bisecting.
            Pdf1::Histogram(h) => {
                let target = q * mass;
                let mut acc = 0.0;
                for (i, &m) in h.masses().iter().enumerate() {
                    if acc + m >= target && m > 0.0 {
                        let frac = ((target - acc) / m).clamp(0.0, 1.0);
                        return Some(h.lo() + (i as f64 + frac) * h.width());
                    }
                    acc += m;
                }
                Some(h.hi())
            }
            // Histogram and floored symbolic: bisect the cumulative.
            _ => {
                let support = self.effective_support()?;
                let target = q * mass;
                let (mut lo, mut hi) = (support.lo, support.hi);
                for _ in 0..200 {
                    let mid = (lo + hi) / 2.0;
                    if self.cumulative(mid) < target {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                    if hi - lo < 1e-12 * (1.0 + hi.abs()) {
                        break;
                    }
                }
                Some(hi)
            }
        }
    }

    /// Variance of `X` conditioned on existence; `None` when vacuous.
    pub fn variance(&self) -> Option<f64> {
        let mass = self.mass();
        if mass < VACUOUS_EPS {
            return None;
        }
        match self {
            Pdf1::Symbolic { dist, floor, .. } if floor.is_empty() => Some(dist.variance()),
            Pdf1::Symbolic { dist, floor, scale } if dist.is_discrete() => {
                let pts = dist.enumerate_discrete(TAIL_EPS)?;
                let d = DiscretePdf::from_points(pts).ok()?;
                Pdf1::Discrete(d.floor_region(floor).scale(*scale)).variance()
            }
            Pdf1::Discrete(d) => {
                let mean = d.expected_value()?;
                Some(
                    d.points().iter().map(|(v, p)| p * (v - mean) * (v - mean)).sum::<f64>() / mass,
                )
            }
            Pdf1::Histogram(h) => Some(histogram_variance(h)?),
            _ => Some(histogram_variance(&self.to_histogram(EXPECTATION_GRID)?)?),
        }
    }

    /// The distribution **conditioned on existence**: a mass-1 pdf with the
    /// same shape. Floored symbolic pdfs are materialized onto a histogram
    /// with `bins` buckets first (the model itself never renormalizes —
    /// partial mass *is* the existence probability — so this is a terminal
    /// statistic for presentation, not an operator input).
    pub fn normalized(&self, bins: usize) -> Result<Pdf1> {
        let mass = self.mass();
        if mass < VACUOUS_EPS {
            return Err(PdfError::VacuousResult("cannot normalize a vacuous pdf".into()));
        }
        if (mass - 1.0).abs() < 1e-12 {
            return Ok(self.clone());
        }
        match self {
            Pdf1::Discrete(d) => {
                let pts = d.points().iter().map(|&(v, p)| (v, p / mass)).collect();
                Pdf1::discrete(pts)
            }
            Pdf1::Histogram(h) => {
                let masses = h.masses().iter().map(|m| m / mass).collect();
                Pdf1::histogram(h.lo(), h.width(), masses)
            }
            // A scale-only partial (no floor) normalizes exactly back to
            // the symbolic distribution.
            Pdf1::Symbolic { dist, floor, .. } if floor.is_empty() => Ok(Pdf1::symbolic(*dist)),
            Pdf1::Symbolic { dist, .. } if dist.is_discrete() => {
                let d = self.enumerate()?;
                let pts = d.points().iter().map(|&(v, p)| (v, p / mass)).collect();
                Pdf1::discrete(pts)
            }
            Pdf1::Symbolic { .. } => {
                let h = self
                    .to_histogram(bins)
                    .ok_or_else(|| PdfError::VacuousResult("no support".into()))?;
                let masses = h.masses().iter().map(|m| m / mass).collect();
                Pdf1::histogram(h.lo(), h.width(), masses)
            }
        }
    }

    /// Serialized-size proxy: the number of `f64` parameters this pdf stores.
    /// Symbolic pdfs are constant-size; approximations grow linearly — this
    /// drives the I/O difference in Figure 5.
    pub fn param_count(&self) -> usize {
        match self {
            Pdf1::Symbolic { floor, .. } => 3 + 2 * floor.intervals().len(),
            Pdf1::Histogram(h) => 2 + h.bins(),
            Pdf1::Discrete(d) => 2 * d.len(),
        }
    }
}

/// Grid resolution used when a floored symbolic pdf must be materialized to
/// compute an expectation.
const EXPECTATION_GRID: usize = 4096;

/// Conditional variance of a histogram around its bucket-midpoint mean.
fn histogram_variance(h: &Histogram) -> Option<f64> {
    let mean = h.expected_value()?;
    let mut acc = 0.0;
    for (i, m) in h.masses().iter().enumerate() {
        let x = h.lo() + (i as f64 + 0.5) * h.width();
        acc += m * (x - mean) * (x - mean);
    }
    Some(acc / h.mass())
}

impl std::fmt::Display for Pdf1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pdf1::Symbolic { dist, floor, scale } => {
                if floor.is_empty() && *scale == 1.0 {
                    write!(f, "{dist}")
                } else {
                    write!(f, "[{dist}, Floor{{")?;
                    for (i, iv) in floor.intervals().iter().enumerate() {
                        if i > 0 {
                            write!(f, " u ")?;
                        }
                        write!(f, "[{},{}]", iv.lo, iv.hi)?;
                    }
                    write!(f, "}}")?;
                    if *scale != 1.0 {
                        write!(f, ", x{scale}")?;
                    }
                    write!(f, "]")
                }
            }
            Pdf1::Histogram(h) => write!(f, "Hist({} bins on [{},{}])", h.bins(), h.lo(), h.hi()),
            Pdf1::Discrete(d) => write!(f, "{d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbolic_floor_matches_paper_example() {
        // Gaus(5,1) with selection x < 5 => [Gaus(5,1), Floor{[5, inf]}],
        // mass exactly 0.5.
        let g = Pdf1::gaussian(5.0, 1.0).unwrap();
        let f = g.floor_region(&RegionSet::from_interval(Interval::at_least(5.0)));
        assert!((f.mass() - 0.5).abs() < 1e-12);
        assert_eq!(f.density(6.0), 0.0);
        assert!(f.density(4.0) > 0.0);
        assert_eq!(f.to_string(), "[Gaus(5,1), Floor{[5,inf]}]");
    }

    #[test]
    fn floor_order_independence_symbolic() {
        let g = Pdf1::gaussian(0.0, 1.0).unwrap();
        let r1 = RegionSet::from_interval(Interval::at_most(-1.0));
        let r2 = RegionSet::from_interval(Interval::at_least(1.0));
        let a = g.floor_region(&r1).floor_region(&r2);
        let b = g.floor_region(&r2).floor_region(&r1);
        let c = g.floor_region(&r1.union(&r2));
        for &x in &[-2.0, -0.5, 0.0, 0.5, 2.0] {
            assert!((a.density(x) - b.density(x)).abs() < 1e-15);
            assert!((a.density(x) - c.density(x)).abs() < 1e-15);
        }
        assert!((a.mass() - c.mass()).abs() < 1e-12);
    }

    #[test]
    fn cumulative_with_floor() {
        let g = Pdf1::gaussian(0.0, 1.0).unwrap();
        let f = g.floor_region(&RegionSet::from_interval(Interval::new(-1.0, 0.0)));
        // P(X <= 0, exists) = cdf(0) - P(-1 <= X <= 0) = 0.5 - (cdf(0)-cdf(-1))
        let want = 0.5 - (0.5 - Symbolic::gaussian(0.0, 1.0).unwrap().cdf(-1.0));
        assert!((f.cumulative(0.0) - want).abs() < 1e-12);
        // cumulative is monotone even across the floor.
        assert!(f.cumulative(-0.5) <= f.cumulative(0.5) + 1e-15);
    }

    #[test]
    fn range_prob_subtracts_floored_mass() {
        let g = Pdf1::gaussian(0.0, 1.0).unwrap();
        let f = g.floor_region(&RegionSet::from_interval(Interval::new(0.0, 1.0)));
        let p = f.range_prob(&Interval::new(-1.0, 1.0));
        let gd = Symbolic::gaussian(0.0, 1.0).unwrap();
        let want = gd.interval_prob(&Interval::new(-1.0, 0.0));
        assert!((p - want).abs() < 1e-12);
    }

    #[test]
    fn certain_value_behaves_deterministically() {
        let c = Pdf1::certain(7.0);
        assert_eq!(c.mass(), 1.0);
        assert_eq!(c.range_prob(&Interval::new(6.0, 8.0)), 1.0);
        assert_eq!(c.range_prob(&Interval::new(8.0, 9.0)), 0.0);
        assert_eq!(c.expected_value(), Some(7.0));
        assert!(c.is_discrete());
    }

    #[test]
    fn to_histogram_preserves_mass_and_shape() {
        let g = Pdf1::gaussian(50.0, 4.0).unwrap();
        let h = g.to_histogram(64).unwrap();
        assert!((h.mass() - 1.0).abs() < 1e-6);
        // cdf agreement at a few probes.
        for &x in &[46.0, 50.0, 53.0] {
            assert!((h.cumulative(x) - g.cumulative(x)).abs() < 0.02);
        }
    }

    #[test]
    fn to_discrete_places_cell_mass_at_midpoints() {
        let u = Pdf1::uniform(0.0, 10.0).unwrap();
        let d = u.to_discrete(5).unwrap();
        assert_eq!(d.len(), 5);
        assert!((d.mass() - 1.0).abs() < 1e-12);
        assert!((d.prob_at(1.0) - 0.2).abs() < 1e-12);
        assert!((d.prob_at(9.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn to_discrete_keeps_small_discrete_exact() {
        let d0 = Pdf1::discrete(vec![(1.0, 0.5), (9.0, 0.5)]).unwrap();
        let d = d0.to_discrete(25).unwrap();
        assert_eq!(d.points(), &[(1.0, 0.5), (9.0, 0.5)]);
    }

    #[test]
    fn histogram_beats_discrete_at_equal_size() {
        // The Figure 4 premise, in miniature: range-query error of a 5-bin
        // histogram is below a 5-point discretization for a smooth Gaussian.
        let g = Pdf1::gaussian(50.0, 4.0).unwrap();
        let h = Pdf1::Histogram(g.to_histogram(5).unwrap());
        let d = Pdf1::Discrete(g.to_discrete(5).unwrap());
        let mut err_h = 0.0;
        let mut err_d = 0.0;
        let mut k = 0;
        let mut x = 44.0;
        while x < 56.0 {
            let iv = Interval::new(x, x + 3.0);
            let truth = g.range_prob(&iv);
            err_h += (h.range_prob(&iv) - truth).abs();
            err_d += (d.range_prob(&iv) - truth).abs();
            k += 1;
            x += 0.37;
        }
        assert!(err_h / k as f64 * 2.0 < err_d / k as f64, "hist {} vs disc {}", err_h, err_d);
    }

    #[test]
    fn enumerate_symbolic_discrete() {
        let p = Pdf1::symbolic(Symbolic::binomial(3, 0.5).unwrap());
        let d = p.enumerate().unwrap();
        assert_eq!(d.len(), 4);
        assert!((d.prob_at(1.0) - 0.375).abs() < 1e-12);
        assert!(Pdf1::gaussian(0.0, 1.0).unwrap().enumerate().is_err());
    }

    #[test]
    fn vacuous_detection() {
        let d = Pdf1::discrete(vec![(1.0, 0.5)]).unwrap();
        assert!(!d.is_vacuous());
        let f = d.floor_region(&RegionSet::all());
        assert!(f.is_vacuous());
        let g = Pdf1::gaussian(0.0, 1.0).unwrap().floor_region(&RegionSet::all());
        assert!(g.is_vacuous());
    }

    #[test]
    fn param_count_tracks_representation_size() {
        let g = Pdf1::gaussian(0.0, 1.0).unwrap();
        assert_eq!(g.param_count(), 3);
        let h = Pdf1::Histogram(g.to_histogram(5).unwrap());
        assert_eq!(h.param_count(), 7);
        let d = Pdf1::Discrete(g.to_discrete(25).unwrap());
        assert_eq!(d.param_count(), 50);
    }

    #[test]
    fn quantile_inverts_cumulative() {
        let g = Pdf1::gaussian(10.0, 4.0).unwrap();
        assert!((g.quantile(0.5).unwrap() - 10.0).abs() < 1e-9);
        // Floored pdf: conditional quantile over the surviving half.
        let f = g.floor_region(&RegionSet::from_interval(Interval::at_least(10.0)));
        let med = f.quantile(0.5).unwrap();
        // Median of lower-half Gaussian = 25th percentile of the original.
        let want = Symbolic::gaussian(10.0, 4.0).unwrap().quantile(0.25);
        assert!((med - want).abs() < 1e-6, "med {med} want {want}");
        // Discrete.
        let d = Pdf1::discrete(vec![(1.0, 0.25), (2.0, 0.5), (3.0, 0.25)]).unwrap();
        assert_eq!(d.quantile(0.5).unwrap(), 2.0);
        assert_eq!(d.quantile(0.9).unwrap(), 3.0);
        // Vacuous.
        assert!(Pdf1::Discrete(DiscretePdf::vacuous()).quantile(0.5).is_none());
        // Out-of-domain q and unbounded results return None, not panics.
        assert!(g.quantile(1.5).is_none());
        assert!(g.quantile(f64::NAN).is_none());
        assert!(g.quantile(1.0).is_none(), "Gaussian q=1 is +inf");
        assert_eq!(Pdf1::uniform(0.0, 1.0).unwrap().quantile(1.0), Some(1.0));
        // Floored discrete symbolic takes the exact enumeration path.
        let b = Pdf1::symbolic(Symbolic::binomial(4, 0.5).unwrap())
            .floor_region(&RegionSet::from_interval(Interval::at_most(0.5)));
        assert_eq!(b.quantile(0.1).unwrap(), 1.0);
    }

    #[test]
    fn variance_matches_closed_forms() {
        let g = Pdf1::gaussian(0.0, 9.0).unwrap();
        assert!((g.variance().unwrap() - 9.0).abs() < 1e-12);
        let d = Pdf1::discrete(vec![(0.0, 0.5), (2.0, 0.5)]).unwrap();
        assert!((d.variance().unwrap() - 1.0).abs() < 1e-12);
        // Floored Gaussian (half-normal over the kept side): variance
        // sigma^2 (1 - 2/pi) for the half-normal.
        let f = g.floor_region(&RegionSet::from_interval(Interval::at_least(0.0)));
        let want = 9.0 * (1.0 - 2.0 / std::f64::consts::PI);
        assert!((f.variance().unwrap() - want).abs() < 0.05, "{}", f.variance().unwrap());
    }

    #[test]
    fn normalized_restores_unit_mass() {
        let d = Pdf1::discrete(vec![(1.0, 0.2), (2.0, 0.2)]).unwrap();
        let n = d.normalized(64).unwrap();
        assert!((n.mass() - 1.0).abs() < 1e-12);
        assert!((n.density(1.0) - 0.5).abs() < 1e-12);
        // Floored symbolic materializes.
        let g = Pdf1::gaussian(0.0, 1.0)
            .unwrap()
            .floor_region(&RegionSet::from_interval(Interval::at_least(0.0)));
        let n = g.normalized(128).unwrap();
        // Materialization keeps all but TAIL_EPS of the (conditional) mass.
        assert!((n.mass() - 1.0).abs() < 1e-6);
        assert!(matches!(n, Pdf1::Histogram(_)));
        // Vacuous errors.
        assert!(Pdf1::Discrete(DiscretePdf::vacuous()).normalized(8).is_err());
        // Full-mass pdf returned as-is.
        let g = Pdf1::gaussian(0.0, 1.0).unwrap();
        assert_eq!(g.normalized(8).unwrap(), g);
    }

    #[test]
    fn scale_compounds() {
        let g = Pdf1::gaussian(0.0, 1.0).unwrap().scale(0.5).scale(0.5);
        assert!((g.mass() - 0.25).abs() < 1e-12);
        assert!(
            (g.density(0.0) - 0.25 * Symbolic::gaussian(0.0, 1.0).unwrap().density(0.0)).abs()
                < 1e-15
        );
    }
}

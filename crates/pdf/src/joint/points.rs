//! Correlated joint *discrete* distributions: explicit probability mass on a
//! finite set of k-dimensional points.
//!
//! This is the exact representation behind the paper's worked examples
//! (Table II/III, the `a < b` selection of Section III-C, and the history
//! example of Figure 3), and the representation the possible-worlds
//! reference engine checks operators against.
//!
//! The points are stored flat — one coordinate array, one mass array — so
//! a joint costs two heap allocations however many points it has, and
//! every kernel is a loop over slices. The arrays are boxed slices, not
//! `Vec`s, so that a `JointDiscrete` (40 bytes) is no larger than a `Pdf1`
//! and does not widen the `Block` enum that every stored pdf lives in.

use crate::error::{PdfError, Result};
use crate::interval::Interval;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// A joint pmf over `arity`-dimensional real points.
///
/// Point `i` is `coords[i * arity..(i + 1) * arity]` with mass `probs[i]`;
/// points are lexicographically sorted and distinct.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointDiscrete {
    arity: usize,
    /// Row-major coordinates, `arity` per point.
    coords: Box<[f64]>,
    /// One mass per point.
    probs: Box<[f64]>,
}

/// Lexicographic order of two `arity`-dimensional points, given as the
/// coordinate pair `pair(k)` of each dimension `k`.
fn lex(arity: usize, pair: impl Fn(usize) -> (f64, f64)) -> Ordering {
    let cmp = |(x, y): (f64, f64)| x.partial_cmp(&y).expect("finite coordinates");
    (0..arity).map(|k| cmp(pair(k))).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
}

impl JointDiscrete {
    /// Builds a joint pmf; points must all have dimension `arity`, be
    /// finite, and carry non-negative mass totaling at most `1 + 1e-9`.
    /// Duplicates are merged; zero-mass points dropped.
    pub fn from_points(arity: usize, points: Vec<(Vec<f64>, f64)>) -> Result<Self> {
        if let Some((v, _)) = points.iter().find(|(v, _)| v.len() != arity) {
            let msg = format!("point has dimension {}, expected {arity}", v.len());
            return Err(PdfError::InvalidParameter(msg));
        }
        let coords = points.iter().flat_map(|(v, _)| v.iter().copied()).collect();
        JointDiscrete::from_flat(arity, coords, points.iter().map(|(_, p)| *p).collect())
    }

    /// [`JointDiscrete::from_points`] over row-major `coords` (`arity` per
    /// point) and one mass per point. Input that is already sorted,
    /// distinct and free of zero masses is kept as is.
    pub fn from_flat(arity: usize, coords: Vec<f64>, probs: Vec<f64>) -> Result<Self> {
        if arity == 0
            || coords.len() != arity.saturating_mul(probs.len())
            || coords.iter().any(|x| !x.is_finite())
            || probs.iter().any(|p| !p.is_finite() || *p < 0.0)
        {
            let msg = format!("joint of arity {arity} needs arity >= 1, finite points, mass >= 0");
            return Err(PdfError::InvalidParameter(msg));
        }
        let j = JointDiscrete::from_sorted(arity, coords, probs);
        let (c, a) = (&j.coords, arity);
        let normal = !j.probs.contains(&0.0)
            && (1..j.len()).all(|i| lex(a, |k| (c[(i - 1) * a + k], c[i * a + k])).is_lt());
        if normal {
            return j.checked_mass();
        }
        gather(arity, &j.probs, |i, k| j.coords[i * arity + k])
    }

    /// A joint over flat points that are already sorted, distinct and
    /// valid (as a filtered product of valid joints is); nothing is checked.
    pub(crate) fn from_sorted(arity: usize, coords: Vec<f64>, probs: Vec<f64>) -> Self {
        JointDiscrete { arity, coords: coords.into_boxed_slice(), probs: probs.into_boxed_slice() }
    }

    fn checked_mass(self) -> Result<Self> {
        let total = self.mass();
        if total > 1.0 + 1e-9 {
            return Err(PdfError::InvalidParameter(format!("total joint mass {total} exceeds 1")));
        }
        Ok(self)
    }

    /// Number of dimensions.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The sorted `(point, probability)` pairs.
    pub fn points(&self) -> impl ExactSizeIterator<Item = (&[f64], f64)> + Clone + '_ {
        self.coords.chunks_exact(self.arity).zip(self.probs.iter().copied())
    }

    /// Number of support points.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether no support point remains.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Total mass (< 1 for partial pdfs).
    pub fn mass(&self) -> f64 {
        self.probs.iter().sum()
    }

    /// Probability mass at exactly `point`.
    pub fn prob_at(&self, point: &[f64]) -> f64 {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match lex(self.arity, |k| (self.coords[mid * self.arity + k], point[k])) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return self.probs[mid],
            }
        }
        0.0
    }

    /// Marginalizes onto the dimensions listed in `keep` (in the given
    /// order). Corresponds to the paper's `marginalize(f, A)`.
    pub fn marginalize(&self, keep: &[usize]) -> Result<JointDiscrete> {
        if keep.is_empty() || keep.iter().any(|&d| d >= self.arity) {
            let msg = format!("marginalize dims {keep:?} out of range for arity {}", self.arity);
            return Err(PdfError::IncompatibleOperands(msg));
        }
        gather(keep.len(), &self.probs, |i, k| self.coords[i * self.arity + keep[k]])
    }

    /// Keeps only the points satisfying `pred` — the exact, general floor.
    pub fn filter(&self, mut pred: impl FnMut(&[f64]) -> bool) -> JointDiscrete {
        let (mut coords, mut probs) =
            (Vec::with_capacity(self.coords.len()), Vec::with_capacity(self.len()));
        for (v, p) in self.points().filter(|(v, _)| pred(v)) {
            coords.extend_from_slice(v);
            probs.push(p);
        }
        JointDiscrete::from_sorted(self.arity, coords, probs)
    }

    /// Independent product: the cartesian joint over `self`'s dims followed
    /// by `other`'s dims.
    pub fn product(&self, other: &JointDiscrete) -> JointDiscrete {
        let (arity, n) = (self.arity + other.arity, self.len() * other.len());
        let (mut coords, mut probs) = (Vec::with_capacity(n * arity), Vec::with_capacity(n));
        for (v1, p1) in self.points() {
            for (v2, p2) in other.points() {
                coords.extend_from_slice(v1);
                coords.extend_from_slice(v2);
                probs.push(p1 * p2);
            }
        }
        // Cartesian products of sorted inputs stay sorted and deduplicated.
        JointDiscrete::from_sorted(arity, coords, probs)
    }

    /// Probability that every dimension lies inside its box interval.
    pub fn box_prob(&self, bounds: &[Interval]) -> f64 {
        assert_eq!(bounds.len(), self.arity, "box dimensionality mismatch");
        self.points()
            .filter(|(v, _)| v.iter().zip(bounds).all(|(x, iv)| iv.contains(*x)))
            .map(|(_, p)| p)
            .sum()
    }

    /// Expected value of dimension `dim`, conditioned on existence.
    pub fn expected(&self, dim: usize) -> Option<f64> {
        let mass = self.mass();
        if mass <= 0.0 || dim >= self.arity {
            return None;
        }
        Some(self.points().map(|(v, p)| v[dim] * p).sum::<f64>() / mass)
    }

    /// Rescales all masses by `factor` in `[0, 1]`.
    pub fn scale(&self, factor: f64) -> JointDiscrete {
        debug_assert!((0.0..=1.0 + 1e-12).contains(&factor));
        let probs = self.probs.iter().map(|p| p * factor).collect();
        JointDiscrete { arity: self.arity, coords: self.coords.clone(), probs }
    }

    /// Reorders dimensions: output dim `i` is input dim `perm[i]`.
    pub fn permute(&self, perm: &[usize]) -> Result<JointDiscrete> {
        if perm.len() != self.arity {
            let msg = format!("permutation arity {} != {}", perm.len(), self.arity);
            return Err(PdfError::IncompatibleOperands(msg));
        }
        self.marginalize(perm)
    }
}

/// The joint over `probs.len()` points whose coordinate `k` of point `i` is
/// `at(i, k)`, normalized as [`JointDiscrete::from_points`] does: points
/// stably sorted, duplicates merged by summing their masses in that order,
/// zero masses dropped, total mass checked.
fn gather(arity: usize, probs: &[f64], at: impl Fn(usize, usize) -> f64) -> Result<JointDiscrete> {
    let cmp = |a: usize, b: usize| lex(arity, |k| (at(a, k), at(b, k)));
    let n = probs.len();
    // Points already in order (say, a marginal onto leading dimensions)
    // need no permutation: their stable sort is the identity.
    let mut order = Vec::new();
    if !(1..n).all(|i| cmp(i - 1, i).is_le()) {
        order = (0..n).collect();
        order.sort_by(|&a, &b| cmp(a, b));
    }
    let (mut coords, mut out) = (Vec::with_capacity(n * arity), Vec::with_capacity(n));
    let mut first: Option<usize> = None;
    for i in (0..n).map(|r| order.get(r).map_or(r, |&i| i)).filter(|&i| probs[i] != 0.0) {
        match (first, out.last_mut()) {
            (Some(f), Some(last)) if cmp(f, i).is_eq() => *last += probs[i],
            _ => {
                coords.extend((0..arity).map(|k| at(i, k)));
                out.push(probs[i]);
                first = Some(i);
            }
        }
    }
    JointDiscrete::from_sorted(arity, coords, out).checked_mass()
}

impl std::fmt::Display for JointDiscrete {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Discrete(")?;
        for (i, (v, p)) in self.points().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let (open, close) = if v.len() == 1 { ("", "") } else { ("{", "}") };
            let xs: Vec<String> = v.iter().map(f64::to_string).collect();
            write!(f, "{sep}{open}{}{close}:{p}", xs.join(","))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_joint() -> JointDiscrete {
        // The Section III-C result: Discrete({0,1}:0.06, {0,2}:0.04, {1,2}:0.36)
        JointDiscrete::from_points(
            2,
            vec![(vec![0.0, 1.0], 0.06), (vec![0.0, 2.0], 0.04), (vec![1.0, 2.0], 0.36)],
        )
        .unwrap()
    }

    #[test]
    fn construction_sorts_merges_validates() {
        let j = JointDiscrete::from_points(
            2,
            vec![(vec![1.0, 0.0], 0.2), (vec![0.0, 1.0], 0.3), (vec![1.0, 0.0], 0.1)],
        )
        .unwrap();
        assert_eq!(j.len(), 2);
        assert!((j.prob_at(&[1.0, 0.0]) - 0.3).abs() < 1e-12);
        assert!(JointDiscrete::from_points(0, vec![]).is_err());
        assert!(JointDiscrete::from_points(2, vec![(vec![1.0], 0.5)]).is_err());
        assert!(JointDiscrete::from_points(1, vec![(vec![1.0], 1.5)]).is_err());
    }

    #[test]
    fn mass_is_partial() {
        let j = paper_joint();
        assert!((j.mass() - 0.46).abs() < 1e-12, "paper: tuple exists with 0.46");
    }

    #[test]
    fn marginalize_matches_hand_computation() {
        let j = paper_joint();
        let a = j.marginalize(&[0]).unwrap();
        assert!((a.prob_at(&[0.0]) - 0.10).abs() < 1e-12);
        assert!((a.prob_at(&[1.0]) - 0.36).abs() < 1e-12);
        let b = j.marginalize(&[1]).unwrap();
        assert!((b.prob_at(&[1.0]) - 0.06).abs() < 1e-12);
        assert!((b.prob_at(&[2.0]) - 0.40).abs() < 1e-12);
        assert!(j.marginalize(&[2]).is_err());
        assert!(j.marginalize(&[]).is_err());
    }

    #[test]
    fn product_is_cartesian_and_sorted() {
        let a = JointDiscrete::from_points(1, vec![(vec![0.0], 0.1), (vec![1.0], 0.9)]).unwrap();
        let b = JointDiscrete::from_points(1, vec![(vec![1.0], 0.6), (vec![2.0], 0.4)]).unwrap();
        let j = a.product(&b);
        assert_eq!(j.arity(), 2);
        assert_eq!(j.len(), 4);
        assert!((j.prob_at(&[0.0, 1.0]) - 0.06).abs() < 1e-12);
        assert!((j.prob_at(&[1.0, 2.0]) - 0.36).abs() < 1e-12);
        assert!((j.mass() - 1.0).abs() < 1e-12);
        // Sorted invariant holds (prob_at relies on binary search).
        let pts = j.points().map(|(v, p)| (v.to_vec(), p)).collect();
        let again = JointDiscrete::from_points(2, pts).unwrap();
        assert_eq!(again, j);
    }

    #[test]
    fn filter_reproduces_paper_selection() {
        // product of Table II tuple-1 pdfs filtered by a < b
        let a = JointDiscrete::from_points(1, vec![(vec![0.0], 0.1), (vec![1.0], 0.9)]).unwrap();
        let b = JointDiscrete::from_points(1, vec![(vec![1.0], 0.6), (vec![2.0], 0.4)]).unwrap();
        let sel = a.product(&b).filter(|v| v[0] < v[1]);
        let want = paper_joint();
        assert_eq!(sel.len(), want.len());
        for (v, p) in want.points() {
            assert!((sel.prob_at(v) - p).abs() < 1e-12, "point {v:?}");
        }
    }

    #[test]
    fn box_prob_counts_contained_points() {
        let j = paper_joint();
        let p = j.box_prob(&[Interval::new(0.0, 0.0), Interval::all()]);
        assert!((p - 0.10).abs() < 1e-12);
        let p = j.box_prob(&[Interval::all(), Interval::new(2.0, 2.0)]);
        assert!((p - 0.40).abs() < 1e-12);
    }

    #[test]
    fn expected_conditions_on_existence() {
        let j = paper_joint();
        // E[a | exists] = (0*0.1 + 1*0.36) / 0.46
        assert!((j.expected(0).unwrap() - 0.36 / 0.46).abs() < 1e-12);
        assert!(j.expected(5).is_none());
    }

    #[test]
    fn permute_swaps_dimensions() {
        let j = paper_joint();
        let p = j.permute(&[1, 0]).unwrap();
        assert!((p.prob_at(&[1.0, 0.0]) - 0.06).abs() < 1e-12);
        assert!((p.prob_at(&[2.0, 1.0]) - 0.36).abs() < 1e-12);
        assert!(j.permute(&[0]).is_err());
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(paper_joint().to_string(), "Discrete({0,1}:0.06, {0,2}:0.04, {1,2}:0.36)");
    }
}

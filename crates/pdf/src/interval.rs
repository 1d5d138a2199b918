//! Intervals and disjoint interval unions over the real line.
//!
//! These are the geometric substrate for the paper's *floor* operation
//! (Section III-A): a floored region is stored symbolically as a union of
//! intervals attached to the original distribution, e.g.
//! `[Gaus(5,1), Floor{[5, +inf]}]`.
//!
//! Intervals are treated as closed; since every distribution we floor is
//! either continuous (where single points carry no mass) or discrete (where
//! the predicate evaluator resolves endpoint membership explicitly before
//! building regions), the open/closed distinction never changes a
//! probability in this model.

use serde::{Deserialize, Serialize};

/// A (possibly unbounded) interval `[lo, hi]` on the real line.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    /// Lower endpoint; `-inf` for a left-unbounded interval.
    pub lo: f64,
    /// Upper endpoint; `+inf` for a right-unbounded interval.
    pub hi: f64,
}

impl Interval {
    /// Creates `[lo, hi]`. Panics if `lo > hi` or either endpoint is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "interval endpoints must not be NaN");
        assert!(lo <= hi, "interval requires lo <= hi, got [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The whole real line `(-inf, +inf)`.
    pub fn all() -> Self {
        Interval { lo: f64::NEG_INFINITY, hi: f64::INFINITY }
    }

    /// `[x, +inf)`.
    pub fn at_least(x: f64) -> Self {
        Interval::new(x, f64::INFINITY)
    }

    /// `(-inf, x]`.
    pub fn at_most(x: f64) -> Self {
        Interval::new(f64::NEG_INFINITY, x)
    }

    /// The degenerate interval `[x, x]`.
    pub fn point(x: f64) -> Self {
        Interval::new(x, x)
    }

    /// Whether `x` lies inside the (closed) interval.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Whether this interval overlaps `other` (shared closed endpoints count).
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Intersection, or `None` when disjoint.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then(|| Interval::new(lo, hi))
    }

    /// Length of the interval (`+inf` when unbounded, 0 for points).
    pub fn length(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether the interval is a single point.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether both endpoints are finite.
    pub fn is_bounded(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Clamps `x` into the interval (meaningful only when bounded on the
    /// relevant side).
    pub fn clamp(&self, x: f64) -> f64 {
        x.clamp(self.lo, self.hi)
    }
}

/// A finite union of pairwise-disjoint, sorted intervals.
///
/// This is the representation of a symbolic `Floor{...}` region, and also of
/// an attribute's admissible support after selections. The empty region set
/// is the identity floor (nothing zeroed).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RegionSet {
    intervals: Vec<Interval>,
}

impl RegionSet {
    /// The empty region.
    pub const fn empty() -> Self {
        RegionSet { intervals: Vec::new() }
    }

    /// The whole real line.
    pub fn all() -> Self {
        RegionSet { intervals: vec![Interval::all()] }
    }

    /// A region made of a single interval.
    pub fn from_interval(iv: Interval) -> Self {
        RegionSet { intervals: vec![iv] }
    }

    /// Builds a region from arbitrary (possibly overlapping, unsorted)
    /// intervals, normalizing into a sorted disjoint union.
    pub fn from_intervals(mut ivs: Vec<Interval>) -> Self {
        if ivs.is_empty() {
            return RegionSet::empty();
        }
        ivs.sort_by(|a, b| a.lo.partial_cmp(&b.lo).expect("no NaN endpoints"));
        let mut merged: Vec<Interval> = Vec::with_capacity(ivs.len());
        let mut open = Coalesce::default();
        for iv in ivs {
            open.push(iv, &mut |m| merged.push(m));
        }
        open.finish(&mut |m| merged.push(m));
        RegionSet { intervals: merged }
    }

    /// The disjoint intervals, sorted ascending.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Whether `x` lies in the region (binary search).
    pub fn contains(&self, x: f64) -> bool {
        let idx = self.intervals.partition_point(|iv| iv.hi < x);
        self.intervals.get(idx).is_some_and(|iv| iv.contains(x))
    }

    /// Union with another region.
    pub fn union(&self, other: &RegionSet) -> RegionSet {
        let mut all = Vec::with_capacity(self.intervals.len() + other.intervals.len());
        all.extend_from_slice(&self.intervals);
        all.extend_from_slice(&other.intervals);
        RegionSet::from_intervals(all)
    }

    /// Intersection with another region.
    pub fn intersect(&self, other: &RegionSet) -> RegionSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.intervals.len() && j < other.intervals.len() {
            let (a, b) = (self.intervals[i], other.intervals[j]);
            if let Some(iv) = a.intersect(&b) {
                out.push(iv);
            }
            if a.hi <= b.hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        RegionSet { intervals: out }
    }

    /// Complement within the whole real line.
    pub fn complement(&self) -> RegionSet {
        if self.intervals.is_empty() {
            return RegionSet::all();
        }
        let mut out = Vec::with_capacity(self.intervals.len() + 1);
        let mut cursor = f64::NEG_INFINITY;
        for iv in &self.intervals {
            if iv.lo > cursor {
                out.push(Interval::new(cursor, iv.lo));
            }
            cursor = cursor.max(iv.hi);
        }
        if cursor < f64::INFINITY {
            out.push(Interval::new(cursor, f64::INFINITY));
        }
        RegionSet { intervals: out }
    }

    /// Whether this region covers the given interval entirely.
    pub fn covers(&self, iv: &Interval) -> bool {
        // After normalization an interval is covered iff a single member
        // contains it (members are disjoint with gaps of positive length,
        // except for touching endpoints which from_intervals merges).
        let idx = self.intervals.partition_point(|m| m.hi < iv.lo);
        self.intervals.get(idx).is_some_and(|m| m.lo <= iv.lo && iv.hi <= m.hi)
    }

    /// Total length of the region (may be `+inf`).
    pub fn measure(&self) -> f64 {
        self.intervals.iter().map(Interval::length).sum()
    }
}

/// The merging pass of [`RegionSet::from_intervals`] over a stream sorted
/// by `lo`: an interval that overlaps or touches the open one extends it;
/// any other closes it (handing it to `emit`) and opens itself.
#[derive(Default)]
pub(crate) struct Coalesce {
    open: Option<Interval>,
}

impl Coalesce {
    pub(crate) fn push<F: FnMut(Interval) + ?Sized>(&mut self, iv: Interval, emit: &mut F) {
        match &mut self.open {
            Some(last) if iv.lo <= last.hi => {
                if iv.hi > last.hi {
                    last.hi = iv.hi;
                }
            }
            _ => {
                if let Some(done) = self.open.replace(iv) {
                    emit(done);
                }
            }
        }
    }

    pub(crate) fn finish<F: FnMut(Interval) + ?Sized>(self, emit: &mut F) {
        if let Some(done) = self.open {
            emit(done);
        }
    }
}

/// Streams the intervals of `base.union(r₁).union(r₂)…`, where `r₁, r₂, …`
/// are the regions of `layers` tagged `key`, in order — interval for
/// interval what that left fold of [`RegionSet::union`] stores, without
/// building any of the sets. Returns `false`, having emitted nothing, when
/// an input is not sorted by `lo` (every region this crate builds is; the
/// merge below relies on it where `union` sorts).
pub(crate) fn for_each_union_interval(
    base: &RegionSet,
    layers: &[(usize, &RegionSet)],
    key: usize,
    emit: &mut dyn FnMut(Interval),
) -> bool {
    let sorted = |r: &RegionSet| r.intervals.windows(2).all(|w| w[0].lo <= w[1].lo);
    if !sorted(base) || layers.iter().any(|&(k, r)| k == key && !sorted(r)) {
        return false;
    }
    union_walk(&base.intervals, layers, key, emit);
    true
}

fn union_walk(
    base: &[Interval],
    layers: &[(usize, &RegionSet)],
    key: usize,
    emit: &mut dyn FnMut(Interval),
) {
    let Some((&(k, last), prefix)) = layers.split_last() else {
        base.iter().for_each(|&iv| emit(iv));
        return;
    };
    if k != key {
        return union_walk(base, prefix, key, emit);
    }
    // `union` sorts `prefix ++ last` stably: for two sorted runs that is
    // their merge with ties going to the prefix. The coalescing pass
    // follows.
    let b = last.intervals();
    let mut open = Coalesce::default();
    let mut bi = 0;
    union_walk(base, prefix, key, &mut |a| {
        while bi < b.len() && b[bi].lo < a.lo {
            open.push(b[bi], emit);
            bi += 1;
        }
        open.push(a, emit);
    });
    for &iv in &b[bi..] {
        open.push(iv, emit);
    }
    open.finish(emit);
}

impl From<Interval> for RegionSet {
    fn from(iv: Interval) -> Self {
        RegionSet::from_interval(iv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let iv = Interval::new(1.0, 3.0);
        assert!(iv.contains(1.0) && iv.contains(3.0) && iv.contains(2.0));
        assert!(!iv.contains(0.999) && !iv.contains(3.001));
        assert_eq!(iv.length(), 2.0);
        assert!(!iv.is_point());
        assert!(Interval::point(2.0).is_point());
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn interval_rejects_inverted() {
        Interval::new(3.0, 1.0);
    }

    #[test]
    fn interval_intersection() {
        let a = Interval::new(0.0, 5.0);
        let b = Interval::new(3.0, 8.0);
        assert_eq!(a.intersect(&b), Some(Interval::new(3.0, 5.0)));
        let c = Interval::new(6.0, 7.0);
        assert_eq!(a.intersect(&c), None);
        // Touching endpoints intersect in a point.
        let d = Interval::new(5.0, 9.0);
        assert_eq!(a.intersect(&d), Some(Interval::point(5.0)));
    }

    #[test]
    fn region_normalization_merges_overlaps() {
        let r = RegionSet::from_intervals(vec![
            Interval::new(5.0, 7.0),
            Interval::new(0.0, 2.0),
            Interval::new(1.0, 3.0),
            Interval::new(3.0, 4.0),
        ]);
        assert_eq!(r.intervals(), &[Interval::new(0.0, 4.0), Interval::new(5.0, 7.0)]);
    }

    #[test]
    fn region_contains_uses_binary_search() {
        let r = RegionSet::from_intervals(vec![
            Interval::new(0.0, 1.0),
            Interval::new(2.0, 3.0),
            Interval::new(10.0, 20.0),
        ]);
        assert!(r.contains(0.5) && r.contains(2.0) && r.contains(20.0));
        assert!(!r.contains(1.5) && !r.contains(9.999) && !r.contains(-1.0));
    }

    #[test]
    fn region_union_and_intersection() {
        let a = RegionSet::from_intervals(vec![Interval::new(0.0, 2.0), Interval::new(4.0, 6.0)]);
        let b = RegionSet::from_intervals(vec![Interval::new(1.0, 5.0)]);
        let u = a.union(&b);
        assert_eq!(u.intervals(), &[Interval::new(0.0, 6.0)]);
        let i = a.intersect(&b);
        assert_eq!(i.intervals(), &[Interval::new(1.0, 2.0), Interval::new(4.0, 5.0)]);
    }

    #[test]
    fn region_complement_round_trip() {
        let a = RegionSet::from_intervals(vec![Interval::new(0.0, 1.0), Interval::new(3.0, 4.0)]);
        let c = a.complement();
        assert_eq!(
            c.intervals(),
            &[
                Interval::new(f64::NEG_INFINITY, 0.0),
                Interval::new(1.0, 3.0),
                Interval::new(4.0, f64::INFINITY),
            ]
        );
        // Complement of complement merges at touching endpoints: measure-equal.
        let cc = c.complement();
        assert_eq!(cc.intervals().len(), 2);
        assert_eq!(cc.measure(), a.measure());
    }

    #[test]
    fn empty_and_all() {
        assert!(RegionSet::empty().is_empty());
        assert!(RegionSet::all().contains(1e300));
        assert!(RegionSet::empty().complement() == RegionSet::all());
        assert!(RegionSet::all()
            .intersect(&RegionSet::from_interval(Interval::new(0.0, 1.0)))
            .covers(&Interval::new(0.0, 1.0)));
    }

    #[test]
    fn covers_checks_single_member() {
        let r = RegionSet::from_intervals(vec![Interval::new(0.0, 2.0), Interval::new(3.0, 5.0)]);
        assert!(r.covers(&Interval::new(0.5, 1.5)));
        assert!(r.covers(&Interval::new(3.0, 5.0)));
        assert!(!r.covers(&Interval::new(1.0, 4.0)));
        assert!(!r.covers(&Interval::new(2.5, 2.6)));
    }

    #[test]
    fn measure_sums_lengths() {
        let r = RegionSet::from_intervals(vec![Interval::new(0.0, 2.0), Interval::new(3.0, 4.5)]);
        assert!((r.measure() - 3.5).abs() < 1e-12);
        assert_eq!(RegionSet::all().measure(), f64::INFINITY);
        assert_eq!(RegionSet::empty().measure(), 0.0);
    }
}

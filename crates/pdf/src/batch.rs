//! Columnar batches of one-dimensional pdfs.
//!
//! A [`Pdf1Batch`] packs many [`Pdf1`] records into contiguous arenas: a
//! kind lane, a symbolic-parameter lane, and shared `f64` arenas for floor
//! intervals, histogram bucket masses, and discrete support points, with
//! per-record `(offset, len)` windows. The batch kernels (`mass_into`,
//! `range_prob_into`, `cumulative_into`, `floor_region_batch`, `scale_all`,
//! `marginalize_fold`, `product_mass_into`) run as flat loops over the
//! arenas, so the compiler can autovectorize the bucket/point sums, and
//! Gaussian cdf evaluations across the whole batch are funneled through
//! [`special::std_normal_cdf_slice`].
//!
//! **Invariant:** every kernel is bitwise-identical to mapping its scalar
//! [`Pdf1`] counterpart over the records — same formulas, same iteration
//! and summation order — so batch execution can never change query answers.
//! `tests/batch_kernels.rs` proves this property per kernel.

use crate::discrete::DiscretePdf;
use crate::error::{PdfError, Result as PdfResult};
use crate::histogram::Histogram;
use crate::interval::{Interval, RegionSet};
use crate::pdf1d::Pdf1;
use crate::special;
use crate::symbolic::Symbolic;

/// Representation tag of one packed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PdfKind {
    /// Closed-form distribution + symbolic floor set + existence scale.
    Symbolic,
    /// Equi-width histogram (header lanes + a window into the mass arena).
    Histogram,
    /// Value–probability list (windows into parallel value/prob arenas).
    Discrete,
}

/// Placeholder parameter block for non-symbolic records.
const NO_DIST: Symbolic = Symbolic::Bernoulli { p: 0.0 };

/// A columnar batch of `Pdf1` records (see module docs).
#[derive(Debug, Clone, Default)]
pub struct Pdf1Batch {
    kind: Vec<PdfKind>,
    /// Symbolic distribution per record ([`NO_DIST`] for other kinds).
    dist: Vec<Symbolic>,
    /// Existence scale per record (meaningful for symbolic records only).
    scale: Vec<f64>,
    /// Per-record window into the floor arenas (symbolic records only).
    floor_off: Vec<u32>,
    floor_len: Vec<u32>,
    floor_lo: Vec<f64>,
    floor_hi: Vec<f64>,
    /// Histogram headers (lower edge / bucket width).
    hlo: Vec<f64>,
    hwidth: Vec<f64>,
    /// Per-record window into the kind-selected data arena: `hmass` for
    /// histograms, `dval`/`dprob` for discrete records.
    off: Vec<u32>,
    len: Vec<u32>,
    hmass: Vec<f64>,
    dval: Vec<f64>,
    dprob: Vec<f64>,
}

impl Pdf1Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of packed records.
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }

    /// Representation tag of record `i`.
    pub fn kind(&self, i: usize) -> PdfKind {
        self.kind[i]
    }

    /// Drops all records but keeps the arena capacity for reuse.
    pub fn clear(&mut self) {
        self.kind.clear();
        self.dist.clear();
        self.scale.clear();
        self.floor_off.clear();
        self.floor_len.clear();
        self.floor_lo.clear();
        self.floor_hi.clear();
        self.hlo.clear();
        self.hwidth.clear();
        self.off.clear();
        self.len.clear();
        self.hmass.clear();
        self.dval.clear();
        self.dprob.clear();
    }

    /// Record headers shared by every push path. `off`/`len` describe the
    /// data-arena window the caller has just (or is about to) fill.
    fn push_header(&mut self, kind: PdfKind, dist: Symbolic, scale: f64, off: u32, len: u32) {
        self.kind.push(kind);
        self.dist.push(dist);
        self.scale.push(scale);
        self.floor_off.push(self.floor_lo.len() as u32);
        self.floor_len.push(0);
        self.hlo.push(0.0);
        self.hwidth.push(0.0);
        self.off.push(off);
        self.len.push(len);
    }

    /// Appends a symbolic record.
    pub fn push_symbolic(&mut self, dist: Symbolic, floor: &[Interval], scale: f64) {
        self.push_header(PdfKind::Symbolic, dist, scale, 0, 0);
        *self.floor_len.last_mut().expect("just pushed") = floor.len() as u32;
        for iv in floor {
            self.floor_lo.push(iv.lo);
            self.floor_hi.push(iv.hi);
        }
    }

    /// Appends a histogram record. The masses must already satisfy the
    /// [`Histogram::from_masses`] invariants.
    pub fn push_histogram_unchecked(
        &mut self,
        lo: f64,
        width: f64,
        masses: impl Iterator<Item = f64>,
    ) {
        let off = self.hmass.len() as u32;
        self.hmass.extend(masses);
        self.push_header(PdfKind::Histogram, NO_DIST, 1.0, off, self.hmass.len() as u32 - off);
        let n = self.kind.len() - 1;
        self.hlo[n] = lo;
        self.hwidth[n] = width;
    }

    /// Appends a discrete record. The points must already be sorted and
    /// merged per the [`DiscretePdf::from_points`] invariants.
    pub fn push_discrete_unchecked(&mut self, points: impl Iterator<Item = (f64, f64)>) {
        let off = self.dval.len() as u32;
        for (v, p) in points {
            self.dval.push(v);
            self.dprob.push(p);
        }
        self.push_header(PdfKind::Discrete, NO_DIST, 1.0, off, self.dval.len() as u32 - off);
    }

    /// Validates and appends a histogram record, streaming the masses
    /// straight into the arena. Enforces exactly the
    /// [`Histogram::from_masses`] invariants — same checks, same order,
    /// same error text — so callers decoding untrusted input get behavior
    /// identical to building the scalar `Histogram`. On error the arena is
    /// rolled back and the iterator may be left partially consumed.
    pub fn push_histogram_checked(
        &mut self,
        lo: f64,
        width: f64,
        masses: impl Iterator<Item = f64>,
    ) -> PdfResult<()> {
        if !lo.is_finite() || !width.is_finite() || width <= 0.0 {
            return Err(PdfError::InvalidParameter(format!(
                "histogram requires finite lo and width > 0, got ({lo}, {width})"
            )));
        }
        let off = self.hmass.len();
        let mut total = 0.0;
        for m in masses {
            if !m.is_finite() || m < 0.0 {
                self.hmass.truncate(off);
                return Err(PdfError::InvalidParameter(format!(
                    "bucket masses must be finite and >= 0, got {m}"
                )));
            }
            total += m;
            self.hmass.push(m);
        }
        if self.hmass.len() == off {
            return Err(PdfError::InvalidParameter("histogram needs >= 1 bucket".into()));
        }
        if total > 1.0 + 1e-9 {
            self.hmass.truncate(off);
            return Err(PdfError::InvalidParameter(format!(
                "total histogram mass {total} exceeds 1"
            )));
        }
        let len = (self.hmass.len() - off) as u32;
        self.push_header(PdfKind::Histogram, NO_DIST, 1.0, off as u32, len);
        let n = self.kind.len() - 1;
        self.hlo[n] = lo;
        self.hwidth[n] = width;
        Ok(())
    }

    /// Validates and appends a discrete record. Already-canonical input
    /// (strictly increasing values, every probability > 0) streams straight
    /// into the arenas; anything needing the [`DiscretePdf::from_points`]
    /// sort/merge/drop pass is handed to that constructor, so results and
    /// errors are identical to building the scalar `DiscretePdf`. On error
    /// the arena is rolled back.
    pub fn push_discrete_checked(
        &mut self,
        mut points: impl Iterator<Item = (f64, f64)>,
    ) -> PdfResult<()> {
        let off = self.dval.len();
        for (v, p) in points.by_ref() {
            if !v.is_finite() || !p.is_finite() || p < 0.0 {
                self.dval.truncate(off);
                self.dprob.truncate(off);
                return Err(PdfError::InvalidParameter(format!(
                    "discrete point ({v}, {p}) must be finite with p >= 0"
                )));
            }
            if p == 0.0 || (self.dval.len() > off && self.dval[self.dval.len() - 1] >= v) {
                // Non-canonical input: hand everything to `from_points` for
                // the canonical sort/merge (and its exact error reporting).
                let mut all: Vec<(f64, f64)> = self.dval[off..]
                    .iter()
                    .copied()
                    .zip(self.dprob[off..].iter().copied())
                    .collect();
                all.push((v, p));
                all.extend(points);
                self.dval.truncate(off);
                self.dprob.truncate(off);
                let d = DiscretePdf::from_points(all)?;
                self.push_discrete_unchecked(d.points().iter().copied());
                return Ok(());
            }
            self.dval.push(v);
            self.dprob.push(p);
        }
        let total: f64 = self.dprob[off..].iter().sum();
        if total > 1.0 + 1e-9 {
            self.dval.truncate(off);
            self.dprob.truncate(off);
            return Err(PdfError::InvalidParameter(format!(
                "total discrete mass {total} exceeds 1"
            )));
        }
        let len = (self.dval.len() - off) as u32;
        self.push_header(PdfKind::Discrete, NO_DIST, 1.0, off as u32, len);
        Ok(())
    }

    /// Bulk variant of [`Self::push_discrete_checked`] for decode hot paths:
    /// appends the points first and validates the freshly written arena
    /// windows with flat slice passes (which vectorize), instead of
    /// branching on every point. Non-canonical input rolls back and re-runs
    /// the streaming checked path, so results and errors are identical.
    pub fn push_discrete_checked_bulk(
        &mut self,
        points: impl Iterator<Item = (f64, f64)> + Clone,
    ) -> PdfResult<()> {
        let off = self.dval.len();
        for (v, p) in points.clone() {
            self.dval.push(v);
            self.dprob.push(p);
        }
        let (vals, probs) = (&self.dval[off..], &self.dprob[off..]);
        let canonical = vals.iter().all(|v| v.is_finite())
            && probs.iter().all(|&p| p.is_finite() && p > 0.0)
            && vals.windows(2).all(|w| w[0] < w[1]);
        if !canonical {
            self.dval.truncate(off);
            self.dprob.truncate(off);
            return self.push_discrete_checked(points);
        }
        let total: f64 = self.dprob[off..].iter().sum();
        if total > 1.0 + 1e-9 {
            self.dval.truncate(off);
            self.dprob.truncate(off);
            return Err(PdfError::InvalidParameter(format!(
                "total discrete mass {total} exceeds 1"
            )));
        }
        let len = (self.dval.len() - off) as u32;
        self.push_header(PdfKind::Discrete, NO_DIST, 1.0, off as u32, len);
        Ok(())
    }

    /// Appends any `Pdf1`.
    pub fn push(&mut self, pdf: &Pdf1) {
        match pdf {
            Pdf1::Symbolic { dist, floor, scale } => {
                self.push_symbolic(*dist, floor.intervals(), *scale)
            }
            Pdf1::Histogram(h) => {
                self.push_histogram_unchecked(h.lo(), h.width(), h.masses().iter().copied())
            }
            Pdf1::Discrete(d) => self.push_discrete_unchecked(d.points().iter().copied()),
        }
    }

    /// Reconstructs record `i` as a scalar `Pdf1`, bit-for-bit equal to the
    /// value that was packed (plus any kernel mutations applied since).
    pub fn get(&self, i: usize) -> Pdf1 {
        match self.kind[i] {
            PdfKind::Symbolic => Pdf1::Symbolic {
                dist: self.dist[i],
                floor: RegionSet::from_intervals(self.floor_slice(i).collect()),
                scale: self.scale[i],
            },
            PdfKind::Histogram => Pdf1::Histogram(Histogram::from_parts_unchecked(
                self.hlo[i],
                self.hwidth[i],
                self.hmass_window(i).to_vec(),
            )),
            PdfKind::Discrete => {
                let (vals, probs) = self.discrete_window(i);
                Pdf1::Discrete(DiscretePdf::from_sorted_points_unchecked(
                    vals.iter().copied().zip(probs.iter().copied()).collect(),
                ))
            }
        }
    }

    fn floor_slice(&self, i: usize) -> impl Iterator<Item = Interval> + '_ {
        let (o, n) = (self.floor_off[i] as usize, self.floor_len[i] as usize);
        self.floor_lo[o..o + n]
            .iter()
            .zip(&self.floor_hi[o..o + n])
            .map(|(&lo, &hi)| Interval::new(lo, hi))
    }

    fn hmass_window(&self, i: usize) -> &[f64] {
        let (o, n) = (self.off[i] as usize, self.len[i] as usize);
        &self.hmass[o..o + n]
    }

    fn discrete_window(&self, i: usize) -> (&[f64], &[f64]) {
        let (o, n) = (self.off[i] as usize, self.len[i] as usize);
        (&self.dval[o..o + n], &self.dprob[o..o + n])
    }

    /// Total probability mass of record `i` (scalar [`Pdf1::mass`]).
    pub fn mass_at(&self, i: usize) -> f64 {
        match self.kind[i] {
            PdfKind::Symbolic => {
                let dist = self.dist[i];
                let floored: f64 = self.floor_slice(i).map(|iv| dist.interval_prob(&iv)).sum();
                self.scale[i] * (1.0 - floored).max(0.0)
            }
            PdfKind::Histogram => self.hmass_window(i).iter().sum(),
            PdfKind::Discrete => self.discrete_window(i).1.iter().sum(),
        }
    }

    /// Mass kernel: `out[i] = mass_at(i)` for every record.
    pub fn mass_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push(self.mass_at(i));
        }
    }

    /// Mass kernel over a selection vector: `out[j] = mass_at(sel[j])`.
    pub fn mass_sel_into(&self, sel: &[u32], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(sel.len());
        for &i in sel {
            out.push(self.mass_at(i as usize));
        }
    }

    /// Pairwise naive product kernel: `out[i] = self.mass(i) * other.mass(i)`
    /// (the independence product used when histories are off).
    pub fn product_mass_into(&self, other: &Pdf1Batch, out: &mut Vec<f64>) {
        assert_eq!(self.len(), other.len(), "product over unequal batches");
        self.mass_into(out);
        let mut mb = Vec::with_capacity(other.len());
        other.mass_into(&mut mb);
        for (a, b) in out.iter_mut().zip(&mb) {
            *a *= b;
        }
    }

    /// Range-probability kernel (the paper's range-query primitive):
    /// `out[i] = get(i).range_prob(iv)`. Gaussian cdf evaluations across
    /// the batch are funneled through [`special::std_normal_cdf_slice`].
    /// Allocation-free when the batch holds no Gaussian records.
    pub fn range_prob_into(&self, iv: &Interval, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.len(), 0.0);
        let mut gauss: Vec<(u32, u32)> = Vec::new();
        for (i, o) in out.iter_mut().enumerate() {
            match self.kind[i] {
                PdfKind::Symbolic => match self.dist[i] {
                    Symbolic::Gaussian { .. } => gauss.push((i as u32, i as u32)),
                    dist => *o = self.symbolic_range_nongauss(i, &dist, iv),
                },
                PdfKind::Histogram => *o = self.hist_range_prob(i, iv),
                PdfKind::Discrete => *o = self.discrete_range_prob(i, iv),
            }
        }
        self.gauss_range_lane(iv, &gauss, out);
    }

    /// Range-probability kernel over a selection vector:
    /// `out[j] = get(sel[j]).range_prob(iv)`.
    pub fn range_prob_sel_into(&self, iv: &Interval, sel: &[u32], out: &mut Vec<f64>) {
        out.clear();
        out.resize(sel.len(), 0.0);
        let mut gauss: Vec<(u32, u32)> = Vec::new();
        for (j, &rec) in sel.iter().enumerate() {
            let i = rec as usize;
            match self.kind[i] {
                PdfKind::Symbolic => match self.dist[i] {
                    Symbolic::Gaussian { .. } => gauss.push((rec, j as u32)),
                    dist => out[j] = self.symbolic_range_nongauss(i, &dist, iv),
                },
                PdfKind::Histogram => out[j] = self.hist_range_prob(i, iv),
                PdfKind::Discrete => out[j] = self.discrete_range_prob(i, iv),
            }
        }
        self.gauss_range_lane(iv, &gauss, out);
    }

    /// Scalar range probability of a non-Gaussian symbolic record
    /// (replicates [`Pdf1::range_prob`]'s symbolic arm).
    fn symbolic_range_nongauss(&self, i: usize, dist: &Symbolic, iv: &Interval) -> f64 {
        let mut p = dist.interval_prob(iv);
        for f in self.floor_slice(i) {
            if let Some(x) = f.intersect(iv) {
                p -= dist.interval_prob(&x);
            }
        }
        self.scale[i] * p.max(0.0)
    }

    /// Replicates [`Histogram::range_prob`] over the arena window.
    fn hist_range_prob(&self, i: usize, iv: &Interval) -> f64 {
        (self.hist_cumulative(i, iv.hi) - self.hist_cumulative(i, iv.lo)).max(0.0)
    }

    /// Finishes the Gaussian `(record, out slot)` pairs of a range-prob
    /// call as one cdf lane: z-values for (hi, lo) per record, evaluated by
    /// the vectorized slice kernel (bitwise-identical to the scalar
    /// `std_normal_cdf`). Floor corrections are rare and stay scalar — the
    /// scalar path computes them with the same calls.
    fn gauss_range_lane(&self, iv: &Interval, gauss: &[(u32, u32)], out: &mut [f64]) {
        if gauss.is_empty() {
            return;
        }
        let mut zs = Vec::with_capacity(gauss.len() * 2);
        for &(rec, _) in gauss {
            let Symbolic::Gaussian { mean, variance } = self.dist[rec as usize] else {
                unreachable!("gauss list holds gaussians")
            };
            zs.push((iv.hi - mean) / variance.sqrt());
            zs.push((iv.lo - mean) / variance.sqrt());
        }
        let mut phi = vec![0.0; zs.len()];
        special::std_normal_cdf_slice(&zs, &mut phi);
        for (k, &(rec, slot)) in gauss.iter().enumerate() {
            let i = rec as usize;
            let dist = self.dist[i];
            let mut p = (phi[2 * k] - phi[2 * k + 1]).max(0.0);
            for f in self.floor_slice(i) {
                if let Some(x) = f.intersect(iv) {
                    p -= dist.interval_prob(&x);
                }
            }
            out[slot as usize] = self.scale[i] * p.max(0.0);
        }
    }

    /// Cumulative kernel: `out[i] = get(i).cumulative(x)`, Gaussian mains
    /// batched through the vectorized cdf.
    pub fn cumulative_into(&self, x: f64, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.len(), 0.0);
        let mut gauss: Vec<u32> = Vec::new();
        for (i, o) in out.iter_mut().enumerate() {
            match self.kind[i] {
                PdfKind::Symbolic => match self.dist[i] {
                    Symbolic::Gaussian { .. } => gauss.push(i as u32),
                    dist => *o = self.symbolic_cumulative_tail(i, &dist, dist.cdf(x), x),
                },
                PdfKind::Histogram => *o = self.hist_cumulative(i, x),
                PdfKind::Discrete => {
                    let (vals, probs) = self.discrete_window(i);
                    // `-0.0` is `Iterator::sum`'s additive identity; starting
                    // there keeps empty prefixes bitwise-equal to the scalar.
                    let mut s = -0.0;
                    for (v, p) in vals.iter().zip(probs) {
                        if *v <= x {
                            s += p;
                        } else {
                            break;
                        }
                    }
                    *o = s;
                }
            }
        }
        if gauss.is_empty() {
            return;
        }
        let mut zs = Vec::with_capacity(gauss.len());
        for &i in &gauss {
            let Symbolic::Gaussian { mean, variance } = self.dist[i as usize] else {
                unreachable!("gauss list holds gaussians")
            };
            zs.push((x - mean) / variance.sqrt());
        }
        let mut phi = vec![0.0; zs.len()];
        special::std_normal_cdf_slice(&zs, &mut phi);
        for (k, &i) in gauss.iter().enumerate() {
            let i = i as usize;
            let dist = self.dist[i];
            out[i] = self.symbolic_cumulative_tail(i, &dist, phi[k], x);
        }
    }

    /// Floor corrections + scale for a symbolic cumulative whose main cdf
    /// value `c` has already been computed (scalar [`Pdf1::cumulative`]).
    fn symbolic_cumulative_tail(&self, i: usize, dist: &Symbolic, mut c: f64, x: f64) -> f64 {
        for iv in self.floor_slice(i) {
            if iv.lo > x {
                break;
            }
            let clipped = Interval::new(iv.lo, iv.hi.min(x));
            c -= dist.interval_prob(&clipped);
        }
        self.scale[i] * c.max(0.0)
    }

    /// Replicates [`Histogram::cumulative`] over the arena window.
    fn hist_cumulative(&self, i: usize, x: f64) -> f64 {
        let (lo, width) = (self.hlo[i], self.hwidth[i]);
        let masses = self.hmass_window(i);
        if x <= lo {
            return 0.0;
        }
        if x >= lo + width * masses.len() as f64 {
            return masses.iter().sum();
        }
        let pos = (x - lo) / width;
        let idx = (pos as usize).min(masses.len() - 1);
        let frac = pos - idx as f64;
        masses[..idx].iter().sum::<f64>() + masses[idx] * frac
    }

    /// Replicates [`DiscretePdf::range_prob`] over the arena windows.
    fn discrete_range_prob(&self, i: usize, iv: &Interval) -> f64 {
        let (vals, probs) = self.discrete_window(i);
        let start = vals.partition_point(|v| *v < iv.lo);
        // `-0.0` is `Iterator::sum`'s additive identity; starting there
        // keeps empty suffixes bitwise-equal to the scalar.
        let mut s = -0.0;
        for (v, p) in vals[start..].iter().zip(&probs[start..]) {
            if *v <= iv.hi {
                s += p;
            } else {
                break;
            }
        }
        s
    }

    /// Floor kernel: packs `get(i).floor_region(region)` for every record
    /// into `out` (cleared first). Symbolic floors stay symbolic (interval
    /// union), histogram buckets keep their surviving width fraction, and
    /// discrete points inside the region are dropped — exactly the scalar
    /// semantics.
    pub fn floor_region_batch(&self, region: &RegionSet, out: &mut Pdf1Batch) {
        out.clear();
        for i in 0..self.len() {
            match self.kind[i] {
                PdfKind::Symbolic => {
                    let floor = RegionSet::from_intervals(self.floor_slice(i).collect());
                    let united = floor.union(region);
                    out.push_symbolic(self.dist[i], united.intervals(), self.scale[i]);
                }
                PdfKind::Histogram => {
                    let (lo, width) = (self.hlo[i], self.hwidth[i]);
                    let off = out.hmass.len() as u32;
                    for (k, &m0) in self.hmass_window(i).iter().enumerate() {
                        let mut m = m0;
                        if m != 0.0 {
                            let b_lo = lo + k as f64 * width;
                            let bucket = Interval::new(b_lo, b_lo + width);
                            let mut removed = 0.0;
                            for riv in region.intervals() {
                                if let Some(x) = bucket.intersect(riv) {
                                    removed += x.length();
                                }
                            }
                            let kept = ((width - removed) / width).clamp(0.0, 1.0);
                            m *= kept;
                        }
                        out.hmass.push(m);
                    }
                    out.push_header(
                        PdfKind::Histogram,
                        NO_DIST,
                        1.0,
                        off,
                        out.hmass.len() as u32 - off,
                    );
                    let n = out.kind.len() - 1;
                    out.hlo[n] = lo;
                    out.hwidth[n] = width;
                }
                PdfKind::Discrete => {
                    let (vals, probs) = self.discrete_window(i);
                    let off = out.dval.len() as u32;
                    for (v, p) in vals.iter().zip(probs) {
                        if !region.contains(*v) {
                            out.dval.push(*v);
                            out.dprob.push(*p);
                        }
                    }
                    out.push_header(
                        PdfKind::Discrete,
                        NO_DIST,
                        1.0,
                        off,
                        out.dval.len() as u32 - off,
                    );
                }
            }
        }
    }

    /// Scale kernel: multiplies every record's densities by `factor` in
    /// place (scalar [`Pdf1::scale`]) — three flat passes over the arenas.
    pub fn scale_all(&mut self, factor: f64) {
        for s in &mut self.scale {
            *s *= factor;
        }
        for m in &mut self.hmass {
            *m *= factor;
        }
        for p in &mut self.dprob {
            *p *= factor;
        }
    }

    /// Marginalization fold: applies the dropped-block mass `dm[i]` to
    /// record `i` exactly as `JointPdf::marginalize` folds dropped blocks
    /// into the first kept one — scale by `dm.max(0.0)` only when `dm < 1`.
    pub fn marginalize_fold(&mut self, dropped_mass: &[f64]) {
        assert_eq!(dropped_mass.len(), self.len(), "marginalize_fold length mismatch");
        for (i, &dm) in dropped_mass.iter().enumerate() {
            if dm < 1.0 {
                let f = dm.max(0.0);
                match self.kind[i] {
                    PdfKind::Symbolic => self.scale[i] *= f,
                    PdfKind::Histogram => {
                        let (o, n) = (self.off[i] as usize, self.len[i] as usize);
                        for m in &mut self.hmass[o..o + n] {
                            *m *= f;
                        }
                    }
                    PdfKind::Discrete => {
                        let (o, n) = (self.off[i] as usize, self.len[i] as usize);
                        for p in &mut self.dprob[o..o + n] {
                            *p *= f;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_batch() -> (Vec<Pdf1>, Pdf1Batch) {
        let pdfs = vec![
            Pdf1::gaussian(20.0, 5.0).unwrap(),
            Pdf1::gaussian(5.0, 1.0)
                .unwrap()
                .floor_region(&RegionSet::from_interval(Interval::at_least(5.0))),
            Pdf1::histogram(0.0, 1.0, vec![0.1, 0.2, 0.3, 0.4]).unwrap(),
            Pdf1::discrete(vec![(1.0, 0.25), (2.0, 0.5), (3.0, 0.25)]).unwrap(),
            Pdf1::symbolic(Symbolic::uniform(2.0, 6.0).unwrap()),
            Pdf1::symbolic(Symbolic::binomial(4, 0.5).unwrap()),
        ];
        let mut b = Pdf1Batch::new();
        for p in &pdfs {
            b.push(p);
        }
        (pdfs, b)
    }

    #[test]
    fn roundtrip_is_exact() {
        let (pdfs, b) = mixed_batch();
        assert_eq!(b.len(), pdfs.len());
        for (i, p) in pdfs.iter().enumerate() {
            assert_eq!(&b.get(i), p);
        }
    }

    #[test]
    fn mass_kernel_bitwise() {
        let (pdfs, b) = mixed_batch();
        let mut out = Vec::new();
        b.mass_into(&mut out);
        for (i, p) in pdfs.iter().enumerate() {
            assert_eq!(out[i].to_bits(), p.mass().to_bits(), "record {i}");
        }
    }

    #[test]
    fn range_prob_kernel_bitwise() {
        let (pdfs, b) = mixed_batch();
        let mut out = Vec::new();
        for iv in [
            Interval::new(1.5, 4.5),
            Interval::new(-100.0, 100.0),
            Interval::at_most(3.0),
            Interval::at_least(19.0),
            Interval::point(2.0),
        ] {
            b.range_prob_into(&iv, &mut out);
            for (i, p) in pdfs.iter().enumerate() {
                assert_eq!(out[i].to_bits(), p.range_prob(&iv).to_bits(), "record {i}, {iv:?}");
            }
        }
    }

    #[test]
    fn selection_vector_kernels() {
        let (pdfs, b) = mixed_batch();
        let sel = [3u32, 0, 5];
        let mut out = Vec::new();
        b.mass_sel_into(&sel, &mut out);
        assert_eq!(out.len(), 3);
        for (j, &i) in sel.iter().enumerate() {
            assert_eq!(out[j].to_bits(), pdfs[i as usize].mass().to_bits());
        }
        let iv = Interval::new(0.5, 21.0);
        b.range_prob_sel_into(&iv, &sel, &mut out);
        for (j, &i) in sel.iter().enumerate() {
            assert_eq!(out[j].to_bits(), pdfs[i as usize].range_prob(&iv).to_bits());
        }
        // All-filtered selection: empty in, empty out.
        b.mass_sel_into(&[], &mut out);
        assert!(out.is_empty());
        b.range_prob_sel_into(&iv, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn checked_pushers_match_scalar_constructors() {
        let mut b = Pdf1Batch::new();
        b.push_histogram_checked(0.0, 1.0, [0.1, 0.2, 0.3].into_iter()).unwrap();
        assert_eq!(b.get(0), Pdf1::histogram(0.0, 1.0, vec![0.1, 0.2, 0.3]).unwrap());
        // Canonical discrete input streams straight into the arena.
        b.push_discrete_checked([(1.0, 0.25), (2.0, 0.5)].into_iter()).unwrap();
        assert_eq!(b.get(1), Pdf1::discrete(vec![(1.0, 0.25), (2.0, 0.5)]).unwrap());
        // Non-canonical input (unsorted, duplicate, zero) falls back to the
        // scalar sort/merge and lands on the identical result.
        b.push_discrete_checked([(2.0, 0.1), (1.0, 0.3), (2.0, 0.2), (3.0, 0.0)].into_iter())
            .unwrap();
        assert_eq!(
            b.get(2),
            Pdf1::discrete(vec![(2.0, 0.1), (1.0, 0.3), (2.0, 0.2), (3.0, 0.0)]).unwrap()
        );
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn checked_pushers_report_scalar_errors_and_roll_back() {
        let mut b = Pdf1Batch::new();
        b.push(&Pdf1::certain(7.0));
        type PushCase = (fn(&mut Pdf1Batch) -> crate::error::Result<()>, PdfError);
        let cases: [PushCase; 5] = [
            (
                |b| b.push_histogram_checked(f64::NAN, 1.0, [0.5].into_iter()),
                Histogram::from_masses(f64::NAN, 1.0, vec![0.5]).unwrap_err(),
            ),
            (
                |b| b.push_histogram_checked(0.0, 1.0, [0.5, -0.1].into_iter()),
                Histogram::from_masses(0.0, 1.0, vec![0.5, -0.1]).unwrap_err(),
            ),
            (
                |b| b.push_histogram_checked(0.0, 1.0, std::iter::empty()),
                Histogram::from_masses(0.0, 1.0, vec![]).unwrap_err(),
            ),
            (
                |b| b.push_histogram_checked(0.0, 1.0, [0.7, 0.7].into_iter()),
                Histogram::from_masses(0.0, 1.0, vec![0.7, 0.7]).unwrap_err(),
            ),
            (
                |b| b.push_discrete_checked([(0.0, 0.6), (1.0, 0.6)].into_iter()),
                DiscretePdf::from_points(vec![(0.0, 0.6), (1.0, 0.6)]).unwrap_err(),
            ),
        ];
        for (push, want) in cases {
            assert_eq!(push(&mut b).unwrap_err(), want);
        }
        assert_eq!(
            b.push_discrete_checked([(f64::NAN, 0.5)].into_iter()).unwrap_err(),
            DiscretePdf::from_points(vec![(f64::NAN, 0.5)]).unwrap_err()
        );
        // Every failure rolled back: the batch still holds only the first
        // record, and a subsequent push lands cleanly on the arena.
        assert_eq!(b.len(), 1);
        b.push_discrete_checked([(4.0, 1.0)].into_iter()).unwrap();
        assert_eq!(b.get(1), Pdf1::discrete(vec![(4.0, 1.0)]).unwrap());
    }

    #[test]
    fn bulk_checked_discrete_matches_streaming() {
        // Canonical, non-canonical (unsorted / duplicate / zero / NaN /
        // over-mass) and empty inputs: the bulk pusher must land on the
        // same records and the same errors as the streaming pusher, with
        // the same rollback behavior.
        let cases: Vec<Vec<(f64, f64)>> = vec![
            vec![(1.0, 0.25), (2.0, 0.5)],
            vec![(2.0, 0.1), (1.0, 0.3), (2.0, 0.2), (3.0, 0.0)],
            vec![(0.0, 0.6), (1.0, 0.6)],
            vec![(f64::NAN, 0.5)],
            vec![(1.0, f64::NAN)],
            vec![(1.0, -0.5)],
            vec![(f64::INFINITY, 0.5)],
            vec![],
            vec![(4.0, 1.0)],
        ];
        let mut streaming = Pdf1Batch::new();
        let mut bulk = Pdf1Batch::new();
        for pts in &cases {
            let a = streaming.push_discrete_checked(pts.iter().copied());
            let b = bulk.push_discrete_checked_bulk(pts.iter().copied());
            assert_eq!(a, b, "points {pts:?}");
        }
        assert_eq!(streaming.len(), bulk.len());
        for i in 0..streaming.len() {
            assert_eq!(streaming.get(i), bulk.get(i), "record {i}");
        }
    }

    #[test]
    fn clear_reuses_arena() {
        let (_, mut b) = mixed_batch();
        b.clear();
        assert!(b.is_empty());
        b.push(&Pdf1::certain(7.0));
        assert_eq!(b.len(), 1);
        assert_eq!(b.mass_at(0), 1.0);
    }
}

//! Joint (multi-attribute) probability distributions.
//!
//! A [`JointPdf`] represents the distribution of one *dependency set*: the
//! jointly-distributed uncertain attributes of a tuple (paper Section II-A).
//! Internally it is a product of **independent blocks**; each block is a
//! correlated unit — a single 1-D pdf, an explicit joint pmf over points, or
//! a k-dimensional grid. Independent attributes each live in their own
//! block; a selection predicate spanning blocks merges them into one
//! correlated block (the materialization the paper's `product` + `floor`
//! pipeline performs).

mod grid;
mod points;

pub use grid::{GridDim, JointGrid};
pub use points::JointDiscrete;

use crate::discrete::DiscretePdf;
use crate::error::{PdfError, Result};
use crate::histogram::Histogram;
use crate::interval::{Interval, RegionSet};
use crate::pdf1d::{Pdf1, VACUOUS_EPS};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Default grid resolution (bins per dimension) used when a continuous
/// dependency set must be materialized onto a grid.
pub const DEFAULT_GRID_BINS: usize = 64;

/// A correlated unit inside a [`JointPdf`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Block {
    /// A single-attribute pdf.
    Uni(Pdf1),
    /// A correlated joint pmf over explicit points.
    Points(JointDiscrete),
    /// A correlated continuous grid.
    Grid(JointGrid),
}

impl Block {
    fn arity(&self) -> usize {
        match self {
            Block::Uni(_) => 1,
            Block::Points(j) => j.arity(),
            Block::Grid(g) => g.arity(),
        }
    }

    fn mass(&self) -> f64 {
        match self {
            Block::Uni(p) => p.mass(),
            Block::Points(j) => j.mass(),
            Block::Grid(g) => g.mass(),
        }
    }

    fn density(&self, point: &[f64]) -> f64 {
        match self {
            Block::Uni(p) => p.density(point[0]),
            Block::Points(j) => j.prob_at(point),
            Block::Grid(g) => g.density(point),
        }
    }

    fn scale(&self, factor: f64) -> Block {
        match self {
            Block::Uni(p) => Block::Uni(p.scale(factor)),
            Block::Points(j) => Block::Points(j.scale(factor)),
            Block::Grid(g) => Block::Grid(g.scale(factor)),
        }
    }

    fn box_prob(&self, bounds: &[Interval]) -> f64 {
        match self {
            Block::Uni(p) => p.range_prob(&bounds[0]),
            Block::Points(j) => j.box_prob(bounds),
            Block::Grid(g) => g.box_prob(bounds),
        }
    }

    fn expected(&self, dim: usize) -> Option<f64> {
        match self {
            Block::Uni(p) => p.expected_value(),
            Block::Points(j) => j.expected(dim),
            Block::Grid(g) => g.expected(dim),
        }
    }

    /// Whether every dimension of the block has a finite, enumerable
    /// discrete support.
    fn is_enumerable(&self) -> bool {
        match self {
            Block::Uni(p) => p.enumerate().is_ok(),
            Block::Points(_) => true,
            Block::Grid(_) => false,
        }
    }

    /// Enumerates the block as an explicit joint pmf (discrete blocks only).
    fn enumerate(&self) -> Result<Cow<'_, JointDiscrete>> {
        match self {
            Block::Uni(p) => {
                let (coords, probs) = p.enumerate()?.points().iter().copied().unzip();
                JointDiscrete::from_flat(1, coords, probs).map(Cow::Owned)
            }
            Block::Points(j) => Ok(Cow::Borrowed(j)),
            Block::Grid(_) => Err(PdfError::IncompatibleOperands(
                "cannot enumerate a continuous grid block".into(),
            )),
        }
    }

    /// Materializes the block onto a grid with `bins` cells per dimension.
    fn to_grid(&self, bins: usize) -> Result<JointGrid> {
        match self {
            Block::Uni(p) => {
                let h = p
                    .to_histogram(bins)
                    .ok_or_else(|| PdfError::VacuousResult("cannot grid a vacuous pdf".into()))?;
                let dim = GridDim::over(h.lo(), h.hi(), h.bins())?;
                JointGrid::from_masses(vec![dim], h.masses().to_vec())
            }
            Block::Points(j) => {
                // Quantize points onto a grid covering the support.
                let arity = j.arity();
                let mut lo = vec![f64::INFINITY; arity];
                let mut hi = vec![f64::NEG_INFINITY; arity];
                for (v, _) in j.points() {
                    for d in 0..arity {
                        lo[d] = lo[d].min(v[d]);
                        hi[d] = hi[d].max(v[d]);
                    }
                }
                let dims: Vec<GridDim> = (0..arity)
                    .map(|d| {
                        let (l, h) =
                            if lo[d] < hi[d] { (lo[d], hi[d]) } else { (lo[d] - 0.5, hi[d] + 0.5) };
                        // Widen slightly so max points land inside.
                        let pad = (h - l) * 1e-9;
                        GridDim::over(l - pad, h + pad, bins)
                    })
                    .collect::<Result<_>>()?;
                let cells: usize = dims.iter().map(|d| d.bins).product();
                let mut masses = vec![0.0; cells];
                for (v, p) in j.points() {
                    let mut c = 0usize;
                    for d in 0..arity {
                        c = c * dims[d].bins
                            + dims[d].cell_of(v[d]).expect("support point inside grid");
                    }
                    masses[c] += p;
                }
                JointGrid::from_masses(dims, masses)
            }
            Block::Grid(g) => Ok(g.clone()),
        }
    }
}

/// A joint distribution over an ordered list of dimensions, stored as a
/// product of independent correlated blocks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointPdf {
    blocks: Vec<Block>,
}

impl JointPdf {
    /// A joint with a single 1-D attribute.
    pub fn from_pdf1(p: Pdf1) -> Self {
        JointPdf { blocks: vec![Block::Uni(p)] }
    }

    /// A joint from an explicit correlated pmf.
    pub fn from_points(j: JointDiscrete) -> Self {
        JointPdf { blocks: vec![Block::Points(j)] }
    }

    /// A joint from a correlated continuous grid.
    pub fn from_grid(g: JointGrid) -> Self {
        JointPdf { blocks: vec![Block::Grid(g)] }
    }

    /// A joint of independent 1-D attributes (one block each).
    pub fn independent(pdfs: Vec<Pdf1>) -> Result<Self> {
        if pdfs.is_empty() {
            return Err(PdfError::InvalidParameter("joint needs >= 1 dimension".into()));
        }
        Ok(JointPdf { blocks: pdfs.into_iter().map(Block::Uni).collect() })
    }

    /// The internal blocks (mainly for inspection and size accounting).
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Total number of dimensions.
    pub fn arity(&self) -> usize {
        self.blocks.iter().map(Block::arity).sum()
    }

    /// Total probability mass = product of block masses (< 1 when any floor
    /// has removed possible worlds — the tuple-existence probability).
    pub fn mass(&self) -> f64 {
        self.blocks.iter().map(Block::mass).product()
    }

    /// Whether effectively no possible world retains this tuple.
    pub fn is_vacuous(&self) -> bool {
        self.mass() < VACUOUS_EPS
    }

    /// Joint density at `point` (dimension order = block order).
    pub fn density(&self, point: &[f64]) -> f64 {
        assert_eq!(point.len(), self.arity(), "point dimensionality mismatch");
        let mut acc = 1.0;
        let mut off = 0;
        for b in &self.blocks {
            let k = b.arity();
            acc *= b.density(&point[off..off + k]);
            if acc == 0.0 {
                return 0.0;
            }
            off += k;
        }
        acc
    }

    /// Maps a global dimension index to `(block index, offset in block)`.
    fn locate(&self, dim: usize) -> (usize, usize) {
        let mut off = 0;
        for (i, b) in self.blocks.iter().enumerate() {
            let k = b.arity();
            if dim < off + k {
                return (i, dim - off);
            }
            off += k;
        }
        panic!("dimension {dim} out of range for arity {}", self.arity());
    }

    /// Independent product of two joints (paper `product`, historically
    /// independent case): concatenates dimensions.
    pub fn product(&self, other: &JointPdf) -> JointPdf {
        let mut blocks = Vec::with_capacity(self.blocks.len() + other.blocks.len());
        blocks.extend(self.blocks.iter().chain(&other.blocks).cloned());
        JointPdf { blocks }
    }

    /// Axis-aligned floor on one dimension — stays within the block
    /// representation (symbolic floors stay symbolic).
    pub fn floor_axis(&self, dim: usize, region: &RegionSet) -> JointPdf {
        let (bi, off) = self.locate(dim);
        let floored = match &self.blocks[bi] {
            Block::Uni(p) => Block::Uni(p.floor_region(region)),
            Block::Points(j) => Block::Points(j.filter(|v| !region.contains(v[off]))),
            Block::Grid(g) => Block::Grid(g.floor_axis(off, region)),
        };
        self.replace_blocks(&[bi], floored)
    }

    /// The mass [`JointPdf::floor_axis`] would leave after flooring each
    /// `(dim, region)` of `floors` in turn, read without building the
    /// floored joint. Every floored block is floored by its own regions in
    /// order and the block masses multiply in block order, with the
    /// arithmetic of `floor_axis(..).mass()`, so the result is
    /// bit-identical to it.
    ///
    /// `None` when a floored dimension lies in a `Points` or `Grid` block,
    /// or is out of range: callers then floor for real.
    pub fn floored_mass(&self, floors: &[(usize, &RegionSet)]) -> Option<f64> {
        let mut mass = 1.0;
        let mut start = 0;
        for b in &self.blocks {
            let end = start + b.arity();
            mass *= match b {
                _ if !floors.iter().any(|&(d, _)| (start..end).contains(&d)) => b.mass(),
                Block::Uni(p) => p.floored_mass(floors, start)?,
                Block::Points(_) | Block::Grid(_) => return None,
            };
            start = end;
        }
        floors.iter().all(|&(d, _)| d < start).then_some(mass)
    }

    /// General floor over an arbitrary predicate on the listed dimensions
    /// (global indices, in the order the predicate expects them).
    ///
    /// Blocks touched by `dims` are merged into a single correlated block
    /// first: exactly (joint pmf) when all are enumerable, else onto a grid
    /// with `resolution` bins per dimension. This implements the paper's
    /// selection Case 2(b): `product` over the contributing dependency sets
    /// followed by `floor` where the predicate is false.
    pub fn floor_predicate(
        &self,
        dims: &[usize],
        resolution: usize,
        mut pred: impl FnMut(&[f64]) -> bool,
    ) -> Result<JointPdf> {
        if dims.is_empty() {
            return Ok(self.clone());
        }
        // The touched blocks merge into one, whose dimensions are theirs in
        // block order; find each predicate dimension's offset in it.
        let touched = self.touched_blocks(dims);
        let offsets: Vec<usize> = dims
            .iter()
            .map(|&d| {
                let (bi, off) = self.locate(d);
                let before = touched.iter().take_while(|&&t| t != bi);
                before.map(|&t| self.blocks[t].arity()).sum::<usize>() + off
            })
            .collect();
        let mut args = vec![0.0; offsets.len()];
        let mut keep = |v: &[f64]| {
            for (a, &o) in args.iter_mut().zip(&offsets) {
                *a = v[o];
            }
            pred(&args)
        };
        let enumerable =
            touched.len() > 1 && touched.iter().all(|&i| self.blocks[i].is_enumerable());
        let floored = match touched.split_last() {
            // Discrete blocks: filter their product as it is formed.
            Some((last, init)) if enumerable => {
                let head = enumerate_blocks(init.iter().map(|&i| &self.blocks[i]))?;
                Block::Points(product_filter(&head, &self.blocks[*last], keep)?)
            }
            _ => match self.merged_block(&touched, resolution)?.as_ref() {
                // Single dim: evaluate by filtering (exact for discrete,
                // region-free fallback via enumerate/histogram otherwise).
                Block::Uni(p) => match p.enumerate() {
                    Ok(d) => Block::Uni(Pdf1::Discrete(d.filter(|v| keep(&[v])))),
                    Err(_) => {
                        let g = Block::Uni(p.clone()).to_grid(resolution)?;
                        Block::Grid(g.floor_predicate(keep))
                    }
                },
                Block::Points(j) => Block::Points(j.filter(keep)),
                Block::Grid(g) => Block::Grid(g.floor_predicate(keep)),
            },
        };
        Ok(self.replace_blocks(&touched, floored))
    }

    /// Merges all blocks containing any of `dims` into a single correlated
    /// block, preserving the global dimension order.
    ///
    /// Exact (joint pmf) when every touched block is enumerable; otherwise
    /// materialized onto a grid with `resolution` bins per dimension.
    pub fn merge_dims(&self, dims: &[usize], resolution: usize) -> Result<JointPdf> {
        let touched = self.touched_blocks(dims);
        if touched.len() <= 1 {
            return Ok(self.clone());
        }
        // NOTE: dimension order changes when merged blocks were not
        // adjacent: the merged block occupies the first touched slot and
        // carries all touched dims in their original relative order. Global
        // order is preserved **within** the merged block, but dims of
        // untouched blocks that sat between touched blocks now come after
        // the merged block. Callers that care about global order must use
        // `dim_order_after_merge` to build the permutation.
        let merged = self.merged_block(&touched, resolution)?.into_owned();
        Ok(self.replace_blocks(&touched, merged))
    }

    /// The sorted, distinct indices of the blocks holding `dims`.
    fn touched_blocks(&self, dims: &[usize]) -> Vec<usize> {
        let mut v: Vec<usize> = dims.iter().map(|&d| self.locate(d).0).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The touched blocks (>= 1) as one correlated block over their
    /// dimensions in block order: borrowed when there is one, exact (joint
    /// pmf) when every one is enumerable, else materialized onto a grid with
    /// `resolution` bins per dimension.
    fn merged_block(&self, touched: &[usize], resolution: usize) -> Result<Cow<'_, Block>> {
        if let [only] = touched {
            return Ok(Cow::Borrowed(&self.blocks[*only]));
        }
        if touched.iter().all(|&i| self.blocks[i].is_enumerable()) {
            let joint = enumerate_blocks(touched.iter().map(|&i| &self.blocks[i]))?;
            return Ok(Cow::Owned(Block::Points(joint.into_owned())));
        }
        let mut acc: Option<JointGrid> = None;
        for &i in touched {
            let g = self.blocks[i].to_grid(resolution)?;
            acc = Some(match acc {
                None => g,
                Some(a) => a.product(&g),
            });
        }
        Ok(Cow::Owned(Block::Grid(acc.expect("non-empty merge set"))))
    }

    /// This joint with the `touched` blocks (sorted, >= 1) replaced by
    /// `merged`, placed in the first touched slot; every other block is
    /// copied.
    fn replace_blocks(&self, touched: &[usize], merged: Block) -> JointPdf {
        let mut merged = Some(merged);
        let blocks = (0..self.blocks.len())
            .filter_map(|i| match touched.binary_search(&i) {
                Ok(0) => merged.take(),
                Ok(_) => None,
                Err(_) => Some(self.blocks[i].clone()),
            })
            .collect();
        JointPdf { blocks }
    }

    /// Returns, for a merge over `dims`, the new global order of the
    /// original dimensions: `result[i]` is the original index of the
    /// dimension now at position `i`.
    pub fn dim_order_after_merge(&self, dims: &[usize]) -> Vec<usize> {
        let touched = self.touched_blocks(dims);
        if touched.len() <= 1 {
            return (0..self.arity()).collect();
        }
        let mut order = Vec::with_capacity(self.arity());
        let mut block_start = vec![0usize; self.blocks.len()];
        let mut off = 0;
        for (i, b) in self.blocks.iter().enumerate() {
            block_start[i] = off;
            off += b.arity();
        }
        for (i, b) in self.blocks.iter().enumerate() {
            if i == touched[0] {
                for &t in &touched {
                    let s = block_start[t];
                    order.extend(s..s + self.blocks[t].arity());
                }
            } else if !touched.contains(&i) {
                let s = block_start[i];
                order.extend(s..s + b.arity());
            }
        }
        order
    }

    /// Marginalizes onto the given (global) dimensions, in the given order.
    /// The mass of fully-integrated-out blocks (their existence
    /// probability) is folded into the result, so total mass is preserved.
    pub fn marginalize(&self, keep: &[usize]) -> Result<JointPdf> {
        if keep.is_empty() {
            return Err(PdfError::IncompatibleOperands(
                "marginalize requires >= 1 kept dimension".into(),
            ));
        }
        // Identity marginalization is a clone.
        if keep.len() == self.arity() && keep.iter().enumerate().all(|(i, &d)| i == d) {
            return Ok(self.clone());
        }
        if let Some(d) = keep.iter().find(|&&d| d >= self.arity()) {
            panic!("dimension {d} out of range for arity {}", self.arity());
        }
        // Group kept dims by block, preserving requested order per block.
        let mut new_blocks: Vec<Block> = Vec::new();
        let mut dropped_mass = 1.0;
        let mut start = 0;
        for b in &self.blocks {
            let end = start + b.arity();
            let kept_offsets: Vec<usize> =
                keep.iter().filter(|d| (start..end).contains(*d)).map(|d| d - start).collect();
            start = end;
            if kept_offsets.is_empty() {
                dropped_mass *= b.mass();
                continue;
            }
            let nb = match b {
                Block::Uni(p) => Block::Uni(p.clone()),
                Block::Points(j) => Block::Points(j.marginalize(&kept_offsets)?),
                Block::Grid(g) => Block::Grid(g.marginalize(&kept_offsets)?),
            };
            new_blocks.push(nb);
        }
        if new_blocks.is_empty() {
            return Err(PdfError::IncompatibleOperands("all dimensions were dropped".into()));
        }
        if dropped_mass < 1.0 {
            new_blocks[0] = new_blocks[0].scale(dropped_mass.max(0.0));
        }
        Ok(JointPdf { blocks: new_blocks })
    }

    /// Extracts the 1-D marginal of a single dimension as a [`Pdf1`],
    /// carrying the full joint existence mass.
    pub fn marginal1(&self, dim: usize) -> Result<Pdf1> {
        let m = self.marginalize(&[dim])?;
        debug_assert_eq!(m.arity(), 1);
        match &m.blocks[0] {
            Block::Uni(p) => Ok(p.clone()),
            Block::Points(j) => {
                // The points are sorted and distinct already; zero masses
                // are all `DiscretePdf::from_points` would drop.
                let pts = j.points().filter(|&(_, p)| p != 0.0).map(|(v, p)| (v[0], p)).collect();
                Ok(Pdf1::Discrete(DiscretePdf::from_sorted_points_unchecked(pts)))
            }
            Block::Grid(g) => {
                debug_assert_eq!(g.arity(), 1);
                let d = g.dims()[0];
                Ok(Pdf1::Histogram(Histogram::from_masses(d.lo, d.width, g.masses().to_vec())?))
            }
        }
    }

    /// Probability that each listed dimension lies within its interval
    /// (and the tuple exists). Unlisted dimensions are unconstrained.
    pub fn box_prob(&self, constraints: &[(usize, Interval)]) -> f64 {
        let mut per_block: Vec<Vec<Interval>> =
            self.blocks.iter().map(|b| vec![Interval::all(); b.arity()]).collect();
        for &(d, iv) in constraints {
            let (bi, off) = self.locate(d);
            per_block[bi][off] = match per_block[bi][off].intersect(&iv) {
                Some(x) => x,
                None => return 0.0,
            };
        }
        self.blocks.iter().zip(&per_block).map(|(b, bounds)| b.box_prob(bounds)).product()
    }

    /// Expected value of one dimension, conditioned on existence.
    pub fn expected(&self, dim: usize) -> Option<f64> {
        if self.is_vacuous() {
            return None;
        }
        let (bi, off) = self.locate(dim);
        self.blocks[bi].expected(off)
    }

    /// Rescales the joint mass by `factor` in `[0, 1]`.
    pub fn scale(&self, factor: f64) -> JointPdf {
        let mut blocks = self.blocks.clone();
        if let Some(b) = blocks.first_mut() {
            *b = b.scale(factor);
        }
        JointPdf { blocks }
    }

    /// Enumerates the whole joint as an explicit pmf (all-discrete joints
    /// only) — the entry point for the possible-worlds reference engine.
    pub fn enumerate(&self) -> Result<JointDiscrete> {
        Ok(enumerate_blocks(self.blocks.iter())?.into_owned())
    }

    /// Serialized-size proxy: total `f64` parameters across blocks.
    pub fn param_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| match b {
                Block::Uni(p) => p.param_count(),
                Block::Points(j) => j.len() * (j.arity() + 1),
                Block::Grid(g) => g.masses().len() + 3 * g.arity(),
            })
            .sum()
    }
}

/// `head.product(&tail.enumerate()?).filter(keep)` for an enumerable
/// `tail`, without forming the points `keep` rejects or copying a `Uni`
/// tail into a joint first.
fn product_filter(
    head: &JointDiscrete,
    tail: &Block,
    keep: impl FnMut(&[f64]) -> bool,
) -> Result<JointDiscrete> {
    match tail {
        // A discrete pdf's values are sorted and distinct: enumerating it
        // only drops its zero masses.
        Block::Uni(p) => {
            let d = p.enumerate()?;
            let points = d.points().iter().filter(|(_, p)| *p != 0.0);
            Ok(filtered_product(head, points.map(|(v, p)| (std::slice::from_ref(v), *p)), 1, keep))
        }
        _ => Ok(filtered_product(head, tail.enumerate()?.points(), tail.arity(), keep)),
    }
}

/// The points of `head` × `tail` (of arity `tail_arity`) that `keep`
/// accepts, in product order.
fn filtered_product<'t>(
    head: &JointDiscrete,
    tail: impl Iterator<Item = (&'t [f64], f64)> + Clone,
    tail_arity: usize,
    mut keep: impl FnMut(&[f64]) -> bool,
) -> JointDiscrete {
    let arity = head.arity() + tail_arity;
    let n = head.len() * tail.clone().count();
    let (mut coords, mut probs) = (Vec::with_capacity(n * arity), Vec::with_capacity(n));
    for (v1, p1) in head.points() {
        for (v2, p2) in tail.clone() {
            let start = coords.len();
            coords.extend_from_slice(v1);
            coords.extend_from_slice(v2);
            match keep(&coords[start..]) {
                true => probs.push(p1 * p2),
                false => coords.truncate(start),
            }
        }
    }
    // A product of sorted, distinct points stays sorted and distinct.
    JointDiscrete::from_sorted(arity, coords, probs)
}

/// The product of the (>= 1) blocks' enumerations, in order; a lone
/// `Points` block is borrowed.
fn enumerate_blocks<'a>(
    mut blocks: impl Iterator<Item = &'a Block>,
) -> Result<Cow<'a, JointDiscrete>> {
    let mut acc = blocks.next().expect("joint has >= 1 block").enumerate()?;
    for b in blocks {
        acc = Cow::Owned(acc.product(&*b.enumerate()?));
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table2_tuple1() -> JointPdf {
        JointPdf::independent(vec![
            Pdf1::discrete(vec![(0.0, 0.1), (1.0, 0.9)]).unwrap(),
            Pdf1::discrete(vec![(1.0, 0.6), (2.0, 0.4)]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn independent_mass_multiplies() {
        let j = table2_tuple1();
        assert_eq!(j.arity(), 2);
        assert!((j.mass() - 1.0).abs() < 1e-12);
        let floored = j.floor_axis(0, &RegionSet::from_interval(Interval::at_most(0.5)));
        // a = 0 removed: block mass .9, total .9
        assert!((floored.mass() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn density_multiplies_blocks() {
        let j = table2_tuple1();
        assert!((j.density(&[1.0, 2.0]) - 0.36).abs() < 1e-12);
        assert!((j.density(&[0.0, 1.0]) - 0.06).abs() < 1e-12);
        assert_eq!(j.density(&[0.5, 1.0]), 0.0);
    }

    #[test]
    fn floor_predicate_reproduces_paper_selection() {
        // sigma_{a<b} on Table II tuple 1 (Section III-C).
        let j = table2_tuple1();
        let sel = j.floor_predicate(&[0, 1], DEFAULT_GRID_BINS, |v| v[0] < v[1]).unwrap();
        assert!((sel.mass() - 0.46).abs() < 1e-12);
        assert!((sel.density(&[0.0, 1.0]) - 0.06).abs() < 1e-12);
        assert!((sel.density(&[0.0, 2.0]) - 0.04).abs() < 1e-12);
        assert!((sel.density(&[1.0, 2.0]) - 0.36).abs() < 1e-12);
        assert_eq!(sel.density(&[1.0, 1.0]), 0.0);
        // Blocks were merged into one correlated unit.
        assert_eq!(sel.blocks().len(), 1);
    }

    #[test]
    fn floor_predicate_continuous_halves_uniform() {
        let j = JointPdf::independent(vec![
            Pdf1::uniform(0.0, 1.0).unwrap(),
            Pdf1::uniform(0.0, 1.0).unwrap(),
        ])
        .unwrap();
        let sel = j.floor_predicate(&[0, 1], 32, |v| v[0] < v[1]).unwrap();
        assert!((sel.mass() - 0.5).abs() < 0.02, "mass = {}", sel.mass());
    }

    #[test]
    fn marginalize_preserves_existence_mass() {
        let j = table2_tuple1();
        let sel = j.floor_predicate(&[0, 1], DEFAULT_GRID_BINS, |v| v[0] < v[1]).unwrap();
        let ma = sel.marginalize(&[0]).unwrap();
        assert!((ma.mass() - 0.46).abs() < 1e-12, "projection keeps existence probability");
        let p = ma.marginal1(0).unwrap_or_else(|_| unreachable!());
        assert!((p.density(0.0) - 0.10).abs() < 1e-12);
        assert!((p.density(1.0) - 0.36).abs() < 1e-12);
    }

    #[test]
    fn marginalize_folds_dropped_block_mass() {
        // Two independent blocks; floor block 1 to mass .5, then marginalize
        // onto block 0 only: existence mass .5 must survive.
        let j = JointPdf::independent(vec![
            Pdf1::discrete(vec![(1.0, 1.0)]).unwrap(),
            Pdf1::discrete(vec![(7.0, 0.5), (8.0, 0.5)]).unwrap(),
        ])
        .unwrap();
        let f = j.floor_axis(1, &RegionSet::from_interval(Interval::point(8.0)));
        let m = f.marginalize(&[0]).unwrap();
        assert!((m.mass() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn box_prob_across_blocks() {
        let j = table2_tuple1();
        let p = j.box_prob(&[(0, Interval::new(1.0, 1.0)), (1, Interval::new(2.0, 2.0))]);
        assert!((p - 0.36).abs() < 1e-12);
        let p = j.box_prob(&[(0, Interval::new(1.0, 1.0))]);
        assert!((p - 0.9).abs() < 1e-12);
        // Contradictory constraints on the same dim.
        let p = j.box_prob(&[(0, Interval::new(0.0, 0.0)), (0, Interval::new(1.0, 1.0))]);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn product_concatenates() {
        let a = JointPdf::from_pdf1(Pdf1::certain(7.0));
        let b = JointPdf::from_pdf1(Pdf1::certain(3.0));
        let j = a.product(&b);
        assert_eq!(j.arity(), 2);
        assert!((j.density(&[7.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn enumerate_requires_discrete() {
        assert!(table2_tuple1().enumerate().is_ok());
        let cont = JointPdf::from_pdf1(Pdf1::gaussian(0.0, 1.0).unwrap());
        assert!(cont.enumerate().is_err());
    }

    #[test]
    fn expected_per_dimension() {
        let j = table2_tuple1();
        assert!((j.expected(0).unwrap() - 0.9).abs() < 1e-12);
        assert!((j.expected(1).unwrap() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn merge_dims_with_gap_reorders_known_way() {
        // blocks: [a][b][c]; merge a and c => merged block at slot 0 with
        // dims (a, c), then b.
        let j = JointPdf::independent(vec![
            Pdf1::discrete(vec![(1.0, 1.0)]).unwrap(),
            Pdf1::discrete(vec![(2.0, 1.0)]).unwrap(),
            Pdf1::discrete(vec![(3.0, 1.0)]).unwrap(),
        ])
        .unwrap();
        let order = j.dim_order_after_merge(&[0, 2]);
        assert_eq!(order, vec![0, 2, 1]);
        let m = j.merge_dims(&[0, 2], 8).unwrap();
        assert_eq!(m.blocks().len(), 2);
        // New dim order: a, c, b.
        assert!((m.density(&[1.0, 3.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_symbolic_and_discrete_floor() {
        // Continuous x ~ U(0, 10), discrete threshold b in {2, 8} each .5;
        // predicate x < b keeps .5*(0.2) + .5*(0.8) = 0.5 of the mass.
        let j = JointPdf::independent(vec![
            Pdf1::uniform(0.0, 10.0).unwrap(),
            Pdf1::discrete(vec![(2.0, 0.5), (8.0, 0.5)]).unwrap(),
        ])
        .unwrap();
        let sel = j.floor_predicate(&[0, 1], 64, |v| v[0] < v[1]).unwrap();
        assert!((sel.mass() - 0.5).abs() < 0.05, "mass = {}", sel.mass());
    }

    #[test]
    fn floored_mass_is_floor_axis_mass_bit_for_bit() {
        use crate::sample::{Uniform, XorShift};
        let mut rng = XorShift::new(0xF100D);
        let mut r = |lo: f64, hi: f64| lo + (hi - lo) * rng.next_f64();
        let mut pdfs = vec![
            Pdf1::gaussian(3.0, 2.0).unwrap(),
            Pdf1::uniform(-1.0, 4.0).unwrap().scale(0.7),
            Pdf1::histogram(-2.0, 0.5, vec![0.1, 0.0, 0.2, 0.3, 0.15, 0.05]).unwrap(),
            Pdf1::discrete(vec![(-1.0, 0.2), (0.5, 0.1), (2.0, 0.3), (3.0, 0.25)]).unwrap(),
        ];
        // A symbolic pdf that already carries a floor.
        pdfs.push(pdfs[0].floor_region(&RegionSet::from_interval(Interval::at_most(0.0))));
        for round in 0..200 {
            // Regions built every way a floor can be: single intervals,
            // complements, and intersections, whose pieces may touch
            // without being merged.
            let mut region = || {
                let (a, b) = (r(-3.0, 6.0), r(-3.0, 6.0));
                let iv = Interval::new(a.min(b), a.max(b));
                match (r(0.0, 3.0)) as u32 {
                    0 => RegionSet::from_interval(iv),
                    1 => RegionSet::from_interval(iv).complement(),
                    _ => RegionSet::from_intervals(vec![
                        Interval::new(-10.0, a.min(b)),
                        Interval::new(a.max(b), 10.0),
                    ])
                    .intersect(&RegionSet::from_intervals(vec![
                        Interval::new(-4.0, a.max(b)),
                        Interval::at_least(a.min(b)),
                    ])),
                }
            };
            let regions: Vec<RegionSet> = (0..1 + round % 4).map(|_| region()).collect();
            let a = &pdfs[round % pdfs.len()];
            let b = &pdfs[(round / 5) % pdfs.len()];
            let joint = JointPdf::independent(vec![a.clone(), b.clone()]).unwrap();
            let floors: Vec<(usize, &RegionSet)> =
                regions.iter().enumerate().map(|(i, reg)| ((i + round) % 2, reg)).collect();
            let mut want = joint.clone();
            for &(d, reg) in &floors {
                want = want.floor_axis(d, reg);
            }
            let got = joint.floored_mass(&floors).expect("1-D blocks");
            assert_eq!(got.to_bits(), want.mass().to_bits(), "round {round}");
        }
        let points = table2_tuple1().merge_dims(&[0, 1], 8).unwrap();
        let region = RegionSet::from_interval(Interval::at_most(0.5));
        assert_eq!(points.floored_mass(&[(0, &region)]), None, "Points block");
        assert_eq!(points.floored_mass(&[]), Some(points.mass()), "unfloored blocks");
        assert_eq!(table2_tuple1().floored_mass(&[(2, &region)]), None, "out of range");
    }

    #[test]
    fn scale_applies_once() {
        let j = table2_tuple1().scale(0.5);
        assert!((j.mass() - 0.5).abs() < 1e-12);
    }
}

//! Sampling possible worlds from pdfs.
//!
//! Every representation can draw a value using only a caller-supplied
//! uniform source (`FnMut() -> f64` over `[0, 1)`), so the crate stays free
//! of RNG dependencies. Sampling honors **partial pdfs**: with probability
//! `1 - mass` the draw returns `None` — the possible world in which the
//! tuple does not exist. This drives the Monte-Carlo conformance checker
//! for continuous data, where exhaustive world enumeration is impossible.

use crate::discrete::DiscretePdf;
use crate::histogram::Histogram;
use crate::joint::{Block, JointDiscrete, JointGrid, JointPdf};
use crate::pdf1d::Pdf1;
use crate::symbolic::Symbolic;

/// A uniform-random source over `[0, 1)`.
pub trait Uniform {
    /// Draws the next uniform variate.
    fn next_f64(&mut self) -> f64;
}

impl<F: FnMut() -> f64> Uniform for F {
    fn next_f64(&mut self) -> f64 {
        self()
    }
}

impl Symbolic {
    /// Draws one value by inverse-transform sampling.
    pub fn sample(&self, u: &mut impl Uniform) -> f64 {
        self.quantile(u.next_f64().clamp(0.0, 1.0 - 1e-16))
    }
}

impl DiscretePdf {
    /// Draws one value, or `None` for the missing-tuple residual mass.
    pub fn sample(&self, u: &mut impl Uniform) -> Option<f64> {
        let target = u.next_f64();
        let mut acc = 0.0;
        for &(v, p) in self.points() {
            acc += p;
            if target < acc {
                return Some(v);
            }
        }
        None
    }
}

impl Histogram {
    /// Draws one value (uniform within the chosen bucket), or `None` for
    /// the missing-tuple residual mass.
    pub fn sample(&self, u: &mut impl Uniform) -> Option<f64> {
        let target = u.next_f64();
        let mut acc = 0.0;
        for (i, &m) in self.masses().iter().enumerate() {
            acc += m;
            if target < acc {
                let lo = self.lo() + i as f64 * self.width();
                return Some(lo + u.next_f64() * self.width());
            }
        }
        None
    }
}

impl Pdf1 {
    /// Draws one value, or `None` when this possible world has no tuple
    /// (floored region hit, or residual mass of a partial pdf).
    pub fn sample(&self, u: &mut impl Uniform) -> Option<f64> {
        match self {
            Pdf1::Symbolic { dist, floor, scale } => {
                if *scale < 1.0 && u.next_f64() >= *scale {
                    return None;
                }
                let x = dist.sample(u);
                // A draw inside the floored region is a world where the
                // tuple failed its selection: it does not exist.
                if floor.contains(x) {
                    None
                } else {
                    Some(x)
                }
            }
            Pdf1::Histogram(h) => h.sample(u),
            Pdf1::Discrete(d) => d.sample(u),
        }
    }
}

impl JointDiscrete {
    /// Draws one point, or `None` for the residual mass.
    pub fn sample(&self, u: &mut impl Uniform) -> Option<Vec<f64>> {
        let target = u.next_f64();
        let mut acc = 0.0;
        for (v, p) in self.points() {
            acc += p;
            if target < acc {
                return Some(v.to_vec());
            }
        }
        None
    }
}

impl JointGrid {
    /// Draws one point (uniform within the chosen cell), or `None` for the
    /// residual mass.
    pub fn sample(&self, u: &mut impl Uniform) -> Option<Vec<f64>> {
        let target = u.next_f64();
        let mut acc = 0.0;
        for (c, &m) in self.masses().iter().enumerate() {
            acc += m;
            if target < acc {
                // Decode the cell index and place the point uniformly.
                let mut rem = c;
                let k = self.arity();
                let mut idx = vec![0usize; k];
                for d in (0..k).rev() {
                    idx[d] = rem % self.dims()[d].bins;
                    rem /= self.dims()[d].bins;
                }
                let mut point = Vec::with_capacity(k);
                for (d, &i) in idx.iter().enumerate() {
                    let dim = self.dims()[d];
                    let lo = dim.lo + i as f64 * dim.width;
                    point.push(lo + u.next_f64() * dim.width);
                }
                return Some(point);
            }
        }
        None
    }
}

impl JointPdf {
    /// Draws one joint point, or `None` when any block's world removes the
    /// tuple.
    pub fn sample(&self, u: &mut impl Uniform) -> Option<Vec<f64>> {
        let mut out = Vec::with_capacity(self.arity());
        for b in self.blocks() {
            match b {
                Block::Uni(p) => out.push(p.sample(u)?),
                Block::Points(j) => out.extend(j.sample(u)?),
                Block::Grid(g) => out.extend(g.sample(u)?),
            }
        }
        Some(out)
    }
}

/// A small deterministic xorshift64* generator for dependency-free testing
/// and reproducible Monte-Carlo runs.
#[derive(Debug, Clone)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// Seeds the generator (zero is remapped).
    pub fn new(seed: u64) -> Self {
        XorShift { state: seed.max(1) }
    }
}

impl Uniform for XorShift {
    fn next_f64(&mut self) -> f64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
        bits as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{Interval, RegionSet};

    fn freq(samples: &[Option<f64>], pred: impl Fn(f64) -> bool) -> f64 {
        samples.iter().filter(|s| s.map(&pred).unwrap_or(false)).count() as f64
            / samples.len() as f64
    }

    #[test]
    fn xorshift_is_roughly_uniform() {
        let mut rng = XorShift::new(42);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let mut rng = XorShift::new(42);
        assert!((0..1000).all(|_| {
            let v = rng.next_f64();
            (0.0..1.0).contains(&v)
        }));
    }

    #[test]
    fn gaussian_sampling_matches_cdf() {
        let g = Pdf1::gaussian(10.0, 4.0).unwrap();
        let mut rng = XorShift::new(7);
        let samples: Vec<_> = (0..20_000).map(|_| g.sample(&mut rng)).collect();
        assert!(samples.iter().all(Option::is_some), "full-mass pdf always exists");
        let p = freq(&samples, |x| x < 10.0);
        assert!((p - 0.5).abs() < 0.02, "p {p}");
        let p = freq(&samples, |x| x < 12.0);
        assert!((p - g.cumulative(12.0)).abs() < 0.02);
    }

    #[test]
    fn floored_pdf_samples_none_in_floor() {
        let g = Pdf1::gaussian(0.0, 1.0)
            .unwrap()
            .floor_region(&RegionSet::from_interval(Interval::at_least(0.0)));
        let mut rng = XorShift::new(9);
        let samples: Vec<_> = (0..20_000).map(|_| g.sample(&mut rng)).collect();
        let exist = samples.iter().filter(|s| s.is_some()).count() as f64 / 20_000.0;
        assert!((exist - 0.5).abs() < 0.02, "existence {exist}");
        assert!(samples.iter().flatten().all(|&x| x < 0.0));
    }

    #[test]
    fn discrete_sampling_matches_masses() {
        let d = Pdf1::discrete(vec![(1.0, 0.2), (2.0, 0.3)]).unwrap();
        let mut rng = XorShift::new(11);
        let samples: Vec<_> = (0..30_000).map(|_| d.sample(&mut rng)).collect();
        let none = samples.iter().filter(|s| s.is_none()).count() as f64 / 30_000.0;
        assert!((none - 0.5).abs() < 0.02, "missing-tuple share {none}");
        assert!((freq(&samples, |x| x == 1.0) - 0.2).abs() < 0.02);
        assert!((freq(&samples, |x| x == 2.0) - 0.3).abs() < 0.02);
    }

    #[test]
    fn histogram_sampling_matches_buckets() {
        let h = Pdf1::histogram(0.0, 1.0, vec![0.25, 0.75]).unwrap();
        let mut rng = XorShift::new(13);
        let samples: Vec<_> = (0..20_000).map(|_| h.sample(&mut rng)).collect();
        assert!((freq(&samples, |x| x < 1.0) - 0.25).abs() < 0.02);
        assert!(samples.iter().flatten().all(|&x| (0.0..2.0).contains(&x)));
    }

    #[test]
    fn joint_sampling_respects_correlation() {
        let j = JointPdf::from_points(
            JointDiscrete::from_points(2, vec![(vec![0.0, 0.0], 0.5), (vec![1.0, 1.0], 0.5)])
                .unwrap(),
        );
        let mut rng = XorShift::new(17);
        for _ in 0..200 {
            let p = j.sample(&mut rng).unwrap();
            assert_eq!(p[0], p[1], "perfectly correlated draw");
        }
    }

    #[test]
    fn joint_grid_sampling_lands_in_support() {
        let g = JointGrid::from_masses(
            vec![
                crate::joint::GridDim::over(0.0, 2.0, 2).unwrap(),
                crate::joint::GridDim::over(10.0, 12.0, 2).unwrap(),
            ],
            vec![0.0, 0.0, 0.0, 1.0],
        )
        .unwrap();
        let mut rng = XorShift::new(23);
        for _ in 0..100 {
            let p = g.sample(&mut rng).unwrap();
            assert!((1.0..2.0).contains(&p[0]), "only the last cell has mass");
            assert!((11.0..12.0).contains(&p[1]));
        }
    }

    #[test]
    fn scaled_pdf_reduces_existence() {
        let g = Pdf1::gaussian(0.0, 1.0).unwrap().scale(0.25);
        let mut rng = XorShift::new(31);
        let exist = (0..20_000).filter(|_| g.sample(&mut rng).is_some()).count() as f64 / 20_000.0;
        assert!((exist - 0.25).abs() < 0.02, "existence {exist}");
    }
}

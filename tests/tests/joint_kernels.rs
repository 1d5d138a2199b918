//! Bitwise agreement of the flat `JointDiscrete` kernels with a reference
//! model that keeps one `(Vec<f64>, f64)` pair per point.
//!
//! The reference is the per-point layout the engine used before joints
//! were stored flat: a stable sort, duplicates merged by summing in sorted
//! order, zero masses dropped, and every sum taken in point order. Random
//! joints of arity 1–4 are drawn on a coarse grid (so duplicates, and
//! `0.0` next to `-0.0`, are common) with some zero masses, and every
//! kernel's output is compared with `f64::to_bits`.

use orion_pdf::prelude::{Interval, JointDiscrete};
use proptest::prelude::*;
use std::cmp::Ordering;

type Points = Vec<(Vec<f64>, f64)>;

fn cmp_points(a: &[f64], b: &[f64]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        match x.partial_cmp(y).expect("finite") {
            Ordering::Equal => continue,
            o => return o,
        }
    }
    Ordering::Equal
}

/// Reference constructor: `None` where the engine must return an error.
fn reference(arity: usize, mut points: Points) -> Option<Points> {
    if arity == 0 || points.iter().any(|(v, p)| v.len() != arity || *p < 0.0) {
        return None;
    }
    points.sort_by(|a, b| cmp_points(&a.0, &b.0));
    let mut merged: Points = Vec::new();
    for (v, p) in points {
        if p == 0.0 {
            continue;
        }
        match merged.last_mut() {
            Some(last) if cmp_points(&last.0, &v) == Ordering::Equal => last.1 += p,
            _ => merged.push((v, p)),
        }
    }
    let total: f64 = merged.iter().map(|(_, p)| p).sum();
    (total <= 1.0 + 1e-9).then_some(merged)
}

fn project(points: &Points, dims: &[usize]) -> Points {
    points.iter().map(|(v, p)| (dims.iter().map(|&d| v[d]).collect(), *p)).collect()
}

fn reference_product(a: &Points, b: &Points) -> Points {
    let mut out = Vec::new();
    for (v1, p1) in a {
        for (v2, p2) in b {
            out.push(([v1.as_slice(), v2].concat(), p1 * p2));
        }
    }
    out
}

fn reference_mass(points: &Points) -> f64 {
    points.iter().map(|(_, p)| p).sum()
}

fn reference_prob_at(points: &Points, at: &[f64]) -> f64 {
    match points.binary_search_by(|(v, _)| cmp_points(v, at)) {
        Ok(i) => points[i].1,
        Err(_) => 0.0,
    }
}

fn bits(points: &Points) -> Vec<(Vec<u64>, u64)> {
    points.iter().map(|(v, p)| (v.iter().map(|x| x.to_bits()).collect(), p.to_bits())).collect()
}

fn flat_bits(j: &JointDiscrete) -> Vec<(Vec<u64>, u64)> {
    j.points().map(|(v, p)| (v.iter().map(|x| x.to_bits()).collect(), p.to_bits())).collect()
}

/// A small deterministic generator for one case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A coordinate on a half-unit grid over `[-1, 2]`; zero comes signed.
    fn coord(&mut self) -> f64 {
        match self.below(8) {
            0 => -0.0,
            k => k as f64 * 0.5 - 1.0,
        }
    }

    /// `n` points of dimension `arity`; about one mass in six is zero and
    /// the rest share at most `total`.
    fn points(&mut self, arity: usize, n: usize, total: f64) -> Points {
        let weights: Vec<f64> = (0..n)
            .map(|_| if self.below(6) == 0 { 0.0 } else { 1.0 + self.below(9) as f64 })
            .collect();
        let sum: f64 = weights.iter().sum::<f64>().max(1.0);
        weights
            .into_iter()
            .map(|w| ((0..arity).map(|_| self.coord()).collect(), w / sum * total))
            .collect()
    }

    /// A valid joint and its reference points.
    fn joint(&mut self, arity: usize) -> (JointDiscrete, Points) {
        let n = self.below(9) as usize;
        let total = [1.0, 0.75, 0.3][self.below(3) as usize];
        let raw = self.points(arity, n, total);
        let want = reference(arity, raw.clone()).expect("masses stay within 1");
        let j = JointDiscrete::from_points(arity, raw).expect("valid joint");
        (j, want)
    }

    /// A random subset of `0..arity` in random order (never empty).
    fn dims(&mut self, arity: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..arity).collect();
        for i in (1..arity).rev() {
            all.swap(i, self.below(i as u64 + 1) as usize);
        }
        all.truncate(1 + self.below(arity as u64) as usize);
        all
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_kernels_match_the_per_point_reference_bit_for_bit(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let arity = 1 + g.below(4) as usize;
        let (j, want) = g.joint(arity);
        prop_assert_eq!(flat_bits(&j), bits(&want));
        prop_assert_eq!(j.len(), want.len());
        prop_assert_eq!(j.mass().to_bits(), reference_mass(&want).to_bits());

        // The flat constructor normalizes exactly as the per-point one.
        let n = g.below(7) as usize;
        let raw = g.points(arity, n, 0.9);
        let coords: Vec<f64> = raw.iter().flat_map(|(v, _)| v.clone()).collect();
        let probs: Vec<f64> = raw.iter().map(|(_, p)| *p).collect();
        let flat = JointDiscrete::from_flat(arity, coords, probs).expect("valid");
        prop_assert_eq!(flat_bits(&flat), bits(&reference(arity, raw).expect("valid")));

        // prob_at on support points and on a point off the grid.
        for (v, _) in &want {
            prop_assert_eq!(j.prob_at(v).to_bits(), reference_prob_at(&want, v).to_bits());
        }
        let off = vec![0.25; arity];
        prop_assert_eq!(j.prob_at(&off).to_bits(), reference_prob_at(&want, &off).to_bits());

        // marginalize and permute: projection, then the reference merge.
        let keep = g.dims(arity);
        let got = j.marginalize(&keep).expect("in range");
        let exp = reference(keep.len(), project(&want, &keep)).expect("valid");
        prop_assert_eq!(flat_bits(&got), bits(&exp));
        let mut perm: Vec<usize> = (0..arity).collect();
        perm.reverse();
        let got = j.permute(&perm).expect("a permutation");
        let exp = reference(arity, project(&want, &perm)).expect("valid");
        prop_assert_eq!(flat_bits(&got), bits(&exp));

        // filter keeps the order and the masses.
        let cut = g.coord();
        let got = j.filter(|v| v[0] > cut);
        let exp: Points = want.iter().filter(|(v, _)| v[0] > cut).cloned().collect();
        prop_assert_eq!(flat_bits(&got), bits(&exp));

        // scale, including to zero (zero masses are kept, not dropped).
        for factor in [0.5, 0.0, 1.0] {
            let exp: Points = want.iter().map(|(v, p)| (v.clone(), p * factor)).collect();
            prop_assert_eq!(flat_bits(&j.scale(factor)), bits(&exp));
        }
        let scaled = j.scale(0.0);
        let exp: Points = want.iter().map(|(v, p)| (v.clone(), p * 0.0)).collect();
        let keep0 = vec![0];
        prop_assert_eq!(
            flat_bits(&scaled.marginalize(&keep0).expect("in range")),
            bits(&reference(1, project(&exp, &keep0)).expect("valid"))
        );

        // product with a second joint of arity 1-2.
        let other_arity = 1 + g.below(2) as usize;
        let (k, other) = g.joint(other_arity);
        prop_assert_eq!(flat_bits(&j.product(&k)), bits(&reference_product(&want, &other)));

        // box_prob over a random box, expected per dimension.
        let bounds: Vec<Interval> = (0..arity)
            .map(|_| {
                let lo = g.coord();
                Interval::new(lo, lo + g.below(4) as f64 * 0.5)
            })
            .collect();
        let exp: f64 = want
            .iter()
            .filter(|(v, _)| v.iter().zip(&bounds).all(|(x, iv)| iv.contains(*x)))
            .map(|(_, p)| p)
            .sum();
        prop_assert_eq!(j.box_prob(&bounds).to_bits(), exp.to_bits());
        for d in 0..=arity {
            let mass = reference_mass(&want);
            let exp = (mass > 0.0 && d < arity)
                .then(|| want.iter().map(|(v, p)| v[d] * p).sum::<f64>() / mass);
            prop_assert_eq!(j.expected(d).map(f64::to_bits), exp.map(f64::to_bits));
        }
    }
}

#[test]
fn duplicates_merge_and_zero_masses_drop() {
    let raw = vec![
        (vec![1.0, 0.0], 0.25),
        (vec![0.0, 2.0], 0.0),
        (vec![1.0, -0.0], 0.125),
        (vec![0.5, 1.0], 0.5),
    ];
    let j = JointDiscrete::from_points(2, raw.clone()).unwrap();
    assert_eq!(flat_bits(&j), bits(&reference(2, raw).unwrap()));
    assert_eq!(j.len(), 2, "one merged duplicate, one dropped zero");
    assert_eq!(j.prob_at(&[1.0, 0.0]), 0.375);
    assert!(JointDiscrete::from_points(2, vec![(vec![1.0], 0.5)]).is_err());
    assert!(JointDiscrete::from_flat(2, vec![1.0, 2.0, 3.0], vec![0.5, 0.5]).is_err());
    assert!(JointDiscrete::from_flat(0, vec![], vec![]).is_err());
    assert!(JointDiscrete::from_flat(1, vec![0.0, 1.0], vec![0.75, 0.75]).is_err());
}

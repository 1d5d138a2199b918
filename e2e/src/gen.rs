//! Seeded generators for data and statements, and the closed-form
//! probabilities the answer checks are computed from.
//!
//! Nothing here touches the engine: the same seed yields the same SQL text,
//! and expected answers come from the generator's own parameters (the
//! instances are tuple-independent, so every probability has a closed form).

/// SplitMix64: small, seedable, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of one
    /// seed (data vs statements vs clients) so they never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Normal variate (Box–Muller; one of the pair is discarded so the
    /// stream position depends only on the number of calls).
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        mean + sd * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Rounds to `digits` decimals so the value survives a trip through SQL
/// text exactly (Rust prints the shortest string that parses back).
pub fn round_to(x: f64, digits: i32) -> f64 {
    let k = 10f64.powi(digits);
    (x * k).round() / k
}

/// `erf(x)` by the all-positive series `2/√π · e^{-x²} · Σ 2ⁿ x^{2n+1}/(2n+1)!!`
/// (no cancellation; absolute error near 1e-16 on the range used here).
/// Written here, not borrowed from the engine, so the check is independent.
pub fn erf(x: f64) -> f64 {
    let a = x.abs();
    if a > 6.5 {
        return x.signum();
    }
    let mut term = a;
    let mut sum = a;
    let mut n = 0.0;
    while term > sum * 1e-17 {
        n += 1.0;
        term *= 2.0 * a * a / (2.0 * n + 1.0);
        sum += term;
    }
    let v = 2.0 / std::f64::consts::PI.sqrt() * (-a * a).exp() * sum;
    v.min(1.0) * x.signum()
}

/// Standard normal cdf.
pub fn phi(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// One uncertain value of the paper's generator: mean ~ U(0, 100),
/// σ ~ N(2, 0.5), stored as `GAUSSIAN(mean, variance)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gauss {
    pub mean: f64,
    pub var: f64,
}

impl Gauss {
    pub fn draw(rng: &mut Rng) -> Gauss {
        let mean = round_to(rng.uniform(0.0, 100.0), 3);
        let sd = rng.normal(2.0, 0.5).max(0.2);
        Gauss { mean, var: round_to(sd * sd, 4) }
    }

    pub fn sd(&self) -> f64 {
        self.var.sqrt()
    }

    /// `P(lo ≤ X ≤ hi)`; either bound may be infinite.
    pub fn range_prob(&self, lo: f64, hi: f64) -> f64 {
        let sd = self.sd();
        phi((hi - self.mean) / sd) - phi((lo - self.mean) / sd)
    }

    pub fn sql(&self) -> String {
        format!("GAUSSIAN({}, {})", self.mean, self.var)
    }
}

/// Splits one unit of mass over `weights` in millionths, so the parts print
/// as short decimals and sum to exactly one million.
fn millionths(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    let mut parts: Vec<i64> = weights.iter().map(|w| (w / total * 1e6).round() as i64).collect();
    let drift = 1_000_000 - parts.iter().sum::<i64>();
    let largest = (0..parts.len()).max_by_key(|&i| parts[i]).expect("at least one weight");
    parts[largest] += drift;
    parts.into_iter().map(|p| p as f64 / 1e6).collect()
}

/// A 5-bucket equi-width histogram over `mean ± 3σ` (Fig. 5's `hist-5`).
#[derive(Debug, Clone, PartialEq)]
pub struct Hist {
    pub lo: f64,
    pub width: f64,
    pub masses: Vec<f64>,
}

impl Hist {
    pub fn of(g: &Gauss, buckets: usize) -> Hist {
        let sd = g.sd();
        let lo = round_to(g.mean - 3.0 * sd, 3);
        let width = round_to(6.0 * sd / buckets as f64, 4);
        let weights: Vec<f64> = (0..buckets)
            .map(|i| g.range_prob(lo + i as f64 * width, lo + (i + 1) as f64 * width))
            .collect();
        Hist { lo, width, masses: millionths(&weights) }
    }

    /// Mass at or below `x`, uniform inside a bucket.
    fn cumulative(&self, x: f64) -> f64 {
        let mut acc = 0.0;
        for (i, m) in self.masses.iter().enumerate() {
            let b_lo = self.lo + i as f64 * self.width;
            acc += m * ((x - b_lo) / self.width).clamp(0.0, 1.0);
        }
        acc
    }

    pub fn range_prob(&self, lo: f64, hi: f64) -> f64 {
        (self.cumulative(hi) - self.cumulative(lo)).max(0.0)
    }

    pub fn sql(&self) -> String {
        let masses: Vec<String> = self.masses.iter().map(f64::to_string).collect();
        format!("HISTOGRAM({}, {}, {})", self.lo, self.width, masses.join(", "))
    }
}

/// A discrete pdf as `(value, probability)` points, ascending by value.
#[derive(Debug, Clone, PartialEq)]
pub struct Points(pub Vec<(f64, f64)>);

impl Points {
    /// `n` equally spaced points over `mean ± 3σ`, weighted by the Gaussian
    /// density (Fig. 5's `disc-25`).
    pub fn of(g: &Gauss, n: usize) -> Points {
        let sd = g.sd();
        let xs: Vec<f64> = (0..n)
            .map(|i| round_to(g.mean + sd * (-3.0 + 6.0 * i as f64 / (n - 1) as f64), 3))
            .collect();
        let weights: Vec<f64> =
            xs.iter().map(|x| (-(x - g.mean) * (x - g.mean) / (2.0 * g.var)).exp()).collect();
        Points(xs.into_iter().zip(millionths(&weights)).collect())
    }

    /// `n` distinct values drawn from `[lo, hi)` with random weights (the
    /// small discrete pdfs of Fig. 6).
    pub fn draw(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Points {
        let mut xs: Vec<f64> = Vec::with_capacity(n);
        while xs.len() < n {
            let x = round_to(rng.uniform(lo, hi), 2);
            if !xs.contains(&x) {
                xs.push(x);
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let weights: Vec<f64> = (0..n).map(|_| rng.uniform(0.2, 1.0)).collect();
        Points(xs.into_iter().zip(millionths(&weights)).collect())
    }

    /// Mass on the closed interval `[lo, hi]`.
    pub fn range_prob(&self, lo: f64, hi: f64) -> f64 {
        self.0.iter().filter(|(v, _)| *v >= lo && *v <= hi).map(|(_, p)| p).sum()
    }

    pub fn sql(&self) -> String {
        let pts: Vec<String> = self.0.iter().map(|(v, p)| format!("{v}:{p}")).collect();
        format!("DISCRETE({})", pts.join(", "))
    }
}

/// A correlated pair `(p, q)` as a joint pmf over a few points.
#[derive(Debug, Clone, PartialEq)]
pub struct JointPoints(pub Vec<((f64, f64), f64)>);

impl JointPoints {
    pub fn draw(rng: &mut Rng, n: usize) -> JointPoints {
        let p = Points::draw(rng, n, 0.0, 10.0);
        let pts =
            p.0.iter().map(|&(pv, w)| ((pv, round_to(rng.uniform(0.0, 10.0), 2)), w)).collect();
        JointPoints(pts)
    }

    pub fn sql(&self) -> String {
        let pts: Vec<String> = self.0.iter().map(|((p, q), w)| format!("({p}, {q}):{w}")).collect();
        format!("JOINT({})", pts.join(", "))
    }
}

/// `INSERT INTO <table> VALUES (..), (..)` statements of at most `batch`
/// rows each, from already-rendered row tuples.
pub fn batched_inserts(table: &str, rows: &[String], batch: usize) -> Vec<String> {
    rows.chunks(batch).map(|c| format!("INSERT INTO {table} VALUES {}", c.join(", "))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_same_values() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(42, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn erf_matches_reference_values() {
        // Abramowitz & Stegun table 7.1
        for (x, want) in [
            (0.0, 0.0),
            (0.5, 0.520_499_877_813_046_5),
            (1.0, 0.842_700_792_949_714_9),
            (2.0, 0.995_322_265_018_952_7),
            (3.0, 0.999_977_909_503_001_4),
        ] {
            assert!((erf(x) - want).abs() < 1e-15, "erf({x}) = {}", erf(x));
            assert!((erf(-x) + want).abs() < 1e-15);
        }
        assert!((phi(1.281_551_565_544_600_4) - 0.9).abs() < 1e-15);
        assert_eq!(erf(9.0), 1.0);
    }

    #[test]
    fn discretisations_carry_exactly_unit_mass() {
        let mut rng = Rng::new(7, 0);
        for _ in 0..200 {
            let g = Gauss::draw(&mut rng);
            let h = Hist::of(&g, 5);
            let d = Points::of(&g, 25);
            assert!((h.masses.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!((d.0.iter().map(|p| p.1).sum::<f64>() - 1.0).abs() < 1e-12);
            assert!((h.range_prob(f64::NEG_INFINITY, f64::INFINITY) - 1.0).abs() < 1e-12);
            assert!(d.0.windows(2).all(|w| w[0].0 < w[1].0), "distinct ascending points");
            // a histogram is a coarsening: whole-bucket ranges agree with the Gaussian
            let hi = h.lo + 2.0 * h.width;
            assert!((h.range_prob(h.lo, hi) - g.range_prob(h.lo, hi)).abs() < 0.01);
        }
    }

    #[test]
    fn sql_text_round_trips_parameters() {
        let g = Gauss { mean: 12.345, var: 4.0321 };
        assert_eq!(g.sql(), "GAUSSIAN(12.345, 4.0321)");
        let p = Points(vec![(1.5, 0.25), (2.0, 0.75)]);
        assert_eq!(p.sql(), "DISCRETE(1.5:0.25, 2:0.75)");
        let rows = vec!["(1, 2)".to_string(), "(3, 4)".to_string(), "(5, 6)".to_string()];
        assert_eq!(
            batched_inserts("t", &rows, 2),
            vec!["INSERT INTO t VALUES (1, 2), (3, 4)", "INSERT INTO t VALUES (5, 6)"]
        );
    }
}

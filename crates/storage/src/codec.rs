//! Compact binary encoding of pdf values for on-page storage.
//!
//! Symbolic distributions serialize to a tag plus their parameters (a few
//! bytes); histograms and discrete samplings grow linearly with their
//! resolution. The encoded-size difference between representations is the
//! storage-cost driver of the paper's Figure 5.

use bytes::{Buf, BufMut};
use orion_pdf::joint::Block;
use orion_pdf::prelude::*;

/// Errors raised while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

type Result<T> = std::result::Result<T, DecodeError>;

/// Fails unless at least `n` more bytes remain. Every decoder calls this
/// before consuming bytes or sizing an allocation, so corrupt input always
/// surfaces a [`DecodeError`] — never a panic or an absurd allocation.
pub fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(DecodeError(format!("truncated {what}")));
    }
    Ok(())
}

/// `a * b` with overflow reported as corruption (a garbage length field).
pub fn checked_size(a: usize, b: usize, what: &str) -> Result<usize> {
    a.checked_mul(b).ok_or_else(|| DecodeError(format!("absurd {what} size")))
}

const T_GAUSSIAN: u8 = 1;
const T_UNIFORM: u8 = 2;
const T_EXPONENTIAL: u8 = 3;
const T_POISSON: u8 = 4;
const T_BINOMIAL: u8 = 5;
const T_BERNOULLI: u8 = 6;
const T_GEOMETRIC: u8 = 7;

/// Encodes a symbolic distribution.
pub fn encode_symbolic(s: &Symbolic, out: &mut impl BufMut) {
    match *s {
        Symbolic::Gaussian { mean, variance } => {
            out.put_u8(T_GAUSSIAN);
            out.put_f64_le(mean);
            out.put_f64_le(variance);
        }
        Symbolic::Uniform { lo, hi } => {
            out.put_u8(T_UNIFORM);
            out.put_f64_le(lo);
            out.put_f64_le(hi);
        }
        Symbolic::Exponential { rate } => {
            out.put_u8(T_EXPONENTIAL);
            out.put_f64_le(rate);
        }
        Symbolic::Poisson { lambda } => {
            out.put_u8(T_POISSON);
            out.put_f64_le(lambda);
        }
        Symbolic::Binomial { n, p } => {
            out.put_u8(T_BINOMIAL);
            out.put_u64_le(n);
            out.put_f64_le(p);
        }
        Symbolic::Bernoulli { p } => {
            out.put_u8(T_BERNOULLI);
            out.put_f64_le(p);
        }
        Symbolic::Geometric { p } => {
            out.put_u8(T_GEOMETRIC);
            out.put_f64_le(p);
        }
    }
}

/// Decodes a symbolic distribution.
pub fn decode_symbolic(buf: &mut impl Buf) -> Result<Symbolic> {
    need(buf, 1, "symbolic tag")?;
    let tag = buf.get_u8();
    let dist = match tag {
        T_GAUSSIAN => {
            need(buf, 16, "gaussian")?;
            Symbolic::Gaussian { mean: buf.get_f64_le(), variance: buf.get_f64_le() }
        }
        T_UNIFORM => {
            need(buf, 16, "uniform")?;
            Symbolic::Uniform { lo: buf.get_f64_le(), hi: buf.get_f64_le() }
        }
        T_EXPONENTIAL => {
            need(buf, 8, "exponential")?;
            Symbolic::Exponential { rate: buf.get_f64_le() }
        }
        T_POISSON => {
            need(buf, 8, "poisson")?;
            Symbolic::Poisson { lambda: buf.get_f64_le() }
        }
        T_BINOMIAL => {
            need(buf, 16, "binomial")?;
            Symbolic::Binomial { n: buf.get_u64_le(), p: buf.get_f64_le() }
        }
        T_BERNOULLI => {
            need(buf, 8, "bernoulli")?;
            Symbolic::Bernoulli { p: buf.get_f64_le() }
        }
        T_GEOMETRIC => {
            need(buf, 8, "geometric")?;
            Symbolic::Geometric { p: buf.get_f64_le() }
        }
        other => return Err(DecodeError(format!("unknown symbolic tag {other}"))),
    };
    Ok(dist)
}

fn encode_region(r: &RegionSet, out: &mut impl BufMut) {
    out.put_u32_le(r.intervals().len() as u32);
    for iv in r.intervals() {
        out.put_f64_le(iv.lo);
        out.put_f64_le(iv.hi);
    }
}

fn decode_region(buf: &mut impl Buf) -> Result<RegionSet> {
    need(buf, 4, "region length")?;
    let n = buf.get_u32_le() as usize;
    need(buf, checked_size(n, 16, "region")?, "region intervals")?;
    let mut ivs = Vec::with_capacity(n);
    for _ in 0..n {
        need(buf, 16, "region interval")?;
        let lo = buf.get_f64_le();
        let hi = buf.get_f64_le();
        ivs.push(Interval::new(lo, hi));
    }
    Ok(RegionSet::from_intervals(ivs))
}

const P_SYMBOLIC: u8 = 10;
const P_HISTOGRAM: u8 = 11;
const P_DISCRETE: u8 = 12;

/// Encodes a 1-D pdf.
pub fn encode_pdf1(p: &Pdf1, out: &mut impl BufMut) {
    match p {
        Pdf1::Symbolic { dist, floor, scale } => {
            out.put_u8(P_SYMBOLIC);
            encode_symbolic(dist, out);
            encode_region(floor, out);
            out.put_f64_le(*scale);
        }
        Pdf1::Histogram(h) => {
            out.put_u8(P_HISTOGRAM);
            out.put_f64_le(h.lo());
            out.put_f64_le(h.width());
            out.put_u32_le(h.bins() as u32);
            for &m in h.masses() {
                out.put_f64_le(m);
            }
        }
        Pdf1::Discrete(d) => {
            out.put_u8(P_DISCRETE);
            out.put_u32_le(d.len() as u32);
            for &(v, pr) in d.points() {
                out.put_f64_le(v);
                out.put_f64_le(pr);
            }
        }
    }
}

/// Decodes a 1-D pdf.
pub fn decode_pdf1(buf: &mut impl Buf) -> Result<Pdf1> {
    need(buf, 1, "pdf tag")?;
    let tag = buf.get_u8();
    match tag {
        P_SYMBOLIC => {
            let dist = decode_symbolic(buf)?;
            let floor = decode_region(buf)?;
            need(buf, 8, "pdf scale")?;
            let scale = buf.get_f64_le();
            Ok(Pdf1::Symbolic { dist, floor, scale })
        }
        P_HISTOGRAM => {
            need(buf, 20, "histogram header")?;
            let lo = buf.get_f64_le();
            let width = buf.get_f64_le();
            let bins = buf.get_u32_le() as usize;
            need(buf, checked_size(bins, 8, "histogram")?, "histogram masses")?;
            let masses = (0..bins).map(|_| buf.get_f64_le()).collect();
            Histogram::from_masses(lo, width, masses)
                .map(Pdf1::Histogram)
                .map_err(|e| DecodeError(e.to_string()))
        }
        P_DISCRETE => {
            need(buf, 4, "discrete length")?;
            let n = buf.get_u32_le() as usize;
            need(buf, checked_size(n, 16, "discrete")?, "discrete points")?;
            let pts = (0..n)
                .map(|_| {
                    let v = buf.get_f64_le();
                    let p = buf.get_f64_le();
                    (v, p)
                })
                .collect();
            DiscretePdf::from_points(pts)
                .map(Pdf1::Discrete)
                .map_err(|e| DecodeError(e.to_string()))
        }
        other => Err(DecodeError(format!("unknown pdf tag {other}"))),
    }
}

/// Decodes a 1-D pdf straight into a columnar [`Pdf1Batch`], skipping the
/// per-record `Pdf1` materialization (the batch scan's decode path).
///
/// Accepts exactly the inputs [`decode_pdf1`] accepts and raises equal
/// errors; the appended record reconstructs (via [`Pdf1Batch::get`])
/// bit-for-bit identical to what `decode_pdf1` would have returned. On
/// error nothing is appended, though the buffer may be left mid-record.
pub fn decode_pdf1_into(buf: &mut impl Buf, out: &mut Pdf1Batch) -> Result<()> {
    need(buf, 1, "pdf tag")?;
    let tag = buf.get_u8();
    match tag {
        P_SYMBOLIC => {
            let dist = decode_symbolic(buf)?;
            let floor = decode_region(buf)?;
            need(buf, 8, "pdf scale")?;
            let scale = buf.get_f64_le();
            out.push_symbolic(dist, floor.intervals(), scale);
            Ok(())
        }
        P_HISTOGRAM => {
            need(buf, 20, "histogram header")?;
            let lo = buf.get_f64_le();
            let width = buf.get_f64_le();
            let bins = buf.get_u32_le() as usize;
            let bytes = checked_size(bins, 8, "histogram")?;
            need(buf, bytes, "histogram masses")?;
            // Contiguous fast path: feed the validator straight from the
            // underlying slice. Per-element `get_f64_le` advances the
            // buffer through a `&mut` indirection, which forces a
            // write-back per read and defeats vectorization in the hot
            // batch-scan decode loop.
            if buf.chunk().len() >= bytes {
                let res = out.push_histogram_checked(lo, width, f64_lanes(buf.chunk(), bytes));
                buf.advance(bytes);
                res.map_err(|e| DecodeError(e.to_string()))
            } else {
                out.push_histogram_checked(lo, width, (0..bins).map(|_| buf.get_f64_le()))
                    .map_err(|e| DecodeError(e.to_string()))
            }
        }
        P_DISCRETE => {
            need(buf, 4, "discrete length")?;
            let n = buf.get_u32_le() as usize;
            let bytes = checked_size(n, 16, "discrete")?;
            need(buf, bytes, "discrete points")?;
            if buf.chunk().len() >= bytes {
                let res = out.push_discrete_checked_bulk(pair_lanes(buf.chunk(), bytes));
                buf.advance(bytes);
                res.map_err(|e| DecodeError(e.to_string()))
            } else {
                out.push_discrete_checked((0..n).map(|_| {
                    let v = buf.get_f64_le();
                    let p = buf.get_f64_le();
                    (v, p)
                }))
                .map_err(|e| DecodeError(e.to_string()))
            }
        }
        other => Err(DecodeError(format!("unknown pdf tag {other}"))),
    }
}

/// Little-endian `f64` lane over the first `bytes` of a contiguous slice.
fn f64_lanes(chunk: &[u8], bytes: usize) -> impl Iterator<Item = f64> + '_ {
    chunk[..bytes].chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
}

/// Little-endian `(f64, f64)` pair lane over the first `bytes` of a
/// contiguous slice.
fn pair_lanes(chunk: &[u8], bytes: usize) -> impl Iterator<Item = (f64, f64)> + Clone + '_ {
    chunk[..bytes].chunks_exact(16).map(|c| {
        (
            f64::from_le_bytes(c[..8].try_into().expect("8-byte half")),
            f64::from_le_bytes(c[8..].try_into().expect("8-byte half")),
        )
    })
}

const B_UNI: u8 = 20;
const B_POINTS: u8 = 21;
const B_GRID: u8 = 22;

fn encode_block(b: &Block, out: &mut impl BufMut) {
    match b {
        Block::Uni(p) => {
            out.put_u8(B_UNI);
            encode_pdf1(p, out);
        }
        Block::Points(j) => {
            out.put_u8(B_POINTS);
            out.put_u32_le(j.arity() as u32);
            out.put_u32_le(j.len() as u32);
            for (v, p) in j.points() {
                for &x in v {
                    out.put_f64_le(x);
                }
                out.put_f64_le(p);
            }
        }
        Block::Grid(g) => {
            out.put_u8(B_GRID);
            out.put_u32_le(g.arity() as u32);
            for d in g.dims() {
                out.put_f64_le(d.lo);
                out.put_f64_le(d.width);
                out.put_u32_le(d.bins as u32);
            }
            out.put_u32_le(g.masses().len() as u32);
            for &m in g.masses() {
                out.put_f64_le(m);
            }
        }
    }
}

fn decode_block(buf: &mut impl Buf) -> Result<Block> {
    need(buf, 1, "block tag")?;
    let tag = buf.get_u8();
    match tag {
        B_UNI => Ok(Block::Uni(decode_pdf1(buf)?)),
        B_POINTS => {
            need(buf, 8, "points header")?;
            let arity = buf.get_u32_le() as usize;
            let n = buf.get_u32_le() as usize;
            let per_point = checked_size(arity.saturating_add(1), 8, "points row")?;
            need(buf, checked_size(n, per_point, "points")?, "points data")?;
            let mut coords = Vec::with_capacity(n * arity);
            let mut probs = Vec::with_capacity(n);
            for _ in 0..n {
                coords.extend((0..arity).map(|_| buf.get_f64_le()));
                probs.push(buf.get_f64_le());
            }
            JointDiscrete::from_flat(arity, coords, probs)
                .map(Block::Points)
                .map_err(|e| DecodeError(e.to_string()))
        }
        B_GRID => {
            need(buf, 4, "grid arity")?;
            let arity = buf.get_u32_le() as usize;
            need(buf, checked_size(arity, 20, "grid")?, "grid dims")?;
            let dims: Vec<GridDim> = (0..arity)
                .map(|_| {
                    let lo = buf.get_f64_le();
                    let width = buf.get_f64_le();
                    let bins = buf.get_u32_le() as usize;
                    GridDim { lo, width, bins }
                })
                .collect();
            need(buf, 4, "grid mass count")?;
            let n = buf.get_u32_le() as usize;
            need(buf, checked_size(n, 8, "grid mass")?, "grid masses")?;
            let masses = (0..n).map(|_| buf.get_f64_le()).collect();
            JointGrid::from_masses(dims, masses)
                .map(Block::Grid)
                .map_err(|e| DecodeError(e.to_string()))
        }
        other => Err(DecodeError(format!("unknown block tag {other}"))),
    }
}

/// Encodes a joint pdf (block list).
pub fn encode_joint(j: &JointPdf, out: &mut impl BufMut) {
    out.put_u32_le(j.blocks().len() as u32);
    for b in j.blocks() {
        encode_block(b, out);
    }
}

/// Decodes a joint pdf.
pub fn decode_joint(buf: &mut impl Buf) -> Result<JointPdf> {
    need(buf, 4, "joint block count")?;
    let n = buf.get_u32_le() as usize;
    if n == 0 {
        return Err(DecodeError("joint with zero blocks".into()));
    }
    let mut joint: Option<JointPdf> = None;
    for _ in 0..n {
        let b = decode_block(buf)?;
        let next = match b {
            Block::Uni(p) => JointPdf::from_pdf1(p),
            Block::Points(j) => JointPdf::from_points(j),
            Block::Grid(g) => JointPdf::from_grid(g),
        };
        joint = Some(match joint {
            None => next,
            Some(j) => j.product(&next),
        });
    }
    Ok(joint.expect("n >= 1"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_pdf1(p: &Pdf1) -> Pdf1 {
        let mut buf = Vec::new();
        encode_pdf1(p, &mut buf);
        let mut slice = &buf[..];
        let out = decode_pdf1(&mut slice).unwrap();
        assert!(slice.is_empty(), "no trailing bytes");
        out
    }

    #[test]
    fn symbolic_round_trips() {
        for s in [
            Symbolic::gaussian(20.0, 5.0).unwrap(),
            Symbolic::uniform(-1.0, 4.0).unwrap(),
            Symbolic::exponential(0.3).unwrap(),
            Symbolic::poisson(2.5).unwrap(),
            Symbolic::binomial(17, 0.4).unwrap(),
            Symbolic::bernoulli(0.9).unwrap(),
            Symbolic::geometric(0.2).unwrap(),
        ] {
            let mut buf = Vec::new();
            encode_symbolic(&s, &mut buf);
            let out = decode_symbolic(&mut &buf[..]).unwrap();
            assert_eq!(out, s);
        }
    }

    #[test]
    fn pdf1_round_trips_all_variants() {
        let g = Pdf1::gaussian(5.0, 1.0)
            .unwrap()
            .floor_region(&RegionSet::from_interval(Interval::at_least(5.0)))
            .scale(0.9);
        assert_eq!(round_trip_pdf1(&g), g);
        let h = Pdf1::histogram(0.0, 1.0, vec![0.25, 0.5, 0.25]).unwrap();
        assert_eq!(round_trip_pdf1(&h), h);
        let d = Pdf1::discrete(vec![(0.0, 0.1), (1.0, 0.9)]).unwrap();
        assert_eq!(round_trip_pdf1(&d), d);
    }

    #[test]
    fn joint_round_trips() {
        let j = JointPdf::independent(vec![
            Pdf1::gaussian(0.0, 1.0).unwrap(),
            Pdf1::discrete(vec![(1.0, 0.6), (2.0, 0.4)]).unwrap(),
        ])
        .unwrap();
        let mut buf = Vec::new();
        encode_joint(&j, &mut buf);
        let out = decode_joint(&mut &buf[..]).unwrap();
        assert_eq!(out, j);
        // Correlated points block.
        let corr = JointPdf::from_points(
            JointDiscrete::from_points(2, vec![(vec![0.0, 1.0], 0.06), (vec![1.0, 2.0], 0.36)])
                .unwrap(),
        );
        let mut buf = Vec::new();
        encode_joint(&corr, &mut buf);
        assert_eq!(decode_joint(&mut &buf[..]).unwrap(), corr);
    }

    #[test]
    fn grid_block_round_trips() {
        let g = JointGrid::from_masses(
            vec![GridDim::over(0.0, 2.0, 2).unwrap(), GridDim::over(0.0, 2.0, 2).unwrap()],
            vec![0.1, 0.2, 0.3, 0.4],
        )
        .unwrap();
        let j = JointPdf::from_grid(g);
        let mut buf = Vec::new();
        encode_joint(&j, &mut buf);
        assert_eq!(decode_joint(&mut &buf[..]).unwrap(), j);
    }

    #[test]
    fn truncation_is_detected() {
        let g = Pdf1::gaussian(0.0, 1.0).unwrap();
        let mut buf = Vec::new();
        encode_pdf1(&g, &mut buf);
        for cut in [0, 1, 5, buf.len() - 1] {
            assert!(decode_pdf1(&mut &buf[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_pdf1(&mut &[99u8][..]).is_err(), "unknown tag");
    }

    #[test]
    fn decode_into_batch_matches_scalar_decode() {
        let g = Pdf1::gaussian(5.0, 1.0)
            .unwrap()
            .floor_region(&RegionSet::from_interval(Interval::at_least(5.0)))
            .scale(0.9);
        let h = Pdf1::histogram(0.0, 1.0, vec![0.25, 0.5, 0.25]).unwrap();
        let d = Pdf1::discrete(vec![(0.0, 0.1), (1.0, 0.9)]).unwrap();
        let mut buf = Vec::new();
        for p in [&g, &h, &d] {
            encode_pdf1(p, &mut buf);
        }
        let mut batch = Pdf1Batch::new();
        let mut slice = &buf[..];
        for _ in 0..3 {
            decode_pdf1_into(&mut slice, &mut batch).unwrap();
        }
        assert!(slice.is_empty(), "no trailing bytes");
        let mut slice = &buf[..];
        for i in 0..3 {
            assert_eq!(batch.get(i), decode_pdf1(&mut slice).unwrap(), "record {i}");
        }
    }

    #[test]
    fn decode_into_batch_matches_scalar_errors() {
        let g = Pdf1::gaussian(0.0, 1.0).unwrap();
        let mut buf = Vec::new();
        encode_pdf1(&g, &mut buf);
        for cut in [0, 1, 5, buf.len() - 1] {
            let mut batch = Pdf1Batch::new();
            let want = decode_pdf1(&mut &buf[..cut]).unwrap_err();
            let got = decode_pdf1_into(&mut &buf[..cut], &mut batch).unwrap_err();
            assert_eq!(got, want, "cut at {cut}");
            assert!(batch.is_empty(), "nothing appended on error");
        }
        // Semantically invalid payloads surface the constructor's error text.
        let mut bad_hist = Vec::new();
        bad_hist.push(11u8); // P_HISTOGRAM
        bad_hist.extend_from_slice(&0.0f64.to_le_bytes());
        bad_hist.extend_from_slice(&1.0f64.to_le_bytes());
        bad_hist.extend_from_slice(&2u32.to_le_bytes());
        bad_hist.extend_from_slice(&0.7f64.to_le_bytes());
        bad_hist.extend_from_slice(&0.7f64.to_le_bytes());
        let mut batch = Pdf1Batch::new();
        let want = decode_pdf1(&mut &bad_hist[..]).unwrap_err();
        let got = decode_pdf1_into(&mut &bad_hist[..], &mut batch).unwrap_err();
        assert_eq!(got, want);
        assert!(batch.is_empty());
    }

    #[test]
    fn encoded_sizes_rank_as_expected() {
        // Symbolic < histogram-5 < discrete-25: the Figure 5 storage story.
        let g = Pdf1::gaussian(50.0, 4.0).unwrap();
        let h = Pdf1::Histogram(g.to_histogram(5).unwrap());
        let d = Pdf1::Discrete(g.to_discrete(25).unwrap());
        let size = |p: &Pdf1| {
            let mut b = Vec::new();
            encode_pdf1(p, &mut b);
            b.len()
        };
        assert!(size(&g) < size(&h));
        assert!(size(&h) < size(&d));
    }
}

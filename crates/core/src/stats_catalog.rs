//! Per-table data statistics collected by `ANALYZE`.
//!
//! Statistics over uncertain data are themselves probabilistic objects: a
//! certain column gets an ordinary equi-depth histogram plus a distinct
//! count, but an uncertain column is summarized by (a) an equi-depth
//! histogram over per-tuple *expected values*, (b) cdf-bound summaries —
//! the per-tuple effective-support `[lo, hi]` intervals and the probability
//! mass retained at the paper-style threshold levels used by
//! `Pr(A ∈ R) ⊙ p` queries — and (c) a bounded per-tuple cdf sketch that
//! lets the planner estimate threshold-predicate selectivity directly.
//! Each table additionally records a tuple-existence-probability histogram.
//!
//! The whole catalog has a deterministic byte codec (versioned, hardened
//! against truncation) so it rides the snapshot/WAL machinery and recovers
//! bitwise-identical after a crash.

use crate::error::{EngineError, Result};
use crate::predicate::{CmpOp, Predicate, Scalar};
use crate::relation::Relation;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Equi-depth bucket count for value/expected-value histograms.
pub const HIST_BUCKETS: usize = 8;
/// Grid points of the per-column cdf sketch.
pub const CDF_GRID: usize = 16;
/// Per-column cap on sampled tuples in the cdf sketch.
pub const SAMPLE_CAP: usize = 256;
/// Buckets of the per-table tuple-existence histogram over `(0, 1]`.
pub const EXIST_BUCKETS: usize = 10;
/// Paper-style probability threshold levels summarized per uncertain column.
pub const MASS_LEVELS: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 0.9];

/// Magic row count assumed for a table that was never analyzed.
pub const MAGIC_ROWS: u64 = 1000;
/// Magic selectivity of a certain predicate on un-analyzed data.
pub const MAGIC_SELECTIVITY: f64 = 1.0 / 3.0;
/// Magic selectivity of a probability-threshold operator on un-analyzed data.
pub const MAGIC_THRESHOLD_SELECTIVITY: f64 = 0.2;

const CODEC_VERSION: u8 = 1;
/// Upper bound on any decoded element count; real catalogs stay far below.
const MAX_DECODE_LEN: usize = 1 << 20;

/// An equi-depth (quantile-boundary) histogram over finite f64 samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EquiDepthHistogram {
    /// Bucket boundaries, `buckets + 1` entries (empty when `total == 0`).
    pub bounds: Vec<f64>,
    /// Per-bucket sample counts.
    pub counts: Vec<u64>,
    /// Total samples summarized.
    pub total: u64,
}

impl EquiDepthHistogram {
    /// Builds an equi-depth histogram from samples (non-finite are dropped).
    pub fn build(mut values: Vec<f64>) -> Self {
        values.retain(|v| v.is_finite());
        if values.is_empty() {
            return EquiDepthHistogram::default();
        }
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let buckets = HIST_BUCKETS.min(n);
        let mut bounds = Vec::with_capacity(buckets + 1);
        let mut counts = Vec::with_capacity(buckets);
        bounds.push(values[0]);
        let mut start = 0usize;
        for b in 0..buckets {
            // Equal-depth split: bucket b covers ranks [start, end).
            let end = (n * (b + 1)) / buckets;
            counts.push((end - start) as u64);
            bounds.push(values[end.max(1) - 1]);
            start = end;
        }
        EquiDepthHistogram { bounds, counts, total: n as u64 }
    }

    /// Estimated fraction of samples strictly below `x` (linear within a
    /// bucket).
    pub fn frac_below(&self, x: f64) -> f64 {
        if self.total == 0 || self.bounds.len() < 2 {
            return 0.5;
        }
        if x <= self.bounds[0] {
            return 0.0;
        }
        if x > *self.bounds.last().expect("bounds") {
            return 1.0;
        }
        let mut below = 0.0;
        for (b, &count) in self.counts.iter().enumerate() {
            let (lo, hi) = (self.bounds[b], self.bounds[b + 1]);
            if x >= hi {
                below += count as f64;
            } else {
                let width = hi - lo;
                let frac = if width > 0.0 { ((x - lo) / width).clamp(0.0, 1.0) } else { 0.0 };
                below += count as f64 * frac;
                break;
            }
        }
        below / self.total as f64
    }

    /// Estimated fraction of samples satisfying `value op x`.
    pub fn selectivity_cmp(&self, op: CmpOp, x: f64, distinct: u64) -> f64 {
        let below = self.frac_below(x);
        let point = 1.0 / distinct.max(1) as f64;
        match op {
            CmpOp::Lt => below,
            CmpOp::Le => (below + point).min(1.0),
            CmpOp::Gt => 1.0 - (below + point).min(1.0),
            CmpOp::Ge => 1.0 - below,
            CmpOp::Eq => point,
            CmpOp::Ne => 1.0 - point,
        }
    }
}

/// Cdf-bound summaries of an uncertain column: aggregate `[lo, hi]`
/// effective-support intervals and the tuple counts retaining at least each
/// paper-style probability-mass level (partial pdfs of maybe-tuples hold
/// mass `< 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundsSummary {
    /// Minimum support lower endpoint across tuples.
    pub lo_min: f64,
    /// Maximum support upper endpoint across tuples.
    pub hi_max: f64,
    /// Mean support width.
    pub width_mean: f64,
    /// `(level, tuples with total pdf mass >= level)` per [`MASS_LEVELS`].
    pub mass_at: Vec<(f64, u64)>,
}

/// A bounded per-tuple cdf sketch: for up to [`SAMPLE_CAP`] tuples, the
/// column's cdf evaluated on a fixed grid spanning the column's support.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CdfSketch {
    /// Grid points (ascending, [`CDF_GRID`] entries).
    pub grid: Vec<f64>,
    /// One cdf row per sampled tuple, aligned with `grid`.
    pub rows: Vec<Vec<f64>>,
}

impl CdfSketch {
    /// Interpolated `Pr(X <= x)` for sampled tuple `row`.
    pub fn cdf_at(&self, row: usize, x: f64) -> f64 {
        let (grid, vals) = (&self.grid, &self.rows[row]);
        if grid.is_empty() || vals.len() != grid.len() {
            return 0.0;
        }
        if x <= grid[0] {
            return if x < grid[0] { 0.0 } else { vals[0] };
        }
        if x >= *grid.last().expect("grid") {
            return *vals.last().expect("vals");
        }
        let j = grid.partition_point(|&g| g <= x);
        let (g0, g1) = (grid[j - 1], grid[j]);
        let (v0, v1) = (vals[j - 1], vals[j]);
        let t = if g1 > g0 { (x - g0) / (g1 - g0) } else { 0.0 };
        v0 + (v1 - v0) * t
    }

    /// Interpolated `Pr(a <= X <= b)` for sampled tuple `row`.
    pub fn prob_in(&self, row: usize, a: f64, b: f64) -> f64 {
        (self.cdf_at(row, b) - self.cdf_at(row, a)).max(0.0)
    }

    /// Total pdf mass of sampled tuple `row` (`< 1` for maybe-values).
    pub fn mass(&self, row: usize) -> f64 {
        self.rows[row].last().copied().unwrap_or(0.0)
    }
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Whether the column is uncertain.
    pub uncertain: bool,
    /// Equi-depth histogram over values (certain) or expected values
    /// (uncertain).
    pub hist: EquiDepthHistogram,
    /// Distinct-count estimate (certain columns; 0 for uncertain).
    pub distinct: u64,
    /// Tuples contributing no value (NULL / massless pdf).
    pub nulls: u64,
    /// Cdf-bound summaries (uncertain columns only).
    pub bounds: Option<BoundsSummary>,
    /// Per-tuple cdf sketch (uncertain columns only).
    pub sketch: Option<CdfSketch>,
}

/// Statistics for one table, as collected by one `ANALYZE`.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Table name.
    pub table: String,
    /// Live tuple count at analyze time.
    pub rows: u64,
    /// Sum of tuple existence probabilities (the expected row count).
    pub exist_sum: f64,
    /// Existence-probability histogram: [`EXIST_BUCKETS`] fixed-width
    /// buckets over `(0, 1]`.
    pub exist_hist: Vec<u64>,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

/// Collects full [`TableStats`] from a relation.
pub fn analyze_relation(rel: &Relation) -> Result<TableStats> {
    let n = rel.len();
    let mut exist_hist = vec![0u64; EXIST_BUCKETS];
    let mut exist_sum = 0.0;
    for t in rel.tuples.iter() {
        let e = t.naive_existence().clamp(0.0, 1.0);
        exist_sum += e;
        let b = ((e * EXIST_BUCKETS as f64).ceil() as usize).clamp(1, EXIST_BUCKETS) - 1;
        exist_hist[b] += 1;
    }
    let mut columns = Vec::new();
    for col in rel.schema.columns() {
        columns.push(if col.uncertain {
            analyze_uncertain(rel, &col.name)?
        } else {
            analyze_certain(rel, &col.name)?
        });
    }
    Ok(TableStats { table: rel.name.clone(), rows: n as u64, exist_sum, exist_hist, columns })
}

fn analyze_certain(rel: &Relation, name: &str) -> Result<ColumnStats> {
    let mut values = Vec::with_capacity(rel.len());
    let mut distinct = BTreeSet::new();
    let mut nulls = 0u64;
    for ti in 0..rel.len() {
        let v = rel.value(ti, name)?;
        if matches!(v, Value::Null) {
            nulls += 1;
            continue;
        }
        distinct.insert(format!("{v:?}"));
        if let Some(x) = v.as_f64() {
            values.push(x);
        }
    }
    Ok(ColumnStats {
        name: name.to_string(),
        uncertain: false,
        hist: EquiDepthHistogram::build(values),
        distinct: distinct.len() as u64,
        nulls,
        bounds: None,
        sketch: None,
    })
}

fn analyze_uncertain(rel: &Relation, name: &str) -> Result<ColumnStats> {
    let mut expected = Vec::with_capacity(rel.len());
    let mut nulls = 0u64;
    let mut lo_min = f64::INFINITY;
    let mut hi_max = f64::NEG_INFINITY;
    let mut width_sum = 0.0;
    let mut width_n = 0u64;
    let mut mass_counts = [0u64; MASS_LEVELS.len()];
    let mut pdfs = Vec::new();
    for ti in 0..rel.len() {
        let pdf = rel.marginal(ti, name)?;
        match pdf.expected_value() {
            Some(ev) if ev.is_finite() => expected.push(ev),
            _ => nulls += 1,
        }
        if let Some(iv) = pdf.effective_support() {
            if iv.lo.is_finite() && iv.hi.is_finite() {
                lo_min = lo_min.min(iv.lo);
                hi_max = hi_max.max(iv.hi);
                width_sum += iv.hi - iv.lo;
                width_n += 1;
            }
        }
        let mass = pdf.mass();
        for (i, lvl) in MASS_LEVELS.iter().enumerate() {
            if mass >= lvl - 1e-9 {
                mass_counts[i] += 1;
            }
        }
        if pdfs.len() < SAMPLE_CAP {
            pdfs.push(pdf);
        }
    }
    let sketch = if lo_min.is_finite() && hi_max > lo_min && !pdfs.is_empty() {
        let step = (hi_max - lo_min) / (CDF_GRID - 1) as f64;
        let grid: Vec<f64> = (0..CDF_GRID).map(|j| lo_min + step * j as f64).collect();
        let rows =
            pdfs.iter().map(|pdf| grid.iter().map(|&g| pdf.cumulative(g)).collect()).collect();
        Some(CdfSketch { grid, rows })
    } else {
        None
    };
    let bounds = if width_n > 0 {
        Some(BoundsSummary {
            lo_min,
            hi_max,
            width_mean: width_sum / width_n as f64,
            mass_at: MASS_LEVELS.iter().copied().zip(mass_counts).collect(),
        })
    } else {
        None
    };
    Ok(ColumnStats {
        name: name.to_string(),
        uncertain: true,
        hist: EquiDepthHistogram::build(expected),
        distinct: 0,
        nulls,
        bounds,
        sketch,
    })
}

/// The closed value interval in which `pred` holds, if `pred` constrains a
/// single column by numeric comparisons (conjunctions intersect). The
/// access-path planner reuses this to turn a threshold predicate into an
/// index probe range — the interval is a superset of the passing region,
/// so index candidate sets stay sound.
pub(crate) fn pred_interval(pred: &Predicate) -> Option<(String, f64, f64)> {
    match pred {
        Predicate::Cmp(a, op, b) => {
            let (col, op, v) = match (a, b) {
                (Scalar::Col(c), Scalar::Lit(v)) => (c, *op, v),
                (Scalar::Lit(v), Scalar::Col(c)) => (c, op.flip(), v),
                _ => return None,
            };
            let x = v.as_f64()?;
            let (lo, hi) = match op {
                CmpOp::Lt | CmpOp::Le => (f64::NEG_INFINITY, x),
                CmpOp::Gt | CmpOp::Ge => (x, f64::INFINITY),
                CmpOp::Eq => (x, x),
                CmpOp::Ne => return None,
            };
            Some((col.clone(), lo, hi))
        }
        Predicate::And(ps) => {
            let mut acc: Option<(String, f64, f64)> = None;
            for p in ps {
                let (c, lo, hi) = pred_interval(p)?;
                acc = match acc {
                    None => Some((c, lo, hi)),
                    Some((c0, lo0, hi0)) if c0 == c => Some((c0, lo0.max(lo), hi0.min(hi))),
                    _ => return None,
                };
            }
            acc
        }
        _ => None,
    }
}

impl TableStats {
    fn column(&self, name: &str) -> Option<&ColumnStats> {
        // Qualified references (`t.x`) fall back to the bare column name.
        self.columns.iter().find(|c| c.name == name).or_else(|| {
            name.rsplit('.').next().and_then(|b| self.columns.iter().find(|c| c.name == b))
        })
    }

    /// Estimated selectivity of a certain predicate over this table.
    pub fn est_select(&self, pred: &Predicate) -> f64 {
        let mut sel = 1.0;
        for atom in pred.conjuncts() {
            sel *= self.est_atom(atom);
        }
        sel.clamp(0.0, 1.0)
    }

    fn est_atom(&self, atom: &Predicate) -> f64 {
        match atom {
            Predicate::Cmp(a, op, b) => {
                let (col, op, v) = match (a, b) {
                    (Scalar::Col(c), Scalar::Lit(v)) => (c, *op, v),
                    (Scalar::Lit(v), Scalar::Col(c)) => (c, op.flip(), v),
                    _ => return MAGIC_SELECTIVITY,
                };
                match (self.column(col), v.as_f64()) {
                    (Some(cs), Some(x)) if cs.hist.total > 0 => {
                        cs.hist.selectivity_cmp(op, x, cs.distinct)
                    }
                    _ => MAGIC_SELECTIVITY,
                }
            }
            Predicate::Not(p) => (1.0 - self.est_select(p)).clamp(0.0, 1.0),
            Predicate::Or(ps) => {
                // Union bound, capped.
                ps.iter().map(|p| self.est_select(p)).sum::<f64>().min(1.0)
            }
            Predicate::And(_) => self.est_select(atom),
        }
    }

    /// Estimated selectivity of `PROB(pred) op p` over this table, from the
    /// per-tuple cdf sketch of the constrained column.
    pub fn est_threshold_pred(&self, pred: &Predicate, op: CmpOp, p: f64) -> f64 {
        let Some((col, lo, hi)) = pred_interval(pred) else {
            return MAGIC_THRESHOLD_SELECTIVITY;
        };
        let Some(sketch) = self.column(&col).and_then(|c| c.sketch.as_ref()) else {
            return MAGIC_THRESHOLD_SELECTIVITY;
        };
        if sketch.rows.is_empty() {
            return MAGIC_THRESHOLD_SELECTIVITY;
        }
        let hits = (0..sketch.rows.len())
            .filter(|&r| {
                let prob = sketch.prob_in(r, lo, hi);
                op.test(prob.partial_cmp(&p).unwrap_or(std::cmp::Ordering::Equal))
            })
            .count();
        hits as f64 / sketch.rows.len() as f64
    }

    /// Estimated selectivity of `PROB(attrs) op p` (attribute existence),
    /// from sampled per-tuple pdf masses.
    pub fn est_threshold_attrs(&self, attrs: &[String], op: CmpOp, p: f64) -> f64 {
        let mut sketches = Vec::new();
        for a in attrs {
            match self.column(a).and_then(|c| c.sketch.as_ref()) {
                Some(s) if !s.rows.is_empty() => sketches.push(s),
                _ => return MAGIC_THRESHOLD_SELECTIVITY,
            }
        }
        if sketches.is_empty() {
            return MAGIC_THRESHOLD_SELECTIVITY;
        }
        let n = sketches.iter().map(|s| s.rows.len()).min().expect("non-empty");
        let hits = (0..n)
            .filter(|&r| {
                let mass: f64 = sketches.iter().map(|s| s.mass(r)).product();
                op.test(mass.partial_cmp(&p).unwrap_or(std::cmp::Ordering::Equal))
            })
            .count();
        hits as f64 / n as f64
    }
}

/// The per-database stats catalog: one [`TableStats`] per analyzed table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsCatalog {
    tables: BTreeMap<String, TableStats>,
}

impl StatsCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        StatsCatalog::default()
    }

    /// Stats for `table`, if analyzed.
    pub fn get(&self, table: &str) -> Option<&TableStats> {
        self.tables.get(table)
    }

    /// Installs (or replaces) the stats of one table.
    pub fn insert(&mut self, stats: TableStats) {
        self.tables.insert(stats.table.clone(), stats);
    }

    /// Number of analyzed tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether no table has been analyzed.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterates analyzed tables in name order.
    pub fn iter(&self) -> impl Iterator<Item = &TableStats> {
        self.tables.values()
    }

    /// Canonical byte encoding of the whole catalog (name-ordered); two
    /// catalogs are equal iff their encodings are byte-identical.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        for ts in self.tables.values() {
            buf.extend_from_slice(&ts.encode());
        }
        buf
    }
}

// ---------------------------------------------------------------------------
// Deterministic codec.
// ---------------------------------------------------------------------------

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    put_u64(buf, vs.len() as u64);
    for &v in vs {
        put_f64(buf, v);
    }
}

fn put_u64s(buf: &mut Vec<u8>, vs: &[u64]) {
    put_u64(buf, vs.len() as u64);
    for &v in vs {
        put_u64(buf, v);
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn bad(what: &str) -> EngineError {
        EngineError::Corrupt(format!("stats record: {what}"))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(Self::bad("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn count(&mut self) -> Result<usize> {
        let n = self.u64()? as usize;
        // A count can never exceed the bytes that remain to back it.
        if n > MAX_DECODE_LEN || n > self.buf.len() - self.pos {
            return Err(Self::bad("implausible count"));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String> {
        let n = self.count()?;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| Self::bad("non-utf8 string"))
    }

    fn f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.count()?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn u64s(&mut self) -> Result<Vec<u64>> {
        let n = self.count()?;
        (0..n).map(|_| self.u64()).collect()
    }
}

impl TableStats {
    /// Deterministic byte encoding (versioned).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.push(CODEC_VERSION);
        put_str(&mut buf, &self.table);
        put_u64(&mut buf, self.rows);
        put_f64(&mut buf, self.exist_sum);
        put_u64s(&mut buf, &self.exist_hist);
        put_u64(&mut buf, self.columns.len() as u64);
        for c in &self.columns {
            put_str(&mut buf, &c.name);
            buf.push(c.uncertain as u8);
            put_f64s(&mut buf, &c.hist.bounds);
            put_u64s(&mut buf, &c.hist.counts);
            put_u64(&mut buf, c.hist.total);
            put_u64(&mut buf, c.distinct);
            put_u64(&mut buf, c.nulls);
            match &c.bounds {
                None => buf.push(0),
                Some(b) => {
                    buf.push(1);
                    put_f64(&mut buf, b.lo_min);
                    put_f64(&mut buf, b.hi_max);
                    put_f64(&mut buf, b.width_mean);
                    put_u64(&mut buf, b.mass_at.len() as u64);
                    for (lvl, n) in &b.mass_at {
                        put_f64(&mut buf, *lvl);
                        put_u64(&mut buf, *n);
                    }
                }
            }
            match &c.sketch {
                None => buf.push(0),
                Some(s) => {
                    buf.push(1);
                    put_f64s(&mut buf, &s.grid);
                    put_u64(&mut buf, s.rows.len() as u64);
                    for row in &s.rows {
                        put_f64s(&mut buf, row);
                    }
                }
            }
        }
        buf
    }

    /// Decodes one table's stats; rejects truncation and garbage as
    /// [`EngineError::Corrupt`].
    pub fn decode(buf: &[u8]) -> Result<TableStats> {
        let mut c = Cursor { buf, pos: 0 };
        let ver = c.u8()?;
        if ver != CODEC_VERSION {
            return Err(Cursor::bad(&format!("unknown version {ver}")));
        }
        let table = c.str()?;
        let rows = c.u64()?;
        let exist_sum = c.f64()?;
        let exist_hist = c.u64s()?;
        let ncols = c.count()?;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let name = c.str()?;
            let uncertain = c.u8()? != 0;
            let bounds_v = c.f64s()?;
            let counts = c.u64s()?;
            let total = c.u64()?;
            let distinct = c.u64()?;
            let nulls = c.u64()?;
            let bounds = match c.u8()? {
                0 => None,
                1 => {
                    let lo_min = c.f64()?;
                    let hi_max = c.f64()?;
                    let width_mean = c.f64()?;
                    let n = c.count()?;
                    let mut mass_at = Vec::with_capacity(n);
                    for _ in 0..n {
                        let lvl = c.f64()?;
                        mass_at.push((lvl, c.u64()?));
                    }
                    Some(BoundsSummary { lo_min, hi_max, width_mean, mass_at })
                }
                _ => return Err(Cursor::bad("bad bounds flag")),
            };
            let sketch = match c.u8()? {
                0 => None,
                1 => {
                    let grid = c.f64s()?;
                    let nrows = c.count()?;
                    let mut rows = Vec::with_capacity(nrows);
                    for _ in 0..nrows {
                        rows.push(c.f64s()?);
                    }
                    Some(CdfSketch { grid, rows })
                }
                _ => return Err(Cursor::bad("bad sketch flag")),
            };
            columns.push(ColumnStats {
                name,
                uncertain,
                hist: EquiDepthHistogram { bounds: bounds_v, counts, total },
                distinct,
                nulls,
                bounds,
                sketch,
            });
        }
        if c.pos != buf.len() {
            return Err(Cursor::bad("trailing bytes"));
        }
        Ok(TableStats { table, rows, exist_sum, exist_hist, columns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryRegistry;
    use crate::schema::{ColumnType, ProbSchema};
    use orion_pdf::prelude::Pdf1;

    fn sensor_rel(n: usize) -> Relation {
        let schema = ProbSchema::new(
            vec![("rid", ColumnType::Int, false), ("v", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("readings", schema);
        let mut reg = HistoryRegistry::new();
        for i in 0..n {
            rel.insert_simple(
                &mut reg,
                &[("rid", Value::Int(i as i64))],
                &[("v", Pdf1::gaussian(10.0 + i as f64, 4.0).unwrap())],
            )
            .unwrap();
        }
        rel
    }

    #[test]
    fn equi_depth_histogram_shape_and_mass() {
        let h = EquiDepthHistogram::build((0..100).map(|i| i as f64).collect());
        assert_eq!(h.total, 100);
        assert_eq!(h.counts.iter().sum::<u64>(), 100);
        assert_eq!(h.counts.len(), HIST_BUCKETS);
        assert_eq!(h.bounds.len(), HIST_BUCKETS + 1);
        // Equi-depth: every bucket holds ~n/B samples.
        for &c in &h.counts {
            assert!((12..=13).contains(&c), "counts: {:?}", h.counts);
        }
        assert!((h.frac_below(50.0) - 0.5).abs() < 0.05);
        assert_eq!(h.frac_below(-1.0), 0.0);
        assert_eq!(h.frac_below(1e9), 1.0);
    }

    #[test]
    fn histogram_fewer_samples_than_buckets() {
        let h = EquiDepthHistogram::build(vec![3.0, 1.0]);
        assert_eq!(h.total, 2);
        assert_eq!(h.counts.iter().sum::<u64>(), 2);
        let empty = EquiDepthHistogram::build(vec![f64::NAN]);
        assert_eq!(empty.total, 0);
    }

    #[test]
    fn analyze_collects_rows_columns_and_existence() {
        let rel = sensor_rel(20);
        let ts = analyze_relation(&rel).unwrap();
        assert_eq!(ts.rows, 20);
        assert!((ts.exist_sum - 20.0).abs() < 1e-9);
        assert_eq!(ts.exist_hist.iter().sum::<u64>(), 20);
        assert_eq!(ts.exist_hist[EXIST_BUCKETS - 1], 20, "full-mass tuples in last bucket");
        assert_eq!(ts.columns.len(), 2);
        let rid = &ts.columns[0];
        assert!(!rid.uncertain);
        assert_eq!(rid.distinct, 20);
        assert_eq!(rid.hist.total, 20);
        let v = &ts.columns[1];
        assert!(v.uncertain);
        assert_eq!(v.hist.total, 20, "expected-value histogram covers all tuples");
        let b = v.bounds.as_ref().unwrap();
        assert!(b.lo_min < 10.0 && b.hi_max > 29.0);
        assert_eq!(b.mass_at.len(), MASS_LEVELS.len());
        assert_eq!(b.mass_at[0].1, 20, "all tuples hold full mass");
        let s = v.sketch.as_ref().unwrap();
        assert_eq!(s.grid.len(), CDF_GRID);
        assert_eq!(s.rows.len(), 20);
    }

    #[test]
    fn threshold_estimates_track_truth() {
        let rel = sensor_rel(100);
        let ts = analyze_relation(&rel).unwrap();
        // Ground truth: Pr(v BETWEEN 10 AND 40) > 0.5.
        let pred = Predicate::And(vec![
            Predicate::cmp("v", CmpOp::Ge, 10.0),
            Predicate::cmp("v", CmpOp::Le, 40.0),
        ]);
        let truth = {
            let mut n = 0;
            for ti in 0..rel.len() {
                let pdf = rel.marginal(ti, "v").unwrap();
                let p = pdf.cumulative(40.0) - pdf.cumulative(10.0);
                if p > 0.5 {
                    n += 1;
                }
            }
            n as f64
        };
        let est = ts.est_threshold_pred(&pred, CmpOp::Gt, 0.5) * ts.rows as f64;
        let err = (est - truth).abs() / truth.max(1.0);
        assert!(err < 0.5, "est {est} vs truth {truth}");
    }

    #[test]
    fn certain_selectivity_uses_histogram() {
        let rel = sensor_rel(100);
        let ts = analyze_relation(&rel).unwrap();
        let sel = ts.est_select(&Predicate::cmp("rid", CmpOp::Lt, 50i64));
        assert!((sel - 0.5).abs() < 0.1, "sel {sel}");
        // Unknown columns fall back to the magic constant.
        let sel = ts.est_select(&Predicate::cmp_cols("rid", CmpOp::Lt, "other"));
        assert!((sel - MAGIC_SELECTIVITY).abs() < 1e-9);
    }

    #[test]
    fn codec_round_trips_bitwise() {
        let rel = sensor_rel(17);
        let ts = analyze_relation(&rel).unwrap();
        let bytes = ts.encode();
        let back = TableStats::decode(&bytes).unwrap();
        assert_eq!(back, ts);
        assert_eq!(back.encode(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn decode_rejects_every_truncation() {
        let rel = sensor_rel(5);
        let bytes = analyze_relation(&rel).unwrap().encode();
        for cut in 0..bytes.len() {
            let err = TableStats::decode(&bytes[..cut]).expect_err("truncated must fail");
            assert!(err.is_corruption(), "cut {cut}: {err}");
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(TableStats::decode(&padded).is_err());
        // Bad version byte.
        let mut bad = bytes;
        bad[0] = 99;
        assert!(TableStats::decode(&bad).is_err());
    }

    #[test]
    fn catalog_encode_is_name_ordered() {
        let mut cat = StatsCatalog::new();
        cat.insert(analyze_relation(&sensor_rel(3)).unwrap());
        let mut b = analyze_relation(&sensor_rel(2)).unwrap();
        b.table = "aaa".into();
        cat.insert(b);
        let names: Vec<&str> = cat.iter().map(|t| t.table.as_str()).collect();
        assert_eq!(names, vec!["aaa", "readings"]);
        assert_eq!(cat.len(), 2);
        let enc1 = cat.encode();
        let enc2 = cat.clone().encode();
        assert_eq!(enc1, enc2);
    }
}

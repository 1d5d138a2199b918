//! Columnar batch execution support (DESIGN.md §13).
//!
//! Two pieces live here:
//!
//! * [`ExecMode`] — the row/batch switch threaded through
//!   [`ExecOptions`](crate::select::ExecOptions). Batch mode processes a
//!   morsel at a time (`exec_par::run_batches`) and vectorizes the
//!   certain-column predicate work; every probabilistic computation runs
//!   the exact same scalar arithmetic in the same order as row mode, so
//!   results are **bit-identical** across modes (proven by
//!   `tests/batch_equiv.rs`).
//! * `CertainLanes` — a columnar view of one chunk's certain values.
//!   Int/Real/Null columns become flat `f64` lanes with a null mask, over
//!   which comparisons run as autovectorizable loops; Text/Bool/mixed
//!   columns fall back to per-row [`Value::compare`]. The lane evaluator
//!   reproduces [`Predicate::eval`]'s three-valued logic exactly, one
//!   tri-state per row.

use crate::predicate::{CmpOp, Predicate, Scalar};
use crate::relation::Relation;
use crate::tuple::ProbTuple;
use crate::value::Value;

/// How the executor walks a relation: tuple-at-a-time or a morsel-sized
/// batch at a time. Both modes produce bit-identical tuples, pdf values and
/// history ids; batch mode additionally reports batch counters through
/// `ExecStats` (`mode=batch batches=… rows/batch=… sel=…%`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Classic tuple-at-a-time execution.
    Row,
    /// Columnar batch execution: one morsel becomes one batch.
    Batch,
}

impl ExecMode {
    /// The mode requested by the `ORION_MODE` environment variable:
    /// `batch` (case-insensitive) selects [`ExecMode::Batch`], anything
    /// else — including unset — selects [`ExecMode::Row`].
    pub fn from_env() -> Self {
        Self::parse(std::env::var("ORION_MODE").ok().as_deref())
    }

    fn parse(v: Option<&str>) -> Self {
        match v {
            Some(s) if s.trim().eq_ignore_ascii_case("batch") => ExecMode::Batch,
            _ => ExecMode::Row,
        }
    }

    /// Whether this is [`ExecMode::Batch`].
    pub fn is_batch(self) -> bool {
        matches!(self, ExecMode::Batch)
    }

    /// Lower-case name, as printed by `EXPLAIN ANALYZE`.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::Row => "row",
            ExecMode::Batch => "batch",
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One tri-state per chunk row: `1` = true, `0` = false, `-1` = unknown
/// (three-valued logic; selections keep only `1`).
pub(crate) type TriVec = Vec<i8>;

fn tri_of(v: Option<bool>) -> i8 {
    match v {
        Some(true) => 1,
        Some(false) => 0,
        None => -1,
    }
}

/// One column's values across a chunk.
enum Lane {
    /// Numeric lane: every chunk value was `Int`, `Real` or `Null`.
    /// `Int`s are widened to `f64`, which is compare-equivalent —
    /// [`Value::compare`] itself compares mixed numerics through `as_f64`.
    Num { vals: Vec<f64>, null: Vec<bool> },
    /// Fallback lane for Text/Bool/mixed columns: comparisons go through
    /// [`Value::compare`] row by row, indexing the chunk directly.
    Rows { idx: usize },
}

/// Columnar view of one chunk's certain predicate columns.
pub(crate) struct CertainLanes<'a> {
    chunk: &'a [ProbTuple],
    lanes: Vec<(String, Lane)>,
}

impl<'a> CertainLanes<'a> {
    /// Builds lanes for `cols` over `chunk`. Columns absent from the schema
    /// become all-null lanes, matching `certain_lookup`'s `Value::Null`
    /// fallback for unknown names.
    pub(crate) fn build(rel: &Relation, chunk: &'a [ProbTuple], cols: &[String]) -> Self {
        let lanes =
            cols.iter().map(|c| (c.clone(), build_lane(chunk, rel.schema.index_of(c)))).collect();
        CertainLanes { chunk, lanes }
    }

    fn lane(&self, col: &str) -> Option<&Lane> {
        self.lanes.iter().find(|(n, _)| n == col).map(|(_, l)| l)
    }

    /// The actual `Value` of row `i` in `lane`. Num lanes reconstruct as
    /// `Value::Real`, which is compare-equivalent to the original because
    /// Num lanes never held Text or Bool.
    fn value_at(&self, i: usize, lane: &Lane) -> Value {
        match lane {
            Lane::Num { vals, null } => {
                if null[i] {
                    Value::Null
                } else {
                    Value::Real(vals[i])
                }
            }
            Lane::Rows { idx } => self.chunk[i].certain[*idx].clone(),
        }
    }

    /// Evaluates `pred` over every chunk row at once, reproducing
    /// [`Predicate::eval`]'s three-valued logic per row. (Row mode's AND/OR
    /// short-circuit only skips side-effect-free work, so evaluating every
    /// child vector-wide yields identical tri-states.)
    pub(crate) fn eval(&self, pred: &Predicate) -> TriVec {
        let n = self.chunk.len();
        match pred {
            Predicate::Cmp(a, op, b) => self.eval_cmp(a, *op, b),
            Predicate::And(ps) => {
                // Empty conjunction is TRUE; FALSE dominates UNKNOWN.
                let mut acc = vec![1i8; n];
                for p in ps {
                    let child = self.eval(p);
                    for i in 0..n {
                        if child[i] == 0 {
                            acc[i] = 0;
                        } else if child[i] == -1 && acc[i] == 1 {
                            acc[i] = -1;
                        }
                    }
                }
                acc
            }
            Predicate::Or(ps) => {
                // Empty disjunction is FALSE; TRUE dominates UNKNOWN.
                let mut acc = vec![0i8; n];
                for p in ps {
                    let child = self.eval(p);
                    for i in 0..n {
                        if child[i] == 1 {
                            acc[i] = 1;
                        } else if child[i] == -1 && acc[i] == 0 {
                            acc[i] = -1;
                        }
                    }
                }
                acc
            }
            Predicate::Not(p) => {
                let mut v = self.eval(p);
                for x in v.iter_mut() {
                    if *x != -1 {
                        *x = 1 - *x;
                    }
                }
                v
            }
        }
    }

    fn eval_cmp(&self, a: &Scalar, op: CmpOp, b: &Scalar) -> TriVec {
        let n = self.chunk.len();
        match (a, b) {
            (Scalar::Lit(va), Scalar::Lit(vb)) => {
                let tri = tri_of(va.compare(vb).map(|o| op.test(o)));
                vec![tri; n]
            }
            (Scalar::Col(c), Scalar::Lit(v)) => self.eval_col_lit(c, op, v),
            // `lit op col` mirrors to `col flip(op) lit`:
            // op.test(cmp(a,b)) == op.flip().test(cmp(b,a)).
            (Scalar::Lit(v), Scalar::Col(c)) => self.eval_col_lit(c, op.flip(), v),
            (Scalar::Col(ca), Scalar::Col(cb)) => self.eval_col_col(ca, op, cb),
        }
    }

    fn eval_col_lit(&self, col: &str, op: CmpOp, lit: &Value) -> TriVec {
        let n = self.chunk.len();
        match self.lane(col) {
            Some(Lane::Num { vals, null }) => match lit.as_f64() {
                Some(x) => {
                    let mut out = vec![-1i8; n];
                    for i in 0..n {
                        if !null[i] {
                            // partial_cmp None (NaN) is UNKNOWN, exactly
                            // like Value::compare on non-finite numerics.
                            out[i] = match vals[i].partial_cmp(&x) {
                                Some(o) => op.test(o) as i8,
                                None => -1,
                            };
                        }
                    }
                    out
                }
                // Numeric column against Text/Bool/Null never compares.
                None => vec![-1i8; n],
            },
            Some(lane @ Lane::Rows { .. }) => (0..n)
                .map(|i| tri_of(self.value_at(i, lane).compare(lit).map(|o| op.test(o))))
                .collect(),
            None => vec![-1i8; n],
        }
    }

    fn eval_col_col(&self, ca: &str, op: CmpOp, cb: &str) -> TriVec {
        let n = self.chunk.len();
        match (self.lane(ca), self.lane(cb)) {
            (Some(Lane::Num { vals: va, null: na }), Some(Lane::Num { vals: vb, null: nb })) => {
                let mut out = vec![-1i8; n];
                for i in 0..n {
                    if !na[i] && !nb[i] {
                        out[i] = match va[i].partial_cmp(&vb[i]) {
                            Some(o) => op.test(o) as i8,
                            None => -1,
                        };
                    }
                }
                out
            }
            (la, lb) => (0..n)
                .map(|i| {
                    let va = la.map(|l| self.value_at(i, l)).unwrap_or(Value::Null);
                    let vb = lb.map(|l| self.value_at(i, l)).unwrap_or(Value::Null);
                    tri_of(va.compare(&vb).map(|o| op.test(o)))
                })
                .collect(),
        }
    }
}

fn build_lane(chunk: &[ProbTuple], idx: Option<usize>) -> Lane {
    let Some(idx) = idx else {
        // Unknown column: certain_lookup yields Value::Null everywhere.
        return Lane::Num { vals: vec![0.0; chunk.len()], null: vec![true; chunk.len()] };
    };
    let mut vals = Vec::with_capacity(chunk.len());
    let mut null = Vec::with_capacity(chunk.len());
    for t in chunk {
        match &t.certain[idx] {
            Value::Null => {
                vals.push(0.0);
                null.push(true);
            }
            Value::Int(i) => {
                vals.push(*i as f64);
                null.push(false);
            }
            Value::Real(r) => {
                vals.push(*r);
                null.push(false);
            }
            _ => return Lane::Rows { idx },
        }
    }
    Lane::Num { vals, null }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryRegistry;
    use crate::schema::{ColumnType, ProbSchema};
    use crate::select::certain_lookup;

    #[test]
    fn mode_parsing() {
        assert_eq!(ExecMode::parse(None), ExecMode::Row);
        assert_eq!(ExecMode::parse(Some("row")), ExecMode::Row);
        assert_eq!(ExecMode::parse(Some("batch")), ExecMode::Batch);
        assert_eq!(ExecMode::parse(Some("  BaTcH ")), ExecMode::Batch);
        assert_eq!(ExecMode::parse(Some("columnar")), ExecMode::Row);
        assert!(ExecMode::Batch.is_batch());
        assert_eq!(ExecMode::Row.to_string(), "row");
        assert_eq!(ExecMode::Batch.to_string(), "batch");
    }

    /// A relation exercising every lane shape: pure numeric, numeric with
    /// NULLs and NaN, text, bool, and a mixed numeric/text column.
    fn lane_relation() -> Relation {
        let schema = ProbSchema::new(
            vec![
                ("i", ColumnType::Int, false),
                ("r", ColumnType::Real, false),
                ("t", ColumnType::Text, false),
                ("b", ColumnType::Bool, false),
                ("m", ColumnType::Text, false),
            ],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("lanes", schema);
        let rows: Vec<Vec<Value>> = vec![
            vec![
                Value::Int(3),
                Value::Real(2.5),
                Value::Text("abc".into()),
                Value::Bool(true),
                Value::Int(1),
            ],
            vec![
                Value::Int(-7),
                Value::Null,
                Value::Text("abd".into()),
                Value::Bool(false),
                Value::Text("x".into()),
            ],
            vec![Value::Null, Value::Real(f64::NAN), Value::Null, Value::Null, Value::Real(3.0)],
            vec![
                Value::Int(3),
                Value::Real(3.0),
                Value::Text("abc".into()),
                Value::Bool(true),
                Value::Bool(false),
            ],
        ];
        for certain in rows {
            rel.tuples_mut().push(ProbTuple { certain, nodes: vec![] });
        }
        rel
    }

    fn check(rel: &Relation, pred: &Predicate) {
        let lanes = CertainLanes::build(rel, &rel.tuples, &pred.columns());
        let tri = lanes.eval(pred);
        assert_eq!(tri.len(), rel.tuples.len());
        for (i, t) in rel.tuples.iter().enumerate() {
            let want = tri_of(pred.eval(&certain_lookup(rel, t)));
            assert_eq!(tri[i], want, "row {i} of {pred}");
        }
    }

    #[test]
    fn lane_eval_matches_row_eval_case_by_case() {
        let rel = lane_relation();
        let preds = vec![
            // Numeric lane vs numeric literal (NULL and NaN rows -> unknown).
            Predicate::cmp("i", CmpOp::Lt, 0i64),
            Predicate::cmp("r", CmpOp::Ge, 2.5),
            // Mirrored literal-first form exercises op.flip().
            Predicate::Cmp(Scalar::lit(3i64), CmpOp::Gt, Scalar::col("i")),
            // Numeric lane vs non-numeric literal: always unknown.
            Predicate::cmp("i", CmpOp::Eq, "abc"),
            Predicate::cmp("r", CmpOp::Ne, true),
            // Rows lane (text, bool) vs literal.
            Predicate::cmp("t", CmpOp::Le, "abc"),
            Predicate::cmp("b", CmpOp::Eq, true),
            // Num-Num column-column, incl. the NaN row.
            Predicate::cmp_cols("i", CmpOp::Lt, "r"),
            Predicate::cmp_cols("i", CmpOp::Eq, "r"),
            // Mixed lane fallback: Num column vs Rows column.
            Predicate::cmp_cols("i", CmpOp::Eq, "m"),
            Predicate::cmp_cols("t", CmpOp::Eq, "m"),
            // Unknown column behaves like certain_lookup's Null fallback.
            Predicate::cmp("zzz", CmpOp::Eq, 1i64),
            Predicate::cmp_cols("zzz", CmpOp::Lt, "i"),
            // Literal-literal broadcast.
            Predicate::Cmp(Scalar::lit(1i64), CmpOp::Lt, Scalar::lit(2i64)),
            Predicate::Cmp(Scalar::lit(Value::Null), CmpOp::Eq, Scalar::lit(1i64)),
        ];
        for p in &preds {
            check(&rel, p);
        }
    }

    #[test]
    fn lane_eval_matches_three_valued_connectives() {
        let rel = lane_relation();
        let a = Predicate::cmp("i", CmpOp::Gt, 0i64);
        let b = Predicate::cmp("r", CmpOp::Gt, 2.0);
        let t = Predicate::cmp("t", CmpOp::Eq, "abc");
        let combos = vec![
            Predicate::And(vec![a.clone(), b.clone()]),
            Predicate::And(vec![b.clone(), a.clone(), t.clone()]),
            Predicate::Or(vec![a.clone(), b.clone()]),
            Predicate::Or(vec![t.clone(), b.clone()]),
            Predicate::Not(Box::new(a.clone())),
            Predicate::Not(Box::new(Predicate::And(vec![a.clone(), b.clone()]))),
            Predicate::And(vec![]),
            Predicate::Or(vec![]),
            Predicate::Or(vec![
                Predicate::And(vec![a.clone(), Predicate::Not(Box::new(b.clone()))]),
                Predicate::And(vec![t, Predicate::cmp("b", CmpOp::Eq, false)]),
            ]),
        ];
        for p in &combos {
            check(&rel, p);
        }
    }

    #[test]
    fn lanes_over_real_relation_with_defaulted_nulls() {
        // Relation::insert defaults unsupplied certain columns to NULL;
        // lanes must see them exactly as certain_lookup does.
        let schema = ProbSchema::new(
            vec![("id", ColumnType::Int, false), ("w", ColumnType::Int, false)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("t", schema);
        let mut reg = HistoryRegistry::new();
        rel.insert_simple(&mut reg, &[("id", Value::Int(1))], &[]).unwrap();
        rel.insert_simple(&mut reg, &[("id", Value::Int(2)), ("w", Value::Int(9))], &[]).unwrap();
        let p = Predicate::cmp("w", CmpOp::Gt, 5i64);
        check(&rel, &p);
        let lanes = CertainLanes::build(&rel, &rel.tuples, &p.columns());
        assert_eq!(lanes.eval(&p), vec![-1, 1]);
    }
}

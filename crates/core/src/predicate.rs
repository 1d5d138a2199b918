//! Boolean predicates over relation columns.
//!
//! Predicates drive selections, joins and threshold queries. A predicate
//! can be evaluated (a) on fully certain rows with three-valued logic, and
//! (b) as a point indicator during `floor` operations, where uncertain
//! columns are bound to real-valued coordinates of a joint pdf.

use crate::error::{EngineError, Result};
use crate::interval_of_cmp;
use crate::schema::ProbSchema;
use crate::value::Value;
use orion_pdf::prelude::RegionSet;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    /// Applies the operator to an ordering.
    pub fn test(&self, ord: Ordering) -> bool {
        match self {
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
        }
    }

    /// The mirrored operator (for `const op col` normalization).
    pub fn flip(&self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
        };
        write!(f, "{s}")
    }
}

/// A scalar term: a column reference or a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// Column reference by name.
    Col(String),
    /// Literal constant.
    Lit(Value),
}

impl Scalar {
    /// Shorthand column reference.
    pub fn col(name: &str) -> Self {
        Scalar::Col(name.to_string())
    }

    /// Shorthand literal.
    pub fn lit(v: impl Into<Value>) -> Self {
        Scalar::Lit(v.into())
    }
}

/// A boolean predicate tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `left op right`.
    Cmp(Scalar, CmpOp, Scalar),
    /// Conjunction (empty = TRUE).
    And(Vec<Predicate>),
    /// Disjunction (empty = FALSE).
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Shorthand: `col op lit`.
    pub fn cmp(col: &str, op: CmpOp, v: impl Into<Value>) -> Self {
        Predicate::Cmp(Scalar::col(col), op, Scalar::lit(v))
    }

    /// Shorthand: `col1 op col2`.
    pub fn cmp_cols(a: &str, op: CmpOp, b: &str) -> Self {
        Predicate::Cmp(Scalar::col(a), op, Scalar::col(b))
    }

    /// All column names referenced, deduplicated.
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Predicate::Cmp(a, _, b) => {
                for s in [a, b] {
                    if let Scalar::Col(c) = s {
                        if !out.contains(c) {
                            out.push(c.clone());
                        }
                    }
                }
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
            Predicate::Not(p) => p.collect_columns(out),
        }
    }

    /// Validates every referenced column exists in `schema`.
    pub fn validate(&self, schema: &ProbSchema) -> Result<()> {
        for c in self.columns() {
            if schema.column(&c).is_none() {
                return Err(EngineError::Predicate(format!("unknown column '{c}'")));
            }
        }
        Ok(())
    }

    /// Three-valued evaluation with a value lookup. `None` means UNKNOWN
    /// (a `NULL` was involved); selections treat UNKNOWN as false.
    pub fn eval(&self, lookup: &impl Fn(&str) -> Value) -> Option<bool> {
        match self {
            Predicate::Cmp(a, op, b) => {
                let va = match a {
                    Scalar::Col(c) => lookup(c),
                    Scalar::Lit(v) => v.clone(),
                };
                let vb = match b {
                    Scalar::Col(c) => lookup(c),
                    Scalar::Lit(v) => v.clone(),
                };
                // Ne on incomparable non-null types is still UNKNOWN —
                // comparisons require comparable operands.
                va.compare(&vb).map(|ord| op.test(ord))
            }
            Predicate::And(ps) => and3(ps.iter().map(|p| p.eval(lookup))),
            Predicate::Or(ps) => or3(ps.iter().map(|p| p.eval(lookup))),
            Predicate::Not(p) => p.eval(lookup).map(|b| !b),
        }
    }

    /// Resolves every column once, through `slot`, into the form the
    /// per-point floor evaluates; a column `slot` does not know reads as
    /// `NULL`, as it does under [`Predicate::eval`].
    pub(crate) fn bind(&self, slot: &impl Fn(&str) -> Option<Slot>) -> BoundPredicate {
        let operand = |s: &Scalar| match s {
            Scalar::Col(c) => slot(c).map_or(Operand::Lit(Value::Null), Operand::Slot),
            Scalar::Lit(v) => Operand::Lit(v.clone()),
        };
        match self {
            Predicate::Cmp(a, op, b) => BoundPredicate::Cmp(operand(a), *op, operand(b)),
            Predicate::And(ps) => BoundPredicate::And(ps.iter().map(|p| p.bind(slot)).collect()),
            Predicate::Or(ps) => BoundPredicate::Or(ps.iter().map(|p| p.bind(slot)).collect()),
            Predicate::Not(p) => BoundPredicate::Not(Box::new(p.bind(slot))),
        }
    }

    /// Splits a conjunction into its atomic conjuncts (a non-`And` predicate
    /// yields itself). Used by the selection fast path.
    pub fn conjuncts(&self) -> Vec<&Predicate> {
        match self {
            Predicate::And(ps) => ps.iter().flat_map(|p| p.conjuncts()).collect(),
            other => vec![other],
        }
    }

    /// If this atom is `col op numeric-literal` (or the mirrored form) over
    /// a single column, returns `(column, failing-region)`: the region of
    /// the column's domain where the predicate is FALSE — exactly what must
    /// be floored. Returns `None` for any other shape.
    pub fn single_column_floor(&self) -> Option<(String, RegionSet)> {
        let (col, op, v) = match self {
            Predicate::Cmp(Scalar::Col(c), op, Scalar::Lit(v)) => (c, *op, v),
            Predicate::Cmp(Scalar::Lit(v), op, Scalar::Col(c)) => (c, op.flip(), v),
            _ => return None,
        };
        let x = v.as_f64()?;
        Some((col.clone(), interval_of_cmp::failing_region(op, x)))
    }
}

/// Three-valued AND, evaluating operands in order until one is FALSE.
fn and3(operands: impl Iterator<Item = Option<bool>>) -> Option<bool> {
    let mut unknown = false;
    for v in operands {
        match v {
            Some(false) => return Some(false),
            None => unknown = true,
            Some(true) => {}
        }
    }
    (!unknown).then_some(true)
}

/// Three-valued OR, evaluating operands in order until one is TRUE.
fn or3(operands: impl Iterator<Item = Option<bool>>) -> Option<bool> {
    and3(operands.map(|v| v.map(|b| !b))).map(|b| !b)
}

/// Where a bound predicate reads a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Coordinate `i` of the point being floored.
    Dim(usize),
    /// Position `i` of the tuple's certain values.
    Certain(usize),
}

/// A comparison operand of a [`BoundPredicate`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Operand {
    Slot(Slot),
    Lit(Value),
}

impl Operand {
    fn value<'v>(&'v self, point: &[f64], certain: &'v [Value]) -> Cow<'v, Value> {
        match *self {
            Operand::Slot(Slot::Dim(i)) => Cow::Owned(Value::Real(point[i])),
            Operand::Slot(Slot::Certain(i)) => Cow::Borrowed(&certain[i]),
            Operand::Lit(ref v) => Cow::Borrowed(v),
        }
    }
}

/// A [`Predicate`] with its columns resolved to [`Slot`]s
/// ([`Predicate::bind`]): evaluating it per point looks up no name and
/// copies no value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BoundPredicate {
    Cmp(Operand, CmpOp, Operand),
    And(Vec<BoundPredicate>),
    Or(Vec<BoundPredicate>),
    Not(Box<BoundPredicate>),
}

impl BoundPredicate {
    /// [`Predicate::eval`] with `Slot::Dim(i)` reading `Value::Real(point[i])`
    /// and `Slot::Certain(i)` reading `certain[i]`.
    pub(crate) fn eval(&self, point: &[f64], certain: &[Value]) -> Option<bool> {
        match self {
            BoundPredicate::Cmp(a, op, b) => {
                let (a, b) = (a.value(point, certain), b.value(point, certain));
                a.compare(&b).map(|ord| op.test(ord))
            }
            BoundPredicate::And(ps) => and3(ps.iter().map(|p| p.eval(point, certain))),
            BoundPredicate::Or(ps) => or3(ps.iter().map(|p| p.eval(point, certain))),
            BoundPredicate::Not(p) => p.eval(point, certain).map(|b| !b),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Cmp(a, op, b) => {
                let s = |x: &Scalar| match x {
                    Scalar::Col(c) => c.clone(),
                    Scalar::Lit(v) => v.to_string(),
                };
                write!(f, "{} {op} {}", s(a), s(b))
            }
            Predicate::And(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", parts.join(" AND "))
            }
            Predicate::Or(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", parts.join(" OR "))
            }
            Predicate::Not(p) => write!(f, "NOT ({p})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use orion_pdf::prelude::Interval;

    fn lookup<'a>(pairs: &'a [(&'a str, Value)]) -> impl Fn(&str) -> Value + 'a {
        move |name| {
            pairs.iter().find(|(n, _)| *n == name).map(|(_, v)| v.clone()).unwrap_or(Value::Null)
        }
    }

    #[test]
    fn cmp_evaluation() {
        let p = Predicate::cmp("a", CmpOp::Lt, 5i64);
        assert_eq!(p.eval(&lookup(&[("a", Value::Int(3))])), Some(true));
        assert_eq!(p.eval(&lookup(&[("a", Value::Int(7))])), Some(false));
        assert_eq!(p.eval(&lookup(&[("a", Value::Null)])), None);
    }

    #[test]
    fn three_valued_and_or() {
        let p = Predicate::And(vec![
            Predicate::cmp("a", CmpOp::Gt, 0i64),
            Predicate::cmp("b", CmpOp::Gt, 0i64),
        ]);
        // FALSE AND UNKNOWN = FALSE.
        assert_eq!(p.eval(&lookup(&[("a", Value::Int(-1)), ("b", Value::Null)])), Some(false));
        // TRUE AND UNKNOWN = UNKNOWN.
        assert_eq!(p.eval(&lookup(&[("a", Value::Int(1)), ("b", Value::Null)])), None);
        let q = Predicate::Or(vec![
            Predicate::cmp("a", CmpOp::Gt, 0i64),
            Predicate::cmp("b", CmpOp::Gt, 0i64),
        ]);
        // TRUE OR UNKNOWN = TRUE.
        assert_eq!(q.eval(&lookup(&[("a", Value::Int(1)), ("b", Value::Null)])), Some(true));
        // FALSE OR UNKNOWN = UNKNOWN.
        assert_eq!(q.eval(&lookup(&[("a", Value::Int(-1)), ("b", Value::Null)])), None);
    }

    #[test]
    fn not_propagates_unknown() {
        let p = Predicate::Not(Box::new(Predicate::cmp("a", CmpOp::Eq, 1i64)));
        assert_eq!(p.eval(&lookup(&[("a", Value::Int(1))])), Some(false));
        assert_eq!(p.eval(&lookup(&[("a", Value::Null)])), None);
    }

    #[test]
    fn columns_and_validation() {
        let p = Predicate::And(vec![
            Predicate::cmp_cols("a", CmpOp::Lt, "b"),
            Predicate::cmp("a", CmpOp::Gt, 0i64),
        ]);
        assert_eq!(p.columns(), vec!["a".to_string(), "b".to_string()]);
        let schema = ProbSchema::new(
            vec![("a", ColumnType::Real, true), ("b", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        assert!(p.validate(&schema).is_ok());
        let bad = Predicate::cmp("zzz", CmpOp::Eq, 1i64);
        assert!(bad.validate(&schema).is_err());
    }

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let p = Predicate::And(vec![
            Predicate::And(vec![
                Predicate::cmp("a", CmpOp::Lt, 1i64),
                Predicate::cmp("b", CmpOp::Lt, 2i64),
            ]),
            Predicate::cmp("c", CmpOp::Lt, 3i64),
        ]);
        assert_eq!(p.conjuncts().len(), 3);
    }

    #[test]
    fn single_column_floor_shapes() {
        // x < 5 fails on [5, inf).
        let (c, r) = Predicate::cmp("x", CmpOp::Lt, 5i64).single_column_floor().unwrap();
        assert_eq!(c, "x");
        assert!(r.contains(5.0) && r.contains(100.0) && !r.contains(4.999));
        // Mirrored: 5 > x  ==  x < 5.
        let (c2, r2) = Predicate::Cmp(Scalar::lit(5i64), CmpOp::Gt, Scalar::col("x"))
            .single_column_floor()
            .unwrap();
        assert_eq!(c2, "x");
        assert_eq!(r2, r);
        // Column-column atoms have no single-column floor.
        assert!(Predicate::cmp_cols("x", CmpOp::Lt, "y").single_column_floor().is_none());
        // Text literal: not a numeric floor.
        assert!(Predicate::cmp("x", CmpOp::Eq, "abc").single_column_floor().is_none());
    }

    #[test]
    fn failing_region_eq_ne() {
        let (_, r) = Predicate::cmp("x", CmpOp::Eq, 3i64).single_column_floor().unwrap();
        // Everything except the point 3 fails.
        assert!(r.contains(2.999) && r.contains(3.001) && !r.contains(3.0));
        let (_, r) = Predicate::cmp("x", CmpOp::Ne, 3i64).single_column_floor().unwrap();
        assert!(!r.contains(2.0) && r.contains(3.0));
        let _ = Interval::all();
    }

    #[test]
    fn display_round_trip_shapes() {
        let p = Predicate::And(vec![
            Predicate::cmp_cols("a", CmpOp::Lt, "b"),
            Predicate::cmp("a", CmpOp::Ge, 2i64),
        ]);
        assert_eq!(p.to_string(), "(a < b) AND (a >= 2)");
    }
}

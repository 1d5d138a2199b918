//! Abstract syntax of the Orion SQL dialect.
//!
//! The dialect extends a small SQL core with the paper's uncertainty
//! features: `UNCERTAIN` column modifiers, `CORRELATED (...)` dependency
//! groups, symbolic pdf constructors in `VALUES`, `PROB(...)` threshold
//! predicates, and the `EXPECTED`/`ESUM`/`ECOUNT`/`EAVG` aggregates.

use orion_core::prelude::{CmpOp, ColumnType};

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type [UNCERTAIN], ..., [CORRELATED (a, b)])`.
    CreateTable { name: String, columns: Vec<ColumnDef>, correlated: Vec<Vec<String>> },
    /// `INSERT INTO name VALUES (expr, ...), (expr, ...)`.
    Insert { table: String, rows: Vec<Vec<InsertValue>> },
    /// `SELECT [DISTINCT] items FROM source [WHERE pred]
    /// [ORDER BY col [DESC]] [LIMIT n]`.
    Select {
        items: Vec<SelectItem>,
        from: FromClause,
        filter: Option<Pred>,
        distinct: bool,
        order_by: Option<(String, bool)>,
        limit: Option<usize>,
    },
    /// `UPDATE name SET col = value, ... [WHERE pred]` (certain predicate).
    Update { table: String, sets: Vec<(String, InsertValue)>, filter: Option<Pred> },
    /// `DELETE FROM name [WHERE pred]`.
    Delete { table: String, filter: Option<Pred> },
    /// `DROP TABLE name`.
    DropTable { name: String },
    /// `CREATE INDEX name ON table (col) [USING evx|cdf]` — a persistent
    /// secondary index; the kind defaults by column certainty (`cdf` for
    /// uncertain columns, `evx` for certain ones).
    CreateIndex { name: String, table: String, column: String, kind: Option<String> },
    /// `DROP INDEX name`.
    DropIndex { name: String },
    /// `ANALYZE name` — collects per-column statistics (equi-depth
    /// histograms over certain values / expected values, cdf-bound
    /// summaries for uncertain columns, a tuple-existence histogram) into
    /// the engine's stats catalog for use by `EXPLAIN` cardinality
    /// estimates and the `orion.stats` virtual table.
    Analyze { table: String },
    /// `EXPLAIN [ANALYZE | TRACE] stmt` — renders the operator tree the
    /// statement would run; with `ANALYZE`, executes it and annotates each
    /// operator with its execution stats; with `TRACE`, executes it with
    /// a tracer of its own, writes a Chrome trace-event JSON file, and
    /// reports the path plus the recorded span tree.
    Explain { analyze: bool, trace: bool, inner: Box<Statement> },
    /// `BEGIN [TRANSACTION | WORK]` — opens a snapshot-isolation
    /// transaction (durable sessions only).
    Begin,
    /// `COMMIT [TRANSACTION | WORK]`.
    Commit,
    /// `ROLLBACK [TRANSACTION | WORK]`.
    Rollback,
}

/// A column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: ColumnType,
    pub uncertain: bool,
}

/// One value in an INSERT row: a certain literal or a pdf constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertValue {
    Null,
    Number(f64),
    Text(String),
    Bool(bool),
    Pdf(PdfExpr),
}

/// A pdf constructor expression.
#[derive(Debug, Clone, PartialEq)]
pub enum PdfExpr {
    Gaussian(f64, f64),
    Uniform(f64, f64),
    Exponential(f64),
    Poisson(f64),
    Binomial(u64, f64),
    Bernoulli(f64),
    Geometric(f64),
    /// `DISCRETE(v:p, v:p, ...)`.
    Discrete(Vec<(f64, f64)>),
    /// `HISTOGRAM(lo, width, m1, m2, ...)`.
    Histogram {
        lo: f64,
        width: f64,
        masses: Vec<f64>,
    },
    /// `JOINT((v1, v2):p, ...)` — a correlated joint pmf supplied for a
    /// CORRELATED column group; spans as many columns as the group.
    Joint(Vec<(Vec<f64>, f64)>),
}

/// A SELECT list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// A plain column.
    Column(String),
    /// `EXPECTED(col)` — per-tuple conditional expectation.
    Expected(String),
    /// `VARIANCE(col)` — per-tuple conditional variance.
    Variance(String),
    /// `QUANTILE(col, q)` — per-tuple conditional quantile.
    Quantile(String, f64),
    /// `MEDIAN(col)` — per-tuple conditional median (quantile 0.5, kept as
    /// its own variant so the output header reads `median(col)`).
    Median(String),
    /// `PROB(pred)` — per-tuple probability of a predicate.
    ProbOf(Pred),
    /// `ESUM(col)` — Gaussian-approximated SUM aggregate.
    SumAgg(String),
    /// `ECOUNT(*)` — expected count aggregate.
    CountAgg,
    /// `EAVG(col)` — existence-weighted average aggregate.
    AvgAgg(String),
}

impl SelectItem {
    /// Whether this item is a whole-relation aggregate.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, SelectItem::SumAgg(_) | SelectItem::CountAgg | SelectItem::AvgAgg(_))
    }
}

/// FROM clause: one table or a join of two.
#[derive(Debug, Clone, PartialEq)]
pub enum FromClause {
    Table(String),
    /// `a JOIN b ON pred` (`pred` empty = cross join).
    Join {
        left: String,
        right: String,
        on: Option<Pred>,
    },
}

/// A scalar term in a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    Col(String),
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
}

/// Predicates, including the probability-threshold extension.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    Cmp(Term, CmpOp, Term),
    /// `col BETWEEN lo AND hi`.
    Between(String, f64, f64),
    And(Vec<Pred>),
    Or(Vec<Pred>),
    Not(Box<Pred>),
    /// `PROB(pred) op p` — Section III-E threshold.
    ProbThreshold(Box<Pred>, CmpOp, f64),
    /// `PROB(col1, col2, ...) op p` — Pr over an attribute set.
    AttrThreshold(Vec<String>, CmpOp, f64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        assert!(SelectItem::SumAgg("x".into()).is_aggregate());
        assert!(SelectItem::CountAgg.is_aggregate());
        assert!(!SelectItem::Column("x".into()).is_aggregate());
        assert!(!SelectItem::Wildcard.is_aggregate());
    }
}

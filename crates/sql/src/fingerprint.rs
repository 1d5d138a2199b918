//! Statement fingerprinting for the workload repository.
//!
//! A fingerprint identifies the *shape* of a statement: the parsed AST is
//! rendered back to canonical SQL-ish text with every literal (numbers,
//! strings, booleans, pdf parameters, probability thresholds, LIMIT counts)
//! replaced by `?`, and the result is FNV-1a-hashed. Two executions of the
//! same statement that differ only in literal values — `PROB(v < 40) > 0.3`
//! vs `PROB(v < 60) > 0.9` — share a fingerprint and accumulate into one
//! repository entry, while any structural change (different columns, a pdf
//! constructor swapped for another, an added conjunct) produces a new one.
//!
//! Two deliberate collapses go beyond single literals: an INSERT's row
//! *list* normalizes to its first row's shape (batch size is workload, not
//! statement, structure), and the variable-length literal lists of
//! `DISCRETE`/`HISTOGRAM`/`JOINT` constructors collapse to one `?`.

use crate::ast::{FromClause, InsertValue, PdfExpr, Pred, SelectItem, Statement, Term};
use orion_core::prelude::CmpOp;

/// Fingerprints a statement: `(hash, normalized_text)`. The hash is FNV-1a
/// 64 of the normalized text, so equal texts — and only equal texts —
/// collide.
pub fn fingerprint(stmt: &Statement) -> (u64, String) {
    let text = normalize(stmt);
    (fnv1a(text.as_bytes()), text)
}

/// Renders a statement as canonical text with literals replaced by `?`.
pub fn normalize(stmt: &Statement) -> String {
    let mut out = String::new();
    write_stmt(&mut out, stmt);
    out
}

fn write_stmt(out: &mut String, stmt: &Statement) {
    match stmt {
        Statement::CreateTable { name, columns, correlated } => {
            // Schema is pure structure: nothing to normalize away.
            out.push_str("CREATE TABLE ");
            out.push_str(name);
            out.push_str(" (");
            for (i, c) in columns.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&c.name);
                out.push_str(&format!(" {:?}", c.ty));
                if c.uncertain {
                    out.push_str(" UNCERTAIN");
                }
            }
            for group in correlated {
                out.push_str(", CORRELATED (");
                out.push_str(&group.join(", "));
                out.push(')');
            }
            out.push(')');
        }
        Statement::Insert { table, rows } => {
            out.push_str("INSERT INTO ");
            out.push_str(table);
            out.push_str(" VALUES (");
            // First row's shape stands for the batch: pdf constructor names
            // are structure, their parameters (and the batch size) are not.
            if let Some(row) = rows.first() {
                for (i, v) in row.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_insert_value(out, v);
                }
            }
            out.push(')');
        }
        Statement::Select { items, from, filter, distinct, order_by, limit } => {
            out.push_str("SELECT ");
            if *distinct {
                out.push_str("DISTINCT ");
            }
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_item(out, item);
            }
            out.push_str(" FROM ");
            match from {
                FromClause::Table(t) => out.push_str(t),
                FromClause::Join { left, right, on } => {
                    out.push_str(left);
                    out.push_str(" JOIN ");
                    out.push_str(right);
                    if let Some(p) = on {
                        out.push_str(" ON ");
                        write_pred(out, p);
                    }
                }
            }
            if let Some(p) = filter {
                out.push_str(" WHERE ");
                write_pred(out, p);
            }
            if let Some((col, desc)) = order_by {
                out.push_str(" ORDER BY ");
                out.push_str(col);
                if *desc {
                    out.push_str(" DESC");
                }
            }
            if limit.is_some() {
                out.push_str(" LIMIT ?");
            }
        }
        Statement::Update { table, sets, filter } => {
            out.push_str("UPDATE ");
            out.push_str(table);
            out.push_str(" SET ");
            for (i, (col, v)) in sets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(col);
                out.push_str(" = ");
                write_insert_value(out, v);
            }
            if let Some(p) = filter {
                out.push_str(" WHERE ");
                write_pred(out, p);
            }
        }
        Statement::Delete { table, filter } => {
            out.push_str("DELETE FROM ");
            out.push_str(table);
            if let Some(p) = filter {
                out.push_str(" WHERE ");
                write_pred(out, p);
            }
        }
        Statement::CreateIndex { name, table, column, kind } => {
            out.push_str("CREATE INDEX ");
            out.push_str(name);
            out.push_str(" ON ");
            out.push_str(table);
            out.push_str(" (");
            out.push_str(column);
            out.push(')');
            if let Some(k) = kind {
                out.push_str(" USING ");
                out.push_str(k);
            }
        }
        Statement::DropIndex { name } => {
            out.push_str("DROP INDEX ");
            out.push_str(name);
        }
        Statement::Analyze { table } => {
            out.push_str("ANALYZE ");
            out.push_str(table);
        }
        Statement::Explain { analyze, trace, inner } => {
            out.push_str("EXPLAIN ");
            if *analyze {
                out.push_str("ANALYZE ");
            }
            if *trace {
                out.push_str("TRACE ");
            }
            write_stmt(out, inner);
        }
        Statement::Begin => out.push_str("BEGIN"),
        Statement::Commit => out.push_str("COMMIT"),
        Statement::Rollback => out.push_str("ROLLBACK"),
    }
}

fn write_insert_value(out: &mut String, v: &InsertValue) {
    match v {
        // Every certain literal — NULL included — is a value, not shape.
        InsertValue::Null
        | InsertValue::Number(_)
        | InsertValue::Text(_)
        | InsertValue::Bool(_) => out.push('?'),
        InsertValue::Pdf(p) => write_pdf(out, p),
    }
}

fn write_pdf(out: &mut String, p: &PdfExpr) {
    // The constructor name is structure; its parameters (including the
    // variable-length value lists) are literals.
    let name = match p {
        PdfExpr::Gaussian(..) => "GAUSSIAN",
        PdfExpr::Uniform(..) => "UNIFORM",
        PdfExpr::Exponential(_) => "EXPONENTIAL",
        PdfExpr::Poisson(_) => "POISSON",
        PdfExpr::Binomial(..) => "BINOMIAL",
        PdfExpr::Bernoulli(_) => "BERNOULLI",
        PdfExpr::Geometric(_) => "GEOMETRIC",
        PdfExpr::Discrete(_) => "DISCRETE",
        PdfExpr::Histogram { .. } => "HISTOGRAM",
        PdfExpr::Joint(_) => "JOINT",
    };
    out.push_str(name);
    out.push_str("(?)");
}

fn write_item(out: &mut String, item: &SelectItem) {
    match item {
        SelectItem::Wildcard => out.push('*'),
        SelectItem::Column(c) => out.push_str(c),
        SelectItem::Expected(c) => {
            out.push_str("EXPECTED(");
            out.push_str(c);
            out.push(')');
        }
        SelectItem::Variance(c) => {
            out.push_str("VARIANCE(");
            out.push_str(c);
            out.push(')');
        }
        SelectItem::Quantile(c, _) => {
            out.push_str("QUANTILE(");
            out.push_str(c);
            out.push_str(", ?)");
        }
        SelectItem::Median(c) => {
            out.push_str("MEDIAN(");
            out.push_str(c);
            out.push(')');
        }
        SelectItem::ProbOf(p) => {
            out.push_str("PROB(");
            write_pred(out, p);
            out.push(')');
        }
        SelectItem::SumAgg(c) => {
            out.push_str("ESUM(");
            out.push_str(c);
            out.push(')');
        }
        SelectItem::CountAgg => out.push_str("ECOUNT(*)"),
        SelectItem::AvgAgg(c) => {
            out.push_str("EAVG(");
            out.push_str(c);
            out.push(')');
        }
    }
}

fn write_pred(out: &mut String, pred: &Pred) {
    match pred {
        Pred::Cmp(a, op, b) => {
            write_term(out, a);
            out.push(' ');
            out.push_str(cmp_str(*op));
            out.push(' ');
            write_term(out, b);
        }
        Pred::Between(col, _, _) => {
            out.push_str(col);
            out.push_str(" BETWEEN ? AND ?");
        }
        Pred::And(parts) | Pred::Or(parts) => {
            let sep = if matches!(pred, Pred::And(_)) { " AND " } else { " OR " };
            out.push('(');
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(sep);
                }
                write_pred(out, p);
            }
            out.push(')');
        }
        Pred::Not(p) => {
            out.push_str("NOT (");
            write_pred(out, p);
            out.push(')');
        }
        Pred::ProbThreshold(p, op, _) => {
            out.push_str("PROB(");
            write_pred(out, p);
            out.push_str(") ");
            out.push_str(cmp_str(*op));
            out.push_str(" ?");
        }
        Pred::AttrThreshold(attrs, op, _) => {
            out.push_str("PROB(");
            out.push_str(&attrs.join(", "));
            out.push_str(") ");
            out.push_str(cmp_str(*op));
            out.push_str(" ?");
        }
    }
}

fn write_term(out: &mut String, t: &Term) {
    match t {
        Term::Col(c) => out.push_str(c),
        Term::Num(_) | Term::Str(_) | Term::Bool(_) | Term::Null => out.push('?'),
    }
}

fn cmp_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
        CmpOp::Eq => "=",
        CmpOp::Ne => "<>",
    }
}

/// FNV-1a 64-bit (dependency-free, stable across processes, so slow dumps
/// from different runs agree on a statement's fingerprint).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn fp(sql: &str) -> (u64, String) {
        fingerprint(&parse(sql).unwrap())
    }

    #[test]
    fn literal_changes_share_a_fingerprint() {
        let pairs = [
            (
                "SELECT rid FROM readings WHERE PROB(value < 50) > 0.5",
                "SELECT rid FROM readings WHERE PROB(value < 99) > 0.1",
            ),
            (
                "INSERT INTO t VALUES (1, GAUSSIAN(20, 5))",
                "INSERT INTO t VALUES (7, GAUSSIAN(33, 1))",
            ),
            // Batch size is workload, not statement, structure.
            (
                "INSERT INTO t VALUES (1, GAUSSIAN(20, 5))",
                "INSERT INTO t VALUES (2, GAUSSIAN(1, 1)), (3, GAUSSIAN(2, 2))",
            ),
            ("SELECT * FROM t WHERE x BETWEEN 1 AND 2", "SELECT * FROM t WHERE x BETWEEN 5 AND 9"),
            ("SELECT * FROM t LIMIT 5", "SELECT * FROM t LIMIT 50"),
            ("UPDATE t SET v = 4 WHERE id = 1", "UPDATE t SET v = 9 WHERE id = 3"),
        ];
        for (a, b) in pairs {
            let (ha, ta) = fp(a);
            let (hb, tb) = fp(b);
            assert_eq!(ha, hb, "{a:?} vs {b:?} → {ta:?} vs {tb:?}");
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn structural_changes_differ() {
        let pairs = [
            // Different column.
            ("SELECT rid FROM readings", "SELECT value FROM readings"),
            // Different pdf constructor.
            ("INSERT INTO t VALUES (GAUSSIAN(0, 1))", "INSERT INTO t VALUES (UNIFORM(0, 1))"),
            // Added conjunct.
            ("SELECT * FROM t WHERE a < 1", "SELECT * FROM t WHERE a < 1 AND b < 2"),
            // Different comparison operator.
            ("SELECT * FROM t WHERE a < 1", "SELECT * FROM t WHERE a > 1"),
            // DISTINCT is shape.
            ("SELECT a FROM t", "SELECT DISTINCT a FROM t"),
        ];
        for (a, b) in pairs {
            assert_ne!(fp(a).0, fp(b).0, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn normalized_text_is_canonical() {
        let (_, text) = fp("select rid from readings where prob(value < 50) > 0.5 limit 3");
        assert_eq!(text, "SELECT rid FROM readings WHERE PROB(value < ?) > ? LIMIT ?");
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

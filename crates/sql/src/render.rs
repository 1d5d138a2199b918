//! Text rendering of query outputs (used by the examples and the REPL-style
//! binaries).

use crate::error::Result;
use crate::exec::Output;
use orion_core::prelude::{Column, EngineError, ProbTuple, Relation};
use orion_pdf::prelude::Pdf1;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Renders a relation as an aligned text table, showing certain values and
/// pdf summaries for uncertain columns (plus an `exists` column when any
/// tuple is a maybe-tuple).
pub fn render_relation(rel: &Relation) -> Result<String> {
    let columns = rel.schema.columns();
    let mut header: Vec<String> = columns.iter().map(|c| c.name.clone()).collect();
    // Each column is resolved by name once: a certain column to its value
    // position, an uncertain one to the attribute its pdf node covers.
    let cells: Vec<Cell> = columns
        .iter()
        .map(|c| {
            if c.uncertain {
                Cell::Marginal(rel.schema.column(&c.name).expect("col"))
            } else {
                Cell::Certain(rel.schema.index_of(&c.name).expect("col"))
            }
        })
        .collect();
    let existence: Vec<f64> = rel.tuples.iter().map(ProbTuple::naive_existence).collect();
    let show_exists = existence.iter().any(|e| (e - 1.0).abs() > 1e-9);
    if show_exists {
        header.push("Pr(exists)".to_string());
    }
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(rel.len());
    for (t, e) in rel.tuples.iter().zip(&existence) {
        let mut row = Vec::with_capacity(header.len());
        for cell in &cells {
            row.push(match *cell {
                Cell::Certain(i) => t.certain[i].to_string(),
                Cell::Marginal(col) => marginal(t, col)?.to_string(),
            });
        }
        if show_exists {
            row.push(format!("{e:.4}"));
        }
        rows.push(row);
    }
    Ok(render_grid(&header, &rows))
}

/// Where a rendered column's cells come from.
enum Cell<'a> {
    /// The certain value at this position.
    Certain(usize),
    /// The visible marginal of this uncertain column.
    Marginal(&'a Column),
}

/// [`Relation::marginal`] of one tuple, with the column already resolved.
fn marginal(t: &ProbTuple, col: &Column) -> Result<Pdf1> {
    let node = t
        .node_for(col.id)
        .ok_or_else(|| EngineError::Operator(format!("column '{}' is certain", col.name)))?;
    Ok(node
        .marginal(col.id)
        .ok_or_else(|| EngineError::Operator("marginal extraction failed".into()))?)
}

/// Renders an [`Output`] for display.
pub fn render_output(out: &Output) -> Result<String> {
    match out {
        Output::Table(rel) => render_relation(rel),
        Output::Rows { header, rows } => Ok(render_grid(header, rows)),
        Output::Count(n) => Ok(format!("{n} tuple(s) affected")),
        Output::Ok => Ok("OK".to_string()),
        Output::Explain { profile, analyze, trace } => {
            let mut text = profile.render(*analyze);
            if let Some(t) = trace {
                text.push_str(&format!("\ntrace: {}\n", t.path));
                text.push_str(&t.tree);
            }
            Ok(text)
        }
        Output::Analyze(ts) => Ok(render_table_stats(ts)),
    }
}

/// Renders the summary of one `ANALYZE <table>`: a headline with row count
/// and expected cardinality, then one grid row per column.
fn render_table_stats(ts: &orion_core::prelude::TableStats) -> String {
    let header: Vec<String> =
        ["col", "kind", "ndv", "nulls", "lo", "hi"].iter().map(|s| s.to_string()).collect();
    let fmt_f = |v: f64| format!("{v:.3}");
    let rows: Vec<Vec<String>> = ts
        .columns
        .iter()
        .map(|c| {
            let (lo, hi) = match (&c.bounds, c.hist.bounds.first(), c.hist.bounds.last()) {
                (Some(b), _, _) => (fmt_f(b.lo_min), fmt_f(b.hi_max)),
                (None, Some(&lo), Some(&hi)) => (fmt_f(lo), fmt_f(hi)),
                _ => ("NULL".to_string(), "NULL".to_string()),
            };
            vec![
                c.name.clone(),
                if c.uncertain { "uncertain" } else { "certain" }.to_string(),
                c.distinct.to_string(),
                c.nulls.to_string(),
                lo,
                hi,
            ]
        })
        .collect();
    format!(
        "ANALYZE {}: {} rows (expected cardinality {:.3})\n{}",
        ts.table,
        ts.rows,
        ts.exist_sum,
        render_grid(&header, &rows)
    )
}

/// Aligns a header and rows into a text grid. Embedded newlines and tabs
/// (e.g. the captured plan text in `orion.slow_queries`) are escaped so
/// every cell occupies exactly one grid line and alignment survives.
fn render_grid(header: &[String], rows: &[Vec<String>]) -> String {
    fn escape(c: &str) -> Cow<'_, str> {
        if c.contains(['\n', '\t']) {
            Cow::Owned(c.replace('\n', "\\n").replace('\t', "\\t"))
        } else {
            Cow::Borrowed(c)
        }
    }
    let rows: Vec<Vec<Cow<str>>> =
        rows.iter().map(|r| r.iter().map(|c| escape(c)).collect()).collect();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let sep = {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s
    };
    let mut out = String::with_capacity((sep.len() + 1) * (rows.len() + 4));
    let line = |out: &mut String, cells: &mut dyn Iterator<Item = &str>| {
        out.push('|');
        for (c, width) in cells.zip(&widths) {
            write!(out, " {c:width$} |").expect("writing to a String cannot fail");
        }
        out.push('\n');
    };
    out.push_str(&sep);
    out.push('\n');
    line(&mut out, &mut header.iter().map(String::as_str));
    out.push_str(&sep);
    out.push('\n');
    for row in &rows {
        line(&mut out, &mut row.iter().map(|c| c.as_ref()));
    }
    out.push_str(&sep);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::testing::temp_session;

    #[test]
    fn renders_sensor_table() {
        let mut db = temp_session("render_sensor");
        db.execute("CREATE TABLE r (rid INT, v REAL UNCERTAIN)").unwrap();
        db.execute("INSERT INTO r VALUES (1, GAUSSIAN(20, 5))").unwrap();
        let out = db.execute("SELECT * FROM r").unwrap();
        let text = render_output(&out).unwrap();
        assert!(text.contains("rid"), "{text}");
        assert!(text.contains("Gaus(20,5)"), "{text}");
        assert!(!text.contains("Pr(exists)"), "full-mass table: {text}");
    }

    #[test]
    fn shows_existence_for_maybe_tuples() {
        let mut db = temp_session("render_maybe");
        db.execute("CREATE TABLE r (v REAL UNCERTAIN)").unwrap();
        db.execute("INSERT INTO r VALUES (DISCRETE(1:0.4))").unwrap();
        let out = db.execute("SELECT * FROM r").unwrap();
        let text = render_output(&out).unwrap();
        assert!(text.contains("Pr(exists)"), "{text}");
        assert!(text.contains("0.4000"), "{text}");
    }

    #[test]
    fn renders_analyze_summary() {
        let mut db = temp_session("render_analyze");
        db.execute("CREATE TABLE r (rid INT, v REAL UNCERTAIN)").unwrap();
        db.execute("INSERT INTO r VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(30, 5))").unwrap();
        let out = db.execute("ANALYZE r").unwrap();
        let text = render_output(&out).unwrap();
        assert!(text.starts_with("ANALYZE r: 2 rows (expected cardinality 2.000)"), "{text}");
        assert!(text.contains("uncertain"), "{text}");
        assert!(text.contains("| rid"), "{text}");
    }

    #[test]
    fn renders_counts_and_ok() {
        assert_eq!(render_output(&Output::Count(2)).unwrap(), "2 tuple(s) affected");
        assert_eq!(render_output(&Output::Ok).unwrap(), "OK");
    }

    #[test]
    fn grid_alignment() {
        let g = render_grid(
            &["a".to_string(), "long_header".to_string()],
            &[vec!["xxxx".to_string(), "y".to_string()]],
        );
        for l in g.lines() {
            assert_eq!(l.len(), g.lines().next().unwrap().len(), "aligned: {g}");
        }
    }

    #[test]
    fn grid_escapes_multiline_cells() {
        let g = render_grid(&["plan".to_string()], &[vec!["Scan t\n  ThresholdPred".to_string()]]);
        assert!(g.contains("Scan t\\n  ThresholdPred"), "{g}");
        for l in g.lines() {
            assert_eq!(l.len(), g.lines().next().unwrap().len(), "aligned: {g}");
        }
    }
}

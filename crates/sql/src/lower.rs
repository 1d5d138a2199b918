//! Lowering: the one place a `SELECT` statement becomes a [`Plan`].
//!
//! [`lower`] splits a statement into the relational pipeline — scan/join →
//! σ (all possible-worlds conjuncts at once) → probability thresholds → Π,
//! expressed in the core plan algebra — and the [`Post`] stages that sit
//! outside that algebra (ORDER BY, LIMIT, DISTINCT, computed select items,
//! aggregates). `SELECT` runs the plan through [`orion_core::plan::run`] and
//! then applies the post stages; `EXPLAIN` runs the same plan and refuses
//! statements that need post stages. Every error about the *shape* of a
//! statement is raised here, before any operator has run.

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::exec::{translate_pred, Output};
use orion_core::agg;
use orion_core::plan::Plan;
use orion_core::prelude::*;
use orion_core::threshold::ProbPredicate;
use orion_pdf::prelude::*;
use std::borrow::Cow;
use std::sync::Arc;

/// A lowered `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    /// The relational pipeline — what `EXPLAIN` prints and `SELECT` runs.
    pub plan: Plan,
    /// What happens to the pipeline's result afterwards.
    pub post: Post,
}

/// The post-relational stages of a `SELECT`, in execution order: ORDER BY,
/// LIMIT, then the select list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Post {
    order_by: Option<(String, bool)>,
    limit: Option<usize>,
    distinct: bool,
    /// The select list when it is computed per tuple (`EXPECTED`, `PROB`,
    /// ...) or aggregated; empty when the result is the relation itself.
    computed: Vec<SelectItem>,
}

/// Lowers a `SELECT` statement, validating its shape.
pub fn lower(stmt: Statement) -> Result<Lowered> {
    let Statement::Select { items, from, filter, distinct, order_by, limit } = stmt else {
        return Err(SqlError::Exec("only SELECT statements have a plan to run or EXPLAIN".into()));
    };
    let mut plan = match from {
        FromClause::Table(name) => Plan::Scan(name),
        FromClause::Join { left, right, on } => Plan::Join(
            Box::new(Plan::Scan(left)),
            Box::new(Plan::Scan(right)),
            on.map(|p| translate_pred(&p)).transpose()?,
        ),
    };
    // Split the WHERE clause's top-level conjuncts into possible-worlds
    // predicates (one σ for all of them) and probability thresholds.
    let mut pws_parts: Vec<Predicate> = Vec::new();
    let mut thresholds: Vec<Pred> = Vec::new();
    for c in filter.map(split_conjuncts).unwrap_or_default() {
        match c {
            Pred::ProbThreshold(..) | Pred::AttrThreshold(..) => thresholds.push(c),
            other => pws_parts.push(translate_pred(&other)?),
        }
    }
    if !pws_parts.is_empty() {
        let pred = if pws_parts.len() == 1 {
            pws_parts.pop().expect("one part")
        } else {
            Predicate::And(pws_parts)
        };
        plan = plan.select(pred);
    }
    for t in thresholds {
        plan = match t {
            Pred::ProbThreshold(inner, op, p) => {
                Plan::ThresholdPred(Box::new(plan), translate_pred(&inner)?, op, p)
            }
            Pred::AttrThreshold(attrs, op, p) => Plan::ThresholdAttrs(Box::new(plan), attrs, op, p),
            _ => unreachable!("partitioned above"),
        };
    }

    let mut post = Post { order_by, limit, distinct, computed: Vec::new() };
    if items.iter().any(SelectItem::is_aggregate) {
        if !items.iter().all(SelectItem::is_aggregate) {
            return Err(SqlError::Exec(
                "aggregates cannot be mixed with per-tuple select items".into(),
            ));
        }
        post.computed = items;
    } else if items.iter().any(|i| !matches!(i, SelectItem::Wildcard | SelectItem::Column(_))) {
        post.computed = items;
    } else if items.iter().any(|i| matches!(i, SelectItem::Wildcard)) {
        if items.len() != 1 {
            return Err(SqlError::Exec("'*' cannot be combined with columns".into()));
        }
        if distinct {
            return Err(SqlError::Exec(
                "DISTINCT requires an explicit certain-column projection".into(),
            ));
        }
    } else {
        let cols = items
            .into_iter()
            .map(|i| match i {
                SelectItem::Column(c) => Ok(c),
                other => Err(SqlError::Exec(format!("unsupported select item {other:?}"))),
            })
            .collect::<Result<_>>()?;
        plan = Plan::Project(Box::new(plan), cols);
    }
    Ok(Lowered { plan, post })
}

/// Splits a predicate's top-level AND into conjuncts.
fn split_conjuncts(p: Pred) -> Vec<Pred> {
    match p {
        Pred::And(ps) => ps.into_iter().flat_map(split_conjuncts).collect(),
        other => vec![other],
    }
}

impl Post {
    /// Whether the statement is the relational pipeline and nothing else
    /// (what `EXPLAIN` accepts).
    pub fn is_empty(&self) -> bool {
        *self == Post::default()
    }

    /// Whether ORDER BY or LIMIT is present. Both see the unprojected
    /// columns, so a pipeline topped by Π runs them beneath it.
    pub fn reorders(&self) -> bool {
        self.order_by.is_some() || self.limit.is_some()
    }

    /// ORDER BY (certain columns sort by value, uncertain columns by their
    /// conditional expectation), then LIMIT.
    pub fn order_and_limit(&self, rel: &mut Relation) -> Result<()> {
        if let Some((col, desc)) = &self.order_by {
            let c = rel
                .schema
                .column(col)
                .ok_or_else(|| SqlError::Exec(format!("unknown column '{col}'")))?
                .clone();
            let idx = rel.schema.index_of(col).expect("column exists");
            let mut keyed: Vec<(f64, usize)> = Vec::with_capacity(rel.len());
            for (ti, t) in rel.tuples.iter().enumerate() {
                let key = if c.uncertain {
                    rel.marginal(ti, col)?.expected_value().unwrap_or(f64::NEG_INFINITY)
                } else {
                    t.certain[idx].as_f64().unwrap_or(f64::NEG_INFINITY)
                };
                keyed.push((key, ti));
            }
            keyed.sort_by(|a, b| {
                let ord = a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal);
                if *desc {
                    ord.reverse()
                } else {
                    ord
                }
            });
            // Permute in place: pair keys with the owned tuples instead of
            // deep-cloning every pdf node just to reorder.
            let mut slots: Vec<Option<_>> = Arc::unwrap_or_clone(std::mem::take(&mut rel.tuples))
                .into_iter()
                .map(Some)
                .collect();
            rel.tuples = Arc::new(
                keyed
                    .into_iter()
                    .map(|(_, ti)| slots[ti].take().expect("each index used once"))
                    .collect(),
            );
        }
        if let Some(n) = self.limit.filter(|&n| n < rel.len()) {
            // Keep the prefix without copying the tail when the tuples are
            // shared.
            match Arc::get_mut(&mut rel.tuples) {
                Some(tuples) => tuples.truncate(n),
                None => rel.tuples = Arc::new(rel.tuples[..n].to_vec()),
            }
        }
        Ok(())
    }

    /// Resolves the select list over the pipeline's (ordered, limited)
    /// result.
    pub fn output(
        &self,
        rel: Cow<'_, Relation>,
        reg: &HistoryRegistry,
        opts: &ExecOptions,
    ) -> Result<Output> {
        if self.computed.iter().any(SelectItem::is_aggregate) {
            return aggregate_row(&self.computed, &rel, reg, opts);
        }
        if !self.computed.is_empty() {
            return computed_rows(&self.computed, &rel, reg, opts);
        }
        let mut rel = rel.into_owned();
        if self.distinct {
            // Probabilistic duplicate elimination induces complex
            // historical dependencies (the paper defers it as future
            // work): support only the classical case — every result tuple
            // fully certain and certainly present.
            let certain_ok = rel
                .tuples
                .iter()
                .all(|t| t.nodes.is_empty() && (t.naive_existence() - 1.0).abs() < 1e-12);
            if !certain_ok {
                return Err(SqlError::Exec(
                    "DISTINCT over uncertain data is not supported (probabilistic \
                     duplicate elimination is deferred, as in the paper); project to \
                     certain columns of certainly-present tuples first"
                        .into(),
                ));
            }
            let mut seen: std::collections::HashSet<Vec<orion_core::pws::CanonValue>> =
                Default::default();
            rel.tuples_mut().retain(|t| {
                seen.insert(t.certain.iter().map(orion_core::pws::CanonValue::from).collect())
            });
        }
        Ok(Output::Table(rel))
    }
}

/// The single row of an all-aggregate select list.
fn aggregate_row(
    items: &[SelectItem],
    input: &Relation,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<Output> {
    let mut header = Vec::new();
    let mut row = Vec::new();
    for item in items {
        match item {
            SelectItem::CountAgg => {
                header.push("ecount".to_string());
                row.push(format!("{:.6}", agg::count_expected(input, reg, opts)?));
            }
            SelectItem::SumAgg(col) => {
                header.push(format!("esum({col})"));
                row.push(agg::sum_gaussian(input, col)?.to_string());
            }
            SelectItem::AvgAgg(col) => {
                header.push(format!("eavg({col})"));
                row.push(match agg::avg_expected(input, col)? {
                    Some(v) => format!("{v:.6}"),
                    None => "NULL".to_string(),
                });
            }
            _ => unreachable!("all aggregates"),
        }
    }
    Ok(Output::Rows { header, rows: vec![row] })
}

/// Mixed per-tuple computed output: values rendered per tuple.
fn computed_rows(
    items: &[SelectItem],
    input: &Relation,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<Output> {
    let mut header = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for c in input.schema.columns() {
                    header.push(c.name.clone());
                }
            }
            SelectItem::Column(c) => header.push(c.clone()),
            SelectItem::Expected(c) => header.push(format!("expected({c})")),
            SelectItem::Variance(c) => header.push(format!("variance({c})")),
            SelectItem::Quantile(c, q) => header.push(format!("quantile({c},{q})")),
            SelectItem::Median(c) => header.push(format!("median({c})")),
            SelectItem::ProbOf(_) => header.push("prob".to_string()),
            _ => unreachable!("aggregates handled above"),
        }
    }
    // Each PROB(..) item compiles on first use — once per statement, and
    // with the errors of the first row, in item order, as before.
    let mut probs: Vec<Option<ProbPredicate>> = items.iter().map(|_| None).collect();
    let mut rows = Vec::new();
    for (ti, t) in input.tuples.iter().enumerate() {
        let mut row = Vec::new();
        for (item, compiled) in items.iter().zip(&mut probs) {
            match item {
                SelectItem::Wildcard => {
                    for c in input.schema.columns() {
                        row.push(render_cell(input, ti, &c.name)?);
                    }
                }
                SelectItem::Column(c) => row.push(render_cell(input, ti, c)?),
                SelectItem::Expected(c) => {
                    let col = input
                        .schema
                        .column(c)
                        .ok_or_else(|| SqlError::Exec(format!("unknown column '{c}'")))?;
                    let s = if col.uncertain {
                        match input.marginal(ti, c)?.expected_value() {
                            Some(v) => format!("{v:.6}"),
                            None => "NULL".to_string(),
                        }
                    } else {
                        t.certain[input.schema.index_of(c).expect("col")].to_string()
                    };
                    row.push(s);
                }
                SelectItem::Variance(c) => {
                    row.push(uncertain_stat(input, ti, c, "VARIANCE", |m| m.variance())?);
                }
                SelectItem::Quantile(c, q) => {
                    let q = *q;
                    row.push(uncertain_stat(input, ti, c, "QUANTILE", move |m| m.quantile(q))?);
                }
                SelectItem::Median(c) => {
                    row.push(uncertain_stat(input, ti, c, "MEDIAN", |m| m.quantile(0.5))?);
                }
                SelectItem::ProbOf(p) => {
                    let compiled = match compiled {
                        Some(c) => c,
                        None => compiled.insert(ProbPredicate::compile(input, &translate_pred(p)?)),
                    };
                    row.push(format!("{:.6}", compiled.eval(t, reg, opts)?));
                }
                _ => unreachable!("aggregates handled above"),
            }
        }
        rows.push(row);
    }
    Ok(Output::Rows { header, rows })
}

/// Evaluates a per-tuple statistic over an uncertain column's marginal,
/// rendering `NULL` when the statistic is undefined.
fn uncertain_stat(
    rel: &Relation,
    tuple: usize,
    col: &str,
    what: &str,
    stat: impl Fn(&Pdf1) -> Option<f64>,
) -> Result<String> {
    let c =
        rel.schema.column(col).ok_or_else(|| SqlError::Exec(format!("unknown column '{col}'")))?;
    if !c.uncertain {
        // A certain value is a point mass: every statistic degenerates to
        // the obvious constant, consistent with EXPECTED's behavior.
        let v = &rel.tuples[tuple].certain[rel.schema.index_of(col).expect("col")];
        return match v.as_f64() {
            Some(x) => Ok(match stat(&Pdf1::certain(x)) {
                Some(r) => format!("{r:.6}"),
                None => "NULL".to_string(),
            }),
            None => Err(SqlError::Exec(format!("{what} over non-numeric certain column '{col}'"))),
        };
    }
    Ok(match stat(&rel.marginal(tuple, col)?) {
        Some(v) => format!("{v:.6}"),
        None => "NULL".to_string(),
    })
}

/// Renders one visible cell: certain value or pdf summary.
fn render_cell(rel: &Relation, tuple: usize, col: &str) -> Result<String> {
    let c =
        rel.schema.column(col).ok_or_else(|| SqlError::Exec(format!("unknown column '{col}'")))?;
    if c.uncertain {
        Ok(rel.marginal(tuple, col)?.to_string())
    } else {
        Ok(rel.tuples[tuple].certain[rel.schema.index_of(col).expect("col")].to_string())
    }
}

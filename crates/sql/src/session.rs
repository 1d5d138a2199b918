//! Durable transactional SQL sessions.
//!
//! A [`DurableSession`] runs the Orion SQL dialect against a
//! [`SharedDurableDb`] with snapshot-isolation transactions:
//!
//! * `BEGIN` / `COMMIT` / `ROLLBACK` bracket an explicit transaction; all
//!   DML inside it stages into one [`Txn`] and reaches the WAL as a single
//!   atomic group at `COMMIT`.
//! * DML outside an explicit transaction auto-commits: each statement runs
//!   in its own transaction, retried with bounded exponential backoff when
//!   a concurrent committer wins (retryable
//!   [`EngineError::TxnConflict`](orion_core::prelude::EngineError)).
//!   An explicit `COMMIT` is **not** auto-retried — replaying a
//!   multi-statement transaction needs the client's logic, so the conflict
//!   surfaces to the caller (who may BEGIN again).
//! * Reads (`SELECT`, `EXPLAIN`, system tables) run on a point-in-time
//!   view of the session's current state: the transaction's view when one
//!   is open — so a transaction reads its own writes — and the latest
//!   committed state otherwise. Either view shares its tuples and history
//!   segments copy-on-write, so taking it is O(tables + segments).
//!
//! This is the only place SQL writes: every CREATE TABLE, INSERT, UPDATE
//! and DELETE is staged by `apply_dml`, and index DDL and `ANALYZE` go
//! to the engine. A statement either takes effect whole or not at all,
//! inside a transaction too. Tables are never dropped (the grammar has no
//! `DROP TABLE`), and `ANALYZE` and index DDL cannot run inside a
//! transaction (statistics and index definitions are engine state, not
//! row data).

use crate::ast::{ColumnDef, InsertValue, PdfExpr, Statement};
use crate::error::{Result, SqlError};
use crate::exec::{translate_pred, Database, Output, SYS_PREFIX};
use crate::fingerprint::fingerprint;
use crate::parser::parse;
use orion_core::prelude::*;
use orion_core::tuple::PdfNode;
use orion_obs::{scratch_dir, ExecSample, ExecStats, OpProfile, SlowQuery};
use orion_pdf::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Auto-commit conflict retries before giving up (first-committer-wins
/// losers re-run on a fresh snapshot).
const AUTOCOMMIT_RETRIES: u32 = 5;

/// Base backoff before an auto-commit retry; doubles per attempt.
const RETRY_BACKOFF: Duration = Duration::from_micros(100);

/// A SQL session over a durable engine, with transactions.
pub struct DurableSession {
    db: SharedDurableDb,
    txn: Option<Txn>,
    /// Per-session operator counters (pdf ops, index probes), attached to
    /// every query database when the workload repository is enabled so the
    /// statement repository can charge pdf work to statements.
    exec_stats: Arc<ExecStats>,
    /// The scratch directory of a [`temporary`](Self::temporary) session.
    /// Declared last so the engine closes before the directory is removed.
    scratch: Option<ScratchDir>,
}

/// A scratch directory removed, with everything in it, when dropped.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

impl DurableSession {
    /// Opens (or creates) a durable database directory with default group
    /// commit settings.
    pub fn open(dir: &Path) -> Result<Self> {
        Self::open_with(dir, GroupCommitConfig::default())
    }

    /// Opens with explicit group-commit tuning.
    pub fn open_with(dir: &Path, cfg: GroupCommitConfig) -> Result<Self> {
        let db = SharedDurableDb::open(dir, cfg)?;
        Ok(Self::from_db(db))
    }

    /// Opens a fresh database in a scratch directory named after `name`,
    /// which is removed with everything in it when the session is dropped.
    pub fn temporary(name: &str) -> Result<Self> {
        let scratch = ScratchDir(scratch_dir(name));
        let mut session = Self::open(&scratch.0)?;
        session.scratch = Some(scratch);
        Ok(session)
    }

    /// Wraps an already-open shared engine.
    pub fn from_db(db: SharedDurableDb) -> Self {
        DurableSession { db, txn: None, exec_stats: Arc::new(ExecStats::new()), scratch: None }
    }

    /// The underlying shared engine.
    pub fn db(&self) -> &SharedDurableDb {
        &self.db
    }

    /// Whether an explicit transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Parses and executes one statement, recording it into the engine's
    /// workload repository when enabled (one relaxed atomic load when not).
    pub fn execute(&mut self, sql: &str) -> Result<Output> {
        let stmt = parse(sql)?;
        let workload = self.db.workload();
        let mut retries = 0u64;
        let mut profile = None;
        if !workload.enabled() {
            return self.dispatch(stmt, &mut retries, &mut profile);
        }
        let (fp, text) = fingerprint(&stmt);
        let stats_before = self.exec_stats.snapshot();
        let io_before = self.db.io_stats().snapshot();
        let start = Instant::now();
        let result = self.dispatch(stmt, &mut retries, &mut profile);
        let nanos = start.elapsed().as_nanos() as u64;
        let stats_after = self.exec_stats.snapshot();
        let io_after = self.db.io_stats().snapshot();
        let rows = match &result {
            Ok(Output::Table(rel)) => rel.len() as u64,
            Ok(Output::Rows { rows, .. }) => rows.len() as u64,
            Ok(Output::Count(n)) => *n as u64,
            _ => 0,
        };
        let pdf_ops = (stats_after.pdf_products - stats_before.pdf_products)
            + (stats_after.pdf_floors - stats_before.pdf_floors)
            + (stats_after.pdf_marginalizations - stats_before.pdf_marginalizations);
        let sample = ExecSample {
            fingerprint: fp,
            text,
            nanos,
            rows,
            error: result.is_err(),
            pages_read: io_after.physical_reads.saturating_sub(io_before.physical_reads),
            pdf_ops,
            index_probes: stats_after.index_probes.saturating_sub(stats_before.index_probes),
            txn_retries: retries,
        };
        if let Some(ticket) = workload.record(&sample) {
            // The plan of the execution that was slow; its estimate-vs-actual
            // pairs go to the planner-feedback store — slow statements
            // deserve the planner's attention.
            let plan = profile
                .inspect(|p| self.db.plan_feedback().fold(p))
                .map(|p| p.render(true))
                .unwrap_or_default();
            workload.record_slow(SlowQuery {
                seq: ticket.seq,
                fingerprint: fp,
                text: sample.text,
                nanos,
                rows,
                cause: ticket.cause,
                plan,
            });
        }
        result
    }

    /// Routes one parsed statement; `retries` counts auto-commit conflict
    /// re-runs for the workload repository, and `profile` receives the
    /// operator profile of a profiled SELECT (the slow-query log's to
    /// render).
    fn dispatch(
        &mut self,
        stmt: Statement,
        retries: &mut u64,
        profile: &mut Option<OpProfile>,
    ) -> Result<Output> {
        match stmt {
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(SqlError::Exec("a transaction is already open".into()));
                }
                self.txn = Some(Txn::begin(&self.db));
                Ok(Output::Ok)
            }
            Statement::Commit => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| SqlError::Exec("COMMIT outside a transaction".into()))?;
                txn.commit()?;
                Ok(Output::Ok)
            }
            Statement::Rollback => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| SqlError::Exec("ROLLBACK outside a transaction".into()))?;
                txn.rollback();
                Ok(Output::Ok)
            }
            dml @ (Statement::CreateTable { .. }
            | Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. }) => match self.txn.as_mut() {
                Some(txn) => apply_dml(txn, dml),
                None => self.autocommit(dml, retries),
            },
            Statement::CreateIndex { name, table, column, kind } => {
                self.reject_in_txn("CREATE INDEX")?;
                let kind = translate_index_kind(kind.as_deref())?;
                self.db.create_index(&name, &table, &column, kind)?;
                Ok(Output::Ok)
            }
            Statement::DropIndex { name } => {
                self.reject_in_txn("DROP INDEX")?;
                self.db.drop_index(&name)?;
                Ok(Output::Ok)
            }
            Statement::Analyze { table } => {
                if self.txn.is_some() {
                    return Err(SqlError::Exec(
                        "ANALYZE cannot run inside a transaction (statistics are engine \
                         state, not transactional row data)"
                            .into(),
                    ));
                }
                Ok(Output::Analyze(self.db.analyze_table(&table)?))
            }
            read => {
                let mut qdb = self.query_db(ExecOptions::default());
                let out = qdb.run(read);
                *profile = qdb.take_profile();
                out
            }
        }
    }

    /// Index DDL is engine state logged at its own WAL commit point, not
    /// transactional row data — like ANALYZE it cannot run inside an open
    /// transaction.
    fn reject_in_txn(&self, stmt: &str) -> Result<()> {
        if self.txn.is_some() {
            return Err(SqlError::Exec(format!(
                "{stmt} cannot run inside a transaction (index definitions are engine \
                 state, logged at their own WAL commit point)"
            )));
        }
        Ok(())
    }

    /// Runs one DML statement as its own transaction, retrying conflicts
    /// with bounded exponential backoff. `retries` reports the number of
    /// conflict re-runs to the workload repository.
    fn autocommit(&mut self, stmt: Statement, retries: &mut u64) -> Result<Output> {
        let mut attempt = 0u32;
        loop {
            let mut txn = Txn::begin(&self.db);
            let out = apply_dml(&mut txn, stmt.clone())?;
            match txn.commit() {
                Ok(_) => return Ok(out),
                Err(e) if e.is_retryable() && attempt < AUTOCOMMIT_RETRIES => {
                    attempt += 1;
                    *retries += 1;
                    std::thread::sleep(RETRY_BACKOFF * 2u32.pow(attempt - 1));
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Builds the per-statement query database every read runs on, with
    /// execution options `opts`: a point-in-time view of the current state
    /// (the transaction's view, own writes included, or the committed
    /// state) with the engine's durable stats catalog and its IO /
    /// transaction registries attached for the `orion.*` system tables.
    /// The view shares tuple storage and registry segments with the state
    /// it was taken from; taking it copies pointers only.
    pub fn query_db(&mut self, opts: ExecOptions) -> Database {
        let (tables, reg) = match self.txn.as_mut() {
            Some(txn) => txn.with_view(|t, r| (t.clone(), r.clone())),
            None => self.db.with_tables(|t, r| (t.clone(), r.clone())),
        };
        let mut qdb = Database::with_options(opts);
        for rel in tables.into_values() {
            qdb.register_table(rel);
        }
        *qdb.registry_mut() = reg;
        qdb.set_stats_catalog(self.db.stats_catalog());
        qdb.set_io_stats(self.db.io_stats());
        qdb.set_txn_db(self.db.clone());
        // A defs+epochs snapshot of the engine catalog sharing its build
        // cache: trees are keyed by the table version they index, so one
        // built by this statement serves every later statement that reads
        // the same version, and a racing commit simply writes a new one.
        let cat = self.db.indexes().lock().snapshot();
        qdb.set_index_handle(IndexHandle::from_catalog(cat));
        let workload = self.db.workload();
        if workload.enabled() {
            // Operator-level counters (pdf ops, index probes) cost atomic
            // increments in the hot loops, so they are only attached when
            // the workload repository will read them.
            qdb.set_exec_stats(Arc::clone(&self.exec_stats));
        }
        qdb.set_workload(workload);
        qdb.set_plan_feedback(self.db.plan_feedback());
        qdb
    }
}

/// Stages one DML statement into a transaction. A statement that fails
/// stages nothing: every INSERT row is translated before the first is
/// staged, and a translated row always fits its table.
fn apply_dml(txn: &mut Txn, stmt: Statement) -> Result<Output> {
    match stmt {
        Statement::CreateTable { name, columns, correlated } => {
            txn.create_table(&name, table_schema(&name, &columns, &correlated)?)?;
            Ok(Output::Ok)
        }
        Statement::Insert { table, rows } => {
            let n = rows.len();
            let schema = txn.schema(&table)?.clone();
            for (certain, uncertain) in translate_rows(&schema, rows)? {
                txn.insert(&table, &certain, uncertain)?;
            }
            Ok(Output::Count(n))
        }
        Statement::Delete { table, filter } => {
            let pred = filter.map(|p| translate_pred(&p)).transpose()?;
            let schema = txn.schema(&table)?.clone();
            let removed = match pred {
                None => txn.delete_where(&table, |_| true)?,
                Some(p) => {
                    check_certain_pred(&schema, &p, "DELETE")?;
                    txn.delete_where(&table, |t| certain_eval(&schema, t, &p))?
                }
            };
            Ok(Output::Count(removed))
        }
        Statement::Update { table, sets, filter } => {
            let pred = filter.map(|p| translate_pred(&p)).transpose()?;
            let schema = txn.schema(&table)?.clone();
            if let Some(p) = &pred {
                check_certain_pred(&schema, p, "UPDATE")?;
            }
            let assigns = translate_assignments(&schema, &sets)?;
            let sel_schema = schema.clone();
            let updated = txn.update_where(
                &table,
                move |t| match &pred {
                    None => true,
                    Some(p) => certain_eval(&sel_schema, t, p),
                },
                move |t, reg| {
                    for a in &assigns {
                        match a {
                            Assign::Certain(idx, v) => t.certain[*idx] = v.clone(),
                            Assign::Node(group, joint) => {
                                // Fresh base pdf, fresh history. No add_refs
                                // here: Txn::update_where diffs old vs new
                                // nodes and does the reference bookkeeping,
                                // exactly like WAL replay.
                                let ni = t.node_index_for(group[0]).ok_or_else(|| {
                                    EngineError::Operator("uncertain column lost its node".into())
                                })?;
                                let id = reg.register(group.clone(), joint.clone());
                                t.nodes[ni] = PdfNode::base(
                                    id,
                                    group,
                                    joint.clone(),
                                    [id].into_iter().collect(),
                                );
                            }
                        }
                    }
                    Ok(())
                },
            )?;
            Ok(Output::Count(updated))
        }
        other => unreachable!("apply_dml only receives DML, got {other:?}"),
    }
}

/// The schema of `CREATE TABLE name (...)`; the system namespace is
/// reserved.
pub(crate) fn table_schema(
    name: &str,
    columns: &[ColumnDef],
    correlated: &[Vec<String>],
) -> Result<ProbSchema> {
    if name.starts_with(SYS_PREFIX) {
        return Err(SqlError::Exec(format!(
            "the '{SYS_PREFIX}' namespace is reserved for system tables"
        )));
    }
    let cols: Vec<(&str, ColumnType, bool)> =
        columns.iter().map(|c| (c.name.as_str(), c.ty, c.uncertain)).collect();
    let groups: Vec<Vec<&str>> =
        correlated.iter().map(|g| g.iter().map(|s| s.as_str()).collect()).collect();
    Ok(ProbSchema::new(cols, groups)?)
}

/// One translated INSERT row, in the form [`Relation::insert`] takes: the
/// certain `(column, value)` pairs and one `(column names, joint pdf)`
/// entry per dependency group, naming columns by the schema's strings.
pub(crate) type Row<'s> = (Vec<(&'s str, Value)>, Vec<(Vec<&'s str>, JointPdf)>);

/// Translates every row of an INSERT against `schema`, failing on the
/// first bad one before any is used.
pub(crate) fn translate_rows(
    schema: &ProbSchema,
    rows: Vec<Vec<InsertValue>>,
) -> Result<Vec<Row<'_>>> {
    rows.into_iter().map(|row| translate_insert_row(schema, row)).collect()
}

/// Translates one INSERT row against a schema. Walks columns in order; a
/// correlated group consumes ONE value (a JOINT constructor) at the
/// position of its first column.
fn translate_insert_row(schema: &ProbSchema, row: Vec<InsertValue>) -> Result<Row<'_>> {
    let mut certain = Vec::new();
    let mut uncertain = Vec::new();
    let mut vals = row.into_iter();
    let mut consumed: Vec<AttrId> = Vec::new();
    for col in schema.columns() {
        if consumed.contains(&col.id) {
            continue;
        }
        let v = vals.next().ok_or_else(|| SqlError::Exec("too few values in INSERT".into()))?;
        if !col.uncertain {
            certain.push((col.name.as_str(), certain_literal(&v, col)?));
            continue;
        }
        // Uncertain: which dependency group does this column lead?
        let group = dep_group(schema, col.id);
        let names: Vec<&str> = group
            .iter()
            .map(|id| schema.column_by_id(*id).expect("dep attr visible").name.as_str())
            .collect();
        consumed.extend(&group);
        let joint = match v {
            InsertValue::Pdf(expr) => build_joint(&expr, group.len())?,
            InsertValue::Number(n) => {
                if group.len() != 1 {
                    return Err(SqlError::Exec(format!(
                        "correlated group led by '{}' needs a JOINT(...) value",
                        col.name
                    )));
                }
                JointPdf::from_pdf1(Pdf1::certain(n))
            }
            other => {
                return Err(SqlError::Exec(format!(
                    "uncertain column '{}' needs a pdf, got {other:?}",
                    col.name
                )))
            }
        };
        uncertain.push((names, joint));
    }
    if vals.next().is_some() {
        return Err(SqlError::Exec("too many values in INSERT".into()));
    }
    Ok((certain, uncertain))
}

/// One pre-validated UPDATE assignment.
enum Assign {
    /// Overwrite the certain value at this tuple index.
    Certain(usize, Value),
    /// Replace the node covering this dependency group with a fresh base
    /// pdf (new history).
    Node(Vec<AttrId>, JointPdf),
}

/// Pre-validates and pre-builds UPDATE assignments against a schema.
/// Updating one member of a correlated group is rejected — supply the
/// whole group via JOINT.
fn translate_assignments(
    schema: &ProbSchema,
    sets: &[(String, InsertValue)],
) -> Result<Vec<Assign>> {
    let mut assigns = Vec::with_capacity(sets.len());
    for (col_name, v) in sets {
        let col = schema
            .column(col_name)
            .ok_or_else(|| SqlError::Exec(format!("unknown column '{col_name}'")))?;
        if !col.uncertain {
            let val = certain_literal(v, col)?;
            assigns.push(Assign::Certain(schema.index_of(col_name).expect("column exists"), val));
            continue;
        }
        let group = dep_group(schema, col.id);
        let joint = match v {
            InsertValue::Pdf(expr) => build_joint(expr, group.len())?,
            InsertValue::Number(n) if group.len() == 1 => JointPdf::from_pdf1(Pdf1::certain(*n)),
            other => {
                return Err(SqlError::Exec(format!(
                    "uncertain column '{col_name}' needs a pdf \
                     (its correlated group has {} columns), got {other:?}",
                    group.len()
                )))
            }
        };
        assigns.push(Assign::Node(group, joint));
    }
    Ok(assigns)
}

/// Coerces an INSERT/UPDATE literal for a certain column.
fn certain_literal(v: &InsertValue, col: &Column) -> Result<Value> {
    Ok(match v {
        InsertValue::Null => Value::Null,
        InsertValue::Number(n) => match col.ty {
            ColumnType::Int => Value::Int(*n as i64),
            _ => Value::Real(*n),
        },
        InsertValue::Text(s) => Value::Text(s.clone()),
        InsertValue::Bool(b) => Value::Bool(*b),
        InsertValue::Pdf(_) => {
            return Err(SqlError::Exec(format!("column '{}' is certain; got a pdf", col.name)))
        }
    })
}

/// The dependency group a column belongs to (itself when independent).
fn dep_group(schema: &ProbSchema, id: AttrId) -> Vec<AttrId> {
    schema.deps().iter().find(|g| g.contains(&id)).cloned().unwrap_or_else(|| vec![id])
}

/// Resolves an optional `USING <kind>` clause to an [`IndexKind`].
fn translate_index_kind(kind: Option<&str>) -> Result<Option<IndexKind>> {
    match kind {
        None => Ok(None),
        Some(s) => IndexKind::parse(s).map(Some).ok_or_else(|| {
            SqlError::Exec(format!("unknown index kind '{s}' (expected 'evx' or 'cdf')"))
        }),
    }
}

/// Rejects DML predicates that touch uncertain columns (a tuple is either
/// affected or not; probabilistic DML would need user-specified
/// semantics).
fn check_certain_pred(schema: &ProbSchema, p: &Predicate, stmt: &str) -> Result<()> {
    for c in p.columns() {
        match schema.column(&c) {
            None => return Err(SqlError::Exec(format!("unknown column '{c}'"))),
            Some(col) if col.uncertain => {
                let hint = if stmt == "DELETE" {
                    "; use PROB() thresholds with SELECT instead"
                } else {
                    ""
                };
                return Err(SqlError::Exec(format!(
                    "{stmt} predicates must use certain columns ('{c}' is uncertain){hint}"
                )));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Evaluates a certain-column predicate against one tuple.
fn certain_eval(schema: &ProbSchema, t: &ProbTuple, p: &Predicate) -> bool {
    let lookup = |name: &str| -> Value {
        schema.index_of(name).map(|i| t.certain[i].clone()).unwrap_or(Value::Null)
    };
    p.eval(&lookup) == Some(true)
}

/// Builds the joint pdf for one dependency group from a constructor.
fn build_joint(expr: &PdfExpr, group_arity: usize) -> Result<JointPdf> {
    let single = |p: Pdf1| -> Result<JointPdf> {
        if group_arity != 1 {
            return Err(SqlError::Exec(format!(
                "correlated group of {group_arity} columns needs a JOINT(...) value"
            )));
        }
        Ok(JointPdf::from_pdf1(p))
    };
    match expr {
        PdfExpr::Gaussian(m, v) => single(Pdf1::gaussian(*m, *v)?),
        PdfExpr::Uniform(a, b) => single(Pdf1::uniform(*a, *b)?),
        PdfExpr::Exponential(r) => single(Pdf1::symbolic(Symbolic::exponential(*r)?)),
        PdfExpr::Poisson(l) => single(Pdf1::symbolic(Symbolic::poisson(*l)?)),
        PdfExpr::Binomial(n, p) => single(Pdf1::symbolic(Symbolic::binomial(*n, *p)?)),
        PdfExpr::Bernoulli(p) => single(Pdf1::symbolic(Symbolic::bernoulli(*p)?)),
        PdfExpr::Geometric(p) => single(Pdf1::symbolic(Symbolic::geometric(*p)?)),
        PdfExpr::Discrete(pts) => single(Pdf1::discrete(pts.clone())?),
        PdfExpr::Histogram { lo, width, masses } => {
            single(Pdf1::histogram(*lo, *width, masses.clone())?)
        }
        PdfExpr::Joint(pts) => {
            if pts.is_empty() {
                return Err(SqlError::Exec("JOINT needs at least one point".into()));
            }
            let arity = pts[0].0.len();
            if arity != group_arity {
                return Err(SqlError::Exec(format!(
                    "JOINT arity {arity} does not match correlated group of {group_arity}"
                )));
            }
            Ok(JointPdf::from_points(JointDiscrete::from_points(arity, pts.clone())?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        orion_obs::scratch_dir(&format!("session-test-{name}"))
    }

    fn int_cell(out: &Output, col: &str) -> i64 {
        let Output::Table(rel) = out else { panic!("expected table, got {out:?}") };
        let Value::Int(v) = rel.value(0, col).unwrap() else { panic!("expected int") };
        *v
    }

    #[test]
    fn dml_autocommits_and_survives_reopen() {
        let dir = temp_dir("autocommit");
        {
            let mut s = DurableSession::open(&dir).unwrap();
            s.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)").unwrap();
            s.execute("INSERT INTO readings VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4))")
                .unwrap();
            s.execute("UPDATE readings SET value = GAUSSIAN(99, 1) WHERE rid = 2").unwrap();
            s.execute("DELETE FROM readings WHERE rid = 1").unwrap();
        }
        let mut s = DurableSession::open(&dir).unwrap();
        let out = s.execute("SELECT * FROM readings").unwrap();
        let Output::Table(rel) = out else { panic!("expected table") };
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.value(0, "rid").unwrap(), &Value::Int(2));
        assert_eq!(rel.marginal(0, "value").unwrap().to_string(), "Gaus(99,1)");
        s.db().check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every tuple of every table and every base with its count: a deep
    /// copy of what a version shows.
    fn contents(
        tables: &std::collections::HashMap<String, Relation>,
        reg: &HistoryRegistry,
    ) -> String {
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort();
        let rows: Vec<_> = names.iter().map(|n| (n, tables[*n].tuples.to_vec())).collect();
        let bases: Vec<_> =
            reg.iter_bases().map(|(id, b)| (id, b.clone(), reg.ref_count(id))).collect();
        format!("{rows:?} {bases:?}")
    }

    #[test]
    fn held_versions_survive_later_commits() {
        let dir = temp_dir("isolation");
        let mut s = DurableSession::open(&dir).unwrap();
        s.execute("CREATE TABLE t (id INT, v REAL UNCERTAIN)").unwrap();
        for i in 0..10 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, GAUSSIAN({i}, 1))")).unwrap();
        }
        let (tables, reg) = s.db().with_tables(|t, r| (t.clone(), r.clone()));
        let held = contents(&tables, &reg);
        let mut txn = Txn::begin(s.db());
        let in_txn = txn.with_view(contents);
        assert_eq!(in_txn, held);
        for i in 10..110 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, GAUSSIAN({i}, 2))")).unwrap();
        }
        s.execute("UPDATE t SET v = GAUSSIAN(99, 1) WHERE id = 3").unwrap();
        s.execute("DELETE FROM t WHERE id = 4").unwrap();
        assert_eq!(contents(&tables, &reg), held, "the held version is unchanged");
        check_invariants(&tables, &reg).unwrap();
        assert_eq!(txn.with_view(contents), held, "the snapshot is unchanged");
        txn.with_view(check_invariants).unwrap();
        txn.rollback();
        s.db().check_invariants().unwrap();
        s.db().with_tables(|t, _| assert_eq!(t["t"].len(), 109));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn select_views_share_committed_tuples() {
        let dir = temp_dir("select_view");
        let mut s = DurableSession::open(&dir).unwrap();
        s.execute("CREATE TABLE t (a INT, x REAL UNCERTAIN)").unwrap();
        s.execute("INSERT INTO t VALUES (1, UNIFORM(0, 1)), (2, UNIFORM(1, 2))").unwrap();
        let committed = s.db().with_tables(|t, _| Arc::clone(&t["t"].tuples));
        let shares = |s: &mut DurableSession| {
            Arc::ptr_eq(&s.query_db(ExecOptions::default()).table("t").unwrap().tuples, &committed)
        };
        assert!(shares(&mut s), "a SELECT copies no tuple");
        s.execute("BEGIN").unwrap();
        assert!(shares(&mut s), "nor does one inside a transaction that wrote nothing");
        s.execute("INSERT INTO t VALUES (3, UNIFORM(2, 3))").unwrap();
        assert!(!shares(&mut s), "reading after writing reads a private copy");
        assert_eq!(s.query_db(ExecOptions::default()).table("t").unwrap().len(), 3);
        s.execute("ROLLBACK").unwrap();
        assert_eq!(committed.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn begin_commit_groups_statements_atomically() {
        let dir = temp_dir("explicit");
        let mut s = DurableSession::open(&dir).unwrap();
        s.execute("CREATE TABLE t (a INT, x REAL UNCERTAIN)").unwrap();
        let wal_before = s.db().wal_len();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (1, UNIFORM(0, 1))").unwrap();
        s.execute("INSERT INTO t VALUES (2, UNIFORM(1, 2))").unwrap();
        // Inside the txn, the session reads its own writes...
        assert_eq!(int_cell(&s.execute("SELECT a FROM t WHERE a = 2").unwrap(), "a"), 2);
        // ...but nothing reached the log or the shared state yet.
        assert_eq!(s.db().wal_len(), wal_before);
        s.db().with_tables(|tables, _| assert_eq!(tables["t"].len(), 0));
        s.execute("COMMIT").unwrap();
        assert!(s.db().wal_len() > wal_before);
        s.db().with_tables(|tables, _| assert_eq!(tables["t"].len(), 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rollback_discards_everything() {
        let dir = temp_dir("rollback");
        let mut s = DurableSession::open(&dir).unwrap();
        s.execute("CREATE TABLE t (a INT, x REAL UNCERTAIN)").unwrap();
        s.execute("INSERT INTO t VALUES (1, UNIFORM(0, 1))").unwrap();
        s.execute("BEGIN TRANSACTION").unwrap();
        s.execute("INSERT INTO t VALUES (2, UNIFORM(0, 1))").unwrap();
        s.execute("DELETE FROM t WHERE a = 1").unwrap();
        s.execute("ROLLBACK").unwrap();
        let Output::Table(rel) = s.execute("SELECT * FROM t").unwrap() else { panic!("table") };
        assert_eq!(rel.len(), 1, "rollback left the committed row alone");
        assert_eq!(rel.value(0, "a").unwrap(), &Value::Int(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn txn_statement_errors() {
        let dir = temp_dir("errors");
        let mut s = DurableSession::open(&dir).unwrap();
        assert!(s.execute("COMMIT").is_err(), "commit outside txn");
        assert!(s.execute("ROLLBACK").is_err(), "rollback outside txn");
        s.execute("BEGIN").unwrap();
        assert!(s.execute("BEGIN").is_err(), "nested begin");
        assert!(s.execute("ANALYZE t").is_err(), "analyze inside txn");
        s.execute("ROLLBACK").unwrap();
        assert!(s.execute("DROP TABLE t").is_err(), "drop unsupported");
        // The read runner a session builds refuses transaction statements.
        let mut reader = s.query_db(ExecOptions::default());
        assert!(reader.execute("BEGIN").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_insert_in_txn_stages_nothing() {
        let mut s = testing::temp_session("atomic_insert");
        s.execute("CREATE TABLE t (a INT, x REAL UNCERTAIN)").unwrap();
        let rows = |s: &mut DurableSession| {
            let Output::Table(rel) = s.execute("SELECT a FROM t").unwrap() else { panic!("table") };
            (0..rel.len()).map(|i| rel.value(i, "a").unwrap().clone()).collect::<Vec<_>>()
        };
        // The second row is short, so the statement fails as a whole.
        let bad = "INSERT INTO t VALUES (1, GAUSSIAN(0, 1)), (2)";
        s.execute("BEGIN").unwrap();
        let err = s.execute(bad).unwrap_err();
        assert!(err.to_string().contains("too few values"), "{err}");
        s.execute("COMMIT").unwrap();
        assert_eq!(rows(&mut s), vec![], "the failed INSERT staged no row");
        // An earlier statement of the same transaction survives it.
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (3, GAUSSIAN(3, 1))").unwrap();
        assert!(s.execute(bad).is_err());
        s.execute("COMMIT").unwrap();
        assert_eq!(rows(&mut s), vec![Value::Int(3)]);
        assert!(s.execute(bad).is_err(), "autocommit");
        assert_eq!(rows(&mut s), vec![Value::Int(3)]);
        s.db().check_invariants().unwrap();
    }

    #[test]
    fn orion_txns_reflects_open_transaction() {
        let dir = temp_dir("sys_txns");
        let mut s = DurableSession::open(&dir).unwrap();
        s.execute("CREATE TABLE t (a INT, x REAL UNCERTAIN)").unwrap();
        let Output::Table(rel) = s.execute("SELECT * FROM orion.txns").unwrap() else {
            panic!("table")
        };
        assert_eq!(rel.len(), 0, "no transaction open");
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (1, UNIFORM(0, 1))").unwrap();
        let out = s.execute("SELECT * FROM orion.txns").unwrap();
        let Output::Table(rel) = out else { panic!("table") };
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.value(0, "writes").unwrap(), &Value::Int(1));
        s.execute("COMMIT").unwrap();
        let Output::Table(rel) = s.execute("SELECT * FROM orion.txns").unwrap() else {
            panic!("table")
        };
        assert_eq!(rel.len(), 0, "committed transaction left the registry");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn conflicting_explicit_commit_surfaces_retryable_error() {
        let dir = temp_dir("conflict");
        let mut a = DurableSession::open(&dir).unwrap();
        a.execute("CREATE TABLE t (a INT, x REAL UNCERTAIN)").unwrap();
        a.execute("INSERT INTO t VALUES (1, UNIFORM(0, 1))").unwrap();
        let mut b = DurableSession::from_db(a.db().clone());
        a.execute("BEGIN").unwrap();
        b.execute("BEGIN").unwrap();
        a.execute("DELETE FROM t WHERE a = 1").unwrap();
        b.execute("DELETE FROM t WHERE a = 1").unwrap();
        a.execute("COMMIT").unwrap();
        let err = b.execute("COMMIT").unwrap_err();
        let SqlError::Engine(e) = &err else { panic!("expected engine error, got {err:?}") };
        assert!(e.is_retryable(), "losers may retry: {e}");
        // The loser retries on a fresh snapshot and succeeds.
        b.execute("BEGIN").unwrap();
        b.execute("INSERT INTO t VALUES (2, UNIFORM(0, 1))").unwrap();
        b.execute("COMMIT").unwrap();
        let Output::Table(rel) = a.execute("SELECT * FROM t").unwrap() else { panic!("table") };
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.value(0, "a").unwrap(), &Value::Int(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_ddl_is_durable_and_rejected_inside_txn() {
        let dir = temp_dir("index_ddl");
        {
            let mut s = DurableSession::open(&dir).unwrap();
            s.execute("CREATE TABLE t (a INT, x REAL UNCERTAIN)").unwrap();
            s.execute("INSERT INTO t VALUES (1, UNIFORM(0, 1)), (2, UNIFORM(1, 2))").unwrap();
            s.execute("CREATE INDEX ix_x ON t (x)").unwrap();
            s.execute("CREATE INDEX ix_a ON t (a) USING evx").unwrap();
            s.execute("DROP INDEX ix_a").unwrap();
            s.execute("BEGIN").unwrap();
            assert!(s.execute("CREATE INDEX ix2 ON t (a)").is_err(), "DDL inside txn");
            assert!(s.execute("DROP INDEX ix_x").is_err(), "DDL inside txn");
            s.execute("ROLLBACK").unwrap();
        }
        // The definition replays from the WAL; the dropped one stays gone.
        let mut s = DurableSession::open(&dir).unwrap();
        let Output::Table(rel) = s.execute("SELECT * FROM orion.indexes").unwrap() else {
            panic!("table")
        };
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.value(0, "name").unwrap(), &Value::Text("ix_x".into()));
        assert_eq!(rel.value(0, "kind").unwrap(), &Value::Text("cdf".into()));
        // Indexed and scan-only sessions agree on threshold results.
        let out = s.execute("SELECT a FROM t WHERE PROB(x > 0.5) > 0.4").unwrap();
        let Output::Table(rel) = out else { panic!("table") };
        assert_eq!(rel.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_trees_are_built_once_per_committed_version() {
        let dir = temp_dir("index_pages");
        let mut s = DurableSession::open(&dir).unwrap();
        s.execute("CREATE TABLE t (a INT, x REAL UNCERTAIN)").unwrap();
        let rows: Vec<String> = (0..50).map(|i| format!("({i}, GAUSSIAN({i}, 1))")).collect();
        s.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
        s.execute("CREATE INDEX ix_x ON t (x)").unwrap();
        let pages = |s: &mut DurableSession| {
            int_cell(&s.execute("SELECT pages FROM orion.indexes").unwrap(), "pages")
        };
        let tree = |s: &DurableSession| {
            let rel = s.db().with_tables(|t, _| t["t"].clone());
            s.db().indexes().lock().cached("ix_x", &rel)
        };
        let query = "SELECT a FROM t WHERE PROB(x > 45) > 0.9";
        assert_eq!(pages(&mut s), 0, "nothing built before a threshold query");
        s.execute(query).unwrap();
        assert!(pages(&mut s) > 0, "the statement's tree is visible to the next one");
        let first = tree(&s).expect("cached in the engine catalog");
        s.execute(query).unwrap();
        assert!(Arc::ptr_eq(&first, &tree(&s).unwrap()), "the next statement reuses it");
        s.execute("INSERT INTO t VALUES (50, GAUSSIAN(50, 1))").unwrap();
        assert_eq!(pages(&mut s), 0, "an INSERT makes a new version");
        let Output::Table(rel) = s.execute(query).unwrap() else { panic!("table") };
        assert_eq!(rel.len(), 4, "the rebuilt tree sees the new row");
        assert!(pages(&mut s) > 0);
        assert!(!Arc::ptr_eq(&first, &tree(&s).unwrap()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_repo_records_statements_and_slow_captures() {
        let dir = temp_dir("workload");
        let mut s = DurableSession::open(&dir).unwrap();
        let repo = s.db().workload();
        let mut cfg = repo.config();
        cfg.slow_nanos = 0; // capture every statement into the slow log
        repo.set_config(cfg);
        s.execute("CREATE TABLE t (a INT, x REAL UNCERTAIN)").unwrap();
        s.execute("INSERT INTO t VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4))").unwrap();
        s.execute("SELECT a FROM t WHERE PROB(x < 30) > 0.1").unwrap();
        s.execute("SELECT a FROM t WHERE PROB(x < 99) > 0.2").unwrap();
        assert!(s.execute("SELECT a FROM missing").is_err());

        let stmts = repo.statements();
        // The two SELECTs differ only in literals and share one fingerprint.
        let sel = stmts.iter().find(|st| st.text.starts_with("SELECT a FROM t")).unwrap();
        assert_eq!(sel.calls, 2);
        assert_eq!(sel.rows, 4);
        assert_eq!(sel.errors, 0);
        let err = stmts.iter().find(|st| st.text.contains("missing")).unwrap();
        assert_eq!(err.errors, 1);
        assert_eq!(repo.total_calls(), 5);

        let slow = repo.slow_queries();
        assert_eq!(slow.len(), 5, "slow_nanos=0 captures everything");
        let sq = slow.iter().find(|q| q.text.starts_with("SELECT a FROM t")).unwrap();
        assert!(sq.plan.contains("Scan"), "captured plan has operators: {:?}", sq.plan);
        assert!(sq.plan.contains("actual="), "EXPLAIN ANALYZE form: {:?}", sq.plan);
        // Each capture folded its run's estimate-vs-actual feedback.
        assert!(!s.db().plan_feedback().summaries().is_empty());

        // The same stores back the orion.* vtables.
        let Output::Table(rel) = s.execute("SELECT * FROM orion.statements").unwrap() else {
            panic!("table")
        };
        assert!(rel.len() >= 4, "one row per fingerprint, got {}", rel.len());
        let Output::Table(rel) = s.execute("SELECT * FROM orion.slow_queries").unwrap() else {
            panic!("table")
        };
        assert!(rel.len() >= 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_workload_repo_records_nothing() {
        let dir = temp_dir("workload_off");
        let mut s = DurableSession::open(&dir).unwrap();
        s.db().workload().set_enabled(false);
        s.execute("CREATE TABLE t (a INT, x REAL UNCERTAIN)").unwrap();
        s.execute("SELECT a FROM t").unwrap();
        assert_eq!(s.db().workload().total_calls(), 0);
        assert!(s.db().workload().statements().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_feeds_session_stats_and_explain() {
        let dir = temp_dir("analyze");
        let mut s = DurableSession::open(&dir).unwrap();
        s.execute("CREATE TABLE t (a INT, x REAL UNCERTAIN)").unwrap();
        s.execute("INSERT INTO t VALUES (1, UNIFORM(0, 1)), (2, UNIFORM(1, 2))").unwrap();
        let Output::Analyze(ts) = s.execute("ANALYZE t").unwrap() else { panic!("analyze") };
        assert_eq!(ts.rows, 2);
        // The stats feed EXPLAIN estimates (scan knows its 2 rows) and
        // orion.stats on later statements.
        let Output::Explain { profile, .. } = s.execute("EXPLAIN SELECT a FROM t").unwrap() else {
            panic!("explain")
        };
        assert!(profile.render(false).contains("est_rows=2"), "{}", profile.render(false));
        let Output::Table(rel) = s.execute("SELECT * FROM orion.stats").unwrap() else {
            panic!("table")
        };
        assert_eq!(rel.len(), 2, "one stats row per column");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyzed_stats_reach_other_clients_and_survive_reopen() {
        // The engine's durable catalog is the one every session plans with:
        // a second client on the same engine and a session opened after a
        // restart both see session A's ANALYZE.
        fn assert_planned_with_stats(s: &mut DurableSession, who: &str) {
            let Output::Explain { profile, .. } = s.execute("EXPLAIN SELECT a FROM t").unwrap()
            else {
                panic!("explain")
            };
            let plan = profile.render(false);
            assert!(plan.contains("est_rows=2"), "{who}: {plan}");
            let Output::Table(rel) = s.execute("SELECT * FROM orion.stats").unwrap() else {
                panic!("table")
            };
            assert_eq!(rel.len(), 2, "{who}: one stats row per column");
        }
        let dir = temp_dir("analyze_shared");
        {
            let mut a = DurableSession::open(&dir).unwrap();
            a.execute("CREATE TABLE t (a INT, x REAL UNCERTAIN)").unwrap();
            a.execute("INSERT INTO t VALUES (1, UNIFORM(0, 1)), (2, UNIFORM(1, 2))").unwrap();
            a.execute("ANALYZE t").unwrap();
            let mut b = DurableSession::from_db(a.db().clone());
            assert_planned_with_stats(&mut b, "second client");
        }
        let mut reopened = DurableSession::open(&dir).unwrap();
        assert_planned_with_stats(&mut reopened, "after reopen");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Helpers for the crate's unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::DurableSession;
    use orion_core::prelude::Relation;

    /// A session over a fresh scratch directory named after `name`.
    pub(crate) fn temp_session(name: &str) -> DurableSession {
        DurableSession::temporary(&format!("sql-test-{name}")).unwrap()
    }

    /// Closes the engine of a temporary session and opens its directory
    /// again (recovery runs).
    pub(crate) fn reopen(mut session: DurableSession) -> DurableSession {
        let scratch = session.scratch.take().expect("a temporary session");
        drop(session);
        let mut session = DurableSession::open(&scratch.0).unwrap();
        session.scratch = Some(scratch);
        session
    }

    /// A copy of the committed table `name`.
    pub(crate) fn stored(session: &DurableSession, name: &str) -> Relation {
        session.db().with_tables(|t, _| t[name].clone())
    }
}

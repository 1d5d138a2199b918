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
//! `DROP TABLE` is not supported durably, and `ANALYZE` cannot run inside
//! a transaction (statistics are session/engine state, not row data).

use crate::ast::Statement;
use crate::error::{Result, SqlError};
use crate::exec::{
    certain_eval, check_certain_pred, translate_assignments, translate_insert_row, translate_pred,
    Assign, Database, Output, SYS_PREFIX,
};
use crate::fingerprint::fingerprint;
use crate::parser::parse;
use orion_core::prelude::*;
use orion_core::tuple::PdfNode;
use orion_obs::{ExecSample, ExecStats, OpProfile, SlowQuery};
use std::path::Path;
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

    /// Wraps an already-open shared engine.
    pub fn from_db(db: SharedDurableDb) -> Self {
        DurableSession { db, txn: None, exec_stats: Arc::new(ExecStats::new()) }
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
            Statement::DropTable { .. } => Err(SqlError::Exec(
                "DROP TABLE is not supported on durable sessions (deleted base tuples may \
                 still anchor histories of derived data)"
                    .into(),
            )),
            Statement::CreateIndex { name, table, column, kind } => {
                self.reject_in_txn("CREATE INDEX")?;
                let kind = crate::exec::translate_index_kind(kind.as_deref())?;
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
                let mut qdb = self.query_db();
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

    /// Builds the per-statement query database: a point-in-time view of
    /// the current state (the transaction's view, own writes included, or
    /// the committed state) with the engine's durable stats catalog and its
    /// IO / transaction registries attached for the `orion.*` system
    /// tables. The view shares tuple storage and registry segments with
    /// the state it was taken from; taking it copies pointers only.
    fn query_db(&mut self) -> Database {
        let (tables, reg) = match self.txn.as_mut() {
            Some(txn) => txn.with_view(|t, r| (t.clone(), r.clone())),
            None => self.db.with_tables(|t, r| (t.clone(), r.clone())),
        };
        let mut qdb = Database::new();
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

/// Stages one DML statement into a transaction.
fn apply_dml(txn: &mut Txn, stmt: Statement) -> Result<Output> {
    match stmt {
        Statement::CreateTable { name, columns, correlated } => {
            if name.starts_with(SYS_PREFIX) {
                return Err(SqlError::Exec(format!(
                    "the '{SYS_PREFIX}' namespace is reserved for system tables"
                )));
            }
            let cols: Vec<(&str, ColumnType, bool)> =
                columns.iter().map(|c| (c.name.as_str(), c.ty, c.uncertain)).collect();
            let groups: Vec<Vec<&str>> =
                correlated.iter().map(|g| g.iter().map(|s| s.as_str()).collect()).collect();
            let schema = ProbSchema::new(cols, groups)?;
            txn.create_table(&name, schema)?;
            Ok(Output::Ok)
        }
        Statement::Insert { table, rows } => {
            let n = rows.len();
            let schema = txn.schema(&table)?.clone();
            for row in rows {
                let (certain, uncertain) = translate_insert_row(&schema, row)?;
                let certain_refs: Vec<(&str, Value)> =
                    certain.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
                let uncertain_refs: Vec<(Vec<&str>, orion_pdf::prelude::JointPdf)> = uncertain
                    .iter()
                    .map(|(ns, j)| (ns.iter().map(|s| s.as_str()).collect(), j.clone()))
                    .collect();
                txn.insert(&table, &certain_refs, uncertain_refs)?;
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
            Arc::ptr_eq(&s.query_db().table("t").unwrap().tuples, &committed)
        };
        assert!(shares(&mut s), "a SELECT copies no tuple");
        s.execute("BEGIN").unwrap();
        assert!(shares(&mut s), "nor does one inside a transaction that wrote nothing");
        s.execute("INSERT INTO t VALUES (3, UNIFORM(2, 3))").unwrap();
        assert!(!shares(&mut s), "reading after writing reads a private copy");
        assert_eq!(s.query_db().table("t").unwrap().len(), 3);
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
        // Plain in-memory Database refuses transaction statements.
        let mut mem = Database::new();
        assert!(mem.execute("BEGIN").is_err());
        std::fs::remove_dir_all(&dir).ok();
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

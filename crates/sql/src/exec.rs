//! SQL execution: a [`Database`] session holding named relations, the
//! shared history registry, and execution options.

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::lower::{lower, Lowered};
use crate::parser::parse;
use orion_core::plan::{self, annotate_estimates, Plan};
use orion_core::prelude::*;
use orion_obs::{ExecStats, Histogram, OpProfile, Tracer, WorkloadRepo};
use orion_pdf::prelude::*;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Name prefix of the read-only system (virtual) tables.
pub const SYS_PREFIX: &str = "orion.";

/// Where an `EXPLAIN TRACE` query wrote its trace, plus a text rendering
/// of the spans it recorded.
#[derive(Debug, Clone)]
pub struct ExplainTrace {
    /// Path of the Chrome trace-event JSON file (open it in
    /// `chrome://tracing` or Perfetto).
    pub path: String,
    /// The recorded span tree (lanes, nested spans, durations).
    pub tree: String,
}

/// The result of executing one statement.
#[derive(Debug, Clone)]
pub enum Output {
    /// A probabilistic relation (SELECT of plain columns or `*`).
    Table(Relation),
    /// Computed rows (EXPECTED / PROB select items, aggregates).
    Rows { header: Vec<String>, rows: Vec<Vec<String>> },
    /// Number of affected tuples (INSERT / DELETE).
    Count(usize),
    /// Statement completed with nothing to return (CREATE / DROP).
    Ok,
    /// The statistics collected by `ANALYZE <table>` (a copy of what was
    /// installed into the session's stats catalog).
    Analyze(TableStats),
    /// The operator tree of an `EXPLAIN [ANALYZE | TRACE]` statement. With
    /// `analyze` the profile carries real execution stats; without, only
    /// the plan shape is meaningful. `trace` is set by `EXPLAIN TRACE`.
    Explain { profile: Box<OpProfile>, analyze: bool, trace: Option<ExplainTrace> },
}

/// An in-memory Orion SQL session.
pub struct Database {
    tables: HashMap<String, Relation>,
    reg: HistoryRegistry,
    opts: ExecOptions,
    stats: StatsCatalog,
    io: Arc<IoStats>,
    txn_db: Option<SharedDurableDb>,
    workload: Option<Arc<WorkloadRepo>>,
    feedback: Arc<PlanFeedbackStore>,
    /// The last SELECT's operator profile, when it ran profiled.
    profile: Option<OpProfile>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty database with default execution options.
    pub fn new() -> Self {
        Self::with_options(ExecOptions::default())
    }

    /// Overrides execution options (resolution, history maintenance, ...).
    /// A session without an index catalog gets a fresh private one, so
    /// `CREATE INDEX` and the access-path planner work out of the box.
    pub fn with_options(mut opts: ExecOptions) -> Self {
        if opts.indexes.is_none() {
            opts.indexes = Some(IndexHandle::new());
        }
        Database {
            tables: HashMap::new(),
            reg: HistoryRegistry::new(),
            opts,
            stats: StatsCatalog::new(),
            io: Arc::new(IoStats::default()),
            txn_db: None,
            workload: None,
            feedback: Arc::new(PlanFeedbackStore::new()),
            profile: None,
        }
    }

    /// The session's stats catalog, filled by `ANALYZE` and surfaced by
    /// `orion.stats` / `EXPLAIN` cardinality estimates.
    pub fn stats_catalog(&self) -> &StatsCatalog {
        &self.stats
    }

    /// Attaches the buffer-pool counters behind the `io.*` rows of
    /// `orion.metrics` (e.g. a durable engine's
    /// [`SharedDurableDb::io_stats`]; defaults to a detached all-zero
    /// instance).
    pub fn set_io_stats(&mut self, io: Arc<IoStats>) {
        self.io = io;
    }

    /// Attaches a durable engine behind `orion.txns` (its live transaction
    /// registry) and the `txn*` / `wal.*` rows of `orion.metrics`; defaults
    /// to none, rendering an empty `orion.txns` and no such rows.
    pub fn set_txn_db(&mut self, db: SharedDurableDb) {
        self.txn_db = Some(db);
    }

    /// Replaces the session's ANALYZE stats catalog (durable sessions seed
    /// their per-statement query databases with the session-held catalog).
    pub fn set_stats_catalog(&mut self, stats: StatsCatalog) {
        self.stats = stats;
    }

    /// Replaces the session's index catalog handle (durable sessions seed
    /// per-statement query databases with a snapshot of the engine's
    /// catalog that shares its build cache; see [`IndexCatalog::snapshot`]).
    pub fn set_index_handle(&mut self, indexes: IndexHandle) {
        self.opts.indexes = Some(indexes);
    }

    /// The session's index catalog handle.
    pub fn index_handle(&self) -> IndexHandle {
        self.opts.indexes.clone().expect("seeded at construction")
    }

    /// Attaches the workload repository behind `orion.statements` /
    /// `orion.slow_queries` (durable sessions share the engine's instance;
    /// defaults to none, rendering empty tables).
    pub fn set_workload(&mut self, repo: Arc<WorkloadRepo>) {
        self.workload = Some(repo);
    }

    /// Replaces the planner-feedback store behind `orion.plan_feedback`.
    /// Defaults to a private instance; durable sessions attach the engine's
    /// so feedback accumulates across statements and sessions.
    pub fn set_plan_feedback(&mut self, store: Arc<PlanFeedbackStore>) {
        self.feedback = store;
    }

    /// The planner-feedback store profiled executions fold into.
    pub fn plan_feedback(&self) -> Arc<PlanFeedbackStore> {
        Arc::clone(&self.feedback)
    }

    /// Attaches a per-statement operator-stats collector: operators count
    /// pdf products/floors/marginalizations and index probes into it, and
    /// the session layer reads the deltas for the workload repository.
    pub fn set_exec_stats(&mut self, stats: Arc<ExecStats>) {
        self.opts.stats = Some(stats);
    }

    /// Takes the operator profile the last SELECT produced while running,
    /// planner estimates attached — what `EXPLAIN ANALYZE` of it would
    /// print. `None` when that SELECT ran without a collector
    /// ([`Database::set_exec_stats`]) or failed, or the profile was already
    /// taken.
    pub fn take_profile(&mut self) -> Option<OpProfile> {
        self.profile.take()
    }

    /// Bumps the staleness epoch of every index over `table`, as reported
    /// by `orion.indexes` (built trees go stale on their own: DML writes a
    /// new table version, which the build cache keys on).
    fn note_index_mutation(&self, table: &str) {
        if let Some(h) = &self.opts.indexes {
            h.lock().note_mutation(table);
        }
    }

    /// Direct access to a stored relation.
    pub fn table(&self, name: &str) -> Option<&Relation> {
        self.tables.get(name)
    }

    /// Names of all stored tables (unordered).
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Registers an externally built relation (e.g. from a workload
    /// generator that used [`Database::registry_mut`]).
    pub fn register_table(&mut self, rel: Relation) {
        self.tables.insert(rel.name.clone(), rel);
    }

    /// The shared history registry.
    pub fn registry_mut(&mut self) -> &mut HistoryRegistry {
        &mut self.reg
    }

    /// Saves every table, the history registry, the ANALYZE stats catalog,
    /// and the secondary-index definitions to one file. Only index
    /// definitions are persisted — trees are rebuilt deterministically on
    /// first use after reopening.
    pub fn save(&self, path: &std::path::Path) -> Result<()> {
        let indexes = match &self.opts.indexes {
            Some(h) => h.lock().snapshot(),
            None => orion_core::pindex::IndexCatalog::new(),
        };
        orion_core::persist::save_snapshot_full(
            path,
            &self.tables,
            &self.reg,
            &self.stats,
            &indexes,
            0,
        )?;
        Ok(())
    }

    /// Opens a database previously written by [`Database::save`].
    pub fn open(path: &std::path::Path) -> Result<Self> {
        Self::open_with_options(path, ExecOptions::default())
    }

    /// Opens a saved database with specific execution options. Persisted
    /// index definitions are installed into the session's index handle (the
    /// caller-supplied one, if `opts` carries one).
    pub fn open_with_options(path: &std::path::Path, opts: ExecOptions) -> Result<Self> {
        let mut state = orion_core::persist::LoadState::default();
        orion_core::persist::load_into(path, &mut state)?;
        let stats = state.take_stats();
        let indexes = state.take_indexes();
        let (tables, reg) = state.finish();
        let mut db = Self::with_options(opts);
        db.tables = tables;
        db.reg = reg;
        db.stats = stats;
        if let Some(h) = &db.opts.indexes {
            let mut cat = h.lock();
            for def in indexes.defs() {
                cat.install(def.clone());
            }
        }
        Ok(db)
    }

    /// Parses and executes one statement.
    pub fn execute(&mut self, sql: &str) -> Result<Output> {
        let stmt = parse(sql)?;
        self.run(stmt)
    }

    pub(crate) fn run(&mut self, stmt: Statement) -> Result<Output> {
        match stmt {
            Statement::CreateTable { name, columns, correlated } => {
                if name.starts_with(SYS_PREFIX) {
                    return Err(SqlError::Exec(format!(
                        "the '{SYS_PREFIX}' namespace is reserved for system tables"
                    )));
                }
                if self.tables.contains_key(&name) {
                    return Err(SqlError::Exec(format!("table '{name}' already exists")));
                }
                let cols: Vec<(&str, ColumnType, bool)> =
                    columns.iter().map(|c| (c.name.as_str(), c.ty, c.uncertain)).collect();
                let groups: Vec<Vec<&str>> =
                    correlated.iter().map(|g| g.iter().map(|s| s.as_str()).collect()).collect();
                let schema = ProbSchema::new(cols, groups)?;
                self.tables.insert(name.clone(), Relation::new(name, schema));
                Ok(Output::Ok)
            }
            Statement::Insert { table, rows } => {
                let n = rows.len();
                for row in rows {
                    self.insert_row(&table, row)?;
                }
                self.note_index_mutation(&table);
                Ok(Output::Count(n))
            }
            select @ Statement::Select { .. } => self.select(lower(select)?),
            Statement::Update { table, sets, filter } => self.update(table, sets, filter),
            Statement::Delete { table, filter } => {
                let pred = filter.map(|p| translate_pred(&p)).transpose()?;
                let rel = self
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| SqlError::Exec(format!("unknown table '{table}'")))?;
                // DELETE decides tuple-by-tuple on the certain attributes
                // (deleting by uncertain predicate would need user-specified
                // semantics: a tuple either stays or goes).
                let schema = rel.schema.clone();
                let removed = match pred {
                    None => {
                        let all = rel.len();
                        let reg = &mut self.reg;
                        rel.delete_where(reg, |_| true);
                        all
                    }
                    Some(p) => {
                        check_certain_pred(&schema, &p, "DELETE")?;
                        let reg = &mut self.reg;
                        rel.delete_where(reg, |t| certain_eval(&schema, t, &p))
                    }
                };
                self.note_index_mutation(&table);
                Ok(Output::Count(removed))
            }
            Statement::DropTable { name } => {
                let rel = self
                    .tables
                    .remove(&name)
                    .ok_or_else(|| SqlError::Exec(format!("unknown table '{name}'")))?;
                rel.release(&mut self.reg);
                self.stats.remove(&name);
                if let Some(h) = &self.opts.indexes {
                    h.lock().drop_table(&name);
                }
                Ok(Output::Ok)
            }
            Statement::CreateIndex { name, table, column, kind } => {
                let kind = translate_index_kind(kind.as_deref())?;
                let handle = self.index_handle();
                let def = orion_core::durable::validate_index_def(
                    &self.tables,
                    &handle,
                    &name,
                    &table,
                    &column,
                    kind,
                )?;
                handle.lock().create(def)?;
                Ok(Output::Ok)
            }
            Statement::DropIndex { name } => {
                self.index_handle().lock().drop_index(&name)?;
                Ok(Output::Ok)
            }
            Statement::Analyze { table } => {
                let rel = self
                    .tables
                    .get(&table)
                    .ok_or_else(|| SqlError::Exec(format!("unknown table '{table}'")))?;
                let ts = analyze_relation(rel)?;
                self.stats.insert(ts.clone());
                Ok(Output::Analyze(ts))
            }
            Statement::Explain { analyze, trace, inner } => self.explain(analyze, trace, *inner),
            Statement::Begin | Statement::Commit | Statement::Rollback => Err(SqlError::Exec(
                "transactions need a durable session (open one with DurableSession::open)".into(),
            )),
        }
    }

    /// `EXPLAIN [ANALYZE | TRACE] SELECT ...`: runs the statement exactly as
    /// `SELECT` would, always profiled, and returns the operator tree in
    /// place of the rows. All forms run the query; the plain form renders
    /// only the plan shape. `TRACE` additionally records the statement's
    /// spans into its own tracer (the session's, if one is attached) and
    /// writes them as a Chrome trace-event JSON file,
    /// `orion-trace-<pid>-<n>.json` in the system temp dir (`n` counts the
    /// process's trace files), whose path the output carries. Post-relational
    /// stages (DISTINCT, ORDER BY, LIMIT, computed select items, aggregates)
    /// are not part of the operator algebra and are rejected.
    fn explain(&mut self, analyze: bool, trace: bool, inner: Statement) -> Result<Output> {
        let lowered = lower(inner)?;
        if !lowered.post.is_empty() {
            return Err(SqlError::Exec(
                "EXPLAIN covers the relational pipeline only (no DISTINCT / ORDER BY / \
                 LIMIT, computed select items or aggregates)"
                    .into(),
            ));
        }
        // EXPLAIN profiles even when the session attached no collector, and
        // TRACE records into a fresh tracer when the session attached none.
        let own_collector = self.opts.stats.is_none();
        if own_collector {
            self.opts.stats = Some(Arc::default());
        }
        let own_tracer = trace && self.opts.trace.is_none();
        let tracer = trace.then(|| self.opts.trace.get_or_insert_with(Tracer::new).clone());
        // The result relation is discarded like any undisplayed SELECT
        // output.
        let ran = self.select(lowered);
        if own_collector {
            self.opts.stats = None;
        }
        if own_tracer {
            self.opts.trace = None;
        }
        ran?;
        let profile = self.take_profile().expect("a profiled SELECT keeps its profile");
        self.feedback.fold(&profile);
        let trace = if let Some(tracer) = tracer {
            static TRACE_FILES: AtomicU64 = AtomicU64::new(0);
            let n = TRACE_FILES.fetch_add(1, Ordering::Relaxed) + 1;
            let file = format!("orion-trace-{}-{n}.json", std::process::id());
            let path = std::env::temp_dir().join(file);
            tracer
                .write_chrome_trace(&path)
                .map_err(|e| SqlError::Exec(format!("cannot write trace file {path:?}: {e}")))?;
            Some(ExplainTrace {
                path: path.display().to_string(),
                tree: tracer.render_span_tree(8),
            })
        } else {
            None
        };
        Ok(Output::Explain { profile: Box::new(profile), analyze, trace })
    }

    /// The system (`orion.*`) relations `plan` scans, materialized for this
    /// statement; every other scan must name a stored table.
    fn system_relations(&self, plan: &Plan) -> Result<HashMap<String, Relation>> {
        let mut virt = HashMap::new();
        for name in plan.scans() {
            match self.virtual_table(name)? {
                Some(rel) => {
                    virt.insert(name.to_string(), rel);
                }
                None if self.tables.contains_key(name) => {}
                None => return Err(SqlError::Exec(format!("unknown table '{name}'"))),
            }
        }
        Ok(virt)
    }

    /// Materializes a system (`orion.*`) relation, `None` when `name` is
    /// outside the system namespace. The rows are a point-in-time snapshot;
    /// re-query to observe newer state.
    fn virtual_table(&self, name: &str) -> Result<Option<Relation>> {
        if !name.starts_with(SYS_PREFIX) {
            return Ok(None);
        }
        let rel = match name {
            "orion.tables" => self.sys_tables()?,
            "orion.columns" => self.sys_columns()?,
            "orion.stats" => self.sys_stats()?,
            "orion.indexes" => self.sys_indexes()?,
            "orion.metrics" => self.sys_metrics()?,
            "orion.txns" => self.sys_txns()?,
            "orion.statements" => self.sys_statements()?,
            "orion.slow_queries" => self.sys_slow_queries()?,
            "orion.plan_feedback" => self.sys_plan_feedback()?,
            other => {
                return Err(SqlError::Exec(format!(
                    "unknown system table '{other}' (available: orion.tables, orion.columns, \
                     orion.stats, orion.indexes, orion.metrics, orion.txns, \
                     orion.statements, orion.slow_queries, orion.plan_feedback)"
                )))
            }
        };
        Ok(Some(rel))
    }

    /// Stored relations in name order (system-table row order is stable).
    fn sorted_user_tables(&self) -> Vec<&Relation> {
        let mut rels: Vec<&Relation> = self.tables.values().collect();
        rels.sort_by(|a, b| a.name.cmp(&b.name));
        rels
    }

    /// `orion.tables`: one row per stored table.
    fn sys_tables(&self) -> Result<Relation> {
        let mut rows = Vec::new();
        for rel in self.sorted_user_tables() {
            let analyzed = self.stats.get(&rel.name);
            rows.push(vec![
                Value::Text(rel.name.clone()),
                Value::Int(rel.len() as i64),
                Value::Int(rel.schema.columns().len() as i64),
                Value::Bool(analyzed.is_some()),
                analyzed.map_or(Value::Null, |ts| Value::Real(ts.exist_sum)),
            ]);
        }
        system_rel(
            "orion.tables",
            &[
                ("tbl", ColumnType::Text),
                ("rows", ColumnType::Int),
                ("cols", ColumnType::Int),
                ("analyzed", ColumnType::Bool),
                ("exist_sum", ColumnType::Real),
            ],
            rows,
        )
    }

    /// `orion.columns`: one row per column of every stored table.
    fn sys_columns(&self) -> Result<Relation> {
        let mut rows = Vec::new();
        for rel in self.sorted_user_tables() {
            for c in rel.schema.columns() {
                rows.push(vec![
                    Value::Text(rel.name.clone()),
                    Value::Text(c.name.clone()),
                    Value::Text(column_type_name(c.ty).to_string()),
                    Value::Bool(c.uncertain),
                ]);
            }
        }
        system_rel(
            "orion.columns",
            &[
                ("tbl", ColumnType::Text),
                ("col", ColumnType::Text),
                ("ty", ColumnType::Text),
                ("uncertain", ColumnType::Bool),
            ],
            rows,
        )
    }

    /// `orion.stats`: one row per analyzed column. `lo`/`hi` come from the
    /// cdf-bound summary for uncertain columns (histogram bounds otherwise);
    /// `width_mean` is the mean effective-support width (NULL for certain).
    fn sys_stats(&self) -> Result<Relation> {
        let mut rows = Vec::new();
        for ts in self.stats.iter() {
            for c in &ts.columns {
                let (lo, hi) = match (&c.bounds, c.hist.bounds.first(), c.hist.bounds.last()) {
                    (Some(b), _, _) => (Value::Real(b.lo_min), Value::Real(b.hi_max)),
                    (None, Some(&lo), Some(&hi)) => (Value::Real(lo), Value::Real(hi)),
                    _ => (Value::Null, Value::Null),
                };
                rows.push(vec![
                    Value::Text(ts.table.clone()),
                    Value::Text(c.name.clone()),
                    Value::Text(if c.uncertain { "uncertain" } else { "certain" }.to_string()),
                    Value::Int(ts.rows as i64),
                    Value::Int(c.distinct as i64),
                    Value::Int(c.nulls as i64),
                    lo,
                    hi,
                    c.bounds.as_ref().map_or(Value::Null, |b| Value::Real(b.width_mean)),
                ]);
            }
        }
        system_rel(
            "orion.stats",
            &[
                ("tbl", ColumnType::Text),
                ("col", ColumnType::Text),
                ("kind", ColumnType::Text),
                ("rows", ColumnType::Int),
                ("ndv", ColumnType::Int),
                ("nulls", ColumnType::Int),
                ("lo", ColumnType::Real),
                ("hi", ColumnType::Real),
                ("width_mean", ColumnType::Real),
            ],
            rows,
        )
    }

    /// `orion.indexes`: one row per secondary-index definition of the
    /// session's catalog. `pages` is the page count of the tree built from
    /// the table version this statement reads (0 until a query over that
    /// version builds it); `epoch` is the owning table's staleness epoch
    /// (bumped by every DML batch against it).
    fn sys_indexes(&self) -> Result<Relation> {
        let mut rows = Vec::new();
        if let Some(handle) = &self.opts.indexes {
            let cat = handle.lock();
            for def in cat.defs() {
                let built = self.tables.get(&def.table).and_then(|rel| cat.cached(&def.name, rel));
                let pages = built.map_or(0, |b| b.pages());
                rows.push(vec![
                    Value::Text(def.name.clone()),
                    Value::Text(def.table.clone()),
                    Value::Text(def.column.clone()),
                    Value::Text(def.kind.as_str().to_string()),
                    Value::Int(pages as i64),
                    Value::Int(cat.epoch(&def.table) as i64),
                ]);
            }
        }
        system_rel(
            "orion.indexes",
            &[
                ("name", ColumnType::Text),
                ("tbl", ColumnType::Text),
                ("col", ColumnType::Text),
                ("kind", ColumnType::Text),
                ("pages", ColumnType::Int),
                ("epoch", ColumnType::Int),
            ],
            rows,
        )
    }

    /// `orion.metrics`: the attached engine's transaction counters and
    /// commit latency, then its WAL's batch-size and fsync-latency
    /// histograms (none of these for a detached session), then one
    /// `io.<counter>` row per buffer-pool counter.
    fn sys_metrics(&self) -> Result<Relation> {
        let counter = |name: &str, v: u64| {
            vec![
                Value::Text(name.to_string()),
                Value::Text("counter".to_string()),
                Value::Int(v as i64),
                Value::Null,
            ]
        };
        let histogram = |name: &str, h: &Histogram| {
            let s = h.snapshot();
            vec![
                Value::Text(name.to_string()),
                Value::Text("histogram".to_string()),
                Value::Int(s.count as i64),
                Value::Real(s.sum as f64),
            ]
        };
        let mut rows = Vec::new();
        if let Some(db) = &self.txn_db {
            let txn = db.txn_stats();
            let wal = db.wal_stats();
            rows.extend([
                counter("txn_aborts", txn.aborts.get()),
                counter("txn_begins", txn.begins.get()),
                counter("txn_commits", txn.commits.get()),
                counter("txn_conflicts", txn.conflicts.get()),
                histogram("txn.commit_nanos", &txn.commit_nanos),
                histogram("wal.batch_bytes", &wal.batch_bytes),
                histogram("wal.fsync_nanos", &wal.fsync_nanos),
            ]);
        }
        let io = self.io.snapshot();
        rows.extend([
            counter("io.physical_reads", io.physical_reads),
            counter("io.physical_writes", io.physical_writes),
            counter("io.cache_hits", io.cache_hits),
            counter("io.cache_misses", io.cache_misses),
            counter("io.evictions", io.evictions),
            counter("io.torn_pages", io.torn_pages),
            counter("io.write_errors", io.write_errors),
            counter("io.ckpt_pages_copied", io.ckpt_pages_copied),
        ]);
        system_rel(
            "orion.metrics",
            &[
                ("name", ColumnType::Text),
                ("kind", ColumnType::Text),
                ("count", ColumnType::Int),
                ("sum", ColumnType::Real),
            ],
            rows,
        )
    }

    /// `orion.txns`: one row per live transaction of the attached durable
    /// engine (empty for detached in-memory sessions).
    fn sys_txns(&self) -> Result<Relation> {
        let rows = match &self.txn_db {
            None => Vec::new(),
            Some(db) => db
                .active_txns()
                .into_iter()
                .map(|t| {
                    vec![
                        Value::Int(t.id as i64),
                        Value::Int(t.snapshot_epoch as i64),
                        Value::Int(t.writes as i64),
                    ]
                })
                .collect(),
        };
        system_rel(
            "orion.txns",
            &[
                ("id", ColumnType::Int),
                ("snapshot_epoch", ColumnType::Int),
                ("writes", ColumnType::Int),
            ],
            rows,
        )
    }

    /// `orion.statements`: one row per statement fingerprint in the
    /// attached workload repository, heaviest (total latency) first.
    fn sys_statements(&self) -> Result<Relation> {
        let rows = match &self.workload {
            None => Vec::new(),
            Some(repo) => repo
                .statements()
                .into_iter()
                .map(|s| {
                    vec![
                        Value::Text(format!("{:016x}", s.fingerprint)),
                        Value::Text(s.text.clone()),
                        Value::Int(s.calls as i64),
                        Value::Int(s.errors as i64),
                        Value::Int(s.rows as i64),
                        Value::Real(s.total_nanos as f64 / 1e6),
                        Value::Real(s.mean_nanos() / 1e6),
                        Value::Real(s.p99_nanos() as f64 / 1e6),
                        Value::Int(s.pages_read as i64),
                        Value::Int(s.pdf_ops as i64),
                        Value::Int(s.index_probes as i64),
                        Value::Int(s.txn_retries as i64),
                    ]
                })
                .collect(),
        };
        system_rel(
            "orion.statements",
            &[
                ("fingerprint", ColumnType::Text),
                ("stmt", ColumnType::Text),
                ("calls", ColumnType::Int),
                ("errors", ColumnType::Int),
                ("rows", ColumnType::Int),
                ("total_ms", ColumnType::Real),
                ("mean_ms", ColumnType::Real),
                ("p99_ms", ColumnType::Real),
                ("pages_read", ColumnType::Int),
                ("pdf_ops", ColumnType::Int),
                ("index_probes", ColumnType::Int),
                ("txn_retries", ColumnType::Int),
            ],
            rows,
        )
    }

    /// `orion.slow_queries`: the attached repository's capture ring, oldest
    /// first, with the rendered `EXPLAIN ANALYZE` plan (chosen-vs-rejected
    /// access paths included).
    fn sys_slow_queries(&self) -> Result<Relation> {
        let rows = match &self.workload {
            None => Vec::new(),
            Some(repo) => repo
                .slow_queries()
                .into_iter()
                .map(|q| {
                    vec![
                        Value::Int(q.seq as i64),
                        Value::Text(format!("{:016x}", q.fingerprint)),
                        Value::Text(q.text.clone()),
                        Value::Real(q.nanos as f64 / 1e6),
                        Value::Int(q.rows as i64),
                        Value::Text(q.cause.as_str().to_string()),
                        Value::Text(q.plan.clone()),
                    ]
                })
                .collect(),
        };
        system_rel(
            "orion.slow_queries",
            &[
                ("seq", ColumnType::Int),
                ("fingerprint", ColumnType::Text),
                ("stmt", ColumnType::Text),
                ("ms", ColumnType::Real),
                ("rows", ColumnType::Int),
                ("cause", ColumnType::Text),
                ("plan", ColumnType::Text),
            ],
            rows,
        )
    }

    /// `orion.plan_feedback`: per-(table, operator) cardinality-misestimate
    /// summaries (q-error) from the session's feedback store, sorted by
    /// table then operator.
    fn sys_plan_feedback(&self) -> Result<Relation> {
        let rows = self
            .feedback
            .summaries()
            .into_iter()
            .map(|s| {
                vec![
                    Value::Text(s.table.clone()),
                    Value::Text(s.op.clone()),
                    Value::Int(s.n as i64),
                    Value::Real(s.max_q),
                    Value::Real(s.mean_q()),
                    Value::Int(s.last_est as i64),
                    Value::Int(s.last_actual as i64),
                ]
            })
            .collect();
        system_rel(
            "orion.plan_feedback",
            &[
                ("tbl", ColumnType::Text),
                ("op", ColumnType::Text),
                ("n", ColumnType::Int),
                ("max_q", ColumnType::Real),
                ("mean_q", ColumnType::Real),
                ("last_est", ColumnType::Int),
                ("last_actual", ColumnType::Int),
            ],
            rows,
        )
    }

    fn insert_row(&mut self, table: &str, row: Vec<InsertValue>) -> Result<()> {
        let rel = self
            .tables
            .get_mut(table)
            .ok_or_else(|| SqlError::Exec(format!("unknown table '{table}'")))?;
        let (certain, uncertain) = translate_insert_row(&rel.schema, row)?;
        let certain_refs: Vec<(&str, Value)> =
            certain.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
        let uncertain_refs: Vec<(Vec<&str>, JointPdf)> = uncertain
            .iter()
            .map(|(ns, j)| (ns.iter().map(|s| s.as_str()).collect(), j.clone()))
            .collect();
        rel.insert(&mut self.reg, &certain_refs, uncertain_refs)?;
        Ok(())
    }

    /// `UPDATE t SET col = v [WHERE pred]`: the predicate must be over
    /// certain columns (a tuple is either updated or not). Updating an
    /// uncertain column replaces its dependency set with a fresh base pdf
    /// (new history); updating one member of a correlated group is
    /// rejected — supply the whole group via JOINT.
    fn update(
        &mut self,
        table: String,
        sets: Vec<(String, InsertValue)>,
        filter: Option<Pred>,
    ) -> Result<Output> {
        let pred = filter.map(|p| translate_pred(&p)).transpose()?;
        let rel = self
            .tables
            .get_mut(&table)
            .ok_or_else(|| SqlError::Exec(format!("unknown table '{table}'")))?;
        let schema = rel.schema.clone();
        if let Some(p) = &pred {
            check_certain_pred(&schema, p, "UPDATE")?;
        }
        let assigns = translate_assignments(&schema, &sets)?;
        let mut updated = 0usize;
        for t in rel.tuples_mut().iter_mut() {
            let keep = match &pred {
                None => true,
                Some(p) => certain_eval(&schema, t, p),
            };
            if !keep {
                continue;
            }
            updated += 1;
            for a in &assigns {
                match a {
                    Assign::Certain(idx, v) => t.certain[*idx] = v.clone(),
                    Assign::Node(group, joint) => {
                        // Replace the node covering the group with a fresh
                        // base pdf, releasing the old history.
                        let ni = t.node_index_for(group[0]).ok_or_else(|| {
                            SqlError::Exec("uncertain column lost its node".into())
                        })?;
                        let old = t.nodes[ni].clone();
                        self.reg.release_refs(&old.ancestors);
                        if old.ancestors.len() == 1 {
                            let id = *old.ancestors.iter().next().expect("one ancestor");
                            self.reg.delete_base(id);
                        }
                        let id = self.reg.register(group.clone(), joint.clone());
                        let anc: orion_core::history::Ancestors = [id].into_iter().collect();
                        self.reg.add_refs(&anc);
                        t.nodes[ni] =
                            orion_core::tuple::PdfNode::base(id, group, joint.clone(), anc);
                    }
                }
            }
        }
        self.note_index_mutation(&table);
        Ok(Output::Count(updated))
    }

    /// Runs a lowered SELECT: the plan through the core runner (system
    /// tables resolve like stored ones), then the post stages. A profiled
    /// run (collector attached) keeps its profile for [`Self::take_profile`].
    fn select(&mut self, lowered: Lowered) -> Result<Output> {
        let Lowered { plan, post } = lowered;
        self.profile = None;
        let virt = self.system_relations(&plan)?;
        let tables = &self.tables;
        let source = |name: &str| virt.get(name).or_else(|| tables.get(name));
        let (rel, mut profile) = match &plan {
            // ORDER BY and LIMIT see the unprojected columns: Π runs after
            // them, as a one-operator plan over the reordered input.
            Plan::Project(input, cols) if post.reorders() => {
                let (rel, below) =
                    plan::run(input, &source, &self.reg, &self.opts, Some(&self.stats))?;
                let mut rel = rel.into_owned();
                post.order_and_limit(&mut rel)?;
                let top = Plan::Project(Box::new(Plan::scan(&rel.name)), cols.clone());
                let (out, mut profile) =
                    plan::run(&top, &|_| Some(&rel), &self.reg, &self.opts, None)?;
                if let Some(scan) = profile.children.first_mut() {
                    *scan = below;
                }
                (Cow::Owned(out.into_owned()), profile)
            }
            _ => {
                let (mut rel, profile) =
                    plan::run(&plan, &source, &self.reg, &self.opts, Some(&self.stats))?;
                if post.reorders() {
                    post.order_and_limit(rel.to_mut())?;
                }
                (rel, profile)
            }
        };
        let out = post.output(rel, &self.reg, &self.opts)?;
        if self.opts.stats.is_some() {
            annotate_estimates(&mut profile, &plan, &self.stats);
            self.profile = Some(profile);
        }
        Ok(out)
    }
}

/// Display name of a column type (`orion.columns.ty` cells).
fn column_type_name(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::Int => "INT",
        ColumnType::Real => "REAL",
        ColumnType::Text => "TEXT",
        ColumnType::Bool => "BOOL",
    }
}

/// Builds one certain-only system relation from plain rows.
fn system_rel(name: &str, cols: &[(&str, ColumnType)], rows: Vec<Vec<Value>>) -> Result<Relation> {
    let defs: Vec<(&str, ColumnType, bool)> = cols.iter().map(|&(n, t)| (n, t, false)).collect();
    let schema = ProbSchema::new(defs, vec![])?;
    let mut rel = Relation::new(name, schema);
    // Certain-only rows register no pdfs, so a throwaway registry keeps the
    // session's history registry untouched.
    let mut reg = HistoryRegistry::new();
    for row in rows {
        let certain: Vec<(&str, Value)> = cols.iter().map(|&(n, _)| n).zip(row).collect();
        rel.insert_simple(&mut reg, &certain, &[])?;
    }
    Ok(rel)
}

/// The uncertain half of a translated INSERT row: one `(column names,
/// joint pdf)` entry per dependency group.
pub(crate) type UncertainGroups = Vec<(Vec<String>, JointPdf)>;

/// Translates one INSERT row against a schema into the `(certain,
/// uncertain)` pairs [`Relation::insert`] expects. Walks columns in order;
/// a correlated group consumes ONE value (a JOINT constructor) at the
/// position of its first column. Shared by the in-memory [`Database`] and
/// the durable transactional session.
pub(crate) fn translate_insert_row(
    schema: &ProbSchema,
    row: Vec<InsertValue>,
) -> Result<(Vec<(String, Value)>, UncertainGroups)> {
    let mut certain: Vec<(String, Value)> = Vec::new();
    let mut uncertain: Vec<(Vec<String>, JointPdf)> = Vec::new();
    let mut vals = row.into_iter();
    let mut consumed: Vec<AttrId> = Vec::new();
    for col in schema.columns() {
        if consumed.contains(&col.id) {
            continue;
        }
        let v = vals.next().ok_or_else(|| SqlError::Exec("too few values in INSERT".into()))?;
        if !col.uncertain {
            certain.push((col.name.clone(), certain_literal(&v, col)?));
            continue;
        }
        // Uncertain: which dependency group does this column lead?
        let group = dep_group(schema, col.id);
        let names: Vec<String> = group
            .iter()
            .map(|id| schema.column_by_id(*id).expect("dep attr visible").name.clone())
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
pub(crate) enum Assign {
    /// Overwrite the certain value at this tuple index.
    Certain(usize, Value),
    /// Replace the node covering this dependency group with a fresh base
    /// pdf (new history).
    Node(Vec<AttrId>, JointPdf),
}

/// Pre-validates and pre-builds UPDATE assignments against a schema.
/// Updating one member of a correlated group is rejected — supply the
/// whole group via JOINT.
pub(crate) fn translate_assignments(
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
pub(crate) fn translate_index_kind(kind: Option<&str>) -> Result<Option<IndexKind>> {
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
pub(crate) fn check_certain_pred(schema: &ProbSchema, p: &Predicate, stmt: &str) -> Result<()> {
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
pub(crate) fn certain_eval(schema: &ProbSchema, t: &ProbTuple, p: &Predicate) -> bool {
    let lookup = |name: &str| -> Value {
        schema.index_of(name).map(|i| t.certain[i].clone()).unwrap_or(Value::Null)
    };
    p.eval(&lookup) == Some(true)
}

/// Translates an AST predicate into an engine predicate. Threshold forms
/// are rejected here — they are only legal as top-level conjuncts.
pub fn translate_pred(p: &Pred) -> Result<Predicate> {
    let term = |t: &Term| -> Scalar {
        match t {
            Term::Col(c) => Scalar::Col(c.clone()),
            Term::Num(n) => Scalar::Lit(Value::Real(*n)),
            Term::Str(s) => Scalar::Lit(Value::Text(s.clone())),
            Term::Bool(b) => Scalar::Lit(Value::Bool(*b)),
            Term::Null => Scalar::Lit(Value::Null),
        }
    };
    Ok(match p {
        Pred::Cmp(a, op, b) => Predicate::Cmp(term(a), *op, term(b)),
        Pred::Between(col, lo, hi) => Predicate::And(vec![
            Predicate::cmp(col, CmpOp::Ge, *lo),
            Predicate::cmp(col, CmpOp::Le, *hi),
        ]),
        Pred::And(ps) => Predicate::And(ps.iter().map(translate_pred).collect::<Result<_>>()?),
        Pred::Or(ps) => Predicate::Or(ps.iter().map(translate_pred).collect::<Result<_>>()?),
        Pred::Not(inner) => Predicate::Not(Box::new(translate_pred(inner)?)),
        Pred::ProbThreshold(..) | Pred::AttrThreshold(..) => {
            return Err(SqlError::Exec(
                "PROB() thresholds must be top-level WHERE conjuncts".into(),
            ))
        }
    })
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

    fn sensor_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)").unwrap();
        db.execute(
            "INSERT INTO readings VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4)), \
             (3, GAUSSIAN(13, 1))",
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let mut db = sensor_db();
        let out = db.execute("SELECT * FROM readings WHERE rid = 2").unwrap();
        match out {
            Output::Table(rel) => {
                assert_eq!(rel.len(), 1);
                assert_eq!(rel.marginal(0, "value").unwrap().to_string(), "Gaus(25,4)");
            }
            other => panic!("wrong output: {other:?}"),
        }
    }

    #[test]
    fn uncertain_selection_floors() {
        let mut db = sensor_db();
        let out = db.execute("SELECT * FROM readings WHERE value < 20").unwrap();
        match out {
            Output::Table(rel) => {
                assert_eq!(rel.len(), 3);
                let m = rel.marginal(0, "value").unwrap();
                assert!((m.mass() - 0.5).abs() < 1e-9, "Gaus(20,5) floored at 20");
            }
            other => panic!("wrong output: {other:?}"),
        }
    }

    #[test]
    fn prob_threshold_query() {
        let mut db = sensor_db();
        let out =
            db.execute("SELECT * FROM readings WHERE PROB(value BETWEEN 18 AND 22) > 0.5").unwrap();
        match out {
            Output::Table(rel) => {
                assert_eq!(rel.len(), 1);
                assert_eq!(rel.value(0, "rid").unwrap(), &Value::Int(1));
            }
            other => panic!("wrong output: {other:?}"),
        }
    }

    #[test]
    fn expected_and_prob_items() {
        let mut db = sensor_db();
        let out =
            db.execute("SELECT rid, EXPECTED(value), PROB(value < 20) FROM readings").unwrap();
        match out {
            Output::Rows { header, rows } => {
                assert_eq!(header, vec!["rid", "expected(value)", "prob"]);
                assert_eq!(rows.len(), 3);
                assert_eq!(rows[0][0], "1");
                assert!((rows[0][1].parse::<f64>().unwrap() - 20.0).abs() < 1e-6);
                assert!((rows[0][2].parse::<f64>().unwrap() - 0.5).abs() < 1e-6);
                assert!(rows[2][2].parse::<f64>().unwrap() > 0.99, "Gaus(13,1) < 20");
            }
            other => panic!("wrong output: {other:?}"),
        }
    }

    #[test]
    fn aggregates() {
        let mut db = sensor_db();
        let out = db.execute("SELECT ECOUNT(*), ESUM(value), EAVG(value) FROM readings").unwrap();
        match out {
            Output::Rows { header, rows } => {
                assert_eq!(header[0], "ecount");
                assert!((rows[0][0].parse::<f64>().unwrap() - 3.0).abs() < 1e-6);
                assert!(rows[0][1].starts_with("Gaus(58,"), "sum = Gaus(58, 10): {}", rows[0][1]);
                assert!(
                    (rows[0][2].parse::<f64>().unwrap() - 58.0 / 3.0).abs() < 1e-4,
                    "avg: {}",
                    rows[0][2]
                );
            }
            other => panic!("wrong output: {other:?}"),
        }
    }

    #[test]
    fn correlated_group_with_joint_insert() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT UNCERTAIN, b INT UNCERTAIN, CORRELATED (a, b))").unwrap();
        db.execute("INSERT INTO t VALUES (JOINT((4,5):0.9, (2,3):0.1))").unwrap();
        let rel = db.table("t").unwrap();
        assert_eq!(rel.tuples[0].nodes.len(), 1);
        assert_eq!(rel.tuples[0].nodes[0].dims.len(), 2);
        // Joint arity mismatch is rejected.
        assert!(db.execute("INSERT INTO t VALUES (JOINT((1):1.0))").is_err());
        // Plain pdf for a correlated group is rejected.
        assert!(db.execute("INSERT INTO t VALUES (GAUSSIAN(0,1))").is_err());
    }

    #[test]
    fn join_via_sql() {
        let mut db = Database::new();
        db.execute("CREATE TABLE l (id INT, x REAL UNCERTAIN)").unwrap();
        db.execute("CREATE TABLE r (id INT, y REAL UNCERTAIN)").unwrap();
        db.execute("INSERT INTO l VALUES (1, DISCRETE(1:0.5, 3:0.5))").unwrap();
        db.execute("INSERT INTO r VALUES (2, DISCRETE(2:0.5, 4:0.5))").unwrap();
        let out = db.execute("SELECT * FROM l JOIN r ON x < y").unwrap();
        match out {
            Output::Table(rel) => {
                assert_eq!(rel.len(), 1);
                assert!((rel.tuples[0].naive_existence() - 0.75).abs() < 1e-9);
                assert!(rel.schema.column("l.id").is_some(), "qualified on conflict");
            }
            other => panic!("wrong output: {other:?}"),
        }
    }

    #[test]
    fn delete_and_drop() {
        let mut db = sensor_db();
        let out = db.execute("DELETE FROM readings WHERE rid = 1").unwrap();
        assert!(matches!(out, Output::Count(1)));
        assert_eq!(db.table("readings").unwrap().len(), 2);
        // Uncertain predicate deletion is rejected.
        assert!(db.execute("DELETE FROM readings WHERE value < 20").is_err());
        db.execute("DROP TABLE readings").unwrap();
        assert!(db.table("readings").is_none());
        assert!(db.execute("SELECT * FROM readings").is_err());
    }

    #[test]
    fn certain_value_for_uncertain_column() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x REAL UNCERTAIN)").unwrap();
        db.execute("INSERT INTO t VALUES (7.5)").unwrap();
        let m = db.table("t").unwrap().marginal(0, "x").unwrap();
        assert_eq!(m.density(7.5), 1.0);
    }

    #[test]
    fn insert_arity_errors() {
        let mut db = sensor_db();
        assert!(db.execute("INSERT INTO readings VALUES (4)").is_err());
        assert!(db.execute("INSERT INTO readings VALUES (4, GAUSSIAN(1,1), 9)").is_err());
        assert!(db.execute("INSERT INTO readings VALUES (GAUSSIAN(1,1), GAUSSIAN(1,1))").is_err());
    }

    #[test]
    fn null_for_certain_column() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT, x REAL UNCERTAIN)").unwrap();
        db.execute("INSERT INTO t VALUES (NULL, UNIFORM(0, 1))").unwrap();
        assert_eq!(db.table("t").unwrap().value(0, "a").unwrap(), &Value::Null);
    }

    #[test]
    fn variance_median_quantile_items() {
        let mut db = sensor_db();
        let out = db
            .execute("SELECT rid, VARIANCE(value), MEDIAN(value), QUANTILE(value, 0.975) FROM readings WHERE rid = 1")
            .unwrap();
        let Output::Rows { header, rows } = out else { panic!("expected rows") };
        assert_eq!(header[1], "variance(value)");
        assert_eq!(header[2], "median(value)");
        assert!((rows[0][1].parse::<f64>().unwrap() - 5.0).abs() < 1e-6);
        assert!((rows[0][2].parse::<f64>().unwrap() - 20.0).abs() < 1e-6);
        // 97.5th percentile of Gaus(20,5): 20 + 1.96 * sqrt(5).
        let q = rows[0][3].parse::<f64>().unwrap();
        assert!((q - (20.0 + 1.959_964 * 5.0_f64.sqrt())).abs() < 1e-3, "q = {q}");
        assert!(db.execute("SELECT QUANTILE(value, 1.5) FROM readings").is_err());
        // Certain columns degenerate: variance 0, median = the value.
        let Output::Rows { rows, .. } =
            db.execute("SELECT VARIANCE(rid), MEDIAN(rid) FROM readings WHERE rid = 2").unwrap()
        else {
            panic!("expected rows")
        };
        assert!((rows[0][0].parse::<f64>().unwrap()).abs() < 1e-9);
        assert!((rows[0][1].parse::<f64>().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn update_statement() {
        let mut db = sensor_db();
        let out = db.execute("UPDATE readings SET value = GAUSSIAN(99, 1) WHERE rid = 2").unwrap();
        assert!(matches!(out, Output::Count(1)));
        let m = db.table("readings").unwrap().marginal(1, "value").unwrap();
        assert_eq!(m.to_string(), "Gaus(99,1)");
        // Other tuples untouched.
        let m = db.table("readings").unwrap().marginal(0, "value").unwrap();
        assert_eq!(m.to_string(), "Gaus(20,5)");
        // Certain-column update.
        db.execute("UPDATE readings SET rid = 42 WHERE rid = 3").unwrap();
        assert_eq!(db.table("readings").unwrap().value(2, "rid").unwrap(), &Value::Int(42));
        // Uncertain predicate rejected.
        assert!(db.execute("UPDATE readings SET rid = 1 WHERE value < 5").is_err());
        // Pdf into certain column rejected.
        assert!(db.execute("UPDATE readings SET rid = GAUSSIAN(0,1)").is_err());
    }

    #[test]
    fn order_by_and_limit() {
        let mut db = sensor_db();
        let out = db.execute("SELECT rid FROM readings ORDER BY value DESC LIMIT 2").unwrap();
        match out {
            Output::Table(rel) => {
                // Expected values: 25 > 20 > 13.
                assert_eq!(rel.len(), 2);
                assert_eq!(rel.value(0, "rid").unwrap(), &Value::Int(2));
                assert_eq!(rel.value(1, "rid").unwrap(), &Value::Int(1));
            }
            other => panic!("wrong output: {other:?}"),
        }
        let out = db.execute("SELECT rid FROM readings ORDER BY rid ASC LIMIT 1").unwrap();
        match out {
            Output::Table(rel) => assert_eq!(rel.value(0, "rid").unwrap(), &Value::Int(1)),
            other => panic!("wrong output: {other:?}"),
        }
        assert!(db.execute("SELECT rid FROM readings LIMIT -1").is_err());
    }

    #[test]
    fn distinct_on_certain_columns() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (region TEXT, v REAL UNCERTAIN)").unwrap();
        db.execute(
            "INSERT INTO t VALUES ('a', GAUSSIAN(0,1)), ('a', GAUSSIAN(1,1)), \
             ('b', GAUSSIAN(2,1))",
        )
        .unwrap();
        let out = db.execute("SELECT DISTINCT region FROM t").unwrap();
        match out {
            Output::Table(rel) => assert_eq!(rel.len(), 2),
            other => panic!("wrong output: {other:?}"),
        }
        // DISTINCT over an uncertain projection is rejected (paper's
        // deferred duplicate elimination).
        assert!(db.execute("SELECT DISTINCT v FROM t").is_err());
        assert!(db.execute("SELECT DISTINCT * FROM t").is_err());
    }

    #[test]
    fn save_and_open_round_trip() {
        let dir = orion_obs::scratch_dir("sql-persist");
        let path = dir.join("db.orion");
        {
            let mut db = sensor_db();
            db.execute("CREATE TABLE tags (rid INT, label TEXT)").unwrap();
            db.execute("INSERT INTO tags VALUES (1, 'calibrated')").unwrap();
            db.save(&path).unwrap();
        }
        let mut db = Database::open(&path).unwrap();
        let out = db.execute("SELECT * FROM readings WHERE rid = 1").unwrap();
        match out {
            Output::Table(rel) => {
                assert_eq!(rel.marginal(0, "value").unwrap().to_string(), "Gaus(20,5)");
            }
            other => panic!("wrong output: {other:?}"),
        }
        // The reopened database accepts further statements and joins.
        let out =
            db.execute("SELECT * FROM readings JOIN tags ON readings.rid = tags.rid").unwrap();
        match out {
            Output::Table(rel) => assert_eq!(rel.len(), 1),
            other => panic!("wrong output: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_and_open_keeps_index_definitions() {
        let dir = orion_obs::scratch_dir("sql-persist-ix");
        let path = dir.join("db.orion");
        {
            let mut db = sensor_db();
            db.execute("CREATE INDEX ix_val ON readings (value) USING cdf").unwrap();
            db.execute("CREATE INDEX ix_rid ON readings (rid)").unwrap();
            db.execute("DROP INDEX ix_rid").unwrap();
            db.save(&path).unwrap();
        }
        let mut db = Database::open(&path).unwrap();
        let Output::Table(rel) = db.execute("SELECT * FROM orion.indexes").unwrap() else {
            panic!("expected a table");
        };
        assert_eq!(rel.len(), 1, "only the surviving definition reloads");
        assert_eq!(rel.value(0, "name").unwrap(), &Value::Text("ix_val".into()));
        assert_eq!(rel.value(0, "kind").unwrap(), &Value::Text("cdf".into()));
        // The reloaded definition is usable: the planner can build and
        // probe it for a threshold query on the indexed column.
        let Output::Table(rel) =
            db.execute("SELECT rid FROM readings WHERE PROB(value > 18) >= 0.5").unwrap()
        else {
            panic!("expected a table");
        };
        assert!(!rel.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_and_open_round_trip_keeps_analyze_stats() {
        let dir = orion_obs::scratch_dir("sql-persist-stats");
        let path = dir.join("db.orion");
        let saved = {
            let mut db = sensor_db();
            db.execute("ANALYZE readings").unwrap();
            db.save(&path).unwrap();
            db.stats_catalog().get("readings").unwrap().clone()
        };
        let mut db = Database::open(&path).unwrap();
        let loaded = db.stats_catalog().get("readings").expect("stats survive save/open");
        assert_eq!(loaded, &saved);
        assert_eq!(loaded.encode(), saved.encode());
        // The reopened catalog feeds the virtual tables and the planner.
        let out = db.execute("SELECT analyzed FROM orion.tables WHERE tbl = 'readings'").unwrap();
        match out {
            Output::Table(rel) => {
                assert_eq!(rel.value(0, "analyzed").unwrap(), &Value::Bool(true));
            }
            other => panic!("wrong output: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Replaces the variable `time=...` token of each EXPLAIN ANALYZE row
    /// with `time=_` so the rest of the line can be compared exactly.
    fn normalize_times(text: &str) -> String {
        let mut out = String::new();
        for line in text.lines() {
            match line.find("time=") {
                Some(i) => {
                    out.push_str(&line[..i]);
                    out.push_str("time=_)");
                }
                None => out.push_str(line),
            }
            out.push('\n');
        }
        out
    }

    #[test]
    fn explain_analyze_golden_select_project_join() {
        let mut db = Database::new();
        db.execute("CREATE TABLE l (id INT, x REAL UNCERTAIN)").unwrap();
        db.execute("CREATE TABLE r (id INT, y REAL UNCERTAIN)").unwrap();
        db.execute("INSERT INTO l VALUES (1, DISCRETE(1:0.5, 3:0.5))").unwrap();
        db.execute("INSERT INTO r VALUES (2, DISCRETE(2:0.5, 4:0.5))").unwrap();
        let out = db.execute("EXPLAIN ANALYZE SELECT l.id FROM l JOIN r ON x < y").unwrap();
        let Output::Explain { profile, analyze, .. } = out else { panic!("expected explain") };
        assert!(analyze);
        // x < y merges the two independent nodes (one product) and floors
        // the merged joint once per surviving crossed tuple. Neither table
        // was analyzed, so the estimates are the documented magic defaults:
        // 1000 rows per scan, selectivity 1/3 for the join predicate.
        assert_eq!(
            normalize_times(&profile.render(true)),
            "Project [l.id]  (est=333333 actual=1 err=333332.00 \
             in=1 out=1 products=0 floors=0 marginalize=0 collapses=0 pruned=0 time=_)\n\
             └─ Join [x < y]  (est=333333 actual=1 err=333332.00 \
             in=2 out=1 products=1 floors=1 marginalize=0 collapses=0 pruned=0 time=_)\n\
             \u{20}  ├─ Scan [l]  (est=1000 actual=1 err=999.00 \
             in=0 out=1 products=0 floors=0 marginalize=0 collapses=0 pruned=0 time=_)\n\
             \u{20}  └─ Scan [r]  (est=1000 actual=1 err=999.00 \
             in=0 out=1 products=0 floors=0 marginalize=0 collapses=0 pruned=0 time=_)\n"
        );
    }

    #[test]
    fn explain_analyze_shows_worker_lanes_when_parallel() {
        // Tiny morsels force the parallel path even on a 3-row table; the
        // select node's stats must then carry per-worker lanes, and the
        // result must match the serial run exactly.
        let opts = ExecOptions { threads: 2, morsel_size: 1, ..ExecOptions::default() };
        let mut db = Database::with_options(opts);
        db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)").unwrap();
        db.execute(
            "INSERT INTO readings VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4)), \
             (3, GAUSSIAN(13, 1))",
        )
        .unwrap();
        let out = db.execute("EXPLAIN ANALYZE SELECT rid FROM readings WHERE value < 20").unwrap();
        let Output::Explain { profile, .. } = out else { panic!("expected explain") };
        let text = profile.render(true);
        assert!(text.contains("workers=["), "no worker lanes in:\n{text}");

        let mut serial = sensor_db();
        let Output::Table(a) = db.execute("SELECT rid FROM readings WHERE value < 20").unwrap()
        else {
            panic!("expected table")
        };
        let Output::Table(b) = serial.execute("SELECT rid FROM readings WHERE value < 20").unwrap()
        else {
            panic!("expected table")
        };
        assert_eq!(a.len(), b.len());
        for (ta, tb) in a.tuples.iter().zip(b.tuples.iter()) {
            assert_eq!(ta.certain, tb.certain);
        }
    }

    #[test]
    fn explain_without_analyze_shows_plan_shape() {
        let mut db = sensor_db();
        // Un-analyzed: magic constants (1000 rows, selectivity 1/3).
        let out = db.execute("EXPLAIN SELECT rid FROM readings WHERE value < 20").unwrap();
        let Output::Explain { profile, analyze, .. } = out else { panic!("expected explain") };
        assert!(!analyze);
        assert_eq!(
            profile.render(false),
            "Project [rid]  (est_rows=333)\n\
             └─ Select [value < 20]  (est_rows=333)\n\
             \u{20}  └─ Scan [readings]  (est_rows=1000)\n"
        );
        // Analyzed: the scan knows its 3 rows and the selection estimate
        // comes from the expected-value histogram ({13, 20, 25} → 2 below
        // 20 with the equal-point correction).
        db.execute("ANALYZE readings").unwrap();
        let out = db.execute("EXPLAIN SELECT rid FROM readings WHERE value < 20").unwrap();
        let Output::Explain { profile, .. } = out else { panic!("expected explain") };
        assert_eq!(
            profile.render(false),
            "Project [rid]  (est_rows=2)\n\
             └─ Select [value < 20]  (est_rows=2)\n\
             \u{20}  └─ Scan [readings]  (est_rows=3)\n"
        );
    }

    #[test]
    fn explain_threshold_pipeline_and_rejections() {
        let mut db = sensor_db();
        let out = db
            .execute(
                "EXPLAIN ANALYZE SELECT * FROM readings \
                 WHERE PROB(value BETWEEN 18 AND 22) > 0.5",
            )
            .unwrap();
        let Output::Explain { profile, .. } = out else { panic!("expected explain") };
        assert_eq!(profile.name, "ThresholdPred");
        assert_eq!(profile.stats.tuples_in, 3);
        assert_eq!(profile.stats.tuples_out, 1);
        assert!(profile.stats.pdf_floors >= 3, "one floor per candidate tuple");
        // Non-SELECT and post-relational stages are rejected.
        assert!(db.execute("EXPLAIN DROP TABLE readings").is_err());
        assert!(db.execute("EXPLAIN SELECT rid FROM readings LIMIT 1").is_err());
        assert!(db.execute("EXPLAIN SELECT ECOUNT(*) FROM readings").is_err());
    }

    #[test]
    fn explain_trace_writes_validating_chrome_trace() {
        let mut db = sensor_db();
        let out = db.execute("EXPLAIN TRACE SELECT rid FROM readings WHERE value < 20").unwrap();
        let Output::Explain { analyze, trace, .. } = out else { panic!("expected explain") };
        assert!(!analyze, "TRACE is not ANALYZE");
        let info = trace.expect("EXPLAIN TRACE carries trace info");
        let text = std::fs::read_to_string(&info.path).unwrap();
        let doc = orion_obs::json::parse(&text).unwrap();
        orion_obs::validate_chrome_trace(&doc).unwrap();
        // The span tree names the operators that ran.
        assert!(info.tree.contains("Select"), "tree:\n{}", info.tree);
        assert!(info.tree.contains("Scan"), "tree:\n{}", info.tree);
        // Plain EXPLAIN carries no trace.
        let out = db.execute("EXPLAIN SELECT rid FROM readings").unwrap();
        let Output::Explain { trace, .. } = out else { panic!("expected explain") };
        assert!(trace.is_none());
        std::fs::remove_file(&info.path).ok();
    }

    #[test]
    fn wildcard_with_columns_rejected() {
        let mut db = sensor_db();
        assert!(db.execute("SELECT *, rid FROM readings").is_err());
        assert!(db.execute("SELECT ECOUNT(*), rid FROM readings").is_err());
    }

    #[test]
    fn analyze_statement_collects_and_installs_stats() {
        let mut db = sensor_db();
        let Output::Analyze(ts) = db.execute("ANALYZE readings").unwrap() else {
            panic!("expected analyze output")
        };
        assert_eq!(ts.table, "readings");
        assert_eq!(ts.rows, 3);
        assert_eq!(db.stats_catalog().get("readings").unwrap(), &ts);
        assert!(db.execute("ANALYZE missing").is_err());
        // DROP TABLE drops the stats along with the data.
        db.execute("DROP TABLE readings").unwrap();
        assert!(db.stats_catalog().get("readings").is_none());
    }

    #[test]
    fn every_system_table_is_queryable_with_stable_schema() {
        let mut db = sensor_db();
        db.execute("ANALYZE readings").unwrap();
        let expect: &[(&str, &[&str])] = &[
            ("orion.tables", &["tbl", "rows", "cols", "analyzed", "exist_sum"]),
            ("orion.columns", &["tbl", "col", "ty", "uncertain"]),
            (
                "orion.stats",
                &["tbl", "col", "kind", "rows", "ndv", "nulls", "lo", "hi", "width_mean"],
            ),
            ("orion.indexes", &["name", "tbl", "col", "kind", "pages", "epoch"]),
            ("orion.metrics", &["name", "kind", "count", "sum"]),
            ("orion.txns", &["id", "snapshot_epoch", "writes"]),
            (
                "orion.statements",
                &[
                    "fingerprint",
                    "stmt",
                    "calls",
                    "errors",
                    "rows",
                    "total_ms",
                    "mean_ms",
                    "p99_ms",
                    "pages_read",
                    "pdf_ops",
                    "index_probes",
                    "txn_retries",
                ],
            ),
            ("orion.slow_queries", &["seq", "fingerprint", "stmt", "ms", "rows", "cause", "plan"]),
            (
                "orion.plan_feedback",
                &["tbl", "op", "n", "max_q", "mean_q", "last_est", "last_actual"],
            ),
        ];
        for (table, cols) in expect {
            let Output::Table(rel) = db.execute(&format!("SELECT * FROM {table}")).unwrap() else {
                panic!("expected table from {table}")
            };
            let got: Vec<&str> = rel.schema.columns().iter().map(|c| c.name.as_str()).collect();
            assert_eq!(&got, cols, "{table}");
        }
        // Unknown system names error instead of falling through to user
        // tables, and the namespace is reserved against CREATE.
        assert!(db.execute("SELECT * FROM orion.nope").is_err());
        assert!(db.execute("CREATE TABLE orion.mine (a INT)").is_err());
    }

    #[test]
    fn workload_vtables_surface_attached_stores() {
        let mut db = sensor_db();
        db.execute("ANALYZE readings").unwrap();
        let repo = Arc::new(WorkloadRepo::default());
        repo.record(&orion_obs::ExecSample {
            fingerprint: 0xfeed,
            text: "SELECT rid FROM readings WHERE PROB(value < ?) > ?".to_string(),
            nanos: 2_000_000,
            rows: 3,
            ..Default::default()
        });
        db.set_workload(Arc::clone(&repo));
        // Detached database: the new vtables render empty, not error.
        let mut bare = Database::new();
        let Output::Table(rel) = bare.execute("SELECT * FROM orion.statements").unwrap() else {
            panic!("expected table")
        };
        assert_eq!(rel.len(), 0);

        let Output::Table(rel) = db.execute("SELECT * FROM orion.statements").unwrap() else {
            panic!("expected table")
        };
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.value(0, "fingerprint").unwrap(), &Value::Text("000000000000feed".into()));
        assert_eq!(rel.value(0, "calls").unwrap(), &Value::Int(1));
        assert_eq!(rel.value(0, "rows").unwrap(), &Value::Int(3));
        assert_eq!(rel.value(0, "total_ms").unwrap(), &Value::Real(2.0));

        // A profiled execution folds est-vs-actual into the feedback store.
        db.execute("EXPLAIN ANALYZE SELECT rid FROM readings WHERE PROB(value < 50) > 0.5")
            .unwrap();
        let Output::Table(fb) = db.execute("SELECT * FROM orion.plan_feedback").unwrap() else {
            panic!("expected table")
        };
        assert!(fb.len() >= 2, "Scan + ThresholdPred at least, got {}", fb.len());
        for i in 0..fb.len() {
            assert_eq!(fb.value(i, "tbl").unwrap(), &Value::Text("readings".into()));
            let Value::Real(q) = fb.value(i, "max_q").unwrap() else { panic!("max_q type") };
            assert!(*q >= 1.0, "q-error is >= 1");
        }
    }

    #[test]
    fn orion_tables_and_columns_golden_rows() {
        let mut db = sensor_db();
        let Output::Table(rel) = db.execute("SELECT * FROM orion.tables").unwrap() else {
            panic!("expected table")
        };
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.value(0, "tbl").unwrap(), &Value::Text("readings".into()));
        assert_eq!(rel.value(0, "rows").unwrap(), &Value::Int(3));
        assert_eq!(rel.value(0, "cols").unwrap(), &Value::Int(2));
        assert_eq!(rel.value(0, "analyzed").unwrap(), &Value::Bool(false));
        assert_eq!(rel.value(0, "exist_sum").unwrap(), &Value::Null);
        db.execute("ANALYZE readings").unwrap();
        let Output::Table(rel) = db.execute("SELECT * FROM orion.tables").unwrap() else {
            panic!("expected table")
        };
        assert_eq!(rel.value(0, "analyzed").unwrap(), &Value::Bool(true));
        assert_eq!(rel.value(0, "exist_sum").unwrap(), &Value::Real(3.0));

        let Output::Table(rel) = db.execute("SELECT * FROM orion.columns").unwrap() else {
            panic!("expected table")
        };
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.value(0, "col").unwrap(), &Value::Text("rid".into()));
        assert_eq!(rel.value(0, "ty").unwrap(), &Value::Text("INT".into()));
        assert_eq!(rel.value(0, "uncertain").unwrap(), &Value::Bool(false));
        assert_eq!(rel.value(1, "col").unwrap(), &Value::Text("value".into()));
        assert_eq!(rel.value(1, "ty").unwrap(), &Value::Text("REAL".into()));
        assert_eq!(rel.value(1, "uncertain").unwrap(), &Value::Bool(true));
    }

    #[test]
    fn orion_stats_reflects_analyze_and_joins_with_user_tables() {
        let mut db = sensor_db();
        // Before ANALYZE the stats table is empty; after, one row per column.
        let Output::Table(rel) = db.execute("SELECT * FROM orion.stats").unwrap() else {
            panic!("expected table")
        };
        assert_eq!(rel.len(), 0);
        db.execute("ANALYZE readings").unwrap();
        let Output::Table(rel) = db.execute("SELECT * FROM orion.stats").unwrap() else {
            panic!("expected table")
        };
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.value(0, "kind").unwrap(), &Value::Text("certain".into()));
        assert_eq!(rel.value(0, "ndv").unwrap(), &Value::Int(3));
        assert_eq!(rel.value(1, "kind").unwrap(), &Value::Text("uncertain".into()));
        let Value::Real(w) = rel.value(1, "width_mean").unwrap() else {
            panic!("uncertain column carries a width")
        };
        assert!(*w > 0.0);

        // System relations participate in ordinary joins with user tables.
        db.execute("CREATE TABLE cal (colname TEXT, factor REAL)").unwrap();
        db.execute("INSERT INTO cal VALUES ('value', 2.0)").unwrap();
        let Output::Table(rel) = db
            .execute("SELECT col, kind, factor FROM orion.stats JOIN cal ON col = colname")
            .unwrap()
        else {
            panic!("expected table")
        };
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.value(0, "col").unwrap(), &Value::Text("value".into()));
        assert_eq!(rel.value(0, "kind").unwrap(), &Value::Text("uncertain".into()));
    }

    #[test]
    fn orion_metrics_counts_only_its_own_engine() {
        use crate::session::DurableSession;
        const N: i64 = 5;
        let (dir_a, dir_b) =
            (orion_obs::scratch_dir("metrics-a"), orion_obs::scratch_dir("metrics-b"));
        let mut a = DurableSession::open(&dir_a).unwrap();
        let mut b = DurableSession::open(&dir_b).unwrap();
        a.execute("CREATE TABLE t (a INT, x REAL UNCERTAIN)").unwrap();
        for i in 0..N {
            a.execute(&format!("INSERT INTO t VALUES ({i}, UNIFORM(0, 1))")).unwrap();
        }
        // B: one first-committer-wins conflict between two of its sessions.
        b.execute("CREATE TABLE t (a INT, x REAL UNCERTAIN)").unwrap();
        b.execute("INSERT INTO t VALUES (1, UNIFORM(0, 1))").unwrap();
        let mut b2 = DurableSession::from_db(b.db().clone());
        b.execute("BEGIN").unwrap();
        b2.execute("BEGIN").unwrap();
        b.execute("DELETE FROM t WHERE a = 1").unwrap();
        b2.execute("DELETE FROM t WHERE a = 1").unwrap();
        b.execute("COMMIT").unwrap();
        assert!(b2.execute("COMMIT").is_err(), "the second committer conflicts");

        // (session, commits, conflicts): CREATE + INSERTs on A; CREATE,
        // INSERT and the winning DELETE on B.
        for (s, commits, conflicts) in [(&mut a, N + 1, 0), (&mut b, 3, 1)] {
            let Output::Table(rel) = s.execute("SELECT name, count FROM orion.metrics").unwrap()
            else {
                panic!("expected table")
            };
            let m: HashMap<String, i64> = (0..rel.len())
                .map(|i| match (rel.value(i, "name").unwrap(), rel.value(i, "count").unwrap()) {
                    (Value::Text(name), Value::Int(count)) => (name.clone(), *count),
                    other => panic!("unexpected row {other:?}"),
                })
                .collect();
            assert_eq!(m["txn_commits"], commits, "{m:?}");
            assert_eq!(m["txn_conflicts"], conflicts, "{m:?}");
            let fsyncs = s.db().wal_stats().fsyncs.get() as i64;
            assert_eq!(m["wal.fsync_nanos"], fsyncs, "{m:?}");
        }
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn orion_io_is_queryable() {
        let mut db = sensor_db();
        let Output::Table(rel) = db.execute("SELECT * FROM orion.metrics").unwrap() else {
            panic!("expected table")
        };
        assert_eq!(rel.len(), 8, "one row per buffer-pool counter");
        assert_eq!(rel.value(0, "name").unwrap(), &Value::Text("io.physical_reads".into()));
        assert_eq!(rel.value(0, "count").unwrap(), &Value::Int(0), "detached io defaults to zero");
        // Attached counters surface through the same query.
        let io = Arc::new(IoStats::default());
        io.cache_hits.add(5);
        db.set_io_stats(Arc::clone(&io));
        let Output::Table(rel) =
            db.execute("SELECT count FROM orion.metrics WHERE name = 'io.cache_hits'").unwrap()
        else {
            panic!("expected table")
        };
        assert_eq!(rel.value(0, "count").unwrap(), &Value::Int(5));
    }

    #[test]
    fn explain_analyze_over_system_table_estimates() {
        let mut db = sensor_db();
        db.execute("ANALYZE readings").unwrap();
        // Virtual scans work under EXPLAIN ANALYZE; est falls back to the
        // magic constant because system tables are never analyzed.
        let out = db.execute("EXPLAIN ANALYZE SELECT col FROM orion.stats").unwrap();
        let Output::Explain { profile, .. } = out else { panic!("expected explain") };
        assert_eq!(profile.stats.tuples_out, 2);
        assert_eq!(profile.est_rows, Some(1000));
    }

    #[test]
    fn index_ddl_lifecycle_and_vtable() {
        let mut db = sensor_db();
        // Kind defaults by column certainty; explicit kinds are validated.
        db.execute("CREATE INDEX ix_val ON readings (value)").unwrap();
        db.execute("CREATE INDEX ix_rid ON readings (rid) USING evx").unwrap();
        assert!(db.execute("CREATE INDEX ix_val ON readings (value)").is_err(), "dup name");
        assert!(db.execute("CREATE INDEX ix2 ON readings (value) USING evx").is_err());
        assert!(db.execute("CREATE INDEX ix2 ON readings (rid) USING cdf").is_err());
        assert!(db.execute("CREATE INDEX ix2 ON readings (nope)").is_err(), "unknown column");
        assert!(db.execute("CREATE INDEX ix2 ON missing (rid)").is_err(), "unknown table");
        let Output::Table(rel) = db.execute("SELECT * FROM orion.indexes").unwrap() else {
            panic!("expected table")
        };
        assert_eq!(rel.len(), 2, "name-ordered rows");
        assert_eq!(rel.value(0, "name").unwrap(), &Value::Text("ix_rid".into()));
        assert_eq!(rel.value(0, "kind").unwrap(), &Value::Text("evx".into()));
        assert_eq!(rel.value(1, "name").unwrap(), &Value::Text("ix_val".into()));
        assert_eq!(rel.value(1, "kind").unwrap(), &Value::Text("cdf".into()));
        assert_eq!(rel.value(1, "epoch").unwrap(), &Value::Int(0));
        // DML bumps the staleness epoch of every index over the table.
        db.execute("INSERT INTO readings VALUES (4, GAUSSIAN(30, 2))").unwrap();
        let Output::Table(rel) = db.execute("SELECT * FROM orion.indexes").unwrap() else {
            panic!("expected table")
        };
        assert_eq!(rel.value(1, "epoch").unwrap(), &Value::Int(1));
        db.execute("DROP INDEX ix_val").unwrap();
        assert!(db.execute("DROP INDEX ix_val").is_err(), "already dropped");
        // DROP TABLE sweeps the catalog.
        db.execute("DROP TABLE readings").unwrap();
        let Output::Table(rel) = db.execute("SELECT * FROM orion.indexes").unwrap() else {
            panic!("expected table")
        };
        assert_eq!(rel.len(), 0);
    }

    /// The access-path planner never changes results: an indexed threshold
    /// query returns exactly what the seed scan returns, under both planner
    /// modes, and EXPLAIN surfaces the priced alternatives.
    #[test]
    fn indexed_threshold_matches_scan_and_explains_paths() {
        let rows: Vec<String> =
            (0..60).map(|i| format!("({i}, GAUSSIAN({}, 2))", (i % 20) * 10)).collect();
        let sql_insert = format!("INSERT INTO t VALUES {}", rows.join(", "));
        let run = |planner: PlannerMode, indexed: bool| -> Vec<i64> {
            let opts = ExecOptions { planner, ..ExecOptions::default() };
            let mut db = Database::with_options(opts);
            db.execute("CREATE TABLE t (rid INT, v REAL UNCERTAIN)").unwrap();
            db.execute(&sql_insert).unwrap();
            db.execute("ANALYZE t").unwrap();
            if indexed {
                db.execute("CREATE INDEX ix_v ON t (v) USING cdf").unwrap();
            }
            let out = db.execute("SELECT rid FROM t WHERE PROB(v > 150) > 0.5").unwrap();
            let Output::Table(rel) = out else { panic!("expected table") };
            (0..rel.len())
                .map(|i| match rel.value(i, "rid").unwrap() {
                    Value::Int(v) => *v,
                    other => panic!("expected int, got {other:?}"),
                })
                .collect()
        };
        let scan = run(PlannerMode::Cost, false);
        assert!(!scan.is_empty() && scan.len() < 60, "selective query: {scan:?}");
        assert_eq!(run(PlannerMode::Cost, true), scan);
        assert_eq!(run(PlannerMode::Rule, true), scan);
        // EXPLAIN prices both paths on the indexed session.
        let mut db = Database::with_options(ExecOptions {
            planner: PlannerMode::Cost,
            ..Default::default()
        });
        db.execute("CREATE TABLE t (rid INT, v REAL UNCERTAIN)").unwrap();
        db.execute(&sql_insert).unwrap();
        db.execute("ANALYZE t").unwrap();
        db.execute("CREATE INDEX ix_v ON t (v) USING cdf").unwrap();
        let Output::Explain { profile, .. } =
            db.execute("EXPLAIN SELECT * FROM t WHERE PROB(v > 150) > 0.5").unwrap()
        else {
            panic!("expected explain")
        };
        let rendered = profile.render(false);
        assert!(rendered.contains("paths: scan="), "{rendered}");
        assert!(rendered.contains("index-threshold(ix_v)"), "{rendered}");
    }
}

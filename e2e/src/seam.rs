//! The seam: every engine name the benchmark calls is in this file.
//!
//! A later change that renames or removes one of these lands a benchmark
//! change first. The end-to-end numbers depend only on the first block
//! ([`Session::open`], [`Session::client`], [`Session::run`]); the layer
//! probes below it are what the traced pass times from outside.
//!
//! End to end: `DurableSession::{open_with, from_db, execute, db}`,
//! `Output`, `render_output`, `GroupCommitConfig::default`,
//! `SharedDurableDb::{checkpoint, check_invariants}`.
//!
//! Layers: `orion_sql::{parse, fingerprint}`, `Database::{new,
//! register_table, registry_mut, set_stats_catalog, set_index_handle,
//! set_io_stats, set_txn_db, set_workload, set_plan_feedback,
//! set_exec_stats, execute}`, `SharedDurableDb::{open, with_tables, indexes,
//! wal_stats, io_stats, workload, plan_feedback, wal_len}`,
//! `IndexHandle::from_catalog`, `IndexCatalog::snapshot`,
//! `plan::{plan_threshold_access, plan_select_access}`, `threshold_pred`,
//! `threshold_pred_masked`, `select_masked`, `join`, `project`, `Predicate`, `ExecOptions`,
//! `BuiltIndex::{build, threshold_mask}`, `IndexDef`, `Relation::{marginal,
//! value, tuples, len}`, `ProbTuple::{naive_existence, nodes}`, `Pdf1::{mass,
//! range_prob}`, `Pdf1Batch::{push, range_prob_into}`, `JointPdf::{product,
//! floor_predicate, floor_axis, marginalize}`, `Wal::{open, append, sync}`,
//! `codec::{encode_pdf1, decode_pdf1}`, `WorkloadRepo::{config, set_config,
//! statements}`, `WalStats`, `IoStats`, `ExecStats`, `orion_obs::json`.

use crate::workloads::{Answer, Query};
use orion_core::plan::{plan_select_access, plan_threshold_access};
use orion_core::prelude::{
    join, project, select_masked, threshold_pred, threshold_pred_masked, BuiltIndex, CmpOp,
    ExecOptions, GroupCommitConfig, HistoryRegistry, IndexDef, IndexHandle, IndexKind, Predicate,
    Relation, Scalar, SharedDurableDb, StatsCatalog, Value,
};
use orion_obs::ExecStats;
use orion_pdf::prelude::{Interval, JointPdf, Pdf1, Pdf1Batch, RegionSet};
use orion_sql::{fingerprint, parse, render_output, Database, DurableSession, Output, SqlError};
use orion_storage::codec::{decode_pdf1, encode_pdf1};
use orion_storage::Wal;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub use orion_obs::json;

/// A failed statement or engine call.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Whether a retry on a fresh snapshot may succeed (a lost
    /// first-committer-wins race).
    pub retryable: bool,
    pub message: String,
}

impl From<SqlError> for Failure {
    fn from(e: SqlError) -> Failure {
        let retryable = matches!(&e, SqlError::Engine(inner) if inner.is_retryable());
        Failure { retryable, message: e.to_string() }
    }
}

impl From<orion_core::prelude::EngineError> for Failure {
    fn from(e: orion_core::prelude::EngineError) -> Failure {
        Failure { retryable: e.is_retryable(), message: e.to_string() }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

type Res<T> = Result<T, Failure>;

/// A statement's result and its rendering.
pub struct Reply {
    out: Output,
    text: String,
}

impl Answer for Reply {
    fn text(&self) -> &str {
        &self.text
    }

    fn keys(&self, col: &str) -> Option<Vec<i64>> {
        let Output::Table(rel) = &self.out else { return None };
        (0..rel.len())
            .map(|i| match rel.value(i, col) {
                Ok(Value::Int(v)) => Some(*v),
                _ => None,
            })
            .collect()
    }

    fn existence(&self) -> Option<Vec<f64>> {
        let Output::Table(rel) = &self.out else { return None };
        Some(rel.tuples.iter().map(|t| t.naive_existence()).collect())
    }

    fn affected(&self) -> Option<usize> {
        match &self.out {
            Output::Count(n) => Some(*n),
            _ => None,
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.out, Output::Ok)
    }
}

impl Reply {
    /// Rows of a relational answer (0 for anything else).
    pub fn rows(&self) -> usize {
        match &self.out {
            Output::Table(rel) => rel.len(),
            Output::Rows { rows, .. } => rows.len(),
            _ => 0,
        }
    }
}

/// Removes every `ORION_*` variable so the shipped defaults are measured.
/// Call before the first session is opened and before any thread starts.
pub fn scrub_environment() -> Vec<String> {
    let names: Vec<String> =
        std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()).collect();
    let removed: Vec<String> = names.into_iter().filter(|k| k.starts_with("ORION_")).collect();
    for k in &removed {
        std::env::remove_var(k);
    }
    removed
}

/// The configuration the engine runs with once the environment is scrubbed.
pub fn effective_config() -> json::Value {
    let opts = ExecOptions::default();
    let gc = GroupCommitConfig::default();
    json::Value::object()
        .with("exec_mode", format!("{:?}", opts.mode))
        .with("planner", format!("{:?}", opts.planner))
        .with("exec_threads", orion_core::prelude::effective_threads(opts.threads) as u64)
        .with("resolution", opts.resolution as u64)
        .with("statement_repository", true)
        .with("slow_query_capture", false)
        .with(
            "flush_policy",
            format!(
                "engine default GroupCommitConfig {{ enabled: {}, window: {:?}, max_batch_bytes: {} }}, real fsync per commit batch",
                gc.enabled, gc.window, gc.max_batch_bytes
            ),
        )
}

/// One client connection: text in, rendered rows or a durable ack out.
pub struct Session(DurableSession);

impl Session {
    /// Opens (creating or recovering) the database directory with the
    /// engine's default group-commit settings.
    pub fn open(dir: &Path) -> Res<Session> {
        Ok(Session(DurableSession::open_with(dir, GroupCommitConfig::default())?))
    }

    /// Another client on the same engine.
    pub fn client(&self) -> Session {
        Session(DurableSession::from_db(self.0.db().clone()))
    }

    /// The timed unit: execute one statement and render its output.
    pub fn run(&mut self, sql: &str) -> Res<Reply> {
        let out = self.0.execute(sql)?;
        let text = render_output(&out)?;
        Ok(Reply { out, text })
    }

    pub fn checkpoint(&self) -> Res<()> {
        Ok(self.0.db().checkpoint()?)
    }

    pub fn check_invariants(&self) -> Res<()> {
        Ok(self.0.db().check_invariants()?)
    }
}

// ---------------------------------------------------------------------------
// Layer probes (traced pass only)
// ---------------------------------------------------------------------------

/// A measured interval whose untimed preparation happened outside it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub start: Instant,
    pub end: Instant,
}

impl Timed {
    /// Times `f` alone.
    pub fn of<R>(f: impl FnOnce() -> R) -> (Timed, R) {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        (Timed { start, end: Instant::now() }, r)
    }

    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// What [`Session::time_plan_and_operators`] measured.
pub struct Planned {
    pub plan: Timed,
    pub operators: Timed,
    /// Rows the operators produced.
    pub rows: usize,
    /// Tuples the operators examined (the mask's candidates, or all).
    pub examined: usize,
    /// The planner's candidate mask (`None`: full scan).
    pub mask: Option<Vec<bool>>,
}

/// `orion_sql::parse`, returning the statement for [`fingerprint_of`].
pub struct Parsed(orion_sql::ast::Statement);

pub fn parse_sql(sql: &str) -> Res<Parsed> {
    Ok(Parsed(parse(sql)?))
}

pub fn fingerprint_of(stmt: &Parsed) -> u64 {
    fingerprint(&stmt.0).0
}

/// The per-statement copy `DurableSession::query_db` makes: every relation
/// and the history registry cloned, assembled into a `Database`.
pub struct Snapshot {
    db: Database,
    /// Tuples cloned, over all tables.
    pub tuples: usize,
}

impl Snapshot {
    pub fn exec(&mut self, sql: &str) -> Res<RawOutput> {
        Ok(RawOutput(self.db.execute(sql)?))
    }
}

/// An unrendered statement result.
pub struct RawOutput(Output);

impl RawOutput {
    pub fn render(&self) -> Res<String> {
        Ok(render_output(&self.0)?)
    }
}

/// Engine counters the per-layer count metrics are deltas of.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub commits: u64,
    pub fsyncs: u64,
    pub fsyncs_saved: u64,
    pub wal_len: u64,
    pub pages_read: u64,
    pub statement_calls: u64,
    pub statement_pdf_ops: u64,
    pub statement_txn_retries: u64,
}

impl Session {
    fn engine(&self) -> &SharedDurableDb {
        self.0.db()
    }

    pub fn snapshot(&self) -> Snapshot {
        let db = self.engine();
        let (tables, reg) = db.with_tables(|t, r| (t.clone(), r.clone()));
        let tuples = tables.values().map(Relation::len).sum();
        let mut qdb = Database::new();
        for rel in tables.into_values() {
            qdb.register_table(rel);
        }
        *qdb.registry_mut() = reg;
        qdb.set_stats_catalog(StatsCatalog::new());
        qdb.set_io_stats(db.io_stats());
        qdb.set_txn_db(db.clone());
        qdb.set_index_handle(IndexHandle::from_catalog(db.indexes().lock().snapshot()));
        let workload = db.workload();
        if workload.enabled() {
            qdb.set_exec_stats(Arc::new(ExecStats::new()));
        }
        qdb.set_workload(workload);
        qdb.set_plan_feedback(db.plan_feedback());
        Snapshot { db: qdb, tuples }
    }

    pub fn counters(&self) -> Counters {
        let db = self.engine();
        let wal = db.wal_stats();
        let stmts = db.workload().statements();
        Counters {
            commits: wal.group_commit_commits.get(),
            fsyncs: wal.fsyncs.get(),
            fsyncs_saved: wal.fsyncs_saved.get(),
            wal_len: db.wal_len(),
            pages_read: db.io_stats().snapshot().physical_reads,
            statement_calls: stmts.iter().map(|s| s.calls).sum(),
            statement_pdf_ops: stmts.iter().map(|s| s.pdf_ops).sum(),
            statement_txn_retries: stmts.iter().map(|s| s.txn_retries).sum(),
        }
    }

    /// Turns the statement repository (`orion.statements`) on or off.
    pub fn set_statement_repository(&self, on: bool) {
        let repo = self.engine().workload();
        let mut cfg = repo.config();
        cfg.enabled = on;
        repo.set_config(cfg);
    }

    /// Runs `f` on the live relations with a scratch copy of the registry
    /// and the options a session statement would execute under.
    fn with_live<R>(
        &self,
        f: impl FnOnce(&HashMap<String, Relation>, &mut HistoryRegistry, &ExecOptions) -> R,
    ) -> R {
        let db = self.engine();
        let opts = ExecOptions {
            indexes: Some(IndexHandle::from_catalog(db.indexes().lock().snapshot())),
            ..ExecOptions::default()
        };
        db.with_tables(|tables, reg| f(tables, &mut reg.clone(), &opts))
    }

    /// The access-path decision for `q`, then the statement's operators
    /// called directly on the live relations with the planner's candidate
    /// mask, as the SQL executor does.
    pub fn time_plan_and_operators(&self, q: &Query) -> Res<Planned> {
        self.with_live(|tables, reg, opts| {
            let stats = StatsCatalog::new();
            let examined = |mask: &Option<Vec<bool>>, all: usize| {
                mask.as_ref().map_or(all, |m| m.iter().filter(|keep| **keep).count())
            };
            Ok(match q {
                Query::Point { table, key } => {
                    let rel = &tables[*table];
                    let pred = Predicate::cmp("rid", CmpOp::Eq, *key);
                    let (planned, ap) =
                        Timed::of(|| plan_select_access(rel, &pred, Some(&stats), opts));
                    let mask = ap?.mask;
                    let (ran, out) = Timed::of(|| {
                        let hit = select_masked(rel, &pred, mask.as_deref(), reg, opts)?;
                        project(&hit, &["rid", "value"], reg, opts)
                    });
                    Planned {
                        plan: planned,
                        operators: ran,
                        rows: out?.len(),
                        examined: examined(&mask, rel.len()),
                        mask,
                    }
                }
                Query::Threshold { table, lo, hi, p } => {
                    let rel = &tables[*table];
                    let pred = threshold_predicate(*lo, *hi);
                    let (planned, ap) = Timed::of(|| {
                        plan_threshold_access(rel, &pred, CmpOp::Gt, *p, Some(&stats), opts)
                    });
                    let mask = ap?.mask;
                    let (ran, out) = Timed::of(|| {
                        let hit = match &mask {
                            Some(m) => {
                                threshold_pred_masked(rel, &pred, CmpOp::Gt, *p, Some(m), reg, opts)
                            }
                            None => threshold_pred(rel, &pred, CmpOp::Gt, *p, reg, opts),
                        }?;
                        project(&hit, &["rid"], reg, opts)
                    });
                    Planned {
                        plan: planned,
                        operators: ran,
                        rows: out?.len(),
                        examined: examined(&mask, rel.len()),
                        mask,
                    }
                }
                Query::Join { c } => {
                    let on = Predicate::And(vec![
                        Predicate::cmp_cols("t.id", CmpOp::Eq, "b.id"),
                        Predicate::cmp_cols("p", CmpOp::Lt, "y"),
                    ]);
                    let filter = Predicate::cmp("q", CmpOp::Gt, *c);
                    // the join has no access-path choice; its WHERE clause does,
                    // and it is planned on the join's output
                    let (joined_t, joined) =
                        Timed::of(|| join(&tables["t"], &tables["b"], Some(&on), reg, opts));
                    let joined = joined?;
                    let (planned, ap) =
                        Timed::of(|| plan_select_access(&joined, &filter, Some(&stats), opts));
                    let mask = ap?.mask;
                    let (rest_t, out) = Timed::of(|| {
                        let kept = select_masked(&joined, &filter, mask.as_deref(), reg, opts)?;
                        project(&kept, &["t.id", "p"], reg, opts)
                    });
                    // one interval for the operators: the plan sits between the
                    // two halves, so shift the first half up against the second
                    let ran = Timed {
                        start: rest_t.start - joined_t.end.duration_since(joined_t.start),
                        end: rest_t.end,
                    };
                    Planned {
                        plan: planned,
                        operators: ran,
                        rows: out?.len(),
                        examined: tables["t"].len() + tables["b"].len(),
                        mask: None,
                    }
                }
            })
        })
    }

    /// The pdf work of `q` pushed through the `orion_pdf` kernels alone, on
    /// the tuples the planner's `mask` left as candidates: returns the scalar
    /// interval, the batch interval (equal to the scalar one where no batch
    /// kernel exists) and the kernel calls made.
    pub fn time_kernels(&self, q: &Query, mask: Option<&[bool]>) -> Res<(Timed, Timed, u64)> {
        self.with_live(|tables, _, opts| match q {
            Query::Point { table, key } => {
                let rel = &tables[*table];
                let pdfs: Vec<Pdf1> = (0..rel.len())
                    .filter(|&i| matches!(rel.value(i, "rid"), Ok(Value::Int(k)) if k == key))
                    .map(|i| rel.marginal(i, "value"))
                    .collect::<Result<_, _>>()?;
                let (t, _) = Timed::of(|| pdfs.iter().map(Pdf1::mass).sum::<f64>());
                Ok((t, t, pdfs.len() as u64))
            }
            Query::Threshold { table, lo, hi, .. } => {
                let rel = &tables[*table];
                let pdfs: Vec<Pdf1> = (0..rel.len())
                    .filter(|&i| mask.is_none_or(|m| m[i]))
                    .map(|i| rel.marginal(i, "value"))
                    .collect::<Result<_, _>>()?;
                let iv = Interval::new(*lo, *hi);
                let (scalar, _) = Timed::of(|| pdfs.iter().map(|p| p.range_prob(&iv)).sum::<f64>());
                let mut batch = Pdf1Batch::new();
                for p in &pdfs {
                    batch.push(p);
                }
                let mut out = Vec::with_capacity(pdfs.len());
                let (batched, _) = Timed::of(|| batch.range_prob_into(&iv, &mut out));
                Ok((scalar, batched, pdfs.len() as u64))
            }
            Query::Join { c } => {
                let (t, b) = (&tables["t"], &tables["b"]);
                let by_id: HashMap<i64, &JointPdf> = b
                    .tuples
                    .iter()
                    .filter_map(|tu| match (&tu.certain[0], tu.nodes.first()) {
                        (Value::Int(id), Some(n)) => Some((*id, &n.joint)),
                        _ => None,
                    })
                    .collect();
                let pairs: Vec<(&JointPdf, &JointPdf)> = t
                    .tuples
                    .iter()
                    .filter_map(|tu| match (&tu.certain[0], tu.nodes.first()) {
                        (Value::Int(id), Some(n)) => by_id.get(id).map(|y| (&n.joint, *y)),
                        _ => None,
                    })
                    .collect();
                let below = RegionSet::from_interval(Interval::new(f64::NEG_INFINITY, *c));
                let resolution = opts.resolution;
                let (timed, r) = Timed::of(|| -> Result<f64, orion_pdf::prelude::PdfError> {
                    let mut mass = 0.0;
                    for (pq, y) in &pairs {
                        // dims: 0 = p, 1 = q, 2 = y
                        let joint = pq.product(y);
                        let cmp = joint.floor_predicate(&[0, 2], resolution, |v| v[0] < v[1])?;
                        let kept = cmp.floor_axis(1, &below);
                        mass += kept.marginalize(&[0])?.mass();
                    }
                    Ok(mass)
                });
                r.map_err(|e| Failure { retryable: false, message: e.to_string() })?;
                Ok((timed, timed, 4 * pairs.len() as u64))
            }
        })
    }

    /// `BuiltIndex::build` of a cdf index over `table.column`.
    pub fn time_index_build(&self, table: &str, column: &str) -> Res<(Timed, Index)> {
        let def = IndexDef {
            name: "ix_probe".to_string(),
            table: table.to_string(),
            column: column.to_string(),
            kind: IndexKind::Cdf,
        };
        self.with_live(|tables, _, _| {
            let (t, built) = Timed::of(|| BuiltIndex::build(&def, &tables[table], 0));
            Ok((t, Index(built?)))
        })
    }

    /// `encode_pdf1` / `decode_pdf1` over every pdf of `table.column`:
    /// nanoseconds per tuple for each direction.
    pub fn time_codec(&self, table: &str, column: &str) -> Res<(f64, f64)> {
        self.with_live(|tables, _, _| {
            let rel = &tables[table];
            let pdfs: Vec<Pdf1> =
                (0..rel.len()).map(|i| rel.marginal(i, column)).collect::<Result<_, _>>()?;
            let mut buf: Vec<u8> = Vec::with_capacity(pdfs.len() * 64);
            let (enc, _) = Timed::of(|| {
                for p in &pdfs {
                    encode_pdf1(p, &mut buf);
                }
            });
            let mut rest: &[u8] = &buf;
            let (dec, ok) = Timed::of(|| (0..pdfs.len()).all(|_| decode_pdf1(&mut rest).is_ok()));
            if !ok || !rest.is_empty() {
                return Err(Failure {
                    retryable: false,
                    message: "codec probe: decode did not consume what encode wrote".into(),
                });
            }
            let n = pdfs.len().max(1) as f64;
            Ok((enc.secs() * 1e9 / n, dec.secs() * 1e9 / n))
        })
    }
}

fn threshold_predicate(lo: f64, hi: f64) -> Predicate {
    if lo.is_finite() {
        Predicate::And(vec![
            Predicate::Cmp(Scalar::col("value"), CmpOp::Ge, Scalar::lit(lo)),
            Predicate::Cmp(Scalar::col("value"), CmpOp::Le, Scalar::lit(hi)),
        ])
    } else {
        Predicate::Cmp(Scalar::col("value"), CmpOp::Lt, Scalar::lit(hi))
    }
}

/// A built cdf index.
pub struct Index(BuiltIndex);

impl Index {
    /// `threshold_mask` for `Pr(col ∈ [lo, hi]) > p`: the interval and the
    /// share of entries the probe pruned.
    pub fn time_probe(&self, lo: f64, hi: f64, p: f64) -> Res<(Timed, f64)> {
        let iv = Interval::new(lo, hi);
        let (t, mask) = Timed::of(|| self.0.threshold_mask(&iv, CmpOp::Gt, p));
        let pruned = match mask? {
            Some((mask, _)) if !mask.is_empty() => {
                mask.iter().filter(|keep| !**keep).count() as f64 / mask.len() as f64
            }
            _ => 0.0,
        };
        Ok((t, pruned))
    }
}

/// `SharedDurableDb::open` on `dir` (snapshot load + WAL replay), dropped
/// again outside the interval.
pub fn time_engine_open(dir: &Path) -> Res<Timed> {
    let (t, db) = Timed::of(|| SharedDurableDb::open(dir, GroupCommitConfig::default()));
    db?;
    Ok(t)
}

/// A scratch write-ahead log for the append / fsync probe.
pub struct WalProbe(Wal);

impl WalProbe {
    pub fn open(path: &Path) -> std::io::Result<WalProbe> {
        Ok(WalProbe(Wal::open(path)?.0))
    }

    /// One `append` of `payload` then one `sync`, timed separately.
    pub fn append_sync(&mut self, payload: &[u8]) -> std::io::Result<(Timed, Timed)> {
        let (a, r) = Timed::of(|| self.0.append(payload));
        r?;
        let (s, r) = Timed::of(|| self.0.sync());
        r?;
        Ok((a, s))
    }
}

/// One `n x n` join `x < y` of symbolic Gaussians on an in-memory
/// `Database`: the resolution² cost of continuous pairs, per pair.
pub fn time_continuous_join(n: usize) -> Res<Timed> {
    let mut db = Database::new();
    db.execute("CREATE TABLE gx (i INT, x REAL UNCERTAIN)")?;
    db.execute("CREATE TABLE gy (j INT, y REAL UNCERTAIN)")?;
    for (table, shift) in [("gx", 0.0), ("gy", 1.0)] {
        let rows: Vec<String> = (0..n)
            .map(|i| format!("({i}, GAUSSIAN({}, 4))", 10.0 + shift + (i % 7) as f64))
            .collect();
        db.execute(&format!("INSERT INTO {table} VALUES {}", rows.join(", ")))?;
    }
    let (t, out) = Timed::of(|| db.execute("SELECT * FROM gx JOIN gy ON x < y"));
    out?;
    Ok(t)
}

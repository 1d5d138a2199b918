//! Durable database: atomic snapshots + a write-ahead log, with crash
//! recovery.
//!
//! A [`SharedDurableDb`] lives in a directory holding two files:
//!
//! * `snapshot.db` — the last checkpoint, written atomically by
//!   [`crate::persist::save_database`] (temp file → fsync → rename);
//! * `wal.log` — every mutation since that checkpoint, as length+CRC32
//!   framed records ([`orion_storage::Wal`]).
//!
//! **Commit protocol.** Every write logs first and applies second. Row
//! data commits through [`crate::txn::Txn`]: its group record (`[bases]
//! [ops…]`) reaches stable storage as one WAL frame, and only then is the
//! same record applied through [`crate::persist::apply_record`]. `ANALYZE`
//! and index DDL commit one bare record each the same way. The invariant:
//! **every WAL commit and every apply happens under the core lock; the
//! core holds only durable state.** A failed commit applies nothing (the [`GroupWal`]
//! truncates the failed batch away), so memory never diverges from what
//! recovery would rebuild, and no reader can observe a write whose commit
//! later fails.
//!
//! **Checkpoints.** [`SharedDurableDb::checkpoint`] writes the whole
//! database as an atomic snapshot stamped with a fresh *epoch*, then
//! empties the WAL. The first record logged after a checkpoint restamps
//! the WAL with the snapshot's epoch. A crash in the window between the
//! snapshot rename and the WAL reset leaves the old WAL (carrying the
//! *previous* epoch) beside the new snapshot; recovery compares epochs and
//! discards such a stale WAL instead of replaying it over state that
//! already contains its records.
//!
//! **Recovery.** [`SharedDurableDb::open`] loads `snapshot.db` in one
//! streaming scan ([`crate::persist::load_into`]), truncates any torn WAL
//! tail, discards the whole WAL if its epoch predates the snapshot's, and
//! otherwise replays every frame, in one loop, through the same
//! [`crate::persist::apply_record`] decoder the snapshot loader uses,
//! reporting what it did in a [`RecoveryReport`]. A frame is a whole
//! commit, so nothing is buffered: a transaction's frame is either intact
//! (replayed) or part of the torn tail (gone). Bare base + tuple records
//! of logs written before inserts ran as transactions replay through the
//! same loop. A log holding the begin/commit/abort marker records of
//! earlier versions fails with [`EngineError::Corrupt`], untouched.
//! Re-opening a recovered database is idempotent: the second open replays
//! the same records and truncates nothing. A directory holding
//! `delta-*.db` files (incremental checkpoints written by earlier
//! versions, whose records are in neither the snapshot nor the reset WAL)
//! is refused with [`EngineError::Corrupt`] rather than opened without
//! them.
//!
//! **Group commit.** The WAL is driven through
//! [`orion_storage::GroupWal`]: each commit enqueues its one frame,
//! one elected leader performs a single batched `append + fsync` for every
//! queued commit, and followers block on their commit sequence number.
//! Commits run under the core lock, so the pipeline sees one committer at
//! a time. Tunables (batching window, max batch bytes) live in
//! [`orion_storage::GroupCommitConfig`], fixed at open.

use crate::error::{EngineError, Result};
use crate::history::HistoryRegistry;
use crate::persist::{self, LoadState};
use crate::pindex::{IndexDef, IndexHandle, IndexKind};
use crate::plan_feedback::PlanFeedbackStore;
use crate::relation::Relation;
use crate::stats_catalog::{analyze_relation, StatsCatalog, TableStats};
use crate::txn::TxnStats;
use orion_obs::workload::WorkloadRepo;
use orion_storage::wal::WalStats;
use orion_storage::{GroupCommitConfig, GroupWal, IoStats, Wal, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Snapshot file name inside a [`SharedDurableDb`] directory.
pub const SNAPSHOT_FILE: &str = "snapshot.db";
/// Write-ahead log file name inside a [`SharedDurableDb`] directory.
pub const WAL_FILE: &str = "wal.log";

/// What [`SharedDurableDb::open`] found and did while recovering.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Whether a snapshot file existed and was loaded.
    pub snapshot_loaded: bool,
    /// WAL frames (one per commit; the epoch stamp not counted) replayed
    /// over the snapshot.
    pub wal_records_replayed: u64,
    /// Bytes of torn WAL tail discarded (crash mid-append).
    pub wal_bytes_truncated: u64,
    /// WAL frames (epoch stamp included) discarded because the whole WAL
    /// predated the snapshot's checkpoint epoch (crash between snapshot
    /// rename and WAL reset).
    pub stale_wal_records_discarded: u64,
}

impl RecoveryReport {
    /// Stable JSON rendering for stats exporters and test grepping.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"snapshot_loaded\":{},\"wal_records_replayed\":{},\"wal_bytes_truncated\":{},\"stale_wal_records_discarded\":{}}}",
            self.snapshot_loaded,
            self.wal_records_replayed,
            self.wal_bytes_truncated,
            self.stale_wal_records_discarded
        )
    }
}

/// Refuses a directory holding `delta-*.db` files: incremental checkpoints
/// written by earlier versions. Their records are in neither `snapshot.db`
/// nor the WAL (which they reset), so opening without them would silently
/// lose committed data. A `delta-*.db.tmp` never reached its commit point
/// (the rename) and is ignored, like `snapshot.db.tmp`.
fn reject_delta_files(dir: &Path) -> Result<()> {
    let mut deltas = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if name.starts_with("delta-") && name.ends_with(".db") {
            deltas.push(name);
        }
    }
    match deltas.into_iter().min() {
        Some(first) => Err(EngineError::Corrupt(format!(
            "{first} in {}: incremental checkpoint files are no longer read; open the \
             directory with the previous version and run a full checkpoint() first",
            dir.display()
        ))),
        None => Ok(()),
    }
}

/// (Re)arms the [`GroupWal`]'s epoch stamp: after any checkpoint, the
/// first batch written to the (then empty) log is prefixed with the
/// snapshot's epoch, so recovery can tell a live WAL from a stale one left
/// by a crashed checkpoint. Epoch 0 (no checkpoint yet) writes no stamp.
fn set_epoch_stamp(wal: &GroupWal, epoch: u64) -> Result<()> {
    if epoch == 0 {
        wal.set_stamp(None)?;
    } else {
        let mut buf = Vec::new();
        persist::encode_epoch(epoch, &mut buf);
        wal.set_stamp(Some(&buf))?;
    }
    Ok(())
}

/// Validates a CREATE INDEX against the live tables and catalog, resolving
/// the key layout (`cdf` for uncertain columns, `evx` for certain ones
/// when not forced). The same kind/column compatibility check
/// [`crate::pindex::BuiltIndex::build`] applies runs here, so an
/// unbuildable definition is never logged.
pub fn validate_index_def(
    tables: &HashMap<String, Relation>,
    indexes: &IndexHandle,
    name: &str,
    table: &str,
    column: &str,
    kind: Option<IndexKind>,
) -> Result<IndexDef> {
    if indexes.lock().get(name).is_some() {
        return Err(EngineError::Operator(format!("index '{name}' already exists")));
    }
    let rel = tables
        .get(table)
        .ok_or_else(|| EngineError::Operator(format!("unknown table '{table}'")))?;
    let col = rel
        .schema
        .column(column)
        .ok_or_else(|| EngineError::Schema(format!("unknown column '{column}'")))?;
    let kind = kind.unwrap_or(if col.uncertain { IndexKind::Cdf } else { IndexKind::Evx });
    match kind {
        IndexKind::Evx if col.uncertain => {
            return Err(EngineError::Operator(format!(
                "evx index needs a certain column ('{column}' is uncertain); use USING cdf"
            )))
        }
        IndexKind::Cdf if !col.uncertain => {
            return Err(EngineError::Operator(format!(
                "cdf index needs an uncertain column ('{column}' is certain); use USING evx"
            )))
        }
        _ => {}
    }
    Ok(IndexDef { name: name.into(), table: table.into(), column: column.into(), kind })
}

/// Mutable database state behind [`SharedDurableDb`]'s core lock. It holds
/// only durable state: tables, registry, stats and index definitions
/// change only after the WAL commit that logs the change has returned
/// `Ok`, and the checkpoint fields only after the checkpoint's rename.
#[derive(Debug)]
pub(crate) struct SharedCore {
    dir: PathBuf,
    pub(crate) tables: HashMap<String, Relation>,
    pub(crate) reg: HistoryRegistry,
    /// Checkpoint epoch of the current snapshot (0 before any checkpoint).
    /// WAL records only count at recovery if their log carries this epoch.
    pub(crate) epoch: u64,
    /// Per-table statistics collected by [`SharedDurableDb::analyze_table`],
    /// persisted as WAL/snapshot records so they survive recovery.
    pub(crate) stats: StatsCatalog,
    /// Secondary-index catalog: definitions are durable (WAL + snapshot
    /// records), trees are rebuilt lazily.
    pub(crate) indexes: IndexHandle,
    /// Monotonic transaction-commit sequence: bumped once per committed
    /// transaction, under the core lock, so observers can order commits.
    pub(crate) commit_seq: u64,
    /// Per-table commit stamp: the `commit_seq` of the last commit that
    /// applied to the table (absent: none since open). A transaction's
    /// validation skips every table whose stamp is not above its begin.
    pub(crate) stamps: HashMap<String, u64>,
}

/// One live transaction's introspection row (the `orion.txns` table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveTxnInfo {
    /// Transaction id (process-global, monotonic).
    pub id: u64,
    /// Checkpoint epoch of the database when the snapshot was taken.
    pub snapshot_epoch: u64,
    /// Current write-set size (DML ops staged so far).
    pub writes: usize,
}

#[derive(Debug)]
pub(crate) struct SharedInner {
    pub(crate) core: Mutex<SharedCore>,
    pub(crate) wal: GroupWal,
    recovery: RecoveryReport,
    /// Checkpoint page accounting (`ckpt_pages_copied`).
    io: Arc<IoStats>,
    /// Begin / commit / conflict / abort counters of this engine's
    /// transactions.
    pub(crate) txn_stats: TxnStats,
    /// Per-statement workload repository fed by the SQL session layer.
    workload: Arc<WorkloadRepo>,
    /// Planner cardinality-feedback store folded from profiled executions.
    feedback: Arc<PlanFeedbackStore>,
    /// Live transactions: id → (snapshot epoch, shared write-set counter).
    /// A side table (not under the core lock) so `orion.txns` can be read
    /// without stalling writers.
    pub(crate) txns: Mutex<HashMap<u64, (u64, Arc<std::sync::atomic::AtomicUsize>)>>,
}

/// A database rooted in a directory, surviving crashes at any point, behind
/// `&self` methods and safe to share across threads (`Clone` + `Send` +
/// `Sync`). Row data is written only through [`crate::txn::Txn`]; the
/// handle's own writers are [`SharedDurableDb::analyze_table`],
/// [`SharedDurableDb::create_index`] and [`SharedDurableDb::drop_index`].
#[derive(Debug, Clone)]
pub struct SharedDurableDb {
    pub(crate) inner: Arc<SharedInner>,
}

impl SharedDurableDb {
    /// Opens (creating if absent) the database in `dir`, running crash
    /// recovery: snapshot load, torn-tail truncation, stale-WAL rejection,
    /// WAL replay. `cfg` tunes group commit. A directory holding
    /// `delta-*.db` files fails with [`EngineError::Corrupt`] before
    /// anything in it is touched.
    pub fn open(dir: &Path, cfg: GroupCommitConfig) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        reject_delta_files(dir)?;
        let snap = dir.join(SNAPSHOT_FILE);
        let mut state = LoadState::default();
        let snapshot_loaded = snap.exists();
        if snapshot_loaded {
            persist::load_into(&snap, &mut state)?;
        }
        let snap_epoch = state.wal_epoch;
        let (mut wal, replay) = Wal::open(&dir.join(WAL_FILE))?;
        let wal_epoch = replay.records.first().and_then(|r| persist::record_epoch(r)).unwrap_or(0);
        let mut replayed = 0u64;
        let mut stale_discarded = 0u64;
        if wal_epoch < snap_epoch {
            // The WAL predates the snapshot: a crash hit the window between
            // a checkpoint's commit point (the snapshot rename) and its WAL
            // reset. Every record here is already in the snapshot —
            // replaying would duplicate tuples and double-count refcounts.
            stale_discarded = replay.records.len() as u64;
            if stale_discarded > 0 {
                wal.reset()?;
            }
        } else {
            // Every frame is one committed unit: a transaction's group
            // record, an ANALYZE or index-DDL record, the epoch stamp, or a
            // bare base/tuple record of a log written before inserts ran
            // as transactions. The torn tail is already gone, so each
            // frame applies whole, in log order.
            for rec in &replay.records {
                persist::apply_record(rec, &mut state)?;
                replayed += u64::from(persist::record_epoch(rec).is_none());
            }
        }
        let recovery = RecoveryReport {
            snapshot_loaded,
            wal_records_replayed: replayed,
            wal_bytes_truncated: replay.truncated_bytes,
            stale_wal_records_discarded: stale_discarded,
        };
        let epoch = state.wal_epoch.max(snap_epoch);
        let stats = state.take_stats();
        let indexes = IndexHandle::from_catalog(state.take_indexes());
        let (tables, reg) = state.finish();
        let wal = GroupWal::new(wal, cfg);
        set_epoch_stamp(&wal, epoch)?;
        let workload = Arc::new(WorkloadRepo::from_env());
        let feedback = Arc::new(PlanFeedbackStore::new());
        let core = SharedCore {
            dir: dir.to_path_buf(),
            tables,
            reg,
            epoch,
            stats,
            indexes,
            commit_seq: 0,
            stamps: HashMap::new(),
        };
        Ok(SharedDurableDb {
            inner: Arc::new(SharedInner {
                core: Mutex::new(core),
                wal,
                recovery,
                io: Arc::new(IoStats::default()),
                txn_stats: TxnStats::default(),
                workload,
                feedback,
                txns: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// Collects per-column statistics for `table` (see
    /// [`crate::stats_catalog::analyze_relation`]), durably logs the
    /// resulting [`TableStats`] record and returns it. Replay is an
    /// overwrite per table, so re-analyzing simply supersedes the old
    /// record. On a failed commit nothing is applied — the catalog keeps
    /// its previous entry (or none).
    pub fn analyze_table(&self, table: &str) -> Result<TableStats> {
        let mut core = self.inner.core.lock();
        let rel = core
            .tables
            .get(table)
            .ok_or_else(|| EngineError::Operator(format!("unknown table '{table}'")))?;
        let ts = analyze_relation(rel)?;
        let mut buf = Vec::new();
        persist::encode_stats(&ts, &mut buf);
        self.inner.wal.commit(&buf)?;
        core.stats.insert(ts.clone());
        Ok(ts)
    }

    /// A copy of the statistics catalog (empty until
    /// [`SharedDurableDb::analyze_table`]).
    pub fn stats_catalog(&self) -> StatsCatalog {
        self.inner.core.lock().stats.clone()
    }

    /// Creates a secondary index and durably logs its definition. `kind`
    /// defaults by column certainty (`cdf` for uncertain, `evx` for
    /// certain). Only the definition is persisted — the tree is rebuilt
    /// lazily on first use. On a failed commit nothing is applied.
    pub fn create_index(
        &self,
        name: &str,
        table: &str,
        column: &str,
        kind: Option<IndexKind>,
    ) -> Result<()> {
        let core = self.inner.core.lock();
        let def = validate_index_def(&core.tables, &core.indexes, name, table, column, kind)?;
        let mut buf = Vec::new();
        persist::encode_index_def(&def, &mut buf);
        self.inner.wal.commit(&buf)?;
        let created = core.indexes.lock().create(def);
        created
    }

    /// Drops a secondary index and durably logs the drop. On a failed
    /// commit nothing is applied.
    pub fn drop_index(&self, name: &str) -> Result<()> {
        let core = self.inner.core.lock();
        if core.indexes.lock().get(name).is_none() {
            return Err(EngineError::Operator(format!("unknown index '{name}'")));
        }
        let mut buf = Vec::new();
        persist::encode_index_drop(name, &mut buf);
        self.inner.wal.commit(&buf)?;
        let _ = core.indexes.lock().drop_index(name);
        Ok(())
    }

    /// The shared index catalog handle (seed it into
    /// [`crate::select::ExecOptions::indexes`] so the planner sees it).
    pub fn indexes(&self) -> IndexHandle {
        self.inner.core.lock().indexes.clone()
    }

    /// Runs `f` with read access to the committed tables and registry.
    /// Do not block inside `f`: the core lock stalls every writer. To hold
    /// a version past `f`, clone it: tuples and registry segments are
    /// shared copy-on-write, so the clone costs O(tables + segments) and
    /// later commits never change what it shows.
    pub fn with_tables<R>(
        &self,
        f: impl FnOnce(&HashMap<String, Relation>, &HistoryRegistry) -> R,
    ) -> R {
        let core = self.inner.core.lock();
        f(&core.tables, &core.reg)
    }

    /// Checkpoint: atomically writes the whole database as a snapshot
    /// stamped with the next epoch ([`crate::persist::save_snapshot_full`]:
    /// temp file → fsync → rename → directory fsync), then empties the
    /// WAL, whose records the snapshot now contains. Holds the core lock
    /// throughout, so no commit lands mid-snapshot. Crash-atomic at every
    /// point: until the rename lands, recovery uses the old snapshot + full
    /// WAL; once it lands, a WAL still carrying the old epoch is recognized
    /// as stale and discarded instead of replayed. A checkpoint that
    /// returns an error never corrupts state — at worst the WAL keeps
    /// accumulating. The pages written are counted in
    /// [`SharedDurableDb::io_stats`] (`ckpt_pages_copied`).
    pub fn checkpoint(&self) -> Result<()> {
        let mut core = self.inner.core.lock();
        let new_epoch = core.epoch + 1;
        let snap = core.dir.join(SNAPSHOT_FILE);
        let cat = core.indexes.lock();
        persist::save_snapshot_full(&snap, &core.tables, &core.reg, &core.stats, &cat, new_epoch)?;
        drop(cat);
        let pages =
            std::fs::metadata(&snap).map(|m| m.len().div_ceil(PAGE_SIZE as u64)).unwrap_or(0);
        self.inner.io.ckpt_pages_copied.add(pages);
        // The rename inside save_snapshot_full was the commit point.
        core.epoch = new_epoch;
        self.inner.wal.reset()?;
        set_epoch_stamp(&self.inner.wal, new_epoch)?;
        Ok(())
    }

    /// Live transactions (id, snapshot epoch, current write-set size),
    /// sorted by id — the rows of the `orion.txns` system table.
    pub fn active_txns(&self) -> Vec<ActiveTxnInfo> {
        let txns = self.inner.txns.lock();
        let mut rows: Vec<ActiveTxnInfo> = txns
            .iter()
            .map(|(&id, (epoch, writes))| ActiveTxnInfo {
                id,
                snapshot_epoch: *epoch,
                writes: writes.load(std::sync::atomic::Ordering::Relaxed),
            })
            .collect();
        rows.sort_by_key(|r| r.id);
        rows
    }

    /// Number of transactions committed through this handle since open.
    pub fn commit_seq(&self) -> u64 {
        self.inner.core.lock().commit_seq
    }

    /// What recovery did when this handle was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.inner.recovery
    }

    /// Group-commit counters (fsyncs, batches, fsyncs saved).
    pub fn wal_stats(&self) -> Arc<WalStats> {
        self.inner.wal.stats()
    }

    /// Transaction counters and commit latency of this engine.
    pub fn txn_stats(&self) -> &TxnStats {
        &self.inner.txn_stats
    }

    /// Checkpoint I/O counters (`ckpt_pages_copied`).
    pub fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.inner.io)
    }

    /// The per-statement workload repository (shared with SQL sessions; the
    /// row source for `orion.statements` / `orion.slow_queries`).
    pub fn workload(&self) -> Arc<WorkloadRepo> {
        Arc::clone(&self.inner.workload)
    }

    /// The planner cardinality-feedback store (the row source for
    /// `orion.plan_feedback`).
    pub fn plan_feedback(&self) -> Arc<PlanFeedbackStore> {
        Arc::clone(&self.inner.feedback)
    }

    /// Current WAL length in bytes (0 right after a checkpoint).
    pub fn wal_len(&self) -> u64 {
        self.inner.wal.len()
    }

    /// Checkpoint epoch of the current snapshot (0 before any checkpoint).
    pub fn epoch(&self) -> u64 {
        self.inner.core.lock().epoch
    }

    /// Recovery + size stats as JSON, for the observability exporters.
    pub fn stats_json(&self) -> String {
        let core = self.inner.core.lock();
        format!(
            "{{\"recovery\":{},\"wal_len\":{},\"epoch\":{},\"tables\":{},\"bases\":{},\"wal\":{},\"io\":{}}}",
            self.inner.recovery.to_json(),
            self.inner.wal.len(),
            core.epoch,
            core.tables.len(),
            core.reg.len(),
            self.inner.wal.stats().to_json().to_string_compact(),
            self.inner.io.snapshot().to_json().to_string_compact()
        )
    }

    /// Verifies structural invariants; see [`check_invariants`].
    pub fn check_invariants(&self) -> Result<()> {
        let core = self.inner.core.lock();
        check_invariants(&core.tables, &core.reg)
    }

    /// Fault injection: the `nth` next WAL commit (0 = the very next one)
    /// fails with an injected I/O error.
    #[cfg(feature = "failpoints")]
    pub fn inject_wal_append_failure(&self, nth: u32) {
        self.inner.wal.fail_nth_record(nth);
    }

    /// Fault injection: the next WAL fsync fails, failing every commit in
    /// its batch.
    #[cfg(feature = "failpoints")]
    pub fn inject_wal_sync_failure(&self) {
        self.inner.wal.fail_next_sync();
    }
}

/// Verifies the structural invariants every recovered database must
/// satisfy, independent of where the crash happened:
///
/// 1. every tuple node's ancestors resolve in the registry;
/// 2. each base's reference count equals the number of nodes citing it;
/// 3. every node's joint mass lies in `[0, 1 + ε]`.
pub fn check_invariants(tables: &HashMap<String, Relation>, reg: &HistoryRegistry) -> Result<()> {
    let mut cited: HashMap<u64, usize> = HashMap::new();
    for (name, rel) in tables {
        for (i, t) in rel.tuples.iter().enumerate() {
            for n in &t.nodes {
                for &a in &n.ancestors {
                    if reg.base(a).is_err() {
                        return Err(EngineError::Corrupt(format!(
                            "{name}[{i}]: ancestor {a} does not resolve"
                        )));
                    }
                    *cited.entry(a).or_insert(0) += 1;
                }
                let m = n.mass();
                if !(0.0..=1.0 + 1e-9).contains(&m) {
                    return Err(EngineError::Corrupt(format!(
                        "{name}[{i}]: node mass {m} outside [0, 1]"
                    )));
                }
            }
        }
    }
    for (id, _) in reg.iter_bases() {
        let expect = cited.get(&id).copied().unwrap_or(0);
        if reg.ref_count(id) != expect {
            return Err(EngineError::Corrupt(format!(
                "base {id}: ref count {} but {expect} citing nodes",
                reg.ref_count(id)
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, ProbSchema};
    use crate::txn::Txn;
    use crate::value::Value;
    use orion_pdf::prelude::Pdf1;

    fn temp_dir(name: &str) -> PathBuf {
        orion_obs::scratch_dir(&format!("durable-test-{name}"))
    }

    fn schema() -> ProbSchema {
        ProbSchema::new(vec![("id", ColumnType::Int, false), ("v", ColumnType::Real, true)], vec![])
            .unwrap()
    }

    fn open(dir: &Path) -> SharedDurableDb {
        SharedDurableDb::open(dir, GroupCommitConfig::default()).unwrap()
    }

    /// `CREATE TABLE` as a single-statement transaction.
    fn create_table(db: &SharedDurableDb, name: &str) {
        let mut txn = Txn::begin(db);
        txn.create_table(name, schema()).unwrap();
        txn.commit().unwrap();
    }

    /// One single-row transaction per id, as autocommit `INSERT`s run.
    fn insert_into(db: &SharedDurableDb, table: &str, from: i64, n: i64) {
        for i in from..from + n {
            let mut txn = Txn::begin(db);
            txn.insert_simple(
                table,
                &[("id", Value::Int(i))],
                &[("v", Pdf1::gaussian(i as f64, 1.0).unwrap())],
            )
            .unwrap();
            txn.commit().unwrap();
        }
    }

    fn insert_n(db: &SharedDurableDb, from: i64, n: i64) {
        insert_into(db, "readings", from, n);
    }

    /// Rows in `table` (0 when it does not exist).
    fn rows(db: &SharedDurableDb, table: &str) -> usize {
        db.with_tables(|tables, _| tables.get(table).map_or(0, Relation::len))
    }

    #[test]
    fn inserts_survive_reopen_without_checkpoint() {
        let dir = temp_dir("wal_only");
        {
            let db = open(&dir);
            create_table(&db, "readings");
            insert_n(&db, 0, 3);
            assert!(db.wal_len() > 0);
        }
        let db = open(&dir);
        assert!(!db.recovery().snapshot_loaded);
        assert_eq!(rows(&db, "readings"), 3);
        db.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_wal_and_reopens_from_snapshot() {
        let dir = temp_dir("checkpoint");
        {
            let db = open(&dir);
            create_table(&db, "readings");
            insert_n(&db, 0, 2);
            db.checkpoint().unwrap();
            assert_eq!(db.wal_len(), 0);
            insert_n(&db, 2, 1);
        }
        let db = open(&dir);
        assert!(db.recovery().snapshot_loaded);
        assert_eq!(db.recovery().wal_records_replayed, 1, "one insert frame after ckpt");
        assert_eq!(rows(&db, "readings"), 3);
        db.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_between_snapshot_rename_and_wal_reset_discards_stale_wal() {
        // The checkpoint crash window: the new snapshot is renamed into
        // place but the process dies before the WAL reset truncates the
        // old log. Recovery must NOT replay that log over the snapshot —
        // doing so would duplicate every tuple and double-count refcounts.
        let dir = temp_dir("ckpt_window");
        {
            let db = open(&dir);
            create_table(&db, "readings");
            insert_n(&db, 0, 3);
            // First half of checkpoint(): snapshot written and renamed,
            // stamped with the next epoch. Then "crash" before wal.reset().
            let epoch = db.epoch() + 1;
            db.with_tables(|tables, reg| {
                persist::save_snapshot(&dir.join(SNAPSHOT_FILE), tables, reg, epoch)
            })
            .unwrap();
        }
        let db = open(&dir);
        assert!(db.recovery().snapshot_loaded);
        assert_eq!(db.recovery().wal_records_replayed, 0);
        assert!(db.recovery().stale_wal_records_discarded > 0, "stale WAL detected");
        assert_eq!(rows(&db, "readings"), 3, "no duplicated tuples");
        db.check_invariants().unwrap();
        assert_eq!(db.wal_len(), 0, "stale WAL emptied");
        // Second open finds nothing stale left.
        drop(db);
        let db = open(&dir);
        assert_eq!(db.recovery().stale_wal_records_discarded, 0);
        assert_eq!(rows(&db, "readings"), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file under `dir` with its bytes, sorted by name.
    fn dir_image(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn delta_files_fail_open_and_tmp_deltas_are_ignored() {
        // A directory where an earlier version ran an incremental
        // checkpoint: the delta's records are in neither the snapshot nor
        // the WAL, so opening without it would silently lose them.
        let dir = temp_dir("delta_refused");
        {
            let db = open(&dir);
            create_table(&db, "readings");
            insert_n(&db, 0, 2);
            db.checkpoint().unwrap();
        }
        std::fs::write(dir.join("delta-0000000002.db"), b"ODLT delta page images").unwrap();
        let before = dir_image(&dir);
        let err = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("delta-0000000002.db") && msg.contains("checkpoint()"), "{msg}");
        assert_eq!(dir_image(&dir), before, "a refused open leaves the directory untouched");
        // A delta that never reached its rename is pre-commit: ignored.
        std::fs::rename(dir.join("delta-0000000002.db"), dir.join("delta-0000000002.db.tmp"))
            .unwrap();
        let db = open(&dir);
        assert_eq!(rows(&db, "readings"), 2);
        db.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_marker_log_fails_open_and_is_left_untouched() {
        // Earlier versions framed each transaction with begin/commit marker
        // records (tags 6 and 7). Such a log is refused, not misread.
        let dir = temp_dir("legacy_markers");
        std::fs::create_dir_all(&dir).unwrap();
        {
            let (mut wal, _) = Wal::open(&dir.join(WAL_FILE)).unwrap();
            let marker = |tag: u8| [&[tag][..], &42u64.to_le_bytes()].concat();
            let mut schema_rec = Vec::new();
            persist::encode_schema(&Relation::new("readings", schema()), &mut schema_rec);
            for rec in [marker(6), schema_rec, marker(7)] {
                wal.append(&rec).unwrap();
            }
            wal.sync().unwrap();
        }
        let before = dir_image(&dir);
        let err = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("one-frame commits") && msg.contains("checkpoint()"), "{msg}");
        assert_eq!(dir_image(&dir), before, "a refused open leaves the log untouched");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_is_monotonic_across_checkpoints_and_reopens() {
        let dir = temp_dir("epochs");
        {
            let db = open(&dir);
            assert_eq!(db.epoch(), 0);
            create_table(&db, "readings");
            insert_n(&db, 0, 1);
            db.checkpoint().unwrap();
            assert_eq!(db.epoch(), 1);
            insert_n(&db, 1, 1);
            db.checkpoint().unwrap();
            assert_eq!(db.epoch(), 2);
            insert_n(&db, 2, 1);
        }
        let db = open(&dir);
        assert_eq!(db.epoch(), 2, "epoch survives reopen");
        assert_eq!(db.recovery().wal_records_replayed, 1, "post-checkpoint insert frame");
        assert_eq!(rows(&db, "readings"), 3);
        db.check_invariants().unwrap();
        db.checkpoint().unwrap();
        assert_eq!(db.epoch(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_loses_only_the_uncommitted_insert() {
        let dir = temp_dir("torn");
        {
            let db = open(&dir);
            create_table(&db, "readings");
            insert_n(&db, 0, 2);
        }
        // Simulate a crash mid-append: chop bytes off the WAL tail, tearing
        // the last transaction's frame.
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();
        let db = open(&dir);
        assert!(db.recovery().wal_bytes_truncated > 0);
        assert_eq!(rows(&db, "readings"), 1, "torn insert rolled back");
        db.check_invariants().unwrap();
        // Second open is idempotent: nothing further to truncate.
        drop(db);
        let db = open(&dir);
        assert_eq!(db.recovery().wal_bytes_truncated, 0);
        assert_eq!(rows(&db, "readings"), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_json_is_grepable() {
        let dir = temp_dir("stats");
        let db = open(&dir);
        create_table(&db, "readings");
        insert_n(&db, 0, 1);
        let s = db.stats_json();
        assert!(s.contains("\"wal_records_replayed\":0"));
        assert!(s.contains("\"snapshot_loaded\":false"));
        assert!(s.contains("\"bases\":1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_handle_round_trips_concurrent_inserts() {
        let dir = temp_dir("shared");
        let db = open(&dir);
        create_table(&db, "readings");
        std::thread::scope(|s| {
            for t in 0..4 {
                let db = db.clone();
                s.spawn(move || insert_n(&db, t * 100, 10));
            }
        });
        db.check_invariants().unwrap();
        db.checkpoint().unwrap();
        assert_eq!(rows(&db, "readings"), 40);
        drop(db);
        let db = open(&dir);
        assert_eq!(rows(&db, "readings"), 40);
        db.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyzed_stats_survive_reopen_via_wal_replay() {
        let dir = temp_dir("stats_wal");
        let before;
        {
            let db = open(&dir);
            create_table(&db, "readings");
            insert_n(&db, 0, 5);
            let ts = db.analyze_table("readings").unwrap();
            assert_eq!(ts.rows, 5, "the logged stats are returned");
            before = db.stats_catalog().encode();
            assert!(!before.is_empty());
        }
        let db = open(&dir);
        assert_eq!(db.stats_catalog().encode(), before, "stats replayed bitwise-identically");
        assert_eq!(db.stats_catalog().get("readings").unwrap().rows, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyzed_stats_survive_checkpoints() {
        let dir = temp_dir("stats_ckpt");
        let before;
        {
            let db = open(&dir);
            create_table(&db, "readings");
            insert_n(&db, 0, 3);
            db.analyze_table("readings").unwrap();
            db.checkpoint().unwrap();
            assert_eq!(db.wal_len(), 0);
            // Re-analyze after more inserts; the next snapshot carries it.
            insert_n(&db, 3, 2);
            db.analyze_table("readings").unwrap();
            db.checkpoint().unwrap();
            assert_eq!(db.wal_len(), 0);
            before = db.stats_catalog().encode();
        }
        let db = open(&dir);
        assert_eq!(db.recovery().wal_records_replayed, 0, "stats live in the snapshot");
        assert_eq!(db.stats_catalog().encode(), before);
        assert_eq!(db.stats_catalog().get("readings").unwrap().rows, 5, "re-analyze won");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reanalyze_alone_counts_as_checkpoint_work() {
        let dir = temp_dir("stats_new_work");
        let db = open(&dir);
        create_table(&db, "readings");
        insert_n(&db, 0, 2);
        db.checkpoint().unwrap();
        let epoch = db.epoch();
        // ANALYZE with no data change still reaches the snapshot: the
        // catalog went from empty to populated.
        db.analyze_table("readings").unwrap();
        db.checkpoint().unwrap();
        assert_eq!(db.epoch(), epoch + 1);
        let before = db.stats_catalog().encode();
        drop(db);
        let db = open(&dir);
        assert_eq!(db.recovery().wal_records_replayed, 0);
        assert_eq!(db.stats_catalog().encode(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_handle_analyzes_and_round_trips_stats() {
        let dir = temp_dir("stats_shared");
        let db = open(&dir);
        create_table(&db, "readings");
        insert_n(&db, 1, 1);
        db.analyze_table("readings").unwrap();
        db.checkpoint().unwrap();
        let before = db.stats_catalog().encode();
        assert!(!before.is_empty());
        // Every clone of the handle sees the one catalog.
        assert_eq!(db.clone().stats_catalog().encode(), before);
        drop(db);
        let db = open(&dir);
        assert_eq!(db.stats_catalog().encode(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_defs_survive_reopen_via_wal_replay() {
        let dir = temp_dir("index_wal");
        {
            let db = open(&dir);
            create_table(&db, "readings");
            insert_n(&db, 0, 3);
            db.create_index("ix_v", "readings", "v", None).unwrap();
            db.create_index("ix_id", "readings", "id", None).unwrap();
            // Kind is resolved by column certainty when not forced.
            let cat = db.indexes();
            let cat = cat.lock();
            assert_eq!(cat.get("ix_v").unwrap().kind, IndexKind::Cdf);
            assert_eq!(cat.get("ix_id").unwrap().kind, IndexKind::Evx);
        }
        let db = open(&dir);
        let handle = db.indexes();
        let cat = handle.lock();
        assert_eq!(cat.defs().count(), 2, "defs replayed from the WAL");
        assert_eq!(cat.get("ix_v").unwrap().column, "v");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_defs_survive_checkpoints_and_drop_forces_full() {
        let dir = temp_dir("index_ckpt");
        let encoded;
        {
            let db = open(&dir);
            create_table(&db, "readings");
            insert_n(&db, 0, 2);
            db.checkpoint().unwrap();
            let epoch = db.epoch();
            db.create_index("ix_v", "readings", "v", None).unwrap();
            db.checkpoint().unwrap();
            assert_eq!(db.epoch(), epoch + 1);
            assert_eq!(db.wal_len(), 0);
            encoded = db.indexes().lock().encode();
        }
        {
            let db = open(&dir);
            assert_eq!(db.recovery().wal_records_replayed, 0, "defs live in the snapshot");
            assert_eq!(db.indexes().lock().encode(), encoded, "bitwise-identical defs");
        }
        {
            // The snapshot still carries the create record; the next
            // checkpoint rewrites it without the dropped definition.
            let db = open(&dir);
            db.drop_index("ix_v").unwrap();
            db.checkpoint().unwrap();
        }
        let db = open(&dir);
        assert_eq!(db.recovery().wal_records_replayed, 0, "the drop lives in the snapshot");
        assert_eq!(db.indexes().lock().defs().count(), 0, "drop survived recovery");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_index_validates_before_logging() {
        let dir = temp_dir("index_validate");
        let db = open(&dir);
        create_table(&db, "readings");
        assert!(db.create_index("ix", "nope", "v", None).is_err(), "unknown table");
        assert!(db.create_index("ix", "readings", "nope", None).is_err(), "unknown column");
        assert!(
            db.create_index("ix", "readings", "v", Some(IndexKind::Evx)).is_err(),
            "evx over uncertain column"
        );
        assert!(
            db.create_index("ix", "readings", "id", Some(IndexKind::Cdf)).is_err(),
            "cdf over certain column"
        );
        db.create_index("ix", "readings", "v", None).unwrap();
        assert!(db.create_index("ix", "readings", "id", None).is_err(), "duplicate name");
        assert!(db.drop_index("ghost").is_err(), "unknown index drop");
        assert!(db.wal_len() > 0);
        // None of the failed DDL reached the log: recovery sees one def.
        drop(db);
        let db = open(&dir);
        assert_eq!(db.indexes().lock().defs().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dml_bumps_index_staleness_epoch() {
        let dir = temp_dir("index_epoch");
        let db = open(&dir);
        create_table(&db, "readings");
        insert_n(&db, 0, 1);
        // No index defined yet: inserts do not track epochs.
        assert_eq!(db.indexes().lock().epoch("readings"), 0);
        db.create_index("ix_v", "readings", "v", None).unwrap();
        insert_n(&db, 1, 2);
        assert_eq!(db.indexes().lock().epoch("readings"), 2, "one bump per insert");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Tuple records whose frames fit entirely in `wal[..cut]` — the
    /// committed prefix of a log that carries no transaction frames.
    fn bare_tuples_within(wal: &[u8], cut: usize) -> usize {
        let (mut off, mut tuples) = (0usize, 0usize);
        while off + 8 <= cut {
            let len = u32::from_le_bytes(wal[off..off + 4].try_into().unwrap()) as usize;
            if off + 8 + len > cut {
                break;
            }
            if wal[off + 8] == persist::TAG_TUPLE {
                tuples += 1;
            }
            off += 8 + len;
        }
        tuples
    }

    #[test]
    fn unframed_insert_log_replays_at_every_cut() {
        // Logs written before every insert went through a transaction hold
        // bare `schema`, then `base… tuple` records per insert, with the
        // tuple record as the commit point. No writer emits that shape any
        // more, so build it by hand and recover it whole and at every cut.
        let src = temp_dir("unframed_src");
        std::fs::create_dir_all(&src).unwrap();
        let mut rel = Relation::new("readings", schema());
        let mut reg = HistoryRegistry::new();
        {
            let (mut wal, _) = Wal::open(&src.join(WAL_FILE)).unwrap();
            let mut buf = Vec::new();
            persist::encode_schema(&rel, &mut buf);
            wal.append(&buf).unwrap();
            for i in 0..4i64 {
                let before = reg.last_id();
                rel.insert_simple(
                    &mut reg,
                    &[("id", Value::Int(i))],
                    &[("v", Pdf1::gaussian(i as f64, 1.0).unwrap())],
                )
                .unwrap();
                for id in before + 1..=reg.last_id() {
                    buf.clear();
                    persist::encode_base(id, reg.base(id).unwrap(), &mut buf);
                    wal.append(&buf).unwrap();
                }
                buf.clear();
                persist::encode_tuple("readings", rel.tuples.last().unwrap(), &mut buf);
                wal.append(&buf).unwrap();
            }
            wal.sync().unwrap();
        }
        let wal = std::fs::read(src.join(WAL_FILE)).unwrap();
        let db = open(&src);
        assert_eq!(db.recovery().wal_records_replayed, 1 + 2 * 4, "schema + base/tuple pairs");
        db.with_tables(|tables, _| assert_eq!(tables["readings"].tuples, rel.tuples));
        db.check_invariants().unwrap();
        drop(db);
        let scratch = temp_dir("unframed_cut");
        for cut in 0..=wal.len() {
            std::fs::remove_dir_all(&scratch).ok();
            std::fs::create_dir_all(&scratch).unwrap();
            std::fs::write(scratch.join(WAL_FILE), &wal[..cut]).unwrap();
            let db = open(&scratch);
            assert_eq!(rows(&db, "readings"), bare_tuples_within(&wal, cut), "cut at byte {cut}");
            db.check_invariants().unwrap_or_else(|e| panic!("invariants at cut {cut}: {e}"));
        }
        std::fs::remove_dir_all(&src).ok();
        std::fs::remove_dir_all(&scratch).ok();
    }

    #[test]
    fn invariant_checker_catches_dangling_ancestor() {
        let mut reg = HistoryRegistry::new();
        let mut rel = Relation::new("t", schema());
        rel.insert_simple(&mut reg, &[("id", Value::Int(1))], &[("v", Pdf1::certain(1.0))])
            .unwrap();
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), rel);
        check_invariants(&tables, &reg).unwrap();
        // Forcibly remove the base the tuple references.
        let id = reg.iter_bases().map(|(id, _)| id).next().unwrap();
        reg.delete_base(id);
        // delete_base keeps referenced bases as phantoms — dependency is
        // still resolvable, so the invariant holds.
        check_invariants(&tables, &reg).unwrap();
    }
}

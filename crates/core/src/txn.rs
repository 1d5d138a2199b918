//! Snapshot-isolation transactions over [`SharedDurableDb`].
//!
//! A [`Txn`] takes a **private snapshot** of the database at begin — a deep
//! clone of the tables and history registry, taken under the core lock.
//! The invariant that makes this a no-dirty-reads snapshot: every WAL
//! commit and every apply happens under the core lock, and the core holds
//! only durable state. All reads and DML run against that private view;
//! nothing is shared until commit.
//!
//! **Write-set and provenance.** Every DML statement appends a `WriteOp`
//! and tags the affected private rows with where they came from:
//! committed rows are identified by their exact encoded tuple bytes (the
//! *content address* — base-pdf ids make pdf-carrying tuples unique, and
//! byte-equal certain-only duplicates are interchangeable), own inserts
//! and own updates point back at their op. Deleting an own insert voids
//! it; updating an own update amends it — the WAL only ever sees the
//! transaction's *net* effect.
//!
//! **Commit protocol** (first-committer-wins snapshot isolation), all
//! under the core lock:
//!
//! 1. **Validate**: every committed row this transaction deleted or
//!    updated must still exist byte-identically (multiset-counted), and
//!    every table it created must still be free. Any mismatch means a
//!    concurrent transaction committed first — the commit fails with
//!    retryable [`EngineError::TxnConflict`] before touching the WAL, the
//!    registry, or memory, so a conflicted transaction leaves no trace.
//! 2. **Assign ids**: base pdfs this transaction registered (private ids
//!    above the snapshot's high-water mark) are mapped, in ascending
//!    private-id order, onto the next real ids — deterministic in commit
//!    order, exactly what serial inserts would have allocated.
//! 3. **Log**: one atomic [`orion_storage::GroupWal`] batch —
//!    `[begin] [bases] [ops…] [commit]` — using the WAL record tags of
//!    [`crate::persist`]. Recovery applies the group all-or-nothing: a
//!    crash anywhere before the commit marker reaches stable storage
//!    discards the whole transaction.
//! 4. **Apply**: on durable success the same records are fed through
//!    [`crate::persist::apply_record`] into the live tables/registry —
//!    the *identical* decoder recovery uses, so live state and any replay
//!    are bit-for-bit the same. A failed WAL commit applies nothing.

use crate::durable::{SharedCore, SharedDurableDb};
use crate::error::{EngineError, Result};
use crate::history::{HistoryRegistry, PdfId};
use crate::persist::{self, LoadState, TAG_TXN_BEGIN, TAG_TXN_COMMIT};
use crate::relation::Relation;
use crate::schema::ProbSchema;
use crate::tuple::ProbTuple;
use crate::value::Value;
use orion_pdf::prelude::{JointPdf, Pdf1};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Process-global transaction id allocator (ids are never reused).
static NEXT_TXN_ID: AtomicU64 = AtomicU64::new(1);

fn next_txn_id() -> u64 {
    NEXT_TXN_ID.fetch_add(1, Ordering::Relaxed)
}

fn metrics() -> &'static orion_obs::metrics::MetricsRegistry {
    orion_obs::metrics::global()
}

/// A span on the calling thread's `txn` lane, inert while tracing is off.
fn txn_span(name: &'static str) -> orion_obs::Span {
    let t = orion_obs::Tracer::global();
    if !t.enabled() {
        return orion_obs::Span::noop();
    }
    t.thread_lane("txn").span(name, "txn")
}

/// Where a private row came from (parallel to the private table's tuples).
#[derive(Debug, Clone)]
enum RowSrc {
    /// In the snapshot at begin; `bytes` is its content address.
    Committed { bytes: Vec<u8> },
    /// Inserted by this transaction; `ops[op]` is its insert.
    OwnInsert { op: usize },
    /// A committed row this transaction already updated; `ops[op]` is the
    /// update (holding the *original* committed bytes).
    OwnUpdate { op: usize },
}

/// One staged effect, in statement order.
#[derive(Debug, Clone)]
enum WriteOp {
    CreateTable {
        name: String,
        schema: ProbSchema,
    },
    Insert {
        table: String,
        tuple: ProbTuple,
    },
    Delete {
        table: String,
        old: Vec<u8>,
    },
    Update {
        table: String,
        old: Vec<u8>,
        new: ProbTuple,
    },
    /// Cancelled by a later statement of the same transaction (delete of
    /// an own insert). Never reaches the WAL.
    Voided,
}

/// A snapshot-isolation transaction. Obtain via [`Txn::begin`]; finish
/// with [`Txn::commit`] or [`Txn::rollback`] (dropping without either
/// counts as an abort).
#[derive(Debug)]
pub struct Txn {
    db: SharedDurableDb,
    id: u64,
    snapshot_epoch: u64,
    /// Registry high-water mark at begin: private ids above this were
    /// registered by this transaction and get remapped at commit.
    snap_last_base: PdfId,
    /// Private deep clone of the tables (committed ids preserved).
    tables: HashMap<String, Relation>,
    /// Private deep clone of the registry.
    reg: HistoryRegistry,
    /// Row provenance, parallel to each private table's `tuples`.
    src: HashMap<String, Vec<RowSrc>>,
    ops: Vec<WriteOp>,
    /// Live write-op count shared with the `orion.txns` registry.
    writes: Arc<AtomicUsize>,
    finished: bool,
}

impl Txn {
    /// Begins a transaction: deep clones the committed tables + registry
    /// under the core lock as the private view.
    pub fn begin(db: &SharedDurableDb) -> Txn {
        let mut span = txn_span("txn.begin");
        let id = next_txn_id();
        if span.is_recording() {
            span.arg("txid", id);
        }
        metrics().counter("txn_begins").inc();
        let (tables, reg, snapshot_epoch) = {
            let core = db.inner.core.lock();
            (core.tables.clone(), core.reg.clone(), core.epoch)
        };
        let snap_last_base = reg.last_id();
        let src = tables
            .iter()
            .map(|(name, rel)| {
                let rows = rel
                    .tuples
                    .iter()
                    .map(|t| {
                        let mut bytes = Vec::new();
                        persist::encode_tuple(name, t, &mut bytes);
                        RowSrc::Committed { bytes }
                    })
                    .collect();
                (name.clone(), rows)
            })
            .collect();
        let writes = Arc::new(AtomicUsize::new(0));
        db.inner.txns.lock().insert(id, (snapshot_epoch, Arc::clone(&writes)));
        Txn {
            db: db.clone(),
            id,
            snapshot_epoch,
            snap_last_base,
            tables,
            reg,
            src,
            ops: Vec::new(),
            writes,
            finished: false,
        }
    }

    /// Transaction id (process-global, monotonic).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Checkpoint epoch of the database when the snapshot was taken.
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot_epoch
    }

    /// Number of live (non-voided) staged write ops.
    pub fn write_count(&self) -> usize {
        self.ops.iter().filter(|o| !matches!(o, WriteOp::Voided)).count()
    }

    fn note_writes(&self) {
        self.writes.store(self.write_count(), Ordering::Relaxed);
    }

    /// Runs `f` with read access to the private view. The registry is
    /// mutable so query operators can do their reference bookkeeping;
    /// bases they touch are private and never leak into the commit.
    pub fn with_view<R>(
        &mut self,
        f: impl FnOnce(&HashMap<String, Relation>, &mut HistoryRegistry) -> R,
    ) -> R {
        f(&self.tables, &mut self.reg)
    }

    /// One private table, read-only.
    pub fn table(&self, name: &str) -> Result<&Relation> {
        self.tables
            .get(name)
            .ok_or_else(|| EngineError::Operator(format!("unknown table '{name}'")))
    }

    /// Stages a table creation.
    pub fn create_table(&mut self, name: &str, schema: ProbSchema) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(EngineError::Schema(format!("table '{name}' already exists")));
        }
        self.tables.insert(name.to_string(), Relation::new(name, schema.clone()));
        self.src.insert(name.to_string(), Vec::new());
        self.ops.push(WriteOp::CreateTable { name: name.to_string(), schema });
        self.note_writes();
        Ok(())
    }

    /// Stages an insert (see [`Relation::insert`]).
    pub fn insert(
        &mut self,
        table: &str,
        certain: &[(&str, Value)],
        uncertain: Vec<(Vec<&str>, JointPdf)>,
    ) -> Result<()> {
        let rel = self
            .tables
            .get_mut(table)
            .ok_or_else(|| EngineError::Operator(format!("unknown table '{table}'")))?;
        rel.insert(&mut self.reg, certain, uncertain)?;
        let tuple = rel.tuples.last().expect("insert pushed a tuple").clone();
        self.ops.push(WriteOp::Insert { table: table.to_string(), tuple });
        self.src
            .get_mut(table)
            .expect("provenance tracked per table")
            .push(RowSrc::OwnInsert { op: self.ops.len() - 1 });
        self.note_writes();
        Ok(())
    }

    /// Stages an insert of independent 1-D pdfs (see
    /// [`Relation::insert_simple`]).
    pub fn insert_simple(
        &mut self,
        table: &str,
        certain: &[(&str, Value)],
        pdfs: &[(&str, Pdf1)],
    ) -> Result<()> {
        let uncertain =
            pdfs.iter().map(|(name, p)| (vec![*name], JointPdf::from_pdf1(p.clone()))).collect();
        self.insert(table, certain, uncertain)
    }

    /// Stages deletion of every tuple with `remove(tuple) == true`,
    /// mirroring [`Relation::delete_where`]'s history bookkeeping in the
    /// private view. Deleting a row this transaction inserted simply voids
    /// the insert.
    pub fn delete_where(
        &mut self,
        table: &str,
        mut remove: impl FnMut(&ProbTuple) -> bool,
    ) -> Result<usize> {
        let rel = self
            .tables
            .get_mut(table)
            .ok_or_else(|| EngineError::Operator(format!("unknown table '{table}'")))?;
        let src = self.src.get_mut(table).expect("provenance tracked per table");
        let mut removed = 0usize;
        let mut i = 0usize;
        while i < rel.tuples.len() {
            if !remove(&rel.tuples[i]) {
                i += 1;
                continue;
            }
            let t = rel.tuples.remove(i);
            let s = src.remove(i);
            removed += 1;
            for n in &t.nodes {
                self.reg.release_refs(&n.ancestors);
                if n.ancestors.len() == 1 {
                    let id = *n.ancestors.iter().next().expect("len checked");
                    self.reg.delete_base(id);
                }
            }
            match s {
                RowSrc::Committed { bytes } => {
                    self.ops.push(WriteOp::Delete { table: table.to_string(), old: bytes });
                }
                RowSrc::OwnInsert { op } => self.ops[op] = WriteOp::Voided,
                RowSrc::OwnUpdate { op } => {
                    // Net effect: delete the original committed row.
                    let old = match std::mem::replace(&mut self.ops[op], WriteOp::Voided) {
                        WriteOp::Update { old, .. } => old,
                        other => unreachable!("OwnUpdate points at an update, found {other:?}"),
                    };
                    self.ops.push(WriteOp::Delete { table: table.to_string(), old });
                }
            }
        }
        self.note_writes();
        Ok(removed)
    }

    /// Stages an in-place update of every tuple with
    /// `selects(tuple) == true`. `apply` receives a working copy of the
    /// tuple plus the private registry (to register replacement base pdfs
    /// via [`HistoryRegistry::register`] — do **not** `add_refs`; the
    /// transaction diffs old vs new nodes and does all reference
    /// bookkeeping itself, exactly like WAL replay will).
    pub fn update_where(
        &mut self,
        table: &str,
        mut selects: impl FnMut(&ProbTuple) -> bool,
        mut apply: impl FnMut(&mut ProbTuple, &mut HistoryRegistry) -> Result<()>,
    ) -> Result<usize> {
        let rel = self
            .tables
            .get_mut(table)
            .ok_or_else(|| EngineError::Operator(format!("unknown table '{table}'")))?;
        let src = self.src.get_mut(table).expect("provenance tracked per table");
        let mut updated = 0usize;
        // Indexing both parallel vectors (tuples + provenance) by position.
        #[allow(clippy::needless_range_loop)]
        for i in 0..rel.tuples.len() {
            if !selects(&rel.tuples[i]) {
                continue;
            }
            let mut new_t = rel.tuples[i].clone();
            apply(&mut new_t, &mut self.reg)?;
            let old_t = std::mem::replace(&mut rel.tuples[i], new_t.clone());
            diff_nodes(&mut self.reg, &old_t, &new_t);
            updated += 1;
            match &src[i] {
                RowSrc::Committed { bytes } => {
                    self.ops.push(WriteOp::Update {
                        table: table.to_string(),
                        old: bytes.clone(),
                        new: new_t,
                    });
                    src[i] = RowSrc::OwnUpdate { op: self.ops.len() - 1 };
                }
                RowSrc::OwnInsert { op } => {
                    let op = *op;
                    match &mut self.ops[op] {
                        WriteOp::Insert { tuple, .. } => *tuple = new_t,
                        other => unreachable!("OwnInsert points at an insert, found {other:?}"),
                    }
                }
                RowSrc::OwnUpdate { op } => {
                    let op = *op;
                    match &mut self.ops[op] {
                        WriteOp::Update { new, .. } => *new = new_t,
                        other => unreachable!("OwnUpdate points at an update, found {other:?}"),
                    }
                }
            }
        }
        self.note_writes();
        Ok(updated)
    }

    /// Commits: validate → assign ids → atomic WAL batch → apply to the
    /// shared state through the replay decoder. Returns the commit
    /// sequence number. On [`EngineError::TxnConflict`] (retryable) or a
    /// WAL failure, nothing is applied anywhere and the transaction is
    /// gone without trace.
    pub fn commit(mut self) -> Result<u64> {
        self.finished = true;
        let started = std::time::Instant::now();
        let mut span = txn_span("txn.commit");
        if span.is_recording() {
            span.arg("txid", self.id);
            span.arg("writes", self.write_count() as u64);
        }
        let db = self.db.clone();
        let live: Vec<WriteOp> =
            self.ops.iter().filter(|o| !matches!(o, WriteOp::Voided)).cloned().collect();
        db.inner.txns.lock().remove(&self.id);
        if live.is_empty() {
            // Read-only (or fully self-cancelled): nothing to validate,
            // log, or apply.
            metrics().counter("txn_commits").inc();
            metrics().histogram("txn.commit_nanos").record(started.elapsed().as_nanos() as u64);
            return Ok(db.inner.core.lock().commit_seq);
        }
        let mut core = db.inner.core.lock();
        if let Err(e) = validate(&core, &live) {
            metrics().counter("txn_conflicts").inc();
            return Err(e);
        }
        // Fresh base pdfs referenced by the surviving ops, mapped onto the
        // next real ids in ascending private-id order — the ids serial
        // inserts would have allocated in commit order.
        let mut needed: BTreeSet<PdfId> = BTreeSet::new();
        for op in &live {
            match op {
                WriteOp::Insert { tuple, .. } | WriteOp::Update { new: tuple, .. } => {
                    for n in &tuple.nodes {
                        for d in &n.dims {
                            if d.var.base > self.snap_last_base {
                                needed.insert(d.var.base);
                            }
                        }
                        for &a in &n.ancestors {
                            if a > self.snap_last_base {
                                needed.insert(a);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        let mut map: HashMap<PdfId, PdfId> = HashMap::with_capacity(needed.len());
        let mut next = core.reg.last_id();
        for &pid in &needed {
            next += 1;
            map.insert(pid, next);
        }
        // Build the atomic WAL batch: [begin] [bases] [ops…] [commit].
        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(live.len() + needed.len() + 2);
        let mut buf = Vec::new();
        persist::encode_txn_marker(TAG_TXN_BEGIN, self.id, &mut buf);
        payloads.push(std::mem::take(&mut buf));
        for (&pid, &rid) in needed.iter().map(|p| (p, &map[p])) {
            let base = self.reg.base(pid)?;
            persist::encode_base(rid, base, &mut buf);
            payloads.push(std::mem::take(&mut buf));
        }
        let mut touched: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for op in &live {
            match op {
                WriteOp::CreateTable { name, schema } => {
                    persist::encode_schema(&Relation::new(name.clone(), schema.clone()), &mut buf);
                }
                WriteOp::Insert { table, tuple } => {
                    touched.insert(table.clone());
                    persist::encode_tuple(table, &remap_tuple(tuple, &map), &mut buf);
                }
                WriteOp::Delete { table, old } => {
                    touched.insert(table.clone());
                    persist::encode_delete(table, old, &mut buf);
                }
                WriteOp::Update { table, old, new } => {
                    touched.insert(table.clone());
                    let mut new_rec = Vec::new();
                    persist::encode_tuple(table, &remap_tuple(new, &map), &mut new_rec);
                    persist::encode_update(table, old, &new_rec, &mut buf);
                }
                WriteOp::Voided => unreachable!("voided ops were filtered"),
            }
            payloads.push(std::mem::take(&mut buf));
        }
        persist::encode_txn_marker(TAG_TXN_COMMIT, self.id, &mut buf);
        payloads.push(std::mem::take(&mut buf));
        // One atomic group-commit batch, under the core lock: no
        // concurrent record can interleave inside the transaction's frame.
        if let Err(e) = db.inner.wal.commit(&payloads) {
            metrics().counter("txn_aborts").inc();
            return Err(e.into());
        }
        // Durable — apply through the same decoder recovery uses, so the
        // live state is bit-for-bit what any replay rebuilds.
        let mut ls = LoadState::default();
        std::mem::swap(&mut ls.tables, &mut core.tables);
        std::mem::swap(&mut ls.reg, &mut core.reg);
        let mut apply_err = None;
        for rec in &payloads {
            if persist::txn_marker(rec).is_some() {
                continue;
            }
            if let Err(e) = persist::apply_record(rec, &mut ls) {
                apply_err = Some(e);
                break;
            }
        }
        let (tables, reg) = ls.finish();
        core.tables = tables;
        core.reg = reg;
        if let Some(e) = apply_err {
            // Unreachable by construction (we just encoded these records);
            // surfaced as corruption rather than silently diverging from
            // the WAL.
            return Err(e);
        }
        // Invalidate secondary indexes over every table this transaction
        // wrote: built trees carry tuple positions, which DML shifts.
        {
            let mut cat = core.indexes.lock();
            for table in &touched {
                cat.note_mutation(table);
            }
        }
        core.commit_seq += 1;
        let seq = core.commit_seq;
        drop(core);
        metrics().counter("txn_commits").inc();
        metrics().histogram("txn.commit_nanos").record(started.elapsed().as_nanos() as u64);
        if span.is_recording() {
            span.arg("commit_seq", seq);
        }
        Ok(seq)
    }

    /// Rolls the transaction back: the private view is discarded, nothing
    /// was ever shared or logged.
    pub fn rollback(mut self) {
        self.finished = true;
        let mut span = txn_span("txn.abort");
        if span.is_recording() {
            span.arg("txid", self.id);
        }
        self.db.inner.txns.lock().remove(&self.id);
        metrics().counter("txn_aborts").inc();
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            self.db.inner.txns.lock().remove(&self.id);
            metrics().counter("txn_aborts").inc();
        }
    }
}

/// First-committer-wins validation against the current committed state.
fn validate(core: &SharedCore, live: &[WriteOp]) -> Result<()> {
    // Per-table multiset of committed content addresses this transaction
    // consumed (deleted or updated).
    let mut needs: HashMap<&str, HashMap<&[u8], usize>> = HashMap::new();
    for op in live {
        match op {
            WriteOp::CreateTable { name, .. } => {
                if core.tables.contains_key(name) {
                    return Err(EngineError::TxnConflict(format!(
                        "table '{name}' was created concurrently"
                    )));
                }
            }
            WriteOp::Delete { table, old } | WriteOp::Update { table, old, .. } => {
                *needs.entry(table.as_str()).or_default().entry(old.as_slice()).or_insert(0) += 1;
            }
            WriteOp::Insert { table, .. } => {
                // Tables cannot be dropped, so an insert target that
                // existed at snapshot (or is created by this txn) still
                // exists; nothing to validate.
                let _ = table;
            }
            WriteOp::Voided => unreachable!("voided ops were filtered"),
        }
    }
    for (table, wanted) in &needs {
        let rel = core.tables.get(*table).ok_or_else(|| {
            EngineError::TxnConflict(format!("table '{table}' vanished before commit"))
        })?;
        let mut have: HashMap<&[u8], usize> = wanted.keys().map(|k| (*k, 0usize)).collect();
        let mut buf = Vec::new();
        for t in &rel.tuples {
            buf.clear();
            persist::encode_tuple(table, t, &mut buf);
            if let Some(n) = have.get_mut(buf.as_slice()) {
                *n += 1;
            }
        }
        for (bytes, &need_n) in wanted {
            if have[bytes] < need_n {
                return Err(EngineError::TxnConflict(format!(
                    "a row written in '{table}' changed since this transaction's snapshot \
                     (need {need_n} matching, found {})",
                    have[bytes]
                )));
            }
        }
    }
    Ok(())
}

/// Rewrites a tuple's private base ids onto their committed ids — both the
/// ancestor sets and every dimension's variable identity.
fn remap_tuple(t: &ProbTuple, map: &HashMap<PdfId, PdfId>) -> ProbTuple {
    if map.is_empty() {
        return t.clone();
    }
    let mut t = t.clone();
    for n in &mut t.nodes {
        for d in &mut n.dims {
            if let Some(&rid) = map.get(&d.var.base) {
                d.var.base = rid;
            }
        }
        n.ancestors = n.ancestors.iter().map(|a| map.get(a).copied().unwrap_or(*a)).collect();
    }
    t
}

/// Reference bookkeeping for an in-place tuple replacement, position-wise
/// over the nodes — the same logic [`crate::persist::apply_record`] runs
/// for an update record, so private view and replay stay identical. New
/// references are taken before old ones are released, so a base shared by
/// both sides can never transiently hit refcount zero.
fn diff_nodes(reg: &mut HistoryRegistry, old_t: &ProbTuple, new_t: &ProbTuple) {
    for i in 0..old_t.nodes.len().max(new_t.nodes.len()) {
        if old_t.nodes.get(i) == new_t.nodes.get(i) {
            continue;
        }
        if let Some(nw) = new_t.nodes.get(i) {
            reg.add_refs(&nw.ancestors);
        }
        if let Some(o) = old_t.nodes.get(i) {
            reg.release_refs(&o.ancestors);
            if o.ancestors.len() == 1 {
                let id = *o.ancestors.iter().next().expect("len checked");
                reg.delete_base(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use orion_storage::GroupCommitConfig;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("orion_txn_test").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn schema() -> ProbSchema {
        ProbSchema::new(vec![("id", ColumnType::Int, false), ("v", ColumnType::Real, true)], vec![])
            .unwrap()
    }

    fn open(dir: &std::path::Path) -> SharedDurableDb {
        SharedDurableDb::open(dir, GroupCommitConfig::default()).unwrap()
    }

    fn id_of(t: &ProbTuple) -> i64 {
        match t.certain[0] {
            Value::Int(i) => i,
            _ => panic!("id is an int"),
        }
    }

    #[test]
    fn txn_commit_is_atomic_and_durable() {
        let dir = temp_dir("commit");
        let db = open(&dir);
        let mut txn = Txn::begin(&db);
        txn.create_table("readings", schema()).unwrap();
        for i in 0..3 {
            txn.insert_simple(
                "readings",
                &[("id", Value::Int(i))],
                &[("v", Pdf1::gaussian(i as f64, 1.0).unwrap())],
            )
            .unwrap();
        }
        // Nothing visible before commit.
        db.with_tables(|tables, _| assert!(tables.is_empty()));
        let seq = txn.commit().unwrap();
        assert_eq!(seq, 1);
        db.with_tables(|tables, _| assert_eq!(tables["readings"].len(), 3));
        db.check_invariants().unwrap();
        drop(db);
        let re = open(&dir);
        re.with_tables(|tables, _| assert_eq!(tables["readings"].len(), 3));
        re.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_and_update_survive_recovery() {
        let dir = temp_dir("dml");
        let db = open(&dir);
        let mut t0 = Txn::begin(&db);
        t0.create_table("readings", schema()).unwrap();
        for i in 0..4 {
            t0.insert_simple(
                "readings",
                &[("id", Value::Int(i))],
                &[("v", Pdf1::gaussian(i as f64, 1.0).unwrap())],
            )
            .unwrap();
        }
        t0.commit().unwrap();

        let mut t1 = Txn::begin(&db);
        assert_eq!(t1.delete_where("readings", |t| id_of(t) == 2).unwrap(), 1);
        let updated = t1
            .update_where(
                "readings",
                |t| id_of(t) == 3,
                |t, reg| {
                    // Replace the pdf node with a fresh certain value.
                    let joint = JointPdf::from_pdf1(Pdf1::certain(99.0));
                    let old_attr = t.nodes[0].dims[0].column.expect("visible column");
                    let id = reg.register(vec![old_attr], joint.clone());
                    t.nodes[0] = crate::tuple::PdfNode::base(
                        id,
                        &[old_attr],
                        joint,
                        [id].into_iter().collect(),
                    );
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(updated, 1);
        t1.commit().unwrap();

        db.with_tables(|tables, _| {
            let ids: Vec<i64> = tables["readings"].tuples.iter().map(id_of).collect();
            assert_eq!(ids, vec![0, 1, 3]);
        });
        db.check_invariants().unwrap();
        drop(db);
        let re = open(&dir);
        re.with_tables(|tables, _| {
            let rel = &tables["readings"];
            let ids: Vec<i64> = rel.tuples.iter().map(id_of).collect();
            assert_eq!(ids, vec![0, 1, 3]);
            let m = rel.marginal(2, "v").unwrap();
            assert!((m.expected_value().unwrap() - 99.0).abs() < 1e-9, "update replayed");
        });
        re.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn first_committer_wins_and_loser_retries() {
        let dir = temp_dir("conflict");
        let db = open(&dir);
        let mut t0 = Txn::begin(&db);
        t0.create_table("readings", schema()).unwrap();
        t0.insert_simple("readings", &[("id", Value::Int(1))], &[("v", Pdf1::certain(1.0))])
            .unwrap();
        t0.commit().unwrap();

        let mut a = Txn::begin(&db);
        let mut b = Txn::begin(&db);
        a.delete_where("readings", |t| id_of(t) == 1).unwrap();
        b.delete_where("readings", |t| id_of(t) == 1).unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(matches!(err, EngineError::TxnConflict(_)), "got {err}");
        assert!(err.is_retryable());
        // Retry on a fresh snapshot: the row is gone, nothing to delete.
        let mut b2 = Txn::begin(&db);
        assert_eq!(b2.delete_where("readings", |t| id_of(t) == 1).unwrap(), 0);
        b2.commit().unwrap();
        db.with_tables(|tables, _| assert_eq!(tables["readings"].len(), 0));
        db.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rollback_and_self_cancel_leave_no_trace() {
        let dir = temp_dir("rollback");
        let db = open(&dir);
        let mut t0 = Txn::begin(&db);
        t0.create_table("readings", schema()).unwrap();
        t0.commit().unwrap();
        let wal_before = db.wal_len();

        // Rolled-back txn: nothing logged, nothing applied.
        let mut t1 = Txn::begin(&db);
        t1.insert_simple("readings", &[("id", Value::Int(1))], &[("v", Pdf1::certain(1.0))])
            .unwrap();
        t1.rollback();
        assert_eq!(db.wal_len(), wal_before, "rollback writes nothing");
        db.with_tables(|tables, reg| {
            assert_eq!(tables["readings"].len(), 0);
            assert_eq!(reg.len(), 0, "no base pdfs leaked");
        });

        // Insert-then-delete inside one txn nets to zero: commit is a
        // no-op on the WAL.
        let mut t2 = Txn::begin(&db);
        t2.insert_simple("readings", &[("id", Value::Int(2))], &[("v", Pdf1::certain(2.0))])
            .unwrap();
        assert_eq!(t2.delete_where("readings", |t| id_of(t) == 2).unwrap(), 1);
        t2.commit().unwrap();
        assert_eq!(db.wal_len(), wal_before, "self-cancelled txn writes nothing");
        db.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_reads_ignore_concurrent_commits() {
        let dir = temp_dir("snapshot");
        let db = open(&dir);
        let mut t0 = Txn::begin(&db);
        t0.create_table("readings", schema()).unwrap();
        t0.insert_simple("readings", &[("id", Value::Int(1))], &[("v", Pdf1::certain(1.0))])
            .unwrap();
        t0.commit().unwrap();

        let reader = Txn::begin(&db);
        // A concurrent writer commits an insert.
        let mut writer = Txn::begin(&db);
        writer
            .insert_simple("readings", &[("id", Value::Int(2))], &[("v", Pdf1::certain(2.0))])
            .unwrap();
        writer.commit().unwrap();
        // The reader's snapshot still sees exactly one row.
        assert_eq!(reader.table("readings").unwrap().len(), 1);
        reader.commit().unwrap();
        db.with_tables(|tables, _| assert_eq!(tables["readings"].len(), 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn active_txns_reports_live_transactions() {
        let dir = temp_dir("active");
        let db = open(&dir);
        let mut t0 = Txn::begin(&db);
        t0.create_table("readings", schema()).unwrap();
        t0.commit().unwrap();
        assert!(db.active_txns().is_empty(), "committed txns drop out");
        let mut t1 = Txn::begin(&db);
        t1.insert_simple("readings", &[("id", Value::Int(1))], &[("v", Pdf1::certain(1.0))])
            .unwrap();
        let rows = db.active_txns();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id, t1.id());
        assert_eq!(rows[0].snapshot_epoch, t1.snapshot_epoch());
        assert_eq!(rows[0].writes, 1);
        t1.rollback();
        assert!(db.active_txns().is_empty(), "rolled-back txns drop out");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_wal_commit_applies_nothing() {
        let dir = temp_dir("wal_fail");
        let db = open(&dir);
        let mut t0 = Txn::begin(&db);
        t0.create_table("readings", schema()).unwrap();
        t0.commit().unwrap();
        let reg_before = db.with_tables(|_, reg| reg.last_id());

        #[cfg(feature = "failpoints")]
        {
            let mut t1 = Txn::begin(&db);
            t1.insert_simple("readings", &[("id", Value::Int(1))], &[("v", Pdf1::certain(1.0))])
                .unwrap();
            db.inject_wal_sync_failure();
            let err = t1.commit().unwrap_err();
            assert!(!matches!(err, EngineError::TxnConflict(_)));
            db.with_tables(|tables, reg| {
                assert_eq!(tables["readings"].len(), 0, "failed commit applies nothing");
                assert_eq!(reg.last_id(), reg_before, "no base ids consumed durably");
            });
            db.check_invariants().unwrap();
            // The database remains fully usable.
            let mut t2 = Txn::begin(&db);
            t2.insert_simple("readings", &[("id", Value::Int(1))], &[("v", Pdf1::certain(1.0))])
                .unwrap();
            t2.commit().unwrap();
            db.with_tables(|tables, _| assert_eq!(tables["readings"].len(), 1));
        }
        #[cfg(not(feature = "failpoints"))]
        let _ = reg_before;
        std::fs::remove_dir_all(&dir).ok();
    }
}

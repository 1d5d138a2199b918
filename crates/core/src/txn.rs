//! Snapshot-isolation transactions over [`SharedDurableDb`].
//!
//! A [`Txn`] takes a **snapshot** of the database at begin: a clone of the
//! committed tables and history registry, taken under the core lock. Both
//! are shared copy-on-write ([`Relation::tuples`] is an `Arc`, the registry
//! is segmented), so the clone copies pointers, not tuples, and encodes
//! nothing. The invariant that makes this a no-dirty-reads snapshot: every
//! WAL commit and every apply happens under the core lock, and the core
//! holds only durable state. All reads and DML run against the snapshot;
//! nothing is shared until commit.
//!
//! **Write-set and provenance.** Every DML statement appends a `WriteOp`.
//! An INSERT keeps its new row in the write set only: the table's view
//! still shares the committed tuples. A table gets a **private copy** (the
//! committed tuples plus the pending inserts) only when the transaction
//! deletes or updates one of its rows, or reads it after writing it. Rows
//! of a private copy are tagged with where they came from: a committed row
//! is identified by its exact encoded tuple bytes (the *content address* —
//! base-pdf ids make pdf-carrying tuples unique, and byte-equal
//! certain-only duplicates are interchangeable), encoded only when a
//! DELETE or UPDATE claims it; own inserts and own updates point back at
//! their op. Deleting an own insert voids it; updating an own update
//! amends it — the WAL only ever sees the transaction's *net* effect.
//!
//! **Commit protocol** (first-committer-wins snapshot isolation). The
//! snapshot is dropped first, so applying the commit writes the committed
//! tuples and registry segments in place unless a concurrent reader still
//! holds them (that reader's version is then copied once). Then, under the
//! core lock:
//!
//! 1. **Validate**: every committed row this transaction deleted or
//!    updated must still exist byte-identically (multiset-counted), and
//!    every table it created must still be free. A table no commit has
//!    written since this transaction began (its commit stamp has not
//!    moved) still holds every row the snapshot held and is not scanned.
//!    Any mismatch means a concurrent transaction committed first — the
//!    commit fails with retryable [`EngineError::TxnConflict`] before
//!    touching the WAL, the registry, or memory, so a conflicted
//!    transaction leaves no trace.
//! 2. **Assign ids**: base pdfs this transaction registered (private ids
//!    above the snapshot's high-water mark) are mapped, in ascending
//!    private-id order, onto the next real ids — deterministic in commit
//!    order, exactly what serial inserts would have allocated.
//! 3. **Log**: one group record — `[bases] [ops…]`, built by
//!    [`crate::persist::encode_group`] from the record encodings of
//!    [`crate::persist`] — committed through [`orion_storage::GroupWal`]
//!    as one length+CRC frame. Replay stops at the first torn frame, so a
//!    crash anywhere before the whole frame reaches stable storage
//!    discards the whole transaction.
//! 4. **Apply**: on durable success the same group record is fed through
//!    [`crate::persist::apply_record`] into the live tables/registry —
//!    the *identical* decoder recovery uses, so live state and any replay
//!    are bit-for-bit the same. A failed WAL commit applies nothing.

use crate::durable::{SharedCore, SharedDurableDb};
use crate::error::{EngineError, Result};
use crate::history::{BasePdf, HistoryRegistry, PdfId};
use crate::persist::{self, LoadState};
use crate::relation::Relation;
use crate::schema::ProbSchema;
use crate::tuple::ProbTuple;
use crate::value::Value;
use orion_obs::{Counter, Histogram};
use orion_pdf::prelude::{JointPdf, Pdf1};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Process-global transaction id allocator (ids are never reused).
static NEXT_TXN_ID: AtomicU64 = AtomicU64::new(1);

fn next_txn_id() -> u64 {
    NEXT_TXN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Transaction counters of one durable engine, the `txn_*` rows of its
/// `orion.metrics` table (see [`SharedDurableDb::txn_stats`]).
#[derive(Debug, Default)]
pub struct TxnStats {
    /// Transactions begun.
    pub begins: Counter,
    /// Transactions committed (read-only ones included).
    pub commits: Counter,
    /// Commits refused by first-committer-wins validation.
    pub conflicts: Counter,
    /// Rollbacks, failed WAL commits, and transactions dropped unfinished.
    pub aborts: Counter,
    /// Wall time of each successful commit, in nanoseconds.
    pub commit_nanos: Histogram,
}

fn unknown_table(name: &str) -> EngineError {
    EngineError::Operator(format!("unknown table '{name}'"))
}

/// Where a row of a private table copy came from (parallel to its tuples).
#[derive(Debug, Clone, Copy)]
enum RowSrc {
    /// In the snapshot at begin (its content address is encoded when a
    /// DELETE or UPDATE claims it).
    Committed,
    /// Inserted by this transaction; `ops[op]` is its insert.
    OwnInsert { op: usize },
    /// A committed row this transaction already updated; `ops[op]` is the
    /// update (holding the *original* committed bytes).
    OwnUpdate { op: usize },
}

/// What this transaction wrote to one table beyond the committed version
/// its snapshot shares.
#[derive(Debug, Default)]
struct Staged {
    /// Row provenance, parallel to the view's tuples, once the table has a
    /// private copy; `None` while the view shares the committed tuples.
    rows: Option<Vec<RowSrc>>,
    /// Inserts (indices into `ops`) not yet appended to the view; empty
    /// once the table has a private copy.
    pending: Vec<usize>,
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
    /// Commit sequence number at begin: a table whose commit stamp is not
    /// above it is unchanged since the snapshot.
    begin_seq: u64,
    /// Registry high-water mark at begin: private ids above this were
    /// registered by this transaction and get remapped at commit.
    snap_last_base: PdfId,
    /// The tables as this transaction sees them (committed ids preserved).
    /// A table without a private copy shares the committed tuples.
    tables: HashMap<String, Relation>,
    /// The registry as this transaction sees it (copy-on-write segments).
    reg: HistoryRegistry,
    /// Per-table write state, for tables this transaction wrote.
    staged: HashMap<String, Staged>,
    ops: Vec<WriteOp>,
    /// Live write-op count shared with the `orion.txns` registry.
    writes: Arc<AtomicUsize>,
    finished: bool,
}

impl Txn {
    /// Begins a transaction: clones the committed tables and registry under
    /// the core lock as the snapshot. The clone shares all tuple storage
    /// and registry segments with the committed state (O(tables +
    /// segments), nothing encoded).
    pub fn begin(db: &SharedDurableDb) -> Txn {
        let id = next_txn_id();
        db.inner.txn_stats.begins.inc();
        let (tables, reg, snapshot_epoch, begin_seq) = {
            let core = db.inner.core.lock();
            (core.tables.clone(), core.reg.clone(), core.epoch, core.commit_seq)
        };
        let snap_last_base = reg.last_id();
        let writes = Arc::new(AtomicUsize::new(0));
        db.inner.txns.lock().insert(id, (snapshot_epoch, Arc::clone(&writes)));
        Txn {
            db: db.clone(),
            id,
            snapshot_epoch,
            begin_seq,
            snap_last_base,
            tables,
            reg,
            staged: HashMap::new(),
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

    /// Gives `table` its private copy, once: the committed tuples (copied
    /// unless this transaction created the table) followed by its pending
    /// inserts.
    fn materialize(&mut self, table: &str) -> Result<()> {
        let rel = self.tables.get_mut(table).ok_or_else(|| unknown_table(table))?;
        let staged = self.staged.entry(table.to_string()).or_default();
        if staged.rows.is_some() {
            return Ok(());
        }
        let mut rows = vec![RowSrc::Committed; rel.len()];
        let tuples = rel.tuples_mut();
        for op in std::mem::take(&mut staged.pending) {
            match &self.ops[op] {
                WriteOp::Insert { tuple, .. } => tuples.push(tuple.clone()),
                other => unreachable!("a pending insert points at an insert, found {other:?}"),
            }
            rows.push(RowSrc::OwnInsert { op });
        }
        staged.rows = Some(rows);
        Ok(())
    }

    /// Gives every table with pending inserts its private copy, so the view
    /// shows this transaction's own writes.
    fn materialize_pending(&mut self) -> Result<()> {
        let pending: Vec<String> = self
            .staged
            .iter()
            .filter(|(_, s)| !s.pending.is_empty())
            .map(|(name, _)| name.clone())
            .collect();
        pending.iter().try_for_each(|name| self.materialize(name))
    }

    /// Position of the first row of `table`'s view that `pick` selects.
    /// The table gets its private copy only when some row matches.
    fn claim_first(
        &mut self,
        table: &str,
        pick: &mut impl FnMut(&ProbTuple) -> bool,
    ) -> Result<Option<usize>> {
        if self.staged.get(table).is_some_and(|s| !s.pending.is_empty()) {
            self.materialize(table)?;
        }
        let rel = self.tables.get(table).ok_or_else(|| unknown_table(table))?;
        let Some(first) = rel.tuples.iter().position(pick) else { return Ok(None) };
        self.materialize(table)?;
        Ok(Some(first))
    }

    /// Runs `f` with read access to the view and its registry, own writes
    /// included.
    pub fn with_view<R>(
        &mut self,
        f: impl FnOnce(&HashMap<String, Relation>, &HistoryRegistry) -> R,
    ) -> R {
        self.materialize_pending().expect("pending inserts name tables of the view");
        f(&self.tables, &self.reg)
    }

    /// One table of the view, own writes included.
    pub fn table(&mut self, name: &str) -> Result<&Relation> {
        if self.staged.get(name).is_some_and(|s| !s.pending.is_empty()) {
            self.materialize(name)?;
        }
        self.tables.get(name).ok_or_else(|| unknown_table(name))
    }

    /// The schema of one table of the view.
    pub fn schema(&self, name: &str) -> Result<&ProbSchema> {
        self.tables.get(name).map(|rel| &rel.schema).ok_or_else(|| unknown_table(name))
    }

    /// Stages a table creation.
    pub fn create_table(&mut self, name: &str, schema: ProbSchema) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(EngineError::Schema(format!("table '{name}' already exists")));
        }
        self.tables.insert(name.to_string(), Relation::new(name, schema.clone()));
        self.staged.insert(name.to_string(), Staged { rows: Some(Vec::new()), pending: vec![] });
        self.ops.push(WriteOp::CreateTable { name: name.to_string(), schema });
        self.note_writes();
        Ok(())
    }

    /// Stages an insert (see [`Relation::insert`]). The new row joins the
    /// write set; the view's tuples are copied only if the table already
    /// has a private copy.
    pub fn insert(
        &mut self,
        table: &str,
        certain: &[(&str, Value)],
        uncertain: Vec<(Vec<&str>, JointPdf)>,
    ) -> Result<()> {
        let rel = self.tables.get(table).ok_or_else(|| unknown_table(table))?;
        let tuple = rel.build_tuple(&mut self.reg, certain, uncertain)?;
        let op = self.ops.len();
        let staged = self.staged.entry(table.to_string()).or_default();
        match &mut staged.rows {
            Some(rows) => {
                let rel = self.tables.get_mut(table).expect("table looked up above");
                rel.tuples_mut().push(tuple.clone());
                rows.push(RowSrc::OwnInsert { op });
            }
            None => staged.pending.push(op),
        }
        self.ops.push(WriteOp::Insert { table: table.to_string(), tuple });
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
    /// view. Deleting a row this transaction inserted simply voids the
    /// insert.
    pub fn delete_where(
        &mut self,
        table: &str,
        mut remove: impl FnMut(&ProbTuple) -> bool,
    ) -> Result<usize> {
        let Some(first) = self.claim_first(table, &mut remove)? else { return Ok(0) };
        let tuples = self.tables.get_mut(table).expect("claimed table").tuples_mut();
        let rows = self.staged.get_mut(table).and_then(|s| s.rows.as_mut()).expect("claimed");
        let old_rows = std::mem::replace(rows, Vec::with_capacity(rows.len()));
        let old_tuples = std::mem::replace(tuples, Vec::with_capacity(tuples.len()));
        let mut removed = 0usize;
        for (i, (t, s)) in old_tuples.into_iter().zip(old_rows).enumerate() {
            if i < first || (i > first && !remove(&t)) {
                tuples.push(t);
                rows.push(s);
                continue;
            }
            removed += 1;
            for n in &t.nodes {
                self.reg.release_refs(&n.ancestors);
                if n.ancestors.len() == 1 {
                    let id = *n.ancestors.iter().next().expect("len checked");
                    self.reg.delete_base(id);
                }
            }
            match s {
                RowSrc::Committed => {
                    let mut old = Vec::new();
                    persist::encode_tuple(table, &t, &mut old);
                    self.ops.push(WriteOp::Delete { table: table.to_string(), old });
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
        let Some(first) = self.claim_first(table, &mut selects)? else { return Ok(0) };
        let tuples = self.tables.get_mut(table).expect("claimed table").tuples_mut();
        let rows = self.staged.get_mut(table).and_then(|s| s.rows.as_mut()).expect("claimed");
        let mut updated = 0usize;
        // Indexing both parallel vectors (tuples + provenance) by position.
        #[allow(clippy::needless_range_loop)]
        for i in first..tuples.len() {
            if i > first && !selects(&tuples[i]) {
                continue;
            }
            let mut new_t = tuples[i].clone();
            apply(&mut new_t, &mut self.reg)?;
            let old_t = std::mem::replace(&mut tuples[i], new_t.clone());
            diff_nodes(&mut self.reg, &old_t, &new_t);
            updated += 1;
            match rows[i] {
                RowSrc::Committed => {
                    let mut old = Vec::new();
                    persist::encode_tuple(table, &old_t, &mut old);
                    self.ops.push(WriteOp::Update { table: table.to_string(), old, new: new_t });
                    rows[i] = RowSrc::OwnUpdate { op: self.ops.len() - 1 };
                }
                RowSrc::OwnInsert { op } => match &mut self.ops[op] {
                    WriteOp::Insert { tuple, .. } => *tuple = new_t,
                    other => unreachable!("OwnInsert points at an insert, found {other:?}"),
                },
                RowSrc::OwnUpdate { op } => match &mut self.ops[op] {
                    WriteOp::Update { new, .. } => *new = new_t,
                    other => unreachable!("OwnUpdate points at an update, found {other:?}"),
                },
            }
        }
        self.note_writes();
        Ok(updated)
    }

    /// Commits: drop the snapshot → validate → assign ids → atomic WAL
    /// batch → apply to the shared state through the replay decoder.
    /// Returns the commit sequence number. On [`EngineError::TxnConflict`]
    /// (retryable) or a WAL failure, nothing is applied anywhere and the
    /// transaction is gone without trace.
    pub fn commit(mut self) -> Result<u64> {
        self.finished = true;
        let started = std::time::Instant::now();
        let db = self.db.clone();
        let live: Vec<WriteOp> =
            self.ops.iter().filter(|o| !matches!(o, WriteOp::Voided)).cloned().collect();
        db.inner.txns.lock().remove(&self.id);
        if live.is_empty() {
            // Read-only (or fully self-cancelled): nothing to validate,
            // log, or apply.
            db.inner.txn_stats.commits.inc();
            db.inner.txn_stats.commit_nanos.record_duration(started.elapsed());
            return Ok(db.inner.core.lock().commit_seq);
        }
        // Fresh base pdfs referenced by the surviving ops, by private id.
        let mut needed: BTreeMap<PdfId, BasePdf> = BTreeMap::new();
        for op in &live {
            match op {
                WriteOp::Insert { tuple, .. } | WriteOp::Update { new: tuple, .. } => {
                    for n in &tuple.nodes {
                        let dims = n.dims.iter().map(|d| d.var.base);
                        for pid in dims.chain(n.ancestors.iter().copied()) {
                            if pid > self.snap_last_base && !needed.contains_key(&pid) {
                                needed.insert(pid, self.reg.base(pid)?.clone());
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        // Drop the snapshot before applying: with no other holder, the
        // committed tuples and registry segments are then written in place.
        self.tables = HashMap::new();
        self.reg = HistoryRegistry::new();
        let mut core = db.inner.core.lock();
        if let Err(e) = validate(&core, &live, self.begin_seq) {
            db.inner.txn_stats.conflicts.inc();
            return Err(e);
        }
        // Fresh bases mapped onto the next real ids in ascending private-id
        // order — the ids serial inserts would have allocated in commit
        // order.
        let map: HashMap<PdfId, PdfId> =
            needed.keys().zip(core.reg.last_id() + 1..).map(|(&pid, rid)| (pid, rid)).collect();
        // One group record — [bases] [ops…] — logged as one WAL frame.
        let mut members: Vec<Vec<u8>> = Vec::with_capacity(needed.len() + live.len());
        for (pid, base) in &needed {
            let mut buf = Vec::new();
            persist::encode_base(map[pid], base, &mut buf);
            members.push(buf);
        }
        let mut touched: BTreeSet<String> = BTreeSet::new();
        for op in &live {
            let mut buf = Vec::new();
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
            members.push(buf);
        }
        let mut group = Vec::new();
        persist::encode_group(&members, &mut group);
        // Logged under the core lock: no concurrent commit can land between
        // this frame and its apply.
        if let Err(e) = db.inner.wal.commit(&group) {
            db.inner.txn_stats.aborts.inc();
            return Err(e.into());
        }
        // Durable — apply through the same decoder recovery uses, so the
        // live state is bit-for-bit what any replay rebuilds.
        let mut ls = LoadState::default();
        std::mem::swap(&mut ls.tables, &mut core.tables);
        std::mem::swap(&mut ls.reg, &mut core.reg);
        let apply_err = persist::apply_record(&group, &mut ls).err();
        let (tables, reg) = ls.finish();
        core.tables = tables;
        core.reg = reg;
        if let Some(e) = apply_err {
            // Unreachable by construction (we just encoded these records);
            // surfaced as corruption rather than silently diverging from
            // the WAL.
            return Err(e);
        }
        // Nothing to invalidate: built trees and support masks are cached
        // per table version (the tuple allocation the apply above just
        // replaced), so the next statement misses and rebuilds. This only
        // bumps the `orion.indexes.epoch` column of every indexed table
        // the transaction wrote.
        {
            let mut cat = core.indexes.lock();
            for table in &touched {
                cat.note_mutation(table);
            }
        }
        core.commit_seq += 1;
        let seq = core.commit_seq;
        for table in touched {
            core.stamps.insert(table, seq);
        }
        drop(core);
        db.inner.txn_stats.commits.inc();
        db.inner.txn_stats.commit_nanos.record_duration(started.elapsed());
        Ok(seq)
    }

    /// Rolls the transaction back: the private view is discarded, nothing
    /// was ever shared or logged.
    pub fn rollback(mut self) {
        self.finished = true;
        self.db.inner.txns.lock().remove(&self.id);
        self.db.inner.txn_stats.aborts.inc();
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            self.db.inner.txns.lock().remove(&self.id);
            self.db.inner.txn_stats.aborts.inc();
        }
    }
}

/// First-committer-wins validation against the current committed state.
/// Returns how many tables it scanned: only a table whose commit stamp
/// moved past `begin_seq` is re-encoded; any other still holds every row
/// the snapshot held.
fn validate(core: &SharedCore, live: &[WriteOp], begin_seq: u64) -> Result<usize> {
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
            // Tables cannot be dropped, so an insert target that existed at
            // snapshot (or is created by this txn) still exists.
            WriteOp::Insert { .. } => {}
            WriteOp::Voided => unreachable!("voided ops were filtered"),
        }
    }
    let mut scanned = 0;
    for (table, wanted) in &needs {
        let rel = core.tables.get(*table).ok_or_else(|| {
            EngineError::TxnConflict(format!("table '{table}' vanished before commit"))
        })?;
        if core.stamps.get(*table).is_none_or(|&stamp| stamp <= begin_seq) {
            continue;
        }
        scanned += 1;
        let mut have: HashMap<&[u8], usize> = wanted.keys().map(|k| (*k, 0usize)).collect();
        let mut buf = Vec::new();
        for t in rel.tuples.iter() {
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
    Ok(scanned)
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
        orion_obs::scratch_dir(&format!("txn-test-{name}"))
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

    /// Commits rows `ids` into `table`, creating it first if needed.
    fn seed_rows(db: &SharedDurableDb, table: &str, ids: std::ops::Range<i64>) {
        let mut t = Txn::begin(db);
        if t.schema(table).is_err() {
            t.create_table(table, schema()).unwrap();
        }
        for i in ids {
            t.insert_simple(table, &[("id", Value::Int(i))], &[("v", Pdf1::certain(i as f64))])
                .unwrap();
        }
        t.commit().unwrap();
    }

    /// [`validate`] of `t`'s write set against the current committed state.
    fn validate_now(db: &SharedDurableDb, t: &Txn) -> Result<usize> {
        let live: Vec<WriteOp> =
            t.ops.iter().filter(|o| !matches!(o, WriteOp::Voided)).cloned().collect();
        validate(&db.inner.core.lock(), &live, t.begin_seq)
    }

    #[test]
    fn validation_scans_only_tables_written_since_begin() {
        let dir = temp_dir("stamps");
        let db = open(&dir);
        seed_rows(&db, "readings", 0..4);
        seed_rows(&db, "other", 0..1);
        let mut a = Txn::begin(&db);
        assert_eq!(a.delete_where("readings", |t| id_of(t) == 1).unwrap(), 1);
        assert_eq!(validate_now(&db, &a).unwrap(), 0, "nobody wrote 'readings': not scanned");
        seed_rows(&db, "other", 1..2);
        assert_eq!(validate_now(&db, &a).unwrap(), 0, "a commit elsewhere moves no stamp");
        // A concurrent delete of another row: scanned, the claim still holds.
        let mut b = Txn::begin(&db);
        assert_eq!(b.delete_where("readings", |t| id_of(t) == 2).unwrap(), 1);
        b.commit().unwrap();
        assert_eq!(validate_now(&db, &a).unwrap(), 1);
        // A concurrent delete of the same row: conflict.
        let mut c = Txn::begin(&db);
        assert_eq!(c.delete_where("readings", |t| id_of(t) == 1).unwrap(), 1);
        c.commit().unwrap();
        assert!(matches!(validate_now(&db, &a), Err(EngineError::TxnConflict(_))));
        assert!(matches!(a.commit(), Err(EngineError::TxnConflict(_))));
        db.with_tables(|tables, _| assert_eq!(tables["readings"].len(), 2));
        db.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn begin_and_insert_only_commits_share_storage() {
        let dir = temp_dir("sharing");
        let db = open(&dir);
        // 2 500 bases: three registry segments.
        seed_rows(&db, "readings", 0..2500);
        let committed = db.with_tables(|t, _| Arc::clone(&t["readings"].tuples));
        let mut txn = Txn::begin(&db);
        assert!(Arc::ptr_eq(&txn.tables["readings"].tuples, &committed), "begin copies no tuple");
        let segments = db.with_tables(|_, r| r.segment_addrs());
        assert_eq!(segments.len(), 3);
        assert_eq!(txn.reg.segment_addrs(), segments, "begin copies no segment");
        txn.insert_simple("readings", &[("id", Value::Int(-1))], &[("v", Pdf1::certain(0.0))])
            .unwrap();
        assert!(Arc::ptr_eq(&txn.tables["readings"].tuples, &committed), "insert copies no tuple");
        drop(committed);
        // Nobody holds the committed version: the commit writes in place.
        let storage = |db: &SharedDurableDb| {
            db.with_tables(|t, r| (Arc::as_ptr(&t["readings"].tuples) as usize, r.segment_addrs()))
        };
        let before = storage(&db);
        txn.commit().unwrap();
        assert_eq!(storage(&db), before, "tuples and segments written in place");
        // A reader holds the committed registry: the commit copies only the
        // segment it writes.
        let held = db.with_tables(|_, r| r.clone());
        seed_rows(&db, "readings", 2500..2501);
        let now = db.with_tables(|_, r| r.segment_addrs());
        let (last, rest) = now.split_last().unwrap();
        assert_eq!(rest, &held.segment_addrs()[..rest.len()], "untouched segments shared");
        assert!(!held.segment_addrs().contains(last), "the written segment was copied");
        assert_eq!(held.last_id() + 1, db.with_tables(|_, r| r.last_id()));
        // A DELETE copies the table only once a row matches.
        let committed = db.with_tables(|t, _| Arc::clone(&t["readings"].tuples));
        let mut t3 = Txn::begin(&db);
        assert_eq!(t3.delete_where("readings", |t| id_of(t) == -2).unwrap(), 0);
        assert!(Arc::ptr_eq(&t3.tables["readings"].tuples, &committed), "no match, no copy");
        assert_eq!(t3.delete_where("readings", |t| id_of(t) == 7).unwrap(), 1);
        assert!(!Arc::ptr_eq(&t3.tables["readings"].tuples, &committed), "private copy");
        assert_eq!(committed.len(), 2502, "the committed version is untouched");
        t3.commit().unwrap();
        db.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
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

        let mut reader = Txn::begin(&db);
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

    #[test]
    fn multi_op_commit_appends_exactly_one_frame() {
        let dir = temp_dir("one_frame");
        let db = open(&dir);
        seed_rows(&db, "readings", 0..4);
        let frames = db.wal_stats().records_appended.get();
        let mut t = Txn::begin(&db);
        t.create_table("other", schema()).unwrap();
        t.insert_simple(
            "other",
            &[("id", Value::Int(7))],
            &[("v", Pdf1::gaussian(7.0, 1.0).unwrap())],
        )
        .unwrap();
        assert_eq!(t.delete_where("readings", |t| id_of(t) == 1).unwrap(), 1);
        let updated = t
            .update_where(
                "readings",
                |t| id_of(t) == 2,
                |t, _| {
                    t.certain[0] = Value::Int(20);
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(updated, 1);
        t.commit().unwrap();
        assert_eq!(db.wal_stats().records_appended.get() - frames, 1, "one frame per commit");
        let live = db.with_tables(|tables, _| tables["readings"].tuples.clone());
        drop(db);
        let re = open(&dir);
        assert_eq!(re.recovery().wal_records_replayed, 2, "the seed and the multi-op commit");
        re.with_tables(|tables, _| {
            assert_eq!(tables["readings"].tuples, live);
            assert_eq!(tables["other"].len(), 1);
        });
        re.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Database persistence: saving and loading a set of probabilistic
//! relations plus their history registry through the paged storage layer.
//!
//! The on-disk format is a single heap file of tagged records:
//!
//! ```text
//! [1: schema]  table name, columns (id, name, type, uncertain), Δ sets
//! [2: base]    registered base pdf: id, attrs, phantom flag, joint
//! [3: tuple]   owning table, certain values, pdf nodes
//!              (node = dims (VarId + optional column) + ancestors + joint)
//! [4: epoch]   checkpoint epoch stamp (u64) — the fence recovery uses to
//!              reject a stale WAL left by a crashed checkpoint
//! [5: stats]   one table's ANALYZE statistics (versioned catalog codec);
//!              replay overwrites per table, so it is idempotent
//! [6–8]        retired: transaction begin/commit/abort markers of logs
//!              written before one-frame commits; never reused, and a log
//!              holding one is refused as corrupt
//! [9: delete]  delete one tuple, identified by its exact encoded tuple
//!              record (content-addressed: base ids make live tuples
//!              unique; byte-equal duplicates are interchangeable)
//! [10: update] replace one tuple in place: the old tuple's encoded bytes
//!              plus the full replacement tuple record
//! [11: index]  one secondary-index definition (name, table, column, kind);
//!              replay installs-or-overwrites by name, so it is idempotent
//! [12: index drop] drop one index definition by name; dropping an unknown
//!              name is a no-op, so replay is idempotent
//! [13: group]  one committed transaction — WAL only: u32 member count,
//!              then per member a u32 length and one record of the tags
//!              above (never a group); members apply in order
//! [14: chunk]  snapshot only: one piece of a record too large for a heap
//!              page — a "more pieces follow" flag byte, then the piece
//! ```
//!
//! A transaction commits as one group record in one WAL frame. The frame's
//! length + CRC is the log's unit of atomicity — replay stops at the first
//! torn frame — so a transaction is replayed whole or not at all, and
//! replay is one loop over [`apply_record`]. Snapshots contain only
//! committed state and therefore never carry tags 9, 10 or 13.
//!
//! A record longer than one heap page holds is written to a snapshot as a
//! chain of chunk records; `load_into` joins the chain back before
//! applying it. Every other record is written byte for byte as encoded.
//!
//! Schemas are written first, then bases, then tuples, so a single pass
//! loads everything. Reference counts are rebuilt from the loaded tuples'
//! ancestor sets, and both the attribute-id and pdf-id allocators are
//! bumped past every persisted id so later inserts cannot collide.
//!
//! Durability: [`save_database`] is **atomic** — it writes a temp file,
//! fsyncs it, and renames it over the target, so a crash mid-save leaves
//! the previous snapshot intact. Every decoder is hardened against
//! arbitrary bytes (bounds checks before every read, overflow-checked size
//! computations), surfacing [`EngineError::Corrupt`] instead of panicking.
//! [`apply_record`] applies one tagged record to an in-memory database and
//! is shared between snapshot loading and WAL replay:
//! [`crate::durable::SharedDurableDb::open`] streams the one snapshot file
//! through `load_into`, then replays the WAL into the same state.

use crate::error::{EngineError, Result};
use crate::history::{Ancestors, BasePdf, HistoryRegistry, PdfId};
use crate::pindex::{IndexCatalog, IndexDef};
use crate::relation::Relation;
use crate::schema::{ensure_attr_floor, AttrId, Column, ColumnType, ProbSchema};
use crate::stats_catalog::{StatsCatalog, TableStats};
use crate::tuple::{NodeDim, PdfNode, ProbTuple, VarId};
use crate::value::Value;
use bytes::{Buf, BufMut};
use orion_storage::codec::{checked_size, decode_joint, encode_joint, need, DecodeError};
use orion_storage::{FileStore, HeapFile, MAX_PAGE_RECORD};
use std::collections::HashMap;
use std::path::Path;

pub(crate) const TAG_SCHEMA: u8 = 1;
pub(crate) const TAG_BASE: u8 = 2;
pub(crate) const TAG_TUPLE: u8 = 3;
pub(crate) const TAG_EPOCH: u8 = 4;
pub(crate) const TAG_STATS: u8 = 5;
// Retired: the transaction markers of logs written before one-frame
// commits. Never reused; decoding one is corruption.
const TAG_TXN_BEGIN: u8 = 6;
const TAG_TXN_COMMIT: u8 = 7;
const TAG_TXN_ABORT: u8 = 8;
pub(crate) const TAG_DELETE: u8 = 9;
pub(crate) const TAG_UPDATE: u8 = 10;
pub(crate) const TAG_INDEX: u8 = 11;
pub(crate) const TAG_INDEX_DROP: u8 = 12;
const TAG_GROUP: u8 = 13;
const TAG_CHUNK: u8 = 14;

fn put_str(s: &str, out: &mut impl BufMut) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn get_u8c(buf: &mut impl Buf, what: &str) -> std::result::Result<u8, DecodeError> {
    need(buf, 1, what)?;
    Ok(buf.get_u8())
}

fn get_u16c(buf: &mut impl Buf, what: &str) -> std::result::Result<u16, DecodeError> {
    need(buf, 2, what)?;
    Ok(buf.get_u16_le())
}

fn get_u32c(buf: &mut impl Buf, what: &str) -> std::result::Result<u32, DecodeError> {
    need(buf, 4, what)?;
    Ok(buf.get_u32_le())
}

fn get_u64c(buf: &mut impl Buf, what: &str) -> std::result::Result<u64, DecodeError> {
    need(buf, 8, what)?;
    Ok(buf.get_u64_le())
}

/// Reads a count field and verifies the buffer can possibly hold that many
/// elements of at least `min_elem` bytes each — rejecting absurd counts
/// before any `Vec::with_capacity` can abort on them.
fn get_count(
    buf: &mut impl Buf,
    min_elem: usize,
    what: &str,
) -> std::result::Result<usize, DecodeError> {
    let n = get_u32c(buf, what)? as usize;
    need(buf, checked_size(n, min_elem, what)?, what)?;
    Ok(n)
}

fn get_str(buf: &mut impl Buf) -> std::result::Result<String, DecodeError> {
    let n = get_u32c(buf, "string length")? as usize;
    need(buf, n, "string")?;
    let mut bytes = vec![0u8; n];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|e| DecodeError(format!("invalid utf8: {e}")))
}

fn put_value(v: &Value, out: &mut impl BufMut) {
    match v {
        Value::Null => out.put_u8(0),
        Value::Int(i) => {
            out.put_u8(1);
            out.put_i64_le(*i);
        }
        Value::Real(r) => {
            out.put_u8(2);
            out.put_f64_le(*r);
        }
        Value::Text(s) => {
            out.put_u8(3);
            put_str(s, out);
        }
        Value::Bool(b) => {
            out.put_u8(4);
            out.put_u8(u8::from(*b));
        }
    }
}

fn get_value(buf: &mut impl Buf) -> std::result::Result<Value, DecodeError> {
    Ok(match get_u8c(buf, "value tag")? {
        0 => Value::Null,
        1 => {
            need(buf, 8, "int value")?;
            Value::Int(buf.get_i64_le())
        }
        2 => {
            need(buf, 8, "real value")?;
            Value::Real(buf.get_f64_le())
        }
        3 => Value::Text(get_str(buf)?),
        4 => Value::Bool(get_u8c(buf, "bool value")? != 0),
        t => return Err(DecodeError(format!("unknown value tag {t}"))),
    })
}

fn type_tag(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Int => 0,
        ColumnType::Real => 1,
        ColumnType::Text => 2,
        ColumnType::Bool => 3,
    }
}

fn type_of(tag: u8) -> std::result::Result<ColumnType, DecodeError> {
    Ok(match tag {
        0 => ColumnType::Int,
        1 => ColumnType::Real,
        2 => ColumnType::Text,
        3 => ColumnType::Bool,
        t => return Err(DecodeError(format!("unknown column type {t}"))),
    })
}

pub(crate) fn encode_schema(rel: &Relation, out: &mut Vec<u8>) {
    out.put_u8(TAG_SCHEMA);
    put_str(&rel.name, out);
    out.put_u32_le(rel.schema.columns().len() as u32);
    for c in rel.schema.columns() {
        out.put_u64_le(c.id);
        put_str(&c.name, out);
        out.put_u8(type_tag(c.ty));
        out.put_u8(u8::from(c.uncertain));
    }
    out.put_u32_le(rel.schema.deps().len() as u32);
    for set in rel.schema.deps() {
        out.put_u32_le(set.len() as u32);
        for &a in set {
            out.put_u64_le(a);
        }
    }
}

pub(crate) fn encode_base(id: PdfId, base: &BasePdf, out: &mut Vec<u8>) {
    out.put_u8(TAG_BASE);
    out.put_u64_le(id);
    out.put_u8(u8::from(base.phantom));
    out.put_u32_le(base.attrs.len() as u32);
    for &a in &base.attrs {
        out.put_u64_le(a);
    }
    encode_joint(&base.joint, out);
}

pub(crate) fn encode_tuple(table: &str, t: &ProbTuple, out: &mut Vec<u8>) {
    out.put_u8(TAG_TUPLE);
    put_str(table, out);
    out.put_u32_le(t.certain.len() as u32);
    for v in &t.certain {
        put_value(v, out);
    }
    out.put_u32_le(t.nodes.len() as u32);
    for n in &t.nodes {
        out.put_u32_le(n.dims.len() as u32);
        for d in &n.dims {
            out.put_u64_le(d.var.base);
            out.put_u16_le(d.var.dim);
            match d.column {
                Some(a) => {
                    out.put_u8(1);
                    out.put_u64_le(a);
                }
                None => out.put_u8(0),
            }
        }
        out.put_u32_le(n.ancestors.len() as u32);
        for &a in &n.ancestors {
            out.put_u64_le(a);
        }
        encode_joint(&n.joint, out);
    }
}

pub(crate) fn encode_epoch(epoch: u64, out: &mut Vec<u8>) {
    out.put_u8(TAG_EPOCH);
    out.put_u64_le(epoch);
}

/// Encodes one table's ANALYZE statistics as a tagged record.
pub(crate) fn encode_stats(stats: &TableStats, out: &mut Vec<u8>) {
    out.put_u8(TAG_STATS);
    out.extend_from_slice(&stats.encode());
}

/// Encodes one secondary-index definition as a tagged record.
pub(crate) fn encode_index_def(def: &IndexDef, out: &mut Vec<u8>) {
    out.put_u8(TAG_INDEX);
    def.encode_into(out);
}

/// Encodes an index drop (by name) as a tagged record.
pub(crate) fn encode_index_drop(name: &str, out: &mut Vec<u8>) {
    out.put_u8(TAG_INDEX_DROP);
    put_str(name, out);
}

/// If `rec` is a checkpoint-epoch record, the epoch it carries.
pub(crate) fn record_epoch(rec: &[u8]) -> Option<u64> {
    if rec.len() == 9 && rec[0] == TAG_EPOCH {
        Some(u64::from_le_bytes(rec[1..9].try_into().expect("8 bytes")))
    } else {
        None
    }
}

/// Encodes a content-addressed delete: the target tuple is identified by
/// its exact encoded tuple record. Base-pdf ids make live tuples unique;
/// byte-equal duplicates (certain-only rows) are interchangeable, so
/// removing the latest match is deterministic.
pub(crate) fn encode_delete(table: &str, old_tuple_rec: &[u8], out: &mut Vec<u8>) {
    out.put_u8(TAG_DELETE);
    put_str(table, out);
    out.put_u32_le(old_tuple_rec.len() as u32);
    out.put_slice(old_tuple_rec);
}

/// Encodes an in-place replacement: the old tuple's encoded record (the
/// content address) followed by the full replacement tuple record.
pub(crate) fn encode_update(
    table: &str,
    old_tuple_rec: &[u8],
    new_tuple_rec: &[u8],
    out: &mut Vec<u8>,
) {
    out.put_u8(TAG_UPDATE);
    put_str(table, out);
    out.put_u32_le(old_tuple_rec.len() as u32);
    out.put_slice(old_tuple_rec);
    out.put_u32_le(new_tuple_rec.len() as u32);
    out.put_slice(new_tuple_rec);
}

/// Encodes one transaction's records as a single group record:
/// `[13][u32 n][n × (u32 len, record)]`. Logged as one WAL frame, it is
/// replayed whole or not at all.
pub fn encode_group<M: AsRef<[u8]>>(members: &[M], out: &mut Vec<u8>) {
    let body: usize = members.iter().map(|m| 4 + m.as_ref().len()).sum();
    out.reserve(5 + body);
    out.put_u8(TAG_GROUP);
    out.put_u32_le(members.len() as u32);
    for m in members {
        out.put_u32_le(m.as_ref().len() as u32);
        out.put_slice(m.as_ref());
    }
}

/// Saves every relation and the registry into one file at `path`
/// **atomically**: the snapshot is written to a `.tmp` sibling, fsynced,
/// and renamed over `path`, so a crash at any point leaves either the old
/// snapshot or the new one — never a half-written file.
pub fn save_database(
    path: &Path,
    tables: &HashMap<String, Relation>,
    reg: &HistoryRegistry,
) -> Result<()> {
    save_snapshot(path, tables, reg, 0)
}

/// [`save_database`] stamped with a checkpoint `epoch`. The epoch is the
/// fence recovery uses to detect a WAL left behind by a checkpoint that
/// crashed between the snapshot rename and the WAL reset: such a WAL
/// carries a smaller epoch than the snapshot and must be discarded, not
/// replayed (its records are already folded into the snapshot). Epoch 0
/// (no checkpoint yet) writes no stamp, matching the legacy format.
pub fn save_snapshot(
    path: &Path,
    tables: &HashMap<String, Relation>,
    reg: &HistoryRegistry,
    epoch: u64,
) -> Result<()> {
    save_snapshot_full(path, tables, reg, &StatsCatalog::new(), &IndexCatalog::new(), epoch)
}

/// [`save_snapshot`] that also persists the ANALYZE stats catalog and the
/// secondary-index catalog: one stats record per analyzed table, written
/// after the tuples so replay sees schemas first, then one index record
/// per definition. Only index definitions are durable — trees are rebuilt
/// deterministically on first use. Empty catalogs write nothing, matching
/// the legacy format byte for byte.
pub(crate) fn save_snapshot_full(
    path: &Path,
    tables: &HashMap<String, Relation>,
    reg: &HistoryRegistry,
    stats: &StatsCatalog,
    indexes: &IndexCatalog,
    epoch: u64,
) -> Result<()> {
    let tmp = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        std::path::PathBuf::from(os)
    };
    let mut heap = HeapFile::new(FileStore::create(&tmp)?, 64);
    let mut buf = Vec::with_capacity(4096);
    if epoch > 0 {
        encode_epoch(epoch, &mut buf);
        insert_record(&mut heap, &buf)?;
    }
    let mut names: Vec<&String> = tables.keys().collect();
    names.sort();
    for name in &names {
        buf.clear();
        encode_schema(&tables[*name], &mut buf);
        insert_record(&mut heap, &buf)?;
    }
    for (id, base) in reg.iter_bases() {
        buf.clear();
        encode_base(id, base, &mut buf);
        insert_record(&mut heap, &buf)?;
    }
    for name in &names {
        for t in tables[*name].tuples.iter() {
            buf.clear();
            encode_tuple(name, t, &mut buf);
            insert_record(&mut heap, &buf)?;
        }
    }
    for ts in stats.iter() {
        buf.clear();
        encode_stats(ts, &mut buf);
        insert_record(&mut heap, &buf)?;
    }
    for def in indexes.defs() {
        buf.clear();
        encode_index_def(def, &mut buf);
        insert_record(&mut heap, &buf)?;
    }
    heap.sync()?;
    drop(heap);
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable: fsync the containing directory.
    #[cfg(unix)]
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Writes one encoded record to a snapshot heap. A record longer than
/// [`MAX_PAGE_RECORD`] is split into a chain of chunk records, each
/// `[14][more][piece]` filling one page, that [`load_into`] joins back.
fn insert_record(heap: &mut HeapFile<FileStore>, rec: &[u8]) -> Result<()> {
    if rec.len() <= MAX_PAGE_RECORD {
        heap.insert(rec)?;
        return Ok(());
    }
    let mut pieces = rec.chunks(MAX_PAGE_RECORD - 2).peekable();
    let mut chunk = Vec::with_capacity(MAX_PAGE_RECORD);
    while let Some(piece) = pieces.next() {
        chunk.clear();
        chunk.extend_from_slice(&[TAG_CHUNK, u8::from(pieces.peek().is_some())]);
        chunk.extend_from_slice(piece);
        heap.insert(&chunk)?;
    }
    Ok(())
}

fn bad(e: DecodeError) -> EngineError {
    EngineError::Corrupt(e.to_string())
}

fn get_blob(buf: &mut impl Buf, what: &str) -> std::result::Result<Vec<u8>, DecodeError> {
    let n = get_u32c(buf, what)? as usize;
    need(buf, n, what)?;
    let mut bytes = vec![0u8; n];
    buf.copy_to_slice(&mut bytes);
    Ok(bytes)
}

/// Decodes the body of a tuple record (everything after the tag byte) into
/// its owning table name and the tuple — **without** touching any table or
/// reference count. `max_attr` accumulates the highest attribute id seen.
fn decode_tuple_body(buf: &mut impl Buf, max_attr: &mut AttrId) -> Result<(String, ProbTuple)> {
    let table = get_str(buf).map_err(bad)?;
    let ncert = get_count(buf, 1, "certain values").map_err(bad)?;
    let mut certain = Vec::with_capacity(ncert);
    for _ in 0..ncert {
        certain.push(get_value(buf).map_err(bad)?);
    }
    let nnodes = get_count(buf, 8, "pdf nodes").map_err(bad)?;
    let mut nodes = Vec::with_capacity(nnodes);
    for _ in 0..nnodes {
        // Dim: base(8) + dim(2) + column flag(1) minimum.
        let ndims = get_count(buf, 11, "node dims").map_err(bad)?;
        let mut dims = Vec::with_capacity(ndims);
        for _ in 0..ndims {
            let base = get_u64c(buf, "dim base").map_err(bad)?;
            let dim = get_u16c(buf, "dim index").map_err(bad)?;
            let column = if get_u8c(buf, "dim column flag").map_err(bad)? != 0 {
                let a = get_u64c(buf, "dim column").map_err(bad)?;
                *max_attr = (*max_attr).max(a);
                Some(a)
            } else {
                None
            };
            dims.push(NodeDim { var: VarId { base, dim }, column });
        }
        let nanc = get_count(buf, 8, "ancestors").map_err(bad)?;
        let mut ancestors = Ancestors::new();
        for _ in 0..nanc {
            ancestors.insert(get_u64c(buf, "ancestor id").map_err(bad)?);
        }
        let joint = decode_joint(buf).map_err(bad)?;
        nodes.push(PdfNode::new(dims, joint, ancestors));
    }
    Ok((table, ProbTuple { certain, nodes }))
}

/// Decodes a full tuple record (tag byte included) without applying it.
/// Update records embed their replacement tuple as one of these blobs.
pub(crate) fn decode_tuple_record(
    rec: &[u8],
    max_attr: &mut AttrId,
) -> Result<(String, ProbTuple)> {
    let mut buf = rec;
    let buf = &mut buf;
    let tag = get_u8c(buf, "record tag").map_err(bad)?;
    if tag != TAG_TUPLE {
        return Err(EngineError::Corrupt(format!("expected tuple record, got tag {tag}")));
    }
    decode_tuple_body(buf, max_attr)
}

/// Index of the **latest** tuple in `rel` whose encoding equals `old`.
/// Base-pdf ids make pdf-carrying tuples unique; byte-equal certain-only
/// duplicates are interchangeable, so "latest match" is deterministic.
fn find_tuple_by_bytes(table: &str, rel: &Relation, old: &[u8]) -> Result<usize> {
    let mut probe = Vec::with_capacity(old.len());
    rel.tuples
        .iter()
        .rposition(|t| {
            probe.clear();
            encode_tuple(table, t, &mut probe);
            probe == old
        })
        .ok_or_else(|| EngineError::Corrupt(format!("delete/update target not found in '{table}'")))
}

/// State threaded through [`apply_record`] across a load or WAL replay:
/// the tables and registry being rebuilt, plus the highest attribute id
/// seen (for bumping the allocator afterwards via
/// [`ensure_attr_floor`]).
#[derive(Debug, Default)]
pub struct LoadState {
    /// Relations rebuilt so far, by table name.
    pub tables: HashMap<String, Relation>,
    /// Registry rebuilt so far (refcounts accumulate from tuple records).
    pub reg: HistoryRegistry,
    /// Highest attribute id observed in any decoded record.
    pub max_attr: AttrId,
    /// Highest checkpoint epoch observed (0 when no stamp has been seen):
    /// the fence below which WAL records are stale — see
    /// [`save_snapshot`].
    pub wal_epoch: u64,
    /// ANALYZE statistics rebuilt so far (stats records overwrite per
    /// table, so replay is idempotent).
    pub stats: StatsCatalog,
    /// Secondary-index definitions rebuilt so far (index records install
    /// by name and drops ignore unknown names, so replay is idempotent).
    pub indexes: IndexCatalog,
}

impl LoadState {
    /// Bumps the global attribute allocator past every id seen, so fresh
    /// schemas created after this load cannot collide. Call once after the
    /// last [`apply_record`].
    pub fn finish(self) -> (HashMap<String, Relation>, HistoryRegistry) {
        ensure_attr_floor(self.max_attr);
        (self.tables, self.reg)
    }

    /// Takes the rebuilt stats catalog out of the state (call before
    /// [`LoadState::finish`]).
    pub(crate) fn take_stats(&mut self) -> StatsCatalog {
        std::mem::take(&mut self.stats)
    }

    /// Takes the rebuilt index catalog out of the state (call before
    /// [`LoadState::finish`]). Only definitions are durable — the trees
    /// themselves are rebuilt deterministically on first use.
    pub(crate) fn take_indexes(&mut self) -> IndexCatalog {
        std::mem::take(&mut self.indexes)
    }
}

/// Applies one tagged record (as produced by [`save_database`]'s encoders
/// or logged to the WAL) to `state`. Shared by snapshot loading and WAL
/// replay, so both paths rebuild identical in-memory structures. A group
/// record applies its members in order, each borrowed from `rec`; a nested
/// group, a retired tag or a member that does not decode is corruption.
///
/// Base records do **not** bump reference counts — counts are rebuilt
/// solely from tuple records' ancestor sets, making replay idempotent with
/// respect to orphan bases (a crash between base and tuple records leaves
/// refcount-0 bases, which are harmless).
pub fn apply_record(rec: &[u8], state: &mut LoadState) -> Result<()> {
    let mut buf = rec;
    let buf = &mut buf;
    let tag = get_u8c(buf, "record tag").map_err(bad)?;
    match tag {
        TAG_SCHEMA => {
            let name = get_str(buf).map_err(bad)?;
            // Column: id(8) + name-len(4) + type(1) + uncertain(1) minimum.
            let ncols = get_count(buf, 14, "schema columns").map_err(bad)?;
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let id = get_u64c(buf, "column id").map_err(bad)?;
                state.max_attr = state.max_attr.max(id);
                let cname = get_str(buf).map_err(bad)?;
                let ty = type_of(get_u8c(buf, "column type").map_err(bad)?).map_err(bad)?;
                let uncertain = get_u8c(buf, "column uncertainty").map_err(bad)? != 0;
                columns.push(Column { id, name: cname, ty, uncertain });
            }
            let nsets = get_count(buf, 4, "dependency sets").map_err(bad)?;
            let mut deps = Vec::with_capacity(nsets);
            for _ in 0..nsets {
                let k = get_count(buf, 8, "dependency set").map_err(bad)?;
                let mut set = Vec::with_capacity(k);
                for _ in 0..k {
                    set.push(get_u64c(buf, "dependency attr").map_err(bad)?);
                }
                deps.push(set);
            }
            let schema = ProbSchema::from_columns(columns, deps);
            state.tables.insert(name.clone(), Relation::new(name, schema));
        }
        TAG_BASE => {
            let id = get_u64c(buf, "base id").map_err(bad)?;
            let phantom = get_u8c(buf, "phantom flag").map_err(bad)? != 0;
            let k = get_count(buf, 8, "base attrs").map_err(bad)?;
            let mut attrs: Vec<AttrId> = Vec::with_capacity(k);
            for _ in 0..k {
                attrs.push(get_u64c(buf, "base attr").map_err(bad)?);
            }
            for &a in &attrs {
                state.max_attr = state.max_attr.max(a);
            }
            let joint = decode_joint(buf).map_err(bad)?;
            state.reg.restore(id, BasePdf { attrs, joint, phantom });
        }
        TAG_TUPLE => {
            let (table, t) = decode_tuple_body(buf, &mut state.max_attr)?;
            for n in &t.nodes {
                state.reg.add_refs(&n.ancestors);
            }
            let rel = state.tables.get_mut(&table).ok_or_else(|| {
                EngineError::Corrupt(format!("tuple for unknown table '{table}'"))
            })?;
            rel.tuples_mut().push(t);
        }
        TAG_DELETE => {
            let table = get_str(buf).map_err(bad)?;
            let old = get_blob(buf, "old tuple record").map_err(bad)?;
            let rel = state.tables.get_mut(&table).ok_or_else(|| {
                EngineError::Corrupt(format!("delete for unknown table '{table}'"))
            })?;
            let idx = find_tuple_by_bytes(&table, rel, &old)?;
            let t = rel.tuples_mut().remove(idx);
            // Mirror `Relation::delete_where`: drop the tuple's references
            // and reclaim its own base pdfs (sole-ancestor nodes); bases
            // still referenced by derived tuples survive as phantoms.
            for n in &t.nodes {
                state.reg.release_refs(&n.ancestors);
                if n.ancestors.len() == 1 {
                    let id = *n.ancestors.iter().next().expect("len checked");
                    state.reg.delete_base(id);
                }
            }
        }
        TAG_UPDATE => {
            let table = get_str(buf).map_err(bad)?;
            let old = get_blob(buf, "old tuple record").map_err(bad)?;
            let newb = get_blob(buf, "new tuple record").map_err(bad)?;
            let (ntable, new_t) = decode_tuple_record(&newb, &mut state.max_attr)?;
            if ntable != table {
                return Err(EngineError::Corrupt(format!(
                    "update record for '{table}' carries a tuple for '{ntable}'"
                )));
            }
            let rel = state.tables.get_mut(&table).ok_or_else(|| {
                EngineError::Corrupt(format!("update for unknown table '{table}'"))
            })?;
            let idx = find_tuple_by_bytes(&table, rel, &old)?;
            let old_t = std::mem::replace(&mut rel.tuples_mut()[idx], new_t);
            let new_nodes = &rel.tuples[idx].nodes;
            for i in 0..old_t.nodes.len().max(new_nodes.len()) {
                if old_t.nodes.get(i) == new_nodes.get(i) {
                    continue; // unchanged node: history untouched
                }
                // Take the new node's references before releasing the old
                // one's, so a base shared by both sides can never
                // transiently hit refcount zero and be reclaimed.
                if let Some(nw) = new_nodes.get(i) {
                    state.reg.add_refs(&nw.ancestors);
                }
                if let Some(o) = old_t.nodes.get(i) {
                    state.reg.release_refs(&o.ancestors);
                    if o.ancestors.len() == 1 {
                        let id = *o.ancestors.iter().next().expect("len checked");
                        state.reg.delete_base(id);
                    }
                }
            }
        }
        TAG_GROUP => {
            let n = get_count(buf, 4, "group members").map_err(bad)?;
            for _ in 0..n {
                let len = get_u32c(buf, "group member length").map_err(bad)? as usize;
                need(buf, len, "group member").map_err(bad)?;
                let (member, rest) = buf.split_at(len);
                if member.first() == Some(&TAG_GROUP) {
                    return Err(EngineError::Corrupt("nested group record".into()));
                }
                apply_record(member, state)?;
                *buf = rest;
            }
            if !buf.is_empty() {
                return Err(EngineError::Corrupt(format!(
                    "group record has {} trailing bytes",
                    buf.len()
                )));
            }
        }
        TAG_TXN_BEGIN | TAG_TXN_COMMIT | TAG_TXN_ABORT => {
            return Err(EngineError::Corrupt(format!(
                "record tag {tag} is a transaction marker: the log predates one-frame commits; \
                 open the database with the previous release and run checkpoint() first"
            )))
        }
        TAG_EPOCH => {
            let e = get_u64c(buf, "checkpoint epoch").map_err(bad)?;
            state.wal_epoch = state.wal_epoch.max(e);
        }
        TAG_STATS => {
            let mut payload = vec![0u8; buf.remaining()];
            buf.copy_to_slice(&mut payload);
            state.stats.insert(TableStats::decode(&payload)?);
        }
        TAG_INDEX => {
            let mut payload = vec![0u8; buf.remaining()];
            buf.copy_to_slice(&mut payload);
            let (def, used) = IndexDef::decode(&payload)?;
            if used != payload.len() {
                return Err(EngineError::Corrupt(format!(
                    "index record has {} trailing bytes",
                    payload.len() - used
                )));
            }
            // Install-or-overwrite by name: replay is idempotent.
            state.indexes.install(def);
        }
        TAG_INDEX_DROP => {
            let name = get_str(buf).map_err(bad)?;
            // Dropping an unknown name is a no-op: a snapshot taken after
            // the drop no longer carries the definition, so WAL replay of
            // the drop record over that snapshot must not error.
            let _ = state.indexes.drop_index(&name);
        }
        t => return Err(EngineError::Corrupt(format!("unknown record tag {t}"))),
    }
    Ok(())
}

/// Loads every record of the snapshot at `path` into `state`, without
/// finishing it — [`crate::durable::SharedDurableDb::open`] replays WAL
/// records into the same state afterwards. A chain of chunk records is
/// joined back into the one record it was split from before it applies.
pub(crate) fn load_into(path: &Path, state: &mut LoadState) -> Result<()> {
    let heap = HeapFile::new(FileStore::open(path)?, 64);
    let mut err: Option<EngineError> = None;
    // The pieces of a chunked record read so far.
    let mut chain: Option<Vec<u8>> = None;
    heap.scan(|_, rec| {
        let res = match rec {
            [TAG_CHUNK, more, piece @ ..] => {
                chain.get_or_insert_with(Vec::new).extend_from_slice(piece);
                match *more {
                    0 => apply_record(&chain.take().expect("just extended"), state),
                    _ => Ok(()),
                }
            }
            _ if chain.is_some() => Err(chain_cut()),
            _ => apply_record(rec, state),
        };
        if let Err(e) = res {
            err = Some(e);
            return false;
        }
        true
    })?;
    match (err, chain) {
        (Some(e), _) => Err(e),
        (None, Some(_)) => Err(chain_cut()),
        (None, None) => Ok(()),
    }
}

fn chain_cut() -> EngineError {
    EngineError::Corrupt("snapshot record chain cut short".into())
}

/// Loads a database saved by [`save_database`]. Rebuilds reference counts
/// and bumps the attribute/pdf id allocators past every persisted id.
pub fn load_database(path: &Path) -> Result<(HashMap<String, Relation>, HistoryRegistry)> {
    let mut state = LoadState::default();
    load_into(path, &mut state)?;
    Ok(state.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, Predicate};
    use crate::select::{select, ExecOptions};
    use orion_pdf::prelude::*;

    fn temp(name: &str) -> std::path::PathBuf {
        orion_obs::scratch_dir("persist-test").join(name)
    }

    fn sample_db() -> (HashMap<String, Relation>, HistoryRegistry) {
        let mut reg = HistoryRegistry::new();
        let schema = ProbSchema::new(
            vec![
                ("id", ColumnType::Int, false),
                ("name", ColumnType::Text, false),
                ("x", ColumnType::Real, true),
                ("y", ColumnType::Real, true),
            ],
            vec![vec!["x", "y"]],
        )
        .unwrap();
        let mut rel = Relation::new("objects", schema);
        rel.insert(
            &mut reg,
            &[("id", Value::Int(1)), ("name", Value::Text("alpha".into()))],
            vec![(
                vec!["x", "y"],
                JointPdf::from_points(
                    JointDiscrete::from_points(
                        2,
                        vec![(vec![1.0, 2.0], 0.5), (vec![3.0, 4.0], 0.5)],
                    )
                    .unwrap(),
                ),
            )],
        )
        .unwrap();
        let schema2 = ProbSchema::new(
            vec![("rid", ColumnType::Int, false), ("v", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel2 = Relation::new("readings", schema2);
        rel2.insert_simple(
            &mut reg,
            &[("rid", Value::Int(7))],
            &[("v", Pdf1::gaussian(20.0, 5.0).unwrap())],
        )
        .unwrap();
        let mut tables = HashMap::new();
        tables.insert("objects".to_string(), rel);
        tables.insert("readings".to_string(), rel2);
        (tables, reg)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (tables, reg) = sample_db();
        let path = temp("roundtrip.db");
        save_database(&path, &tables, &reg).unwrap();
        let (loaded, lreg) = load_database(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        let obj = &loaded["objects"];
        assert_eq!(obj.schema, tables["objects"].schema);
        assert_eq!(obj.tuples, tables["objects"].tuples);
        assert_eq!(lreg.len(), reg.len());
        // Marginal query works identically after reload.
        let m = loaded["readings"].marginal(0, "v").unwrap();
        assert_eq!(m.to_string(), "Gaus(20,5)");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn histories_survive_reload() {
        // Save, reload, then run the dependent-merge pipeline on the
        // loaded data: ancestors must still resolve.
        let (tables, reg) = sample_db();
        let path = temp("histories.db");
        save_database(&path, &tables, &reg).unwrap();
        let (loaded, lreg) = load_database(&path).unwrap();
        let obj = &loaded["objects"];
        let opts = ExecOptions::default();
        let sel = select(obj, &Predicate::cmp("x", CmpOp::Gt, 2.0), &lreg, &opts).unwrap();
        assert_eq!(sel.len(), 1);
        assert!((sel.tuples[0].naive_existence() - 0.5).abs() < 1e-12);
        // The loaded node's ancestor id must resolve in the loaded registry.
        let anc = *sel.tuples[0].nodes[0].ancestors.iter().next().unwrap();
        assert!(lreg.base(anc).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reload_does_not_collide_with_new_ids() {
        let (tables, reg) = sample_db();
        let path = temp("collide.db");
        save_database(&path, &tables, &reg).unwrap();
        let (loaded, mut lreg) = load_database(&path).unwrap();
        // Fresh schema after loading: ids must not collide with loaded ones.
        let fresh = ProbSchema::new(vec![("z", ColumnType::Real, true)], vec![]).unwrap();
        let loaded_ids: Vec<AttrId> =
            loaded.values().flat_map(|r| r.schema.columns().iter().map(|c| c.id)).collect();
        assert!(!loaded_ids.contains(&fresh.column("z").unwrap().id));
        // Fresh base registration must not collide with loaded pdf ids.
        let new_id = lreg.register(vec![1], JointPdf::from_pdf1(Pdf1::certain(0.0)));
        assert!(loaded.values().all(|r| r
            .tuples
            .iter()
            .all(|t| t.nodes.iter().all(|n| !n.ancestors.contains(&new_id)))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn refcounts_rebuilt_on_load() {
        let (tables, reg) = sample_db();
        let path = temp("refs.db");
        save_database(&path, &tables, &reg).unwrap();
        let (loaded, lreg) = load_database(&path).unwrap();
        for rel in loaded.values() {
            for t in rel.tuples.iter() {
                for n in &t.nodes {
                    for &a in &n.ancestors {
                        assert!(lreg.ref_count(a) >= 1, "ancestor {a} unreferenced");
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_file_is_rejected() {
        let path = temp("corrupt.db");
        let mut heap = HeapFile::new(FileStore::create(&path).unwrap(), 8);
        heap.insert(&[99u8, 1, 2, 3]).unwrap();
        heap.pool().flush().unwrap();
        drop(heap);
        let err = load_database(&path).unwrap_err();
        assert!(err.is_corruption(), "unknown tag must classify as corruption: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_and_leaves_no_tmp() {
        let (tables, reg) = sample_db();
        let path = temp("atomic.db");
        save_database(&path, &tables, &reg).unwrap();
        // Saving again renames over the existing snapshot.
        save_database(&path, &tables, &reg).unwrap();
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists(), "temp snapshot must be renamed away");
        assert!(load_database(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_epoch_round_trips() {
        let (tables, reg) = sample_db();
        let path = temp("epoch.db");
        save_snapshot(&path, &tables, &reg, 7).unwrap();
        let mut state = LoadState::default();
        load_into(&path, &mut state).unwrap();
        assert_eq!(state.wal_epoch, 7);
        assert_eq!(state.tables.len(), 2, "epoch stamp does not disturb the payload");
        // Epoch 0 writes no stamp, matching the legacy format.
        save_snapshot(&path, &tables, &reg, 0).unwrap();
        let mut state = LoadState::default();
        load_into(&path, &mut state).unwrap();
        assert_eq!(state.wal_epoch, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn epoch_records_decode_strictly() {
        let mut rec = Vec::new();
        encode_epoch(3, &mut rec);
        assert_eq!(record_epoch(&rec), Some(3));
        assert_eq!(record_epoch(&rec[..5]), None, "truncated stamp is not an epoch");
        assert_eq!(record_epoch(b"xx"), None);
        let mut state = LoadState::default();
        apply_record(&rec, &mut state).unwrap();
        assert_eq!(state.wal_epoch, 3);
        let err = apply_record(&rec[..5], &mut LoadState::default()).unwrap_err();
        assert!(err.is_corruption(), "truncated epoch record classifies as corruption");
    }

    #[test]
    fn stats_records_round_trip_through_snapshot() {
        use crate::stats_catalog::analyze_relation;
        let (tables, reg) = sample_db();
        let mut stats = StatsCatalog::new();
        stats.insert(analyze_relation(&tables["readings"]).unwrap());
        let path = temp("stats.db");
        save_snapshot_full(&path, &tables, &reg, &stats, &IndexCatalog::new(), 2).unwrap();
        let mut state = LoadState::default();
        load_into(&path, &mut state).unwrap();
        let loaded = state.take_stats();
        assert_eq!(loaded.encode(), stats.encode(), "bitwise-identical catalog after reload");
        assert_eq!(loaded.get("readings").unwrap().rows, 1);
        assert_eq!(state.wal_epoch, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_stats_records_error_without_panicking() {
        use crate::stats_catalog::analyze_relation;
        let (tables, _reg) = sample_db();
        let mut rec = Vec::new();
        encode_stats(&analyze_relation(&tables["readings"]).unwrap(), &mut rec);
        let mut state = LoadState::default();
        apply_record(&rec, &mut state).unwrap();
        assert_eq!(state.stats.len(), 1);
        // Replay is idempotent: a second apply overwrites, not duplicates.
        apply_record(&rec, &mut state).unwrap();
        assert_eq!(state.stats.len(), 1);
        for cut in 1..rec.len() {
            let r = apply_record(&rec[..cut], &mut LoadState::default());
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
            assert!(r.unwrap_err().is_corruption(), "prefix errors classify as corruption");
        }
    }

    #[test]
    fn index_records_round_trip_and_replay_idempotently() {
        use crate::pindex::IndexKind;
        let (tables, reg) = sample_db();
        let mut indexes = IndexCatalog::new();
        indexes
            .create(IndexDef {
                name: "ix_v".into(),
                table: "readings".into(),
                column: "v".into(),
                kind: IndexKind::Cdf,
            })
            .unwrap();
        indexes
            .create(IndexDef {
                name: "ix_rid".into(),
                table: "readings".into(),
                column: "rid".into(),
                kind: IndexKind::Evx,
            })
            .unwrap();
        let path = temp("indexes.db");
        save_snapshot_full(&path, &tables, &reg, &StatsCatalog::new(), &indexes, 3).unwrap();
        let mut state = LoadState::default();
        load_into(&path, &mut state).unwrap();
        let loaded = state.take_indexes();
        assert_eq!(loaded.encode(), indexes.encode(), "bitwise-identical defs after reload");
        assert_eq!(state.wal_epoch, 3);
        std::fs::remove_file(&path).ok();

        // Replay idempotency: applying the same index record twice installs
        // once; dropping twice (or over a snapshot that never had it) is a
        // no-op, never an error.
        let def = indexes.get("ix_v").unwrap().clone();
        let mut rec = Vec::new();
        encode_index_def(&def, &mut rec);
        let mut state = LoadState::default();
        apply_record(&rec, &mut state).unwrap();
        apply_record(&rec, &mut state).unwrap();
        assert_eq!(state.indexes.defs().count(), 1);
        let mut drop_rec = Vec::new();
        encode_index_drop("ix_v", &mut drop_rec);
        apply_record(&drop_rec, &mut state).unwrap();
        apply_record(&drop_rec, &mut state).unwrap();
        assert_eq!(state.indexes.defs().count(), 0);

        // Every strict prefix of an index record errors as corruption.
        for cut in 1..rec.len() {
            let r = apply_record(&rec[..cut], &mut LoadState::default());
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    /// Rebuilds a [`LoadState`] from a database by applying its encoded
    /// records, exactly as snapshot load / WAL replay would.
    fn state_of(tables: &HashMap<String, Relation>, reg: &HistoryRegistry) -> LoadState {
        let mut state = LoadState::default();
        let mut buf = Vec::new();
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort();
        for name in &names {
            buf.clear();
            encode_schema(&tables[*name], &mut buf);
            apply_record(&buf, &mut state).unwrap();
        }
        let mut bases: Vec<_> = reg.iter_bases().collect();
        bases.sort_by_key(|(id, _)| *id);
        for (id, base) in bases {
            buf.clear();
            encode_base(id, base, &mut buf);
            apply_record(&buf, &mut state).unwrap();
        }
        for name in &names {
            for t in tables[*name].tuples.iter() {
                buf.clear();
                encode_tuple(name, t, &mut buf);
                apply_record(&buf, &mut state).unwrap();
            }
        }
        state
    }

    /// The raw records of the heap file at `path`, in scan order.
    fn heap_records(path: &Path) -> Vec<Vec<u8>> {
        let heap = HeapFile::new(FileStore::open(path).unwrap(), 8);
        let mut records = Vec::new();
        heap.scan(|_, rec| {
            records.push(rec.to_vec());
            true
        })
        .unwrap();
        records
    }

    #[test]
    fn records_wider_than_a_page_chain_through_the_snapshot() {
        let (mut tables, mut reg) = sample_db();
        let wide = Pdf1::discrete((0..1024).map(|i| (i as f64, 1.0 / 1024.0)).collect()).unwrap();
        let rel = tables.get_mut("readings").unwrap();
        rel.insert_simple(&mut reg, &[("rid", Value::Int(8))], &[("v", wide)]).unwrap();
        let path = temp("chained.db");
        save_database(&path, &tables, &reg).unwrap();
        let (loaded, lreg) = load_database(&path).unwrap();
        assert_eq!(loaded["readings"].tuples, tables["readings"].tuples);
        assert_eq!(lreg.len(), reg.len());

        // Records that fit a page are written as encoded; the wide base and
        // tuple records become chains of page-sized chunks.
        let records = heap_records(&path);
        let mut buf = Vec::new();
        encode_schema(&tables["objects"], &mut buf);
        assert_eq!(records[0], buf, "a record that fits is written byte for byte");
        let chunks: Vec<&Vec<u8>> = records.iter().filter(|r| r[0] == TAG_CHUNK).collect();
        assert!(chunks.len() >= 4, "two wide records, at least two chunks each");
        assert!(chunks.iter().all(|c| c.len() <= MAX_PAGE_RECORD));
        assert_eq!(chunks.iter().filter(|c| c[1] == 0).count(), 2, "two chains end");

        // A chain cut short — by the end of the file, or by a record that
        // is not its next chunk — is corruption.
        let last_end = records.iter().rposition(|r| r[..2] == [TAG_CHUNK, 0]).unwrap();
        for cut in
            [&records[..last_end], &[records[0].clone(), chunks[0].clone(), records[0].clone()][..]]
        {
            let cut_path = temp("chained_cut.db");
            let mut heap = HeapFile::new(FileStore::create(&cut_path).unwrap(), 8);
            for r in cut {
                heap.insert(r).unwrap();
            }
            heap.sync().unwrap();
            drop(heap);
            let err = load_database(&cut_path).unwrap_err();
            assert!(err.is_corruption(), "{err}");
            assert!(err.to_string().contains("cut short"), "{err}");
            std::fs::remove_file(&cut_path).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn delete_records_apply_like_delete_where() {
        let (tables, reg) = sample_db();
        let mut state = state_of(&tables, &reg);
        let regs_before = state.reg.len();
        let mut old = Vec::new();
        encode_tuple("objects", &tables["objects"].tuples[0], &mut old);
        let mut rec = Vec::new();
        encode_delete("objects", &old, &mut rec);
        apply_record(&rec, &mut state).unwrap();
        assert!(state.tables["objects"].tuples.is_empty(), "tuple removed");
        assert_eq!(state.reg.len(), regs_before - 1, "sole-ancestor base pdf reclaimed");
        // Deleting again: the content address no longer matches anything.
        let err = apply_record(&rec, &mut state).unwrap_err();
        assert!(err.is_corruption(), "missing delete target classifies as corruption");
        // Every strict prefix errors without panicking or mutating state.
        for cut in 0..rec.len() {
            let mut s = state_of(&tables, &reg);
            let r = apply_record(&rec[..cut], &mut s);
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
            assert!(r.unwrap_err().is_corruption(), "prefix errors classify as corruption");
            assert_eq!(s.tables["objects"].tuples.len(), 1, "failed delete leaves state intact");
        }
    }

    #[test]
    fn update_records_replace_in_place_and_swap_history() {
        let (tables, reg) = sample_db();
        let make_state = || state_of(&tables, &reg);
        let mut state = make_state();
        // A replacement pdf registered the way a txn commit would do it:
        // its base record precedes the update record.
        let vattr = tables["readings"].schema.column("v").unwrap().id;
        let new_id = state.reg.last_id() + 1;
        let joint = JointPdf::from_pdf1(Pdf1::gaussian(30.0, 2.0).unwrap());
        let mut base_rec = Vec::new();
        encode_base(
            new_id,
            &BasePdf { attrs: vec![vattr], joint: joint.clone(), phantom: false },
            &mut base_rec,
        );
        let old_t = tables["readings"].tuples[0].clone();
        let old_base = *old_t.nodes[0].ancestors.iter().next().unwrap();
        let mut new_t = old_t.clone();
        new_t.nodes[0] = PdfNode::new(
            vec![NodeDim { var: VarId { base: new_id, dim: 0 }, column: Some(vattr) }],
            joint,
            [new_id].into_iter().collect(),
        );
        let mut oldb = Vec::new();
        encode_tuple("readings", &old_t, &mut oldb);
        let mut newb = Vec::new();
        encode_tuple("readings", &new_t, &mut newb);
        let mut rec = Vec::new();
        encode_update("readings", &oldb, &newb, &mut rec);

        apply_record(&base_rec, &mut state).unwrap();
        apply_record(&rec, &mut state).unwrap();
        assert_eq!(state.tables["readings"].tuples.len(), 1, "in-place replacement");
        assert_eq!(state.tables["readings"].tuples[0], new_t);
        assert_eq!(state.reg.ref_count(new_id), 1, "replacement node referenced");
        assert!(state.reg.base(old_base).is_err(), "replaced node's base reclaimed");

        // An update record whose embedded tuple names a different table is
        // corruption, caught before any lookup.
        let mut cross = Vec::new();
        encode_update("objects", &oldb, &newb, &mut cross);
        assert!(apply_record(&cross, &mut make_state()).unwrap_err().is_corruption());

        // Every strict prefix errors without panicking or mutating state.
        for cut in 0..rec.len() {
            let mut s = make_state();
            apply_record(&base_rec, &mut s).unwrap();
            let r = apply_record(&rec[..cut], &mut s);
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
            assert!(r.unwrap_err().is_corruption(), "prefix errors classify as corruption");
            assert_eq!(s.tables["readings"].tuples[0], old_t, "failed update leaves state intact");
        }
    }

    #[test]
    fn truncated_records_error_without_panicking() {
        // Every strict prefix of a valid tuple record must decode to an
        // error — never a panic, never an accidental success.
        let (tables, _reg) = sample_db();
        let mut rec = Vec::new();
        encode_tuple("objects", &tables["objects"].tuples[0], &mut rec);
        for cut in 0..rec.len() {
            let mut state = LoadState::default();
            // A tuple record needs its schema applied first.
            let mut schema_rec = Vec::new();
            encode_schema(&tables["objects"], &mut schema_rec);
            apply_record(&schema_rec, &mut state).unwrap();
            let r = apply_record(&rec[..cut], &mut state);
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
            assert!(r.unwrap_err().is_corruption(), "prefix errors classify as corruption");
        }
    }
}
